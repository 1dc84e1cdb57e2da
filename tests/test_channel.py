"""Tests for the correlated MIMO channel wrapper around the fading links."""

import math

import numpy as np
import pytest

from mimolink import channel
from mimolink.channel import (
    CORRELATION_LEVELS,
    MAX_PATH_GAIN_DB,
    ChannelSpec,
    apply_channel,
    channel_init,
    channel_matrix_at,
    correlation_matrix,
    correlation_rho,
    noise_variance,
)
from mimolink.fading import FadingModel, FadingSpec, fading_draws
from mimolink.modem import qpsk_modulate
from mimolink.numerics import ROLE_SHIFT, RngStream

# fast-decorrelating fading so sample statistics converge quickly
FAST_FADING = FadingSpec(model=FadingModel.RAYLEIGH, max_doppler_hz=100.0, sample_rate_hz=256.0)


def _link_uniforms(spec: ChannelSpec, seed: int, stream_id: int) -> np.ndarray:
    """Link i's fading uniforms from stream stream_id + (i << ROLE_SHIFT),
    the role field offset by the link index, as the engine draws them."""
    draws = fading_draws(spec.fading)
    return np.stack([
        RngStream(seed, stream_id + (i << ROLE_SHIFT)).uniform(draws)
        for i in range(spec.n_rx * spec.n_tx)
    ])


def _channel(spec: ChannelSpec, seed: int, stream_id: int = 0):
    return channel_init(spec, _link_uniforms(spec, seed, stream_id))


def test_correlation_rho_names_and_numbers():
    assert correlation_rho("none") == 0.0
    assert correlation_rho("low") == 0.1
    assert correlation_rho("medium") == 0.5
    assert correlation_rho("high") == 0.9
    assert correlation_rho(0.3) == 0.3
    assert CORRELATION_LEVELS["high"] == 0.9
    with pytest.raises(ValueError):
        correlation_rho("extreme")
    with pytest.raises(ValueError):
        correlation_rho(1.0)
    with pytest.raises(ValueError):
        correlation_rho(-0.1)


def test_correlation_matrix_values():
    np.testing.assert_array_equal(correlation_matrix(4, 0.0), np.eye(4))
    r2 = correlation_matrix(2, 0.5)
    np.testing.assert_allclose(r2, [[1.0, 0.5], [0.5, 1.0]])
    r4 = correlation_matrix(4, 0.9)
    # exponential profile: R[i, j] = rho ** |i - j|
    for i in range(4):
        for j in range(4):
            assert r4[i, j] == pytest.approx(0.9 ** abs(i - j))
    assert np.all(np.linalg.eigvalsh(r4) > 0.0)


def test_correlation_sqrt_reconstructs_matrix():
    for n in (4, 3):
        root = channel._correlation_sqrt(n, 0.9)
        np.testing.assert_allclose(root @ root.conj().T, correlation_matrix(n, 0.9), atol=1e-10)


def test_channel_spec_validation():
    with pytest.raises(ValueError):
        ChannelSpec(n_tx=0, n_rx=1, fading=FAST_FADING).validate()
    with pytest.raises(ValueError):
        ChannelSpec(n_tx=1, n_rx=5, fading=FAST_FADING).validate()
    with pytest.raises(ValueError):
        ChannelSpec(n_tx=2, n_rx=2, fading=FAST_FADING, correlation=1.0).validate()
    ChannelSpec(n_tx=4, n_rx=4, fading=FAST_FADING, correlation=0.9).validate()
    # The path gain is bounded, so that neither g nor g^2 overflows or
    # underflows to zero.
    for gain_db in (-MAX_PATH_GAIN_DB, MAX_PATH_GAIN_DB):
        ChannelSpec(fading=FAST_FADING, path_gain_db=gain_db).validate()
    for gain_db in (-7000.0, -MAX_PATH_GAIN_DB - 0.5, MAX_PATH_GAIN_DB + 0.5, 7000.0, math.inf, math.nan):
        with pytest.raises(ValueError, match="MAX_PATH_GAIN_DB"):
            ChannelSpec(fading=FAST_FADING, path_gain_db=gain_db).validate()


def test_degenerate_single_antenna():
    spec = ChannelSpec(n_tx=1, n_rx=1, fading=FAST_FADING)
    h = channel_matrix_at(_channel(spec, 2), 100)
    assert h.shape == (100, 1, 1)


def test_links_are_distinct_and_deterministic():
    spec = ChannelSpec(n_tx=4, n_rx=4, fading=FAST_FADING)
    h1 = channel_matrix_at(_channel(spec, 3), 64)
    h2 = channel_matrix_at(_channel(spec, 3), 64)
    np.testing.assert_array_equal(h1, h2)
    # all 16 scalar links carry different realizations
    flat = h1.reshape(64, 16)
    for a in range(16):
        for b in range(a + 1, 16):
            assert not np.array_equal(flat[:, a], flat[:, b])


def test_uncorrelated_entries_and_unit_power():
    spec = ChannelSpec(n_tx=2, n_rx=2, fading=FAST_FADING, correlation=0.0)
    h = channel_matrix_at(_channel(spec, 4), 100_000)
    flat = h.reshape(-1, 4)
    power = np.mean(np.abs(flat) ** 2, axis=0)
    np.testing.assert_allclose(power, 1.0, atol=0.02)
    for a in range(4):
        for b in range(a + 1, 4):
            rho = np.mean(flat[:, a] * np.conj(flat[:, b]))
            assert abs(rho) < 0.02


def test_path_gain_scales_power():
    spec = ChannelSpec(n_tx=1, n_rx=1, fading=FAST_FADING, path_gain_db=-6.02059991328)
    h = channel_matrix_at(_channel(spec, 5), 100_000)
    assert abs(np.mean(np.abs(h) ** 2) - 0.25) < 0.01


def test_high_correlation_between_adjacent_links():
    spec = ChannelSpec(n_tx=2, n_rx=2, fading=FAST_FADING, correlation=0.9)
    h = channel_matrix_at(_channel(spec, 6), 100_000)
    # same receive antenna, neighbouring transmit antennas
    rho_tx = np.mean(h[:, 0, 0] * np.conj(h[:, 0, 1]))
    assert abs(rho_tx - 0.9) < 0.03
    rho_rx = np.mean(h[:, 0, 0] * np.conj(h[:, 1, 0]))
    assert abs(rho_rx - 0.9) < 0.03


def test_kronecker_covariance_structure():
    """cov(vec(H)) must match Rt (x) Rr entry by entry."""
    rho = 0.5
    gain_db = -3.0
    spec = ChannelSpec(
        n_tx=3, n_rx=2, fading=FAST_FADING, correlation=rho, path_gain_db=gain_db
    )
    h = channel_matrix_at(_channel(spec, 7), 200_000)
    g_sq = 10.0 ** (gain_db / 10.0)
    vecs = h.reshape(len(h), -1, order="F")  # stack columns: rx index fastest
    cov = vecs.T.conj() @ vecs / len(h) / g_sq
    want = np.kron(correlation_matrix(3, rho), correlation_matrix(2, rho))
    np.testing.assert_allclose(cov, want, atol=0.03)


def test_power_budget_single_link():
    """Mean received signal power equals mean transmit power at unit gain."""
    spec = ChannelSpec(n_tx=1, n_rx=1, fading=FAST_FADING)
    proc = _channel(spec, 8)
    bits = (RngStream(8, 1).uniform(200_000) < 0.5).astype(np.uint8)
    x = qpsk_modulate(bits).reshape(-1, 1)
    y, h = apply_channel(proc, x, float("inf"), RngStream(8, 2).uniform)
    ratio = np.mean(np.abs(y) ** 2) / np.mean(np.abs(x) ** 2)
    assert abs(ratio - 1.0) < 0.03


def test_power_budget_per_receive_antenna():
    """With unit-energy rows, each receive antenna sees g^2 signal power."""
    gain_db = -4.0
    spec = ChannelSpec(n_tx=4, n_rx=4, fading=FAST_FADING, path_gain_db=gain_db)
    proc = _channel(spec, 9)
    n = 100_000
    bits = (RngStream(9, 1).uniform(8 * n) < 0.5).astype(np.uint8)
    x = qpsk_modulate(bits).reshape(n, 4) / 2.0  # rows have total energy 1
    y, _ = apply_channel(proc, x, float("inf"), RngStream(9, 2).uniform)
    per_antenna = np.mean(np.abs(y) ** 2, axis=0)
    np.testing.assert_allclose(per_antenna, 10.0 ** (gain_db / 10.0), rtol=0.03)


def test_noise_power_at_zero_db():
    spec = ChannelSpec(n_tx=1, n_rx=2, fading=FAST_FADING)
    proc = _channel(spec, 10)
    x = np.ones((100_000, 1), dtype=np.complex128)
    y, h = apply_channel(proc, x, 0.0, RngStream(10, 1).uniform)
    assert noise_variance(0.0) == 1.0
    w = y - np.einsum("nrt,nt->nr", h, x)
    assert abs(np.mean(np.abs(w) ** 2) - 1.0) < 0.02


def test_snr_ten_db_noise_var():
    assert noise_variance(10.0) == pytest.approx(0.1)


def test_infinite_snr_unit_channel_is_identity():
    """The no-noise flag plus a degenerate line-of-sight channel passes x through."""
    unit = FadingSpec(
        model=FadingModel.RICIAN, max_doppler_hz=100.0, sample_rate_hz=1000.0, k_factor=1e16
    )
    spec = ChannelSpec(n_tx=1, n_rx=1, fading=unit)
    proc = _channel(spec, 12)
    bits = (RngStream(12, 1).uniform(512) < 0.5).astype(np.uint8)
    x = qpsk_modulate(bits).reshape(-1, 1)
    y, h = apply_channel(proc, x, float("inf"), RngStream(12, 2).uniform)
    assert np.array_equal(y, x)  # bit-exact, no noise, unit gain
    assert noise_variance(float("inf")) == 0.0
    assert np.all(h == 1.0 + 0.0j)


def test_reported_csi_matches_applied_channel():
    spec = ChannelSpec(n_tx=3, n_rx=2, fading=FAST_FADING, correlation=0.5)
    proc = _channel(spec, 13)
    x = RngStream(13, 1).complex_normal((1000, 3))
    y, h = apply_channel(proc, x, float("inf"), RngStream(13, 2).uniform)
    resid = y - np.einsum("nrt,nt->nr", h, x)
    assert np.max(np.abs(resid)) < 1e-12


def test_apply_channel_shape_check():
    spec = ChannelSpec(n_tx=2, n_rx=2, fading=FAST_FADING)
    proc = _channel(spec, 14)
    with pytest.raises(ValueError):
        apply_channel(proc, np.ones((4, 3), dtype=np.complex128), 10.0, RngStream(14, 1).uniform)


def test_channel_time_advances_between_calls():
    spec = ChannelSpec(n_tx=1, n_rx=1, fading=FAST_FADING)
    proc = _channel(spec, 15)
    first = channel_matrix_at(proc, 50)
    second = channel_matrix_at(proc, 50)
    whole = channel_matrix_at(_channel(spec, 15), 100)
    np.testing.assert_array_equal(np.concatenate([first, second]), whole)


def test_channel_init_checks_uniform_shape():
    spec = ChannelSpec(n_tx=2, n_rx=3, fading=FAST_FADING)
    u = _link_uniforms(spec, 16, 0)
    assert channel_init(spec, u[None, None]).fading.alphas.shape == (1, 1, 6, FAST_FADING.num_sinusoids)
    for bad in (u[0], u[:-1], u[:, :-1], np.concatenate([u, u], axis=1)):
        with pytest.raises(ValueError, match="u must have shape"):
            channel_init(spec, bad)


@pytest.mark.parametrize("spec", [
    ChannelSpec(n_tx=3, n_rx=2, fading=FAST_FADING, correlation=0.5, path_gain_db=-3.0),
    ChannelSpec(n_tx=2, n_rx=2, correlation=0.9, fading=FadingSpec(
        model=FadingModel.RICIAN, k_factor=4.0, los_doppler_hz=100.0, los_phase_rad=0.3)),
])
def test_batched_channels_equal_single_channels(spec):
    """A process over a (2, 3) batch of channels gives, bit for bit, the
    matrices and receive rows of the six channels run one at a time, over
    successive calls."""
    lead, n = (2, 3), 40
    u = np.stack([_link_uniforms(spec, 17, i) for i in range(6)])
    batch = channel_init(spec, u.reshape(*lead, *u.shape[1:]))
    singles = [_channel(spec, 17, i) for i in range(6)]
    for _ in range(2):
        h = channel_matrix_at(batch, n)
        assert h.shape == (*lead, n, spec.n_rx, spec.n_tx)
        want = np.stack([channel_matrix_at(c, n) for c in singles])
        np.testing.assert_array_equal(h.reshape(want.shape), want)

    x = RngStream(17, 99).complex_normal((*lead, n, spec.n_tx))
    def noise(i):
        return RngStream(17, 100 + i).uniform

    # One row of uniforms per channel, as sim's engine draws them.
    y, h = apply_channel(batch, x, 5.0, lambda size: np.stack([noise(i)(size // 6) for i in range(6)]))
    assert y.shape == (*lead, n, spec.n_rx)
    flat_x, flat_y, flat_h = (a.reshape(6, *a.shape[2:]) for a in (x, y, h))
    for i, c in enumerate(singles):
        y1, h1 = apply_channel(c, flat_x[i], 5.0, noise(i))
        np.testing.assert_array_equal(flat_y[i], y1)
        np.testing.assert_array_equal(flat_h[i], h1)
    with pytest.raises(ValueError, match="x must have shape"):
        apply_channel(batch, flat_x, 5.0, noise(0))
