"""Tests for the correlated MIMO channel wrapper around the fading links."""

import math
from dataclasses import replace

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
    receive,
    receiver_noise,
)
from mimolink.fading import FadingModel, FadingSpec, fading_draws, fading_init
from mimolink.modem import qpsk_modulate
from mimolink.numerics import ROLE_SHIFT, RngStream
from _support import complex_normal

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


def _links(spec: ChannelSpec, seed: int, stream_id: int = 0):
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


def test_correlation_sqrt_is_exactly_real(monkeypatch):
    """The root, computed in complex arithmetic from the complex correlation
    matrix, has imaginary parts of exactly 0 over a grid of rho for every
    antenna count; the mixing reads its real part alone. A root with a
    nonzero imaginary part raises instead of losing it."""
    rhos = [*np.linspace(0.0, 1.0, 401)[:-1], 0.37, 0.999, 1.0 - 1e-12]
    for n in range(1, channel.MAX_ANTENNAS + 1):
        for rho in rhos:
            root = channel._correlation_sqrt.__wrapped__(n, float(rho))
            assert root.dtype == np.float64 and root.shape == (n, n)
    hermitian = np.array([[1.0, 0.5j], [-0.5j, 1.0]])
    monkeypatch.setattr(channel, "correlation_matrix", lambda n, rho: hermitian)
    with pytest.raises(ArithmeticError, match="not real"):
        channel._correlation_sqrt.__wrapped__(2, 0.5)


def _einsum_mix(rr, g, rt):
    """The mixing as one complex einsum, the form the kernel reproduces."""
    return np.einsum("ij,njk,kl->nil", rr.astype(np.complex128), g, rt.astype(np.complex128))


@pytest.mark.parametrize("n_rx", range(1, 5))
@pytest.mark.parametrize("n_tx", range(1, 5))
def test_mix_equals_einsum_bit_for_bit(n_rx, n_tx):
    """channel._mix of the gains' planes equals the complex einsum of the
    (n, n_rx, n_tx) matrices bit for bit, signed zeros included, for every
    shape, correlation and row count, with leading trial axes that the
    planes fold into their sample axis."""
    rng = np.random.default_rng(n_rx * 10 + n_tx)
    leads = [(), (3,), (2, 2)]
    for i, rho in enumerate((0.1, 0.37, 0.5, 0.9, 0.999)):
        rr, rt = channel._correlation_sqrt(n_rx, rho), channel._correlation_sqrt(n_tx, rho)
        for j, rows in enumerate((1, 7, 80, 240, 780)):
            lead = leads[(i + j) % len(leads)]
            shape = (*lead, n_rx * n_tx, rows)
            gains = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
            g = np.ascontiguousarray(np.swapaxes(gains, -1, -2)).reshape(-1, n_rx, n_tx)
            got = channel._mix(channel._planes(gains), rr, rt)
            assert got.shape == g.shape
            np.testing.assert_array_equal(got.view(np.uint64), _einsum_mix(rr, g, rt).view(np.uint64))


def _real_plane_receive(h, x):
    """H x summed over t in ascending order from +0, each term's real and
    imaginary parts formed from two real products apiece."""
    re, im = np.zeros(h.shape[:2]), np.zeros(h.shape[:2])
    for t in range(h.shape[2]):
        h_t, x_t = h[:, :, t], x[:, None, t]
        re = re + (h_t.real * x_t.real - h_t.imag * x_t.imag)
        im = im + (h_t.real * x_t.imag + h_t.imag * x_t.real)
    y = np.empty(h.shape[:2], dtype=np.complex128)
    y.real, y.imag = re, im
    return y


@pytest.mark.parametrize("rows, n_rx, n_tx", [
    (1, 1, 1), (7, 1, 2), (80, 2, 1), (240, 2, 2), (780, 3, 4), (4620, 2, 2), (5000, 4, 4),
])
def test_receive_equals_real_plane_sum_bit_for_bit(rows, n_rx, n_tx):
    """receive(h, x, None) rounds as the real-plane sum over t in ascending
    order from +0, bit for bit, signed zeros included, so that a change of
    its sum order or product form shows here and not only in tolerances."""
    rng = np.random.default_rng([rows, n_rx, n_tx])
    h = rng.standard_normal((rows, n_rx, n_tx)) + 1j * rng.standard_normal((rows, n_rx, n_tx))
    x = rng.standard_normal((rows, n_tx)) + 1j * rng.standard_normal((rows, n_tx))
    h[0, 0, 0] = complex(-0.0, 0.0)
    x[-1] = complex(0.0, -0.0)
    got = receive(h, x, None)
    np.testing.assert_array_equal(got.view(np.uint64), _real_plane_receive(h, x).view(np.uint64))


def test_correlated_channel_matrices_equal_einsum_of_uncorrelated():
    """channel_matrix_at of a correlated batch of channels is, bit for bit,
    path_gain times the einsum of the same links' uncorrelated matrices at
    0 dB, for reads of two lengths."""
    fading = FadingSpec(model=FadingModel.RICIAN, k_factor=4.0, los_doppler_hz=100.0)
    spec = ChannelSpec(n_tx=3, n_rx=4, fading=fading, correlation=0.37, path_gain_db=-7.0)
    plain = ChannelSpec(n_tx=3, n_rx=4, fading=fading)
    u = np.stack([_link_uniforms(spec, 5, i) for i in range(6)]).reshape(2, 3, 12, -1)
    links = channel_init(spec, u)
    rr, rt = channel._correlation_sqrt(4, 0.37), channel._correlation_sqrt(3, 0.37)
    for n in (80, 13):
        g = channel_matrix_at(plain, links, n)
        want = channel.path_gain(spec) * _einsum_mix(rr, g.reshape(-1, 4, 3), rt)
        got = channel_matrix_at(spec, links, n)
        np.testing.assert_array_equal(got.view(np.uint64), want.reshape(g.shape).view(np.uint64))


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
    h = channel_matrix_at(spec, _links(spec, 2), 100)
    assert h.shape == (100, 1, 1)


def test_links_are_distinct_and_deterministic():
    spec = ChannelSpec(n_tx=4, n_rx=4, fading=FAST_FADING)
    h1 = channel_matrix_at(spec, _links(spec, 3), 64)
    h2 = channel_matrix_at(spec, _links(spec, 3), 64)
    np.testing.assert_array_equal(h1, h2)
    # all 16 scalar links carry different realizations
    flat = h1.reshape(64, 16)
    for a in range(16):
        for b in range(a + 1, 16):
            assert not np.array_equal(flat[:, a], flat[:, b])


def test_uncorrelated_entries_and_unit_power():
    spec = ChannelSpec(n_tx=2, n_rx=2, fading=FAST_FADING, correlation=0.0)
    h = channel_matrix_at(spec, _links(spec, 4), 100_000)
    flat = h.reshape(-1, 4)
    power = np.mean(np.abs(flat) ** 2, axis=0)
    np.testing.assert_allclose(power, 1.0, atol=0.02)
    for a in range(4):
        for b in range(a + 1, 4):
            rho = np.mean(flat[:, a] * np.conj(flat[:, b]))
            assert abs(rho) < 0.02


def test_path_gain_scales_power():
    spec = ChannelSpec(n_tx=1, n_rx=1, fading=FAST_FADING, path_gain_db=-6.02059991328)
    h = channel_matrix_at(spec, _links(spec, 5), 100_000)
    assert abs(np.mean(np.abs(h) ** 2) - 0.25) < 0.01


def test_high_correlation_between_adjacent_links():
    spec = ChannelSpec(n_tx=2, n_rx=2, fading=FAST_FADING, correlation=0.9)
    h = channel_matrix_at(spec, _links(spec, 6), 100_000)
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
    h = channel_matrix_at(spec, _links(spec, 7), 200_000)
    g_sq = 10.0 ** (gain_db / 10.0)
    vecs = h.reshape(len(h), -1, order="F")  # stack columns: rx index fastest
    cov = vecs.T.conj() @ vecs / len(h) / g_sq
    want = np.kron(correlation_matrix(3, rho), correlation_matrix(2, rho))
    np.testing.assert_allclose(cov, want, atol=0.03)


def test_power_budget_single_link():
    """Mean received signal power equals mean transmit power at unit gain."""
    spec = ChannelSpec(n_tx=1, n_rx=1, fading=FAST_FADING)
    links = _links(spec, 8)
    bits = (RngStream(8, 1).uniform(200_000) < 0.5).astype(np.uint8)
    x = qpsk_modulate(bits).reshape(-1, 1)
    y, h = apply_channel(spec, links, x, None)
    ratio = np.mean(np.abs(y) ** 2) / np.mean(np.abs(x) ** 2)
    assert abs(ratio - 1.0) < 0.03


def test_power_budget_per_receive_antenna():
    """With unit-energy rows, each receive antenna sees g^2 signal power."""
    gain_db = -4.0
    spec = ChannelSpec(n_tx=4, n_rx=4, fading=FAST_FADING, path_gain_db=gain_db)
    links = _links(spec, 9)
    n = 100_000
    bits = (RngStream(9, 1).uniform(8 * n) < 0.5).astype(np.uint8)
    x = qpsk_modulate(bits).reshape(n, 4) / 2.0  # rows have total energy 1
    y, _ = apply_channel(spec, links, x, None)
    per_antenna = np.mean(np.abs(y) ** 2, axis=0)
    np.testing.assert_allclose(per_antenna, 10.0 ** (gain_db / 10.0), rtol=0.03)


def test_noise_power_at_zero_db():
    spec = ChannelSpec(n_tx=1, n_rx=2, fading=FAST_FADING)
    links = _links(spec, 10)
    x = np.ones((100_000, 1), dtype=np.complex128)
    y, h = apply_channel(spec, links, x, receiver_noise((len(x), 2), 0.0, RngStream(10, 1).uniform))
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
    links = _links(spec, 12)
    bits = (RngStream(12, 1).uniform(512) < 0.5).astype(np.uint8)
    x = qpsk_modulate(bits).reshape(-1, 1)
    w = receiver_noise((len(x), 1), float("inf"), RngStream(12, 2).uniform)
    assert w is None
    y, h = apply_channel(spec, links, x, w)
    assert np.array_equal(y, x)  # bit-exact, no noise, unit gain
    assert noise_variance(float("inf")) == 0.0
    assert np.all(h == 1.0 + 0.0j)


def test_reported_csi_matches_applied_channel():
    spec = ChannelSpec(n_tx=3, n_rx=2, fading=FAST_FADING, correlation=0.5)
    links = _links(spec, 13)
    x = complex_normal(RngStream(13, 1), (1000, 3))
    y, h = apply_channel(spec, links, x, None)
    resid = y - np.einsum("nrt,nt->nr", h, x)
    assert np.max(np.abs(resid)) < 1e-12


def test_apply_channel_shape_check():
    spec = ChannelSpec(n_tx=2, n_rx=2, fading=FAST_FADING)
    links = _links(spec, 14)
    with pytest.raises(ValueError, match="x must have shape"):
        apply_channel(spec, links, np.ones((4, 3), dtype=np.complex128), None)
    x = np.ones((4, 2), dtype=np.complex128)
    for shape in ((4, 3), (3, 2), (1, 4, 2)):
        with pytest.raises(ValueError, match="w must have shape"):
            apply_channel(spec, links, x, receiver_noise(shape, 10.0, RngStream(14, 1).uniform))


def test_apply_channel_checks_the_angle_tables():
    """apply_channel rejects angle tables whose link count or M disagrees
    with the spec it reads them under, for a batch of channels and for a
    single link's tables, which have no link axis; a spec that differs in
    anything else reads them (test_channel_restart_equals_a_fresh_channel)."""
    spec = ChannelSpec(n_tx=3, n_rx=2, fading=FAST_FADING)
    links = channel_init(spec, np.stack([_link_uniforms(spec, 19, i) for i in range(2)]))
    x = np.ones((2, 4, 3), dtype=np.complex128)
    m = FAST_FADING.num_sinusoids
    for bad in (replace(spec, n_tx=2), replace(spec, n_rx=3),
                replace(spec, fading=replace(FAST_FADING, num_sinusoids=m // 2)),
                replace(spec, fading=replace(FAST_FADING, num_sinusoids=m + 1))):
        with pytest.raises(ValueError, match="angle tables"):
            apply_channel(bad, links, x[..., : bad.n_tx], None)
    single = ChannelSpec(n_tx=1, n_rx=1, fading=FAST_FADING)
    with pytest.raises(ValueError, match="angle tables"):
        apply_channel(single, fading_init(FAST_FADING, RngStream(19, 0)), x[0, :, :1], None)


def test_links_give_the_same_matrices_on_every_read():
    """Links keep no time: reading them twice gives the same matrices bit
    for bit, and so does reading them under another point's spec and then
    again under the first."""
    spec = ChannelSpec(n_tx=2, n_rx=2, fading=FAST_FADING, correlation=0.5)
    other = ChannelSpec(n_tx=2, n_rx=2, correlation=0.9, path_gain_db=-7.0,
                        fading=FadingSpec(max_doppler_hz=40.0, sample_rate_hz=1e4))
    links = _links(spec, 15)
    first = channel_matrix_at(spec, links, 100).view(np.uint64)
    np.testing.assert_array_equal(channel_matrix_at(spec, links, 100).view(np.uint64), first)
    x = complex_normal(RngStream(15, 1), (100, 2))
    y, h = apply_channel(spec, links, x, None)
    _, h_other = apply_channel(other, links, x, None)
    assert not np.array_equal(h_other, h)
    y_again, h_again = apply_channel(spec, links, x, None)
    for got in (h, h_again):
        np.testing.assert_array_equal(got.view(np.uint64), first)
    np.testing.assert_array_equal(y_again.view(np.uint64), y.view(np.uint64))
    np.testing.assert_array_equal(channel_matrix_at(other, links, 100).view(np.uint64), h_other.view(np.uint64))


def test_channel_init_checks_uniform_shape():
    spec = ChannelSpec(n_tx=2, n_rx=3, fading=FAST_FADING)
    u = _link_uniforms(spec, 16, 0)
    assert channel_init(spec, u[None, None]).alphas.shape == (1, 1, 6, FAST_FADING.num_sinusoids)
    for bad in (u[0], u[:-1], u[:, :-1], np.concatenate([u, u], axis=1)):
        with pytest.raises(ValueError, match="u must have shape"):
            channel_init(spec, bad)


@pytest.mark.parametrize("spec", [
    ChannelSpec(n_tx=3, n_rx=2, fading=FAST_FADING, correlation=0.5, path_gain_db=-3.0),
    ChannelSpec(n_tx=2, n_rx=2, correlation=0.9, fading=FadingSpec(
        model=FadingModel.RICIAN, k_factor=4.0, los_doppler_hz=100.0, los_phase_rad=0.3)),
])
def test_batched_channels_equal_single_channels(spec):
    """The links of a (2, 3) batch of channels give, bit for bit, the
    matrices and receive rows of the six channels run one at a time."""
    lead, n = (2, 3), 40
    u = np.stack([_link_uniforms(spec, 17, i) for i in range(6)])
    batch = channel_init(spec, u.reshape(*lead, *u.shape[1:]))
    singles = [_links(spec, 17, i) for i in range(6)]
    h = channel_matrix_at(spec, batch, n)
    assert h.shape == (*lead, n, spec.n_rx, spec.n_tx)
    want = np.stack([channel_matrix_at(spec, c, n) for c in singles])
    np.testing.assert_array_equal(h.reshape(want.shape), want)

    x = complex_normal(RngStream(17, 99), (*lead, n, spec.n_tx))
    def noise(i):
        return RngStream(17, 100 + i).uniform

    # One row of uniforms per channel, as sim's engine draws them.
    w = receiver_noise((*lead, n, spec.n_rx), 5.0, lambda size: np.stack([noise(i)(size // 6) for i in range(6)]))
    y, h = apply_channel(spec, batch, x, w)
    assert y.shape == (*lead, n, spec.n_rx)
    flat_x, flat_y, flat_h = (a.reshape(6, *a.shape[2:]) for a in (x, y, h))
    for i, c in enumerate(singles):
        y1, h1 = apply_channel(spec, c, flat_x[i], receiver_noise((n, spec.n_rx), 5.0, noise(i)))
        np.testing.assert_array_equal(flat_y[i], y1)
        np.testing.assert_array_equal(flat_h[i], h1)
    with pytest.raises(ValueError, match="x must have shape"):
        apply_channel(spec, batch, flat_x, None)


def test_channel_restart_equals_a_fresh_channel():
    """Links read under another Doppler, sample rate, correlation and path
    gain give, bit for bit, the matrices of links started under that spec
    from the same uniforms, through channel_matrix_at and apply_channel;
    the links keep the spec they were started under. Read at 0 dB, they
    give the matrices before the path gain."""
    spec = ChannelSpec(n_tx=3, n_rx=2, fading=FAST_FADING, correlation=0.5)
    other = ChannelSpec(n_tx=3, n_rx=2, correlation=0.9, path_gain_db=-7.0,
                        fading=FadingSpec(max_doppler_hz=40.0, sample_rate_hz=1e4))
    u = _link_uniforms(spec, 18, 0)
    links = channel_init(spec, u)
    fresh = channel_matrix_at(other, channel_init(other, u), 50)
    np.testing.assert_array_equal(channel_matrix_at(other, links, 50), fresh)
    x = complex_normal(RngStream(18, 1), (50, 3))
    np.testing.assert_array_equal(apply_channel(other, links, x, None)[1], fresh)
    assert links.spec == spec.fading
    unit = channel.path_gain(other) * channel_matrix_at(replace(other, path_gain_db=0.0), links, 50)
    np.testing.assert_array_equal(unit, channel_matrix_at(other, links, 50))
