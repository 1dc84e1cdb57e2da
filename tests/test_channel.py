"""Tests for the correlated MIMO channel wrapper around the fading links."""

import math

import numpy as np
import pytest

from mimolink import channel
from mimolink.channel import (
    CORRELATION_LEVELS,
    ChannelSpec,
    apply_channel,
    channel_init,
    channel_matrix_at,
    correlation_matrix,
    correlation_rho,
    noise_variance,
)
from mimolink.fading import FadingModel, FadingSpec
from mimolink.modem import qpsk_modulate
from mimolink.numerics import RngStream

# fast-decorrelating fading so sample statistics converge quickly
FAST_FADING = FadingSpec(model=FadingModel.RAYLEIGH, max_doppler_hz=100.0, sample_rate_hz=256.0)


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


def test_degenerate_single_antenna():
    spec = ChannelSpec(n_tx=1, n_rx=1, fading=FAST_FADING)
    h = channel_matrix_at(channel_init(spec, RngStream(2, 0)), 100)
    assert h.shape == (100, 1, 1)


def test_links_are_distinct_and_deterministic():
    spec = ChannelSpec(n_tx=4, n_rx=4, fading=FAST_FADING)
    h1 = channel_matrix_at(channel_init(spec, RngStream(3, 0)), 64)
    h2 = channel_matrix_at(channel_init(spec, RngStream(3, 0)), 64)
    np.testing.assert_array_equal(h1, h2)
    # all 16 scalar links carry different realizations
    flat = h1.reshape(64, 16)
    for a in range(16):
        for b in range(a + 1, 16):
            assert not np.array_equal(flat[:, a], flat[:, b])


def test_uncorrelated_entries_and_unit_power():
    spec = ChannelSpec(n_tx=2, n_rx=2, fading=FAST_FADING, correlation=0.0)
    h = channel_matrix_at(channel_init(spec, RngStream(4, 0)), 100_000)
    flat = h.reshape(-1, 4)
    power = np.mean(np.abs(flat) ** 2, axis=0)
    np.testing.assert_allclose(power, 1.0, atol=0.02)
    for a in range(4):
        for b in range(a + 1, 4):
            rho = np.mean(flat[:, a] * np.conj(flat[:, b]))
            assert abs(rho) < 0.02


def test_path_gain_scales_power():
    spec = ChannelSpec(n_tx=1, n_rx=1, fading=FAST_FADING, path_gain_db=-6.02059991328)
    h = channel_matrix_at(channel_init(spec, RngStream(5, 0)), 100_000)
    assert abs(np.mean(np.abs(h) ** 2) - 0.25) < 0.01


def test_high_correlation_between_adjacent_links():
    spec = ChannelSpec(n_tx=2, n_rx=2, fading=FAST_FADING, correlation=0.9)
    h = channel_matrix_at(channel_init(spec, RngStream(6, 0)), 100_000)
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
    h = channel_matrix_at(channel_init(spec, RngStream(7, 0)), 200_000)
    g_sq = 10.0 ** (gain_db / 10.0)
    vecs = h.reshape(len(h), -1, order="F")  # stack columns: rx index fastest
    cov = vecs.T.conj() @ vecs / len(h) / g_sq
    want = np.kron(correlation_matrix(3, rho), correlation_matrix(2, rho))
    np.testing.assert_allclose(cov, want, atol=0.03)


def test_power_budget_single_link():
    """Mean received signal power equals mean transmit power at unit gain."""
    spec = ChannelSpec(n_tx=1, n_rx=1, fading=FAST_FADING)
    proc = channel_init(spec, RngStream(8, 0))
    bits = (RngStream(8, 1).uniform(200_000) < 0.5).astype(np.uint8)
    x = qpsk_modulate(bits).reshape(-1, 1)
    y, h = apply_channel(proc, x, float("inf"), RngStream(8, 2))
    ratio = np.mean(np.abs(y) ** 2) / np.mean(np.abs(x) ** 2)
    assert abs(ratio - 1.0) < 0.03


def test_power_budget_per_receive_antenna():
    """With unit-energy rows, each receive antenna sees g^2 signal power."""
    gain_db = -4.0
    spec = ChannelSpec(n_tx=4, n_rx=4, fading=FAST_FADING, path_gain_db=gain_db)
    proc = channel_init(spec, RngStream(9, 0))
    n = 100_000
    bits = (RngStream(9, 1).uniform(8 * n) < 0.5).astype(np.uint8)
    x = qpsk_modulate(bits).reshape(n, 4) / 2.0  # rows have total energy 1
    y, _ = apply_channel(proc, x, float("inf"), RngStream(9, 2))
    per_antenna = np.mean(np.abs(y) ** 2, axis=0)
    np.testing.assert_allclose(per_antenna, 10.0 ** (gain_db / 10.0), rtol=0.03)


def test_noise_power_at_zero_db():
    spec = ChannelSpec(n_tx=1, n_rx=2, fading=FAST_FADING)
    proc = channel_init(spec, RngStream(10, 0))
    x = np.ones((100_000, 1), dtype=np.complex128)
    y, h = apply_channel(proc, x, 0.0, RngStream(10, 1))
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
    proc = channel_init(spec, RngStream(12, 0))
    bits = (RngStream(12, 1).uniform(512) < 0.5).astype(np.uint8)
    x = qpsk_modulate(bits).reshape(-1, 1)
    y, h = apply_channel(proc, x, float("inf"), RngStream(12, 2))
    assert np.array_equal(y, x)  # bit-exact, no noise, unit gain
    assert noise_variance(float("inf")) == 0.0
    assert np.all(h == 1.0 + 0.0j)


def test_reported_csi_matches_applied_channel():
    spec = ChannelSpec(n_tx=3, n_rx=2, fading=FAST_FADING, correlation=0.5)
    proc = channel_init(spec, RngStream(13, 0))
    x = RngStream(13, 1).complex_normal((1000, 3))
    y, h = apply_channel(proc, x, float("inf"), RngStream(13, 2))
    resid = y - np.einsum("nrt,nt->nr", h, x)
    assert np.max(np.abs(resid)) < 1e-12


def test_apply_channel_shape_check():
    spec = ChannelSpec(n_tx=2, n_rx=2, fading=FAST_FADING)
    proc = channel_init(spec, RngStream(14, 0))
    with pytest.raises(ValueError):
        apply_channel(proc, np.ones((4, 3), dtype=np.complex128), 10.0, RngStream(14, 1))


def test_channel_time_advances_between_calls():
    spec = ChannelSpec(n_tx=1, n_rx=1, fading=FAST_FADING)
    proc = channel_init(spec, RngStream(15, 0))
    first = channel_matrix_at(proc, 50)
    second = channel_matrix_at(proc, 50)
    whole = channel_matrix_at(channel_init(spec, RngStream(15, 0)), 100)
    np.testing.assert_array_equal(np.concatenate([first, second]), whole)
