"""Statistical and structural tests for the sum-of-sinusoids fading models."""

import math

import numpy as np
import pytest
from scipy import stats as sps

from mimolink import numerics
from mimolink.fading import (
    K_AWGN_SENTINEL,
    MAX_VALIDATION_SAMPLES,
    MIN_VALIDATION_SAMPLES,
    EnvelopeStats,
    FadingModel,
    FadingProcess,
    FadingSpec,
    check_validation_samples,
    fading_angles,
    fading_init,
    fading_next,
    link_gains,
    ks_statistic,
    pdf_envelope_rician,
    rician_envelope_cdf_grid,
    validate_process,
)
from mimolink.numerics import RngStream

# fs / f_d = 2.56 decorrelates successive samples quickly, which keeps the
# effective sample count high for the distributional tests below.
FAST_SPEC = FadingSpec(model=FadingModel.RAYLEIGH, max_doppler_hz=100.0, sample_rate_hz=256.0)


def test_spec_validation():
    with pytest.raises(ValueError):
        FadingSpec(model=FadingModel.RAYLEIGH, num_sinusoids=7).validate()
    with pytest.raises(ValueError):
        FadingSpec(model=FadingModel.RAYLEIGH, max_doppler_hz=100.0, sample_rate_hz=150.0).validate()
    with pytest.raises(ValueError):
        FadingSpec(model=FadingModel.RICIAN, k_factor=-1.0).validate()
    with pytest.raises(ValueError):
        FadingSpec(model=FadingModel.RICIAN, k_factor=float("nan")).validate()
    # k_factor is simply ignored for Rayleigh, not an error
    FadingSpec(model=FadingModel.RAYLEIGH, k_factor=3.0).validate()
    # Every parameter must be finite. NaN compares false, so the Nyquist
    # test alone lets a NaN sample rate or LOS Doppler through.
    for name in ("sample_rate_hz", "los_doppler_hz", "los_phase_rad", "k_factor"):
        for bad in (math.nan, math.inf, -math.inf):
            with pytest.raises(ValueError, match=name):
                FadingSpec(**{"model": FadingModel.RICIAN, "k_factor": 4.0, name: bad}).validate()
    with pytest.raises(ValueError):
        FadingSpec(max_doppler_hz=math.inf).validate()
    # A link_gains tile holds one link-sample's M sinusoids.
    FadingSpec(num_sinusoids=numerics.CHUNK_ELEMENTS).validate()
    with pytest.raises(ValueError, match="num_sinusoids"):
        FadingSpec(num_sinusoids=numerics.CHUNK_ELEMENTS + 1).validate()


def test_init_angle_structure():
    proc = fading_init(FAST_SPEC, RngStream(1, 0))
    m = FAST_SPEC.num_sinusoids
    assert proc.alphas.shape == proc.psis.shape == proc.thetas.shape == (m,)
    assert np.all(proc.alphas >= 0.0) and np.all(proc.alphas < np.pi / 2)
    assert np.all(np.diff(proc.alphas) > 0.0)
    for phases in (proc.psis, proc.thetas):
        assert np.all(phases >= -np.pi) and np.all(phases < np.pi)
    assert proc.sample_index == 0


def test_init_draw_order_is_fixed():
    """One uniform for the arrival-angle offset, then M + M for the phases."""
    proc = fading_init(FAST_SPEC, RngStream(77, 5))
    u = RngStream(77, 5).uniform(1 + 2 * FAST_SPEC.num_sinusoids)
    m = FAST_SPEC.num_sinusoids
    theta = -math.pi + 2.0 * math.pi * u[0]
    np.testing.assert_allclose(proc.psis, -np.pi + 2.0 * np.pi * u[1 : m + 1], rtol=1e-15)
    np.testing.assert_allclose(proc.thetas, -np.pi + 2.0 * np.pi * u[m + 1 :], rtol=1e-15)
    expected_alphas = (2.0 * np.pi * np.arange(1, m + 1) - np.pi + theta) / (4.0 * m)
    np.testing.assert_allclose(proc.alphas, expected_alphas, rtol=1e-15)


def test_deterministic_and_stream_separated():
    a = fading_next(fading_init(FAST_SPEC, RngStream(3, 10)), 512)
    b = fading_next(fading_init(FAST_SPEC, RngStream(3, 10)), 512)
    np.testing.assert_array_equal(a, b)
    c = fading_next(fading_init(FAST_SPEC, RngStream(3, 11)), 512)
    assert not np.array_equal(a, c)


def test_seamless_continuation_across_calls_and_chunks():
    proc = fading_init(FAST_SPEC, RngStream(8, 1))
    split = np.concatenate([fading_next(proc, 35_000), fading_next(proc, 35_000)])
    whole = fading_next(fading_init(FAST_SPEC, RngStream(8, 1)), 70_000)
    np.testing.assert_array_equal(split, whole)  # 70000 also crosses a chunk edge


def _outer_product_gains(proc, t):
    """The sum of sinusoids written out with whole (n, M) outer products."""
    spec = proc.spec
    wd = 2.0 * np.pi * spec.max_doppler_hz
    arg_re = wd * np.outer(t, np.cos(proc.alphas)) + proc.psis
    arg_im = wd * np.outer(t, np.sin(proc.alphas)) + proc.thetas
    scale = 1.0 / math.sqrt(spec.num_sinusoids)
    g = scale * (np.cos(arg_re).sum(axis=1) + 1j * np.cos(arg_im).sum(axis=1))
    if spec.model is FadingModel.RICIAN:
        k = spec.k_factor
        los = math.sqrt(k / (k + 1.0)) * np.exp(
            1j * (2.0 * np.pi * spec.los_doppler_hz * t + spec.los_phase_rad)
        )
        g = los + math.sqrt(1.0 / (k + 1.0)) * g
    return g


@pytest.mark.parametrize("spec", [
    FAST_SPEC,
    FadingSpec(model=FadingModel.RICIAN, k_factor=4.0, los_doppler_hz=100.0, los_phase_rad=0.3),
])
def test_link_gains_tiles_match_outer_products(spec, monkeypatch):
    """Every tiling of links and times gives the reference bytes, and so
    does fading_next, link by link and over a batched process."""
    n, draws = 300, 1 + 2 * spec.num_sinusoids
    u = np.stack([RngStream(6, sid).uniform(draws) for sid in range(5)])
    t = np.arange(n) / spec.sample_rate_hz
    procs = [fading_init(spec, RngStream(6, sid)) for sid in range(5)]
    expected = np.stack([_outer_product_gains(p, t) for p in procs])
    for budget in (1, 40, spec.num_sinusoids * 7, 10**9):
        monkeypatch.setattr(numerics, "CHUNK_ELEMENTS", budget)
        np.testing.assert_array_equal(link_gains(spec, *fading_angles(spec, u), t), expected)
        batch = FadingProcess(spec, *fading_angles(spec, u.reshape(1, 5, draws)))
        np.testing.assert_array_equal(fading_next(batch, n), expected[None])
    np.testing.assert_array_equal(np.stack([fading_next(p, n) for p in procs]), expected)


def test_rayleigh_unit_mean_power():
    g = fading_next(fading_init(FAST_SPEC, RngStream(21, 0)), 1_000_000)
    assert abs(np.mean(np.abs(g) ** 2) - 1.0) < 0.01


def test_independent_links_uncorrelated():
    g1 = fading_next(fading_init(FAST_SPEC, RngStream(50, 100)), 100_000)
    g2 = fading_next(fading_init(FAST_SPEC, RngStream(50, 101)), 100_000)
    cross = np.mean(g1 * np.conj(g2))
    assert abs(cross) < 0.02


def test_rayleigh_envelope_ks():
    g = fading_next(fading_init(FAST_SPEC, RngStream(33, 0)), 1_000_000)
    env = np.abs(g)
    res = sps.kstest(env, lambda x: 1.0 - np.exp(-(x**2)))
    assert res.statistic < 0.005


def test_rician_k0_matches_rayleigh():
    """K = 0 must reproduce the Rayleigh envelope distribution."""
    spec0 = FadingSpec(
        model=FadingModel.RICIAN, max_doppler_hz=100.0, sample_rate_hz=256.0, k_factor=0.0
    )
    env_rice = np.abs(fading_next(fading_init(spec0, RngStream(60, 0)), 100_000))
    env_ray = np.abs(fading_next(fading_init(FAST_SPEC, RngStream(60, 1)), 100_000))
    assert sps.ks_2samp(env_rice, env_ray).statistic < 0.01


def test_rician_k1_envelope_ks():
    spec = FadingSpec(
        model=FadingModel.RICIAN, max_doppler_hz=100.0, sample_rate_hz=256.0, k_factor=1.0
    )
    env = np.abs(fading_next(fading_init(spec, RngStream(61, 0)), 1_000_000))
    # unit total power: c_m^2 = K/(K+1), per-quadrature variance 1/(2(K+1))
    b = math.sqrt(1.0) / math.sqrt(0.5)  # c_m / alpha for K = 1
    alpha = math.sqrt(0.25)
    res = sps.kstest(env, sps.rice(b, scale=alpha).cdf)
    assert res.statistic < 0.005


def test_rician_mean_power_any_k():
    for k in (0.5, 4.0, 10.0):
        spec = FadingSpec(
            model=FadingModel.RICIAN, max_doppler_hz=100.0, sample_rate_hz=256.0, k_factor=k
        )
        g = fading_next(fading_init(spec, RngStream(62, int(k * 10))), 500_000)
        assert abs(np.mean(np.abs(g) ** 2) - 1.0) < 0.02


def test_large_k_collapses_to_rotating_phasor():
    spec = FadingSpec(
        model=FadingModel.RICIAN,
        max_doppler_hz=100.0,
        sample_rate_hz=1000.0,
        k_factor=1e12,
        los_doppler_hz=10.0,
        los_phase_rad=0.5,
    )
    g = fading_next(fading_init(spec, RngStream(4, 0)), 100)
    t = np.arange(100) / 1000.0
    expected = np.exp(1j * (2.0 * np.pi * 10.0 * t + 0.5))
    # amplitude sqrt(K/(K+1)) differs from 1 by ~5e-13 at K = 1e12
    np.testing.assert_allclose(g, expected, atol=1e-5)
    assert np.max(np.abs(np.abs(g) - 1.0)) < 1e-9


def test_huge_k_has_exactly_unit_amplitude():
    spec = FadingSpec(
        model=FadingModel.RICIAN, max_doppler_hz=100.0, sample_rate_hz=1000.0, k_factor=1e16
    )
    g = fading_next(fading_init(spec, RngStream(4, 1)), 16)
    assert np.all(g == 1.0 + 0.0j)  # los_doppler = 0, phase 0: exact unit channel


def test_sentinel_k_still_mixes_scattered_part():
    """At K equal to the sentinel the scattered term is still present."""
    spec = FadingSpec(
        model=FadingModel.RICIAN, max_doppler_hz=100.0, sample_rate_hz=1000.0,
        k_factor=K_AWGN_SENTINEL,
    )
    g = fading_next(fading_init(spec, RngStream(4, 2)), 64)
    assert np.std(np.abs(g)) > 0.0


def test_pdf_envelope_rician_reduces_to_rayleigh():
    grid = np.linspace(0.0, 5.0, 100)
    alpha_sq = 0.5
    ours = pdf_envelope_rician(grid, 0.0, alpha_sq)
    rayleigh = grid / alpha_sq * np.exp(-(grid**2) / (2.0 * alpha_sq))
    np.testing.assert_allclose(ours, rayleigh, rtol=1e-12)


def test_pdf_envelope_rician_matches_scipy_and_normalizes():
    c_m, alpha_sq = 1.0, 0.5
    grid = np.linspace(0.0, 15.0, 100_001)
    ours = pdf_envelope_rician(grid, c_m, alpha_sq)
    alpha = math.sqrt(alpha_sq)
    ref = sps.rice(c_m / alpha, scale=alpha).pdf(grid)
    np.testing.assert_allclose(ours, ref, rtol=1e-10, atol=1e-12)
    assert np.trapezoid(ours, grid) == pytest.approx(1.0, abs=1e-6)
    with pytest.raises(ValueError):
        pdf_envelope_rician(1.0, -0.1, 0.5)
    with pytest.raises(ValueError):
        pdf_envelope_rician(1.0, 1.0, 0.0)


def test_ks_statistic_hand_example():
    samples = np.array([1.0, 2.0, 3.0])
    cdf = np.array([0.2, 0.5, 0.9])
    # sup distance dominated by cdf minus the lower staircase at x = 3
    assert ks_statistic(samples, cdf) == pytest.approx(0.9 - 2.0 / 3.0)
    with pytest.raises(ValueError):
        ks_statistic(np.array([]), np.array([]))


def test_ks_statistic_uniform_sanity():
    u = np.sort(RngStream(90, 0).uniform(100_000))
    assert ks_statistic(u, u) < 0.01  # identity CDF for uniform samples


def test_rician_cdf_grid_against_scipy():
    # At K = 60 and 1000, x c_m / alpha^2 reaches the hundreds and the
    # thousands, where I0 itself overflows; the exp-scaled density does not.
    for k in (3.0, 60.0, 1000.0):
        grid, cdf = rician_envelope_cdf_grid(k, 6.0)
        alpha = math.sqrt(0.5 / (k + 1.0))
        b = math.sqrt(k / (k + 1.0)) / alpha
        ref = sps.rice(b, scale=alpha).cdf(grid)
        assert np.max(np.abs(cdf - ref)) < 1e-6


def test_validate_process_preconditions():
    with pytest.raises(ValueError):
        validate_process(fading_init(FAST_SPEC, RngStream(1, 0)), 99_999)
    check_validation_samples(MIN_VALIDATION_SAMPLES)
    check_validation_samples(MAX_VALIDATION_SAMPLES)
    for bad in (MIN_VALIDATION_SAMPLES - 1, MAX_VALIDATION_SAMPLES + 1):
        with pytest.raises(ValueError, match="samples"):
            check_validation_samples(bad)
    # validate_process checks the count before it synthesises anything.
    with pytest.raises(ValueError, match="samples"):
        validate_process(None, MAX_VALIDATION_SAMPLES + 1)
    awgnish = FadingSpec(
        model=FadingModel.RICIAN, max_doppler_hz=100.0, sample_rate_hz=256.0, k_factor=1e9
    )
    with pytest.raises(ValueError):
        validate_process(fading_init(awgnish, RngStream(1, 0)), 200_000)


def test_validate_process_rayleigh_stats():
    stats = validate_process(fading_init(FAST_SPEC, RngStream(100, 0)), 200_000)
    assert isinstance(stats, EnvelopeStats)
    assert stats.ks_statistic < 0.01
    assert abs(stats.empirical_mean_power - 1.0) < 0.02
    lag0 = stats.autocorr_lags[0]
    assert lag0[0] == 0.0
    assert lag0[1] == pytest.approx(1.0)
    assert lag0[2] == pytest.approx(1.0)


def test_autocorrelation_tracks_bessel():
    """Densely sampled Rayleigh: real-part autocorrelation follows J0."""
    spec = FadingSpec(model=FadingModel.RAYLEIGH, max_doppler_hz=100.0, sample_rate_hz=2560.0)
    stats = validate_process(fading_init(spec, RngStream(101, 0)), 500_000)
    lags = np.array(stats.autocorr_lags)
    assert lags.shape[0] >= 50  # covers tau * f_d up to 2
    rmse = math.sqrt(np.mean((lags[:, 1] - lags[:, 2]) ** 2))
    assert rmse < 0.08


def test_rician_autocorr_theory_column():
    spec = FadingSpec(
        model=FadingModel.RICIAN,
        max_doppler_hz=100.0,
        sample_rate_hz=2560.0,
        k_factor=4.0,
        los_doppler_hz=50.0,
    )
    stats = validate_process(fading_init(spec, RngStream(102, 0)), 500_000)
    from mimolink.numerics import bessel_j0

    for tau, emp, theo in stats.autocorr_lags[:10]:
        want = (4.0 * math.cos(2.0 * math.pi * 50.0 * tau) + bessel_j0(2.0 * math.pi * 100.0 * tau)) / 5.0
        assert theo == pytest.approx(want, rel=1e-12)
    lags = np.array(stats.autocorr_lags)
    rmse = math.sqrt(np.mean((lags[:, 1] - lags[:, 2]) ** 2))
    assert rmse < 0.1
