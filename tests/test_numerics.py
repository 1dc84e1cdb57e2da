"""Unit tests for the RNG streams and the Bessel functions."""

import math
import warnings

import mpmath
import numpy as np
import pytest

from mimolink.numerics import (
    PhiloxStreams,
    RngStream,
    bessel_i0e,
    bessel_j0,
    complex_normal_from,
    pack_stream_id,
)

J0_FIRST_ZERO = 2.404825557695773


def test_pack_stream_id_layout():
    assert pack_stream_id(0, 0, 0) == 0
    assert pack_stream_id(1, 2, 3) == (1 << 48) | (2 << 32) | 3
    assert pack_stream_id(0, 0, 2**32 - 1) == 2**32 - 1


def test_pack_stream_id_range_checks():
    with pytest.raises(ValueError):
        pack_stream_id(-1, 0, 0)
    with pytest.raises(ValueError):
        pack_stream_id(0, -1, 0)
    with pytest.raises(ValueError):
        pack_stream_id(0, 0, 2**32)
    with pytest.raises(ValueError):
        pack_stream_id(2**16, 0, 0)


def test_rng_deterministic_per_stream():
    a = RngStream(42, 7).uniform(64)
    b = RngStream(42, 7).uniform(64)
    np.testing.assert_array_equal(a, b)
    c = RngStream(42, 8).uniform(64)
    assert not np.array_equal(a, c)
    d = RngStream(43, 7).uniform(64)
    assert not np.array_equal(a, d)


def test_uniform_range_and_mean():
    u = RngStream(1, 0).uniform(200_000)
    assert u.min() >= 0.0
    assert u.max() < 1.0
    assert abs(u.mean() - 0.5) < 0.005


def _standard_normals(seed: int, stream_id: int, n: int) -> np.ndarray:
    """n standard normals: the real and imaginary parts of the stream's
    complex normals of variance 2, interleaved."""
    z = RngStream(seed, stream_id).complex_normal(n // 2, var=2.0)
    return np.stack([z.real, z.imag], axis=1).ravel()


def test_standard_normal_moments():
    z = _standard_normals(2024, 1, 1_000_000)
    assert abs(z.mean()) < 0.005
    assert abs(z.var() - 1.0) < 0.01
    # successive draws should be uncorrelated
    lag1 = np.mean(z[:-1] * z[1:])
    assert abs(lag1) < 0.005


def test_standard_normal_ks_against_gaussian_cdf():
    n = 1_000_000
    z = np.sort(_standard_normals(7, 3, n))
    cdf = np.array([0.5 * (1.0 + math.erf(v / math.sqrt(2.0))) for v in z])
    ranks = np.arange(1, n + 1) / n
    d_plus = np.max(ranks - cdf)
    d_minus = np.max(cdf - (ranks - 1.0 / n))
    assert max(d_plus, d_minus) < 0.002


def test_complex_normal_shape_and_variance():
    z = RngStream(31, 2).complex_normal((500, 40, 50), var=0.25)
    assert z.shape == (500, 40, 50)
    assert z.dtype == np.complex128
    flat = z.ravel()
    assert abs(np.mean(np.abs(flat) ** 2) - 0.25) < 0.002
    assert abs(flat.real.var() - 0.125) < 0.002
    assert abs(flat.imag.var() - 0.125) < 0.002
    assert abs(np.mean(flat.real * flat.imag)) < 0.002


def _i0e_reference(x) -> float:
    return float(mpmath.besseli(0, x) * mpmath.exp(-x))


def test_bessel_known_values():
    assert bessel_i0e(0.0) == 1.0
    assert bessel_j0(0.0) == 1.0
    assert bessel_i0e(1.0) == pytest.approx(1.2660658777520084 * math.exp(-1.0), rel=1e-12)
    assert bessel_j0(1.0) == pytest.approx(0.7651976865579666, rel=1e-12)
    assert abs(bessel_j0(J0_FIRST_ZERO)) < 1e-12
    # sign change across the first root
    assert bessel_j0(J0_FIRST_ZERO - 1e-3) > 0.0
    assert bessel_j0(J0_FIRST_ZERO + 1e-3) < 0.0


def test_bessel_against_mpmath_grid():
    mpmath.mp.dps = 40
    xs = np.linspace(0.0, 100.0, 1000)
    i0e = bessel_i0e(xs)
    j0 = bessel_j0(xs)
    for x, iv, jv in zip(xs, i0e, j0):
        ref_j = float(mpmath.besselj(0, x))
        assert iv == pytest.approx(_i0e_reference(x), rel=1e-9)
        assert abs(jv - ref_j) < 1e-13
    # The exp-scaled I0 has no upper bound: I0 itself overflows past ~713.
    big = np.array([150.0, 713.0, 1e3, 2.5e3, 1e5, 1e9])
    for x, iv in zip(big, bessel_i0e(big)):
        assert iv == pytest.approx(_i0e_reference(x), rel=1e-12)


def test_bessel_continuous_at_series_asymptotic_seam():
    mpmath.mp.dps = 40
    for x in (14.999, 15.0, 15.001):
        assert bessel_i0e(x) == pytest.approx(_i0e_reference(x), rel=1e-10)
        assert bessel_j0(x) == pytest.approx(float(mpmath.besselj(0, x)), abs=1e-10)


def test_bessel_i0_monotone():
    # I0 grows faster than e^x decays at no x > 0, so e^-x I0(x) falls.
    xs = np.concatenate([np.linspace(0.0, 100.0, 500), np.geomspace(101.0, 1e6, 200)])
    vals = bessel_i0e(xs)
    assert np.all(np.diff(vals) < 0.0)


def test_bessel_domain_errors():
    for bad in (-0.1, float("nan")):
        with pytest.raises(ValueError):
            bessel_i0e(bad)
        with pytest.raises(ValueError):
            bessel_j0(bad)
    with pytest.raises(ValueError):
        bessel_i0e(float("inf"))
    with pytest.raises(ValueError):
        bessel_j0(100.1)
    with pytest.raises(ValueError):
        bessel_j0(np.array([1.0, 250.0]))


def test_bessel_scalar_and_array_forms():
    out = bessel_j0(np.array([0.0, 1.0]))
    assert isinstance(out, np.ndarray) and out.shape == (2,)
    assert isinstance(bessel_j0(1.0), float)
    assert isinstance(bessel_i0e(2.0), float)


def test_seeds_across_the_u64_range_give_distinct_streams():
    seeds = (0, 2**63, 2**63 + 1, 2**64 - 1)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        draws = [RngStream(seed, 5).uniform(8) for seed in seeds]
    for i in range(len(draws)):
        for j in range(i):
            assert not np.array_equal(draws[i], draws[j])


def test_philox_streams_match_fresh_streams():
    ids = (0, pack_stream_id(3, 2, 99), pack_stream_id(1, 17, 2**32 - 1))
    for seed in (7, 2**63 + 8, 2**64 - 1):
        streams = PhiloxStreams(seed)
        for sid in ids * 2:  # revisiting a stream restarts it
            for n in (1, 65, 130):
                np.testing.assert_array_equal(
                    streams.uniform(sid, np.empty(n)), RngStream(seed, sid).uniform(n)
                )


def test_complex_normal_from_matches_interleaved_normals():
    """Rows of a batch are trigonometric Box-Muller pairs of the stream's
    uniforms: radii from the first half, angles from the second."""
    u = np.stack([RngStream(4, sid).uniform(60) for sid in (9, 10)])
    batch = complex_normal_from(u, 0.5)
    for row, sid in zip(batch, (9, 10)):
        v = RngStream(4, sid).uniform(60)
        r = np.sqrt(-2.0 * np.log1p(-v[:30]))
        ang = 2.0 * np.pi * v[30:]
        z = (r * np.cos(ang) + 1j * (r * np.sin(ang))) * math.sqrt(0.25)
        np.testing.assert_array_equal(row, z)
        np.testing.assert_array_equal(row, RngStream(4, sid).complex_normal(30, var=0.5))
