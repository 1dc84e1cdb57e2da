"""Unit tests for the linear algebra, RNG, and Bessel primitives."""

import math
import warnings

import mpmath
import numpy as np
import pytest

from mimolink.numerics import (
    PhiloxStreams,
    RngStream,
    SingularMatrixError,
    bessel_i0,
    bessel_j0,
    complex_normal_from,
    gaussian_pair,
    hermitian,
    mat_inverse,
    mat_mul,
    pack_stream_id,
)

J0_FIRST_ZERO = 2.404825557695773


def _mat_mul_reference(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Schoolbook triple loop, written independently of the implementation."""
    m, k = a.shape
    k2, n = b.shape
    assert k == k2
    out = np.zeros((m, n), dtype=np.complex128)
    for i in range(m):
        for j in range(n):
            acc = 0.0 + 0.0j
            for p in range(k):
                acc += complex(a[i, p]) * complex(b[p, j])
            out[i, j] = acc
    return out


def test_mat_mul_matches_schoolbook_reference():
    rng = np.random.default_rng(11)
    for _ in range(60):
        m, k, n = rng.integers(1, 5, size=3)
        a = rng.normal(size=(m, k)) + 1j * rng.normal(size=(m, k))
        b = rng.normal(size=(k, n)) + 1j * rng.normal(size=(k, n))
        np.testing.assert_allclose(
            mat_mul(a, b), _mat_mul_reference(a, b), rtol=1e-12, atol=1e-12
        )


def test_mat_mul_known_products():
    eye = np.eye(3, dtype=np.complex128)
    a = np.arange(9, dtype=np.complex128).reshape(3, 3) + 1j
    np.testing.assert_array_equal(mat_mul(a, eye), a)
    np.testing.assert_array_equal(mat_mul(eye, a), a)
    jj = np.array([[1j]])
    np.testing.assert_allclose(mat_mul(jj, jj), [[-1.0 + 0j]])


def test_mat_mul_associative():
    rng = np.random.default_rng(12)
    for _ in range(30):
        a = rng.normal(size=(4, 3)) + 1j * rng.normal(size=(4, 3))
        b = rng.normal(size=(3, 4)) + 1j * rng.normal(size=(3, 4))
        c = rng.normal(size=(4, 2)) + 1j * rng.normal(size=(4, 2))
        left = mat_mul(mat_mul(a, b), c)
        right = mat_mul(a, mat_mul(b, c))
        np.testing.assert_allclose(left, right, rtol=1e-10, atol=1e-10)


def test_mat_mul_shape_mismatch_raises():
    a = np.ones((2, 3))
    b = np.ones((2, 3))
    with pytest.raises(ValueError):
        mat_mul(a, b)


def test_hermitian_basic():
    a = np.array([[1 + 2j, 3 - 1j], [0 + 1j, -2 - 2j]])
    ah = hermitian(a)
    np.testing.assert_array_equal(ah, a.T.conj())
    np.testing.assert_array_equal(hermitian(ah), a)


def test_hermitian_reverses_products():
    rng = np.random.default_rng(13)
    a = rng.normal(size=(3, 4)) + 1j * rng.normal(size=(3, 4))
    b = rng.normal(size=(4, 2)) + 1j * rng.normal(size=(4, 2))
    np.testing.assert_allclose(
        hermitian(mat_mul(a, b)), mat_mul(hermitian(b), hermitian(a)), rtol=1e-12
    )


def test_mat_inverse_known_values():
    np.testing.assert_allclose(mat_inverse(np.eye(4)), np.eye(4))
    d = np.diag([2.0 + 0j, 1j])
    np.testing.assert_allclose(mat_inverse(d), np.diag([0.5 + 0j, -1j]), atol=1e-15)


def test_mat_inverse_multiply_back():
    rng = np.random.default_rng(14)
    eye = np.eye(4)
    for _ in range(1000):
        b = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        a = b @ b.conj().T + eye  # Hermitian positive definite, well conditioned
        inv = mat_inverse(a)
        np.testing.assert_allclose(mat_mul(a, inv), eye, atol=1e-10)
        np.testing.assert_allclose(mat_mul(inv, a), eye, atol=1e-10)


def test_mat_inverse_singular_raises():
    a = np.array([[1.0, 2.0], [2.0, 4.0]])  # rank 1
    with pytest.raises(SingularMatrixError):
        mat_inverse(a)
    with pytest.raises(SingularMatrixError):
        mat_inverse(np.zeros((3, 3)))


def test_mat_inverse_rejects_nonsquare():
    with pytest.raises(ValueError):
        mat_inverse(np.ones((2, 3)))


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


def test_spawn_offsets_role_field():
    base = pack_stream_id(3, 2, 99)
    spawned = RngStream(5, base).spawn(4).uniform(32)
    direct = RngStream(5, pack_stream_id(3, 6, 99)).uniform(32)
    np.testing.assert_array_equal(spawned, direct)


def test_standard_normal_moments():
    z = RngStream(2024, 1).standard_normal(1_000_000)
    assert abs(z.mean()) < 0.005
    assert abs(z.var() - 1.0) < 0.01
    # successive draws should be uncorrelated
    lag1 = np.mean(z[:-1] * z[1:])
    assert abs(lag1) < 0.005


def test_standard_normal_ks_against_gaussian_cdf():
    n = 1_000_000
    z = np.sort(RngStream(7, 3).standard_normal(n))
    cdf = np.array([0.5 * (1.0 + math.erf(v / math.sqrt(2.0))) for v in z])
    ranks = np.arange(1, n + 1) / n
    d_plus = np.max(ranks - cdf)
    d_minus = np.max(cdf - (ranks - 1.0 / n))
    assert max(d_plus, d_minus) < 0.002


def test_gaussian_pair_matches_stream_draws():
    z = RngStream(9, 4).standard_normal(2)
    pair = gaussian_pair(RngStream(9, 4))
    assert pair == (z[0], z[1])
    method = RngStream(9, 4).gaussian_pair()
    assert method == (z[0], z[1])


def test_odd_normal_draw_consumes_full_uniform_pair():
    s = RngStream(21, 0)
    s.standard_normal(1)
    after_odd = s.uniform(1)

    t = RngStream(21, 0)
    t.uniform(2)  # one Box-Muller pair eats two uniforms
    np.testing.assert_array_equal(after_odd, t.uniform(1))


def test_complex_normal_shape_and_variance():
    z = RngStream(31, 2).complex_normal((500, 40, 50), var=0.25)
    assert z.shape == (500, 40, 50)
    assert z.dtype == np.complex128
    flat = z.ravel()
    assert abs(np.mean(np.abs(flat) ** 2) - 0.25) < 0.002
    assert abs(flat.real.var() - 0.125) < 0.002
    assert abs(flat.imag.var() - 0.125) < 0.002
    assert abs(np.mean(flat.real * flat.imag)) < 0.002


def test_bessel_known_values():
    assert bessel_i0(0.0) == 1.0
    assert bessel_j0(0.0) == 1.0
    assert bessel_i0(1.0) == pytest.approx(1.2660658777520084, rel=1e-12)
    assert bessel_j0(1.0) == pytest.approx(0.7651976865579666, rel=1e-12)
    assert abs(bessel_j0(J0_FIRST_ZERO)) < 1e-12
    # sign change across the first root
    assert bessel_j0(J0_FIRST_ZERO - 1e-3) > 0.0
    assert bessel_j0(J0_FIRST_ZERO + 1e-3) < 0.0


def test_bessel_against_mpmath_grid():
    mpmath.mp.dps = 40
    xs = np.linspace(0.0, 100.0, 1000)
    i0 = bessel_i0(xs)
    j0 = bessel_j0(xs)
    for x, iv, jv in zip(xs, i0, j0):
        ref_i = float(mpmath.besseli(0, x))
        ref_j = float(mpmath.besselj(0, x))
        assert iv == pytest.approx(ref_i, rel=1e-9)
        assert abs(jv - ref_j) < 1e-9


def test_bessel_continuous_at_series_asymptotic_seam():
    mpmath.mp.dps = 40
    for x in (14.999, 15.0, 15.001):
        assert bessel_i0(x) == pytest.approx(float(mpmath.besseli(0, x)), rel=1e-10)
        assert bessel_j0(x) == pytest.approx(float(mpmath.besselj(0, x)), abs=1e-10)


def test_bessel_i0_monotone():
    xs = np.linspace(0.0, 100.0, 500)
    vals = bessel_i0(xs)
    assert np.all(np.diff(vals) > 0.0)


def test_bessel_domain_errors():
    for bad in (-0.1, 100.1, float("nan")):
        with pytest.raises(ValueError):
            bessel_i0(bad)
        with pytest.raises(ValueError):
            bessel_j0(bad)
    with pytest.raises(ValueError):
        bessel_j0(np.array([1.0, 250.0]))


def test_bessel_scalar_and_array_forms():
    out = bessel_j0(np.array([0.0, 1.0]))
    assert isinstance(out, np.ndarray) and out.shape == (2,)
    assert isinstance(bessel_j0(1.0), float)
    assert isinstance(bessel_i0(2.0), float)


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
    """Rows of a batch equal the stream's interleaved (re, im) normals."""
    u = np.stack([RngStream(4, sid).uniform(60) for sid in (9, 10)])
    batch = complex_normal_from(u, 0.5)
    for row, sid in zip(batch, (9, 10)):
        z = RngStream(4, sid).standard_normal(60)
        np.testing.assert_array_equal(row, (z[0::2] + 1j * z[1::2]) * math.sqrt(0.25))
        np.testing.assert_array_equal(row, RngStream(4, sid).complex_normal(30, var=0.5))
