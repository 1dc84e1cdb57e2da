"""Unit tests for the bit source and the Gray-coded QPSK modem."""

import numpy as np
import pytest

from mimolink.modem import (
    GRAY_BITS,
    QPSK_POINTS,
    bernoulli_bits,
    qpsk_demodulate,
    qpsk_modulate,
)
from mimolink.numerics import RngStream

INV_SQRT2 = 1.0 / np.sqrt(2.0)


def test_bernoulli_fair_coin_mean():
    bits = bernoulli_bits(RngStream(5, 1).uniform(1_000_000))
    assert bits.dtype == np.uint8
    assert abs(bits.mean() - 0.5) < 0.002


def test_bernoulli_deterministic():
    a = bernoulli_bits(RngStream(9, 3).uniform(256))
    b = bernoulli_bits(RngStream(9, 3).uniform(256))
    np.testing.assert_array_equal(a, b)


def test_qpsk_mapping_table():
    # first bit of the pair flips the imaginary sign, second the real sign
    expected = {
        (0, 0): (1 + 1j) * INV_SQRT2,
        (0, 1): (-1 + 1j) * INV_SQRT2,
        (1, 1): (-1 - 1j) * INV_SQRT2,
        (1, 0): (1 - 1j) * INV_SQRT2,
    }
    for pair, point in expected.items():
        sym = qpsk_modulate(np.array(pair, dtype=np.uint8))
        assert sym.shape == (1,)
        assert sym[0] == pytest.approx(point)


def test_qpsk_modulate_sequence():
    syms = qpsk_modulate([0, 1, 1, 0])
    np.testing.assert_allclose(
        syms, np.array([-1 + 1j, 1 - 1j]) * INV_SQRT2, rtol=1e-15
    )


def test_qpsk_points_in_gray_order():
    for idx, (point, pair) in enumerate(zip(QPSK_POINTS, GRAY_BITS)):
        np.testing.assert_allclose(qpsk_modulate(pair), [point])
        # neighbouring Gray labels differ in exactly one bit
        nxt = GRAY_BITS[(idx + 1) % 4]
        assert int(np.sum(pair != nxt)) == 1


def test_qpsk_unit_energy():
    syms = qpsk_modulate(bernoulli_bits(RngStream(3, 0).uniform(2000)))
    np.testing.assert_allclose(np.abs(syms), 1.0, rtol=1e-12)


def test_qpsk_roundtrip():
    bits = bernoulli_bits(RngStream(17, 0).uniform(10_000))
    np.testing.assert_array_equal(qpsk_demodulate(qpsk_modulate(bits)), bits)


def test_decisions_are_fixed_points_of_the_round_trip():
    """Demodulating a decision's symbols gives the decision back, for every
    estimate: signed zeros on either axis, NaN and infinite parts included.
    So the linear detectors' bits, one demodulation of the estimate, are
    the bits of the symbols that a second pass through the modem gives."""
    parts = [-np.inf, -1.0, -1e-300, -0.0, 0.0, 1e-300, 1.0, np.inf, np.nan]
    estimates = np.array([complex(re, im) for re in parts for im in parts])
    estimates = np.concatenate([estimates, np.random.default_rng(24).normal(size=(1000, 2)) @ [1.0, 1j]])
    bits = qpsk_demodulate(estimates)
    np.testing.assert_array_equal(qpsk_demodulate(qpsk_modulate(bits)), bits)


def test_demodulate_known_point():
    np.testing.assert_array_equal(
        qpsk_demodulate(np.array([0.9 + 0.2j])), np.array([0, 0], dtype=np.uint8)
    )


def test_demodulate_matches_nearest_point_search():
    """Hard decisions must agree with brute-force minimum distance."""
    rng = np.random.default_rng(23)
    noisy = rng.normal(size=10_000) + 1j * rng.normal(size=10_000)
    # sprinkle in exact axis ties, where the preference order matters
    ties = np.array(
        [0.0 + 1j, 0.0 - 1j, 1.0 + 0j, -1.0 + 0j, 0.0 + 0j], dtype=np.complex128
    )
    noisy = np.concatenate([noisy, ties])

    got = qpsk_demodulate(noisy)
    dist = np.abs(noisy[:, None] - QPSK_POINTS[None, :])
    want = GRAY_BITS[np.argmin(dist, axis=1)].ravel()
    np.testing.assert_array_equal(got, want)


def test_modulate_rejects_bad_input():
    with pytest.raises(ValueError):
        qpsk_modulate([0, 1, 1])  # odd length
    with pytest.raises(ValueError):
        qpsk_modulate([0, 2])
    with pytest.raises(ValueError):
        qpsk_modulate(np.zeros((2, 2), dtype=np.uint8))


def test_demodulate_rejects_bad_shape():
    with pytest.raises(ValueError):
        qpsk_demodulate(np.zeros((2, 2), dtype=np.complex128))


def test_constellation_tables_are_frozen():
    with pytest.raises(ValueError):
        QPSK_POINTS[0] = 0.0
    with pytest.raises(ValueError):
        GRAY_BITS[0, 0] = 1
