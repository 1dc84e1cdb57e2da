"""Bit source and Gray-coded QPSK mapping.

The constellation is fixed: bit pair ab maps to ((1 - 2b) + j (1 - 2a)) / sqrt(2),
i.e. the first bit of the pair picks the imaginary sign and the second the
real sign:

    00 -> (+1+j)/sqrt2    01 -> (-1+j)/sqrt2
    11 -> (-1-j)/sqrt2    10 -> (+1-j)/sqrt2

so adjacent constellation points differ in exactly one bit. QPSK_POINTS
lists the points in Gray order (00, 01, 11, 10); GRAY_BITS gives the bit
pair for each index in that same order.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "QPSK_POINTS",
    "GRAY_BITS",
    "bernoulli_bits",
    "qpsk_modulate",
    "qpsk_demodulate",
]

_INV_SQRT2 = 1.0 / np.sqrt(2.0)

QPSK_POINTS = np.array(
    [1 + 1j, -1 + 1j, -1 - 1j, 1 - 1j], dtype=np.complex128
) * _INV_SQRT2
QPSK_POINTS.setflags(write=False)

GRAY_BITS = np.array([[0, 0], [0, 1], [1, 1], [1, 0]], dtype=np.uint8)
GRAY_BITS.setflags(write=False)


def bernoulli_bits(u: np.ndarray) -> np.ndarray:
    """Fair bits from uniforms on [0, 1): 1 where u < 0.5, as a uint8 array
    of u's shape."""
    return (u < 0.5).astype(np.uint8)


def qpsk_modulate(bits) -> np.ndarray:
    """Map bit pairs to unit-energy QPSK symbols.

    bits are consumed two at a time; within each pair the first bit sets the
    imaginary sign and the second the real sign. Length must be even.
    """
    b = np.asarray(bits)
    if b.ndim != 1 or len(b) % 2 != 0:
        raise ValueError("bits must be a flat array of even length")
    if b.size and not np.all((b == 0) | (b == 1)):
        raise ValueError("bits must be 0 or 1")
    first = b[0::2].astype(np.float64)
    second = b[1::2].astype(np.float64)
    return ((1.0 - 2.0 * second) + 1j * (1.0 - 2.0 * first)) * _INV_SQRT2


def qpsk_demodulate(symbols) -> np.ndarray:
    """Hard-decision demapping of noisy QPSK symbols back to bits.

    Minimum-distance slicing reduces to independent sign tests on the two
    axes. Exact zeros on an axis are broken toward the constellation point
    with the smaller Gray index (00, 01, 11, 10), matching a brute-force
    nearest-point search with that preference order.
    """
    s = np.asarray(symbols, dtype=np.complex128)
    if s.ndim != 1:
        raise ValueError("symbols must be a flat array")
    re, im = s.real, s.imag
    # re == 0 with im < 0 sits between the 11 and 10 points; Gray order puts
    # 11 first, hence the real-axis bit flips to 1 there. All other ties fall
    # out of the plain sign tests.
    first = im < 0
    second = (re < 0) | ((re == 0) & (im < 0))
    out = np.empty(2 * len(s), dtype=np.uint8)
    out[0::2] = first
    out[1::2] = second
    return out
