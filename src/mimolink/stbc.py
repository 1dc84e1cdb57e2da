"""Orthogonal space-time block codes over 2 to 4 transmit antennas.

Every code is stored in dispersion form: a codeword for the symbol block
s = (s_1, .., s_k) is

    X(s) = (1 / sqrt(N_t)) * sum_i ( A_i Re(s_i) + j B_i Im(s_i) )

with real T x N_t matrices A_i, B_i chosen so that X(s)^H X(s)
= (sum_i |s_i|^2 / N_t) * I for every s. That orthogonality is what makes
the linear combiner below coincide with maximum-likelihood detection on a
block-constant channel: stacking the received block Y = X H^T + W and
minimizing ||Y - X(s) H^T||_F^2 decouples per symbol into

    s_hat_i = sqrt(N_t) * (Re(c_i) - j Im(d_i)) / ||H||_F^2
    c_i = tr(H^T Y^H A_i),   d_i = tr(H^T Y^H B_i).

The rate-1/2 designs are normalized by an extra 1/sqrt(2) relative to their
usual textbook form so the orthogonality constant is sum|s_i|^2 for every
code here, rate 1/2 or not.

Available designs, keyed by (n_tx, rate):

    (2, 1)    Alamouti, k=2 symbols over T=2 uses
    (3, 1/2)  k=4 over T=8
    (3, 3/4)  k=3 over T=4
    (4, 1/2)  k=4 over T=8
    (4, 3/4)  k=3 over T=4
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import numerics

__all__ = [
    "OstbcCode",
    "ostbc_code",
    "supported_codes",
    "encode_array",
    "combine_array",
]


def _codeword_g2(s):
    s1, s2 = s
    return np.array([
        [s1, s2],
        [-np.conj(s2), np.conj(s1)],
    ])


def _codeword_g4(s):
    s1, s2, s3, s4 = s
    top = np.array([
        [s1, s2, s3, s4],
        [-s2, s1, -s4, s3],
        [-s3, s4, s1, -s2],
        [-s4, -s3, s2, s1],
    ])
    return np.concatenate([top, np.conj(top)], axis=0) / math.sqrt(2.0)


def _codeword_g3(s):
    return _codeword_g4(s)[:, :3]


def _codeword_h4(s):
    s1, s2, s3 = s
    r2 = math.sqrt(2.0)
    return np.array([
        [s1, s2, s3 / r2, s3 / r2],
        [-np.conj(s2), np.conj(s1), s3 / r2, -s3 / r2],
        [np.conj(s3) / r2, np.conj(s3) / r2,
         (-s1 - np.conj(s1) + s2 - np.conj(s2)) / 2,
         (-s2 - np.conj(s2) + s1 - np.conj(s1)) / 2],
        [np.conj(s3) / r2, -np.conj(s3) / r2,
         (s2 + np.conj(s2) + s1 - np.conj(s1)) / 2,
         -(s1 + np.conj(s1) + s2 - np.conj(s2)) / 2],
    ])


def _codeword_h3(s):
    return _codeword_h4(s)[:, :3]


_DESIGNS = {
    (2, Fraction(1)): (_codeword_g2, 2, 2),
    (3, Fraction(1, 2)): (_codeword_g3, 4, 8),
    (3, Fraction(3, 4)): (_codeword_h3, 3, 4),
    (4, Fraction(1, 2)): (_codeword_g4, 4, 8),
    (4, Fraction(3, 4)): (_codeword_h4, 3, 4),
}


@dataclass(frozen=True, eq=False)
class OstbcCode:
    """One orthogonal design in dispersion form.

    a_mats and b_mats have shape (n_symbols, block_len, n_tx) and are real;
    rate = n_symbols / block_len.
    """

    n_tx: int
    rate: Fraction
    n_symbols: int
    block_len: int
    a_mats: np.ndarray
    b_mats: np.ndarray


def supported_codes() -> list[tuple[int, Fraction]]:
    return sorted(_DESIGNS.keys())


@functools.lru_cache(maxsize=None)
def _build(n_tx: int, rate: Fraction) -> OstbcCode:
    builder, k, t = _DESIGNS[(n_tx, rate)]
    a_mats = np.empty((k, t, n_tx))
    b_mats = np.empty((k, t, n_tx))
    basis = np.eye(k)
    for i in range(k):
        a_mats[i] = builder(basis[i]).real
        b_mats[i] = (builder(1j * basis[i]) / 1j).real
    a_mats.setflags(write=False)
    b_mats.setflags(write=False)
    return OstbcCode(n_tx=n_tx, rate=rate, n_symbols=k, block_len=t,
                     a_mats=a_mats, b_mats=b_mats)


def ostbc_code(n_tx: int, rate) -> OstbcCode:
    """Look up a design by antenna count and rate.

    rate may be a Fraction, an exactly-representable float (1, 0.5, 0.75),
    or a string like "3/4". Unknown combinations raise ValueError.
    """
    key = (int(n_tx), Fraction(rate))
    if key not in _DESIGNS:
        options = ", ".join(f"({n}, {r})" for n, r in supported_codes())
        raise ValueError(f"no design for n_tx={key[0]}, rate={key[1]}; have {options}")
    return _build(*key)


def encode_array(code: OstbcCode, sym_blocks: np.ndarray) -> np.ndarray:
    """Encode symbol blocks (n, k) into codeword matrices (n, T, n_tx)."""
    s = np.asarray(sym_blocks, dtype=np.complex128)
    if s.ndim != 2 or s.shape[1] != code.n_symbols:
        raise ValueError(f"expected shape (n, {code.n_symbols}), got {s.shape}")
    x = np.einsum("nk,ktm->ntm", s.real, code.a_mats)
    x = x + 1j * np.einsum("nk,ktm->ntm", s.imag, code.b_mats)
    return x / math.sqrt(code.n_tx)


def combine_array(code: OstbcCode, y: np.ndarray, h: np.ndarray) -> np.ndarray:
    """Combine received blocks y (n, T, N_r) under channels h (n, N_r, N_t)
    into symbol estimates (n, k).

    Exact on any noiseless block whose channel was constant over the block;
    with noise the estimate is the per-symbol ML statistic. Raises on an
    all-zero channel (the estimate would be undefined).

    Re(c_i) sums Re(h_rm conj(y_tr)) A_i[t, m] and Im(d_i) sums
    Im(h_rm conj(y_tr)) B_i[t, m] over the nonzero weights alone, one term
    at a time from +0 with t outermost, then r, then m ascending: the terms
    and the order of the einsum "brm,btr,ktm->bk" of h, conj(y) and the
    dispersion matrices, whose sums this equals bit for bit on finite
    inputs. (On an inf the einsum's zero-weight terms would give NaN.) The
    blocks are taken in tiles whose scratch fits numerics.CHUNK_ELEMENTS.
    """
    y = np.asarray(y, dtype=np.complex128)
    h = np.asarray(h, dtype=np.complex128)
    if y.ndim != 3 or y.shape[1] != code.block_len:
        raise ValueError(f"y must have shape (n, {code.block_len}, n_rx), got {y.shape}")
    if h.ndim != 3 or h.shape[0] != y.shape[0] or h.shape[1] != y.shape[2] or h.shape[2] != code.n_tx:
        raise ValueError(f"h shape {h.shape} inconsistent with y {y.shape} and n_tx={code.n_tx}")
    h_norm_sq = np.sum(np.abs(h) ** 2, axis=(1, 2))
    if np.any(h_norm_sq < 1e-300):
        raise ValueError("channel block has zero Frobenius norm")
    n, t_len, n_rx = y.shape
    rows, weights = _fold_terms(code, n_rx)
    # Scratch a block: the planes of h, of y repeated over m and of the
    # products, and the terms.
    per_block = 2 * n_rx * code.n_tx * (1 + 2 * t_len) + rows.size
    tile = max(1, numerics.CHUNK_ELEMENTS // per_block)
    scratch = np.empty(min(n, tile) * per_block)
    sums = np.empty((n, 2 * code.n_symbols))
    for lo in range(0, n, tile):
        _fold(y[lo : lo + tile], h[lo : lo + tile], rows, weights, scratch, sums[lo : lo + tile].T)
    c_re, d_im = np.split(sums, 2, axis=1)
    return math.sqrt(code.n_tx) * (c_re - 1j * d_im) / h_norm_sq[:, None]


@functools.lru_cache(maxsize=None)
def _fold_terms(code: OstbcCode, n_rx: int) -> tuple[np.ndarray, np.ndarray]:
    """combine_array's terms at n_rx receive antennas, term axis first, one
    column per sum: the real part of each symbol's c, then the imaginary
    part of each symbol's d. Each term is a nonzero weight of a_mats (part
    0, which weighs Re(h conj(y))) or of b_mats (part 1, Im(h conj(y)))
    and its plane row ((part T + t) N_r + r) N_t + m, in the einsum's order:
    t, then r, then m ascending. A column with fewer terms than the longest
    ends in weight-0 terms, which leave a finite sum as it is."""
    t_len, n_tx = code.block_len, code.n_tx
    columns = [
        [
            (((part * t_len + t) * n_rx + r) * n_tx + m, mats[i, t, m])
            for t in range(t_len)
            for r in range(n_rx)
            for m in np.flatnonzero(mats[i, t])
        ]
        for part, mats in enumerate((code.a_mats, code.b_mats))
        for i in range(code.n_symbols)
    ]
    rows = np.zeros((max(map(len, columns)), len(columns)), dtype=np.intp)
    weights = np.zeros(rows.shape)
    for j, column in enumerate(columns):
        rows[: len(column), j], weights[: len(column), j] = zip(*column)
    rows.setflags(write=False)
    weights.setflags(write=False)
    return rows, weights[:, :, None]


def _fold(y, h, rows, weights, scratch, out) -> None:
    """Write combine_array's sums of the blocks of y and h into out, with
    scratch arrays carved from the front of the flat array scratch.

    Forms Re(h conj(y)) and Im(h conj(y)) over every (t, r, m), blocks
    innermost, as h_re y_re + h_im y_im and h_im y_re - h_re y_im, four
    products and a sum each as the einsum rounds them (numpy's vectorized
    complex multiply may fuse a product into the sum, which rounds
    otherwise). Gathers each term's plane row, scales it by its weight,
    adds the terms one at a time and then +0, the einsum's start.
    """
    n, t_len, n_rx = y.shape
    planes = (2, t_len, n_rx, h.shape[2], n)
    views, start = [], 0
    for shape in (planes[:1] + planes[2:], planes, planes, (*rows.shape, n)):
        views.append(scratch[start : start + math.prod(shape)].reshape(shape))
        start += math.prod(shape)
    h_planes, y_planes, q, terms = views
    h_planes[0] = h.real.transpose(1, 2, 0)
    h_planes[1] = h.imag.transpose(1, 2, 0)
    y_planes[0] = y.real.transpose(1, 2, 0)[:, :, None]
    y_planes[1] = y.imag.transpose(1, 2, 0)[:, :, None]
    np.multiply(h_planes[:, None], y_planes[:1], out=q)  # h_re y_re, h_im y_re
    np.multiply(h_planes[1], y_planes[1], out=y_planes[0])  # h_im y_im
    np.multiply(h_planes[0], y_planes[1], out=y_planes[1])  # h_re y_im
    q[0] += y_planes[0]
    q[1] -= y_planes[1]
    # mode="clip" writes into terms directly, where "raise" would buffer;
    # every row is in range.
    np.take(q.reshape(-1, n), rows, axis=0, out=terms, mode="clip")
    terms *= weights
    total = terms[0]
    for term in terms[1:]:
        total += term
    np.add(total, 0.0, out=out)
