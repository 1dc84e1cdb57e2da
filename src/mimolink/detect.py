"""Linear and maximum-likelihood detectors for uncoded spatial multiplexing.

The transmit model is y = H x + w with x carrying one constellation symbol
per transmit antenna, scaled by 1/sqrt(N_t) so the total transmit energy per
channel use is 1. All three detectors return hard symbol decisions drawn
from the constellation (unscaled), so callers compare decisions against the
symbols they modulated, not against x. Each detects a batch: channels h
of shape (n, N_r, N_t) and observations y of shape (n, N_r).

zf_detect_batch    QPSK after (H^H H)^{-1} H^H y
mmse_detect_batch  QPSK after (H^H H + noise_var N_t I)^{-1} H^H y, the true
                   MMSE filter for this power convention
ml_detect_batch    exhaustive search over all |C|^N_t hypotheses of any
                   constellation, by halves of the antennas; ties go to
                   the lexicographically smallest hypothesis

ZF and MMSE share one solve and decide by the modem's rule,
modem.qpsk_demodulate: the signs of an estimate's real and imaginary parts
pick the nearest point, and an exact zero goes to the point with the
smaller Gray index (00, 01, 11, 10), the order of QPSK_POINTS. Their
estimates of x come from zf_estimate_batch and mmse_estimate_batch, on
which properties such as MMSE converging to ZF as noise_var vanishes live.
ZF raises DetectionFailure when H^H H is numerically singular (smallest
eigenvalue below 1e-12 times the largest); MMSE with noise_var > 0 cannot
fail that way.
"""

from __future__ import annotations

import enum
import math

import numpy as np

from . import numerics
from .modem import qpsk_demodulate, qpsk_modulate

__all__ = [
    "DetectorKind",
    "DetectionFailure",
    "zf_detect_batch",
    "mmse_detect_batch",
    "ml_detect_batch",
    "zf_estimate_batch",
    "mmse_estimate_batch",
]

# Relative eigenvalue floor below which H^H H is treated as singular.
SINGULARITY_RTOL = 1e-12

# Cap on constellation^n_tx, keeping exhaustive ML search tractable.
ML_MAX_HYPOTHESES = 1_000_000


class DetectorKind(enum.Enum):
    ZF = "zf"
    MMSE = "mmse"
    ML = "ml"


class DetectionFailure(Exception):
    """The channel matrix was too ill-conditioned to invert."""


def _check_y_h(h: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    h = np.asarray(h, dtype=np.complex128)
    y = np.asarray(y, dtype=np.complex128)
    if h.ndim != 3 or y.ndim != 2:
        raise ValueError(f"bad ranks: h {h.shape}, y {y.shape}")
    if h.shape[-2] != y.shape[-1] or h.shape[0] != y.shape[0]:
        raise ValueError(f"h {h.shape} and y {y.shape} do not agree")
    return h, y


def _solve(h: np.ndarray, y: np.ndarray, noise_var: float | None) -> np.ndarray:
    # (H^H H + noise_var N_t I)^-1 H^H y. Zero forcing passes None: no
    # regulariser (a zero one can flip signed zeros), a singularity check.
    h, y = _check_y_h(h, y)
    n_tx = h.shape[-1]
    hh = h.conj().swapaxes(-1, -2)
    gram = hh @ h
    if noise_var is None:
        eig = np.linalg.eigvalsh(gram)
        if np.any((eig[:, 0] < SINGULARITY_RTOL * eig[:, -1]) | (eig[:, -1] <= 0.0)):
            raise DetectionFailure("channel matrix numerically singular under ZF")
    else:
        gram += noise_var * n_tx * np.eye(n_tx)
    rhs = np.einsum("ntr,nr->nt", hh, y)
    return np.linalg.solve(gram, rhs[..., None])[..., 0]


def _decide(x_hat: np.ndarray) -> np.ndarray:
    # The modem's sign tests decide s from x = s / sqrt(N_t) unscaled.
    return qpsk_modulate(qpsk_demodulate(x_hat.ravel())).reshape(x_hat.shape)


def zf_estimate_batch(h: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Pre-slicing zero-forcing estimates (H^H H)^-1 H^H y, shape (n, N_t).
    Raises DetectionFailure if any channel in the batch is singular."""
    return _solve(h, y, None)


def mmse_estimate_batch(h: np.ndarray, y: np.ndarray, noise_var: float) -> np.ndarray:
    """Pre-slicing MMSE estimates (H^H H + noise_var N_t I)^-1 H^H y: the
    regularizer matches transmit power 1/N_t per antenna, and noise_var = 0
    degenerates the filter to zero forcing."""
    if noise_var < 0.0:
        raise ValueError("noise_var must be nonnegative")
    return _solve(h, y, noise_var)


def zf_detect_batch(h: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Zero-forcing QPSK decisions (n, N_t) for h (n, N_r, N_t), y (n, N_r).
    Raises DetectionFailure if any channel in the batch is singular."""
    return _decide(zf_estimate_batch(h, y))


def mmse_detect_batch(h: np.ndarray, y: np.ndarray, noise_var: float) -> np.ndarray:
    """Linear MMSE QPSK decisions, shaped as zf_detect_batch's."""
    return _decide(mmse_estimate_batch(h, y, noise_var))


def _hypothesis_grid(points: np.ndarray, n_tx: int) -> np.ndarray:
    # All |C|^n_tx transmit hypotheses in lexicographic order: the first
    # antenna's symbol index is the most significant digit. Row b of the
    # result is the hypothesis with index b; n_tx = 0 gives one empty one.
    m = len(points)
    idx = np.indices((m,) * n_tx).reshape(n_tx, m**n_tx).T
    return points[idx]


def ml_detect_batch(h: np.ndarray, y: np.ndarray, points: np.ndarray) -> np.ndarray:
    """Exhaustive maximum-likelihood detection of a batch.

    Minimizes ||y - H x||^2 over every constellation combination, as a
    half-grid search: with a = ceil(N_t / 2) head antennas, hypothesis
    (i, j) pairs head hypothesis i with tail hypothesis j, and
    ||y - H x||^2 = ||r_i||^2 + ||b_j||^2 - 2 Re(r_i^H b_j) for the head
    residual r_i = y - H_head x_i and the tail image b_j = H_tail x_j. The
    cross terms of a vector are one (Ka, N_r) @ (N_r, Kb) product. Distance
    ties resolve to the lexicographically smallest hypothesis (antenna 0
    most significant, constellation order as given), which is the
    smallest row-major (i, j). The search size |points|^N_t must stay
    under one million. Tiles of vectors (one at least) keep the scratch
    within numerics.CHUNK_ELEMENTS; the tiling never changes a decision.
    """
    h, y = _check_y_h(h, y)
    n_rx, n_tx = h.shape[1:]
    points = np.asarray(points, dtype=np.complex128)
    if len(points) ** n_tx > ML_MAX_HYPOTHESES:
        raise ValueError("hypothesis space too large for exhaustive search")
    a = -(-n_tx // 2)
    head = _hypothesis_grid(points, a)
    tail = head if n_tx - a == a else _hypothesis_grid(points, n_tx - a)
    # Scratch per vector: 6 per hypothesis (cross terms, distances, argmin's
    # copy) and 2 per receive antenna and head or tail hypothesis or transmit
    # antenna: the residuals r, tail images b and scaled channel. The float64
    # views of r and b interleave real and imaginary parts: r^H b is real.
    per_vector = 6 * len(head) * len(tail) + 2 * (len(head) + len(tail) + n_tx) * n_rx
    tile = max(1, numerics.CHUNK_ELEMENTS // per_vector)
    out = np.empty((len(y), n_tx), dtype=np.complex128)
    for lo in range(0, len(y), tile):
        hx = h[lo : lo + tile].swapaxes(-1, -2) / math.sqrt(n_tx)
        r = head @ hx[:, :a]
        np.subtract(y[lo : lo + tile, None, :], r, out=r)
        b = tail @ hx[:, a:]
        rv, bv = r.view(np.float64), b.view(np.float64)
        cross = rv @ bv.swapaxes(-1, -2)
        dist = np.einsum("nkr,nkr->nk", rv, rv)[:, :, None] + np.einsum("nkr,nkr->nk", bv, bv)[:, None, :]
        cross *= 2.0
        dist -= cross
        i, j = np.divmod(np.argmin(dist.reshape(len(r), -1), axis=1), len(tail))
        out[lo : lo + tile, :a] = head[i]
        out[lo : lo + tile, a:] = tail[j]
        del hx, r, b, rv, bv, cross, dist  # before the next tile's are built
    return out
