"""Linear and maximum-likelihood QPSK detectors for uncoded spatial
multiplexing.

The transmit model is y = H x + w with x carrying one QPSK symbol per
transmit antenna, scaled by 1/sqrt(N_t) so the total transmit energy per
channel use is 1. All three detectors return hard symbol decisions drawn
from modem.QPSK_POINTS (unscaled), so callers compare decisions against
the symbols they modulated, not against x. Each detects a batch: channels
H of shape (n, N_r, N_t) and observations y of shape (n, N_r).

zf_detect_batch    QPSK after (H^H H)^{-1} H^H y
mmse_detect_batch  QPSK after (H^H H + noise_var N_t I)^{-1} H^H y, the true
                   MMSE filter for this power convention
ml_detect_batch    exhaustive search over all 4^N_t hypotheses, by halves
                   of the antennas; ties go to the lexicographically
                   smallest hypothesis

Detection is two steps. prepare_channels(kind, h) does once the work that
depends on the channels alone: H^H and the Gram matrix H^H H for ZF and
MMSE, with ZF's singularity verdict, and for ML the head and tail
hypothesis images with the tail images' squared norms. Each detect and
estimate call takes the channels prepared for its own kind, and nothing
else, so that one batch of channels serves the observations of many noise
levels at the cost of their solve or search alone.

ZF and MMSE share one solve and decide by the modem's rule,
modem.qpsk_demodulate: the signs of an estimate's real and imaginary parts
pick the nearest point, and an exact zero goes to the point with the
smaller Gray index (00, 01, 11, 10), the order of QPSK_POINTS. Their
estimates of x come from zf_estimate_batch and mmse_estimate_batch, on
which properties such as MMSE converging to ZF as noise_var vanishes live.
Preparing for ZF raises DetectionFailure when H^H H is numerically
singular (smallest eigenvalue below 1e-12 times the largest). A Gram
matrix G passes without an eigensolve when det G / (tr G)^N_t, a lower
bound on that eigenvalue ratio for Hermitian PSD G, is at least
CERTIFICATE_FLOOR; only the others, rare among random channels, get
np.linalg.eigvalsh and the rule itself. MMSE with noise_var > 0 cannot
fail that way.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from . import numerics
from .modem import QPSK_POINTS, qpsk_demodulate, qpsk_modulate

__all__ = [
    "DetectorKind",
    "DetectionFailure",
    "PreparedChannels",
    "prepare_channels",
    "prepared_elements",
    "zf_detect_batch",
    "mmse_detect_batch",
    "ml_detect_batch",
    "zf_estimate_batch",
    "mmse_estimate_batch",
]

# Relative eigenvalue floor below which H^H H is treated as singular.
SINGULARITY_RTOL = 1e-12

# det G / (tr G)^n at or above which a Gram matrix is non-singular without
# an eigensolve: 1,000 times SINGULARITY_RTOL, a margin that absorbs the
# rounding of the LU factors behind det.
CERTIFICATE_FLOOR = 1e-9


class DetectorKind(enum.Enum):
    ZF = "zf"
    MMSE = "mmse"
    ML = "ml"


class DetectionFailure(Exception):
    """The channel matrix was too ill-conditioned to invert."""


@dataclass(frozen=True, eq=False)
class PreparedChannels:
    """A batch of channels of shape (n, N_r, N_t), prepared by
    prepare_channels for one detector kind, whose detect calls take it."""

    kind: DetectorKind
    shape: tuple[int, int, int]


@dataclass(frozen=True, eq=False)
class _LinearChannels(PreparedChannels):
    hh: np.ndarray  # H^H, (n, N_t, N_r)
    gram: np.ndarray  # H^H H, (n, N_t, N_t)


@dataclass(frozen=True, eq=False)
class _MLChannels(PreparedChannels):
    head: np.ndarray  # head hypotheses x_i, (Ka, a)
    tail: np.ndarray  # tail hypotheses x_j, (Kb, N_t - a)
    head_images: np.ndarray  # H_head x_i, (n, Ka, N_r)
    tail_images: np.ndarray  # b_j = H_tail x_j, (n, Kb, N_r)
    tail_norms: np.ndarray  # ||b_j||^2, (n, Kb)


def _ml_split(n_tx: int) -> tuple[int, int, int]:
    # Head antennas a = ceil(N_t / 2), and the head and tail hypothesis
    # counts Ka = 4^a and Kb = 4^(N_t - a).
    a = -(-n_tx // 2)
    return a, 4**a, 4 ** (n_tx - a)


def prepared_elements(kind: DetectorKind, n_rx: int, n_tx: int) -> int:
    """Float64 elements that prepare_channels holds per channel matrix:
    H^H and H^H H for ZF and MMSE; the head and tail images and the tail
    norms for ML."""
    if kind is DetectorKind.ML:
        _, ka, kb = _ml_split(n_tx)
        return 2 * (ka + kb) * n_rx + kb
    return 2 * (n_rx + n_tx) * n_tx


def _singular(gram: np.ndarray) -> np.ndarray:
    # Per Gram matrix, the rule: smallest eigenvalue below SINGULARITY_RTOL
    # times the largest, or a largest that is not positive. Matrices whose
    # certificate reaches CERTIFICATE_FLOOR pass without an eigensolve; a
    # NaN certificate (tr G = 0, or an overflow) does not, so its matrix
    # gets one.
    n = gram.shape[-1]
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        cert = np.linalg.det(gram).real / np.trace(gram, axis1=-2, axis2=-1).real ** n
    singular = np.zeros(len(gram), dtype=bool)
    doubtful = ~(cert >= CERTIFICATE_FLOOR)
    if np.any(doubtful):
        eig = np.linalg.eigvalsh(gram[doubtful])
        singular[doubtful] = (eig[:, 0] < SINGULARITY_RTOL * eig[:, -1]) | (eig[:, -1] <= 0.0)
    return singular


def prepare_channels(kind: DetectorKind, h: np.ndarray) -> PreparedChannels:
    """The work of detecting through channels h (n, N_r, N_t) that does not
    depend on the observations, done once for a detector kind: H^H and the
    Gram matrix H^H H for ZF and MMSE, and for ML the head and tail images
    and the tail norms, as ml_detect_batch describes them. Preparing for ZF
    raises DetectionFailure if any channel in the batch is singular."""
    h = np.asarray(h, dtype=np.complex128)
    if h.ndim != 3:
        raise ValueError(f"bad rank: h {h.shape}")
    n_rx, n_tx = h.shape[1:]
    if kind is not DetectorKind.ML:
        hh = h.conj().swapaxes(-1, -2)
        gram = hh @ h
        if kind is DetectorKind.ZF and np.any(_singular(gram)):
            raise DetectionFailure("channel matrix numerically singular under ZF")
        return _LinearChannels(kind, h.shape, hh, gram)
    a, ka, kb = _ml_split(n_tx)
    head = _hypothesis_grid(a)
    tail = head if kb == ka else _hypothesis_grid(n_tx - a)
    hx = h.swapaxes(-1, -2) / math.sqrt(n_tx)
    head_images = head @ hx[:, :a]
    tail_images = tail @ hx[:, a:]
    bv = tail_images.view(np.float64)
    tail_norms = np.einsum("nkr,nkr->nk", bv, bv)
    return _MLChannels(kind, h.shape, head, tail, head_images, tail_images, tail_norms)


def _prepared(kind: DetectorKind, channels, y: np.ndarray) -> tuple[PreparedChannels, np.ndarray]:
    # (channels, y as complex128), once the channels come prepared for this
    # kind and y holds one N_r-vector per channel.
    if not isinstance(channels, PreparedChannels):
        raise ValueError(f"{kind.value} detection takes prepare_channels({kind}, h), not {type(channels).__name__}")
    if channels.kind is not kind:
        raise ValueError(f"channels prepared for {channels.kind.value}, not {kind.value}")
    y = np.asarray(y, dtype=np.complex128)
    if y.shape != channels.shape[:2]:
        raise ValueError(f"channels {channels.shape} and y {y.shape} do not agree")
    return channels, y


def _solve(channels: _LinearChannels, y: np.ndarray, noise_var: float | None) -> np.ndarray:
    # (H^H H + noise_var N_t I)^-1 H^H y. Zero forcing passes None: no
    # regulariser (a zero one can flip signed zeros); its channels passed
    # the singularity check when they were prepared.
    gram = channels.gram
    if noise_var is not None:
        n_tx = gram.shape[-1]
        gram = gram + noise_var * n_tx * np.eye(n_tx)
    rhs = np.einsum("ntr,nr->nt", channels.hh, y)
    return np.linalg.solve(gram, rhs[..., None])[..., 0]


def _decide(x_hat: np.ndarray) -> np.ndarray:
    # The modem's sign tests decide s from x = s / sqrt(N_t) unscaled.
    return qpsk_modulate(qpsk_demodulate(x_hat.ravel())).reshape(x_hat.shape)


def zf_estimate_batch(channels: PreparedChannels, y: np.ndarray) -> np.ndarray:
    """Pre-slicing zero-forcing estimates (H^H H)^-1 H^H y, shape (n, N_t),
    for channels = prepare_channels(DetectorKind.ZF, h), which has cleared
    every channel of the batch as non-singular."""
    return _solve(*_prepared(DetectorKind.ZF, channels, y), None)


def mmse_estimate_batch(channels: PreparedChannels, y: np.ndarray, noise_var: float) -> np.ndarray:
    """Pre-slicing MMSE estimates (H^H H + noise_var N_t I)^-1 H^H y, for
    channels = prepare_channels(DetectorKind.MMSE, h): the regularizer
    matches transmit power 1/N_t per antenna, and noise_var = 0
    degenerates the filter to zero forcing."""
    if noise_var < 0.0:
        raise ValueError("noise_var must be nonnegative")
    return _solve(*_prepared(DetectorKind.MMSE, channels, y), noise_var)


def zf_detect_batch(channels: PreparedChannels, y: np.ndarray) -> np.ndarray:
    """Zero-forcing QPSK decisions (n, N_t) for channels (n, N_r, N_t)
    prepared for ZF and observations y (n, N_r)."""
    return _decide(zf_estimate_batch(channels, y))


def mmse_detect_batch(channels: PreparedChannels, y: np.ndarray, noise_var: float) -> np.ndarray:
    """Linear MMSE QPSK decisions, shaped as zf_detect_batch's, for
    channels prepared for MMSE."""
    return _decide(mmse_estimate_batch(channels, y, noise_var))


def _hypothesis_grid(n_tx: int) -> np.ndarray:
    # All 4^n_tx QPSK transmit hypotheses in lexicographic order: the first
    # antenna's index into QPSK_POINTS is the most significant digit. Row b
    # of the result is the hypothesis with index b; n_tx = 0 gives one
    # empty one.
    idx = np.indices((4,) * n_tx).reshape(n_tx, 4**n_tx).T
    return QPSK_POINTS[idx]


def ml_detect_batch(channels: PreparedChannels, y: np.ndarray) -> np.ndarray:
    """Exhaustive maximum-likelihood QPSK detection of a batch, for channels
    prepared for ML.

    Minimizes ||y - H x||^2 over every combination of QPSK_POINTS, as a
    half-grid search: with a = ceil(N_t / 2) head antennas, hypothesis
    (i, j) pairs head hypothesis i with tail hypothesis j, and
    ||y - H x||^2 = ||r_i||^2 + ||b_j||^2 - 2 Re(r_i^H b_j) for the head
    residual r_i = y - H_head x_i and the tail image b_j = H_tail x_j. The
    head images, the tail images and their norms depend on the channel
    alone (see prepare_channels). The cross terms of a vector are one
    (Ka, N_r) @ (N_r, Kb) product. Distance ties resolve to the
    lexicographically smallest hypothesis (antenna 0 most significant,
    QPSK_POINTS order), which is the smallest row-major (i, j). Tiles of
    vectors (one at least) keep the search's scratch within
    numerics.CHUNK_ELEMENTS; the tiling never changes a decision.
    """
    channels, y = _prepared(DetectorKind.ML, channels, y)
    n, n_rx, n_tx = channels.shape
    head, tail = channels.head, channels.tail
    a = head.shape[1]
    # Scratch per vector: 6 per hypothesis (cross terms, distances,
    # argmin's copy) and 2 per receive antenna and head hypothesis, the
    # residuals r. The float64 views of r and b interleave real and
    # imaginary parts: r^H b is real.
    tile = max(1, numerics.CHUNK_ELEMENTS // (6 * len(head) * len(tail) + 2 * len(head) * n_rx))
    out = np.empty((n, n_tx), dtype=np.complex128)
    for lo in range(0, n, tile):
        r = np.subtract(y[lo : lo + tile, None, :], channels.head_images[lo : lo + tile])
        rv, bv = r.view(np.float64), channels.tail_images[lo : lo + tile].view(np.float64)
        cross = rv @ bv.swapaxes(-1, -2)
        dist = np.einsum("nkr,nkr->nk", rv, rv)[:, :, None] + channels.tail_norms[lo : lo + tile, None, :]
        cross *= 2.0
        dist -= cross
        i, j = np.divmod(np.argmin(dist.reshape(len(r), -1), axis=1), len(tail))
        out[lo : lo + tile, :a] = head[i]
        out[lo : lo + tile, a:] = tail[j]
        del r, rv, bv, cross, dist  # before the next tile's are built
    return out
