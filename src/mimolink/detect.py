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

Detection is two steps. prepare_channels(kind, h) does once the work that
depends on the channels alone: H^H and the Gram matrix H^H H for ZF and
MMSE, with ZF's singularity verdict, and for ML the head and tail
hypothesis images with the tail images' squared norms. Each detect call
takes either channels, which it prepares itself (ML a tile at a time), or
a prepared batch in their place, so that one batch of channels serves the
observations of many noise levels at the cost of their solve or search.
Both forms run the same operations on the same arrays, so they decide
alike bit for bit.

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
from .modem import qpsk_demodulate, qpsk_modulate

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

# Cap on constellation^n_tx, keeping exhaustive ML search tractable.
ML_MAX_HYPOTHESES = 1_000_000


class DetectorKind(enum.Enum):
    ZF = "zf"
    MMSE = "mmse"
    ML = "ml"


class DetectionFailure(Exception):
    """The channel matrix was too ill-conditioned to invert."""


@dataclass(frozen=True, eq=False)
class PreparedChannels:
    """A batch of channels of shape (n, N_r, N_t), prepared by
    prepare_channels for one detector kind; a detect call of that kind
    takes it in place of h."""

    kind: DetectorKind
    shape: tuple[int, int, int]


@dataclass(frozen=True, eq=False)
class _LinearChannels(PreparedChannels):
    hh: np.ndarray  # H^H, (n, N_t, N_r)
    gram: np.ndarray  # H^H H, (n, N_t, N_t)


@dataclass(frozen=True, eq=False)
class _MLChannels(PreparedChannels):
    points: np.ndarray  # the constellation
    head: np.ndarray  # head hypotheses x_i, (Ka, a)
    tail: np.ndarray  # tail hypotheses x_j, (Kb, N_t - a)
    head_images: np.ndarray  # H_head x_i, (n, Ka, N_r)
    tail_images: np.ndarray  # b_j = H_tail x_j, (n, Kb, N_r)
    tail_norms: np.ndarray  # ||b_j||^2, (n, Kb)


def _ml_split(m: int, n_tx: int) -> tuple[int, int, int]:
    # Head antennas a = ceil(N_t / 2), and the head and tail hypothesis
    # counts Ka = m^a and Kb = m^(N_t - a) for a constellation of m points.
    if m**n_tx > ML_MAX_HYPOTHESES:
        raise ValueError("hypothesis space too large for exhaustive search")
    a = -(-n_tx // 2)
    return a, m**a, m ** (n_tx - a)


def prepared_elements(kind: DetectorKind, n_rx: int, n_tx: int, m: int = 4) -> int:
    """Float64 elements that prepare_channels holds per channel matrix, for
    a constellation of m points under ML: H^H and H^H H for ZF and MMSE;
    the head and tail images and the tail norms for ML."""
    if kind is DetectorKind.ML:
        _, ka, kb = _ml_split(m, n_tx)
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


def prepare_channels(kind: DetectorKind, h: np.ndarray, points: np.ndarray | None = None) -> PreparedChannels:
    """The work of detecting through channels h (n, N_r, N_t) that does not
    depend on the observations, done once for a detector kind: H^H and the
    Gram matrix H^H H for ZF and MMSE, and for ML over the constellation
    points (required) the head and tail images and the tail norms, as
    ml_detect_batch describes them. Preparing for ZF raises
    DetectionFailure if any channel in the batch is singular."""
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
    points = np.asarray(points, dtype=np.complex128)
    a, ka, kb = _ml_split(len(points), n_tx)
    head = _hypothesis_grid(points, a)
    tail = head if kb == ka else _hypothesis_grid(points, n_tx - a)
    hx = h.swapaxes(-1, -2) / math.sqrt(n_tx)
    head_images = head @ hx[:, :a]
    tail_images = tail @ hx[:, a:]
    bv = tail_images.view(np.float64)
    tail_norms = np.einsum("nkr,nkr->nk", bv, bv)
    return _MLChannels(kind, h.shape, points, head, tail, head_images, tail_images, tail_norms)


def _check_y(shape: tuple[int, ...], y: np.ndarray) -> np.ndarray:
    # y as complex128, once it holds one N_r-vector per channel of shape.
    y = np.asarray(y, dtype=np.complex128)
    if len(shape) != 3 or y.ndim != 2:
        raise ValueError(f"bad ranks: h {shape}, y {y.shape}")
    if shape[-2] != y.shape[-1] or shape[0] != y.shape[0]:
        raise ValueError(f"h {shape} and y {y.shape} do not agree")
    return y


def _prepared(kind: DetectorKind, h, y: np.ndarray, points=None) -> tuple[PreparedChannels, np.ndarray]:
    # (prepared channels, checked y): h is prepared here unless it comes
    # prepared for this kind.
    if isinstance(h, PreparedChannels):
        if h.kind is not kind:
            raise ValueError(f"channels prepared for {h.kind.value}, not {kind.value}")
        return h, _check_y(h.shape, y)
    y = _check_y(np.shape(h), y)
    return prepare_channels(kind, h, points), y


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


def zf_estimate_batch(h, y: np.ndarray) -> np.ndarray:
    """Pre-slicing zero-forcing estimates (H^H H)^-1 H^H y, shape (n, N_t),
    for channels h or prepare_channels(DetectorKind.ZF, h). Raises
    DetectionFailure if any channel in the batch is singular."""
    return _solve(*_prepared(DetectorKind.ZF, h, y), None)


def mmse_estimate_batch(h, y: np.ndarray, noise_var: float) -> np.ndarray:
    """Pre-slicing MMSE estimates (H^H H + noise_var N_t I)^-1 H^H y, for
    channels h or prepare_channels(DetectorKind.MMSE, h): the regularizer
    matches transmit power 1/N_t per antenna, and noise_var = 0
    degenerates the filter to zero forcing."""
    if noise_var < 0.0:
        raise ValueError("noise_var must be nonnegative")
    return _solve(*_prepared(DetectorKind.MMSE, h, y), noise_var)


def zf_detect_batch(h, y: np.ndarray) -> np.ndarray:
    """Zero-forcing QPSK decisions (n, N_t) for h (n, N_r, N_t), or h
    prepared for ZF, and y (n, N_r). Raises DetectionFailure if any
    channel in the batch is singular."""
    return _decide(zf_estimate_batch(h, y))


def mmse_detect_batch(h, y: np.ndarray, noise_var: float) -> np.ndarray:
    """Linear MMSE QPSK decisions, shaped as zf_detect_batch's, for h or h
    prepared for MMSE."""
    return _decide(mmse_estimate_batch(h, y, noise_var))


def _hypothesis_grid(points: np.ndarray, n_tx: int) -> np.ndarray:
    # All |C|^n_tx transmit hypotheses in lexicographic order: the first
    # antenna's symbol index is the most significant digit. Row b of the
    # result is the hypothesis with index b; n_tx = 0 gives one empty one.
    m = len(points)
    idx = np.indices((m,) * n_tx).reshape(n_tx, m**n_tx).T
    return points[idx]


def _search_elements(ka: int, kb: int, n_rx: int) -> int:
    # Scratch of the search per vector: 6 per hypothesis (cross terms,
    # distances, argmin's copy) and 2 per receive antenna and head
    # hypothesis, the residuals r.
    return 6 * ka * kb + 2 * ka * n_rx


def _ml_search(channels: _MLChannels, y: np.ndarray) -> np.ndarray:
    # Tiles of vectors, one at least, keep the scratch within
    # numerics.CHUNK_ELEMENTS. The float64 views of r and b interleave
    # real and imaginary parts: r^H b is real.
    n, n_rx, n_tx = channels.shape
    head, tail = channels.head, channels.tail
    a = head.shape[1]
    tile = max(1, numerics.CHUNK_ELEMENTS // _search_elements(len(head), len(tail), n_rx))
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


def ml_detect_batch(h, y: np.ndarray, points: np.ndarray) -> np.ndarray:
    """Exhaustive maximum-likelihood detection of a batch, for channels h
    or h prepared for ML over the same points.

    Minimizes ||y - H x||^2 over every constellation combination, as a
    half-grid search: with a = ceil(N_t / 2) head antennas, hypothesis
    (i, j) pairs head hypothesis i with tail hypothesis j, and
    ||y - H x||^2 = ||r_i||^2 + ||b_j||^2 - 2 Re(r_i^H b_j) for the head
    residual r_i = y - H_head x_i and the tail image b_j = H_tail x_j. The
    head images, the tail images and their norms depend on the channel
    alone (see prepare_channels). The cross terms of a vector are one
    (Ka, N_r) @ (N_r, Kb) product. Distance ties resolve to the
    lexicographically smallest hypothesis (antenna 0 most significant,
    constellation order as given), which is the smallest row-major (i, j).
    The search size |points|^N_t must stay under one million. Tiles of
    vectors (one at least) keep the scratch within numerics.CHUNK_ELEMENTS,
    unprepared channels' images included; the tiling never changes a
    decision.
    """
    points = np.asarray(points, dtype=np.complex128)
    if isinstance(h, PreparedChannels):
        channels, y = _prepared(DetectorKind.ML, h, y)
        if not np.array_equal(channels.points, points):
            raise ValueError("channels prepared for another constellation")
        return _ml_search(channels, y)
    h = np.asarray(h, dtype=np.complex128)
    y = _check_y(h.shape, y)
    n_rx, n_tx = h.shape[1:]
    _, ka, kb = _ml_split(len(points), n_tx)
    # Per vector: the search's scratch, the prepared images and norms, and
    # the scaled channel that makes them.
    per_vector = _search_elements(ka, kb, n_rx) + prepared_elements(DetectorKind.ML, n_rx, n_tx, len(points))
    tile = max(1, numerics.CHUNK_ELEMENTS // (per_vector + 2 * n_tx * n_rx))
    out = np.empty((len(y), n_tx), dtype=np.complex128)
    for lo in range(0, len(y), tile):
        channels = prepare_channels(DetectorKind.ML, h[lo : lo + tile], points)
        out[lo : lo + tile] = _ml_search(channels, y[lo : lo + tile])
    return out
