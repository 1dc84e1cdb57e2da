"""Linear and maximum-likelihood QPSK detectors for uncoded spatial
multiplexing, over the noise levels of an SNR sweep.

The transmit model is y = H x + w with x carrying one QPSK symbol per
transmit antenna, scaled by 1/sqrt(N_t) so the total transmit energy per
channel use is 1. A detect call takes the observation in its sigma-free
parts, the noise-free images hx = H x (n, N_r) and unscaled complex
normals z (n, N_r), and a sequence of noise levels noise_vars: at level
nv the observation is y = hx + sqrt(nv / 2) z, as the engine forms it. It
returns one decision array per level, of shape (levels, n, 2 N_t): the
hard bits, two per antenna in modem.qpsk_demodulate's order, of the QPSK
symbols decided for a batch of channels H of shape (n, N_r, N_t).

zf_detect_batch    QPSK after (H^H H)^{-1} H^H y
mmse_detect_batch  QPSK after (H^H H + nv N_t I)^{-1} H^H y, the true MMSE
                   filter for this power convention
ml_detect_batch    exhaustive search over all 4^N_t hypotheses, by halves
                   of the antennas; ties go to the lexicographically
                   smallest hypothesis

Detection is two steps. prepare_channels(kind, h) does once the work that
depends on the channels alone: H^H and the Gram matrix H^H H for ZF and
MMSE, with ZF's singularity verdict, and for ML the head and tail
hypothesis images with the tail images' squared norms. Each detect and
estimate call takes the channels prepared for its own kind, and nothing
else. ZF and ML do the work of every level at once, as y is linear in
sqrt(nv): ZF solves for H^H hx and H^H z together, and each level is an
axpy of the two solutions; ML forms its noise-free distances and their
first-order noise term per tile of vectors, and each level is an axpy and
an argmin. MMSE, whose filter depends on nv, forms y and solves at each
level. A noise level that is negative or not finite raises ValueError.

ZF and MMSE decide by the modem's rule, modem.qpsk_demodulate: the signs
of an estimate's real and imaginary parts pick the nearest point, and an
exact zero goes to the point with the smaller Gray index (00, 01, 11, 10),
the order of QPSK_POINTS. Their estimates of x for one observation y come
from zf_estimate_batch and mmse_estimate_batch, on which properties such
as MMSE converging to ZF as noise_var vanishes live. Preparing for ZF
raises DetectionFailure when H^H H is numerically singular (smallest
eigenvalue below 1e-12 times the largest). A Gram matrix G passes without
an eigensolve when det G / (tr G)^N_t, a lower bound on that eigenvalue
ratio for Hermitian PSD G, is at least CERTIFICATE_FLOOR; only the others,
rare among random channels, get np.linalg.eigvalsh and the rule itself.
MMSE with noise_var > 0 cannot fail that way.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from . import numerics
from .modem import GRAY_BITS, QPSK_POINTS, qpsk_demodulate

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
    head_bits: np.ndarray  # the bits of head hypotheses x_i, (Ka, 2a)
    tail_bits: np.ndarray  # the bits of tail hypotheses x_j, (Kb, 2 (N_t - a))
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


def _hypothesis_indices(n_tx: int) -> np.ndarray:
    # The indices into QPSK_POINTS of all 4^n_tx transmit hypotheses, in
    # lexicographic order: the first antenna's index is the most significant
    # digit. Row b is the hypothesis with index b; n_tx = 0 gives one empty
    # one.
    return np.indices((4,) * n_tx).reshape(n_tx, 4**n_tx).T


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
    head = _hypothesis_indices(a)
    tail = head if kb == ka else _hypothesis_indices(n_tx - a)
    hx = h.swapaxes(-1, -2) / math.sqrt(n_tx)
    head_images = QPSK_POINTS[head] @ hx[:, :a]
    tail_images = QPSK_POINTS[tail] @ hx[:, a:]
    bv = tail_images.view(np.float64)
    tail_norms = np.einsum("nkr,nkr->nk", bv, bv)
    return _MLChannels(
        kind, h.shape, GRAY_BITS[head].reshape(ka, -1), GRAY_BITS[tail].reshape(kb, -1),
        head_images, tail_images, tail_norms,
    )


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


def _levels(noise_vars) -> np.ndarray:
    # The noise levels as float64, once each is finite and nonnegative.
    levels = np.asarray(noise_vars, dtype=np.float64)
    if levels.ndim != 1:
        raise ValueError(f"noise_vars must be a sequence of levels, not shape {levels.shape}")
    bad = ~(np.isfinite(levels) & (levels >= 0.0))
    if np.any(bad):
        raise ValueError(f"noise_var must be finite and nonnegative, not {levels[bad][0]}")
    return levels


def _observed(kind: DetectorKind, channels, hx: np.ndarray, z: np.ndarray, noise_vars):
    # (channels, hx and z as complex128, the levels) for a detect call, once
    # each has passed its check.
    channels, hx = _prepared(kind, channels, hx)
    z = np.asarray(z, dtype=np.complex128)
    if z.shape != hx.shape:
        raise ValueError(f"hx {hx.shape} and z {z.shape} do not agree")
    return channels, hx, z, _levels(noise_vars)


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


def _decide(x_hat: np.ndarray, out: np.ndarray) -> None:
    # The modem's sign tests decide s from x = s / sqrt(N_t) unscaled, into
    # out (n, 2 N_t).
    out[:] = qpsk_demodulate(x_hat.ravel()).reshape(out.shape)


def zf_estimate_batch(channels: PreparedChannels, y: np.ndarray) -> np.ndarray:
    """Pre-slicing zero-forcing estimates (H^H H)^-1 H^H y, shape (n, N_t),
    for channels = prepare_channels(DetectorKind.ZF, h), which has cleared
    every channel of the batch as non-singular."""
    return _solve(*_prepared(DetectorKind.ZF, channels, y), None)


def mmse_estimate_batch(channels: PreparedChannels, y: np.ndarray, noise_var: float) -> np.ndarray:
    """Pre-slicing MMSE estimates (H^H H + noise_var N_t I)^-1 H^H y, for
    channels = prepare_channels(DetectorKind.MMSE, h): the regularizer
    matches transmit power 1/N_t per antenna, and noise_var = 0
    degenerates the filter to zero forcing. noise_var must be finite and
    nonnegative."""
    return _solve(*_prepared(DetectorKind.MMSE, channels, y), _levels([noise_var])[0])


def zf_detect_batch(channels: PreparedChannels, hx: np.ndarray, z: np.ndarray, noise_vars) -> np.ndarray:
    """Zero-forcing QPSK bit decisions (levels, n, 2 N_t) for channels
    (n, N_r, N_t) prepared for ZF, at the observations
    y = hx + sqrt(nv / 2) z of each level nv in noise_vars.

    One solve per call: a = (H^H H)^-1 H^H hx and b = (H^H H)^-1 H^H z, as
    the two right-hand sides of one np.linalg.solve; level nv decides on
    a + sqrt(nv / 2) b."""
    channels, hx, z, levels = _observed(DetectorKind.ZF, channels, hx, z, noise_vars)
    n, _, n_tx = channels.shape
    out = np.empty((len(levels), n, 2 * n_tx), dtype=np.uint8)
    rhs = np.stack([np.einsum("ntr,nr->nt", channels.hh, v) for v in (hx, z)], axis=-1)
    a, b = np.moveaxis(np.linalg.solve(channels.gram, rhs), -1, 0)
    del rhs
    for decided, noise_var in zip(out, levels):
        x_hat = np.multiply(b, math.sqrt(noise_var / 2.0))
        x_hat += a
        _decide(x_hat, decided)
    return out


def mmse_detect_batch(channels: PreparedChannels, hx: np.ndarray, z: np.ndarray, noise_vars) -> np.ndarray:
    """Linear MMSE QPSK bit decisions, shaped as zf_detect_batch's, for
    channels prepared for MMSE: at each level nv, y = hx + sqrt(nv / 2) z
    and its own solve through (H^H H + nv N_t I)^-1 H^H."""
    channels, hx, z, levels = _observed(DetectorKind.MMSE, channels, hx, z, noise_vars)
    n, _, n_tx = channels.shape
    out = np.empty((len(levels), n, 2 * n_tx), dtype=np.uint8)
    for decided, noise_var in zip(out, levels):
        y = np.multiply(z, math.sqrt(noise_var / 2.0))
        y += hx
        _decide(_solve(channels, y, noise_var), decided)
    return out


def ml_detect_batch(channels: PreparedChannels, hx: np.ndarray, z: np.ndarray, noise_vars) -> np.ndarray:
    """Exhaustive maximum-likelihood QPSK bit decisions, shaped as
    zf_detect_batch's, for channels prepared for ML.

    Minimizes ||y - H x||^2 over every combination of QPSK_POINTS, as a
    half-grid search: with a = ceil(N_t / 2) head antennas, hypothesis
    (i, j) pairs head hypothesis i with tail hypothesis j. For the head
    residual u_i = hx - H_head x_i of the noise-free image and the tail
    image b_j = H_tail x_j, and s = sqrt(nv / 2),
    ||y - H x||^2 = D0_ij + 2 s (E_i - F_j) + s^2 ||z||^2 with
    D0_ij = ||u_i||^2 + ||b_j||^2 - 2 Re(u_i^H b_j), E_i = Re(z^H u_i) and
    F_j = Re(z^H b_j). The last term is the same for every hypothesis, so
    each level takes the argmin of D0 + 2 s (E_i - F_j). The head images,
    the tail images and their norms depend on the channel alone (see
    prepare_channels); the cross terms of a vector are one
    (Ka, N_r) @ (N_r, Kb) product. Distance ties resolve to the
    lexicographically smallest hypothesis (antenna 0 most significant,
    QPSK_POINTS order), which is the smallest row-major (i, j). Tiles of
    vectors (one at least) keep the search's scratch within
    numerics.CHUNK_ELEMENTS; the tiling never changes a decision.
    """
    channels, hx, z, levels = _observed(DetectorKind.ML, channels, hx, z, noise_vars)
    n, n_rx, n_tx = channels.shape
    out = np.empty((len(levels), n, 2 * n_tx), dtype=np.uint8)
    head_bits, tail_bits = channels.head_bits, channels.tail_bits
    ka, kb, cut = len(head_bits), len(tail_bits), head_bits.shape[1]
    # Scratch per vector: 6 per hypothesis (cross terms, D0, the noise
    # term, a level's distances) and 2 per receive antenna and head
    # hypothesis, the residuals u. The float64 views of u, b and z
    # interleave real and imaginary parts: u^H b and z^H u are real.
    tile = max(1, numerics.CHUNK_ELEMENTS // (6 * ka * kb + 2 * ka * n_rx))
    zv = np.ascontiguousarray(z).view(np.float64)
    for lo in range(0, n, tile):
        u = np.subtract(hx[lo : lo + tile, None, :], channels.head_images[lo : lo + tile])
        uv, bv, zt = u.view(np.float64), channels.tail_images[lo : lo + tile].view(np.float64), zv[lo : lo + tile]
        cross = uv @ bv.swapaxes(-1, -2)
        d0 = np.einsum("nkr,nkr->nk", uv, uv)[:, :, None] + channels.tail_norms[lo : lo + tile, None, :]
        cross *= 2.0
        d0 -= cross
        noise = np.subtract(
            np.einsum("nkr,nr->nk", uv, zt)[:, :, None], np.einsum("nkr,nr->nk", bv, zt)[:, None, :], out=cross,
        )
        dist = np.empty_like(d0)
        for decided, noise_var in zip(out, levels):
            np.multiply(noise, 2.0 * math.sqrt(noise_var / 2.0), out=dist)
            dist += d0
            i, j = np.divmod(np.argmin(dist.reshape(len(u), ka * kb), axis=1), kb)
            decided[lo : lo + tile, :cut] = head_bits[i]
            decided[lo : lo + tile, cut:] = tail_bits[j]
        del u, uv, bv, cross, d0, noise, dist  # before the next tile's are built
    return out
