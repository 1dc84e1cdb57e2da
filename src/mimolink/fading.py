"""Scalar fading processes: a sum-of-sinusoids Rayleigh generator and the
Rician composition built on top of it, plus the Rician envelope density and
a statistical self-check.

The Rayleigh generator follows the improved Jakes-style model in which both
quadratures are sums of M cosines with randomized arrival angles and phases:

    u(t) = sqrt(1/M) * sum_i [ cos(w_d t cos(a_i) + psi_i)
                               + j cos(w_d t sin(a_i) + theta_i) ]
    a_i  = (2 pi i - pi + theta) / (4 M),   i = 1..M

with theta, psi_i, theta_i drawn independently and uniformly from [-pi, pi).
This gives E|u|^2 = 1 and a real-part autocorrelation that converges to the
Clarke spectrum's J0(2 pi f_d tau) as M grows.

link_gains is the one synthesis kernel. It evaluates the sums of cosines of
many links at sample indices n, t = n / fs, block by block: the samples
fall in blocks of L, anchored at absolute multiples of L with the anchor
c = jL + L // 2, and every sum starts from theta_m, the phase at the
anchor, computed by the same expression as the direct sum. With
d_m = w_d f_m / fs the phase step of one sample, block_plan picks one of
three plans from the spec alone:

- Taylor blocks, at high sample rates (fs >= 50 kHz at f_d = 100 Hz):
  every sum is its degree-K Taylor polynomial in (n - c),

      sum_m cos(theta_m + (n - c) d_m) = sum_k mu_k (n - c)^k,
      mu_k = sum_m cos(theta_m + k pi/2) d_m^k / k!,

  so a block costs 2M trig calls and two contractions over the M
  sinusoids, of the cosines with the even-k weights and of the sines with
  the odd-k ones, and its samples one contraction of the moments with
  the offsets' powers. The truncation error of a gain is at most
  TAYLOR_TOL (1e-16).
- Rotation blocks of L = ROTATION_BLOCK (32), at low sample rates, near
  Nyquist included (256 Hz to 20 kHz at f_d = 100 Hz): at the offset
  k = n - c,

      cos(theta_m + k d_m) = cos theta_m cos(k d_m) - sin theta_m sin(k d_m),

  from per-link tables of cos(k d_m) and sin(k d_m), built once per call.
  A block costs 2M trig calls and a sample about M multiply-adds. Nothing
  is truncated: only the rounding differs from the direct sum.
- The direct sum (L = 1, K = 0, every sample its own anchor), operation
  for operation, where M is too large for the rotation tables.

Because the blocks are absolute, a value depends only on its sample index,
never on where a call starts or how it is tiled: links and blocks are
taken in tiles of at most numerics.CHUNK_ELEMENTS float64 elements
(0.5 MiB) of scratch, numpy's iterator buffers included.
A FadingProcess is a cursor over the kernel: it holds the angle tables of
one link or of a batch of links, and fading_next asks link_gains for all of
them at the process's next sample indices.
"""

from __future__ import annotations

import enum
import functools
import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from . import numerics
from .numerics import RngStream, bessel_i0e, bessel_j0

__all__ = [
    "FadingModel",
    "FadingSpec",
    "FadingProcess",
    "EnvelopeStats",
    "fading_init",
    "fading_draws",
    "fading_angles",
    "fading_next",
    "BlockPlan",
    "block_plan",
    "link_gains",
    "validate_process",
    "pdf_envelope_rician",
    "rician_envelope_cdf_grid",
    "ks_statistic",
    "check_validation_samples",
    "check_validation_spec",
]

# Above this K the scattered component is numerically invisible next to the
# line-of-sight term, so the generator degrades gracefully to pure AWGN
# geometry: a deterministic rotating phasor.
K_AWGN_SENTINEL = 1e9

# Samples validate_process accepts: enough for meaningful comparisons, and
# few enough to bound its memory (8 bytes a sample, the envelope, beside
# kernel tiles and the Rician CDF grid).
MIN_VALIDATION_SAMPLES = 100_000
MAX_VALIDATION_SAMPLES = 10_000_000

# block_plan's rule. TAYLOR_TOL bounds the truncation error of a gain
# sample. MAX_BLOCK_TURN (rad) bounds the phase turn from a block's anchor
# to its edge, so that no Taylor term outgrows the direct sum by more than
# e^0.5 and the polynomial rounds about as the direct sum does. MAX_BLOCK
# caps L. ROTATION_BLOCK is the L of rotation blocks, fixed so that the
# anchors, and with them every value, depend on the spec alone. MAX_TABLE
# caps a link's 2(L + 2)M rotation table elements at a quarter of the
# kernel's scratch budget, so that a tile holds several links.
TAYLOR_TOL = 1e-16
MAX_BLOCK_TURN = 0.5
MAX_BLOCK = 1024
ROTATION_BLOCK = 32
MAX_TABLE = numerics.CHUNK_ELEMENTS // 4
# block_plan's cost model, in units of one float64 elementwise multiply
# (0.38 ns), fitted to timings with numpy 2.4 on an x86-64 Xeon: a cos or
# sin (30 to 90 units, by the size of its argument), one Taylor moment per
# sinusoid and block and one power per sample (fitted to the loops of
# products and sums, 8 to 11, and of Horner steps, 5 to 9, that the
# einsum contractions replaced), and one product and sum of the rotation
# contraction. The contractions cost about a quarter of those loops, but a
# refit picks longer blocks of higher order, which link_gains runs slower.
# ROTATION_CALL is the call length, in samples, that shares a call's
# rotation tables: the 80 rows of a default 4x4 FER frame.
COS_COST = 40
TAYLOR_MOMENT = 8
HORNER_STEP = 7
ROTATION_MAC = 1.5
ROTATION_CALL = 80


class FadingModel(enum.Enum):
    RAYLEIGH = "rayleigh"
    RICIAN = "rician"


@dataclass(frozen=True)
class FadingSpec:
    """Parameters of one scalar fading link.

    k_factor is the ratio of line-of-sight to scattered power and is only
    meaningful for the Rician model. los_doppler_hz is the Doppler shift of
    the line-of-sight path (0 for a static geometry), los_phase_rad its
    initial phase.
    """

    model: FadingModel = FadingModel.RAYLEIGH
    max_doppler_hz: float = 100.0
    sample_rate_hz: float = 1e6
    num_sinusoids: int = 32
    k_factor: float = 0.0
    los_doppler_hz: float = 0.0
    los_phase_rad: float = 0.0

    def validate(self) -> None:
        if self.model not in (FadingModel.RAYLEIGH, FadingModel.RICIAN):
            raise ValueError(f"unknown fading model: {self.model!r}")
        if not self.max_doppler_hz > 0.0:
            raise ValueError("max_doppler_hz must be positive")
        # A link_gains tile holds at least one link's block, a few times M
        # elements; M within the budget keeps that bounded.
        if not 8 <= self.num_sinusoids <= numerics.CHUNK_ELEMENTS:
            raise ValueError(
                f"num_sinusoids must lie in 8..{numerics.CHUNK_ELEMENTS}, the kernels' scratch budget"
            )
        for name in ("k_factor", "sample_rate_hz", "los_doppler_hz", "los_phase_rad"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")
        if self.sample_rate_hz <= 2.0 * max(self.max_doppler_hz, abs(self.los_doppler_hz)):
            raise ValueError(
                "sample_rate_hz must exceed twice the largest Doppler shift"
            )
        if self.k_factor < 0.0:
            raise ValueError("k_factor must be nonnegative")


@dataclass
class FadingProcess:
    """Running fading links: frozen (..., M) angle tables, one row per link
    (a single link has no leading axes), plus the sample cursor they share."""

    spec: FadingSpec
    alphas: np.ndarray
    psis: np.ndarray
    thetas: np.ndarray
    sample_index: int = 0


def fading_draws(spec: FadingSpec) -> int:
    """Uniforms that fading_init draws from its stream: 1 + 2M."""
    return 1 + 2 * spec.num_sinusoids


def fading_angles(spec: FadingSpec, u: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Map rows of fading_draws(spec) uniforms to (alphas, psis, thetas).

    u has shape (..., 1 + 2M): one uniform for theta, then M for psi, then
    M for the second quadrature's phases. Each result has shape (..., M).
    """
    m = spec.num_sinusoids
    theta = -np.pi + 2.0 * np.pi * u[..., :1]
    psis = -np.pi + 2.0 * np.pi * u[..., 1 : m + 1]
    thetas = -np.pi + 2.0 * np.pi * u[..., m + 1 :]
    i = np.arange(1, m + 1)
    alphas = 2.0 * np.pi * i - np.pi + theta
    alphas /= 4.0 * m
    return alphas, psis, thetas


def fading_init(spec: FadingSpec, rng: RngStream) -> FadingProcess:
    """Draw the per-link random angles and return a process at t = 0.

    Draw order (one uniform for theta, then M for psi, then M for the second
    quadrature's phases) is part of the reproducibility contract.
    """
    spec.validate()
    alphas, psis, thetas = fading_angles(spec, rng.uniform(fading_draws(spec)))
    return FadingProcess(spec=spec, alphas=alphas, psis=psis, thetas=thetas)


class BlockPlan(NamedTuple):
    """link_gains's plan for a spec: the mode ("direct", "taylor" or
    "rotation"), the block length L and the Taylor order K (0 unless the
    mode is "taylor")."""

    mode: str
    length: int
    order: int


@functools.lru_cache(maxsize=64)
def block_plan(spec: FadingSpec) -> BlockPlan:
    """The synthesis plan of link_gains for a spec, from the spec alone.
    The samples fall in blocks of L, anchored at c = jL + L // 2, and each
    block's sums of sinusoids start from their phases theta_m at c:

    - "taylor": each sum is its degree-K Taylor polynomial in n - c. A
      candidate L = 2^p (at most MAX_BLOCK) is one whose anchor-to-edge
      turn x = L/2 * d_max, with d_max = 2 pi f_d / f_s, is at most
      MAX_BLOCK_TURN; it takes the least K with
      sqrt(M) x^(K+1) / (K+1)! <= TAYLOR_TOL, which bounds the truncation
      error of a unit-power gain.
    - "rotation": L = ROTATION_BLOCK, and each cosine at the offset
      k = n - c is cos(theta_m) cos(k d_m) - sin(theta_m) sin(k d_m), from
      per-link tables of cos(k d_m) and sin(k d_m) at k = 0, ..., L/2.
      Exact but for rounding, at any sample rate; a candidate while a
      link's 2(L + 2)M table elements fit MAX_TABLE.
    - "direct": L = 1, K = 0, every sample its own anchor: the direct sum.

    The candidate with the fewest elementwise operations per sample wins,
    by the cost model of COS_COST and its neighbours. At f_d = 100 Hz and
    M = 32 that is rotation blocks up to 20 kHz, where Taylor blocks are
    short or of high order, and Taylor blocks from 50 kHz: (128, 11) at
    200 kHz, (256, 9) at 1 MHz. The direct sum stands only where M is too
    large for the rotation tables (M > 240).
    """
    m = spec.num_sinusoids
    d_max = 2.0 * math.pi * spec.max_doppler_hz / spec.sample_rate_hz
    best, best_cost = BlockPlan("direct", 1, 0), m * (COS_COST + 2)
    if 2 * (ROTATION_BLOCK + 2) * m <= MAX_TABLE:
        # Per sample: a block's 2M trig calls at its anchor, shared by its
        # L samples; the tables' log2(L) pairs of trig calls per sinusoid,
        # shared by a call; and two contractions of M products for each
        # pair of offsets +-k.
        trig = 2 * m * COS_COST * (1 / ROTATION_BLOCK + math.log2(ROTATION_BLOCK) / ROTATION_CALL)
        cost = trig + ROTATION_MAC * m * (ROTATION_BLOCK + 2) / ROTATION_BLOCK
        if cost < best_cost:
            best, best_cost = BlockPlan("rotation", ROTATION_BLOCK, 0), cost
    length = 2
    while length <= MAX_BLOCK and length / 2 * d_max <= MAX_BLOCK_TURN:
        x, order = length / 2 * d_max, 0
        while math.sqrt(m) * x ** (order + 1) / math.factorial(order + 1) > TAYLOR_TOL:
            order += 1
        # Per sample: a block's 2M trig calls and its K + 1 moments, shared
        # by its L samples, then its K powers.
        cost = m * (2 * COS_COST + TAYLOR_MOMENT * (order + 1)) / length + HORNER_STEP * order + 1
        if cost < best_cost:
            best, best_cost = BlockPlan("taylor", length, order), cost
        length *= 2
    return best


def _anchor_phases(
    freqs: np.ndarray, phases: np.ndarray, wd: float, fs: float, length: int, j0: int, j1: int, out: np.ndarray
) -> None:
    # The phases at the anchors c = jL + L // 2 of blocks j0 <= j < j1, by
    # the direct sum's expression, into out (..., j1 - j0, M).
    centres = (np.arange(j0, j1) * length + length // 2) / fs
    np.multiply(centres[:, None], freqs[..., None, :], out=out)
    out *= wd
    out += phases[..., None, :]


def _rotation_tables(freqs: np.ndarray, step: float, length: int) -> tuple[np.ndarray, np.ndarray]:
    # cos(k d_m) and sin(k d_m) at k = 0, ..., L/2, with d_m = f_m * step:
    # two (L/2 + 1, ..., M) arrays. Rows [p, 2p) are rows [0, p) turned by
    # e^{ipd} for p = 1, 2, ..., L/4, and row L/2 is trig: log2(L) trig
    # calls per sinusoid, and row k rounds as popcount(k) - 1 products.
    half = length // 2
    d = freqs * step
    cos, sin = np.empty((2, half + 1, *freqs.shape))
    cos[0], sin[0] = 1.0, 0.0
    p = 1
    while p < half:
        turn = d * p
        rc, rs = np.cos(turn), np.sin(turn)
        c, s, re, im = cos[:p], sin[:p], cos[p : 2 * p], sin[p : 2 * p]
        np.multiply(s, rs, out=im)
        np.multiply(c, rc, out=re)
        re -= im
        np.multiply(c, rs, out=im)
        im += s * rc
        p *= 2
    np.cos(d * half, out=cos[half])
    np.sin(d * half, out=sin[half])
    return cos, sin


def _taylor_weights(freqs: np.ndarray, step: float, order: int) -> np.ndarray:
    # s_k d_m^k / k! at k = 1, ..., K, with d_m = f_m * step and s_k the
    # sign of cos^(k) = -sin, -cos, sin, cos, ...: a (K, ..., M) array whose
    # row k is row k - 1 times -d_m / k for odd k and d_m / k for even k.
    k = np.arange(1, order + 1)
    weights = np.multiply.outer(np.where(k % 2, -step, step) / k, freqs)
    for i in range(1, order):
        weights[i] *= weights[i - 1]
    return weights


def _block_sums(
    freqs: np.ndarray,
    phases: np.ndarray,
    wd: float,
    fs: float,
    plan: BlockPlan,
    tables: tuple[np.ndarray, np.ndarray] | np.ndarray,
    lo: int,
    hi: int,
) -> np.ndarray:
    # sum_m cos((n / fs * freqs[..., m]) * wd + phases[..., m]) for samples
    # lo <= n < hi, shape (..., hi - lo), from the blocks that [lo, hi)
    # touches, about their anchors c = jL + L // 2. tables holds the
    # rotation tables, or else the Taylor weights.
    mode, length, order = plan
    m = freqs.shape[-1]
    j0, j1 = lo // length, (hi - 1) // length + 1
    if mode == "rotation":
        # Rotation: at the offsets +-k from an anchor the sum is A_k -+ B_k,
        # with A_k = sum_m cos(theta_m) cos(k d_m) and B_k the same of the
        # sines, each contracted over the M sinusoids in one fixed order,
        # so that a value does not depend on the tile's shape.
        half = length // 2
        trig = np.empty((2, *freqs.shape[:-1], j1 - j0, m))
        _anchor_phases(freqs, phases, wd, fs, length, j0, j1, trig[0])
        np.sin(trig[0], out=trig[1])
        np.cos(trig[0], out=trig[0])
        a = np.einsum("...jm,k...m->...jk", trig[0], tables[0])
        b = np.einsum("...jm,k...m->...jk", trig[1], tables[1])
        acc = np.empty((*a.shape[:-1], length))
        np.subtract(a[..., :half], b[..., :half], out=acc[..., half:])
        np.add(a[..., half:0:-1], b[..., half:0:-1], out=acc[..., :half])
        return acc.reshape(*acc.shape[:-2], -1)[..., lo - j0 * length : hi - j0 * length]
    theta = np.empty((*freqs.shape[:-1], j1 - j0, m))
    _anchor_phases(freqs, phases, wd, fs, length, j0, j1, theta)
    sin = np.sin(theta) if order else None
    cos = np.cos(theta, out=theta)
    # mu_k = sum_m cos^(k)(theta_m) d_m^k / k!, with cos^(k) = s_k sin for
    # odd k and s_k cos for even k: the sines against the odd-k weights and
    # the cosines against the even-k ones, each contracted over the M
    # sinusoids in one fixed order, whatever the tile's shape.
    mu = np.empty((order + 1, *theta.shape[:-1]))
    np.sum(cos, axis=-1, out=mu[0])
    if order:
        np.einsum("...jm,k...m->k...j", sin, tables[0::2], out=mu[1::2])
        np.einsum("...jm,k...m->k...j", cos, tables[1::2], out=mu[2::2])
    # The polynomials at the samples' offsets from their anchors (the
    # samples themselves in a single block, the whole blocks in a run of
    # them), sum_k mu_k (n - c)^k, each summed from k = 0 up.
    first = j0 * length + length // 2
    if j1 - j0 == 1:
        offsets, skip = np.arange(lo - first, hi - first, dtype=np.float64), 0
    else:
        offsets, skip = np.arange(-(length // 2), length - length // 2, dtype=np.float64), lo - j0 * length
    powers = np.empty((len(offsets), order + 1))
    powers[:, 0] = 1.0
    for k in range(order):
        np.multiply(powers[:, k], offsets, out=powers[:, k + 1])
    acc = np.einsum("k...,nk->...n", mu, powers)
    return acc.reshape(*acc.shape[:-2], -1)[..., skip : skip + hi - lo]


def _tile_elements(spec: FadingSpec, start: int, n: int) -> tuple[int, int, int]:
    """Float64 scratch of link_gains for samples start, ..., start + n - 1,
    per link, per block of a link and per block of a tile's samples (L, or
    n if the call lies in one block); a broadcast or strided step may buffer
    each operand up to its output's size. Per link: the frequencies and
    phases, 4M; under rotation the tables, 2(L + 2)M, their build's steps,
    8M, and its last product with two buffers, 3LM/2; under Taylor the
    weights of k = 1, ..., K, 2KM. Per block of a link: the anchors' times,
    2, the anchor phases, and their sines (rotation, Taylor), 2M each, then
    the larger of a broadcast step's buffers, 6M, and the rest: the sums
    A_k and B_k, 2(L + 2), and the 2L gains with three buffers, or the
    2(K + 1) moments and the polynomials' values, 2 a sample. Per block of
    samples: the offsets and their powers, K + 2 a sample, and the Rician
    LOS steps, 6 a sample."""
    mode, length, order = block_plan(spec)
    m = spec.num_sinusoids
    samples = n if start // length == (start + n - 1) // length else length
    los = 6 * samples if spec.model is FadingModel.RICIAN else 0
    if mode == "rotation":
        return (7 * length // 2 + 16) * m, 2 + 4 * m + max(6 * m, 7 * length + 4), los
    return ((4 + 2 * order) * m, 2 + (4 if order else 2) * m + max(6 * m, 2 * order + 2 + 2 * samples),
            los + (order + 2) * samples)


def link_gains(
    spec: FadingSpec,
    alphas: np.ndarray,
    psis: np.ndarray,
    thetas: np.ndarray,
    start: int,
    n: int,
) -> np.ndarray:
    """Gains of B links at samples start, ..., start + n - 1, shape (B, n).

    alphas, psis and thetas are (B, M) angle tables from fading_angles.
    The sums of sinusoids follow block_plan(spec): blocks of L samples
    anchored at absolute multiples of L, so a value does not depend on
    where a call starts or ends. Links and blocks are taken in tiles whose
    scratch holds at most numerics.CHUNK_ELEMENTS float64 elements (and at
    least one link's tables and block); the tiling never changes a value.
    """
    n_links, m = alphas.shape
    out = np.empty((n_links, n), dtype=np.complex128)
    k = spec.k_factor
    fs = spec.sample_rate_hz
    rician = spec.model is FadingModel.RICIAN

    def los(lo, hi):
        tt = np.arange(lo, hi) / fs
        return math.sqrt(k / (k + 1.0)) * np.exp(
            1j * (2.0 * np.pi * spec.los_doppler_hz * tt + spec.los_phase_rad)
        )

    if rician and k > K_AWGN_SENTINEL:
        # The line-of-sight phasor alone, in tiles of samples whose steps
        # hold 6 elements a sample, as a Rician tile's do.
        step = max(1, numerics.CHUNK_ELEMENTS // 6)
        for lo in range(start, start + n, step):
            hi = min(lo + step, start + n)
            out[:, lo - start : hi - start] = los(lo, hi)
        return out
    if n == 0:
        return out
    plan = block_plan(spec)
    length = plan.length
    wd = 2.0 * np.pi * spec.max_doppler_hz
    scale = 1.0 / math.sqrt(m)
    first, last = start // length, (start + n - 1) // length + 1
    per_link, per_block, shared = _tile_elements(spec, start, n)
    blocks = max(1, min(last - first, (numerics.CHUNK_ELEMENTS - per_link) // (per_block + shared)))
    group = max(1, (numerics.CHUNK_ELEMENTS - blocks * shared) // (per_link + blocks * per_block))
    for b0 in range(0, n_links, group):
        rows = slice(b0, b0 + group)
        # Both quadratures side by side, (2, group, M), and the group's tables.
        freqs = np.stack([np.cos(alphas[rows]), np.sin(alphas[rows])])
        phases = np.stack([psis[rows], thetas[rows]])
        if plan.mode == "rotation":
            tables = _rotation_tables(freqs, wd / fs, length)
        else:
            tables = _taylor_weights(freqs, wd / fs, plan.order)
        for j in range(first, last, blocks):
            lo, hi = max(start, j * length), min(start + n, (j + blocks) * length)
            re, im = _block_sums(freqs, phases, wd, fs, plan, tables, lo, hi)
            g = out[rows, lo - start : hi - start]
            np.multiply(re, scale, out=g.real)
            np.multiply(im, scale, out=g.imag)
            if rician:
                g *= math.sqrt(1.0 / (k + 1.0))
                g += los(lo, hi)
            del re, im  # before the next tile's sums are built
        del freqs, phases, tables  # before the next group's are built
    return out


def fading_next(proc: FadingProcess, n_samples: int) -> np.ndarray:
    """Advance the process and return the next n_samples gains of every
    link, shape (..., n_samples) for (..., M) angle tables.

    Successive calls are seamless: two calls of n/2 samples concatenate to
    exactly one call of n. Output is a complex128 array with unit mean power
    for both models.
    """
    if n_samples < 0:
        raise ValueError("n_samples must be nonnegative")
    *lead, m = proc.alphas.shape
    rows = [a.reshape(-1, m) for a in (proc.alphas, proc.psis, proc.thetas)]
    out = link_gains(proc.spec, *rows, proc.sample_index, n_samples).reshape(*lead, n_samples)
    proc.sample_index += n_samples
    return out


def pdf_envelope_rician(x, c_m: float, alpha_sq: float):
    """Rician envelope density with line-of-sight amplitude c_m and
    per-quadrature scattered variance alpha_sq.

        p(x) = x / alpha_sq * exp(-(x^2 + c_m^2) / (2 alpha_sq)) * I0(z)
             = x / alpha_sq * exp(-(x - c_m)^2 / (2 alpha_sq)) * e^-z I0(z)

    with z = x c_m / alpha_sq. The second, exp-scaled form is the one
    evaluated: neither factor overflows at large K, where z runs into the
    thousands. Each step after the first writes into an array of its own,
    never into x.
    """
    if alpha_sq <= 0.0:
        raise ValueError("alpha_sq must be positive")
    if c_m < 0.0:
        raise ValueError("c_m must be nonnegative")
    x_arr = np.atleast_1d(np.asarray(x, dtype=np.float64))
    if np.any(x_arr < 0.0):
        raise ValueError("envelope must be nonnegative")
    z = np.multiply(x_arr, c_m)
    z /= alpha_sq
    bess = bessel_i0e(z)
    e = np.subtract(x_arr, c_m, out=z)  # z's buffer, now that bess holds e^-z I0(z)
    np.square(e, out=e)
    np.negative(e, out=e)
    e /= 2.0 * alpha_sq
    np.exp(e, out=e)
    out = np.divide(x_arr, alpha_sq)
    out *= e
    out *= bess
    return float(out[0]) if np.ndim(x) == 0 else out


def ks_statistic(samples: np.ndarray, cdf_values: np.ndarray) -> float:
    """Kolmogorov-Smirnov sup distance between an empirical sample and a
    reference CDF evaluated at the sorted sample points.

    `cdf_values` must correspond to np.sort(samples).
    """
    n = len(samples)
    if n == 0:
        raise ValueError("need at least one sample")
    c = np.asarray(cdf_values, dtype=np.float64)
    if c.shape != (n,):
        raise ValueError("need one CDF value per sample")
    # The empirical CDF's levels k / n, k = 0..n, one tile at a time: above
    # the reference at the k-th point (k = 1..n) and below it before.
    hi = lo = -math.inf
    tile = numerics.CHUNK_ELEMENTS
    for start in range(0, n, tile):
        ci = c[start : start + tile]
        steps = np.arange(start, start + len(ci) + 1, dtype=np.float64)
        steps /= n
        hi = np.maximum(hi, np.max(steps[1:] - ci))
        lo = np.maximum(lo, np.max(ci - steps[:-1]))
    return float(max(hi, lo))


def rician_envelope_cdf_grid(k: float, x_max: float, n_grid: int = 200_001):
    """Numeric CDF of the unit-power Rician envelope on a uniform grid.

    Returns (grid, cdf) suitable for np.interp. Total power is normalized to
    one: c_m^2 = K/(K+1) and 2 alpha^2 = 1/(K+1). Trapezoid integration of
    the density; with the default grid the CDF error is far below the KS
    tolerances used in the acceptance checks.

    The density is evaluated in tiles of CHUNK_ELEMENTS // 8 points, so
    that its scratch, about 8 arrays of a tile, fits numerics.CHUNK_ELEMENTS;
    the trapezoid sums then take one more array of the grid's size.
    """
    c_m = math.sqrt(k / (k + 1.0))
    alpha_sq = 0.5 / (k + 1.0)
    grid = np.linspace(0.0, x_max, n_grid)
    pdf = np.empty(n_grid)
    tile = numerics.CHUNK_ELEMENTS // 8
    for lo in range(0, n_grid, tile):
        pdf[lo : lo + tile] = pdf_envelope_rician(grid[lo : lo + tile], c_m, alpha_sq)
    cdf = np.zeros(n_grid)
    # cdf[i + 1] = cdf[i] + 0.5 (pdf[i + 1] + pdf[i]) (grid[i + 1] - grid[i]).
    terms = np.add(pdf[1:], pdf[:-1], out=cdf[1:])
    terms *= 0.5
    terms *= np.subtract(grid[1:], grid[:-1], out=pdf[1:])  # np.diff(grid)
    np.cumsum(terms, out=terms)
    return grid, np.clip(cdf, 0.0, 1.0, out=cdf)


@dataclass
class EnvelopeStats:
    """Result of validate_process.

    autocorr_lags holds (lag_seconds, empirical, theoretical) triples for the
    normalized real-part autocorrelation. The theoretical column is
    J0(2 pi f_d tau) for Rayleigh; for Rician the line-of-sight term is
    included: (K cos(2 pi f_los tau) + J0(2 pi f_d tau)) / (K + 1).
    """

    ks_statistic: float
    empirical_mean_power: float
    autocorr_lags: list[tuple[float, float, float]] = field(default_factory=list)


def check_validation_samples(n_samples: int) -> None:
    """Raise ValueError unless n_samples lies in the validate_process range."""
    if not MIN_VALIDATION_SAMPLES <= n_samples <= MAX_VALIDATION_SAMPLES:
        raise ValueError(
            f"validation needs {MIN_VALIDATION_SAMPLES} to {MAX_VALIDATION_SAMPLES} samples, got {n_samples}"
        )


def check_validation_spec(spec: FadingSpec) -> None:
    """Raise ValueError for a spec in the degenerate near-AWGN Rician regime,
    where the envelope distribution collapses to a point mass."""
    if spec.model is FadingModel.RICIAN and spec.k_factor >= K_AWGN_SENTINEL:
        raise ValueError("envelope validation is undefined for the AWGN-limit K")


def validate_process(proc: FadingProcess, n_samples: int) -> EnvelopeStats:
    """Draw n_samples from the process and test them against theory.

    The KS statistic compares the sample envelope against the model CDF
    (closed form for Rayleigh, numeric integration of the Rician density).
    n_samples must pass check_validation_samples and the process's spec
    check_validation_spec.

    The gains are drawn in tiles of numerics.CHUNK_ELEMENTS samples, which
    join seamlessly, and only their envelope is kept: one float64 a sample
    (8 bytes) beside tiles of scratch, and under Rician fading the CDF grid
    of rician_envelope_cdf_grid. Each tile adds its lag products to
    running sums, so the autocorrelation's last bits depend on the tile
    size; the envelope, its sort, the mean power and the KS statistic do
    not.
    """
    check_validation_samples(n_samples)
    spec = proc.spec
    check_validation_spec(spec)

    fs = spec.sample_rate_hz
    fd = spec.max_doppler_hz
    # Enough lags to cover tau * f_d up to 2 when the sampling is dense, and
    # never fewer than 20.
    n_lags = max(20, min(int(math.ceil(2.0 * fs / fd)) + 1, 400))
    n_lags = min(n_lags, n_samples // 2)
    tile = numerics.CHUNK_ELEMENTS
    env = np.empty(n_samples)
    # sums[ell] = sum_i x_i x_{i + ell} of the real parts x. window holds the
    # last n_lags - 1 real parts of the tiles before (carry of them), then
    # the tile's own.
    sums = np.zeros(n_lags)
    window = np.empty(n_lags - 1 + min(tile, n_samples))
    carry = 0
    for lo in range(0, n_samples, tile):
        size = min(tile, n_samples - lo)
        g = fading_next(proc, size)
        np.abs(g, out=env[lo : lo + size])
        stop = carry + size
        x = window[:stop]
        x[carry:] = g.real
        del g
        for ell in range(min(n_lags, stop)):
            first = max(carry, ell)  # the first product's later sample
            sums[ell] += np.dot(x[first - ell : stop - ell], x[first:])
        carry = min(n_lags - 1, stop)
        window[:carry] = x[stop - carry :]
    del window, x

    r0 = float(sums[0] / n_samples)
    lags = []
    for ell in range(n_lags):
        emp = float(sums[ell] / (n_samples - ell)) / r0
        tau = ell / fs
        theo = bessel_j0(2.0 * np.pi * fd * tau)
        if spec.model is FadingModel.RICIAN:
            k = spec.k_factor
            theo = (k * math.cos(2.0 * np.pi * spec.los_doppler_hz * tau) + theo) / (k + 1.0)
        lags.append((tau, emp, float(theo)))

    mean_power = float(np.dot(env, env) / n_samples)
    env.sort()
    # The model CDF at the sorted envelope, built in env's buffer;
    # ks_statistic reads only the sample count from its first argument.
    cdf = env
    if spec.model is FadingModel.RAYLEIGH:
        # 1 - exp(-env^2).
        np.square(env, out=cdf)
        np.negative(cdf, out=cdf)
        np.exp(cdf, out=cdf)
        np.subtract(1.0, cdf, out=cdf)
    else:
        grid, cdf_grid = rician_envelope_cdf_grid(spec.k_factor, float(env[-1]) * 1.01)
        for lo in range(0, n_samples, tile):
            cdf[lo : lo + tile] = np.interp(env[lo : lo + tile], grid, cdf_grid)
    ks = ks_statistic(env, cdf)
    return EnvelopeStats(ks_statistic=ks, empirical_mean_power=mean_power, autocorr_lags=lags)
