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

link_gains is the one synthesis kernel: it evaluates the sums of cosines of
many links at many times, in tiles whose (links, times, M) scratch array
holds at most numerics.CHUNK_ELEMENTS float64 elements (0.5 MiB). A
FadingProcess is a cursor over it: it holds the angle tables of one link or
of a batch of links, and fading_next asks link_gains for all of them at the
process's next sample times.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field

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
    "link_gains",
    "validate_process",
    "pdf_envelope_rician",
    "rician_envelope_cdf_grid",
    "ks_statistic",
    "check_validation_samples",
]

# Above this K the scattered component is numerically invisible next to the
# line-of-sight term, so the generator degrades gracefully to pure AWGN
# geometry: a deterministic rotating phasor.
K_AWGN_SENTINEL = 1e9

# Samples validate_process accepts: enough for meaningful comparisons, and
# few enough to bound its memory (about 24 bytes a sample).
MIN_VALIDATION_SAMPLES = 100_000
MAX_VALIDATION_SAMPLES = 10_000_000


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
        # A link_gains tile holds at least one link-sample's M sinusoids.
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
    alphas = (2.0 * np.pi * i - np.pi + theta) / (4.0 * m)
    return alphas, psis, thetas


def fading_init(spec: FadingSpec, rng: RngStream) -> FadingProcess:
    """Draw the per-link random angles and return a process at t = 0.

    Draw order (one uniform for theta, then M for psi, then M for the second
    quadrature's phases) is part of the reproducibility contract.
    """
    spec.validate()
    alphas, psis, thetas = fading_angles(spec, rng.uniform(fading_draws(spec)))
    return FadingProcess(spec=spec, alphas=alphas, psis=psis, thetas=thetas)


def _cos_sums(t: np.ndarray, freqs: np.ndarray, phases: np.ndarray, wd: float) -> np.ndarray:
    # sum_m cos(wd * t * freqs[b, m] + phases[b, m]) for every row b and
    # time t, shape (B, n), through one in-place (B, n, M) scratch array.
    buf = np.multiply(t[None, :, None], freqs[:, None, :])
    buf *= wd
    buf += phases[:, None, :]
    np.cos(buf, out=buf)
    return buf.sum(axis=-1)


def link_gains(
    spec: FadingSpec,
    alphas: np.ndarray,
    psis: np.ndarray,
    thetas: np.ndarray,
    t: np.ndarray,
) -> np.ndarray:
    """Gains of B links at the times t (seconds), shape (B, len(t)).

    alphas, psis and thetas are (B, M) angle tables from fading_angles.
    Links and times are taken in tiles whose sum-of-cosines scratch array
    holds at most numerics.CHUNK_ELEMENTS float64 elements (and at least
    one link's M sinusoids at one time); the tiling never changes a value.
    """
    n_links, m = alphas.shape
    n = len(t)
    out = np.empty((n_links, n), dtype=np.complex128)
    k = spec.k_factor
    rician = spec.model is FadingModel.RICIAN

    def los(tt):
        return math.sqrt(k / (k + 1.0)) * np.exp(
            1j * (2.0 * np.pi * spec.los_doppler_hz * tt + spec.los_phase_rad)
        )

    if rician and k > K_AWGN_SENTINEL:
        out[:] = los(t)
        return out
    wd = 2.0 * np.pi * spec.max_doppler_hz
    scale = 1.0 / math.sqrt(m)
    cos_a, sin_a = np.cos(alphas), np.sin(alphas)
    budget = numerics.CHUNK_ELEMENTS
    span = max(1, min(n, budget // m))
    group = max(1, budget // (span * m))
    for b0 in range(0, n_links, group):
        rows = slice(b0, b0 + group)
        for s0 in range(0, n, span):
            tt = t[s0 : s0 + span]
            g = scale * (
                _cos_sums(tt, cos_a[rows], psis[rows], wd)
                + 1j * _cos_sums(tt, sin_a[rows], thetas[rows], wd)
            )
            if rician:
                g = los(tt) + math.sqrt(1.0 / (k + 1.0)) * g
            out[rows, s0 : s0 + span] = g
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
    t = (proc.sample_index + np.arange(n_samples)) / proc.spec.sample_rate_hz
    *lead, m = proc.alphas.shape
    rows = [a.reshape(-1, m) for a in (proc.alphas, proc.psis, proc.thetas)]
    out = link_gains(proc.spec, *rows, t).reshape(*lead, n_samples)
    proc.sample_index += n_samples
    return out


def pdf_envelope_rician(x, c_m: float, alpha_sq: float):
    """Rician envelope density with line-of-sight amplitude c_m and
    per-quadrature scattered variance alpha_sq.

        p(x) = x / alpha_sq * exp(-(x^2 + c_m^2) / (2 alpha_sq)) * I0(z)
             = x / alpha_sq * exp(-(x - c_m)^2 / (2 alpha_sq)) * e^-z I0(z)

    with z = x c_m / alpha_sq. The second, exp-scaled form is the one
    evaluated: neither factor overflows at large K, where z runs into the
    thousands.
    """
    if alpha_sq <= 0.0:
        raise ValueError("alpha_sq must be positive")
    if c_m < 0.0:
        raise ValueError("c_m must be nonnegative")
    x_arr = np.asarray(x, dtype=np.float64)
    if np.any(x_arr < 0.0):
        raise ValueError("envelope must be nonnegative")
    bess = bessel_i0e(x_arr * c_m / alpha_sq)
    out = x_arr / alpha_sq * np.exp(-((x_arr - c_m) ** 2) / (2.0 * alpha_sq)) * bess
    return float(out) if np.isscalar(x) or x_arr.ndim == 0 else out


def ks_statistic(samples: np.ndarray, cdf_values: np.ndarray) -> float:
    """Kolmogorov-Smirnov sup distance between an empirical sample and a
    reference CDF evaluated at the sorted sample points.

    `cdf_values` must correspond to np.sort(samples).
    """
    n = len(samples)
    if n == 0:
        raise ValueError("need at least one sample")
    c = np.asarray(cdf_values, dtype=np.float64)
    steps = np.arange(n + 1, dtype=np.float64)
    steps /= n  # the empirical CDF's levels k / n, k = 0..n
    hi = np.max(steps[1:] - c)
    lo = np.max(c - steps[:-1])
    return float(max(hi, lo))


def rician_envelope_cdf_grid(k: float, x_max: float, n_grid: int = 200_001):
    """Numeric CDF of the unit-power Rician envelope on a uniform grid.

    Returns (grid, cdf) suitable for np.interp. Total power is normalized to
    one: c_m^2 = K/(K+1) and 2 alpha^2 = 1/(K+1). Trapezoid integration of
    the density; with the default grid the CDF error is far below the KS
    tolerances used in the acceptance checks.
    """
    c_m = math.sqrt(k / (k + 1.0))
    alpha_sq = 0.5 / (k + 1.0)
    grid = np.linspace(0.0, x_max, n_grid)
    pdf = pdf_envelope_rician(grid, c_m, alpha_sq)
    cdf = np.concatenate([[0.0], np.cumsum(0.5 * (pdf[1:] + pdf[:-1]) * np.diff(grid))])
    return grid, np.clip(cdf, 0.0, 1.0)


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


def validate_process(proc: FadingProcess, n_samples: int) -> EnvelopeStats:
    """Draw n_samples from the process and test them against theory.

    The KS statistic compares the sample envelope against the model CDF
    (closed form for Rayleigh, numeric integration of the Rician density).
    n_samples must pass check_validation_samples. Rejects the degenerate
    near-AWGN Rician regime where the envelope distribution collapses to a
    point mass.
    """
    check_validation_samples(n_samples)
    spec = proc.spec
    if spec.model is FadingModel.RICIAN and spec.k_factor >= K_AWGN_SENTINEL:
        raise ValueError("envelope validation is undefined for the AWGN-limit K")

    g = fading_next(proc, n_samples)
    x = g.real
    fs = spec.sample_rate_hz
    fd = spec.max_doppler_hz
    # Enough lags to cover tau * f_d up to 2 when the sampling is dense, and
    # never fewer than 20.
    n_lags = max(20, min(int(math.ceil(2.0 * fs / fd)) + 1, 400))
    n_lags = min(n_lags, n_samples // 2)
    r0 = float(np.dot(x, x) / n_samples)
    lags = []
    for ell in range(n_lags):
        emp = float(np.dot(x[: n_samples - ell], x[ell:]) / (n_samples - ell)) / r0
        tau = ell / fs
        theo = bessel_j0(2.0 * np.pi * fd * tau)
        if spec.model is FadingModel.RICIAN:
            k = spec.k_factor
            theo = (k * math.cos(2.0 * np.pi * spec.los_doppler_hz * tau) + theo) / (k + 1.0)
        lags.append((tau, emp, float(theo)))

    # Only the envelope is needed from here on: one array, sorted in place.
    env = np.abs(g)
    del g, x
    mean_power = float(np.mean(env**2))
    env.sort()
    if spec.model is FadingModel.RAYLEIGH:
        # 1 - exp(-env^2), built in env's buffer; ks_statistic reads only
        # the sample count from its first argument.
        cdf = np.square(env, out=env)
        np.negative(cdf, out=cdf)
        np.exp(cdf, out=cdf)
        np.subtract(1.0, cdf, out=cdf)
    else:
        grid, cdf_grid = rician_envelope_cdf_grid(spec.k_factor, float(env[-1]) * 1.01)
        cdf = np.interp(env, grid, cdf_grid)
    ks = ks_statistic(env, cdf)
    return EnvelopeStats(ks_statistic=ks, empirical_mean_power=mean_power, autocorr_lags=lags)
