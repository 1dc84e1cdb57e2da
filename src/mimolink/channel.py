"""Time-varying MIMO channel: independent scalar fading links per antenna
pair, exponential spatial correlation at both ends, a scalar path gain, and
additive white Gaussian noise.

The spatial model is the usual Kronecker one. With G(t) the matrix of
uncorrelated unit-power link gains,

    H(t) = g * Rr^{1/2} G(t) Rt^{1/2},    g = 10^{path_gain_db / 20},

where Rt and Rr are exponential correlation matrices R[i, j] = rho^|i-j|
(the same rho at both ends). The covariance of vec(H) is then
g^2 * (Rt kron Rr) for column-major vectorization.

The mixing gives the bits of np.einsum("ij,njk,kl->nil", Rr^{1/2}, G,
Rt^{1/2}) without a complex product. The roots come out of their complex
eigendecomposition exactly real, so each term
(Rr^{1/2}[i, j] * G[j, k]) * Rt^{1/2}[k, l] is a real scaling of the real
and imaginary parts of link (j, k). einsum adds the terms of an entry one
at a time, from zero, j-major and k-minor; _mix adds them in that order,
with the samples as the inner axis of every step.

SNR convention: for a transmit row x with total energy 1, snr_db is the
ratio of transmit energy to noise power per receive antenna, so the complex
noise variance per receive antenna is 10^(-snr_db / 10).

A channel, or a batch of them, is a ChannelSpec and its links: the
FadingProcess that channel_init builds from uniforms the caller draws,
whose angle tables nothing changes. The tables depend on a spec only
through its link count and M, so one batch of links serves every point of
a sweep. apply_channel reads the channels from t = 0 under a spec and adds
the caller's receiver noise in one call: channel_matrix_at mixes the
links (one fading_next call for all of them, under the spec's fading) and
scales them by the path gain, and receive adds the noise to H x.
apply_channel draws nothing: sim's frame chain draws one array of noise a
chunk with receiver_noise, and hands it to apply_channel with the chunk's
links at every point of a Doppler or sample-rate sweep, under the point's
spec. A gain sweep calls apply_channel once a chunk, without noise, at
0 dB.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field, replace

import numpy as np

# fading_init is unused here; the benchmark's trace wraps channel.fading_init.
from .fading import fading_init  # noqa: F401
from .fading import FadingProcess, FadingSpec, fading_angles, fading_draws, fading_next
from .numerics import complex_normal_from

__all__ = [
    "CORRELATION_LEVELS",
    "correlation_rho",
    "correlation_matrix",
    "ChannelSpec",
    "path_gain",
    "noise_variance",
    "channel_init",
    "channel_matrix_at",
    "receiver_noise",
    "receive",
    "apply_channel",
]

CORRELATION_LEVELS = {"none": 0.0, "low": 0.1, "medium": 0.5, "high": 0.9}

# Antennas at either end of a link.
MAX_ANTENNAS = 4

# Largest |path_gain_db|. Far inside the float64 range of the gain and of
# its square, so neither the mixing nor the receiver overflows or
# underflows to zero.
MAX_PATH_GAIN_DB = 1000.0


def correlation_rho(level) -> float:
    """Resolve a named correlation level or an explicit coefficient.

    Accepts "none", "low", "medium", "high" (0, 0.1, 0.5, 0.9) or any float
    in [0, 1).
    """
    if isinstance(level, str):
        name = level.strip().lower()
        if name in CORRELATION_LEVELS:
            return CORRELATION_LEVELS[name]
        try:
            value = float(name)
        except ValueError:
            raise ValueError(f"unknown correlation level {level!r}") from None
    else:
        value = float(level)
    if not 0.0 <= value < 1.0:
        raise ValueError(f"correlation coefficient must lie in [0, 1), got {value}")
    return value


def correlation_matrix(n: int, rho: float) -> np.ndarray:
    """Exponential correlation matrix R[i, j] = rho^|i - j|, complex dtype."""
    if n < 1:
        raise ValueError("n must be positive")
    if not 0.0 <= rho < 1.0:
        raise ValueError("rho must lie in [0, 1)")
    idx = np.arange(n)
    return (rho ** np.abs(idx[:, None] - idx[None, :])).astype(np.complex128)


@functools.lru_cache(maxsize=32)
def _correlation_sqrt(n: int, rho: float) -> np.ndarray:
    """Symmetric square root of correlation_matrix(n, rho), as a read-only
    real array.

    Cached per (n, rho): it is constant for a channel spec, and every
    channel of a run needs it. The root is computed in complex arithmetic
    and comes out exactly real; _mix relies on that, so a nonzero imaginary
    part raises.
    """
    # Eigendecomposition square root. Exponential correlation matrices with
    # rho < 1 are strictly positive definite, so the clip only guards
    # floating-point dust.
    w, v = np.linalg.eigh(correlation_matrix(n, rho))
    w = np.clip(w.real, 0.0, None)
    root = (v * np.sqrt(w)) @ v.conj().T
    if np.any(root.imag):
        raise ArithmeticError(f"the correlation root for n={n}, rho={rho} is not real")
    root = root.real.copy()
    root.setflags(write=False)
    return root


def path_gain(spec: ChannelSpec) -> float:
    """Linear amplitude gain g = 10^(path_gain_db / 20)."""
    return 10.0 ** (spec.path_gain_db / 20.0)


def noise_variance(snr_db: float) -> float:
    """Complex noise variance per receive antenna, 10^(-snr_db / 10).

    snr_db = +inf, and only +inf, means a noiseless receiver: the variance
    is 0 and no noise is drawn (see receive). Any other snr_db must give a
    finite, positive variance; NaN, -inf, and values whose variance
    overflows or underflows to 0 raise ValueError.
    """
    if snr_db == math.inf:
        return 0.0
    try:
        var = 10.0 ** (-snr_db / 10.0)
    except OverflowError:
        var = math.inf
    if not 0.0 < var < math.inf:
        raise ValueError(f"snr_db={snr_db} has no finite, positive noise variance")
    return var


@dataclass(frozen=True)
class ChannelSpec:
    """Geometry plus fading parameters for one MIMO link."""

    n_tx: int = 4
    n_rx: int = 4
    fading: FadingSpec = field(default_factory=FadingSpec)
    correlation: float = 0.0
    path_gain_db: float = 0.0

    def validate(self) -> None:
        if not 1 <= self.n_tx <= MAX_ANTENNAS:
            raise ValueError(f"n_tx must be in 1..{MAX_ANTENNAS}")
        if not 1 <= self.n_rx <= MAX_ANTENNAS:
            raise ValueError(f"n_rx must be in 1..{MAX_ANTENNAS}")
        if not 0.0 <= self.correlation < 1.0:
            raise ValueError("correlation must lie in [0, 1)")
        if not abs(self.path_gain_db) <= MAX_PATH_GAIN_DB:
            raise ValueError(f"path_gain_db must lie within +/-MAX_PATH_GAIN_DB = {MAX_PATH_GAIN_DB:g} dB")
        self.fading.validate()


def channel_init(spec: ChannelSpec, u: np.ndarray) -> FadingProcess:
    """Channels' links from their fading uniforms: one FadingProcess whose
    (..., n_rx * n_tx, M) angle tables hold every link of every channel,
    links in row-major order (index r * n_tx + t). The leading axes index
    independent channels.

    u has shape (..., n_rx * n_tx, fading_draws(spec.fading)): one row of
    uniforms per link, each drawn from that link's own stream, so the links
    are uncorrelated by construction. The spec is not validated here; the
    caller validates it once, where its config enters.
    """
    links, draws = spec.n_rx * spec.n_tx, fading_draws(spec.fading)
    if u.ndim < 2 or u.shape[-2:] != (links, draws):
        raise ValueError(f"u must have shape (..., {links}, {draws}), got {u.shape}")
    return FadingProcess(spec.fading, *fading_angles(spec.fading, u))


def channel_matrix_at(spec: ChannelSpec, links: FadingProcess, n_samples: int) -> np.ndarray:
    """The first n_samples channel matrices g * Rr^{1/2} G Rt^{1/2} of the
    links under spec, shape (..., n_samples, n_rx, n_tx) for links with
    leading axes (...). The links' own spec is not read."""
    gains = fading_next(replace(links, spec=spec.fading), n_samples)
    shape = (*gains.shape[:-2], n_samples, spec.n_rx, spec.n_tx)
    if spec.correlation == 0.0:
        h = np.ascontiguousarray(np.swapaxes(gains, -1, -2)).reshape(shape)
    else:
        planes = _planes(gains)
        del gains  # freed before the mixing scratch is allocated
        rr = _correlation_sqrt(spec.n_rx, spec.correlation)
        rt = _correlation_sqrt(spec.n_tx, spec.correlation)
        h = _mix(planes, rr, rt).reshape(shape)
    h *= path_gain(spec)
    return h


def _planes(gains: np.ndarray) -> np.ndarray:
    """The (..., links, n_samples) gains as float64 planes, shape
    (links, 2, n): the real and the imaginary parts of each link, with the
    samples of every channel inner."""
    links = gains.shape[-2]
    planes = np.empty((links, 2, *gains.shape[:-2], gains.shape[-1]))
    np.copyto(planes[:, 0], np.moveaxis(gains.real, -2, 0))
    np.copyto(planes[:, 1], np.moveaxis(gains.imag, -2, 0))
    return planes.reshape(links, 2, -1)


def _mix(planes: np.ndarray, rr: np.ndarray, rt: np.ndarray) -> np.ndarray:
    """Rr^{1/2} G Rt^{1/2} for the n matrices G of _planes, shape
    (n, n_rx, n_tx): the bits of np.einsum("ij,njk,kl->nil", rr, g, rt)
    for the complex (n, n_rx, n_tx) g and real roots rr and rt, by the
    argument of the module docstring.

    Each step multiplies a contiguous row by a scalar or adds arrays of one
    shape, because a broadcasting step makes numpy allocate iterator
    buffers about as large as its output.
    """
    n_rx, n_tx = len(rr), len(rt)
    n = planes.shape[-1]
    planes = planes.reshape(n_rx, n_tx, 2 * n)
    r, t = rr.tolist(), rt.tolist()
    scaled = np.empty((n_rx, 2 * n))
    term = np.empty((n_tx, n_rx, 2 * n))
    acc = np.zeros_like(term)
    for j in range(n_rx):
        for k in range(n_tx):
            for i in range(n_rx):
                np.multiply(planes[j, k], r[i][j], out=scaled[i])
            for l in range(n_tx):
                np.multiply(scaled, t[k][l], out=term[l])
            acc += term
    del scaled, term
    h = np.empty((n, n_rx, n_tx), dtype=np.complex128)
    parts = acc.reshape(n_tx, n_rx, 2, n).transpose(3, 1, 0, 2)
    np.copyto(h.view(np.float64).reshape(n, n_rx, n_tx, 2), parts)
    return h


def receiver_noise(shape: tuple[int, ...], snr_db: float, draw) -> np.ndarray | None:
    """Receiver noise of noise_variance(snr_db) for receive rows of the
    given shape: complex_normal_from of draw(2 * size), uniforms in one row
    or in one row per frame. None, and nothing drawn, at snr_db = inf."""
    noise_var = noise_variance(snr_db)
    if not noise_var:
        return None
    return complex_normal_from(draw(2 * math.prod(shape)), noise_var).reshape(shape)


def receive(h: np.ndarray, x: np.ndarray, w: np.ndarray | None) -> np.ndarray:
    """Receive rows y = H x + w for channel matrices h (n, n_rx, n_tx),
    transmit rows x (n, n_tx) and noise w (n, n_rx), or y = H x if w is
    None."""
    y = np.einsum("nrt,nt->nr", h, x)
    if w is not None:
        y += w
    return y


def apply_channel(
    spec: ChannelSpec, links: FadingProcess, x: np.ndarray, w: np.ndarray | None
) -> tuple[np.ndarray, np.ndarray]:
    """Push transmit rows through the channels from t = 0 under spec and
    add receiver noise.

    links holds (..., n_rx * n_tx, M) angle tables for spec, as
    channel_init builds them. x has shape (..., n, n_tx) with the links'
    leading axes: n rows per channel, each with total energy 1 by the
    encoder contract. w holds the (..., n, n_rx) noise rows, as
    receiver_noise draws them, or is None for a noiseless receiver; nothing
    is drawn here. Returns the (..., n, n_rx) receive rows and the exact
    (..., n, n_rx, n_tx) channel matrices used, so callers can hand perfect
    CSI to a combiner.
    """
    tables = (spec.n_rx * spec.n_tx, spec.fading.num_sinusoids)
    if links.alphas.shape[-2:] != tables:
        raise ValueError(f"spec needs angle tables of shape (..., {tables[0]}, {tables[1]})")
    x = np.asarray(x, dtype=np.complex128)
    lead = links.alphas.shape[:-2]
    if x.ndim != len(lead) + 2 or x.shape[:-2] != lead or x.shape[-1] != spec.n_tx:
        raise ValueError(f"x must have shape {(*lead, 'n', spec.n_tx)}, got {x.shape}")
    shape = (*x.shape[:-1], spec.n_rx)
    if w is not None and w.shape != shape:
        raise ValueError(f"w must have shape {shape}, got {w.shape}")
    h = channel_matrix_at(spec, links, x.shape[-2])
    noise = None if w is None else w.reshape(-1, spec.n_rx)
    y = receive(h.reshape(-1, spec.n_rx, spec.n_tx), x.reshape(-1, spec.n_tx), noise)
    return y.reshape(shape), h
