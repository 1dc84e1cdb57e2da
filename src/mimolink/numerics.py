"""Low-level numeric kernels: seedable counter-based RNG streams and the
bit layout of their 64-bit ids, the Box-Muller map from uniforms to complex
normals, the two Bessel functions the fading statistics need, and the
scratch budget of the batched kernels.

Everything here is deliberately small and self-contained. J0 is a
96-node midpoint rule of its integral, (1/pi) * integral_0^pi cos(x sin t)
dt, with absolute error near 2e-15 on its supported domain [0, 100]. The
exp-scaled I0, e^-x I0(x), uses a power series below 15 and the asymptotic
expansion above, with relative error near 1e-12 for every finite x >= 0.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = [
    "RngStream",
    "PhiloxStreams",
    "complex_normal_from",
    "normal_pairs",
    "pack_stream_id",
    "stream_ids",
    "bessel_i0e",
    "bessel_j0",
]

# Layout of the 64-bit stream id: trial index in the low 32 bits, a role tag
# in the next 16, an experiment tag in the top 16.
ROLE_SHIFT = 32
EXPERIMENT_SHIFT = 48
# Trial indices a stream id can hold: the low field's 32 bits.
MAX_TRIALS = 1 << ROLE_SHIFT

# Float64 elements (0.5 MiB): the scratch budget of each kernel call inside
# a sim._run_chunk (the fading, combiner and ML tiles, the BER decisions),
# which tiles to fit. Kernels run one at a time, so a chunk's scratch stays
# within this, beside its arrays, which sim.CHUNK_BUDGETS of these budgets
# bound.
CHUNK_ELEMENTS = 1 << 16

I0E_SERIES_CUTOFF = 15.0
J0_DOMAIN_MAX = 100.0
# Midpoint nodes of bessel_j0's integral, and sin() at each of them.
J0_NODES = 96
_J0_SIN = np.sin((np.arange(J0_NODES) + 0.5) * (np.pi / J0_NODES))


def pack_stream_id(experiment_id: int, role: int, trial_index: int) -> int:
    """Pack (experiment, role, trial) into one 64-bit stream id.

    The fields are disjoint, so distinct tuples can never collide:
    experiment in the top 16 bits, role in the next 16, trial in the low 32.
    """
    if not (0 <= experiment_id < 1 << 16):
        raise ValueError(f"experiment_id out of range: {experiment_id}")
    if not (0 <= role < 1 << 16):
        raise ValueError(f"role out of range: {role}")
    if not (0 <= trial_index < MAX_TRIALS):
        raise ValueError(f"trial_index out of range: {trial_index}")
    return (experiment_id << EXPERIMENT_SHIFT) | (role << ROLE_SHIFT) | trial_index


def stream_ids(experiment_id: int, role: int, links: int, trials: range) -> list[int]:
    """[pack_stream_id(experiment_id, role + j, t) for t in trials for j in
    range(links)]: the ids of roles role .. role + links - 1 for each trial,
    trial-major. The fields are disjoint, so packing the first and the last
    id checks every field of every id in between, and an id out of range
    raises ValueError before any is returned."""
    base = pack_stream_id(experiment_id, role, trials[0]) - trials[0]
    pack_stream_id(experiment_id, role + links - 1, trials[-1])
    roles = [base + (j << ROLE_SHIFT) for j in range(links)]
    return [r + t for t in trials for r in roles]


class RngStream:
    """A named, counter-based random stream.

    Each stream is an independent Philox generator keyed by
    (master_seed, stream_id). The same pair always reproduces the same
    uniforms, in any process, which is what makes the Monte Carlo results
    reproducible and worker-count independent. Byte-identical CSVs are
    verified on one host and one numpy version only: numpy's SIMD cos and
    log1p may differ by an ulp across CPUs, which can flip a trial.

    Normal variates come from these uniforms through normal_pairs'
    trigonometric Box-Muller transform, so the mapping from counter stream
    to output sequence is fully pinned down by this module (no dependence
    on numpy's own Gaussian algorithm).
    """

    __slots__ = ("master_seed", "stream_id", "_gen")

    def __init__(self, master_seed: int, stream_id: int = 0):
        if not (0 <= master_seed < 1 << 64):
            raise ValueError("master_seed must fit in 64 bits")
        if not (0 <= stream_id < 1 << 64):
            raise ValueError("stream_id must fit in 64 bits")
        self.master_seed = master_seed
        self.stream_id = stream_id
        self._gen = np.random.Generator(np.random.Philox(key=_philox_key(master_seed, stream_id)))

    def uniform(self, n: int) -> np.ndarray:
        """n uniforms on [0, 1)."""
        return self._gen.random(n)


def _philox_key(master_seed: int, stream_id: int) -> np.ndarray:
    # An explicit uint64 array: a plain list of Python ints goes through
    # float64 once a value reaches 2**63, which merges neighbouring seeds.
    return np.array([master_seed, stream_id], dtype=np.uint64)


class PhiloxStreams:
    """Draws from any (master_seed, stream_id) stream with one generator.

    uniform(stream_id, out) fills `out` with exactly the uniforms that
    RngStream(master_seed, stream_id).uniform(out.size) returns, by
    resetting one Philox bit generator to that key and counter 0, which is
    far cheaper than building a generator per stream. Not thread-safe:
    give each thread its own instance.
    """

    __slots__ = ("_key", "_state", "_bitgen", "_gen")

    def __init__(self, master_seed: int):
        if not (0 <= master_seed < 1 << 64):
            raise ValueError("master_seed must fit in 64 bits")
        self._key = _philox_key(master_seed, 0)
        self._bitgen = np.random.Philox(key=self._key)
        self._gen = np.random.Generator(self._bitgen)
        # A fresh generator's state (counter 0, empty buffer) with the key
        # array swapped for self._key, so rekeying is one element store.
        self._state = self._bitgen.state
        self._state["state"]["key"] = self._key

    def uniform(self, stream_id: int, out: np.ndarray) -> np.ndarray:
        """Fill out (float64, contiguous) from the start of stream_id."""
        self._key[1] = stream_id
        self._bitgen.state = self._state
        return self._gen.random(out=out)


def normal_pairs(u: np.ndarray) -> np.ndarray:
    """Trigonometric Box-Muller on the last axis of u: the first half of
    that axis supplies the radii r, the second half the angles a, and the
    result is r cos a + 1j * r sin a, complex normals with E|z|^2 = 2, half
    as many as the uniforms. complex_normal_from scales them by
    sqrt(var / 2)."""
    pairs = u.shape[-1] // 2
    # 1 - u maps [0,1) to (0,1], keeping log() finite.
    r = np.sqrt(-2.0 * np.log1p(-u[..., :pairs]))
    ang = 2.0 * np.pi * u[..., pairs:]
    c = np.cos(ang) * r
    z = 1j * np.multiply(np.sin(ang, out=ang), r, out=ang)
    z += c
    return z


def complex_normal_from(u: np.ndarray, var: float) -> np.ndarray:
    """Circularly symmetric complex normals with E|z|^2 = var from the
    uniforms of u's last axis: normal_pairs(u) times sqrt(var / 2)."""
    z = normal_pairs(u)
    return np.multiply(z, math.sqrt(var / 2.0), out=z)


def _i0e_series(x: np.ndarray) -> np.ndarray:
    # e^-x times the I0 series. All terms positive, so no cancellation
    # below the cutoff.
    # Each step is term * q / (k * k), done in place so that no step
    # allocates.
    q = 0.25 * x
    q *= x
    term = np.ones_like(x)
    total = np.ones_like(x)
    for k in range(1, 60):
        term *= q
        term /= k * k
        total += term
    np.negative(x, out=q)
    total *= np.exp(q, out=q)
    return total


def _i0e_asymptotic(x: np.ndarray) -> np.ndarray:
    # I0(x) ~ e^x / sqrt(2 pi x) * sum_k ((2k-1)!!)^2 / (k! 8^k x^k), so
    # the e^x cancels and nothing overflows. For x >= 15 the terms shrink
    # through k = 25, leaving truncation error around 1e-14 relative.
    # Each step is term * (2k - 1)^2 / (8k x), done in place.
    term = np.ones_like(x)
    total = np.ones_like(x)
    scratch = np.empty_like(x)
    for k in range(1, 25):
        term *= (2 * k - 1) ** 2
        term /= np.multiply(8.0 * k, x, out=scratch)
        total += term
    total /= np.sqrt(np.multiply(2.0 * np.pi, x, out=scratch), out=scratch)
    return total


def _domain_checked(x, x_max: float) -> np.ndarray:
    arr = np.asarray(x, dtype=np.float64)
    if arr.size and (np.any(~np.isfinite(arr)) or np.any(arr < 0.0) or np.any(arr > x_max)):
        raise ValueError(f"argument outside supported domain: finite and in [0, {x_max:g}]")
    return arr


def bessel_i0e(x):
    """Exp-scaled modified Bessel function of the first kind, order zero:
    e^-x I0(x), which stays in (0, 1] where I0 itself overflows.

    Supports scalars or arrays of finite entries >= 0; raises ValueError
    otherwise. Power series below 15, asymptotic expansion above; relative
    error near 1e-12 throughout.
    """
    arr = _domain_checked(x, math.inf)
    scalar = arr.ndim == 0
    arr = np.atleast_1d(arr)
    out = np.empty_like(arr)
    small = arr < I0E_SERIES_CUTOFF
    if np.any(small):
        out[small] = _i0e_series(arr[small])
    if np.any(~small):
        out[~small] = _i0e_asymptotic(arr[~small])
    return float(out[0]) if scalar else out


def bessel_j0(x):
    """Bessel function of the first kind, order zero, on [0, 100]: the
    J0_NODES-node midpoint rule of J0(x) = (1/pi) int_0^pi cos(x sin t) dt
    (Abramowitz & Stegun 9.1.18).

    The integrand is smooth and pi-periodic, so the rule converges
    geometrically: its truncation error is about 2 |J_192(x)|, far below
    rounding, and the absolute error stays near 2e-15. Supports scalars or
    arrays of finite entries in [0, 100]; raises ValueError otherwise.
    """
    arr = _domain_checked(x, J0_DOMAIN_MAX)
    out = np.cos(np.multiply.outer(arr, _J0_SIN)).sum(axis=-1) / J0_NODES
    return float(out) if arr.ndim == 0 else out
