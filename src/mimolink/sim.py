"""Monte Carlo experiment engine.

An experiment is a sweep over one x-axis variable (path gain, Doppler,
sample rate, or SNR), the config field that its Experiment row names.
Every sweep point simulates frames -- 120 information bits each by
default -- until it has seen target_frame_errors frame errors or
max_frames frames, whichever comes first.

Reproducibility is structural, not incidental. Each frame derives every
random quantity it needs from counter-based streams keyed by
(master_seed, experiment id, role, trial index), so a trial's outcome,
one int, its bit-error count, is a pure function of (config, trial_index).
The engine may farm trials out to worker processes in any arrangement; a
point folds the counts in trial-index order, a count above zero being a
frame error, and cuts off at the exact frame where the error target is
met, which makes emit_csv(result) bit-identical for any worker count.

There is one frame chain, _run_chunk, which simulates a chunk of trials
as arrays at every running point of a sweep: one batch of channels, one
per frame, from channel_init, then one batched call each for encoding,
combining or detection, and demapping. Stream ids never name a point, so
a trial draws the same uniforms at every point, and the part of the chain
that the swept value does not enter, the prefix, runs once per chunk:
bits, codewords, the links' angle tables and the receiver noise for the
FER experiments, and under a gain sweep H0 x and the unit-gain channel
matrices H0, from apply_channel on the channels restarted at 0 dB, and
the combines S of H0 x and W of the noise under H0's block channels;
bits, the i.i.d. channel, H x, the channels prepared for the detector
(detect.prepare_channels: H^H and the Gram matrices with ZF's
singularity verdict, or ML's hypothesis images and tail norms) and the
noise's normal pairs z for BER-vs-SNR. The rest, the suffix, runs once
per point, one point at a time: apply_channel's link gains, mixing and
y = H x + w with the prefix's w, and the combine under a Doppler or
sample-rate sweep, and S + W / g under a gain sweep, since the combiner
is linear in y and its normaliser ||h||^2 scales by g^2; then the
demapping. BER-vs-SNR hands H x, z and every
point's noise variance to one detect call, which returns each point's
decisions: ZF solves for H^H H x and H^H z once and each point is an
axpy of the two, ML forms its noise-free distances and their noise term
once per tile and each point is an axpy and an argmin, and MMSE forms
each point's y = H x + sqrt(nv / 2) z and solves for it. Each shared
array holds the value that a one-point chain computes, and each suffix
applies the same numpy operations to it, so a point's outcomes equal
those of a one-point sweep. The closed forms (S + W / g, and the ZF and
ML axpys) round otherwise than forming each point's y and combining or
detecting it; tests/test_census.py counts the trials whose outcomes
this moves, and finds none.

_run_chunk takes a stream source, draw(stream_id, out), and each trial
draws its own streams from counter zero in the same order, so a trial's
outcome does not depend on its chunk. A chunk is the one unit of work:
_simulate_range runs one through a rekeyed PhiloxStreams, and run_frame,
the single-trial reference, runs a chunk of one trial on fresh RngStreams.
This module alone assigns the stream ids' experiment and role fields (the
table below), and numerics.stream_ids packs a chunk's ids from them; the
channel and fading layers take uniforms. A chunk holds as many trials as
their arrays fit CHUNK_BUDGETS times numerics.CHUNK_ELEMENTS (2 MiB) by
trial_elements, whatever the number of points: 20 4x4 FER frames at any
sample rate, 77 2x2 FER frames, and 72 uncoded 4x4 frames under ZF or MMSE
and 39 under ML. The fading, combining and ML kernels tile their scratch
within numerics.CHUNK_ELEMENTS, one call at a time, so a chunk peaks near
2.5 MiB. Each point of a sweep drops out at its own cut, under its own
stopping rule in _run_sweep (run_experiment gives every point the
config's). _simulate_wave cuts a wave of trials into chunks of chunk_trials
and runs each once: the serial path's wave is one chunk, and it checks the
error targets after each; the process pool gets waves of WAVE_FRAMES
trials, ceil(chunks / workers) chunks to a task, and each chunk ships back
one int array per point. The pool class, sim.ProcessPoolExecutor, is
imported when it is first read (see the module's __getattr__), which a
sweep does only at workers > 1, so a serial run loads neither
concurrent.futures nor multiprocessing. A frame with a channel that ZF's
preparation flags as singular (detect.PreparedChannels.singular) is scored
as all errored, at every point.

Frame chain for the FER experiments: Bernoulli bits -> QPSK -> OSTBC encode
-> time-varying correlated channel + AWGN -> combine (channel of each
block's first row, the usual quasi-static approximation) -> demodulate ->
count errors. The BER-vs-SNR experiment instead sends uncoded per-antenna
QPSK streams through a fresh i.i.d. Rayleigh matrix per symbol vector and
runs one of the zf/mmse/ml detectors.
"""

from __future__ import annotations

import contextlib
import enum
import math
import os
import sys
import time
from dataclasses import dataclass, field, replace
from fractions import Fraction
from typing import TYPE_CHECKING

import numpy as np

from . import numerics
from .channel import (
    MAX_ANTENNAS,
    ChannelSpec,
    apply_channel,
    channel_init,
    channel_restart,
    noise_variance,
    path_gain,
    receive,
    receiver_noise,
)
from .detect import (
    DetectorKind,
    ml_detect_batch,
    mmse_detect_batch,
    prepare_channels,
    prepared_elements,
    zf_detect_batch,
)
from .fading import FadingSpec, fading_draws
from .modem import bernoulli_bits, qpsk_demodulate, qpsk_modulate
from .numerics import MAX_TRIALS, PhiloxStreams, RngStream, complex_normal_from, normal_pairs, pack_stream_id
from .stbc import combine_array, encode_array, ostbc_code

if TYPE_CHECKING:
    from concurrent.futures import ProcessPoolExecutor

__all__ = [
    "Experiment",
    "SimConfig",
    "SweepPoint",
    "SimResult",
    "check_sweep",
    "check_workers",
    "run_frame",
    "run_experiment",
    "wilson_interval",
    "emit_csv",
    "fading_pairs",
    "render_csv",
]


class Experiment(enum.Enum):
    """The experiments, one row each: the name that the CSV header echoes
    (the value), its stream ids' experiment field (exp_id) and the field
    its sweep sets (swept, a dotted path from SimConfig). _run_chunk runs
    BER_VS_SNR on the uncoded chain, FER_VS_GAIN on the gain chain and any
    other on the channel chain, which restarts links under each point's spec."""

    FER_VS_GAIN = ("fer_vs_gain", 0, "channel.path_gain_db")
    FER_VS_DOPPLER = ("fer_vs_doppler", 1, "channel.fading.max_doppler_hz")
    FER_VS_SAMPLE_RATE = ("fer_vs_sample_rate", 2, "channel.fading.sample_rate_hz")
    BER_VS_SNR = ("ber_vs_snr", 3, "snr_db")

    def __new__(cls, value: str, exp_id: int, swept: str):
        member = object.__new__(cls)
        member._value_, member.exp_id, member.swept = value, exp_id, swept
        return member


# The stream-id fields, in one table: the experiment and role values that
# numerics packs with a trial index into the id of every random stream.
# The experiment fields are the Experiment rows' exp_id and
# validate-fading's, keyed by the name the CSV header echoes.
# Fading link i of a frame's channel (row-major, i < MAX_LINKS) draws its
# channel_init uniforms from role ROLE_FADING + i, so ROLE_IID_CHANNEL sits
# above the last link. validate-fading has a single stream; its experiment
# field keeps it apart from every frame's. No other module assigns these
# values, and only numerics knows their bit layout.
VALIDATE_FADING = "validate_fading"
EXPERIMENT_IDS = {e.value: e.exp_id for e in Experiment} | {VALIDATE_FADING: 4}
MAX_LINKS = MAX_ANTENNAS * MAX_ANTENNAS
ROLE_BITS = 0
ROLE_NOISE = 1
ROLE_FADING = 2
ROLE_IID_CHANNEL = ROLE_FADING + MAX_LINKS
VALIDATE_FADING_STREAM = pack_stream_id(EXPERIMENT_IDS[VALIDATE_FADING], 0, 0)

# Trials handed to the worker pool per scheduling wave, in chunks of
# chunk_trials, ceil(chunks / workers) chunks to a task. Any value gives
# identical results; it only trades frames simulated past the stopping cut
# against dispatch overhead. The serial path instead runs one _run_chunk
# at a time (see chunk_trials), so it stops within a chunk of the cut.
WAVE_FRAMES = 1024

# The budget of one _run_chunk's arrays, by trial_elements, counted in
# kernel scratch budgets (numerics.CHUNK_ELEMENTS): 2**18 float64 elements,
# 2 MiB. At one budget a chunk holds five 4x4 4x3/4 FER frames, and numpy's
# per-call cost outweighs the arithmetic. Any value gives identical results.
# perfbench/run.py --seconds 6, medians of 3 seeds on a 2-CPU Xeon, at 1, 2,
# 4 and 8 budgets: fer-gain-rayleigh 4,025, 4,841, 5,381 and 5,315 frames/s
# at a peak RSS of 45.6, 46.0, 46.9 and 48.9 MiB; fer-doppler-rician-w2
# 73.9, 74.3, 75.8 and 80.3 MiB. Eight buys no FER speed for its memory.
CHUNK_BUDGETS = 4

# Most points a sweep may hold: a worker ships an int array per point a wave.
MAX_SWEEP_POINTS = 10_000

# Float64 elements (128 MiB) of scratch that one trial may need, by
# trial_elements. A chunk holds at least one trial, so this bounds the
# memory of every configuration that SimConfig.validate accepts.
MAX_TRIAL_ELEMENTS = 1 << 24

# 95% two-sided normal quantile, frozen so CSV output never shifts with
# library updates.
Z95 = 1.959963984540054


def __getattr__(name: str):
    """Import the process pool class the first time sim.ProcessPoolExecutor
    is read (PEP 562), and keep it as a module global: concurrent.futures
    and the multiprocessing modules it loads cost a fresh interpreter
    about 20 ms, which only a sweep of workers > 1 needs. _run_sweep reads
    the class through the module, so a class set on it is the one used."""
    if name == "ProcessPoolExecutor":
        from concurrent.futures import ProcessPoolExecutor

        globals()[name] = ProcessPoolExecutor
        return ProcessPoolExecutor
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


@dataclass(frozen=True)
class SimConfig:
    """Full description of one experiment.

    code is the (n_tx, rate) pair of the OSTBC used by the FER experiments;
    detector selects the spatial-multiplexing receiver for BER-vs-SNR. The
    unused one may be None. sweep holds the x-axis values; the swept
    quantity is implied by the experiment kind.
    """

    experiment: Experiment
    channel: ChannelSpec = field(default_factory=ChannelSpec)
    code: tuple[int, Fraction] | None = (4, Fraction(3, 4))
    detector: DetectorKind | None = None
    frame_bits: int = 120
    snr_db: float = 10.0
    sweep: tuple[float, ...] = ()
    max_frames: int = 100_000
    target_frame_errors: int = 200
    master_seed: int = 1

    def validate(self) -> None:
        if not isinstance(self.experiment, Experiment):
            raise ValueError("experiment must be an Experiment")
        self.channel.validate()
        if self.frame_bits < 2 or self.frame_bits % 2 != 0:
            raise ValueError("frame_bits must be a positive even count")
        if not (0 <= self.master_seed < 1 << 64):
            raise ValueError("master_seed must fit in 64 bits")
        check_sweep(self.sweep)
        if self.max_frames < 1:
            raise ValueError("max_frames must be at least 1")
        if self.max_frames > MAX_TRIALS:
            raise ValueError(f"max_frames must not exceed {MAX_TRIALS}, the trials a stream id can index")
        if self.target_frame_errors < 1:
            raise ValueError("target_frame_errors must be at least 1")
        n_symbols = self.frame_bits // 2
        if self.experiment is Experiment.BER_VS_SNR:
            if self.detector is None:
                raise ValueError("ber_vs_snr needs a detector")
            if n_symbols % self.channel.n_tx != 0:
                raise ValueError("frame symbols must fill whole transmit vectors")
            if self.detector in (DetectorKind.ZF, DetectorKind.MMSE) and self.channel.n_rx < self.channel.n_tx:
                raise ValueError(f"{self.detector.value} needs n_rx >= n_tx")
        else:
            if self.code is None:
                raise ValueError("FER experiments need an OSTBC code")
            code = ostbc_code(*self.code)
            if code.n_tx != self.channel.n_tx:
                raise ValueError("code antenna count must match the channel")
            if n_symbols % code.n_symbols != 0:
                raise ValueError(
                    f"frame_bits={self.frame_bits} gives {n_symbols} symbols, "
                    f"not a multiple of the code block size {code.n_symbols}"
                )
        elements = trial_elements(self)
        if elements > MAX_TRIAL_ELEMENTS:
            raise ValueError(
                f"one trial needs about {elements} float64 elements of scratch, more than "
                f"MAX_TRIAL_ELEMENTS={MAX_TRIAL_ELEMENTS}: lower frame_bits or num_sinusoids"
            )
        # Every sweep point must itself be a valid configuration, with an
        # SNR that noise_variance accepts.
        for x in self.sweep:
            noise_variance(_point_config(self, x).snr_db)


def check_sweep(sweep: tuple[float, ...]) -> tuple[float, ...]:
    """Return sweep if it is a non-empty, strictly increasing run of at most
    MAX_SWEEP_POINTS finite values; raise ValueError otherwise."""
    if len(sweep) == 0:
        raise ValueError("sweep must not be empty")
    if len(sweep) > MAX_SWEEP_POINTS:
        raise ValueError(f"sweep has {len(sweep)} points, more than MAX_SWEEP_POINTS={MAX_SWEEP_POINTS}")
    if any(not math.isfinite(v) for v in sweep):
        raise ValueError("sweep values must be finite")
    if any(b <= a for a, b in zip(sweep, sweep[1:])):
        raise ValueError("sweep must be strictly increasing")
    return sweep


def check_workers(workers: int, name: str = "workers") -> None:
    """Raise ValueError unless 1 <= workers <= os.cpu_count() (1 if unknown)."""
    cpus = os.cpu_count() or 1
    if not 1 <= workers <= cpus:
        raise ValueError(f"{name} must lie in 1..{cpus}, the CPU count")


def _point_config(config: SimConfig, x: float) -> SimConfig:
    """Resolve a sweep point into a concrete single-point config: x written
    into the field that the experiment sweeps."""

    def with_x(obj, path: str):
        name, _, rest = path.partition(".")
        return replace(obj, **{name: with_x(getattr(obj, name), rest) if rest else x})

    config = with_x(config, config.experiment.swept)
    config.channel.validate()
    return config


def run_frame(config: SimConfig, trial_index: int) -> int:
    """Simulate one frame: the bit-error count of _run_chunk over this one
    trial, drawing each stream from a fresh RngStream. The single-trial
    reference that the chunks of _simulate_wave are tested against."""

    def draw(stream_id: int, out: np.ndarray) -> None:
        out[:] = RngStream(config.master_seed, stream_id).uniform(out.size)

    return int(_run_chunk([config], draw, range(trial_index, trial_index + 1))[0][0])


def _detect(detector: DetectorKind, channels, hx: np.ndarray, z: np.ndarray, noise_vars: list[float]) -> np.ndarray:
    # channels come from prepare_channels(detector, h), which the chunk's
    # prefix calls once for every point of the sweep. The names are looked
    # up here, at the call, where the benchmark's trace wraps them.
    if detector is DetectorKind.ZF:
        return zf_detect_batch(channels, hx, z, noise_vars)
    if detector is DetectorKind.MMSE:
        return mmse_detect_batch(channels, hx, z, noise_vars)
    return ml_detect_batch(channels, hx, z, noise_vars)


def trial_elements(config: SimConfig) -> int:
    """Float64 elements of the arrays that _run_chunk holds for one trial
    at its peak, counted from their shapes; a kernel call inside the chunk
    tiles its own scratch within numerics.CHUNK_ELEMENTS, on top of the
    chunk's arrays, whatever the chunk's size. The count does
    not grow with the points of a sweep: a chunk holds its prefix once and
    runs the points' suffixes one at a time, each freeing its arrays
    before the next.

    A trial sends rows, one channel matrix each: the codeword rows of the
    FER chain, or one row per transmit vector. Per channel entry 6: the
    complex matrix and the two arrays of its size that make it (the mixing
    planes and sums, or the draw's uniforms and normals). Per transmit
    entry 2: the codewords or transmit vectors. The FER chain charges a
    link its fading_draws + 3M uniforms and then angles; a receive entry
    4, the shared noise and a point's receive rows or the mixing's scaled
    rows, or under a gain sweep the noise-free rows y0 = H0 x or the
    noise; and a symbol 10, the symbols and then a combiner's two real
    sums, Re c and Im d, and the two complex temporaries of its last
    expression, 6, which outweigh the channel at one receive antenna. The
    combiner's fold (stbc.combine_array) copies its receive rows' planes
    and forms its products and terms a tile at a time, as kernel scratch
    within numerics.CHUNK_ELEMENTS. A gain sweep's two combines run back
    to back, S of y0 and then W of the noise, so its symbol charge holds
    S beside W's sums and temporaries, 8, and then S, W and a point's
    S + W / g, 6. Its block channels, a block_len-th of a
    channel entry, are copied out of the unit-gain matrices, which are
    freed with the codewords before the combines run; the noise is drawn
    between the two, once y0 is freed. BER-vs-SNR charges a receive entry
    4, the noise-free images H x and the noise's normal pairs z, which the
    chunk holds from its prefix through the detect call; a row the
    channels that the prefix prepares for the detector,
    detect.prepared_elements: H^H and the Gram matrix for ZF and MMSE,
    2 N_r N_t + 2 N_t^2, and ML's head and tail images with the tail
    norms, 272 at 4x4 QPSK; and a symbol 14, the symbols and then the
    detect call's arrays: ZF's two right-hand sides H^H H x and H^H z and
    their solutions, 8, and a level's estimate and its sign tests. MMSE's
    y and regularised Gram matrix at a level take the room of the
    channel's draw, which preparing the channels frees. An uncoded 4x4
    vector is charged 240 elements under ZF and MMSE and 448 under ML. A
    detect call's decisions, a byte a bit at each of its points, stay
    within numerics.CHUNK_ELEMENTS (see _run_chunk), as ML's search tiles
    do.
    chunk_trials sizes chunks by it, against CHUNK_BUDGETS times that
    budget; SimConfig.validate bounds it.
    """
    ch = config.channel
    links = ch.n_rx * ch.n_tx
    symbols = config.frame_bits // 2
    if config.experiment is Experiment.BER_VS_SNR:
        rows = symbols // ch.n_tx
        prepared = prepared_elements(config.detector, ch.n_rx, ch.n_tx)
        return rows * (6 * links + 4 * ch.n_rx + 2 * ch.n_tx + prepared) + 14 * symbols
    code = ostbc_code(*config.code)
    rows = symbols // code.n_symbols * code.block_len
    per_link = fading_draws(ch.fading) + 3 * ch.fading.num_sinusoids
    return links * per_link + rows * (6 * links + 4 * ch.n_rx + 2 * ch.n_tx) + 10 * symbols


def chunk_trials(config: SimConfig) -> int:
    """Trials that one _run_chunk batches: as many as fit the chunk budget,
    CHUNK_BUDGETS times numerics.CHUNK_ELEMENTS, by trial_elements, and at
    least one. The kernels' budget is read at the call, so shrinking it
    shrinks the chunks too."""
    return max(1, CHUNK_BUDGETS * numerics.CHUNK_ELEMENTS // trial_elements(config))


def _run_chunk(points: list[SimConfig], draw, trials: range) -> list[np.ndarray]:
    """Bit-error counts of the trials at each point config of one sweep
    (see _point_config), in index order: the prefix once for the chunk,
    then each point's suffix in turn (see the module docstring).
    draw(stream_id, out) fills out from the start of that stream. A trial
    with a channel that preparing for ZF flags as singular counts every
    bit as errored, at every point; the others are scored as usual."""
    config = points[0]
    exp_id = config.experiment.exp_id
    ch = config.channel
    n_rx, n_tx = ch.n_rx, ch.n_tx
    f = len(trials)

    def uniforms(role: int, per_trial: int, links: int = 1) -> np.ndarray:
        # Row i * links + j holds the start of stream (role + j, trials[i]).
        ids = numerics.stream_ids(exp_id, role, links, trials)
        u = np.empty((f * links, per_trial))
        for stream_id, row in zip(ids, u):
            draw(stream_id, row)
        return u

    def noise(n: int) -> np.ndarray:
        return uniforms(ROLE_NOISE, n // f)

    bits = bernoulli_bits(uniforms(ROLE_BITS, config.frame_bits))
    syms = qpsk_modulate(bits.ravel())

    def score(bits_hat: np.ndarray) -> np.ndarray:
        return np.count_nonzero(bits_hat.reshape(f, -1) != bits, axis=1)

    if config.experiment is Experiment.BER_VS_SNR:
        # Prefix: the i.i.d. channel, H x, the channels prepared for the
        # detector and the noise's normal pairs.
        x, syms = syms.reshape(-1, n_tx) / math.sqrt(n_tx), None
        n_vec = len(x) // f
        h = complex_normal_from(uniforms(ROLE_IID_CHANNEL, 2 * n_vec * n_rx * n_tx), 1.0)
        h = path_gain(ch) * h.reshape(-1, n_rx, n_tx)
        hx = receive(h, x, None)
        channels, h = prepare_channels(config.detector, h), None  # the prepared channels replace h
        wiped = channels.singular.reshape(f, -1).any(axis=1)
        z = normal_pairs(noise(2 * hx.size)).reshape(hx.shape)
        # One detect call decides every point at once, from receive's
        # y = H x + w with w as complex_normal_from scales it; calls of at
        # most per_call points keep their decisions, a byte a bit a point,
        # within numerics.CHUNK_ELEMENTS.
        noise_vars = [noise_variance(pc.snr_db) for pc in points]
        per_call = max(1, 8 * numerics.CHUNK_ELEMENTS // bits.size)
        return [
            np.where(wiped, config.frame_bits, score(decided))
            for lo in range(0, len(points), per_call)
            for decided in _detect(config.detector, channels, hx, z, noise_vars[lo : lo + per_call])
        ]

    # Prefix: the codewords, the links' angle tables and the receiver
    # noise.
    code = ostbc_code(*config.code)
    t_len = code.block_len
    x, syms = encode_array(code, syms.reshape(-1, code.n_symbols)).reshape(f, -1, n_tx), None
    rows = x.shape[1]
    u = uniforms(ROLE_FADING, fading_draws(ch.fading), n_rx * n_tx).reshape(f, n_rx * n_tx, -1)
    proc, u = channel_init(ch, u), None  # the angle tables replace the uniforms

    def combine(y: np.ndarray, h_blocks: np.ndarray) -> np.ndarray:
        return combine_array(code, y.reshape(-1, t_len, n_rx), h_blocks)

    def errors(s_hat: np.ndarray) -> np.ndarray:
        return score(qpsk_demodulate(s_hat.ravel()))

    if config.experiment is Experiment.FER_VS_GAIN:
        # The combiner is linear in y and its normaliser ||h||^2 scales by
        # g^2, so combining y = g H0 x + w under g H0 gives S + W / g, with
        # S and W the combines of H0 x and of w under the unit-gain H0. The
        # prefix forms S and W; each point is an axpy and the demapping. At
        # 0 dB, channel_matrix_at scales by 10**0, exactly 1.0.
        (y0, h0), x = apply_channel(channel_restart(proc, replace(ch, path_gain_db=0.0)), x, None), None
        h_blocks, h0 = h0.reshape(-1, n_rx, n_tx)[::t_len].copy(), None  # a copy, so that h0 is freed here
        s0, y0 = combine(y0, h_blocks), None
        w = receiver_noise((f * rows, n_rx), config.snr_db, noise)
        if w is None:
            return [errors(s0) for _ in points]
        s_w, w = combine(w, h_blocks), None

        def gain_errors(pc: SimConfig) -> np.ndarray:
            s_hat = s_w / path_gain(pc.channel)
            s_hat += s0
            return errors(s_hat)

        return [gain_errors(pc) for pc in points]

    w = receiver_noise((f, rows, n_rx), config.snr_db, noise)

    def point_errors(pc: SimConfig) -> np.ndarray:
        y, h = apply_channel(channel_restart(proc, pc.channel), x, w)
        return errors(combine(y, h.reshape(-1, n_rx, n_tx)[::t_len]))

    return [point_errors(pc) for pc in points]


def _simulate_range(points: list[SimConfig], start: int, stop: int) -> list[np.ndarray]:
    """The task of a pool worker or of the serial path: _run_chunk of the
    chunk of trials [start, stop) at each point config of one sweep,
    drawn through a rekeyed PhiloxStreams."""
    return _run_chunk(points, PhiloxStreams(points[0].master_seed).uniform, range(start, stop))


@dataclass(frozen=True)
class SweepPoint:
    """Aggregated counts and rates at one x value. elapsed_s is the wall
    time from the start of the sweep to this point's cut: the points run
    together, so it is not the time spent on this point alone."""

    x: float
    frames: int
    frame_errors: int
    bits: int
    bit_errors: int
    fer: float
    ber: float
    ci95_fer: tuple[float, float]
    ci95_ber: tuple[float, float]
    elapsed_s: float


@dataclass(frozen=True)
class SimResult:
    config: SimConfig
    points: list[SweepPoint]


def wilson_interval(errors: int, trials: int) -> tuple[float, float]:
    """95% Wilson score interval for a binomial proportion.

    Exact at the boundaries: (0, n) pins the lower limit to 0 and (n, n)
    the upper limit to 1.
    """
    if trials < 1:
        raise ValueError("trials must be at least 1")
    if not 0 <= errors <= trials:
        raise ValueError("errors must lie in [0, trials]")
    z2 = Z95 * Z95
    p = errors / trials
    denom = 1.0 + z2 / trials
    center = p + z2 / (2.0 * trials)
    half = Z95 * math.sqrt(p * (1.0 - p) / trials + z2 / (4.0 * trials * trials))
    # The boundary cases collapse analytically (center == half at p = 0 and
    # the mirror image at p = 1) but not in floating point; pin them so the
    # interval always contains the point estimate.
    lo = 0.0 if errors == 0 else max(0.0, (center - half) / denom)
    hi = 1.0 if errors == trials else min(1.0, (center + half) / denom)
    return lo, hi


def _simulate_wave(
    points: list[SimConfig], start: int, stop: int, pool: ProcessPoolExecutor | None = None, workers: int = 1
) -> list[np.ndarray]:
    """For each point config, the bit-error counts of trials [start, stop):
    _simulate_range of each chunk of chunk_trials trials, in this process
    or on the pool, ceil(chunks / workers) chunks to a task, waiting for
    the whole wave so that no task outlives a cut."""
    step = chunk_trials(points[0])
    starts = range(start, stop, step)
    args = ([points] * len(starts), starts, [min(a + step, stop) for a in starts])
    if pool is None:
        chunks = map(_simulate_range, *args)
    else:
        chunks = pool.map(_simulate_range, *args, chunksize=-(-len(starts) // workers))
    return [np.concatenate(point) for point in zip(*chunks)]


@dataclass
class _Tally:
    """Running counts of one sweep point. A trial with any bit error is a
    frame error."""

    frames: int = 0
    frame_errors: int = 0
    bit_errors: int = 0

    def fold(self, bit_errors: np.ndarray, target: int) -> bool:
        """Add bit-error counts in trial order, up to and including the
        trial that meets the error target; True once it is met."""
        errored = np.cumsum(bit_errors > 0)
        n = min(int(np.searchsorted(errored, target - self.frame_errors)) + 1, len(bit_errors))
        self.frames += n
        self.frame_errors += int(np.count_nonzero(bit_errors[:n]))
        self.bit_errors += int(bit_errors[:n].sum())
        return self.frame_errors >= target

    def point(self, x: float, frame_bits: int, elapsed_s: float) -> SweepPoint:
        bits = self.frames * frame_bits
        return SweepPoint(
            x=x,
            frames=self.frames,
            frame_errors=self.frame_errors,
            bits=bits,
            bit_errors=self.bit_errors,
            fer=self.frame_errors / self.frames,
            ber=self.bit_errors / bits,
            ci95_fer=wilson_interval(self.frame_errors, self.frames),
            ci95_ber=wilson_interval(self.bit_errors, bits),
            elapsed_s=elapsed_s,
        )


def _run_sweep(config: SimConfig, rules: list[tuple[int, int]], workers: int) -> list[SweepPoint]:
    """Simulate every sweep point of a validated config at once, point i
    under its own stopping rule rules[i] = (target_frame_errors,
    max_frames): trials 0, 1, ... of all points still running, a wave at
    a time (a chunk on the serial path, see chunk_trials; WAVE_FRAMES
    trials in chunks over a pool of workers > 1 processes). A wave ends at the
    lowest frame cap of the points it runs, so no point folds a trial past
    its own cap. Each point folds its trials' bit-error counts in trial
    order and drops out at its own cut: the trial that meets its error
    target, or its cap. A point's result is that of a one-point sweep
    under its rule, whatever its neighbours'."""
    if len(rules) != len(config.sweep):
        raise ValueError(f"{len(rules)} stopping rules for {len(config.sweep)} sweep points")
    if any(target < 1 or not 1 <= cap <= MAX_TRIALS for target, cap in rules):
        raise ValueError("each stopping rule needs a target of at least 1 and a cap in 1..MAX_TRIALS")
    t0 = time.perf_counter()
    points = [_point_config(config, x) for x in config.sweep]
    tallies = [_Tally() for _ in points]
    results: list[SweepPoint | None] = [None] * len(points)
    active = list(range(len(points)))
    pool = sys.modules[__name__].ProcessPoolExecutor(max_workers=workers) if workers > 1 else contextlib.nullcontext()
    with pool as executor:
        wave = WAVE_FRAMES if executor is not None else chunk_trials(points[0])
        start = 0
        while active:
            stop = min(start + wave, *(rules[i][1] for i in active))
            parts = _simulate_wave([points[i] for i in active], start, stop, executor, workers)
            for i, bit_errors in zip(list(active), parts):
                target, cap = rules[i]
                if tallies[i].fold(bit_errors, target) or stop == cap:
                    results[i] = tallies[i].point(config.sweep[i], config.frame_bits, time.perf_counter() - t0)
                    active.remove(i)
            start = stop
    return results


def run_experiment(config: SimConfig, workers: int = 1) -> SimResult:
    """Run every sweep point and aggregate counts, rates, and intervals.

    workers > 1 distributes trials over a process pool. The outcome of a
    trial is a pure function of (config, trial index) and aggregation scans
    trials in index order with a deterministic cutoff, so the result is
    identical for every worker count, from 1 to the CPU count.
    """
    check_workers(workers)
    config.validate()
    rules = [(config.target_frame_errors, config.max_frames)] * len(config.sweep)
    return SimResult(config=config, points=_run_sweep(config, rules, workers))


_CSV_HEADER = (
    "x,frames,frame_errors,fer,fer_ci_lo,fer_ci_hi,"
    "bits,bit_errors,ber,ber_ci_lo,ber_ci_hi"
)


def _fmt(value) -> str:
    if isinstance(value, int):
        return str(value)
    return format(float(value), ".6g")


def fading_pairs(spec: FadingSpec) -> list[tuple[str, str]]:
    """The CSV header's (key, value) pairs for a fading spec, in order."""
    return [
        ("fading_model", spec.model.value),
        ("k_factor", format(spec.k_factor, ".10g")),
        ("max_doppler_hz", format(spec.max_doppler_hz, ".10g")),
        ("los_doppler_hz", format(spec.los_doppler_hz, ".10g")),
        ("los_phase_rad", format(spec.los_phase_rad, ".10g")),
        ("sample_rate_hz", format(spec.sample_rate_hz, ".10g")),
        ("num_sinusoids", str(spec.num_sinusoids)),
    ]


def _echo_pairs(config: SimConfig) -> list[tuple[str, str]]:
    ch = config.channel
    code = "none" if config.code is None else f"{config.code[0]}x{config.code[1]}"
    detector = "none" if config.detector is None else config.detector.value
    return [
        ("experiment", config.experiment.value),
        ("n_tx", str(ch.n_tx)),
        ("n_rx", str(ch.n_rx)),
        *fading_pairs(ch.fading),
        ("correlation", format(ch.correlation, ".10g")),
        ("path_gain_db", format(ch.path_gain_db, ".10g")),
        ("code", code),
        ("detector", detector),
        ("frame_bits", str(config.frame_bits)),
        ("snr_db", format(config.snr_db, ".10g")),
        ("sweep", ",".join(format(v, ".10g") for v in config.sweep)),
        ("max_frames", str(config.max_frames)),
        ("target_frame_errors", str(config.target_frame_errors)),
        ("master_seed", str(config.master_seed)),
    ]


def render_csv(pairs: list[tuple[str, str]], columns: str, rows) -> str:
    """CSV text: a `# key=value` line per header pair, the column line, then
    one line per row of values, ints exact and floats to six significant
    digits. Lines end with LF and the text ends with a newline, so equal
    inputs yield byte-identical files.
    """
    lines = [f"# {k}={v}" for k, v in pairs]
    lines.append(columns)
    lines += [",".join(_fmt(v) for v in row) for row in rows]
    return "\n".join(lines) + "\n"


def emit_csv(result: SimResult) -> str:
    """Render a result as CSV text (see render_csv).

    The header echoes the full configuration, result.config, including the
    seed; each data row is one sweep point, counts exact and rates to six
    digits.
    """
    rows = [
        (p.x, p.frames, p.frame_errors, p.fer, *p.ci95_fer,
         p.bits, p.bit_errors, p.ber, *p.ci95_ber)
        for p in result.points
    ]
    return render_csv(_echo_pairs(result.config), _CSV_HEADER, rows)
