"""Monte Carlo experiment engine.

An experiment is a sweep over one x-axis variable (path gain, Doppler,
sample rate, or SNR). Every sweep point simulates frames -- 120 information
bits each by default -- until it has seen target_frame_errors frame errors
or max_frames frames, whichever comes first.

Reproducibility is structural, not incidental. Each frame derives every
random quantity it needs from counter-based streams keyed by
(master_seed, experiment id, role, trial index), so frame outcomes are pure
functions of (config, trial_index). The engine may farm trials out to
worker processes in any arrangement; results are aggregated by scanning
outcomes in trial-index order and cutting off at the exact frame where the
error target is met, which makes the output bit-identical for any worker
count.

Trials run in chunks. run_wave simulates a chunk of trials as arrays: one
batch of channels, one per frame, through channel_init and apply_channel,
the path run_frame takes for its one channel; then one batched call each
for encoding, combining or detection, and demapping. Each trial still
draws its own streams from counter zero in the same order, so run_wave
equals run_frame, the single-trial reference, trial by trial. This module
alone derives stream ids: the channel and fading layers take uniforms. A
chunk holds as many trials as fit numerics.CHUNK_ELEMENTS (one 4x4 FER
frame, several smaller ones). The serial path runs one chunk at a
time and checks the error target after each; the process pool gets waves
of WAVE_FRAMES trials split evenly over its workers, and each worker runs
its span chunk by chunk.

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
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, replace
from fractions import Fraction

import numpy as np

from . import numerics
from .channel import MAX_ANTENNAS, ChannelSpec, apply_channel, channel_init, noise_variance, path_gain, receive
from .detect import (
    DetectionFailure,
    DetectorKind,
    ml_detect_batch,
    mmse_detect_batch,
    zf_detect_batch,
)
from .fading import FadingSpec, fading_draws
from .modem import QPSK_POINTS, bernoulli_bits, qpsk_demodulate, qpsk_modulate
from .numerics import MAX_TRIALS, PhiloxStreams, RngStream, complex_normal_from, pack_stream_id
from .stbc import combine_array, encode_array, ostbc_code

__all__ = [
    "Experiment",
    "SimConfig",
    "SweepPoint",
    "SimResult",
    "check_sweep",
    "run_frame",
    "run_wave",
    "run_experiment",
    "wilson_interval",
    "emit_csv",
    "parse_csv",
    "fading_pairs",
    "render_csv",
]


class Experiment(enum.Enum):
    FER_VS_GAIN = "fer_vs_gain"
    FER_VS_DOPPLER = "fer_vs_doppler"
    FER_VS_SAMPLE_RATE = "fer_vs_sample_rate"
    BER_VS_SNR = "ber_vs_snr"


# The stream-id layout, in one table: the experiment and role fields that
# numerics.pack_stream_id packs with a trial index into the id of every
# random stream. Experiments are keyed by the name the CSV header echoes.
# Fading link i of a frame's channel (row-major, i < MAX_LINKS) draws its
# channel_init uniforms from role ROLE_FADING + i, so ROLE_IID_CHANNEL sits
# above the last link. validate-fading has a single stream; its experiment
# field keeps it apart from every frame's. No other module derives ids.
VALIDATE_FADING = "validate_fading"
EXPERIMENT_IDS = {
    Experiment.FER_VS_GAIN.value: 0,
    Experiment.FER_VS_DOPPLER.value: 1,
    Experiment.FER_VS_SAMPLE_RATE.value: 2,
    Experiment.BER_VS_SNR.value: 3,
    VALIDATE_FADING: 4,
}
MAX_LINKS = MAX_ANTENNAS * MAX_ANTENNAS
ROLE_BITS = 0
ROLE_NOISE = 1
ROLE_FADING = 2
ROLE_IID_CHANNEL = ROLE_FADING + MAX_LINKS
VALIDATE_FADING_STREAM = pack_stream_id(EXPERIMENT_IDS[VALIDATE_FADING], 0, 0)

# Trials handed to the worker pool per scheduling wave, split evenly over
# the workers. Any value gives identical results; it only trades frames
# simulated past the stopping cut against dispatch overhead. The serial
# path instead runs one run_wave chunk at a time (see chunk_trials), so it
# stops within a chunk of the cut.
WAVE_FRAMES = 1024

# Float64 elements (128 MiB) of scratch that one trial may need, by
# trial_elements. A chunk holds at least one trial, so this bounds the
# memory of every configuration that SimConfig.validate accepts.
MAX_TRIAL_ELEMENTS = 1 << 24

# 95% two-sided normal quantile, frozen so CSV output never shifts with
# library updates.
Z95 = 1.959963984540054


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
    """Return sweep if it is a non-empty, strictly increasing run of finite
    values; raise ValueError otherwise."""
    if len(sweep) == 0:
        raise ValueError("sweep must not be empty")
    if any(not math.isfinite(v) for v in sweep):
        raise ValueError("sweep values must be finite")
    if any(b <= a for a, b in zip(sweep, sweep[1:])):
        raise ValueError("sweep must be strictly increasing")
    return sweep


def _point_config(config: SimConfig, x: float) -> SimConfig:
    """Resolve a sweep point into a concrete single-point config."""
    ch, exp = config.channel, config.experiment
    if exp is Experiment.FER_VS_GAIN:
        ch = replace(ch, path_gain_db=x)
    elif exp is Experiment.FER_VS_DOPPLER:
        ch = replace(ch, fading=replace(ch.fading, max_doppler_hz=x))
    elif exp is Experiment.FER_VS_SAMPLE_RATE:
        ch = replace(ch, fading=replace(ch.fading, sample_rate_hz=x))
    else:  # Experiment.BER_VS_SNR
        config = replace(config, snr_db=x)
    ch.validate()
    return replace(config, channel=ch)


def run_frame(config: SimConfig, trial_index: int) -> tuple[bool, int, int]:
    """Simulate one frame end to end.

    Returns (frame_error, bit_errors, bits). Deterministic in
    (config, trial_index): all randomness comes from streams keyed by the
    master seed, the experiment id, a fixed role tag, and the trial index.
    A detection failure (singular channel under ZF) wipes the frame: every
    bit counts as errored.
    """
    exp_id = EXPERIMENT_IDS[config.experiment.value]
    seed = config.master_seed

    def stream(role: int) -> RngStream:
        return RngStream(seed, pack_stream_id(exp_id, role, trial_index))

    bits = bernoulli_bits(stream(ROLE_BITS).uniform(config.frame_bits))
    syms = qpsk_modulate(bits)
    ch = config.channel
    n_tx, n_rx = ch.n_tx, ch.n_rx

    if config.experiment is Experiment.BER_VS_SNR:
        x = syms.reshape(-1, n_tx) / math.sqrt(n_tx)
        h = path_gain(ch) * stream(ROLE_IID_CHANNEL).complex_normal((len(x), n_rx, n_tx))
        noise_var = noise_variance(config.snr_db)
        y = receive(h, x, noise_var, stream(ROLE_NOISE).uniform)
        try:
            decided = _detect(config, h, y, noise_var)
        except DetectionFailure:
            return True, config.frame_bits, config.frame_bits
        bits_hat = qpsk_demodulate(decided.ravel())
    else:
        code = ostbc_code(*config.code)
        x = encode_array(code, syms.reshape(-1, code.n_symbols)).reshape(-1, n_tx)
        u = np.stack([stream(ROLE_FADING + i).uniform(fading_draws(ch.fading)) for i in range(n_rx * n_tx)])
        y, h = apply_channel(channel_init(ch, u), x, config.snr_db, stream(ROLE_NOISE).uniform)
        t_len = code.block_len
        s_hat = combine_array(code, y.reshape(-1, t_len, n_rx), h[::t_len])
        bits_hat = qpsk_demodulate(s_hat.ravel())

    bit_errors = int(np.count_nonzero(bits_hat != bits))
    return bit_errors > 0, bit_errors, config.frame_bits


def _detect(config: SimConfig, h: np.ndarray, y: np.ndarray, noise_var: float) -> np.ndarray:
    if config.detector is DetectorKind.ZF:
        return zf_detect_batch(h, y, QPSK_POINTS)
    if config.detector is DetectorKind.MMSE:
        return mmse_detect_batch(h, y, QPSK_POINTS, noise_var)
    return ml_detect_batch(h, y, QPSK_POINTS)


def trial_elements(config: SimConfig) -> int:
    """A trial's share of a run_wave chunk's peak of live float64 elements,
    as tracemalloc measures it: about 1.5 times the (links, samples, M)
    cosine scratch of the FER chain; about 10 per complex channel entry
    under ZF and MMSE; about 5 per complex (vector, hypothesis, n_rx)
    candidate under ML. chunk_trials sizes chunks by it, and
    SimConfig.validate bounds it by MAX_TRIAL_ELEMENTS.
    """
    ch = config.channel
    n_symbols = config.frame_bits // 2
    if config.experiment is Experiment.BER_VS_SNR:
        n_vec = n_symbols // ch.n_tx
        if config.detector is DetectorKind.ML:
            return 5 * n_vec * len(QPSK_POINTS) ** ch.n_tx * ch.n_rx
        return 10 * n_vec * ch.n_rx * ch.n_tx
    code = ostbc_code(*config.code)
    rows = n_symbols // code.n_symbols * code.block_len
    return 3 * ch.n_rx * ch.n_tx * rows * ch.fading.num_sinusoids // 2


def chunk_trials(config: SimConfig) -> int:
    """Trials that one run_wave chunk batches: as many as fit
    numerics.CHUNK_ELEMENTS by trial_elements, and at least one."""
    return max(1, numerics.CHUNK_ELEMENTS // trial_elements(config))


def run_wave(config: SimConfig, start: int, stop: int) -> list[tuple[bool, int, int]]:
    """Outcomes of trials [start, stop), in index order, simulated in batches.

    Equal to [run_frame(config, t) for t in range(start, stop)]: every
    trial draws the same uniforms from the same (seed, stream id) streams
    in the same order, and every step applies the same floating-point
    operations to them, only over chunk_trials(config) trials at a time.
    A ZF detection failure still wipes only the frame it occurs in.
    """
    streams = PhiloxStreams(config.master_seed)
    step = chunk_trials(config)
    out: list[tuple[bool, int, int]] = []
    for a in range(start, stop, step):
        out.extend(_run_chunk(config, streams, range(a, min(a + step, stop))))
    return out


def _run_chunk(config: SimConfig, streams: PhiloxStreams, trials: range) -> list[tuple[bool, int, int]]:
    exp_id = EXPERIMENT_IDS[config.experiment.value]
    ch = config.channel
    f = len(trials)

    def uniforms(role: int, per_trial: int, links: int = 1) -> np.ndarray:
        # Row i * links + j holds the start of stream (role + j, trials[i]).
        u = np.empty((f, links, per_trial))
        for i, trial in enumerate(trials):
            for j in range(links):
                streams.uniform(pack_stream_id(exp_id, role + j, trial), u[i, j])
        return u.reshape(f * links, per_trial)

    def noise(n: int) -> np.ndarray:
        return uniforms(ROLE_NOISE, n // f)

    bits = bernoulli_bits(uniforms(ROLE_BITS, config.frame_bits))
    syms = qpsk_modulate(bits.ravel())
    n_rx, n_tx = ch.n_rx, ch.n_tx
    failed = np.zeros(f, dtype=bool)

    if config.experiment is Experiment.BER_VS_SNR:
        x = syms.reshape(-1, n_tx) / math.sqrt(n_tx)
        n_vec = len(x) // f
        h = complex_normal_from(uniforms(ROLE_IID_CHANNEL, 2 * n_vec * n_rx * n_tx), 1.0)
        h = path_gain(ch) * h.reshape(-1, n_rx, n_tx)
        noise_var = noise_variance(config.snr_db)
        y = receive(h, x, noise_var, noise)
        try:
            decided = _detect(config, h, y, noise_var)
        except DetectionFailure:
            # Some frame's channel is singular: detect frame by frame, as
            # run_frame does, so that only the failing frames are wiped.
            decided = np.zeros_like(x)
            for i in range(f):
                rows = slice(i * n_vec, (i + 1) * n_vec)
                try:
                    decided[rows] = _detect(config, h[rows], y[rows], noise_var)
                except DetectionFailure:
                    failed[i] = True
        bits_hat = qpsk_demodulate(decided.ravel())
    else:
        code = ostbc_code(*config.code)
        x = encode_array(code, syms.reshape(-1, code.n_symbols)).reshape(f, -1, n_tx)
        u = uniforms(ROLE_FADING, fading_draws(ch.fading), n_rx * n_tx).reshape(f, n_rx * n_tx, -1)
        y, h = apply_channel(channel_init(ch, u), x, config.snr_db, noise)
        t_len = code.block_len
        s_hat = combine_array(code, y.reshape(-1, t_len, n_rx), h.reshape(-1, n_rx, n_tx)[::t_len])
        bits_hat = qpsk_demodulate(s_hat.ravel())

    errors = np.count_nonzero(bits_hat.reshape(f, -1) != bits, axis=1)
    errors[failed] = config.frame_bits
    return [(bool(e > 0), int(e), config.frame_bits) for e in errors]


def _simulate_range(config: SimConfig, start: int, stop: int) -> list[tuple[bool, int, int]]:
    """Worker body: outcomes for trials [start, stop), in index order."""
    return run_wave(config, start, stop)


@dataclass(frozen=True)
class SweepPoint:
    """Aggregated counts and rates at one x value."""

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


def _split_range(start: int, stop: int, parts: int) -> list[tuple[int, int]]:
    """[start, stop) in at most `parts` non-empty spans, the first ones one longer."""
    base, extra = divmod(stop - start, parts)
    bounds = [start + i * base + min(i, extra) for i in range(parts + 1)]
    return [(a, b) for a, b in zip(bounds, bounds[1:]) if b > a]


def _trial_outcomes(config: SimConfig, pool: ProcessPoolExecutor | None, workers: int):
    """Outcomes of trials 0, 1, ... of a point config, in index order, simulated
    a wave at a time (see WAVE_FRAMES) and only as the consumer asks for them."""
    wave = WAVE_FRAMES if pool is not None else chunk_trials(config)
    for start in range(0, config.max_frames, wave):
        stop = min(start + wave, config.max_frames)
        if pool is None or stop - start < 2 * workers:
            yield from _simulate_range(config, start, stop)
        else:
            starts, stops = zip(*_split_range(start, stop, workers))
            # Wait for the whole wave, so that no task outlives the cut.
            for part in list(pool.map(_simulate_range, [config] * len(starts), starts, stops)):
                yield from part


def _run_point(config: SimConfig, x: float, pool: ProcessPoolExecutor | None, workers: int) -> SweepPoint:
    """Fold one sweep point's outcomes in trial order, up to and including
    the trial that meets the error target."""
    pc = _point_config(config, x)
    t0 = time.perf_counter()
    frames = frame_errors = bits = bit_errors = 0
    for fe, be, nb in _trial_outcomes(pc, pool, workers):
        frames += 1
        frame_errors += int(fe)
        bit_errors += be
        bits += nb
        if frame_errors >= pc.target_frame_errors:
            break
    return SweepPoint(
        x=x,
        frames=frames,
        frame_errors=frame_errors,
        bits=bits,
        bit_errors=bit_errors,
        fer=frame_errors / frames,
        ber=bit_errors / bits,
        ci95_fer=wilson_interval(frame_errors, frames),
        ci95_ber=wilson_interval(bit_errors, bits),
        elapsed_s=time.perf_counter() - t0,
    )


def run_experiment(config: SimConfig, workers: int = 1) -> SimResult:
    """Run every sweep point and aggregate counts, rates, and intervals.

    workers > 1 distributes trials over a process pool. The outcome of a
    trial is a pure function of (config, trial index) and aggregation scans
    trials in index order with a deterministic cutoff, so the result is
    identical for every worker count.
    """
    if workers < 1:
        raise ValueError("workers must be at least 1")
    config.validate()
    pool = ProcessPoolExecutor(max_workers=workers) if workers > 1 else contextlib.nullcontext()
    with pool as executor:
        points = [_run_point(config, x, executor, workers) for x in config.sweep]
    return SimResult(config=config, points=points)


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


def emit_csv(result: SimResult, config: SimConfig) -> str:
    """Render a result as CSV text (see render_csv).

    The header echoes the full configuration, including the seed; each data
    row is one sweep point, counts exact and rates to six digits.
    """
    rows = [
        (p.x, p.frames, p.frame_errors, p.fer, *p.ci95_fer,
         p.bits, p.bit_errors, p.ber, *p.ci95_ber)
        for p in result.points
    ]
    return render_csv(_echo_pairs(config), _CSV_HEADER, rows)


def parse_csv(text: str) -> tuple[dict[str, str], list[dict[str, float]]]:
    """Parse emit_csv output back into (config echo, data rows).

    Count columns come back as ints, rates as floats; the echo stays as raw
    strings. Inverse of emit_csv up to float formatting.
    """
    meta: dict[str, str] = {}
    rows: list[dict[str, float]] = []
    header: list[str] | None = None
    int_cols = {"frames", "frame_errors", "bits", "bit_errors"}
    for line in filter(None, text.splitlines()):
        if line.startswith("# "):
            key, _, value = line[2:].partition("=")
            meta[key] = value
        elif header is None:
            header = line.split(",")
        else:
            values = zip(header, line.split(","))
            rows.append({name: int(raw) if name in int_cols else float(raw) for name, raw in values})
    return meta, rows
