"""Tests for the experiment engine: Wilson intervals, stopping rule,
worker-count invariance, frame simulation, and the CSV round trip."""

import math
import os
import tracemalloc
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest

from mimolink import numerics, sim
from mimolink.channel import MAX_ANTENNAS, ChannelSpec
from mimolink.detect import DetectorKind
from mimolink.fading import FadingModel, FadingSpec
from mimolink.numerics import MAX_TRIALS, RngStream, pack_stream_id
from mimolink.sim import (
    Experiment,
    SimConfig,
    Z95,
    _point_config,
    chunk_trials,
    emit_csv,
    run_experiment,
    run_frame,
    wilson_interval,
)
from _support import complex_normal, parse_csv

GOLDEN_FER_CSV = (
    "# experiment=fer_vs_gain\n# n_tx=4\n# n_rx=2\n# fading_model=rayleigh\n"
    "# k_factor=0\n# max_doppler_hz=100\n# los_doppler_hz=0\n# los_phase_rad=0\n"
    "# sample_rate_hz=1000000\n# num_sinusoids=32\n# correlation=0\n"
    "# path_gain_db=0\n# code=4x3/4\n# detector=none\n# frame_bits=12\n"
    "# snr_db=10\n# sweep=-10,-8\n# max_frames=40\n# target_frame_errors=5\n"
    "# master_seed=7\n"
    "x,frames,frame_errors,fer,fer_ci_lo,fer_ci_hi,bits,bit_errors,ber,ber_ci_lo,ber_ci_hi\n"
    "-10,6,5,0.833333,0.436497,0.969947,72,6,0.0833333,0.0387524,0.170124\n"
    "-8,12,5,0.416667,0.19326,0.680489,144,5,0.0347222,0.0149207,0.0787029\n"
)

GOLDEN_BER_CSV = (
    "# experiment=ber_vs_snr\n# n_tx=4\n# n_rx=4\n# fading_model=rayleigh\n"
    "# k_factor=0\n# max_doppler_hz=100\n# los_doppler_hz=0\n# los_phase_rad=0\n"
    "# sample_rate_hz=1000000\n# num_sinusoids=32\n# correlation=0\n"
    "# path_gain_db=0\n# code=none\n# detector=ml\n# frame_bits=16\n"
    "# snr_db=10\n# sweep=0,5\n# max_frames=30\n# target_frame_errors=5\n"
    "# master_seed=7\n"
    "x,frames,frame_errors,fer,fer_ci_lo,fer_ci_hi,bits,bit_errors,ber,ber_ci_lo,ber_ci_hi\n"
    "0,5,5,1,0.565518,1,80,21,0.2625,0.178574,0.36819\n"
    "5,6,5,0.833333,0.436497,0.969947,96,10,0.104167,0.0575715,0.181222\n"
)


def _fer_config(**overrides) -> SimConfig:
    base = dict(
        experiment=Experiment.FER_VS_GAIN,
        channel=ChannelSpec(n_tx=4, n_rx=2),
        code=(4, Fraction(3, 4)),
        frame_bits=12,
        snr_db=10.0,
        sweep=(-10.0, -8.0),
        max_frames=40,
        target_frame_errors=5,
        master_seed=7,
    )
    base.update(overrides)
    return SimConfig(**base)


def _ber_config(**overrides) -> SimConfig:
    base = dict(
        experiment=Experiment.BER_VS_SNR,
        channel=ChannelSpec(n_tx=4, n_rx=4),
        code=None,
        detector=DetectorKind.ML,
        frame_bits=16,
        sweep=(0.0, 5.0),
        max_frames=30,
        target_frame_errors=5,
        master_seed=7,
    )
    base.update(overrides)
    return SimConfig(**base)


def test_wilson_boundaries_exact():
    lo, hi = wilson_interval(0, 50)
    assert lo == 0.0 and 0.0 < hi < 0.2
    lo, hi = wilson_interval(50, 50)
    assert hi == 1.0 and 0.8 < lo < 1.0


def test_wilson_matches_closed_form():
    for n in (1, 10, 100, 5000):
        for e in sorted({0, 1, n // 3, n // 2, n - 1, n}):
            if e < 0 or e > n:
                continue
            lo, hi = wilson_interval(e, n)
            p = e / n
            denom = 1.0 + Z95**2 / n
            center = (p + Z95**2 / (2 * n)) / denom
            hw = Z95 * math.sqrt(p * (1 - p) / n + Z95**2 / (4 * n * n)) / denom
            assert lo == pytest.approx(max(center - hw, 0.0), abs=1e-12)
            assert hi == pytest.approx(min(center + hw, 1.0), abs=1e-12)
            assert 0.0 <= lo <= p <= hi <= 1.0


def test_wilson_coverage_by_binomial_enumeration():
    """At n = 100 the interval should cover the truth ~95% of the time."""
    n = 100
    for p in (0.1, 0.3, 0.5):
        coverage = 0.0
        for e in range(n + 1):
            lo, hi = wilson_interval(e, n)
            if lo <= p <= hi:
                coverage += math.comb(n, e) * p**e * (1 - p) ** (n - e)
        assert 0.92 <= coverage <= 0.99


def test_wilson_rejects_bad_counts():
    with pytest.raises(ValueError):
        wilson_interval(5, 0)
    with pytest.raises(ValueError):
        wilson_interval(6, 5)
    with pytest.raises(ValueError):
        wilson_interval(-1, 5)


def test_config_validation_errors():
    with pytest.raises(ValueError):
        _fer_config(frame_bits=13).validate()  # odd
    with pytest.raises(ValueError):
        _fer_config(sweep=()).validate()
    with pytest.raises(ValueError):
        _fer_config(sweep=(-8.0, -10.0)).validate()  # not increasing
    with pytest.raises(ValueError):
        _fer_config(sweep=(-10.0, -10.0)).validate()  # not strict
    with pytest.raises(ValueError):
        _ber_config(detector=None).validate()
    with pytest.raises(ValueError):
        _ber_config(detector=DetectorKind.ZF, channel=ChannelSpec(n_tx=4, n_rx=2)).validate()
    with pytest.raises(ValueError):
        _fer_config(code=None).validate()
    with pytest.raises(ValueError):
        _fer_config(channel=ChannelSpec(n_tx=2, n_rx=2)).validate()  # code mismatch
    with pytest.raises(ValueError):
        _fer_config(frame_bits=8).validate()  # 4 symbols, block is 3
    with pytest.raises(ValueError):
        _ber_config(frame_bits=12).validate()  # 6 symbols over 4 antennas
    with pytest.raises(ValueError):
        _fer_config(max_frames=0).validate()
    _fer_config(max_frames=2**32).validate()  # trials 0 .. 2**32 - 1
    with pytest.raises(ValueError, match="max_frames"):
        _fer_config(max_frames=2**32 + 1).validate()  # trial 2**32 has no stream id
    with pytest.raises(ValueError):
        _fer_config(target_frame_errors=0).validate()
    with pytest.raises(ValueError):
        _fer_config(master_seed=1 << 64).validate()
    # Only +inf means noiseless; the SNR of every point config must give a
    # finite, positive noise variance.
    _fer_config(snr_db=math.inf).validate()
    for snr_db in (-math.inf, math.nan, -4000.0, 4000.0):
        with pytest.raises(ValueError, match="snr_db"):
            _fer_config(snr_db=snr_db).validate()
    for sweep in ((-4000.0, 0.0), (0.0, 4000.0)):
        with pytest.raises(ValueError, match="snr_db"):
            _ber_config(sweep=sweep).validate()
    # ML tolerates fewer receive than transmit antennas
    _ber_config(detector=DetectorKind.ML, channel=ChannelSpec(n_tx=4, n_rx=2)).validate()


def test_config_validation_bounds_trial_memory():
    """A trial whose arrays exceed MAX_TRIAL_ELEMENTS is a configuration
    error. Only validate() runs here, so a missing bound fails the test
    without allocating anything."""
    # 4x3/4 over 4x4 links with M = 32: 120 bits are 60 symbols and 80
    # rows. 16 links of 1 + 2 * 32 uniforms and 3 * 32 angles, 80 rows of
    # 6 * 16 channel, 4 * 4 receive and 2 * 4 transmit elements, and 10 per
    # symbol. The largest frame that validates, a multiple of 6 bits, has
    # 131,564 rows.
    fer = _fer_config(channel=ChannelSpec(n_tx=4, n_rx=4))
    assert sim.trial_elements(replace(fer, frame_bits=120)) == 16 * 161 + 80 * 120 + 10 * 60
    largest = 197_346
    replace(fer, frame_bits=largest).validate()
    with pytest.raises(ValueError, match="MAX_TRIAL_ELEMENTS"):
        replace(fer, frame_bits=largest + 6).validate()
    with pytest.raises(ValueError, match="MAX_TRIAL_ELEMENTS"):
        _fer_config(channel=ChannelSpec(n_tx=2, n_rx=1), code=(2, Fraction(1)), frame_bits=2_000_000_000).validate()
    # num_sinusoids is capped by the fading spec, and M counts against the
    # trial bound: at M = 65,536 each of the 16 links holds 5M + 1
    # elements, and the largest frame shrinks to 135,696 bits.
    big_m = ChannelSpec(fading=FadingSpec(num_sinusoids=numerics.CHUNK_ELEMENTS))
    replace(fer, channel=big_m, frame_bits=135_696).validate()
    for frame_bits in (135_702, largest):
        with pytest.raises(ValueError, match="MAX_TRIAL_ELEMENTS"):
            replace(fer, channel=big_m, frame_bits=frame_bits).validate()
    for detector in DetectorKind:
        ber = _ber_config(detector=detector, frame_bits=120)
        ber.validate()
        with pytest.raises(ValueError, match="MAX_TRIAL_ELEMENTS"):
            replace(ber, frame_bits=2_000_000_000).validate()
    # Uncoded 4x4 charges a vector of 8 bits 6 * 16 + 4 * 4 + 2 * 4
    # elements, 14 per symbol and the prepared channels that every point
    # reuses: H^H and the Gram matrix under ZF and MMSE, 2 * 16 + 2 * 16
    # (240 in all), and under ML the 16 head and 16 tail images of 2 * 4
    # elements and the 16 tail norms (448 in all); ML tiles its search's
    # scratch itself. The largest frames that validate have 69,905 and
    # 37,449 vectors.
    for detector, vector, largest in (
        (DetectorKind.ZF, 240, 559_240), (DetectorKind.MMSE, 240, 559_240), (DetectorKind.ML, 448, 299_592),
    ):
        ber = _ber_config(detector=detector)
        assert sim.trial_elements(replace(ber, frame_bits=120)) == 15 * vector
        replace(ber, frame_bits=largest).validate()
        with pytest.raises(ValueError, match="MAX_TRIAL_ELEMENTS"):
            replace(ber, frame_bits=largest + 8).validate()
    # chunk_trials reads the same count against the chunk budget: 12 bits
    # are 8 rows.
    budget = sim.CHUNK_BUDGETS * numerics.CHUNK_ELEMENTS
    assert chunk_trials(_point_config(fer, -5.0)) == budget // (16 * 161 + 8 * 120 + 10 * 6)


# The FER shapes of the benchmark workloads, with correlated links, so
# that the mixing kernel's scratch is measured: a 4x4 4x3/4 frame at
# correlation low, and a 2x2 Alamouti frame over Rician links at high.
_FER_4X4_LOW = _point_config(_fer_config(
    channel=ChannelSpec(n_tx=4, n_rx=4, correlation=0.1), frame_bits=120,
), -5.0)
_FER_2X2_RICIAN_HIGH = _point_config(_fer_config(
    experiment=Experiment.FER_VS_DOPPLER, code=(2, Fraction(1)), frame_bits=120,
    channel=ChannelSpec(n_tx=2, n_rx=2, correlation=0.9, path_gain_db=-5.0, fading=FadingSpec(
        model=FadingModel.RICIAN, k_factor=4.0, los_doppler_hz=100.0)),
), 50.0)


def test_benchmark_fer_chunk_sizes():
    """The chunk budget, 2**18 elements, over a trial's: 12,776 for the
    4x4 frame and 3,404 for the 2x2 one."""
    assert sim.CHUNK_BUDGETS * numerics.CHUNK_ELEMENTS == 1 << 18
    assert [sim.trial_elements(c) for c in (_FER_4X4_LOW, _FER_2X2_RICIAN_HIGH)] == [12_776, 3_404]
    assert chunk_trials(_FER_4X4_LOW) == 20
    assert chunk_trials(_FER_2X2_RICIAN_HIGH) == 77


def test_benchmark_ber_chunk_sizes():
    """The legs of the uncoded 4x4 benchmark: 120-bit frames of 15 vectors,
    whose prepared channels the chunk holds through every SNR point, 3,600
    elements a trial under ZF and MMSE and 6,720 under ML, in a chunk
    budget of 2**18."""
    for detector, trials in ((DetectorKind.ZF, 72), (DetectorKind.MMSE, 72), (DetectorKind.ML, 39)):
        assert chunk_trials(_point_config(_ber_config(detector=detector, frame_bits=120), 10.0)) == trials


# Three values of each experiment's swept quantity.
_SWEEPS = {
    Experiment.FER_VS_GAIN: (-7.0, -5.0, -3.0),
    Experiment.FER_VS_DOPPLER: (25.0, 50.0, 100.0),
    Experiment.FER_VS_SAMPLE_RATE: (1e5, 2e5, 1e6),
    Experiment.BER_VS_SNR: (5.0, 10.0, 15.0),
}


def _sweep_points(cfg: SimConfig) -> list[SimConfig]:
    """The point configs of a three-point sweep around cfg."""
    return [_point_config(cfg, x) for x in _SWEEPS[cfg.experiment]]


@pytest.mark.parametrize("cfg", [
    _point_config(_fer_config(channel=ChannelSpec(n_tx=4, n_rx=4), frame_bits=120), -5.0),
    _point_config(_fer_config(
        experiment=Experiment.FER_VS_DOPPLER, code=(2, Fraction(1)), frame_bits=120,
        channel=ChannelSpec(n_tx=2, n_rx=1, fading=FadingSpec(
            model=FadingModel.RICIAN, k_factor=4.0, los_doppler_hz=100.0)),
    ), 50.0),
    # At fs = 10 kHz and 1 kHz a frame spans three of the fading kernel's
    # rotation blocks, whose tables each link holds.
    _point_config(_fer_config(
        channel=ChannelSpec(n_tx=4, n_rx=4, fading=FadingSpec(sample_rate_hz=1e4)), frame_bits=120,
    ), -5.0),
    _point_config(_fer_config(
        channel=ChannelSpec(n_tx=4, n_rx=4, fading=FadingSpec(sample_rate_hz=1e3)), frame_bits=120,
    ), -5.0),
    _FER_4X4_LOW,
    _FER_2X2_RICIAN_HIGH,
    # A gain sweep runs its two combines, of the noise-free rows and of
    # the noise, back to back and holds both through every point, which
    # outweighs the channel at one receive antenna and long frames.
    _point_config(_fer_config(
        code=(2, Fraction(1)), channel=ChannelSpec(n_tx=2, n_rx=1, correlation=0.5), frame_bits=1200,
    ), -5.0),
    _point_config(_ber_config(detector=DetectorKind.ZF, frame_bits=120), 10.0),
    _point_config(_ber_config(detector=DetectorKind.MMSE, frame_bits=120), 10.0),
    # The linear detectors at small antenna counts, where the decisions
    # and the solve's scratch outweigh the channel, and at long frames.
    *[
        _point_config(_ber_config(detector=detector, channel=ChannelSpec(n_tx=1, n_rx=n_rx), frame_bits=120), 10.0)
        for detector in (DetectorKind.ZF, DetectorKind.MMSE)
        for n_rx in (1, 4)
    ],
    _point_config(_ber_config(detector=DetectorKind.ZF, channel=ChannelSpec(n_tx=1, n_rx=1), frame_bits=480), 10.0),
    _point_config(_ber_config(detector=DetectorKind.MMSE, channel=ChannelSpec(n_tx=2, n_rx=2), frame_bits=480), 10.0),
    _point_config(_ber_config(detector=DetectorKind.ML, frame_bits=120), 10.0),
    # ML with an odd split and fewer receive than transmit antennas, and
    # with one transmit antenna, where the residuals outweigh the distances.
    _point_config(_ber_config(detector=DetectorKind.ML, channel=ChannelSpec(n_tx=3, n_rx=2), frame_bits=120), 10.0),
    _point_config(_ber_config(detector=DetectorKind.ML, channel=ChannelSpec(n_tx=1, n_rx=4), frame_bits=120), 10.0),
], ids=[
    "fer-4x4-4x3/4", "fer-2x1-rician", "fer-4x4-10khz", "fer-4x4-1khz", "fer-4x4-low", "fer-2x2-rician-high",
    "fer-2x1-gain-1200",
    "ber-zf", "ber-mmse", "ber-zf-1x1", "ber-zf-1x4", "ber-mmse-1x1", "ber-mmse-1x4",
    "ber-zf-1x1-480", "ber-mmse-2x2-480",
    "ber-ml", "ber-ml-3x2", "ber-ml-1x4",
])
def test_trial_elements_bounds_a_measured_chunk(cfg, monkeypatch):
    """The memory model is an upper bound on what a chunk of three sweep
    points allocates: the tracemalloc peak of one _run_chunk stays within
    chunk_trials * trial_elements float64 elements of arrays plus one
    kernel call's numerics.CHUNK_ELEMENTS of scratch, and in chunks of 4
    and 8 times as many trials, where the arrays dominate, the peak grows
    by at most trial_elements a trial. The arrays of the chunk that runs,
    chunk_trials trials, fit trial_elements a trial by themselves: measured
    with a one-element budget, which shrinks the fading and ML kernels'
    tiles to one sample or vector, and so their scratch to next to
    nothing. Every one of these shapes, the low-rate FER frames included,
    batches at least two trials."""
    points = _sweep_points(cfg)
    streams = sim.PhiloxStreams(cfg.master_seed).uniform
    step = chunk_trials(cfg)
    assert step >= 2
    sim._run_chunk(points, streams, range(step))  # fills the per-process caches

    def peak(trials: int) -> int:
        tracemalloc.start()
        try:
            sim._run_chunk(points, streams, range(step, step + trials))
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    assert peak(step) <= 8 * (step * sim.trial_elements(cfg) + numerics.CHUNK_ELEMENTS)
    assert peak(8 * step) - peak(4 * step) <= 8 * 4 * step * sim.trial_elements(cfg)
    monkeypatch.setattr(numerics, "CHUNK_ELEMENTS", 1)
    assert peak(step) <= 8 * step * sim.trial_elements(cfg)


def test_stream_ids_never_collide(monkeypatch):
    """Every stream id the engine and validate-fading draw from is distinct:
    each experiment's frame roles, every fading link of the largest
    channel, at the first and the last trial a stream id can index."""
    assert set(sim.EXPERIMENT_IDS) == {e.value for e in Experiment} | {sim.VALIDATE_FADING}
    # The largest channel that validates has MAX_LINKS links.
    ChannelSpec(n_tx=MAX_ANTENNAS, n_rx=MAX_ANTENNAS).validate()
    for n_tx, n_rx in ((MAX_ANTENNAS + 1, 1), (1, MAX_ANTENNAS + 1)):
        with pytest.raises(ValueError):
            ChannelSpec(n_tx=n_tx, n_rx=n_rx).validate()
    roles = [sim.ROLE_BITS, sim.ROLE_NOISE, sim.ROLE_IID_CHANNEL]
    roles += [sim.ROLE_FADING + link for link in range(sim.MAX_LINKS)]
    ids = [sim.VALIDATE_FADING_STREAM]
    for experiment in Experiment:
        exp_id = sim.EXPERIMENT_IDS[experiment.value]
        for trial in (0, 1, MAX_TRIALS - 1):
            ids += [pack_stream_id(exp_id, role, trial) for role in roles]
    assert len(set(ids)) == len(ids)

    # A frame over the largest channel draws from exactly its frame roles:
    # link i of the channel from ROLE_FADING + i.
    drawn = []

    def recording(seed, stream_id):
        drawn.append(stream_id)
        return RngStream(seed, stream_id)

    monkeypatch.setattr(sim, "RngStream", recording)
    cfg = _fer_config(channel=ChannelSpec(n_tx=MAX_ANTENNAS, n_rx=MAX_ANTENNAS))
    run_frame(cfg, MAX_TRIALS - 1)
    exp_id = sim.EXPERIMENT_IDS[cfg.experiment.value]
    frame_roles = [sim.ROLE_BITS, sim.ROLE_NOISE] + [sim.ROLE_FADING + link for link in range(sim.MAX_LINKS)]
    assert sorted(drawn) == sorted(pack_stream_id(exp_id, role, MAX_TRIALS - 1) for role in frame_roles)

    # A _simulate_wave chunk of several 4x4 FER trials draws exactly each
    # trial's bits, noise and 16 link streams, once each.
    drawn.clear()

    class RecordingStreams(numerics.PhiloxStreams):
        def uniform(self, stream_id, out):
            drawn.append(stream_id)
            return super().uniform(stream_id, out)

    monkeypatch.setattr(sim, "PhiloxStreams", RecordingStreams)
    cfg = _fer_config(channel=ChannelSpec(n_tx=4, n_rx=4))
    trials = range(MAX_TRIALS - 4, MAX_TRIALS)
    assert chunk_trials(cfg) >= len(trials)
    sim._simulate_wave([cfg], trials.start, trials.stop)[0]
    frame_roles = [sim.ROLE_BITS, sim.ROLE_NOISE] + [sim.ROLE_FADING + link for link in range(16)]
    assert sorted(drawn) == sorted(pack_stream_id(exp_id, role, t) for t in trials for role in frame_roles)


def _draw_order_cases():
    doppler = SimConfig(
        experiment=Experiment.FER_VS_DOPPLER, channel=ChannelSpec(n_tx=4, n_rx=4),
        code=(4, Fraction(3, 4)), sweep=(50.0,), master_seed=3,
    )
    bits, noise, fading = sim.ROLE_BITS, sim.ROLE_NOISE, sim.ROLE_FADING
    return [
        (_point_config(doppler, 50.0), range(6, 8), [(bits, 1), (fading, 16), (noise, 1)]),
        (_point_config(_fer_config(), -8.0), range(3, 9), [(bits, 1), (fading, 8), (noise, 1)]),
        (_point_config(_ber_config(detector=DetectorKind.ZF), 5.0), range(2, 7),
         [(bits, 1), (sim.ROLE_IID_CHANNEL, 1), (noise, 1)]),
    ]


@pytest.mark.parametrize("cfg, trials, roles", _draw_order_cases(), ids=["doppler-4x4", "gain", "ber-zf"])
def test_run_chunk_draw_order(cfg, trials, roles):
    """_run_chunk asks for its streams role by role, in call order, and
    within a role trial-major: (role + j, t) for each trial t, then each
    of the role's links j. A chunk whose last trial is past the stream
    ids' trial field raises before its first draw."""
    exp_id = cfg.experiment.exp_id
    streams = numerics.PhiloxStreams(cfg.master_seed)
    drawn = []

    def draw(stream_id, out):
        drawn.append(stream_id)
        streams.uniform(stream_id, out)

    counts = sim._run_chunk([cfg], draw, trials)[0]
    expected = [pack_stream_id(exp_id, role + j, t) for role, links in roles for t in trials for j in range(links)]
    assert drawn == expected
    assert counts.tolist() == [run_frame(cfg, t) for t in trials]

    drawn.clear()
    with pytest.raises(ValueError, match="trial_index"):
        sim._run_chunk([cfg], draw, range(MAX_TRIALS - 1, MAX_TRIALS + 1))
    assert drawn == []


def test_run_frame_deterministic():
    cfg = _fer_config(snr_db=0.0)  # noisy enough that outcomes vary by trial
    for trial in (0, 1, 17):
        assert run_frame(cfg, trial) == run_frame(cfg, trial)
    outcomes = [run_frame(cfg, t) for t in range(32)]
    assert len(set(outcomes)) > 1  # trials genuinely differ


def test_run_frame_counts_are_consistent():
    cfg = _ber_config()
    counts = [run_frame(cfg, trial) for trial in range(64)]
    assert all(type(c) is int and 0 <= c <= cfg.frame_bits for c in counts)
    assert 0 < counts.count(0) < len(counts)  # clean and errored frames


def test_noise_free_strong_los_frame_is_clean():
    """Unit line-of-sight channel and no noise: the chain must be lossless."""
    los = FadingSpec(
        model=FadingModel.RICIAN, max_doppler_hz=100.0, sample_rate_hz=1e6, k_factor=1e12
    )
    cfg = _fer_config(
        channel=ChannelSpec(n_tx=4, n_rx=2, fading=los),
        snr_db=float("inf"),
        sweep=(0.0,),
    )
    for trial in range(16):
        assert run_frame(cfg, trial) == 0


def test_reference_chain_reproduces_run_frame():
    """Straight-line per-block reimplementation of the coded path."""
    from mimolink.channel import apply_channel, channel_init, receiver_noise
    from mimolink.fading import fading_draws
    from mimolink.modem import bernoulli_bits, qpsk_demodulate, qpsk_modulate
    from mimolink.sim import EXPERIMENT_IDS, ROLE_BITS, ROLE_FADING, ROLE_NOISE
    from mimolink.stbc import combine_array, encode_array, ostbc_code

    cfg = _fer_config(snr_db=0.0, sweep=(-5.0,))
    point = replace(cfg, channel=replace(cfg.channel, path_gain_db=-5.0))
    exp_id = EXPERIMENT_IDS[cfg.experiment.value]

    for trial in range(100):
        def stream(role):
            return RngStream(point.master_seed, pack_stream_id(exp_id, role, trial))

        bits = bernoulli_bits(stream(ROLE_BITS).uniform(point.frame_bits))
        code = ostbc_code(*point.code)
        syms = qpsk_modulate(bits)
        k = code.n_symbols
        blocks = [encode_array(code, syms[None, i : i + k])[0] for i in range(0, len(syms), k)]

        # one pass through the channel for the whole frame, row by row
        rows = np.concatenate(blocks, axis=0)
        ch = point.channel
        u = [stream(ROLE_FADING + i).uniform(fading_draws(ch.fading)) for i in range(ch.n_rx * ch.n_tx)]
        chan = channel_init(ch, np.stack(u))
        w = receiver_noise((len(rows), ch.n_rx), point.snr_db, stream(ROLE_NOISE).uniform)
        y_rows, h = apply_channel(chan, rows, w)

        bits_hat = []
        t_len = code.block_len
        for i in range(len(blocks)):
            y = y_rows[i * t_len : (i + 1) * t_len]
            h_first = h[i * t_len]  # receiver assumes the block-start channel
            s_hat = combine_array(code, y[None], h_first[None])[0]
            bits_hat.append(qpsk_demodulate(s_hat))
        bits_hat = np.concatenate(bits_hat)

        bit_errors = int(np.count_nonzero(bits_hat != bits))
        assert run_frame(point, trial) == bit_errors


@pytest.mark.parametrize("detector", list(DetectorKind), ids=lambda d: d.value)
def test_reference_chain_reproduces_run_frame_ber(detector):
    """Straight-line per-vector reimplementation of the uncoded 4x4 path:
    each trial's bits, i.i.d. channel and noise from their own streams,
    every vector received and detected on its own. Each received y goes to
    the detector whole, as the noise-free part of one level's observation
    with zero noise, so the detector does not see the engine's split of y."""
    from mimolink.channel import noise_variance, path_gain, receive
    from mimolink.detect import ml_detect_batch, mmse_detect_batch, prepare_channels, zf_detect_batch
    from mimolink.modem import bernoulli_bits, qpsk_modulate
    from mimolink.numerics import complex_normal_from
    from mimolink.sim import EXPERIMENT_IDS, ROLE_BITS, ROLE_IID_CHANNEL, ROLE_NOISE

    point = _point_config(_ber_config(detector=detector, frame_bits=40, master_seed=3), 5.0)
    exp_id = EXPERIMENT_IDS[point.experiment.value]
    ch = point.channel
    noise_var = noise_variance(point.snr_db)
    detect = {
        DetectorKind.ZF: zf_detect_batch, DetectorKind.MMSE: mmse_detect_batch, DetectorKind.ML: ml_detect_batch,
    }[detector]

    trials = range(12)
    expected = []
    for trial in trials:
        def stream(role):
            return RngStream(point.master_seed, pack_stream_id(exp_id, role, trial))

        bits = bernoulli_bits(stream(ROLE_BITS).uniform(point.frame_bits))
        x = qpsk_modulate(bits).reshape(-1, ch.n_tx) / math.sqrt(ch.n_tx)
        h = path_gain(ch) * complex_normal(stream(ROLE_IID_CHANNEL), (len(x), ch.n_rx, ch.n_tx))
        w = complex_normal_from(stream(ROLE_NOISE).uniform(2 * len(x) * ch.n_rx), noise_var)
        w = w.reshape(len(x), ch.n_rx)

        decided = []
        for v in range(len(x)):
            y = receive(h[v : v + 1], x[v : v + 1], w[v : v + 1])
            channels = prepare_channels(detector, h[v : v + 1])
            decided.append(detect(channels, y, np.zeros_like(y), [noise_var])[0])
        bits_hat = np.concatenate(decided).ravel()

        bit_errors = int(np.count_nonzero(bits_hat != bits))
        expected.append(bit_errors)

    assert len(set(expected)) > 1  # trials genuinely differ
    assert [run_frame(point, t) for t in trials] == expected
    assert chunk_trials(point) > 1
    assert sim._simulate_wave([point], trials.start, trials.stop)[0].tolist() == expected


def test_stopping_rule_exact_cutoff():
    """The engine must stop on exactly the frame that hits the error target."""
    cfg = _fer_config(snr_db=0.0, sweep=(-5.0,), max_frames=5000, target_frame_errors=20)
    point = replace(cfg, channel=replace(cfg.channel, path_gain_db=-5.0))

    errors = 0
    serial_frames = 0
    for trial in range(5000):
        serial_frames += 1
        errors += run_frame(point, trial) > 0
        if errors >= 20:
            break

    res = run_experiment(cfg).points[0]
    assert res.frame_errors == 20
    assert res.frames == serial_frames
    assert res.frames < 5000  # genuinely stopped early


def test_serial_point_stops_in_the_chunk_of_the_cut(monkeypatch):
    """The serial path simulates whole chunks, in order, and none of a
    point past the chunk that holds its trial meeting the error target:
    a point that is cut drops out of the chunks that the others still
    run."""
    cfg = _fer_config(snr_db=0.0, sweep=(-5.0, 0.0), max_frames=5000, target_frame_errors=50)
    # A fixed chunk size, so that the cut stays mid-chunk whatever the
    # memory model makes of this config.
    step = 16
    monkeypatch.setattr(sim, "chunk_trials", lambda config: step)
    spans = []
    simulate = sim._simulate_range

    def recording(points, start, stop):
        spans.append((start, stop, [p.channel.path_gain_db for p in points]))
        return simulate(points, start, stop)

    monkeypatch.setattr(sim, "_simulate_range", recording)
    cuts = [p.frames - 1 for p in run_experiment(cfg).points]  # the trials that met the target
    assert 1 <= cuts[0] // step < cuts[1] // step  # the points stop in different chunks
    for x, cut in zip(cfg.sweep, cuts):
        assert 0 < cut % step < step - 1  # mid-chunk, past the first
        assert [(a, b) for a, b, xs in spans if x in xs] == [(a, a + step) for a in range(0, cut + 1, step)]
    assert [(a, b) for a, b, _ in spans] == [(a, a + step) for a in range(0, cuts[1] + 1, step)]


def _fold_by_trial(tally: sim._Tally, bit_errors, target: int) -> bool:
    """The stopping rule one trial at a time: the oracle of _Tally.fold."""
    for e in bit_errors:
        tally.frames += 1
        tally.frame_errors += int(e > 0)
        tally.bit_errors += int(e)
        if tally.frame_errors >= target:
            return True
    return False


@pytest.mark.parametrize("waves, target", [
    ([[3, 0, 1]], 1),  # cut at the first trial
    ([[0, 2, 0, 5, 1, 0]], 2),  # cut mid-array
    ([[0, 1, 0, 4]], 2),  # cut at the last trial
    ([[0, 1, 0], [2, 0]], 5),  # target never met
    ([[1, 0, 2], [0, 0, 3, 1, 1]], 4),  # met in a later fold after a partial one
    ([[0, 0, 0, 0], [0, 0]], 1),  # no errors at all
    ([[0, 12, 0]], 1),  # a wiped trial, frame_bits = 12, is a frame error
], ids=["first", "mid", "last", "never", "later-fold", "all-zero", "wiped"])
def test_tally_fold_matches_per_trial_loop(waves, target):
    tally, oracle = sim._Tally(), sim._Tally()
    for wave in waves:
        met = tally.fold(np.array(wave, dtype=np.intp), target)
        assert met == _fold_by_trial(oracle, wave, target)
        assert tally == oracle
        assert all(type(v) is int for v in (tally.frames, tally.frame_errors, tally.bit_errors))
        if met:
            break
    point = tally.point(0.0, 12, 0.0)
    assert point.bits == 12 * oracle.frames
    assert point.bit_errors == oracle.bit_errors


def test_max_frames_binds_when_target_unreachable():
    cfg = _fer_config(sweep=(0.0,), max_frames=30, target_frame_errors=10**6)
    point = run_experiment(cfg).points[0]
    assert point.frames == 30
    assert point.frame_errors <= 30


def test_sweep_over_the_cap_is_a_config_error():
    over = tuple(x / 1000 for x in range(sim.MAX_SWEEP_POINTS + 1))
    with pytest.raises(ValueError, match="MAX_SWEEP_POINTS"):
        _ber_config(sweep=over).validate()
    with pytest.raises(ValueError, match="MAX_SWEEP_POINTS"):
        run_experiment(_ber_config(sweep=over))
    _ber_config(sweep=over[:-1]).validate()


def test_workers_above_cpu_count_raise_before_any_pool(monkeypatch):
    class NoPool:
        def __init__(self, *args, **kwargs):
            raise AssertionError("a process pool was built")

    monkeypatch.setattr(sim, "ProcessPoolExecutor", NoPool)
    with pytest.raises(ValueError, match="CPU count"):
        run_experiment(_ber_config(), workers=(os.cpu_count() or 1) + 1)


def test_worker_count_does_not_change_results(monkeypatch):
    # Three workers split a wave unevenly, also on a host of fewer CPUs.
    monkeypatch.setattr(sim.os, "cpu_count", lambda: 3)
    cfg = _fer_config(snr_db=0.0, max_frames=2000, target_frame_errors=25)
    results = [run_experiment(cfg, workers=w) for w in (1, 2, 3)]
    key = lambda p: (p.x, p.frames, p.frame_errors, p.bits, p.bit_errors,
                     p.fer, p.ber, p.ci95_fer, p.ci95_ber)
    for other in results[1:]:
        assert [key(p) for p in results[0].points] == [key(p) for p in other.points]


def test_sweep_points_in_order_with_sane_rates():
    cfg = _fer_config()
    res = run_experiment(cfg)
    assert [p.x for p in res.points] == [-10.0, -8.0]
    for p in res.points:
        assert 0.0 <= p.fer <= 1.0
        assert p.ci95_fer[0] <= p.fer <= p.ci95_fer[1]
        assert p.bits == p.frames * cfg.frame_bits
        assert p.elapsed_s >= 0.0


def test_gain_sweep_actually_changes_the_channel():
    """A 20 dB gain swing must move the frame error rate dramatically."""
    cfg = _fer_config(sweep=(-20.0, 0.0), max_frames=300, target_frame_errors=200)
    lo, hi = run_experiment(cfg).points
    assert lo.fer > 0.9  # 20 dB below the noise floor: everything breaks
    assert hi.fer < 0.2


def test_ber_decreases_with_snr():
    cfg = _ber_config(sweep=(0.0, 10.0, 20.0), max_frames=400, target_frame_errors=10**6)
    pts = run_experiment(cfg).points
    assert pts[0].ber > pts[1].ber > pts[2].ber


def test_emit_csv_matches_golden_fixture():
    cfg = _fer_config()
    assert emit_csv(run_experiment(cfg)) == GOLDEN_FER_CSV
    cfg = _ber_config()
    assert emit_csv(run_experiment(cfg)) == GOLDEN_BER_CSV


def test_parse_csv_roundtrip():
    meta, rows = parse_csv(GOLDEN_FER_CSV)
    assert list(meta) == [
        "experiment", "n_tx", "n_rx", "fading_model", "k_factor",
        "max_doppler_hz", "los_doppler_hz", "los_phase_rad", "sample_rate_hz",
        "num_sinusoids", "correlation", "path_gain_db", "code", "detector",
        "frame_bits", "snr_db", "sweep", "max_frames", "target_frame_errors",
        "master_seed",
    ]
    assert meta["experiment"] == "fer_vs_gain"
    assert meta["code"] == "4x3/4"
    assert meta["detector"] == "none"
    assert len(rows) == 2
    first = rows[0]
    assert first["x"] == -10.0
    assert first["frames"] == 6 and isinstance(first["frames"], int)
    assert first["frame_errors"] == 5
    assert first["bits"] == 72 and first["bit_errors"] == 6
    assert first["fer"] == pytest.approx(0.833333)
    meta_b, rows_b = parse_csv(GOLDEN_BER_CSV)
    assert meta_b["detector"] == "ml" and meta_b["code"] == "none"
    assert rows_b[1]["ber"] == pytest.approx(0.104167)


# Configs of the golden digests (tests/test_golden.py) as single points.
def _wave_configs():
    def fer(code, n_rx, corr, x, experiment=Experiment.FER_VS_GAIN, fading=FadingSpec(), **kw):
        cfg = SimConfig(
            experiment=experiment,
            channel=ChannelSpec(n_tx=code[0], n_rx=n_rx, fading=fading, correlation=corr),
            code=code, snr_db=10.0, sweep=(x,), master_seed=3, **kw,
        )
        return _point_config(cfg, x)

    rician = FadingSpec(model=FadingModel.RICIAN, k_factor=4.0, los_doppler_hz=100.0)
    configs = [
        fer((4, Fraction(3, 4)), 4, 0.9, -6.0),
        fer((4, Fraction(1, 2)), 2, 0.5, -9.0, frame_bits=48),
        fer((3, Fraction(3, 4)), 3, 0.1, 50.0, Experiment.FER_VS_DOPPLER, frame_bits=36),
        fer((3, Fraction(1, 2)), 1, 0.0, 2e5, Experiment.FER_VS_SAMPLE_RATE, frame_bits=32),
        fer((2, Fraction(1)), 2, 0.9, 25.0, Experiment.FER_VS_DOPPLER, rician),
        fer((4, Fraction(3, 4)), 2, 0.1, -12.0, frame_bits=24),
    ]
    for detector in DetectorKind:
        configs.append(_point_config(_ber_config(detector=detector, frame_bits=120, master_seed=3), 0.0))
    return configs


@pytest.mark.parametrize("cfg", _wave_configs(), ids=lambda c: f"{c.experiment.value}-{c.code or c.detector}")
def test_run_wave_matches_run_frame(cfg):
    """A one-point wave of batched trials (sim._simulate_wave), from a
    start that is not chunk-aligned, equals the single-trial oracle one by
    one."""
    step = chunk_trials(cfg)
    start = 5 if step == 1 else step // 2 + 3
    stop = start + 2 * step + 3
    assert sim._simulate_wave([cfg], start, stop)[0].tolist() == [run_frame(cfg, t) for t in range(start, stop)]


def test_run_wave_with_single_trial_chunks(monkeypatch):
    """A one-element budget makes every chunk one trial and every fading
    tile one sample of one link; the outcomes stay the same."""
    cfg = _wave_configs()[4]
    expected = [run_frame(cfg, t) for t in range(3, 9)]
    monkeypatch.setattr(numerics, "CHUNK_ELEMENTS", 1)
    assert chunk_trials(cfg) == 1
    assert sim._simulate_wave([cfg], 3, 9)[0].tolist() == expected


class _InlinePool:
    """An in-process stand-in for sim.ProcessPoolExecutor whose map runs
    the calls in tasks of chunksize calls, as the pool's does, and records
    each task's (start, stop) spans."""

    def __init__(self, max_workers):
        self.max_workers = max_workers
        self.tasks = []

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, *iterables, chunksize=1):
        calls = list(zip(*iterables))
        tasks = [calls[i : i + chunksize] for i in range(0, len(calls), chunksize)]
        assert len(tasks) <= self.max_workers  # one task a worker per wave
        self.tasks += [[(a, b) for _, a, b in task] for task in tasks]
        return [fn(*call) for task in tasks for call in task]


def test_run_wave_on_pool_spans():
    """The chunk spans that one pool wave hands its workers, run
    separately, give the trial-by-trial outcomes."""
    cfg = _point_config(_fer_config(
        channel=ChannelSpec(n_tx=2, n_rx=1), code=(2, Fraction(1)), frame_bits=8, snr_db=0.0,
    ), -5.0)
    # The second wave, so that no span starts at trial 0, cut into chunks
    # off the chunk grid of trial 0.
    start, stop = sim.WAVE_FRAMES, 2 * sim.WAVE_FRAMES
    expected = [run_frame(cfg, t) for t in range(start, stop)]
    step = chunk_trials(cfg)
    chunks = -(-(stop - start) // step)
    assert chunks > 1 and start % step != 0
    for workers in (2, 3):
        pool = _InlinePool(workers)
        assert sim._simulate_wave([cfg], start, stop, pool, workers)[0].tolist() == expected
        spans = [span for task in pool.tasks for span in task]
        assert len(pool.tasks) == min(workers, chunks) and len(spans) == chunks
        assert [t for a, b in spans for t in range(a, b)] == list(range(start, stop))
        for a, b in spans:
            assert sim._simulate_range([cfg], a, b)[0].tolist() == expected[a - start : b - start]


def _zero_the_channel_of(trial: int, cfg: SimConfig, monkeypatch) -> None:
    """Zero the uniforms of trial's i.i.d. channel stream under cfg's
    experiment, in the engine's draws and run_frame's alike, so that every
    entry of that trial's channels is zero."""
    bad_stream = pack_stream_id(sim.EXPERIMENT_IDS[cfg.experiment.value], sim.ROLE_IID_CHANNEL, trial)

    def zeroed(stream_id: int, u: np.ndarray) -> np.ndarray:
        if stream_id == bad_stream:
            u[:] = 0.0  # radii sqrt(-2 log1p(-0)) = 0: every entry is zero
        return u

    class Streams(sim.PhiloxStreams):
        def uniform(self, stream_id, out):
            return zeroed(stream_id, super().uniform(stream_id, out))

    class Stream(RngStream):
        def uniform(self, n):
            return zeroed(self.stream_id, super().uniform(n))

    monkeypatch.setattr(sim, "PhiloxStreams", Streams)
    monkeypatch.setattr(sim, "RngStream", Stream)


def test_zf_failure_wipes_only_its_frame(monkeypatch):
    """A singular channel in one frame of a chunk scores that frame as all
    errored at every point of the sweep; its neighbours in the chunk are
    scored as usual. The channel is all zero: its stream's uniforms are
    zeroed, for the chunk's draws and the single-trial oracle's alike, so
    preparing the chunk for ZF flags its 15 vectors in the chunk's prefix,
    once for all points."""
    cfg = _point_config(_ber_config(detector=DetectorKind.ZF, frame_bits=120, master_seed=3), 10.0)
    points = [cfg, _point_config(cfg, 20.0)]
    start, stop = 2, 2 + chunk_trials(cfg)
    bad = start + 7
    clean = [c.tolist() for c in sim._simulate_range(points, start, stop)]
    assert all(c[bad - start] < cfg.frame_bits for c in clean)

    _zero_the_channel_of(bad, cfg, monkeypatch)
    prepared = []  # the vectors of each prepare_channels call, and those it flags
    prepare = sim.prepare_channels

    def recording(kind, h):
        channels = prepare(kind, h)
        prepared.append((len(h), int(np.count_nonzero(channels.singular))))
        return channels

    monkeypatch.setattr(sim, "prepare_channels", recording)
    wiped = [w.tolist() for w in sim._simulate_range(points, start, stop)]
    # The chunk's prefix flags the bad trial's vectors, once for all points.
    assert prepared == [((stop - start) * 15, 15)]
    for pc, c, w in zip(points, clean, wiped):
        expected = list(c)
        expected[bad - start] = cfg.frame_bits
        assert w == expected
        assert w == [run_frame(pc, t) for t in range(start, stop)]


def test_every_trial_is_simulated_once(monkeypatch):
    """The trial ranges that _run_chunk receives tile [0, frames) without
    overlap: on the serial path, through a pool whose tasks take several
    chunks each, and under ZF with an all-zero channel in trial 7, whose
    chunk is run once like any other."""
    seen = []  # the trials of each _run_chunk call
    run_chunk = sim._run_chunk

    def recording(points, draw, trials):
        seen.append(trials)
        return run_chunk(points, draw, trials)

    monkeypatch.setattr(sim, "_run_chunk", recording)
    monkeypatch.setattr(sim.os, "cpu_count", lambda: 3)
    monkeypatch.setattr(sim, "ProcessPoolExecutor", _InlinePool)

    def simulated(cfg, workers=1):
        # Every point runs to max_frames: no error target is met.
        seen.clear()
        assert [p.frames for p in run_experiment(cfg, workers).points] == [cfg.max_frames] * len(cfg.sweep)
        return sorted(t for trials in seen for t in trials)

    fer = _fer_config(snr_db=0.0, sweep=(-5.0, 0.0), target_frame_errors=10**6)
    step = chunk_trials(_point_config(fer, -5.0))
    # Chunks of the serial path, the last one short.
    serial = replace(fer, max_frames=2 * step + step // 2)
    assert simulated(serial) == list(range(serial.max_frames))
    assert len(seen) == 3
    # A first pool wave of at least three chunks, two or more a task, then
    # a short wave.
    pooled = replace(fer, max_frames=sim.WAVE_FRAMES + step // 2)
    assert sim.WAVE_FRAMES >= 3 * step
    assert simulated(pooled, workers=2) == list(range(pooled.max_frames))
    zf = _ber_config(detector=DetectorKind.ZF, frame_bits=120, sweep=(10.0, 20.0), target_frame_errors=10**6)
    zf = replace(zf, max_frames=chunk_trials(_point_config(zf, 10.0)) + 5)
    _zero_the_channel_of(7, zf, monkeypatch)
    assert simulated(zf) == list(range(zf.max_frames))


def test_ber_sweep_prepares_each_trial_once(monkeypatch):
    """A 5-point SNR sweep prepares each trial's channels for the detector
    once, in the chunk's prefix, as a 1-point sweep over the same trials
    does: the Gram matrices and ZF's singularity verdict, or ML's images.
    ZF also solves once per chunk, for all five points at once, where MMSE,
    whose filter depends on the point, solves once per point; ML solves
    nothing."""
    calls, solves = [], []
    prepare, solve = sim.prepare_channels, np.linalg.solve
    monkeypatch.setattr(sim, "prepare_channels", lambda kind, h: calls.append(len(h)) or prepare(kind, h))
    monkeypatch.setattr(np.linalg, "solve", lambda a, b: solves.append(len(a)) or solve(a, b))
    # np.linalg.solve calls per chunk, of the 5-point and the 1-point sweep
    solves_per_chunk = {DetectorKind.ZF: (1, 1), DetectorKind.MMSE: (5, 1), DetectorKind.ML: (0, 0)}
    for detector in DetectorKind:
        cfg = _ber_config(detector=detector, frame_bits=120, sweep=(0.0, 5.0, 10.0, 15.0, 20.0), max_frames=50,
                          target_frame_errors=10**6)
        chunks = -(-50 // chunk_trials(_sweep_points(cfg)[0]))

        def count(sweep):
            calls.clear()
            solves.clear()
            assert [p.frames for p in run_experiment(replace(cfg, sweep=sweep)).points] == [50] * len(sweep)
            # prepare_channels calls, the vectors they prepare, solve calls
            return len(calls), sum(calls), len(solves)

        many, one = solves_per_chunk[detector]
        assert count(cfg.sweep) == (chunks, 50 * 15, chunks * many)
        assert count(cfg.sweep[:1]) == (chunks, 50 * 15, chunks * one)


# One multi-point sweep of each experiment kind whose points stop on
# different trials: at the error target mid-chunk, or at max_frames.
_SWEEP_CONFIGS = [
    _fer_config(snr_db=4.0, sweep=(-10.0, -4.0, 2.0), max_frames=150, target_frame_errors=20),
    _fer_config(
        experiment=Experiment.FER_VS_DOPPLER, code=(2, Fraction(1)), frame_bits=24, snr_db=12.0,
        channel=ChannelSpec(n_tx=2, n_rx=1, correlation=0.5, fading=FadingSpec(
            model=FadingModel.RICIAN, k_factor=2.0, los_doppler_hz=50.0, sample_rate_hz=1e3)),
        sweep=(25.0, 100.0, 400.0), max_frames=150, target_frame_errors=20,
    ),
    _fer_config(
        experiment=Experiment.FER_VS_SAMPLE_RATE, code=(3, Fraction(1, 2)), frame_bits=32, snr_db=10.0,
        channel=ChannelSpec(n_tx=3, n_rx=2, correlation=0.1, fading=FadingSpec(max_doppler_hz=400.0)),
        sweep=(1e3, 1e4, 1e6), max_frames=150, target_frame_errors=20,
    ),
    _ber_config(detector=DetectorKind.MMSE, frame_bits=8, sweep=(0.0, 6.0, 12.0, 18.0),
                max_frames=150, target_frame_errors=20),
]


def test_chunk_budget_changes_no_byte(monkeypatch):
    """Chunks of the chunk budget, of the kernels' budget and of three
    trials give the same CSV bytes for each experiment kind, with points
    cut mid-chunk and at the cap."""
    def kernel_budget_chunks(config):
        return max(1, numerics.CHUNK_ELEMENTS // sim.trial_elements(config))

    def csvs():
        return [emit_csv(run_experiment(cfg)) for cfg in _SWEEP_CONFIGS]

    for cfg in _SWEEP_CONFIGS:
        point = _point_config(cfg, cfg.sweep[0])
        assert chunk_trials(point) > kernel_budget_chunks(point) > 3
    expected = csvs()
    for chunks in (kernel_budget_chunks, lambda config: 3):
        monkeypatch.setattr(sim, "chunk_trials", chunks)
        assert csvs() == expected


# Mixed stopping rules, (target_frame_errors, max_frames) for each point:
# a cap below the others, which ends a wave of the points that run on, a
# target that no point meets before its cap, and a low target.
_MIXED_RULES = [(20, 150), (8, 60), (10**6, 90), (3, 150)]


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("cfg", _SWEEP_CONFIGS, ids=lambda c: c.experiment.value)
def test_sweep_points_equal_one_point_runs(cfg, workers):
    """Each point of a multi-point sweep equals the one-point sweep at its
    x in every field but elapsed_s: sharing the trials' prefix across the
    points changes no outcome, and each point stops at its own cut. That
    holds as well when each point has its own stopping rule, as
    sim._run_sweep takes them: no point folds a trial past its own cap."""
    multi = run_experiment(cfg, workers=workers).points
    singles = [run_experiment(replace(cfg, sweep=(x,)), workers=workers).points[0] for x in cfg.sweep]
    assert [replace(p, elapsed_s=0.0) for p in multi] == [replace(p, elapsed_s=0.0) for p in singles]
    assert len({p.frames for p in multi}) > 1  # the points stop on different trials

    rules = _MIXED_RULES[: len(cfg.sweep)]
    mixed = sim._run_sweep(cfg, rules, workers)
    singles = [
        run_experiment(replace(cfg, sweep=(x,), target_frame_errors=target, max_frames=cap), workers=workers).points[0]
        for x, (target, cap) in zip(cfg.sweep, rules)
    ]
    assert [replace(p, elapsed_s=0.0) for p in mixed] == [replace(p, elapsed_s=0.0) for p in singles]
    assert mixed[2].frames == 90  # the point without a reachable target stops at its cap


def test_stopping_rules_must_fit_the_sweep():
    cfg = _fer_config(sweep=(-10.0, -8.0))
    for rules in ([(5, 40)], [(5, 40)] * 3, [(5, 40), (0, 40)], [(5, 40), (5, 0)], [(5, 0), (5, MAX_TRIALS + 1)]):
        with pytest.raises(ValueError, match="stopping rule"):
            sim._run_sweep(cfg, rules, 1)


def test_gain_sweep_initialises_each_trial_once(monkeypatch):
    """A 4-point gain sweep draws and starts each trial's channels once,
    as a 1-point sweep over the same trials does."""
    calls = []
    init = sim.channel_init
    monkeypatch.setattr(sim, "channel_init", lambda spec, u: calls.append(len(u)) or init(spec, u))
    cfg = _fer_config(sweep=(-12.0, -8.0, -4.0, 0.0), max_frames=50, target_frame_errors=10**6)

    def count(sweep):
        calls.clear()
        assert [p.frames for p in run_experiment(replace(cfg, sweep=sweep)).points] == [50] * len(sweep)
        return len(calls), sum(calls)  # channel_init calls, and the trials they start

    assert count(cfg.sweep) == count(cfg.sweep[:1]) == (len(calls), 50)
