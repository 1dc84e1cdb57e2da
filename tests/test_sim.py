"""Tests for the experiment engine: Wilson intervals, stopping rule,
worker-count invariance, frame simulation, and the CSV round trip."""

import math
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest

from mimolink import numerics, sim
from mimolink.channel import MAX_ANTENNAS, ChannelSpec
from mimolink.detect import DetectionFailure, DetectorKind
from mimolink.fading import FadingModel, FadingSpec
from mimolink.numerics import MAX_TRIALS, RngStream, pack_stream_id
from mimolink.sim import (
    Experiment,
    SimConfig,
    Z95,
    _point_config,
    chunk_trials,
    emit_csv,
    parse_csv,
    run_experiment,
    run_frame,
    run_wave,
    wilson_interval,
)

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
    """A trial whose scratch estimate exceeds MAX_TRIAL_ELEMENTS is a
    configuration error. Only validate() runs here, so a missing bound
    fails the test without allocating anything."""
    cap = sim.MAX_TRIAL_ELEMENTS
    # 4x3/4 over 4x4 links with M = 32: 512 elements per frame bit, and
    # frame_bits must be a multiple of 6.
    fer = _fer_config(channel=ChannelSpec(n_tx=4, n_rx=4))
    assert sim.trial_elements(replace(fer, frame_bits=120)) == 512 * 120
    largest = cap // 512 // 6 * 6
    replace(fer, frame_bits=largest).validate()
    with pytest.raises(ValueError, match="MAX_TRIAL_ELEMENTS"):
        replace(fer, frame_bits=largest + 6).validate()
    with pytest.raises(ValueError, match="MAX_TRIAL_ELEMENTS"):
        _fer_config(channel=ChannelSpec(n_tx=2, n_rx=1), code=(2, Fraction(1)), frame_bits=2_000_000_000).validate()
    # num_sinusoids is capped by the fading spec, and a large M still
    # counts against the trial bound.
    big_m = ChannelSpec(fading=FadingSpec(num_sinusoids=numerics.CHUNK_ELEMENTS))
    with pytest.raises(ValueError, match="MAX_TRIAL_ELEMENTS"):
        _fer_config(channel=big_m, frame_bits=24).validate()
    for detector in DetectorKind:
        ber = _ber_config(detector=detector, frame_bits=120)
        ber.validate()
        with pytest.raises(ValueError, match="MAX_TRIAL_ELEMENTS"):
            replace(ber, frame_bits=2_000_000_000).validate()
    # chunk_trials reads the same estimate.
    assert chunk_trials(_point_config(fer, -5.0)) == numerics.CHUNK_ELEMENTS // (512 * 12)


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


def test_run_frame_deterministic():
    cfg = _fer_config(snr_db=0.0)  # noisy enough that outcomes vary by trial
    for trial in (0, 1, 17):
        assert run_frame(cfg, trial) == run_frame(cfg, trial)
    outcomes = [run_frame(cfg, t) for t in range(32)]
    assert len(set(outcomes)) > 1  # trials genuinely differ


def test_run_frame_counts_are_consistent():
    cfg = _ber_config()
    for trial in range(64):
        frame_error, bit_errors, bits = run_frame(cfg, trial)
        assert bits == cfg.frame_bits
        assert 0 <= bit_errors <= bits
        assert frame_error == (bit_errors > 0)


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
        assert run_frame(cfg, trial) == (False, 0, 12)


def test_reference_chain_reproduces_run_frame():
    """Straight-line per-block reimplementation of the coded path."""
    from mimolink.channel import apply_channel, channel_init
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
        y_rows, h = apply_channel(chan, rows, point.snr_db, stream(ROLE_NOISE).uniform)

        bits_hat = []
        t_len = code.block_len
        for i in range(len(blocks)):
            y = y_rows[i * t_len : (i + 1) * t_len]
            h_first = h[i * t_len]  # receiver assumes the block-start channel
            s_hat = combine_array(code, y[None], h_first[None])[0]
            bits_hat.append(qpsk_demodulate(s_hat))
        bits_hat = np.concatenate(bits_hat)

        bit_errors = int(np.count_nonzero(bits_hat != bits))
        assert run_frame(point, trial) == (bit_errors > 0, bit_errors, point.frame_bits)


def test_stopping_rule_exact_cutoff():
    """The engine must stop on exactly the frame that hits the error target."""
    cfg = _fer_config(snr_db=0.0, sweep=(-5.0,), max_frames=5000, target_frame_errors=20)
    point = replace(cfg, channel=replace(cfg.channel, path_gain_db=-5.0))

    errors = 0
    serial_frames = 0
    for trial in range(5000):
        err, bit_err, _ = run_frame(point, trial)
        serial_frames += 1
        errors += int(err)
        if errors >= 20:
            break

    res = run_experiment(cfg).points[0]
    assert res.frame_errors == 20
    assert res.frames == serial_frames
    assert res.frames < 5000  # genuinely stopped early


def test_serial_point_stops_in_the_chunk_of_the_cut(monkeypatch):
    """The serial path simulates whole chunks, in order, and none past the
    chunk that holds the trial meeting the error target."""
    cfg = _fer_config(snr_db=0.0, sweep=(-5.0,), max_frames=5000, target_frame_errors=50)
    step = chunk_trials(_point_config(cfg, -5.0))
    spans = []
    simulate = sim._simulate_range

    def recording(config, start, stop):
        spans.append((start, stop))
        return simulate(config, start, stop)

    monkeypatch.setattr(sim, "_simulate_range", recording)
    cut = run_experiment(cfg).points[0].frames - 1  # the trial that met the target
    assert cut >= step and 0 < cut % step < step - 1  # mid-chunk, past the first
    assert spans == [(a, a + step) for a in range(0, cut + 1, step)]


def test_max_frames_binds_when_target_unreachable():
    cfg = _fer_config(sweep=(0.0,), max_frames=30, target_frame_errors=10**6)
    point = run_experiment(cfg).points[0]
    assert point.frames == 30
    assert point.frame_errors <= 30


def test_worker_count_does_not_change_results():
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
    assert emit_csv(run_experiment(cfg), cfg) == GOLDEN_FER_CSV
    cfg = _ber_config()
    assert emit_csv(run_experiment(cfg), cfg) == GOLDEN_BER_CSV


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
    """Batched trials, from a start that is not chunk-aligned, equal the
    single-trial oracle one by one."""
    step = chunk_trials(cfg)
    start = 5 if step == 1 else step // 2 + 3
    stop = start + 2 * step + 3
    assert run_wave(cfg, start, stop) == [run_frame(cfg, t) for t in range(start, stop)]


def test_run_wave_with_single_trial_chunks(monkeypatch):
    """A one-element budget makes every chunk one trial and every fading
    tile one sample of one link; the outcomes stay the same."""
    cfg = _wave_configs()[4]
    expected = [run_frame(cfg, t) for t in range(3, 9)]
    monkeypatch.setattr(numerics, "CHUNK_ELEMENTS", 1)
    assert chunk_trials(cfg) == 1
    assert run_wave(cfg, 3, 9) == expected


def test_run_wave_on_pool_spans():
    """The spans that one pool wave hands its workers, run separately,
    give the trial-by-trial outcomes."""
    cfg = _point_config(_fer_config(
        channel=ChannelSpec(n_tx=2, n_rx=1), code=(2, Fraction(1)), frame_bits=8, snr_db=0.0,
    ), -5.0)
    for workers in (2, 3):
        # The second wave, so that no span starts at trial 0, and spans that
        # end off the chunk grid.
        spans = sim._split_range(sim.WAVE_FRAMES, 2 * sim.WAVE_FRAMES, workers)
        for a, b in spans:
            assert run_wave(cfg, a, b) == [run_frame(cfg, t) for t in range(a, b)]


def test_zf_failure_wipes_only_its_frame(monkeypatch):
    """A singular channel in one frame of a chunk scores that frame as all
    errored; its neighbours in the chunk are scored as usual."""
    cfg = _point_config(_ber_config(detector=DetectorKind.ZF, frame_bits=120, master_seed=3), 10.0)
    start, stop = 2, 2 + chunk_trials(cfg)
    bad = start + 7
    clean = run_wave(cfg, start, stop)
    assert clean[bad - start] != (True, cfg.frame_bits, cfg.frame_bits)

    # Trial `bad`'s first channel matrix, regenerated from its stream (the
    # path gain is 0 dB, so the draw is the matrix).
    stream = RngStream(cfg.master_seed, pack_stream_id(
        sim.EXPERIMENT_IDS[cfg.experiment.value], sim.ROLE_IID_CHANNEL, bad))
    poison = stream.complex_normal((cfg.frame_bits // 2 // 4, 4, 4))[0]
    real_zf = sim.zf_detect_batch

    def zf_failing_on_poison(h, y, points):
        if np.any(np.all(h == poison, axis=(1, 2))):
            raise DetectionFailure("forced")
        return real_zf(h, y, points)

    monkeypatch.setattr(sim, "zf_detect_batch", zf_failing_on_poison)
    wiped = run_wave(cfg, start, stop)
    expected = list(clean)
    expected[bad - start] = (True, cfg.frame_bits, cfg.frame_bits)
    assert wiped == expected
    assert wiped == [run_frame(cfg, t) for t in range(start, stop)]
