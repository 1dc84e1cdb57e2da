"""The census behind the detectors' closed forms over an SNR sweep.

ZF solves once per chunk for H^H H x and H^H z, and decides each point on
a + s b; ML forms its noise-free distances and their noise term once per
tile, and decides each point on D0 + 2 s (E - F). Both move rounding
against the per-point chain they replace, which forms y = H x + s z at
each point, s = sqrt(nv / 2), and then solves for y once or searches the
half grid for it. A decision can flip only where a statistic lies within
a few ulp of a boundary, so the per-trial bit-error counts are expected
to stay the same, but only a count can say so. The per-point chain stays
here as the oracle: it replaces the engine's detect call and sees the
same prefix (bits, channels, H x, z, the prepared channels), and every
trial's count must equal the engine's, at every point, on every shape.
The seed and the sizes were fixed before the first run; a count that
differs is a finding, not a reason to pick another seed.

The same holds for the OSTBC combiner over a path-gain sweep. The engine
combines the unit-gain H0 x and the noise w under the unit-gain block
channels once per chunk, S and W, and decides each point on S + W / g;
the per-point chain it replaces scales the channels by g, forms
y = g H0 x + w and combines y under g H0 at every point. The oracle
records the engine's prefix (bits, codewords, the unit-gain matrices that
apply_channel returns at 0 dB, noise) and runs that chain on it.

The fading kernel's Taylor plan forms its moments and polynomials as
einsum contractions, which round otherwise than the loops of products,
sums and Horner steps that they replace. The loops stay in
tests/test_fading.py as the oracle, and here they replace the kernel's
Taylor sums in the FER gain and Doppler chains: every trial's count must
be the same. The same chains then run under a 1-ulp mode, which moves
every float64 output of np.cos, np.sin, np.exp and np.log1p by one ulp
in a seeded random direction, as another CPU's SIMD kernels might round
them: a count that moves is a trial that such a host would flip."""

import math
from fractions import Fraction

import numpy as np
import pytest

from mimolink import fading, sim
from mimolink.channel import MAX_PATH_GAIN_DB, ChannelSpec, path_gain, receive
from mimolink.detect import DetectorKind, zf_estimate_batch
from mimolink.fading import FadingModel, FadingSpec, block_plan
from mimolink.modem import qpsk_demodulate
from mimolink.sim import Experiment, SimConfig, _point_config
from mimolink.stbc import combine_array, ostbc_code, supported_codes
from test_fading import taylor_block_sums_loops

SEED = 7
TRIALS = 1000
SNRS_DB = (-5.0, 0.0, 5.0, 10.0, 15.0, 20.0, 25.0)
VECTORS_PER_TRIAL = 15


def _observations(hx, z, noise_vars):
    # The per-point chain's y at each level, as the engine formed it.
    for noise_var in noise_vars:
        y = np.multiply(z, math.sqrt(noise_var / 2.0))
        y += hx
        yield y


def _zf_per_point(channels, hx, z, noise_vars):
    """A one-shot solve for each point's y, and the sign tests."""
    return np.stack([
        qpsk_demodulate(zf_estimate_batch(channels, y).ravel()).reshape(len(y), -1)
        for y in _observations(hx, z, noise_vars)
    ])


def _ml_per_point(channels, hx, z, noise_vars):
    """The half-grid search of each point's y: the distances
    ||r_i||^2 + ||b_j||^2 - 2 Re(r_i^H b_j) of the head residuals
    r_i = y - H_head x_i and the tail images b_j, and their argmin."""
    decided = []
    for y in _observations(hx, z, noise_vars):
        r = np.subtract(y[:, None, :], channels.head_images)
        rv, bv = r.view(np.float64), channels.tail_images.view(np.float64)
        cross = rv @ bv.swapaxes(-1, -2)
        dist = np.einsum("nkr,nkr->nk", rv, rv)[:, :, None] + channels.tail_norms[:, None, :]
        cross *= 2.0
        dist -= cross
        i, j = np.divmod(np.argmin(dist.reshape(len(y), -1), axis=1), len(channels.tail_bits))
        decided.append(np.concatenate([channels.head_bits[i], channels.tail_bits[j]], axis=1))
    return np.stack(decided)


_ORACLES = {DetectorKind.ZF: ("zf_detect_batch", _zf_per_point), DetectorKind.ML: ("ml_detect_batch", _ml_per_point)}

# (detector, n_tx, n_rx)
_SHAPES = [
    *[(DetectorKind.ZF, n_tx, n_rx) for n_tx, n_rx in ((4, 4), (3, 3), (2, 2), (2, 4), (1, 4), (1, 1))],
    *[(DetectorKind.ML, n_tx, n_rx) for n_tx, n_rx in ((4, 4), (3, 3), (2, 2), (2, 4), (4, 2), (1, 1))],
]


@pytest.mark.parametrize(
    "detector, n_tx, n_rx", _SHAPES, ids=[f"{d.value}-{t}x{r}" for d, t, r in _SHAPES],
)
def test_closed_form_counts_equal_the_per_point_chain(detector, n_tx, n_rx, monkeypatch):
    """105,000 vector decisions a shape: 1,000 trials of 15 vectors at 7
    SNR points from -5 to 25 dB. The number of trial-points whose counts
    differ must be zero."""
    config = SimConfig(
        experiment=Experiment.BER_VS_SNR, channel=ChannelSpec(n_tx=n_tx, n_rx=n_rx), code=None,
        detector=detector, frame_bits=2 * n_tx * VECTORS_PER_TRIAL, sweep=SNRS_DB, master_seed=SEED,
    )
    config.validate()
    points = [_point_config(config, x) for x in SNRS_DB]
    engine = sim._simulate_wave(points, 0, TRIALS)
    name, oracle = _ORACLES[detector]
    monkeypatch.setattr(sim, name, oracle)
    chain = sim._simulate_wave(points, 0, TRIALS)
    differing = sum(int(np.count_nonzero(a != b)) for a, b in zip(engine, chain))
    assert differing == 0
    # The census is not vacuous: errors at the low points, fewer at the high.
    totals = [int(c.sum()) for c in chain]
    assert totals[0] > 0 and totals[-1] < totals[0]


GAIN_TRIALS = 1200
GAINS_DB = (-12.0, -9.0, -6.0, -3.0, 0.0, 3.0, 6.0)
GAIN_FRAME_BITS = 24  # 12 symbols: whole blocks of every code

# (code, n_rx, fading, correlation)
_RAYLEIGH = FadingSpec()
_RICIAN = FadingSpec(model=FadingModel.RICIAN, k_factor=4.0)
_GAIN_SHAPES = [
    *[(code, n_rx, _RAYLEIGH, 0.0) for code in supported_codes() for n_rx in (1, 2)],
    ((4, Fraction(3, 4)), 4, _RAYLEIGH, 0.0),
    ((4, Fraction(3, 4)), 2, _RICIAN, 0.9),
]


def _gain_config(code, n_rx, fading, correlation, sweep) -> SimConfig:
    config = SimConfig(
        experiment=Experiment.FER_VS_GAIN, code=code, frame_bits=GAIN_FRAME_BITS, sweep=sweep, master_seed=SEED,
        channel=ChannelSpec(n_tx=code[0], n_rx=n_rx, correlation=correlation, fading=fading),
    )
    config.validate()
    return config


def _engine_and_per_point_chain(config: SimConfig, trials: int, monkeypatch) -> tuple[list, list]:
    """The engine's per-trial bit-error counts at each point of the gain
    sweep, and those of the per-point chain over the prefix that the
    engine drew: the unit-gain matrices H0 that apply_channel returned,
    scaled by g, y = g H0 x + w, and the combine of y under each block's
    first channel g H0."""
    prefixes = []  # per chunk: the bits, codewords, apply_channel's (y0, H0) and noise

    def recording(name):
        original = getattr(sim, name)

        def record(*args):
            out = original(*args)
            if name == "bernoulli_bits":
                prefixes.append({})
            prefixes[-1][name] = out
            return out

        return record

    for name in ("bernoulli_bits", "encode_array", "apply_channel", "receiver_noise"):
        monkeypatch.setattr(sim, name, recording(name))
    points = [_point_config(config, x) for x in config.sweep]
    engine = sim._simulate_wave(points, 0, trials)

    code = ostbc_code(*config.code)
    t_len, n_rx, n_tx = code.block_len, config.channel.n_rx, config.channel.n_tx
    chain = [[] for _ in points]
    for prefix in prefixes:
        bits, w = prefix["bernoulli_bits"], prefix["receiver_noise"]
        x = prefix["encode_array"].reshape(-1, n_tx)
        h0 = prefix["apply_channel"][1].reshape(-1, n_rx, n_tx)
        for counts, pc in zip(chain, points):
            h = np.multiply(h0, path_gain(pc.channel))
            s_hat = combine_array(code, receive(h, x, w).reshape(-1, t_len, n_rx), h[::t_len])
            counts.append(np.count_nonzero(qpsk_demodulate(s_hat.ravel()).reshape(len(bits), -1) != bits, axis=1))
    return engine, [np.concatenate(c) for c in chain]


@pytest.mark.parametrize(
    "code, n_rx, fading, correlation", _GAIN_SHAPES,
    ids=[f"{c[0]}x{c[1]}-nr{r}-{f.model.value}" for c, r, f, _ in _GAIN_SHAPES],
)
def test_gain_sweep_counts_equal_the_per_point_chain(code, n_rx, fading, correlation, monkeypatch):
    """100,800 symbol decisions a shape: 1,200 trials of 12 symbols at 7
    gains from -12 to 6 dB, at 10 dB SNR. The number of trial-points whose
    counts differ must be zero."""
    config = _gain_config(code, n_rx, fading, correlation, GAINS_DB)
    engine, chain = _engine_and_per_point_chain(config, GAIN_TRIALS, monkeypatch)
    differing = sum(int(np.count_nonzero(a != b)) for a, b in zip(engine, chain))
    assert differing == 0
    # The census is not vacuous: errors at the low points, fewer at the high.
    totals = [int(c.sum()) for c in chain]
    assert totals[0] > 0 and totals[-1] < totals[0]


@pytest.mark.filterwarnings("error")
def test_extreme_gains_count_as_the_per_point_chain(monkeypatch):
    """A sweep at -MAX_PATH_GAIN_DB, 0 and +MAX_PATH_GAIN_DB counts as the
    per-point chain does, and warns of nothing.

    combine_array raises on a block whose channel has ||h||^2 < 1e-300.
    The per-point chain combines under g H0 and so tests g^2 ||H0||^2;
    the engine combines under H0 and tests ||H0||^2 itself. A path gain
    lies within MAX_PATH_GAIN_DB = 1000 dB, so g = 10^(dB / 20) lies in
    [1e-50, 1e50] and g^2 in [1e-100, 1e100]: the chain raises where
    ||H0||^2 < 1e-300 / g^2, a bound between 1e-400 and 1e-200, and the
    engine where ||H0||^2 < 1e-300. The two rules therefore part only on
    a block with ||H0||^2 < 1e-200, which a unit-power fading channel of
    at least one link reaches with probability of order 1e-200. At
    -1000 dB the signal is lost under the noise and at +1000 dB the
    noise under the signal: the counts are those of a coin toss and zero."""
    config = _gain_config((4, Fraction(3, 4)), 2, _RAYLEIGH, 0.0, (-MAX_PATH_GAIN_DB, 0.0, MAX_PATH_GAIN_DB))
    engine, chain = _engine_and_per_point_chain(config, 200, monkeypatch)
    assert all(np.array_equal(a, b) for a, b in zip(engine, chain))
    lost, _, clean = (int(c.sum()) for c in chain)
    assert 0.4 < lost / (200 * GAIN_FRAME_BITS) < 0.6 and clean == 0


# (id, experiment, code, n_rx, fading, path gain in dB, sweep, trials):
# 100,000 trial-points a shape, of 24-bit frames at 10 dB SNR, under the
# Taylor plans (256, 9) at 1 MHz, (128, 11) at 200 kHz, and (512, 8),
# (512, 9) and (256, 9) at the Dopplers of 25 to 100 Hz at 1 MHz.
_FADING_SHAPES = [
    ("gain-4x3/4-nr4-1MHz", Experiment.FER_VS_GAIN, (4, Fraction(3, 4)), 4, FadingSpec(), 0.0,
     tuple(float(g) for g in range(-20, 0)), 5000),
    ("gain-2x1-nr1-200kHz", Experiment.FER_VS_GAIN, (2, Fraction(1)), 1, FadingSpec(sample_rate_hz=2e5), 0.0,
     tuple(float(g) for g in range(-12, 8)), 5000),
    ("doppler-2x1-nr2-rician", Experiment.FER_VS_DOPPLER, (2, Fraction(1)), 2,
     FadingSpec(model=FadingModel.RICIAN, k_factor=4.0, los_doppler_hz=100.0), -5.0, (25.0, 50.0, 75.0, 100.0), 25000),
]


@pytest.fixture(scope="module", params=_FADING_SHAPES, ids=[shape[0] for shape in _FADING_SHAPES])
def fading_chain(request):
    """A FER chain's point configs and trials, and the engine's per-trial
    bit-error counts at each point."""
    _, experiment, code, n_rx, spec, gain_db, sweep, trials = request.param
    config = SimConfig(
        experiment=experiment, code=code, frame_bits=GAIN_FRAME_BITS, sweep=sweep, master_seed=SEED,
        channel=ChannelSpec(n_tx=code[0], n_rx=n_rx, fading=spec, path_gain_db=gain_db),
    )
    config.validate()
    points = [_point_config(config, x) for x in sweep]
    assert all(block_plan(pc.channel.fading).mode == "taylor" for pc in points)
    return points, trials, sim._simulate_wave(points, 0, trials)


def _differing(fading_chain) -> int:
    # The trial-points whose counts differ from the engine's, when the chain
    # runs again under the test's patches.
    points, trials, engine = fading_chain
    chain = sim._simulate_wave(points, 0, trials)
    # The census is not vacuous: the chain has errors to flip.
    assert sum(int(c.sum()) for c in chain) > 0
    return sum(int(np.count_nonzero(a != b)) for a, b in zip(engine, chain))


def test_taylor_contractions_count_as_the_loops(fading_chain, monkeypatch):
    """The loops in place of the contractions: the number of trial-points
    whose counts differ must be zero."""
    monkeypatch.setattr(fading, "_block_sums", taylor_block_sums_loops)
    assert _differing(fading_chain) == 0


def _one_ulp(ufunc, rng, called: set):
    """ufunc, with each float64 of its output array (a complex128 output's
    real and imaginary parts) moved by one ulp, up or down by a coin of
    rng; its name goes into called."""

    def moved(*args, **kwargs):
        called.add(ufunc.__name__)
        result = ufunc(*args, **kwargs)
        parts = result.view(np.float64)
        np.nextafter(parts, np.where(rng.random(parts.shape) < 0.5, np.inf, -np.inf), out=parts)
        return result

    return moved


def test_one_ulp_of_the_transcendentals_flips_no_trial(fading_chain, monkeypatch):
    """The chain with np.cos, np.sin, np.exp and np.log1p each one ulp off:
    the number of trial-points whose counts differ must be zero. The
    fading and the noise call all but np.exp, which the Rician
    line-of-sight phasor calls."""
    rng, called = np.random.default_rng(SEED), set()
    for name in ("cos", "sin", "exp", "log1p"):
        monkeypatch.setattr(np, name, _one_ulp(getattr(np, name), rng, called))
    assert _differing(fading_chain) == 0
    points = fading_chain[0]
    assert called == {"cos", "sin", "log1p"} | ({"exp"} if points[0].channel.fading.k_factor else set())
