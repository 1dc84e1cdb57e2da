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
differs is a finding, not a reason to pick another seed."""

import math

import numpy as np
import pytest

from mimolink import sim
from mimolink.channel import ChannelSpec
from mimolink.detect import DetectorKind, zf_estimate_batch
from mimolink.modem import qpsk_demodulate
from mimolink.sim import Experiment, SimConfig, _point_config

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
    engine = sim._simulate_range(points, 0, TRIALS)
    name, oracle = _ORACLES[detector]
    monkeypatch.setattr(sim, name, oracle)
    chain = sim._simulate_range(points, 0, TRIALS)
    differing = sum(int(np.count_nonzero(a != b)) for a, b in zip(engine, chain))
    assert differing == 0
    # The census is not vacuous: errors at the low points, fewer at the high.
    totals = [int(c.sum()) for c in chain]
    assert totals[0] > 0 and totals[-1] < totals[0]
