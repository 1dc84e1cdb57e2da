"""Monte Carlo rates against textbook closed forms.

The other gates compare the code with itself: run_wave and run_frame share
every kernel, and the golden digests pin bytes. A closed form does not
depend on the code path, so it catches a wrong normalisation in a shared
kernel that those gates would reproduce.

ZF over i.i.d. Rayleigh: with n_rx >= n_tx, the post-ZF SNR of each stream
is Gamma distributed with order L = n_rx - n_tx + 1, so the QPSK bit error
rate is the L-branch maximal-ratio formula (Proakis, Digital
Communications) at a mean bit SNR of snr / (2 n_tx): each antenna sends
1/n_tx of the unit power, and a QPSK symbol carries two bits.
The channel is exact complex Gaussian, so no model-bias term is added.
"""

import math

import numpy as np
import pytest
from scipy import integrate, special, stats

from mimolink.channel import ChannelSpec
from mimolink.detect import DetectorKind
from mimolink.sim import Experiment, SimConfig, run_wave

# Fixed before the first run; a miss is a finding, not a reason to re-seed.
SEED = 1
FRAMES = 3000
FRAME_BITS = 120

# Two-sided 99.9% normal quantile.
Z999 = 3.2905267314919255


def zf_rayleigh_ber(snr_db: float, n_tx: int, n_rx: int) -> float:
    """Closed-form QPSK bit error rate of ZF over i.i.d. Rayleigh."""
    L = n_rx - n_tx + 1
    gamma = 10.0 ** (snr_db / 10.0) / (2 * n_tx)
    mu = math.sqrt(gamma / (1.0 + gamma))
    return ((1.0 - mu) / 2.0) ** L * sum(
        math.comb(L - 1 + k, k) * ((1.0 + mu) / 2.0) ** k for k in range(L)
    )


# (n_tx, n_rx, snr_db, closed form to four digits).
CASES = [
    (4, 4, 8.0, 0.1680),
    (4, 4, 12.0, 0.0924),
    (4, 4, 16.0, 0.0437),
    (2, 4, 4.0, 0.0501),
    (2, 4, 8.0, 0.0109),
]


@pytest.mark.parametrize("n_tx, n_rx, snr_db, rounded", CASES)
def test_closed_form_equals_quadrature(n_tx, n_rx, snr_db, rounded):
    """The closed form equals E[Q(sqrt(2 g))] with g ~ Gamma(L, mean bit SNR)."""
    L = n_rx - n_tx + 1
    scale = 10.0 ** (snr_db / 10.0) / (2 * n_tx)

    def integrand(g):
        return 0.5 * special.erfc(math.sqrt(g)) * stats.gamma.pdf(g, L, scale=scale)

    quad, _ = integrate.quad(integrand, 0.0, np.inf, epsabs=1e-13)
    closed = zf_rayleigh_ber(snr_db, n_tx, n_rx)
    assert closed == pytest.approx(quad, rel=1e-8)
    assert round(closed, 4) == rounded


@pytest.mark.parametrize("n_tx, n_rx, snr_db, rounded", CASES)
def test_zf_ber_matches_closed_form(n_tx, n_rx, snr_db, rounded):
    """The simulated BER lies within a 99.9% interval of the closed form.
    The interval comes from the per-frame bit-error counts: frames are
    independent, but the bits within a frame share channels."""
    config = SimConfig(
        experiment=Experiment.BER_VS_SNR,
        channel=ChannelSpec(n_tx=n_tx, n_rx=n_rx),
        code=None,
        detector=DetectorKind.ZF,
        frame_bits=FRAME_BITS,
        snr_db=snr_db,
        sweep=(snr_db,),
        max_frames=FRAMES,
        master_seed=SEED,
    )
    config.validate()
    rates = run_wave(config, 0, FRAMES) / FRAME_BITS
    half = Z999 * rates.std(ddof=1) / math.sqrt(FRAMES)
    expected = zf_rayleigh_ber(snr_db, n_tx, n_rx)
    assert abs(rates.mean() - expected) <= half, (rates.mean(), expected, half)
