"""Monte Carlo rates against textbook closed forms.

The other gates compare the code with itself: the engine's chunks and
run_frame share every kernel, and the golden digests pin bytes. A closed
form does not depend on the code path, so it catches a wrong normalisation
in a shared kernel that those gates would reproduce.

ZF over i.i.d. Rayleigh: with n_rx >= n_tx, the post-ZF SNR of each stream
is Gamma distributed with order L = n_rx - n_tx + 1, so the QPSK bit error
rate is the L-branch maximal-ratio formula (Proakis, Digital
Communications) at a mean bit SNR of snr / (2 n_tx): each antenna sends
1/n_tx of the unit power, and a QPSK symbol carries two bits.
The channel is exact complex Gaussian, so no model-bias term is added.

OSTBC over i.i.d. Rayleigh (correlation none), quasi-static: at fs = 1 MHz
and f_d = 100 Hz a frame of 24 bits spans at most 16 rows, over which the
channel turns by under 0.011 rad. The code's X^H X = (sum |s|^2 / N_t) I
makes the combiner's output, per real dimension, the symbol's +-1/sqrt2
scaled by ||H||_F / sqrt(N_t) in real noise of variance noise_var / 2, so
each Gray-mapped bit errs with probability Q(sqrt(gamma)) at
gamma = ||H||_F^2 / (N_t noise_var), independently given gamma, and

    FER = E[1 - (1 - Q(sqrt(gamma)))^frame_bits],  ||H||_F^2 ~ Gamma(n_tx n_rx)

for unit-power Gaussian links times the path gain. The scale is derived,
not fitted. The simulated links are sums of M = 32 sinusoids, whose gain
at any one time has quadratures X = sum_i cos(phi_i) / sqrt(M) with
independent uniform phases: characteristic function J0(t / sqrt(M))^M
against the Gaussian's exp(-t^2 / 4). The model-bias allowance of each
point is the FER that law gives minus the Gaussian's, both on one grid
(see _grid_fer), so the grid's own error cancels. Correlated channels,
Rician links and the other codes are left to the acceptance criteria.
"""

import math
from fractions import Fraction

import numpy as np
import pytest
from scipy import integrate, special, stats

from mimolink.channel import ChannelSpec
from mimolink.detect import DetectorKind
from mimolink.fading import FadingSpec
from mimolink.sim import Experiment, SimConfig, _simulate_wave, run_experiment

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
    rates = _simulate_wave([config], 0, FRAMES)[0] / FRAME_BITS
    half = Z999 * rates.std(ddof=1) / math.sqrt(FRAMES)
    expected = zf_rayleigh_ber(snr_db, n_tx, n_rx)
    assert abs(rates.mean() - expected) <= half, (rates.mean(), expected, half)


# OSTBC FER gate, fixed before the first run like the ZF cases above:
# (code, n_rx, path gains in dB, frames), at snr_db 10 and seed SEED.
FER_FRAME_BITS = 24
FER_SNR_DB = 10.0
FER_CASES = [
    ((2, Fraction(1)), 1, (-4.0, 0.0, 4.0), 16_000),
    ((4, Fraction(3, 4)), 4, (-12.0, -10.0, -8.0, -6.0), 6_000),
]
FER_IDS = ["2x1", "4x3/4"]
SINUSOIDS = FadingSpec().num_sinusoids


def _frame_error(gamma, frame_bits: int):
    """1 - (1 - Q(sqrt(gamma)))^frame_bits."""
    p = 0.5 * special.erfc(np.sqrt(gamma / 2.0))
    return -np.expm1(frame_bits * np.log1p(-p))


def _fer_scale(n_tx: int, gain_db: float) -> float:
    """gamma / ||U||_F^2 for unit-power links U: g^2 / (N_t noise_var)."""
    return 10.0 ** ((gain_db + FER_SNR_DB) / 10.0) / n_tx


def ostbc_rayleigh_fer(n_links: int, scale: float, frame_bits: int) -> float:
    """E[_frame_error(scale * S)] over S ~ Gamma(n_links), by quadrature."""

    def integrand(s):
        return _frame_error(scale * s, frame_bits) * stats.gamma.pdf(s, n_links)

    return integrate.quad(integrand, 0.0, np.inf, epsabs=1e-12, limit=200)[0]


def _sos_cf(t):
    return special.j0(t / math.sqrt(SINUSOIDS)) ** SINUSOIDS


def _gauss_cf(t):
    return np.exp(-t * t / 4.0)


def _grid_fer(cf, n_links: int, scales, frame_bits: int, dw: float = 0.01) -> np.ndarray:
    """E[_frame_error(scale * S)] at each scale, S the sum of 2 n_links
    independent X^2, X symmetric with characteristic function cf and
    |X| <= sqrt(M). The CDF of X is Gil-Pelaez's integral by the trapezoid
    rule, exact up to rounding for a law of that support at a step of
    0.05; the masses of X^2 in bins of dw sit at the bins' midpoints, and
    an FFT power sums the 2 n_links of them."""
    edges = np.arange(0.0, SINUSOIDS + dw / 2, dw)
    x = np.sqrt(edges)
    dt = 0.05
    t = np.arange(1, 1201) * dt
    cdf = 0.5 + dt / math.pi * (x / 2.0 + (cf(t) / t) @ np.sin(np.outer(t, x)))
    masses = np.diff(2.0 * cdf - 1.0)
    size = 2 * n_links * len(masses)
    total = np.fft.irfft(np.fft.rfft(masses, size) ** (2 * n_links), size)
    s = (np.arange(size) + n_links) * dw
    return np.array([total @ _frame_error(scale * s, frame_bits) for scale in scales])


@pytest.mark.parametrize("code, n_rx, gains, frames", FER_CASES, ids=FER_IDS)
def test_grid_law_matches_gamma_quadrature(code, n_rx, gains, frames):
    """On Gaussian links the grid gives the quadrature's FER to 1e-3."""
    n_links = code[0] * n_rx
    scales = [_fer_scale(code[0], g) for g in gains]
    grid = _grid_fer(_gauss_cf, n_links, scales, FER_FRAME_BITS)
    quad = [ostbc_rayleigh_fer(n_links, a, FER_FRAME_BITS) for a in scales]
    np.testing.assert_allclose(grid, quad, rtol=0.0, atol=1e-3)


@pytest.mark.parametrize("code, n_rx, gains, frames", FER_CASES, ids=FER_IDS)
def test_ostbc_fer_matches_closed_form(code, n_rx, gains, frames):
    """Each point of one gain sweep lies within a 99.9% interval of the
    Gaussian-link FER, widened by the M = 32 model-bias allowance. The
    interval comes from the per-frame error indicators: frames are
    independent."""
    n_tx = code[0]
    config = SimConfig(
        experiment=Experiment.FER_VS_GAIN,
        channel=ChannelSpec(n_tx=n_tx, n_rx=n_rx, fading=FadingSpec(max_doppler_hz=100.0, sample_rate_hz=1e6)),
        code=code,
        frame_bits=FER_FRAME_BITS,
        snr_db=FER_SNR_DB,
        sweep=gains,
        max_frames=frames,
        target_frame_errors=frames,
        master_seed=SEED,
    )
    scales = [_fer_scale(n_tx, g) for g in gains]
    n_links = n_tx * n_rx
    bias = np.abs(
        _grid_fer(_sos_cf, n_links, scales, FER_FRAME_BITS) - _grid_fer(_gauss_cf, n_links, scales, FER_FRAME_BITS)
    )
    for point, scale, allowance in zip(run_experiment(config).points, scales, bias):
        assert point.frames == frames
        fer = point.fer
        half = Z999 * math.sqrt(fer * (1.0 - fer) / (frames - 1))
        expected = ostbc_rayleigh_fer(n_links, scale, FER_FRAME_BITS)
        assert abs(fer - expected) <= half + allowance, (point.x, fer, expected, half, allowance)
