"""Deterministic link-level MIMO simulator.

Transmit chain: Bernoulli bit source, Gray QPSK, orthogonal space-time
block coding over 2 to 4 transmit antennas. Channel: sum-of-sinusoids
Rayleigh or Rician fading per antenna pair with Doppler, exponential
spatial correlation, path gain, and AWGN. Receive chain: OSTBC combining
plus ZF/MMSE/ML detectors for the uncoded spatial-multiplexing benchmark.
A Monte Carlo harness sweeps path gain, Doppler, sample rate, or SNR and
writes FER/BER curves with Wilson confidence intervals to CSV, with
bit-identical results for any seed regardless of worker count.

The package root holds no API: import from the submodules, such as
mimolink.cli (the command line) and mimolink.sim (the engine).
"""

__version__ = "0.1.0"
