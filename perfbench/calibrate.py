"""Host-speed calibration kernel.

The benchmark may share its host with other machines' work. On a shared
2-vCPU Xeon (2.1 GHz) virtual machine the speed of each CPU drifted
independently, and the whole host went through slow spells of several
minutes in which the same operations ran 35-50% slower, which a run of
tens of seconds cannot average out. So each timed operation is bracketed
by this fixed kernel, on the same CPU, and its times are rescaled to the
host speed at which the kernel takes REFERENCE_S:

    adjusted = measured * REFERENCE_S / (mean kernel time around the op)

The kernel uses only numpy and the interpreter, never mimolink, so no
change to the program can move it. Its mix follows the program's costs:
short-array numpy calls with Philox stream construction (per-frame work),
long-array cosines, 65,536 x 16 outer-product cosines as fading synthesis
computes them for a long chunk (memory-bound, and the largest cost of the
fading workloads), batched 4x4 complex solves (detectors) and plain Python
calls (glue).

Set-up time (a fresh interpreter up to the first frame) is mostly process
start and imports, which the host's slow spells stretch differently from
numpy arithmetic. So each set-up probe is rescaled by START_KERNEL, a fresh
interpreter that imports numpy and nothing of mimolink, started on the same
CPU just before the probe:

    adjusted set-up = measured * REFERENCE_START_S / START_KERNEL's time
"""

from time import perf_counter

import numpy as np

# Kernel time, in seconds, that defines the reference host speed.
REFERENCE_S = 0.18

# Start-up kernel for set-up times, and its time at the reference speed.
START_KERNEL = "import time, numpy; print(repr(time.perf_counter()))"
REFERENCE_START_S = 0.13

_PHASES = np.linspace(0.0, 100.0, 1 << 16)
_TIMES = np.arange(1 << 16) / 256.0
_ANGLES = np.linspace(0.1, 3.0, 16)
_GRAMS = (np.arange(256 * 16).reshape(256, 4, 4) % 7 + 9.0 * np.eye(4)).astype(np.complex128)
_RHS = np.ones((256, 4, 1), dtype=np.complex128)


def _step(i: int) -> int:
    return 3 * i + 1


def kernel_s() -> float:
    """Time one pass of the fixed kernel."""
    t0 = perf_counter()
    for i in range(160):
        gen = np.random.Generator(np.random.Philox(key=[i, 7]))
        u = gen.random(96)
        arg = np.outer(np.arange(80) * 1e-6, np.cos(u[:32])) * 600.0 + u[32:64]
        g = np.cos(arg).sum(axis=1) + 1j * np.cos(arg + u[64:]).sum(axis=1)
        h = g[:64].reshape(16, 2, 2)
        x = np.linalg.solve(h.conj().swapaxes(-1, -2) @ h + np.eye(2), np.ones((16, 2, 1)))
        np.count_nonzero(np.abs(np.einsum("nrt,nt->nr", h, x[..., 0])) < 1.0)
    for k in range(32):
        np.cos(_PHASES * (1.0 + 1e-3 * k)).sum()
    for k in range(2):
        np.cos(600.0 * np.outer(_TIMES, np.cos(_ANGLES + k)) + _ANGLES).sum(axis=1)
    for _ in range(60):
        np.linalg.solve(_GRAMS, _RHS)
    acc = 0
    for i in range(120_000):
        acc = _step(acc + i) & 0xFFFF
    return perf_counter() - t0
