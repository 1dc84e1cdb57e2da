"""Statistical and structural tests for the sum-of-sinusoids fading models."""

import inspect
import math
import tracemalloc

import mpmath
import numpy as np
import pytest
from scipy import stats as sps

from mimolink import numerics
from mimolink.fading import (
    K_AWGN_SENTINEL,
    MAX_BLOCK_TURN,
    MAX_TABLE,
    MAX_VALIDATION_SAMPLES,
    MIN_VALIDATION_SAMPLES,
    ROTATION_BLOCK,
    TAYLOR_TOL,
    EnvelopeStats,
    FadingModel,
    FadingProcess,
    FadingSpec,
    _anchor_phases,
    _block_sums,
    _rotation_tables,
    _taylor_weights,
    _tile_elements,
    block_plan,
    check_validation_samples,
    fading_angles,
    fading_init,
    fading_next,
    link_gains,
    ks_statistic,
    pdf_envelope_rician,
    rician_envelope_cdf_grid,
    validate_process,
)
from mimolink.numerics import RngStream, bessel_i0e

# fs / f_d = 2.56 decorrelates successive samples quickly, which keeps the
# effective sample count high for the distributional tests below.
FAST_SPEC = FadingSpec(model=FadingModel.RAYLEIGH, max_doppler_hz=100.0, sample_rate_hz=256.0)


def test_spec_validation():
    with pytest.raises(ValueError):
        FadingSpec(model=FadingModel.RAYLEIGH, num_sinusoids=7).validate()
    with pytest.raises(ValueError):
        FadingSpec(model=FadingModel.RAYLEIGH, max_doppler_hz=100.0, sample_rate_hz=150.0).validate()
    with pytest.raises(ValueError):
        FadingSpec(model=FadingModel.RICIAN, k_factor=-1.0).validate()
    with pytest.raises(ValueError):
        FadingSpec(model=FadingModel.RICIAN, k_factor=float("nan")).validate()
    # k_factor is simply ignored for Rayleigh, not an error
    FadingSpec(model=FadingModel.RAYLEIGH, k_factor=3.0).validate()
    # Every parameter must be finite. NaN compares false, so the Nyquist
    # test alone lets a NaN sample rate or LOS Doppler through.
    for name in ("sample_rate_hz", "los_doppler_hz", "los_phase_rad", "k_factor"):
        for bad in (math.nan, math.inf, -math.inf):
            with pytest.raises(ValueError, match=name):
                FadingSpec(**{"model": FadingModel.RICIAN, "k_factor": 4.0, name: bad}).validate()
    with pytest.raises(ValueError):
        FadingSpec(max_doppler_hz=math.inf).validate()
    # A link_gains tile holds one link-sample's M sinusoids.
    FadingSpec(num_sinusoids=numerics.CHUNK_ELEMENTS).validate()
    with pytest.raises(ValueError, match="num_sinusoids"):
        FadingSpec(num_sinusoids=numerics.CHUNK_ELEMENTS + 1).validate()


def test_init_angle_structure():
    proc = fading_init(FAST_SPEC, RngStream(1, 0))
    m = FAST_SPEC.num_sinusoids
    assert proc.alphas.shape == proc.psis.shape == proc.thetas.shape == (m,)
    assert np.all(proc.alphas >= 0.0) and np.all(proc.alphas < np.pi / 2)
    assert np.all(np.diff(proc.alphas) > 0.0)
    for phases in (proc.psis, proc.thetas):
        assert np.all(phases >= -np.pi) and np.all(phases < np.pi)
    assert proc.sample_index == 0


def test_init_draw_order_is_fixed():
    """One uniform for the arrival-angle offset, then M + M for the phases."""
    proc = fading_init(FAST_SPEC, RngStream(77, 5))
    u = RngStream(77, 5).uniform(1 + 2 * FAST_SPEC.num_sinusoids)
    m = FAST_SPEC.num_sinusoids
    theta = -math.pi + 2.0 * math.pi * u[0]
    np.testing.assert_allclose(proc.psis, -np.pi + 2.0 * np.pi * u[1 : m + 1], rtol=1e-15)
    np.testing.assert_allclose(proc.thetas, -np.pi + 2.0 * np.pi * u[m + 1 :], rtol=1e-15)
    expected_alphas = (2.0 * np.pi * np.arange(1, m + 1) - np.pi + theta) / (4.0 * m)
    np.testing.assert_allclose(proc.alphas, expected_alphas, rtol=1e-15)


def test_deterministic_and_stream_separated():
    a = fading_next(fading_init(FAST_SPEC, RngStream(3, 10)), 512)
    b = fading_next(fading_init(FAST_SPEC, RngStream(3, 10)), 512)
    np.testing.assert_array_equal(a, b)
    c = fading_next(fading_init(FAST_SPEC, RngStream(3, 11)), 512)
    assert not np.array_equal(a, c)


def test_seamless_continuation_across_calls_and_chunks():
    proc = fading_init(FAST_SPEC, RngStream(8, 1))
    split = np.concatenate([fading_next(proc, 35_000), fading_next(proc, 35_000)])
    whole = fading_next(fading_init(FAST_SPEC, RngStream(8, 1)), 70_000)
    np.testing.assert_array_equal(split, whole)  # 70000 also crosses a chunk edge


def _outer_product_gains(proc, t):
    """The sum of sinusoids written out with whole (n, M) outer products."""
    spec = proc.spec
    wd = 2.0 * np.pi * spec.max_doppler_hz
    arg_re = wd * np.outer(t, np.cos(proc.alphas)) + proc.psis
    arg_im = wd * np.outer(t, np.sin(proc.alphas)) + proc.thetas
    scale = 1.0 / math.sqrt(spec.num_sinusoids)
    g = scale * (np.cos(arg_re).sum(axis=1) + 1j * np.cos(arg_im).sum(axis=1))
    if spec.model is FadingModel.RICIAN:
        k = spec.k_factor
        los = math.sqrt(k / (k + 1.0)) * np.exp(
            1j * (2.0 * np.pi * spec.los_doppler_hz * t + spec.los_phase_rad)
        )
        g = los + math.sqrt(1.0 / (k + 1.0)) * g
    return g


def _mp_gains(spec, alphas, psis, thetas, samples):
    """The gains of (B, M) angle tables at the given sample indices, in
    120-bit arithmetic, taking every float64 input as exact and the sample
    time as exactly n / fs."""
    mpmath.mp.prec = 120
    fs, wd = mpmath.mpf(spec.sample_rate_hz), mpmath.mpf(2.0 * np.pi * spec.max_doppler_hz)
    k = mpmath.mpf(spec.k_factor)
    out = np.empty((len(alphas), len(samples)), dtype=np.complex128)
    for b, (alpha, psi, theta) in enumerate(zip(alphas, psis, thetas)):
        quads = [[(mpmath.mpf(f), mpmath.mpf(p)) for f, p in zip(fn(alpha), ph)]
                 for fn, ph in ((np.cos, psi), (np.sin, theta))]
        for i, n in enumerate(samples):
            t = mpmath.mpf(int(n)) / fs
            re, im = (mpmath.fsum(mpmath.cos(t * f * wd + p) for f, p in q) for q in quads)
            g = mpmath.mpc(re, im) / mpmath.sqrt(spec.num_sinusoids)
            if spec.model is FadingModel.RICIAN:
                los_phase = 2 * mpmath.pi * mpmath.mpf(spec.los_doppler_hz) * t + mpmath.mpf(spec.los_phase_rad)
                g = mpmath.sqrt(k / (k + 1)) * mpmath.expj(los_phase) + g / mpmath.sqrt(k + 1)
            out[b, i] = complex(g)
    return out


def _error_bound_holds(spec, u, start, n, samples):
    """link_gains from sample start is within the block kernels' accuracy
    bound at the given samples: its deviation from the 120-bit reference is
    at most twice the direct sum's, plus 1e-14. At large t both are limited
    by the rounding of the phase arguments, which the factor 2 allows for;
    near t = 0 the 1e-14 covers a Taylor block's truncation and the
    rounding of its polynomial or of a rotation block's products."""
    angles = fading_angles(spec, u)
    blocks = link_gains(spec, *angles, start, n)[:, samples - start]
    procs = [FadingProcess(spec, *fading_angles(spec, row)) for row in u]
    direct = np.stack([_outer_product_gains(p, samples / spec.sample_rate_hz) for p in procs])
    ref = _mp_gains(spec, *angles, samples)
    blocks_err, direct_err = np.max(np.abs(blocks - ref)), np.max(np.abs(direct - ref))
    assert blocks_err <= 2.0 * direct_err + 1e-14, (blocks_err, direct_err)


@pytest.mark.parametrize("spec", [
    FAST_SPEC,
    FadingSpec(model=FadingModel.RICIAN, k_factor=4.0, los_doppler_hz=100.0, los_phase_rad=0.3),
    # Too many sinusoids for the rotation tables: the direct sum.
    FadingSpec(sample_rate_hz=256.0, num_sinusoids=MAX_TABLE // (2 * (ROTATION_BLOCK + 2)) + 1),
])
def test_link_gains_tiles_match_outer_products(spec, monkeypatch):
    """Every tiling of links and samples gives the same bytes, and so does
    fading_next, link by link and over a batched process. Where the plan
    is the direct sum (M above the rotation tables' cap) those are the
    reference bytes; where it is rotation blocks (fs = 256) or Taylor
    blocks (fs = 1 MHz) they keep the accuracy bound against the 120-bit
    reference."""
    n, draws = 300, 1 + 2 * spec.num_sinusoids
    u = np.stack([RngStream(6, sid).uniform(draws) for sid in range(5)])
    procs = [fading_init(spec, RngStream(6, sid)) for sid in range(5)]
    expected = link_gains(spec, *fading_angles(spec, u), 0, n)
    for budget in (1, 40, spec.num_sinusoids * 7, 10**9):
        monkeypatch.setattr(numerics, "CHUNK_ELEMENTS", budget)
        np.testing.assert_array_equal(link_gains(spec, *fading_angles(spec, u), 0, n), expected)
        batch = FadingProcess(spec, *fading_angles(spec, u.reshape(1, 5, draws)))
        np.testing.assert_array_equal(fading_next(batch, n), expected[None])
    np.testing.assert_array_equal(np.stack([fading_next(p, n) for p in procs]), expected)
    if block_plan(spec).mode == "direct":
        t = np.arange(n) / spec.sample_rate_hz
        np.testing.assert_array_equal(expected, np.stack([_outer_product_gains(p, t) for p in procs]))
    else:
        _error_bound_holds(spec, u[:2], 0, n, np.arange(0, n, 13))


@pytest.mark.parametrize("model, k_factor", [
    pytest.param(FadingModel.RAYLEIGH, 4.0, id="FadingModel.RAYLEIGH"),
    pytest.param(FadingModel.RICIAN, 4.0, id="FadingModel.RICIAN"),
    # Above K_AWGN_SENTINEL: the line-of-sight phasor alone.
    pytest.param(FadingModel.RICIAN, 1e12, id="awgn-limit"),
])
@pytest.mark.parametrize("fs, links, n, budget", [
    (256.0, 1, 10**6, None),
    (1e6, 1, 10**6, None),
    (1e6, 48, 80, None),
    (1e4, 48, 80, None),
    # A budget below one link's block: the tiles hold one link's block.
    (1e4, 48, 80, 2000),
    (1e6, 16, 10**5, None),
])
def test_link_gains_scratch_stays_within_the_budget(fs, links, n, budget, model, k_factor, monkeypatch):
    """One link_gains call allocates, besides its gains, at most
    numerics.CHUNK_ELEMENTS float64 elements, numpy's iterator buffers
    included, or one link's block where that is larger: long single-link
    calls at a rotation and a Taylor plan, calls of 48 links by 80
    samples, three 4x4 FER frames, and of 16 links by 1e5 samples, at the
    AWGN limit too."""
    if budget is not None:
        monkeypatch.setattr(numerics, "CHUNK_ELEMENTS", budget)
    spec = FadingSpec(sample_rate_hz=fs, model=model, k_factor=k_factor, los_doppler_hz=100.0)
    angles = fading_angles(spec, np.stack([RngStream(13, sid).uniform(1 + 2 * spec.num_sinusoids) for sid in range(links)]))
    link_gains(spec, *angles, 0, 100)  # fills the plan cache
    tracemalloc.start()
    try:
        gains = link_gains(spec, *angles, 0, n)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak - gains.nbytes <= 8 * max(numerics.CHUNK_ELEMENTS, sum(_tile_elements(spec, 0, n)))


def test_awgn_limit_tiles_keep_the_bytes(monkeypatch):
    """Above K_AWGN_SENTINEL the phasor is built in tiles of samples; every
    tiling, from a start off the tile grid, gives the bytes of one tile."""
    spec = FadingSpec(sample_rate_hz=1e4, model=FadingModel.RICIAN, k_factor=1e12,
                      los_doppler_hz=37.0, los_phase_rad=0.3)
    angles = fading_angles(spec, np.stack([RngStream(14, sid).uniform(1 + 2 * spec.num_sinusoids) for sid in range(3)]))
    expected = link_gains(spec, *angles, 12_345, 2_001)
    for budget in (1, 6, 600, 10**9):
        monkeypatch.setattr(numerics, "CHUNK_ELEMENTS", budget)
        np.testing.assert_array_equal(link_gains(spec, *angles, 12_345, 2_001), expected)


@pytest.mark.parametrize("fs", [1e6, 1e5, 1e4, 256.0, 1e3, 2560.0])
@pytest.mark.parametrize("start", [0, 10**5, 10**7])
def test_link_gains_matches_mpmath(fs, start):
    """The kernel against a 120-bit reference at f_d = 100 Hz, over two
    blocks and their edges, from t = 0 up to 10^7 samples: Taylor blocks
    at 100 kHz and 1 MHz, rotation blocks at 256 Hz to 10 kHz."""
    spec = FadingSpec(max_doppler_hz=100.0, sample_rate_hz=fs)
    length = block_plan(spec).length
    n = 2 * length + 3
    offsets = np.unique(np.r_[np.linspace(0, n - 1, 12).astype(int), length - 1, length, 2 * length])
    u = np.stack([RngStream(9, sid).uniform(1 + 2 * spec.num_sinusoids) for sid in range(2)])
    _error_bound_holds(spec, u, start, n, start + offsets[offsets < n])


@pytest.mark.parametrize("fs", [1e6, 1e4, 256.0, 1e3])
def test_taylor_blocks_are_seamless_and_tile_invariant(fs, monkeypatch):
    """Calls split at, next to and across block edges, and every tiling of
    a call that starts mid-block, give the same bytes as one call: Taylor
    blocks at 1 MHz, rotation blocks at 256 Hz to 10 kHz, whose tables a
    tile of several links shares."""
    spec = FadingSpec(max_doppler_hz=100.0, sample_rate_hz=fs)
    mode, length, order = block_plan(spec)
    assert length > 1 and (order > 0) == (mode == "taylor")
    n = 3 * length + 5
    whole = fading_next(fading_init(spec, RngStream(12, 0)), n)
    for cut in (length - 1, length, length + 1, 2 * length + 3):
        proc = fading_init(spec, RngStream(12, 0))
        np.testing.assert_array_equal(np.concatenate([fading_next(proc, cut), fading_next(proc, n - cut)]), whole)
    u = np.stack([RngStream(12, sid).uniform(1 + 2 * spec.num_sinusoids) for sid in range(3)])
    angles = fading_angles(spec, u)
    start = length // 2 + 1
    expected = link_gains(spec, *angles, start, n)
    per_link, per_block, _ = _tile_elements(spec, start, n)  # no line-of-sight term
    block = per_link + per_block
    for budget in (1, 40, block - 1, block, per_link + 2 * per_block + 1, per_link + 3 * per_block,
                   2 * (per_link + 4 * per_block), 10**9):
        monkeypatch.setattr(numerics, "CHUNK_ELEMENTS", budget)
        np.testing.assert_array_equal(link_gains(spec, *angles, start, n), expected)


@pytest.mark.parametrize("fs", [256.0, 1e3])
def test_rotation_runs_are_seamless_and_tile_invariant(fs, monkeypatch):
    """Rotation blocks turn the anchors of each run of ROTATION_BLOCK blocks
    (1,024 samples) from its first block's. Over three run edges, calls
    split at and next to them, or inside a run, and every tiling of a call
    that starts mid-run, tiles of a few blocks, of a run and a few blocks
    and of several runs among them, give the same bytes as one call."""
    spec = FadingSpec(max_doppler_hz=100.0, sample_rate_hz=fs)
    length = block_plan(spec).length
    run = length * ROTATION_BLOCK
    n = 3 * run + 77
    whole = fading_next(fading_init(spec, RngStream(18, 0)), n)
    for cuts in ((run - 1,), (run,), (run + 1,), (2 * run - 1, 2 * run + 1), (5, run + 40, run + 41, 3 * run)):
        proc = fading_init(spec, RngStream(18, 0))
        parts = [fading_next(proc, b - a) for a, b in zip((0, *cuts), (*cuts, n))]
        np.testing.assert_array_equal(np.concatenate(parts, axis=-1), whole)
    u = np.stack([RngStream(18, sid).uniform(1 + 2 * spec.num_sinusoids) for sid in range(3)])
    angles = fading_angles(spec, u)
    start = run // 2 + 7
    expected = link_gains(spec, *angles, start, n)
    per_link, per_block, shared = _tile_elements(spec, start, n)
    for blocks in (3, ROTATION_BLOCK + 5, 2 * ROTATION_BLOCK - 1):
        for links in (1, 2):
            monkeypatch.setattr(numerics, "CHUNK_ELEMENTS", links * per_link + blocks * (links * per_block + shared))
            np.testing.assert_array_equal(link_gains(spec, *angles, start, n), expected)


@pytest.mark.parametrize("fs", [256.0, 1e3])
@pytest.mark.parametrize("start", [0, 10**7 // 1024 * 1024])
def test_turned_anchors_match_mpmath(fs, start):
    """The kernel against a 120-bit reference at the blocks that a run
    turns least and most, r = 0, 1 and 31, and across the edge to the next
    run, from t = 0 and from about 10^7 samples on."""
    spec = FadingSpec(max_doppler_hz=100.0, sample_rate_hz=fs)
    length = block_plan(spec).length
    run = length * ROTATION_BLOCK
    offsets = np.array([0, length // 2, length - 1, length, length + 17, 2 * length - 1,
                        run - length, run - 9, run - 1, run, run + 1, run + length + 3])
    u = np.stack([RngStream(19, sid).uniform(1 + 2 * spec.num_sinusoids) for sid in range(2)])
    _error_bound_holds(spec, u, start, run + 2 * length, start + offsets)


def taylor_block_sums_loops(freqs, phases, wd, fs, plan, tables, lo, hi):
    """_block_sums's Taylor plan as loops, the kernel before its moments and
    polynomials became contractions: each moment mu_k a product of the
    cosines or sines with a running weight d_m^k / k! and a last-axis sum,
    negated where cos^(k) is, and then K steps of Horner's rule. tables
    (the contractions' weights) is not read."""
    mode, length, order = plan
    assert mode == "taylor"
    m = freqs.shape[-1]
    j0, j1 = lo // length, (hi - 1) // length + 1
    theta = np.empty((*freqs.shape[:-1], j1 - j0, m))
    _anchor_phases(freqs, phases, wd, fs, length, j0, j1, theta)
    sin = np.sin(theta) if order else None
    cos = np.cos(theta, out=theta)
    mu = np.empty((order + 1, *theta.shape[:-1]))
    np.sum(cos, axis=-1, out=mu[0])
    if order:
        weight = np.ones((*freqs.shape[:-1], 1, m))
        term = np.empty_like(theta)
        for k in range(1, order + 1):
            weight *= freqs[..., None, :]
            weight *= wd / fs / k
            np.multiply(sin if k % 2 else cos, weight, out=term)
            np.sum(term, axis=-1, out=mu[k])
            if k % 4 in (1, 2):
                np.negative(mu[k], out=mu[k])
    first = j0 * length + length // 2
    if j1 - j0 == 1:
        offsets, skip = np.arange(lo - first, hi - first, dtype=np.float64), 0
    else:
        offsets, skip = np.arange(-(length // 2), length - length // 2, dtype=np.float64), lo - j0 * length
    acc = np.repeat(mu[order][..., None], len(offsets), axis=-1)
    for k in range(order - 1, -1, -1):
        acc *= offsets
        acc += mu[k][..., None]
    return acc.reshape(*acc.shape[:-2], -1)[..., skip : skip + hi - lo]


def rotation_block_sums_direct_anchors(freqs, phases, wd, fs, plan, tables, lo, hi):
    """_block_sums's rotation plan with every block's anchor phases by trig,
    the kernel before a run's blocks turned its first block's anchors:
    the sines and cosines of _anchor_phases at every block, then the same
    contractions with the sample tables. The run table (tables[2:]) is
    not read."""
    mode, length, _ = plan
    assert mode == "rotation"
    m = freqs.shape[-1]
    j0, j1 = lo // length, (hi - 1) // length + 1
    half = length // 2
    trig = np.empty((2, *freqs.shape[:-1], j1 - j0, m))
    _anchor_phases(freqs, phases, wd, fs, length, j0, j1, trig[0])
    np.sin(trig[0], out=trig[1])
    np.cos(trig[0], out=trig[0])
    a = np.einsum("...jm,k...m->...jk", trig[0], tables[0])
    b = np.einsum("...jm,k...m->...jk", trig[1], tables[1])
    acc = np.empty((*a.shape[:-1], length))
    np.subtract(a[..., :half], b[..., :half], out=acc[..., half:])
    np.add(a[..., half:0:-1], b[..., half:0:-1], out=acc[..., :half])
    return acc.reshape(*acc.shape[:-2], -1)[..., lo - j0 * length : hi - j0 * length]


def _rotation_operands(fs, links, seed):
    # _block_sums's operands for the rotation plan at f_d = 100 Hz.
    spec = FadingSpec(max_doppler_hz=100.0, sample_rate_hz=fs)
    plan = block_plan(spec)
    assert plan.mode == "rotation"
    m = spec.num_sinusoids
    alphas, psis, thetas = fading_angles(spec, np.stack([RngStream(seed, sid).uniform(1 + 2 * m) for sid in range(links)]))
    freqs, phases = np.stack([np.cos(alphas), np.sin(alphas)]), np.stack([psis, thetas])
    wd = 2.0 * np.pi * spec.max_doppler_hz
    return freqs, phases, wd, fs, plan, _rotation_tables(freqs, wd / fs, plan.length, ROTATION_BLOCK)


@pytest.mark.parametrize("fs", [256.0, 1e3, 2560.0, 1e4])
@pytest.mark.parametrize("start", [0, 10**7])
def test_turned_anchors_stay_near_the_direct_anchors(fs, start):
    """The turned anchors' sums against the direct anchors' on 6 links,
    inside one block, over a whole run and across run edges from a start
    mid-run, from t = 0 and from 10^7 samples on. Both round the anchor
    phases, whose ulp grows with the phase: the sums may part by at most
    8 ulp of the largest anchor phase theta_max that the call reads, times
    sqrt(M). At every block at the start of a run (r = 0), and in a call
    inside such a block, they are equal bit for bit."""
    operands = _rotation_operands(fs, 6, 17)
    freqs, phases, wd, _, plan, _ = operands
    length, m = plan.length, freqs.shape[-1]
    run = length * ROTATION_BLOCK
    base = start // run * run
    # Inside block 0, a whole run, three run edges from mid-run, inside
    # block 32 (r = 0) and inside block 37 (r = 5).
    for lo, hi in ((5, 27), (0, run), (run // 2 + 3, 3 * run + 40), (run + 1, run + 31),
                   (run + 5 * length + 2, run + 5 * length + 20)):
        lo, hi = base + lo, base + hi
        sums, direct = _block_sums(*operands, lo, hi), rotation_block_sums_direct_anchors(*operands, lo, hi)
        assert sums.shape == direct.shape == (2, 6, hi - lo)
        j0, j1 = lo // run * ROTATION_BLOCK, (hi - 1) // length + 1
        theta = np.empty((2, 6, j1 - j0, m))
        _anchor_phases(freqs, phases, wd, fs, length, j0, j1, theta)
        bound = 8.0 * np.spacing(np.max(np.abs(theta))) * math.sqrt(m)
        assert np.max(np.abs(sums - direct)) <= bound, (np.max(np.abs(sums - direct)), bound)
        first = np.arange(lo, hi) // length % ROTATION_BLOCK == 0
        np.testing.assert_array_equal(sums[..., first].view(np.uint64), direct[..., first].view(np.uint64))
        if hi - lo < length and lo // length % ROTATION_BLOCK == 0:
            np.testing.assert_array_equal(sums.view(np.uint64), direct.view(np.uint64))


@pytest.mark.parametrize("fd, fs", [(25.0, 1e6), (50.0, 1e6), (100.0, 1e6), (100.0, 2e5), (100.0, 1e5)])
def test_taylor_sums_stay_near_the_loops(fd, fs):
    """The contractions' Taylor sums against the loops they replaced, on 6
    links, inside one block, over whole blocks and across block edges,
    from t = 0 and from 10^7 samples on. The two round differently: they
    may part by at most 5e-15 per unit of gain, 5e-15 sqrt(M) in a sum of
    M cosines (the gains parted by at most 1.2e-15 when this was measured
    at 1 MHz and 200 kHz)."""
    spec = FadingSpec(max_doppler_hz=fd, sample_rate_hz=fs)
    plan = block_plan(spec)
    assert plan.mode == "taylor"
    length, m = plan.length, spec.num_sinusoids
    alphas, psis, thetas = fading_angles(spec, np.stack([RngStream(15, sid).uniform(1 + 2 * m) for sid in range(6)]))
    freqs, phases = np.stack([np.cos(alphas), np.sin(alphas)]), np.stack([psis, thetas])
    wd = 2.0 * np.pi * fd
    weights = _taylor_weights(freqs, wd / fs, plan.order)
    for start in (0, 10**7):
        for lo, hi in ((3, 83), (0, length), (length // 2 + 1, 3 * length + 5)):
            args = (freqs, phases, wd, fs, plan, weights, start + lo, start + hi)
            sums, loops = _block_sums(*args), taylor_block_sums_loops(*args)
            assert sums.shape == loops.shape == (2, 6, hi - lo)
            assert np.max(np.abs(sums - loops)) <= 5e-15 * math.sqrt(m)


def test_block_plan_rule():
    """Every fading spec of the golden CSVs and the benchmark workloads
    gets its plan: Taylor blocks at 200 kHz and above, exactly the plans
    the FER goldens and workloads were recorded with, within their
    truncation bound; rotation blocks at low rates, near Nyquist included.
    The direct sum stands where M is too large for the rotation tables."""
    # The FER goldens and workloads at fs = 1 MHz with Dopplers 25, 50 and
    # 100 Hz, and fer-vs-samplerate at 200 kHz.
    for fd, fs, length, order in ((25.0, 1e6, 512, 8), (50.0, 1e6, 512, 9), (100.0, 1e6, 256, 9),
                                  (100.0, 2e5, 128, 11)):
        spec = FadingSpec(max_doppler_hz=fd, sample_rate_hz=fs)
        assert block_plan(spec) == ("taylor", length, order)
        half_turn = length // 2 * 2.0 * math.pi * fd / fs
        assert half_turn <= MAX_BLOCK_TURN
        assert math.sqrt(spec.num_sinusoids) * half_turn ** (order + 1) / math.factorial(order + 1) <= TAYLOR_TOL
    # validate-fading at 256 Hz (its default and validate-fading-1m) and
    # 1 kHz, and fer-vs-samplerate at 300 Hz to 10 kHz.
    for fs in (256.0, 300.0, 1e3, 2560.0, 1e4):
        assert block_plan(FadingSpec(max_doppler_hz=100.0, sample_rate_hz=fs)) == ("rotation", ROTATION_BLOCK, 0)
    big_m = MAX_TABLE // (2 * (ROTATION_BLOCK + 2)) + 1
    assert block_plan(FadingSpec(sample_rate_hz=256.0, num_sinusoids=big_m)) == ("direct", 1, 0)


def test_rayleigh_unit_mean_power():
    g = fading_next(fading_init(FAST_SPEC, RngStream(21, 0)), 1_000_000)
    assert abs(np.mean(np.abs(g) ** 2) - 1.0) < 0.01


def test_independent_links_uncorrelated():
    g1 = fading_next(fading_init(FAST_SPEC, RngStream(50, 100)), 100_000)
    g2 = fading_next(fading_init(FAST_SPEC, RngStream(50, 101)), 100_000)
    cross = np.mean(g1 * np.conj(g2))
    assert abs(cross) < 0.02


def test_rayleigh_envelope_ks():
    g = fading_next(fading_init(FAST_SPEC, RngStream(33, 0)), 1_000_000)
    env = np.abs(g)
    res = sps.kstest(env, lambda x: 1.0 - np.exp(-(x**2)))
    assert res.statistic < 0.005


def test_rician_k0_matches_rayleigh():
    """K = 0 must reproduce the Rayleigh envelope distribution."""
    spec0 = FadingSpec(
        model=FadingModel.RICIAN, max_doppler_hz=100.0, sample_rate_hz=256.0, k_factor=0.0
    )
    env_rice = np.abs(fading_next(fading_init(spec0, RngStream(60, 0)), 100_000))
    env_ray = np.abs(fading_next(fading_init(FAST_SPEC, RngStream(60, 1)), 100_000))
    assert sps.ks_2samp(env_rice, env_ray).statistic < 0.01


def test_rician_k1_envelope_ks():
    spec = FadingSpec(
        model=FadingModel.RICIAN, max_doppler_hz=100.0, sample_rate_hz=256.0, k_factor=1.0
    )
    env = np.abs(fading_next(fading_init(spec, RngStream(61, 0)), 1_000_000))
    # unit total power: c_m^2 = K/(K+1), per-quadrature variance 1/(2(K+1))
    b = math.sqrt(1.0) / math.sqrt(0.5)  # c_m / alpha for K = 1
    alpha = math.sqrt(0.25)
    res = sps.kstest(env, sps.rice(b, scale=alpha).cdf)
    assert res.statistic < 0.005


def test_rician_mean_power_any_k():
    for k in (0.5, 4.0, 10.0):
        spec = FadingSpec(
            model=FadingModel.RICIAN, max_doppler_hz=100.0, sample_rate_hz=256.0, k_factor=k
        )
        g = fading_next(fading_init(spec, RngStream(62, int(k * 10))), 500_000)
        assert abs(np.mean(np.abs(g) ** 2) - 1.0) < 0.02


def test_large_k_collapses_to_rotating_phasor():
    spec = FadingSpec(
        model=FadingModel.RICIAN,
        max_doppler_hz=100.0,
        sample_rate_hz=1000.0,
        k_factor=1e12,
        los_doppler_hz=10.0,
        los_phase_rad=0.5,
    )
    g = fading_next(fading_init(spec, RngStream(4, 0)), 100)
    t = np.arange(100) / 1000.0
    expected = np.exp(1j * (2.0 * np.pi * 10.0 * t + 0.5))
    # amplitude sqrt(K/(K+1)) differs from 1 by ~5e-13 at K = 1e12
    np.testing.assert_allclose(g, expected, atol=1e-5)
    assert np.max(np.abs(np.abs(g) - 1.0)) < 1e-9


def test_huge_k_has_exactly_unit_amplitude():
    spec = FadingSpec(
        model=FadingModel.RICIAN, max_doppler_hz=100.0, sample_rate_hz=1000.0, k_factor=1e16
    )
    g = fading_next(fading_init(spec, RngStream(4, 1)), 16)
    assert np.all(g == 1.0 + 0.0j)  # los_doppler = 0, phase 0: exact unit channel


def test_sentinel_k_still_mixes_scattered_part():
    """At K equal to the sentinel the scattered term is still present."""
    spec = FadingSpec(
        model=FadingModel.RICIAN, max_doppler_hz=100.0, sample_rate_hz=1000.0,
        k_factor=K_AWGN_SENTINEL,
    )
    g = fading_next(fading_init(spec, RngStream(4, 2)), 64)
    assert np.std(np.abs(g)) > 0.0


def test_pdf_envelope_rician_reduces_to_rayleigh():
    grid = np.linspace(0.0, 5.0, 100)
    alpha_sq = 0.5
    ours = pdf_envelope_rician(grid, 0.0, alpha_sq)
    rayleigh = grid / alpha_sq * np.exp(-(grid**2) / (2.0 * alpha_sq))
    np.testing.assert_allclose(ours, rayleigh, rtol=1e-12)


def test_pdf_envelope_rician_matches_scipy_and_normalizes():
    c_m, alpha_sq = 1.0, 0.5
    grid = np.linspace(0.0, 15.0, 100_001)
    ours = pdf_envelope_rician(grid, c_m, alpha_sq)
    alpha = math.sqrt(alpha_sq)
    ref = sps.rice(c_m / alpha, scale=alpha).pdf(grid)
    np.testing.assert_allclose(ours, ref, rtol=1e-10, atol=1e-12)
    assert np.trapezoid(ours, grid) == pytest.approx(1.0, abs=1e-6)
    with pytest.raises(ValueError):
        pdf_envelope_rician(1.0, -0.1, 0.5)
    with pytest.raises(ValueError):
        pdf_envelope_rician(1.0, 1.0, 0.0)


def _rician_cdf_grid_expressions(k: float, x_max: float, n_grid: int):
    """rician_envelope_cdf_grid and pdf_envelope_rician before they wrote
    into buffers: the whole grid at once, a new array per step."""
    c_m = math.sqrt(k / (k + 1.0))
    alpha_sq = 0.5 / (k + 1.0)
    grid = np.linspace(0.0, x_max, n_grid)
    bess = bessel_i0e(grid * c_m / alpha_sq)
    pdf = grid / alpha_sq * np.exp(-((grid - c_m) ** 2) / (2.0 * alpha_sq)) * bess
    cdf = np.concatenate([[0.0], np.cumsum(0.5 * (pdf[1:] + pdf[:-1]) * np.diff(grid))])
    return grid, pdf, np.clip(cdf, 0.0, 1.0)


@pytest.mark.parametrize("k", [0.0, 4.0, 1e3, 1e6])
def test_rician_cdf_grid_buffers_keep_the_bits(k):
    """The tiled density and the in-place trapezoid sums equal, bit for
    bit, the expressions that formed a new array per step, and the
    density never writes its argument."""
    n_grid = inspect.signature(rician_envelope_cdf_grid).parameters["n_grid"].default
    for x_max, n in ((2.5, n_grid), (6.0, n_grid), (1.3, 3 * numerics.CHUNK_ELEMENTS // 8 + 5)):
        grid, pdf, cdf = _rician_cdf_grid_expressions(k, x_max, n)
        got_grid, got_cdf = rician_envelope_cdf_grid(k, x_max, n)
        np.testing.assert_array_equal(got_grid.view(np.uint64), grid.view(np.uint64))
        np.testing.assert_array_equal(got_cdf.view(np.uint64), cdf.view(np.uint64))
        x = grid.copy()
        got_pdf = pdf_envelope_rician(x, math.sqrt(k / (k + 1.0)), 0.5 / (k + 1.0))
        np.testing.assert_array_equal(got_pdf.view(np.uint64), pdf.view(np.uint64))
        np.testing.assert_array_equal(x.view(np.uint64), grid.view(np.uint64))


def test_ks_statistic_hand_example():
    samples = np.array([1.0, 2.0, 3.0])
    cdf = np.array([0.2, 0.5, 0.9])
    # sup distance dominated by cdf minus the lower staircase at x = 3
    assert ks_statistic(samples, cdf) == pytest.approx(0.9 - 2.0 / 3.0)
    with pytest.raises(ValueError):
        ks_statistic(np.array([]), np.array([]))


def test_ks_statistic_uniform_sanity():
    u = np.sort(RngStream(90, 0).uniform(100_000))
    assert ks_statistic(u, u) < 0.01  # identity CDF for uniform samples


def test_rician_cdf_grid_against_scipy():
    # At K = 60 and 1000, x c_m / alpha^2 reaches the hundreds and the
    # thousands, where I0 itself overflows; the exp-scaled density does not.
    for k in (3.0, 60.0, 1000.0):
        grid, cdf = rician_envelope_cdf_grid(k, 6.0)
        alpha = math.sqrt(0.5 / (k + 1.0))
        b = math.sqrt(k / (k + 1.0)) / alpha
        ref = sps.rice(b, scale=alpha).cdf(grid)
        assert np.max(np.abs(cdf - ref)) < 1e-6


def test_validate_process_preconditions():
    with pytest.raises(ValueError):
        validate_process(fading_init(FAST_SPEC, RngStream(1, 0)), 99_999)
    check_validation_samples(MIN_VALIDATION_SAMPLES)
    check_validation_samples(MAX_VALIDATION_SAMPLES)
    for bad in (MIN_VALIDATION_SAMPLES - 1, MAX_VALIDATION_SAMPLES + 1):
        with pytest.raises(ValueError, match="samples"):
            check_validation_samples(bad)
    # validate_process checks the count before it synthesises anything.
    with pytest.raises(ValueError, match="samples"):
        validate_process(None, MAX_VALIDATION_SAMPLES + 1)
    awgnish = FadingSpec(
        model=FadingModel.RICIAN, max_doppler_hz=100.0, sample_rate_hz=256.0, k_factor=1e9
    )
    with pytest.raises(ValueError):
        validate_process(fading_init(awgnish, RngStream(1, 0)), 200_000)


@pytest.mark.parametrize("spec", [
    pytest.param(FadingSpec(sample_rate_hz=2e4), id="rayleigh"),
    pytest.param(FadingSpec(model=FadingModel.RICIAN, sample_rate_hz=2e4, k_factor=4.0,
                            los_doppler_hz=100.0, los_phase_rad=0.3), id="rician"),
])
def test_validate_process_tiles_keep_the_statistics(spec, monkeypatch):
    """validate_process reads the kernel in tiles of numerics.CHUNK_ELEMENTS
    samples. At fs = 20 kHz its window is 400 lags, so tiles of 150
    samples carry the last 399 real parts across several tiles. Every
    tiling gives the one-tile run's KS statistic and mean power, both read
    from the whole envelope, bit for bit, and its autocorrelation, whose
    lag sums run tile by tile, to 1e-12 relative. One tile sums each lag
    as one dot product over the whole run."""
    n = MIN_VALIDATION_SAMPLES

    def run(budget):
        monkeypatch.setattr(numerics, "CHUNK_ELEMENTS", budget)
        return validate_process(fading_init(spec, RngStream(16, 0)), n)

    whole = run(n)
    assert len(whole.autocorr_lags) == 400
    for budget in (150, 4096):
        tiled = run(budget)
        assert tiled.ks_statistic == whole.ks_statistic
        assert tiled.empirical_mean_power == whole.empirical_mean_power
        np.testing.assert_array_equal([lag[::2] for lag in tiled.autocorr_lags],
                                      [lag[::2] for lag in whole.autocorr_lags])
        np.testing.assert_allclose([lag[1] for lag in tiled.autocorr_lags],
                                   [lag[1] for lag in whole.autocorr_lags], rtol=1e-12, atol=0.0)


@pytest.mark.parametrize("spec", [
    pytest.param(FAST_SPEC, id="rayleigh"),
    pytest.param(FadingSpec(model=FadingModel.RICIAN, sample_rate_hz=256.0, k_factor=4.0,
                            los_doppler_hz=100.0), id="rician"),
])
def test_validate_process_keeps_one_float64_a_sample(spec):
    """A validate_process run of 10^6 samples allocates 8 bytes a sample,
    its envelope, beside a fixed allowance: 6 kernel tiles of
    numerics.CHUNK_ELEMENTS (a tile's complex gains, 2, link_gains'
    scratch, the real parts' window, and the KS statistic's levels and
    differences, 2), and under Rician fading 3 CDF grids (the grid, the
    density and the CDF, rician_envelope_cdf_grid's peak)."""
    n = 1_000_000
    validate_process(fading_init(spec, RngStream(15, 1)), MIN_VALIDATION_SAMPLES)  # fills the caches
    proc = fading_init(spec, RngStream(15, 0))
    tracemalloc.start()
    try:
        validate_process(proc, n)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    allowance = 6 * numerics.CHUNK_ELEMENTS
    if spec.model is FadingModel.RICIAN:
        allowance += 3 * inspect.signature(rician_envelope_cdf_grid).parameters["n_grid"].default
    assert peak <= 8 * (n + allowance), (peak, 8 * (n + allowance))


def test_validate_process_rayleigh_stats():
    stats = validate_process(fading_init(FAST_SPEC, RngStream(100, 0)), 200_000)
    assert isinstance(stats, EnvelopeStats)
    assert stats.ks_statistic < 0.01
    assert abs(stats.empirical_mean_power - 1.0) < 0.02
    lag0 = stats.autocorr_lags[0]
    assert lag0[0] == 0.0
    assert lag0[1] == pytest.approx(1.0)
    assert lag0[2] == pytest.approx(1.0)


def test_autocorrelation_tracks_bessel():
    """Densely sampled Rayleigh: real-part autocorrelation follows J0."""
    spec = FadingSpec(model=FadingModel.RAYLEIGH, max_doppler_hz=100.0, sample_rate_hz=2560.0)
    stats = validate_process(fading_init(spec, RngStream(101, 0)), 500_000)
    lags = np.array(stats.autocorr_lags)
    assert lags.shape[0] >= 50  # covers tau * f_d up to 2
    rmse = math.sqrt(np.mean((lags[:, 1] - lags[:, 2]) ** 2))
    assert rmse < 0.08


def test_rician_autocorr_theory_column():
    spec = FadingSpec(
        model=FadingModel.RICIAN,
        max_doppler_hz=100.0,
        sample_rate_hz=2560.0,
        k_factor=4.0,
        los_doppler_hz=50.0,
    )
    stats = validate_process(fading_init(spec, RngStream(102, 0)), 500_000)
    from mimolink.numerics import bessel_j0

    for tau, emp, theo in stats.autocorr_lags[:10]:
        want = (4.0 * math.cos(2.0 * math.pi * 50.0 * tau) + bessel_j0(2.0 * math.pi * 100.0 * tau)) / 5.0
        assert theo == pytest.approx(want, rel=1e-12)
    lags = np.array(stats.autocorr_lags)
    rmse = math.sqrt(np.mean((lags[:, 1] - lags[:, 2]) ** 2))
    assert rmse < 0.1


@pytest.mark.parametrize("seed", [102, 103])
@pytest.mark.parametrize("phase", [0.0, 1.0, math.pi / 2])
def test_rician_static_los_autocorr_theory_column(phase, seed):
    """A static line of sight (f_los = 0) adds the constant
    sqrt(K/(K+1)) cos(phi) to the real part, so the theoretical column is
    (K (1 + cos 2 phi) + J0) / (K (1 + cos 2 phi) + 1). At K = 4, 2,560 Hz
    and 5e5 samples every lag's empirical value lies within 0.05 of it;
    the column without the constant missed by 0.12 to 1.14."""
    spec = FadingSpec(model=FadingModel.RICIAN, max_doppler_hz=100.0, sample_rate_hz=2560.0, k_factor=4.0,
                      los_phase_rad=phase)
    stats = validate_process(fading_init(spec, RngStream(seed, 0)), 500_000)
    from mimolink.numerics import bessel_j0

    static = 4.0 * (1.0 + math.cos(2.0 * phase))
    for tau, emp, theo in stats.autocorr_lags:
        assert theo == pytest.approx((static + bessel_j0(2.0 * math.pi * 100.0 * tau)) / (static + 1.0), rel=1e-12)
        assert abs(emp - theo) < 0.05
