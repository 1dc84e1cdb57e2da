"""Tests for the ZF, MMSE, and exhaustive ML spatial-multiplexing detectors."""

import itertools
import math
import tracemalloc

import numpy as np
import pytest

from mimolink import numerics
from mimolink.detect import (
    SINGULARITY_RTOL,
    DetectorKind,
    _singular,
    ml_detect_batch,
    mmse_detect_batch,
    mmse_estimate_batch,
    prepare_channels,
    prepared_elements,
    zf_detect_batch,
    zf_estimate_batch,
)
from mimolink.modem import QPSK_POINTS, qpsk_modulate
from mimolink.numerics import RngStream
from _support import complex_normal

_DETECT = {
    DetectorKind.ZF: zf_detect_batch, DetectorKind.MMSE: mmse_detect_batch, DetectorKind.ML: ml_detect_batch,
}


def _symbols(bits):
    """The QPSK points (n, N_t) whose bits one level's decisions
    (n, 2 N_t) are."""
    return qpsk_modulate(bits.ravel()).reshape(len(bits), -1)


def _decide(kind, h, y, noise_var=0.0):
    """The symbols that kind decides from observations y through channels
    h at one level noise_var: y goes whole into the noise-free part hx,
    with z = 0, so the level enters MMSE's filter alone."""
    y = np.asarray(y)
    return _symbols(_DETECT[kind](prepare_channels(kind, h), y, np.zeros_like(y), [noise_var])[0])


def _zf(h, y):
    return _decide(DetectorKind.ZF, h, y)


def _mmse(h, y, noise_var):
    return _decide(DetectorKind.MMSE, h, y, noise_var)


def _ml(h, y):
    return _decide(DetectorKind.ML, h, y)


def _zf_estimate(h, y):
    return zf_estimate_batch(prepare_channels(DetectorKind.ZF, h), y)


def _mmse_estimate(h, y, noise_var):
    return mmse_estimate_batch(prepare_channels(DetectorKind.MMSE, h), y, noise_var)


def _random_case(rng, n, n_rx, n_tx, snr_db):
    """Random symbols, i.i.d. channels, noisy observations at the given SNR."""
    idx = (rng.uniform(n * n_tx).reshape(n, n_tx) * 4).astype(int)
    s = QPSK_POINTS[idx]
    h = complex_normal(rng, (n, n_rx, n_tx))
    y = np.einsum("nrt,nt->nr", h, s) / math.sqrt(n_tx)
    if snr_db is not None:
        y = y + complex_normal(rng, (n, n_rx), var=10.0 ** (-snr_db / 10.0))
    return s, h, y


def test_detector_kind_values():
    assert DetectorKind.ZF.value == "zf"
    assert DetectorKind.MMSE.value == "mmse"
    assert DetectorKind.ML.value == "ml"


def test_noiseless_recovery_all_detectors():
    rng = RngStream(1, 0)
    s, h, y = _random_case(rng, 500, 4, 4, snr_db=None)
    np.testing.assert_array_equal(_zf(h, y), s)
    np.testing.assert_array_equal(_mmse(h, y, 0.0), s)
    np.testing.assert_array_equal(_ml(h, y), s)


def test_identity_channel_slices_directly():
    rng = RngStream(2, 0)
    idx = (rng.uniform(64 * 4).reshape(64, 4) * 4).astype(int)
    s = QPSK_POINTS[idx]
    h = np.broadcast_to(np.eye(4, dtype=np.complex128), (64, 4, 4)).copy()
    y = s / 2.0  # H x with x = s / sqrt(4)
    for decided in (
        _zf(h, y),
        _mmse(h, y, 0.0),
        _ml(h, y),
    ):
        np.testing.assert_array_equal(decided, s)


def test_zf_matches_normal_equation_oracle():
    """ZF decisions must equal slicing of sqrt(Nt) H^+ y, with the
    pseudo-inverse H^+ = (H^H H)^-1 H^H taken from an SVD."""
    rng = RngStream(3, 0)
    s, h, y = _random_case(rng, 1000, 4, 4, snr_db=10.0)
    got = _zf(h, y)
    for n in range(len(y)):
        est = 2.0 * (np.linalg.pinv(h[n]) @ y[n])
        want = QPSK_POINTS[np.argmin(np.abs(est[:, None] - QPSK_POINTS), axis=1)]
        np.testing.assert_array_equal(got[n], want)


def _argmin_oracle(est, n_tx):
    """Nearest QPSK point to each estimate of x = s / sqrt(N_t), by an
    argmin over the four squared distances; ties go to the lowest index."""
    d = np.abs(math.sqrt(n_tx) * est[..., None] - QPSK_POINTS) ** 2
    return QPSK_POINTS[np.argmin(d, axis=-1)]


@pytest.mark.parametrize("snr_db", [0.0, 10.0, 20.0])
def test_linear_decisions_equal_the_argmin_census(snr_db):
    """The sign tests decide as the argmin over all four points does, on
    100,000 ZF and 100,000 MMSE estimates at each SNR. The two rules part
    only where one part of an estimate is some 1e-13 of the other or less,
    which random estimates do not reach."""
    rng = RngStream(50, int(snr_db))
    _, h, y = _random_case(rng, 25_000, 4, 4, snr_db=snr_db)
    nv = 10.0 ** (-snr_db / 10.0)
    zf, mmse = _zf_estimate(h, y), _mmse_estimate(h, y, nv)
    assert zf.size == mmse.size == 100_000
    np.testing.assert_array_equal(_zf(h, y), _argmin_oracle(zf, 4))
    np.testing.assert_array_equal(_mmse(h, y, nv), _argmin_oracle(mmse, 4))


def test_tiny_part_decides_by_its_sign():
    """-1e-17 + 3j is nearer (-1+1j)/sqrt2 than (1+1j)/sqrt2, by less than
    the rounding of the two squared distances: both round to the same
    double, so an argmin over them picks index 0. The sign tests do not
    round."""
    h, y = np.ones((1, 1, 1)), np.array([[-1e-17 + 3j]])
    want = (-1 + 1j) / math.sqrt(2.0)
    assert _zf(h, y)[0, 0] == want
    assert _mmse(h, y, 1e-3)[0, 0] == want
    assert _argmin_oracle(_zf_estimate(h, y), 1)[0, 0] != want


def test_exact_zeros_tie_in_gray_order():
    """An estimate with an exact zero part is equidistant from two points
    (from all four at 0): it goes to the one with the smaller Gray index,
    as the argmin over QPSK_POINTS breaks the tie."""
    y = np.array([[complex(re, im)] for re in (-1.0, -0.0, 0.0, 1.0) for im in (-1.0, -0.0, 0.0, 1.0)])
    h = np.ones((len(y), 1, 1))
    np.testing.assert_array_equal(_zf(h, y), _argmin_oracle(y, 1))
    np.testing.assert_array_equal(_mmse(h, y, 0.0), _argmin_oracle(y, 1))


def test_mmse_with_zero_noise_equals_zf():
    rng = RngStream(4, 0)
    s, h, y = _random_case(rng, 1000, 4, 4, snr_db=8.0)
    np.testing.assert_array_equal(
        _mmse(h, y, 0.0), _zf(h, y)
    )


def test_mmse_continuous_at_small_noise():
    rng = RngStream(5, 0)
    s, h, y = _random_case(rng, 1000, 4, 4, snr_db=8.0)
    np.testing.assert_array_equal(
        _mmse(h, y, 1e-12), _zf(h, y)
    )


def test_zf_estimate_matches_least_squares_oracle():
    rng = RngStream(20, 0)
    s, h, y = _random_case(rng, 500, 4, 4, snr_db=None)
    est = _zf_estimate(h, y)
    for n in range(500):
        oracle = np.linalg.pinv(h[n]) @ y[n]
        assert np.max(np.abs(est[n] - oracle)) < 1e-9
    # noiseless: the estimate is the transmitted vector s / sqrt(Nt)
    assert np.max(np.abs(est - s / 2.0)) < 1e-9


def test_mmse_estimate_shrinks_to_zero():
    rng = RngStream(21, 0)
    s, h, y = _random_case(rng, 100, 4, 4, snr_db=10.0)
    norms = [
        float(np.max(np.abs(_mmse_estimate(h, y, nv))))
        for nv in (1e0, 1e3, 1e6, 1e12)
    ]
    assert norms == sorted(norms, reverse=True)
    assert norms[-1] < 1e-9


def test_mmse_estimate_converges_to_zf():
    """Pre-slicing continuity on well-conditioned channels: nv = 1e-12 sits
    within 1e-8 of zero forcing."""
    rng = RngStream(22, 0)
    s, h, y = _random_case(rng, 1000, 4, 4, snr_db=8.0)
    eig = np.linalg.eigvalsh(h.conj().swapaxes(-1, -2) @ h)
    keep = eig[:, 0] > 0.1  # random square channels are occasionally awful
    assert np.count_nonzero(keep) > 500
    diff = _mmse_estimate(h[keep], y[keep], 1e-12) - _zf_estimate(h[keep], y[keep])
    assert np.max(np.abs(diff)) < 1e-8


def test_mmse_estimate_closer_to_truth_on_average():
    """The regularized filter wins in mean squared estimate error."""
    rng = RngStream(23, 0)
    snr_db = 10.0
    s, h, y = _random_case(rng, 10_000, 4, 4, snr_db=snr_db)
    x = s / 2.0
    nv = 10.0 ** (-snr_db / 10.0)
    mse_zf = np.mean(np.abs(_zf_estimate(h, y) - x) ** 2)
    mse_mmse = np.mean(np.abs(_mmse_estimate(h, y, nv) - x) ** 2)
    assert mse_mmse <= mse_zf


def test_mmse_huge_noise_degenerates_to_matched_filter():
    """An overwhelming regularizer makes the filter a scaled H^H, so the
    decisions follow the matched-filter quadrants."""
    rng = RngStream(6, 0)
    s, h, y = _random_case(rng, 16, 4, 4, snr_db=10.0)
    decided = _mmse(h, y, 1e12)
    mf = np.einsum("ntr,nr->nt", h.conj().swapaxes(-1, -2), y)
    want = QPSK_POINTS[np.argmin(np.abs(mf[..., None] - QPSK_POINTS), axis=-1)]
    np.testing.assert_array_equal(decided, want)


def test_ml_matches_independent_enumeration():
    """Brute force over itertools.product in a different hypothesis order."""
    rng = RngStream(7, 0)
    s, h, y = _random_case(rng, 200, 3, 3, snr_db=6.0)
    got = _ml(h, y)
    scale = 1.0 / math.sqrt(3.0)
    for n in range(len(y)):
        best, best_d = None, np.inf
        # reversed() walks the grid in the opposite order; with continuous
        # noise the minimizer is unique, so the order cannot matter
        for hyp in itertools.product(*([list(reversed(QPSK_POINTS))] * 3)):
            x = np.array(hyp)
            d = float(np.sum(np.abs(y[n] - h[n] @ x * scale) ** 2))
            if d < best_d:
                best, best_d = x, d
        np.testing.assert_array_equal(got[n], best)


@pytest.mark.parametrize(
    "n_tx, n_rx", [pytest.param(t, r, id=f"{t}-{r}-qpsk") for t in (1, 2, 3, 4) for r in (1, 2, 4)]
)
def test_ml_matches_per_vector_enumeration(n_tx, n_rx):
    """The batched search equals a straight per-vector enumeration in
    lexicographic order, for every head/tail split of the antennas: an
    empty tail (N_t = 1), an odd split (N_t = 3), and fewer receive than
    transmit antennas."""
    stream = RngStream(30 + 4 * n_tx + n_rx, 4)
    n = 12
    x = QPSK_POINTS[(stream.uniform(n * n_tx).reshape(n, n_tx) * 4).astype(int)]
    h = complex_normal(stream, (n, n_rx, n_tx))
    y = np.einsum("nrt,nt->nr", h, x) / math.sqrt(n_tx) + complex_normal(stream, (n, n_rx), var=0.3)
    np.testing.assert_array_equal(_ml(h, y), _enumerate_ml(h, y))


def _enumerate_ml(h, y):
    """Per-vector ML decisions by enumerating the QPSK hypotheses in
    lexicographic order."""
    n_tx = h.shape[-1]
    hyps = np.array(list(itertools.product(QPSK_POINTS, repeat=n_tx)))
    want = np.empty((len(y), n_tx), dtype=np.complex128)
    for k in range(len(y)):
        dist = [float(np.sum(np.abs(y[k] - h[k] @ hyp / math.sqrt(n_tx)) ** 2)) for hyp in hyps]
        want[k] = hyps[int(np.argmin(dist))]
    return want


_LEVELS = (1.0, 0.3, 1e-1)


def _noisy_levels(stream, n, n_rx, n_tx):
    """Noise-free images hx, unscaled normals z and the symbols per level
    that enumeration decides from y = hx + sqrt(nv / 2) z, as the engine
    forms y, at each of _LEVELS."""
    _, h, hx = _random_case(stream, n, n_rx, n_tx, snr_db=None)
    z = complex_normal(stream, (n, n_rx))
    want = []
    for nv in _LEVELS:
        y = np.multiply(z, math.sqrt(nv / 2.0))
        y += hx
        want.append(_enumerate_ml(h, y))
    return h, hx, z, want


@pytest.mark.parametrize("n_rx, n_tx", [(4, 4), (2, 3), (4, 1)])
def test_ml_tiles_give_the_same_decisions(n_rx, n_tx, monkeypatch):
    """Any tiling of the vectors gives the same decisions at every level of
    one call, bit for bit: a budget of one element and of exactly one
    vector's search scratch (tiles of one vector), of a few vectors, and
    the default budget (at 4x4, tiles of 39 and 1), each against one tile
    for the whole batch, whose decisions are the enumeration's."""
    stream = RngStream(41, 4 * n_tx + n_rx)
    h, hx, z, want = _noisy_levels(stream, 40, n_rx, n_tx)
    channels = prepare_channels(DetectorKind.ML, h)
    a = -(-n_tx // 2)
    head, tail = 4**a, 4 ** (n_tx - a)
    one_vector = 6 * head * tail + 2 * head * n_rx
    default = numerics.CHUNK_ELEMENTS
    monkeypatch.setattr(numerics, "CHUNK_ELEMENTS", 10**9)
    untiled = ml_detect_batch(channels, hx, z, _LEVELS)
    assert untiled.shape == (len(_LEVELS), 40, 2 * n_tx)
    for decided, symbols in zip(untiled, want):
        np.testing.assert_array_equal(_symbols(decided), symbols)
    for budget in (1, one_vector, 7 * one_vector + 1, default):
        monkeypatch.setattr(numerics, "CHUNK_ELEMENTS", budget)
        np.testing.assert_array_equal(ml_detect_batch(channels, hx, z, _LEVELS), untiled)


@pytest.mark.parametrize("n_rx, n_tx", [(4, 4), (2, 3), (4, 1), (1, 1)])
def test_ml_scratch_stays_within_the_budget(n_rx, n_tx):
    """The search of a prepared batch far larger than a tile, at three
    levels, allocates at most numerics.CHUNK_ELEMENTS float64 elements
    besides its decisions."""
    stream = RngStream(42, 4 * n_tx + n_rx)
    _, h, hx = _random_case(stream, 3000, n_rx, n_tx, snr_db=None)
    z = complex_normal(stream, (3000, n_rx))
    _ml(h[:1], hx[:1])
    channels = prepare_channels(DetectorKind.ML, h)
    tracemalloc.start()
    try:
        decided = ml_detect_batch(channels, hx, z, _LEVELS)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak - decided.nbytes <= 8 * numerics.CHUNK_ELEMENTS


def test_ml_zero_channel_picks_hypothesis_zero():
    """A zero channel makes every hypothesis equidistant; with an odd
    split (N_t = 3) the search still returns hypothesis 0."""
    stream = RngStream(40, 0)
    h = np.zeros((5, 2, 3), dtype=np.complex128)
    y = complex_normal(stream, (5, 2))
    np.testing.assert_array_equal(_ml(h, y), np.full((5, 3), QPSK_POINTS[0]))


def test_ml_tie_breaks_to_lexicographic_smallest():
    # y = 0 with H = I makes every hypothesis equidistant in each coordinate
    h = np.eye(2, dtype=np.complex128)[None]
    y = np.zeros((1, 2), dtype=np.complex128)
    decided = _ml(h, y)
    np.testing.assert_array_equal(decided[0], [QPSK_POINTS[0], QPSK_POINTS[0]])


def test_ml_never_worse_than_linear_detectors():
    """Aggregate symbol errors on shared realizations: ML lowest."""
    rng = RngStream(8, 0)
    s, h, y = _random_case(rng, 20_000, 4, 4, snr_db=10.0)
    nv = 10.0 ** (-10.0 / 10.0)
    err_zf = np.count_nonzero(_zf(h, y) != s)
    err_mmse = np.count_nonzero(_mmse(h, y, nv) != s)
    err_ml = np.count_nonzero(_ml(h, y) != s)
    assert err_ml < err_mmse < err_zf
    assert err_ml > 0  # the comparison is meaningful, not all-zero


def test_orthogonal_channel_reduces_to_per_stream_slicing():
    """With unitary columns, ZF equals a matched filter per stream."""
    rng = np.random.default_rng(9)
    stream = RngStream(9, 0)
    for _ in range(200):
        a = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        q, _ = np.linalg.qr(a)
        idx = (stream.uniform(4) * 4).astype(int)
        s = QPSK_POINTS[idx]
        y = q @ s / 2.0 + complex_normal(stream, (4,), var=0.05)
        got = _zf(q[None], y[None])[0]
        matched = 2.0 * (q.conj().T @ y)
        want = QPSK_POINTS[np.argmin(np.abs(matched[:, None] - QPSK_POINTS), axis=1)]
        np.testing.assert_array_equal(got, want)


def test_scale_invariance():
    """Scaling y and H by one complex constant cannot change decisions."""
    rng = RngStream(10, 0)
    s, h, y = _random_case(rng, 300, 4, 4, snr_db=8.0)
    c = 0.37 - 1.9j
    np.testing.assert_array_equal(
        _ml(h, y), _ml(c * h, c * y)
    )
    np.testing.assert_array_equal(
        _zf(h, y), _zf(c * h, c * y)
    )


def test_singular_channel_is_flagged_for_zf():
    h = np.ones((1, 4, 4), dtype=np.complex128)  # rank one
    y = np.ones((1, 4), dtype=np.complex128)
    for singular in (h, np.zeros((1, 4, 4))):
        channels = prepare_channels(DetectorKind.ZF, singular)
        assert channels.singular.dtype == bool and channels.singular.tolist() == [True]
        _zf(singular, y)  # decides, meaninglessly, instead of failing
    # MMSE regularizes the same channel without complaint, and neither MMSE
    # nor ML flags it
    _mmse(h, y, 0.1)
    for kind in (DetectorKind.MMSE, DetectorKind.ML):
        assert prepare_channels(kind, h).singular.tolist() == [False]


def test_singular_channels_leave_the_others_decisions_bit_for_bit():
    """ZF's estimates and decisions at three levels for the channels that
    are not singular, in a batch that also holds an all-zero and a
    rank-one channel, are those of the batch without them, bit for bit:
    the identity that stands in for a singular Gram matrix touches only
    its own row."""
    stream = RngStream(62, 0)
    _, h, hx = _random_case(stream, 300, 4, 4, snr_db=None)
    z = complex_normal(stream, (300, 4))
    flagged = [3, 151]  # where the all-zero and the rank-one channel go
    mixed_h = np.insert(h, [3, 150], np.stack([np.zeros((4, 4)), np.ones((4, 4))]), axis=0)
    mixed_hx, mixed_z = (np.insert(v, [3, 150], 1.0 + 1.0j, axis=0) for v in (hx, z))
    keep = np.ones(len(mixed_h), dtype=bool)
    keep[flagged] = False

    clean = prepare_channels(DetectorKind.ZF, h)
    channels = prepare_channels(DetectorKind.ZF, mixed_h)
    assert not clean.singular.any()
    assert np.flatnonzero(channels.singular).tolist() == flagged
    levels = [0.0, 0.01, 0.5]
    np.testing.assert_array_equal(
        zf_detect_batch(channels, mixed_hx, mixed_z, levels)[:, keep], zf_detect_batch(clean, hx, z, levels),
    )
    np.testing.assert_array_equal(
        zf_estimate_batch(channels, mixed_hx)[keep].view(np.uint64), zf_estimate_batch(clean, hx).view(np.uint64),
    )


def _eigen_rule(gram):
    """The singularity rule by the eigenvalues of every Gram matrix."""
    eig = np.linalg.eigvalsh(gram)
    return (eig[:, 0] < SINGULARITY_RTOL * eig[:, -1]) | (eig[:, -1] <= 0.0)


def _gram(h):
    return h.conj().swapaxes(-1, -2) @ h


def _conditioned_channels(stream, n, n_rx, n_tx, ratio):
    """n channels c U diag(sqrt(lambda)) V^H with random unitary U and V
    and scales c from 10^-3 to 10^3, whose Gram matrices have the
    eigenvalues c^2 lambda: lambda_max = 1, lambda_min = ratio and the rest
    in between."""
    def unitary(size):
        q, _ = np.linalg.qr(complex_normal(stream, (n, size, size)))
        return q

    lam = np.sort(stream.uniform(n * n_tx).reshape(n, n_tx), axis=1)
    lam[:, 0], lam[:, -1] = ratio, 1.0
    lam[:, 1:-1] = ratio + (1.0 - ratio) * lam[:, 1:-1]
    u, v = unitary(n_rx)[:, :, :n_tx], unitary(n_tx)
    scale = 10.0 ** (6.0 * stream.uniform(n) - 3.0)
    return scale[:, None, None] * (u * np.sqrt(lam)[:, None, :]) @ v.conj().swapaxes(-1, -2)


@pytest.mark.parametrize("n_rx, n_tx", [(4, 4), (4, 2), (2, 2), (1, 1)])
def test_certificate_agrees_with_the_eigenvalue_rule(n_rx, n_tx):
    """ZF's verdict, det G / (tr G)^N_t >= 1e-9 or else the eigenvalue
    rule, is the eigenvalue rule's on 100,000 random Gram matrices, and on
    matrices built with lambda_min / lambda_max at 1e-8, 1e-10, 1e-11,
    1e-13 and 0, which the certificate cannot clear, and from H = 0."""
    stream = RngStream(60, 4 * n_tx + n_rx)
    gram = _gram(complex_normal(stream, (100_000, n_rx, n_tx)))
    np.testing.assert_array_equal(_singular(gram), _eigen_rule(gram))
    zero = np.zeros((3, n_tx, n_tx), dtype=np.complex128)
    assert _singular(zero).all() and _eigen_rule(zero).all()
    if n_tx == 1:
        return  # one eigenvalue: only H = 0 is singular
    for ratio in (1e-8, 1e-10, 1e-11, 1e-13, 0.0):
        gram = _gram(_conditioned_channels(stream, 2_000, n_rx, n_tx, ratio))
        want = _eigen_rule(gram)
        assert (want == (ratio < SINGULARITY_RTOL)).all()
        np.testing.assert_array_equal(_singular(gram), want)


def test_typical_channels_skip_the_eigensolve(monkeypatch):
    """Random 4x4 channels all carry the certificate, so eigvalsh sees no
    Gram matrix; one that cannot carry it goes to eigvalsh alone, and is
    flagged only if the eigenvalue rule finds it singular."""
    seen = []
    eigvalsh = np.linalg.eigvalsh
    monkeypatch.setattr(np.linalg, "eigvalsh", lambda a, *args: seen.append(len(a)) or eigvalsh(a, *args))
    stream = RngStream(61, 0)
    s, h, y = _random_case(stream, 5_000, 4, 4, snr_db=10.0)
    _zf(h, y)
    assert sum(seen) == 0
    h[7] = _conditioned_channels(stream, 1, 4, 4, 1e-11)[0]
    assert not prepare_channels(DetectorKind.ZF, h).singular.any()
    h[9] = 0.0
    assert np.flatnonzero(prepare_channels(DetectorKind.ZF, h).singular).tolist() == [9]
    assert seen == [1, 2]


@pytest.mark.parametrize("kind", list(DetectorKind), ids=lambda k: k.value)
def test_prepared_channels_decide_as_one_shot_calls(kind):
    """One batch of channels, prepared once, gives in one call at noise
    levels 1, 1e-1 and 1e-2 the decisions of a call per level on channels
    freshly prepared for it, bit for bit, and ZF and MMSE the estimates of
    one-shot calls: a call leaves the prepared arrays as it found them, and
    the levels of a call do not touch one another, so an SNR sweep may
    share them across its points."""
    stream = RngStream(62, 0)
    n_rx, n_tx = (2, 3) if kind is DetectorKind.ML else (4, 4)
    _, h, hx = _random_case(stream, 300, n_rx, n_tx, snr_db=None)
    z = complex_normal(stream, (300, n_rx))
    channels = prepare_channels(kind, h)
    levels = (1.0, 1e-1, 1e-2)
    decided = _DETECT[kind](channels, hx, z, levels)
    for level, noise_var in zip(decided, levels):
        np.testing.assert_array_equal(level, _DETECT[kind](prepare_channels(kind, h), hx, z, [noise_var])[0])
        y = hx + math.sqrt(noise_var) * z
        if kind is DetectorKind.ZF:
            np.testing.assert_array_equal(zf_estimate_batch(channels, y), _zf_estimate(h, y))
        elif kind is DetectorKind.MMSE:
            np.testing.assert_array_equal(
                mmse_estimate_batch(channels, y, noise_var), _mmse_estimate(h, y, noise_var))
    np.testing.assert_array_equal(_DETECT[kind](channels, hx, z, levels), decided)


@pytest.mark.parametrize("n_rx, n_tx", [(4, 4), (2, 3), (4, 1), (1, 1)])
def test_prepared_elements_count_the_prepared_arrays(n_rx, n_tx):
    """prepared_elements is the float64 size, per channel matrix, of the
    arrays that prepared channels hold per channel matrix."""
    n = 7
    h = complex_normal(RngStream(63, 4 * n_tx + n_rx), (n, n_rx, n_tx))
    # ZF needs N_r >= N_t; MMSE holds the same arrays.
    for kind in (DetectorKind.ZF, DetectorKind.MMSE, DetectorKind.ML)[n_rx < n_tx:]:
        arrays = [v for v in vars(prepare_channels(kind, h)).values() if isinstance(v, np.ndarray)]
        held = sum(v.nbytes for v in arrays if v.ndim > 1 and len(v) == n)
        assert held == 8 * n * prepared_elements(kind, n_rx, n_tx)


def test_prepared_channels_check_their_use():
    """Prepared channels serve only their own kind and number of vectors,
    and every detect and estimate call takes prepared channels alone."""
    stream = RngStream(64, 0)
    _, h, y = _random_case(stream, 10, 4, 4, snr_db=10.0)
    z = np.zeros_like(y)
    zf = prepare_channels(DetectorKind.ZF, h)
    with pytest.raises(ValueError):
        mmse_detect_batch(zf, y, z, [0.1])
    with pytest.raises(ValueError):
        zf_detect_batch(zf, y[:-1], z[:-1], [0.1])
    with pytest.raises(ValueError):
        zf_detect_batch(zf, y, z[:-1], [0.1])
    with pytest.raises(ValueError):
        ml_detect_batch(prepare_channels(DetectorKind.ML, h), y[:, :-1], z[:, :-1], [0.1])
    for call in (
        lambda: zf_detect_batch(h, y, z, [0.1]),
        lambda: mmse_detect_batch(h, y, z, [0.1]),
        lambda: ml_detect_batch(h, y, z, [0.1]),
        lambda: zf_estimate_batch(h, y),
        lambda: mmse_estimate_batch(h, y, 0.1),
    ):
        with pytest.raises(ValueError, match="prepare_channels"):
            call()


@pytest.mark.parametrize("kind", list(DetectorKind), ids=lambda k: k.value)
@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, -1e-300, -0.1])
def test_bad_noise_level_raises(kind, bad):
    """A level that is not finite or is negative raises ValueError, alone
    or among good levels, and so does MMSE's estimate at it. Unchecked, a
    NaN or infinite level decided every symbol as (1+1j)/sqrt2."""
    stream = RngStream(65, 0)
    _, h, y = _random_case(stream, 6, 4, 4, snr_db=10.0)
    channels = prepare_channels(kind, h)
    for levels in ([bad], [0.1, bad]):
        with pytest.raises(ValueError, match="noise_var"):
            _DETECT[kind](channels, y, np.zeros_like(y), levels)
    if kind is DetectorKind.MMSE:
        with pytest.raises(ValueError, match="noise_var"):
            mmse_estimate_batch(channels, y, bad)


def test_levels_come_as_a_sequence():
    """noise_vars is a sequence of levels, one decision array each; no
    level at all decides nothing."""
    stream = RngStream(66, 0)
    _, h, y = _random_case(stream, 6, 2, 2, snr_db=10.0)
    channels = prepare_channels(DetectorKind.ZF, h)
    z = np.zeros_like(y)
    assert zf_detect_batch(channels, y, z, []).shape == (0, 6, 4)
    for levels in (0.1, [[0.1]]):
        with pytest.raises(ValueError, match="noise_vars"):
            zf_detect_batch(channels, y, z, levels)


def test_tall_channel_supported():
    """More receive than transmit antennas is the easy overdetermined case."""
    rng = RngStream(11, 0)
    s, h, y = _random_case(rng, 200, 4, 2, snr_db=None)
    np.testing.assert_array_equal(_zf(h, y), s)


def test_shape_validation():
    with pytest.raises(ValueError):
        _zf(np.tile(np.eye(2), (2, 1, 1)), np.ones((3, 2)))
    with pytest.raises(ValueError):
        _ml(np.ones((1, 2, 2)), np.ones((1, 3)))
    with pytest.raises(ValueError):
        _ml(np.ones((2, 2)), np.ones((2,)))
    with pytest.raises(ValueError):
        _mmse(np.ones((1, 2, 2)), np.ones((1, 2)), -0.1)
