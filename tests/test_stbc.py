"""Tests for the orthogonal space-time block codes and their combiner."""

import math
from fractions import Fraction

import numpy as np
import pytest

from mimolink import numerics
from mimolink.modem import qpsk_demodulate, qpsk_modulate
from mimolink.numerics import RngStream
from mimolink.stbc import (
    combine_array,
    encode_array,
    ostbc_code,
    supported_codes,
)
from _support import complex_normal

# (n_tx, rate) -> (symbols per block, block length)
DESIGN_TABLE = {
    (2, Fraction(1)): (2, 2),
    (3, Fraction(1, 2)): (4, 8),
    (3, Fraction(3, 4)): (3, 4),
    (4, Fraction(1, 2)): (4, 8),
    (4, Fraction(3, 4)): (3, 4),
}


def _random_symbols(rng: np.random.Generator, n: int) -> np.ndarray:
    return rng.normal(size=n) + 1j * rng.normal(size=n)


def test_design_table():
    assert set(supported_codes()) == set(DESIGN_TABLE)
    for (n_tx, rate), (k, t) in DESIGN_TABLE.items():
        code = ostbc_code(n_tx, rate)
        assert code.n_tx == n_tx
        assert code.rate == rate
        assert code.n_symbols == k
        assert code.block_len == t
        assert Fraction(k, t) == rate
        assert code.a_mats.shape == code.b_mats.shape == (k, t, n_tx)


def test_rate_argument_forms():
    by_fraction = ostbc_code(4, Fraction(3, 4))
    assert ostbc_code(4, 0.75) is by_fraction  # cached
    assert ostbc_code(4, "3/4") is by_fraction
    assert ostbc_code(2, 1) is ostbc_code(2, Fraction(1))


def test_unknown_design_raises():
    with pytest.raises(ValueError):
        ostbc_code(1, 1)
    with pytest.raises(ValueError):
        ostbc_code(2, Fraction(1, 2))
    with pytest.raises(ValueError):
        ostbc_code(4, Fraction(2, 3))


def test_dispersion_matrices_are_real_and_frozen():
    for n_tx, rate in supported_codes():
        code = ostbc_code(n_tx, rate)
        assert code.a_mats.dtype == np.float64
        assert code.b_mats.dtype == np.float64
        with pytest.raises(ValueError):
            code.a_mats[0, 0, 0] = 1.0


def test_alamouti_codeword_layout():
    s1, s2 = 0.3 + 0.7j, -1.1 + 0.2j
    x = encode_array(ostbc_code(2, 1), np.array([[s1, s2]]))[0]
    expected = np.array([[s1, s2], [-np.conj(s2), np.conj(s1)]]) / math.sqrt(2.0)
    np.testing.assert_allclose(x, expected, rtol=1e-15)


def test_alamouti_row_energy():
    syms = qpsk_modulate(np.array([0, 1, 1, 0], dtype=np.uint8))
    x = encode_array(ostbc_code(2, 1), syms.reshape(1, 2))[0]
    np.testing.assert_allclose(np.sum(np.abs(x) ** 2, axis=1), 1.0, rtol=1e-15)


def test_zero_symbols_give_zero_codeword():
    for n_tx, rate in supported_codes():
        code = ostbc_code(n_tx, rate)
        x = encode_array(code, np.zeros((1, code.n_symbols), dtype=np.complex128))
        assert not x.any()


def test_encode_is_real_linear():
    rng = np.random.default_rng(40)
    for n_tx, rate in supported_codes():
        code = ostbc_code(n_tx, rate)
        a = _random_symbols(rng, code.n_symbols)[None, :]
        b = _random_symbols(rng, code.n_symbols)[None, :]
        np.testing.assert_allclose(
            encode_array(code, a + b),
            encode_array(code, a) + encode_array(code, b),
            atol=1e-12,
        )
        np.testing.assert_allclose(
            encode_array(code, 2.5 * a), 2.5 * encode_array(code, a), atol=1e-12
        )


def test_codeword_orthogonality():
    """X^H X must equal (|s|^2 / N_t) I for every design, any symbols."""
    rng = np.random.default_rng(41)
    for n_tx, rate in supported_codes():
        code = ostbc_code(n_tx, rate)
        syms = _random_symbols(rng, 1000 * code.n_symbols).reshape(1000, code.n_symbols)
        x = encode_array(code, syms)
        gram = np.einsum("nti,ntj->nij", x.conj(), x)
        scale = np.sum(np.abs(syms) ** 2, axis=1) / n_tx
        expected = scale[:, None, None] * np.eye(n_tx)
        np.testing.assert_allclose(gram, expected, atol=1e-10)


def test_noiseless_recovery_all_codes():
    """Combining y = X h^T with the true channel returns the symbols exactly."""
    rng = np.random.default_rng(42)
    for n_tx, rate in supported_codes():
        code = ostbc_code(n_tx, rate)
        for n_rx in (1, 2, 4):
            n = 300
            syms = _random_symbols(rng, n * code.n_symbols).reshape(n, code.n_symbols)
            h = rng.normal(size=(n, n_rx, n_tx)) + 1j * rng.normal(size=(n, n_rx, n_tx))
            x = encode_array(code, syms)
            y = np.einsum("ntm,nrm->ntr", x, h)
            s_hat = combine_array(code, y, h)
            assert np.max(np.abs(s_hat - syms)) < 1e-9


def test_alamouti_identity_channel_exact():
    code = ostbc_code(2, 1)
    syms = np.array([0.6 - 0.8j, -0.2 + 1.4j])
    x = encode_array(code, syms[None, :])[0]
    h = np.eye(2, dtype=np.complex128)
    y = x @ h.T
    np.testing.assert_allclose(combine_array(code, y[None], h[None])[0], syms, atol=1e-14)


def test_zero_received_signal_gives_zero_estimates():
    code = ostbc_code(4, Fraction(3, 4))
    h = np.ones((2, 4), dtype=np.complex128)
    est = combine_array(code, np.zeros((1, 4, 2)), h[None])[0]
    np.testing.assert_array_equal(est, np.zeros(3, dtype=np.complex128))


def test_zero_channel_raises():
    code = ostbc_code(2, 1)
    with pytest.raises(ValueError):
        combine_array(code, np.zeros((1, 2, 1)), np.zeros((1, 1, 2)))


def _einsum_combine(code, y, h):
    """The combiner as two complex three-operand einsums, the form whose
    bits the real-plane fold reproduces."""
    h_norm_sq = np.sum(np.abs(h) ** 2, axis=(1, 2))
    yc = y.conj()
    c = np.einsum("brm,btr,ktm->bk", h, yc, code.a_mats)
    d = np.einsum("brm,btr,ktm->bk", h, yc, code.b_mats)
    return math.sqrt(code.n_tx) * (c.real - 1j * d.imag) / h_norm_sq[:, None]


@pytest.mark.parametrize("n_rx", range(1, 5))
@pytest.mark.parametrize("n_tx, rate", sorted(DESIGN_TABLE))
def test_combine_equals_einsum_bit_for_bit(n_tx, rate, n_rx, monkeypatch):
    """combine_array equals the two-einsum combiner bit for bit, signed
    zeros included, for every code and receive count: at 1, 7 and 400
    blocks, at 5,000, which spans several tiles of every shape, and in
    tiles of one block; with h both as the engine passes it, a strided
    view h[::T] of one channel a row, and as a contiguous copy; and with
    blocks that hold exact and signed zeros."""
    code = ostbc_code(n_tx, rate)
    t_len = code.block_len
    rng = np.random.default_rng([n_tx, rate.denominator, n_rx])

    def normals(*shape):
        return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)

    def check(y, h):
        for channels in (h, h.copy()):
            want = _einsum_combine(code, y, channels)
            np.testing.assert_array_equal(combine_array(code, y, channels).view(np.uint64), want.view(np.uint64))

    for blocks in (1, 7, 400, 5000):
        h = normals(blocks * t_len, n_rx, n_tx)[::t_len]
        y = normals(blocks, t_len, n_rx)
        # A block of signed zeros under a channel of positive parts, where
        # every real-plane product is a signed zero.
        y[0] = complex(-0.0, -0.0)
        h[0] = np.abs(h[0].real) + 1j * np.abs(h[0].imag)
        h[-1, 0, 0] = complex(0.0, -0.0)  # an exact zero channel entry
        h[-1, -1, -1] = complex(-0.0, 0.5)  # a signed-zero real part
        y[-1, 0, 0] = complex(-0.0, 0.0)
        y[blocks // 2, :, 0] = 0.0  # a silent receive antenna
        check(y, h)
    monkeypatch.setattr(numerics, "CHUNK_ELEMENTS", 1)
    check(y[:7], h[:7])


def test_block_bookkeeping():
    """A batch of symbol blocks encodes to one codeword per block, each the
    codeword of that block alone."""
    code = ostbc_code(3, Fraction(1, 2))
    syms = _random_symbols(np.random.default_rng(43), 12)
    blocks = encode_array(code, syms.reshape(-1, code.n_symbols))
    assert blocks.shape == (3, 8, 3)  # 12 symbols / 4 per block
    for i, block in enumerate(blocks):
        np.testing.assert_array_equal(block, encode_array(code, syms[None, 4 * i : 4 * (i + 1)])[0])


def test_length_not_multiple_of_block_raises():
    with pytest.raises(ValueError):
        encode_array(ostbc_code(4, Fraction(1, 2)), np.ones((2, 3), dtype=np.complex128))


def test_combiner_shape_checks():
    code = ostbc_code(2, 1)
    with pytest.raises(ValueError):
        combine_array(code, np.zeros((1, 3, 2)), np.ones((1, 2, 2)))  # wrong T
    with pytest.raises(ValueError):
        combine_array(code, np.zeros((1, 2, 2)), np.ones((1, 2, 3)))  # wrong n_tx
    with pytest.raises(ValueError):
        combine_array(code, np.zeros((2, 2, 2)), np.ones((1, 2, 2)))  # batch mismatch


def test_combiner_rejects_noise_gracefully():
    """With noise the combiner output stays near the symbols, not exact."""
    rng = np.random.default_rng(44)
    code = ostbc_code(4, Fraction(3, 4))
    syms = _random_symbols(rng, 3)[None, :]
    h = rng.normal(size=(1, 4, 4)) + 1j * rng.normal(size=(1, 4, 4))
    y = np.einsum("ntm,nrm->ntr", encode_array(code, syms), h)
    noise = 1e-3 * (rng.normal(size=y.shape) + 1j * rng.normal(size=y.shape))
    est = combine_array(code, y + noise, h)
    assert 0.0 < np.max(np.abs(est - syms)) < 0.1


def _ber_uncoded_1x1(snr_db: float, n_bits: int, seed: int) -> float:
    """Direct Monte Carlo of uncoded QPSK over flat Rayleigh, coherent RX."""
    rng = RngStream(seed, 0)
    bits = (rng.uniform(n_bits) < 0.5).astype(np.uint8)
    syms = qpsk_modulate(bits)
    h = complex_normal(rng, (len(syms),))
    noise_var = 10.0 ** (-snr_db / 10.0)
    y = h * syms + complex_normal(rng, (len(syms),), var=noise_var)
    bits_hat = qpsk_demodulate(y * np.conj(h) / np.abs(h) ** 2)
    return float(np.count_nonzero(bits_hat != bits)) / n_bits


def _ber_alamouti_2x1(snr_db: float, n_bits: int, seed: int) -> float:
    """Alamouti over two independent flat Rayleigh links, block-static."""
    rng = RngStream(seed, 1)
    code = ostbc_code(2, 1)
    bits = (rng.uniform(n_bits) < 0.5).astype(np.uint8)
    syms = qpsk_modulate(bits).reshape(-1, 2)
    n = syms.shape[0]
    h = complex_normal(rng, (n, 1, 2))
    x = encode_array(code, syms)
    y = np.einsum("ntm,nrm->ntr", x, h)
    noise_var = 10.0 ** (-snr_db / 10.0)
    y = y + complex_normal(rng, y.shape, var=noise_var)
    est = combine_array(code, y, h)
    bits_hat = qpsk_demodulate(est.ravel())
    return float(np.count_nonzero(bits_hat != bits)) / n_bits


def test_alamouti_diversity_gain():
    """Two-branch transmit diversity must clearly beat a single link."""
    n_bits = 100_000
    ber_siso = _ber_uncoded_1x1(10.0, n_bits, seed=1234)
    ber_alam = _ber_alamouti_2x1(10.0, n_bits, seed=1234)
    # ~2e-2 vs ~5e-3 at 10 dB; half-widths are far below the gap
    assert ber_alam < 0.5 * ber_siso
    assert ber_siso > 1e-3
