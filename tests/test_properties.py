"""Property tests: sweep parsing, the CSV round trip, OSTBC orthogonality
and the Wilson interval, over generated inputs. Hypothesis runs
derandomized and without its example database, so every run draws the same
examples."""

import math
from fractions import Fraction

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from mimolink.channel import ChannelSpec
from mimolink.cli import _parse_sweep
from mimolink.sim import Experiment, SimConfig, SimResult, SweepPoint, emit_csv, wilson_interval
from mimolink.stbc import combine_array, encode_array, ostbc_code, supported_codes
from _support import parse_csv

PROPERTY = settings(derandomize=True, database=None, deadline=None)

_numbers = st.floats().map(repr)
_sweep_texts = st.one_of(
    st.text(),
    st.lists(_numbers, max_size=6).map(",".join),
    st.tuples(_numbers, _numbers, _numbers).map(":".join),
    st.tuples(st.integers(-50, 50), st.integers(-5, 20), st.integers(-50, 50)).map(
        lambda t: ":".join(map(str, t))
    ),
)


@settings(PROPERTY, max_examples=500)
@given(_sweep_texts)
def test_parse_sweep_returns_a_valid_sweep_or_raises_value_error(text):
    try:
        values = _parse_sweep(text)
    except ValueError:
        return
    assert isinstance(values, tuple) and len(values) > 0
    assert all(isinstance(v, float) and math.isfinite(v) for v in values)
    assert all(b > a for a, b in zip(values, values[1:]))


@PROPERTY
@given(st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=1, unique=True))
def test_parse_sweep_reads_a_comma_list_exactly(values):
    values = sorted(values)  # unique compares by ==, so strictly increasing
    assert _parse_sweep(",".join(map(repr, values))) == tuple(values)


@st.composite
def _sweep_points(draw):
    frames = draw(st.integers(1, 2**32))
    frame_errors = draw(st.integers(0, frames))
    bits = draw(st.integers(1, 2**40))
    bit_errors = draw(st.integers(0, bits))
    return SweepPoint(
        x=draw(st.floats(allow_nan=False, allow_infinity=False)),
        frames=frames,
        frame_errors=frame_errors,
        bits=bits,
        bit_errors=bit_errors,
        fer=frame_errors / frames,
        ber=bit_errors / bits,
        ci95_fer=wilson_interval(frame_errors, frames),
        ci95_ber=wilson_interval(bit_errors, bits),
        elapsed_s=0.0,
    )


@PROPERTY
@given(st.lists(_sweep_points(), min_size=1, max_size=5))
def test_csv_round_trips_counts_exactly(points):
    config = SimConfig(
        experiment=Experiment.FER_VS_GAIN,
        channel=ChannelSpec(n_tx=2, n_rx=2),
        code=(2, Fraction(1)),
        sweep=(0.0,),
    )
    meta, rows = parse_csv(emit_csv(SimResult(config=config, points=points)))
    assert meta["experiment"] == "fer_vs_gain"
    counts = ("frames", "frame_errors", "bits", "bit_errors")
    assert [tuple(r[c] for c in counts) for r in rows] == [
        tuple(getattr(p, c) for c in counts) for p in points
    ]
    for row, p in zip(rows, points):
        assert math.isclose(row["x"], p.x, rel_tol=1e-5)
        assert math.isclose(row["fer"], p.fer, rel_tol=1e-5)
        assert math.isclose(row["ber"], p.ber, rel_tol=1e-5)


_parts = st.floats(-100.0, 100.0, allow_nan=False)
_complex = st.builds(complex, _parts, _parts)


@st.composite
def _ostbc_blocks(draw):
    """A design, a symbol block for it, and a receive channel (n_rx, n_tx)
    with Frobenius norm^2 of at least 1e-2."""
    code = ostbc_code(*draw(st.sampled_from(supported_codes())))
    s = np.array(draw(st.lists(_complex, min_size=code.n_symbols, max_size=code.n_symbols)))
    n_rx = draw(st.integers(1, 4))
    entries = draw(st.lists(_complex, min_size=n_rx * code.n_tx, max_size=n_rx * code.n_tx)
                   .filter(lambda hs: sum(abs(v) ** 2 for v in hs) >= 1e-2))
    return code, s, np.array(entries).reshape(n_rx, code.n_tx)


@PROPERTY
@given(_ostbc_blocks())
def test_ostbc_codewords_are_orthogonal_and_combine_exactly(block):
    """X(s)^H X(s) = (sum |s_i|^2 / N_t) I for every design, and the combiner
    recovers s from the noiseless block Y = X H^T."""
    code, s, h = block
    x = encode_array(code, s[None])[0]
    energy = np.sum(np.abs(s) ** 2)
    scale = max(1.0, energy)
    np.testing.assert_allclose(x.conj().T @ x, energy / code.n_tx * np.eye(code.n_tx), atol=1e-12 * scale)
    s_hat = combine_array(code, (x @ h.T)[None], h[None])[0]
    np.testing.assert_allclose(s_hat, s, atol=1e-12 * math.sqrt(scale))


@PROPERTY
@given(st.integers(1, 2**40).flatmap(lambda n: st.tuples(st.integers(0, n), st.just(n))))
def test_wilson_interval_lies_in_unit_interval_and_contains_the_estimate(counts):
    errors, trials = counts
    lo, hi = wilson_interval(errors, trials)
    assert 0.0 <= lo <= errors / trials <= hi <= 1.0
