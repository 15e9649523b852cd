"""Round-trip and error tests for the polynomial text format."""

import io

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from stepcross.errors import ParameterError
from stepcross.indexsets import SpectrumSet
from stepcross.polyio import (
    dumps_polynomial,
    loads_polynomial,
    read_polynomial,
    write_polynomial,
)
from stepcross.trigpoly import TrigPolynomial, random_in_spectrum


def test_round_trip_exact():
    spec = SpectrumSet.from_boxes(2, [(1, 2), (3, 1)])
    f = random_in_spectrum(spec, seed=11)
    g = loads_polynomial(dumps_polynomial(f))
    assert g.d == f.d
    assert np.array_equal(g.ks, f.ks)
    # repr round-trip keeps every bit
    assert np.array_equal(g.cs, f.cs)


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_round_trip_bit_exact_property(data):
    # any int64 frequency and any finite float, subnormals and -0.0 included
    d = data.draw(st.sampled_from((1, 2, 3)), label="d")
    rows = data.draw(st.lists(st.tuples(*[st.integers(-(1 << 63), (1 << 63) - 1)] * d),
                              max_size=12, unique=True), label="ks")
    parts = st.floats(allow_nan=False, allow_infinity=False)
    cs = [complex(re, im) for re, im in data.draw(
        st.lists(st.tuples(parts, parts), min_size=len(rows), max_size=len(rows)), label="cs")]
    f = TrigPolynomial(np.array(rows, dtype=np.int64).reshape(-1, d), cs)
    g = loads_polynomial(dumps_polynomial(f))
    assert g.d == d
    assert np.array_equal(g.ks, f.ks)
    assert np.array_equal(g.cs.view(np.int64), f.cs.view(np.int64))


def test_round_trip_int64_min():
    # -2^63 is an int64 frequency like any other; its |k| is 2^63
    f = TrigPolynomial([[-2 ** 63, 1], [3, 2]], [1, 1])
    g = loads_polynomial(dumps_polynomial(f))
    assert g.ks.dtype == np.int64
    assert g.ks.tolist() == f.ks.tolist() == [[-2 ** 63, 1], [3, 2]]
    assert g.cs.tolist() == f.cs.tolist()


@pytest.mark.parametrize("rows", [
    "9223372036854775808 1 0",                 # 2^63: numpy reads a uint64 row
    "-9223372036854775809 1 0",                # -2^63 - 1: an object row
    "-1 1 0\n9223372036854775808 1 0",         # with a negative row: float64
    "-1 1 0\n99999999999999999999 1 0",        # past uint64: object
])
def test_frequency_outside_int64_refused(rows):
    with pytest.raises(ParameterError, match="within int64"):
        loads_polynomial(f"d=1\n{rows}\n")


def test_file_and_stream_round_trip(tmp_path):
    f = TrigPolynomial([[2, -5], [0, 1]], [1.5 - 0.25j, 3.0])
    path = tmp_path / "poly.txt"
    write_polynomial(f, path)
    g = read_polynomial(path)
    assert np.array_equal(g.ks, f.ks) and np.array_equal(g.cs, f.cs)

    buf = io.StringIO()
    write_polynomial(f, buf)
    buf.seek(0)
    h = read_polynomial(buf)
    assert np.array_equal(h.cs, f.cs)


def test_comments_and_blank_lines_ignored():
    text = "# saved by hand\nd=1\n\n3 1.0 0.0\n# trailing note\n"
    f = loads_polynomial(text)
    assert f.n_terms == 1
    assert f.coefficient((3,)) == 1.0


def test_zero_polynomial():
    f = loads_polynomial("d=2\n")
    assert f.is_zero and f.d == 2
    assert loads_polynomial(dumps_polynomial(f)).is_zero


def test_duplicate_rows_merge():
    f = loads_polynomial("d=1\n4 1.0 0.0\n4 0.5 0.0\n")
    assert f.n_terms == 1
    assert f.coefficient((4,)) == 1.5


@pytest.mark.parametrize("text", [
    "3 1.0 0.0\n",            # missing header
    "d=zero\n",               # bad dimension
    "d=0\n",                  # nonpositive dimension
    "d=2\n1 1.0 0.0\n",       # wrong arity
    "d=1\nx 1.0 0.0\n",       # bad integer
    "d=1\n1 one 0.0\n",       # bad float
])
def test_malformed_input_rejected(text):
    with pytest.raises(ParameterError):
        loads_polynomial(text)


@pytest.mark.parametrize("line", ["1 nan 0", "2 inf 0", "3 0.5 -inf", "4 1e999 0"])
def test_non_finite_coefficient_rejected(line):
    with pytest.raises(ParameterError, match=f"non-finite coefficient on line '{line}'"):
        loads_polynomial(f"d=1\n5 1.0 0.0\n{line}\n")
