import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eqreinvest.csvio import fmt, fmt_column, write_csv
from eqreinvest.model import AversionDistribution, Horizon, validate_config
from eqreinvest.odes import g2_closed_single
from eqreinvest.presets import BASE_HESTON, BASE_INSURANCE
from eqreinvest.strategy import q_hat


@given(st.floats(allow_nan=False, allow_infinity=False))
def test_fmt_round_trips_exactly(x):
    """17 significant digits reconstruct any finite double bit-for-bit."""
    assert float(fmt(x)) == x


def test_fmt_compact_for_simple_values():
    assert fmt(1.0) == "1"
    assert fmt(0.5) == "0.5"


def test_write_csv_lf_only(tmp_path):
    path = tmp_path / "out.csv"
    write_csv(path, ["a", "b"], [("1", "2"), ("0.1", "0.2")])
    data = path.read_bytes()
    assert b"\r" not in data
    assert data.endswith(b"\n")
    assert data.decode().splitlines()[0] == "a,b"


_CELL = st.one_of(
    st.floats(allow_nan=False),
    st.floats(allow_nan=False).map(np.float64),
    st.integers(min_value=-(2 ** 70), max_value=2 ** 70),
    st.text(alphabet="abcxyz_019.-"),
    st.text(alphabet="abcxyz_019.-").map(np.str_),
)


@given(st.lists(st.lists(_CELL, min_size=1, max_size=6), max_size=8))
@settings(max_examples=200, deadline=None)
def test_write_csv_row_bytes_equal_fmt_join(tmp_path_factory, rows):
    """The column formatter gives fmt's bytes for every column type the
    writers pass (float, np.float64, int, str, np.str_), mixed freely
    within a column, and so does its float-array path for a column of
    floats."""
    for row in rows:  # a row's values as one column
        assert list(fmt_column(row)) == [fmt(v) for v in row]
        if all(isinstance(v, float) for v in row):
            assert list(fmt_column(np.array(row))) == [fmt(v) for v in row]
    path = tmp_path_factory.mktemp("csv") / "rows.csv"
    write_csv(path, ["h"], (tuple(fmt_column(row)) for row in rows))
    want = "h\n" + "".join(",".join(fmt(v) for v in row) + "\n" for row in rows)
    assert path.read_bytes() == want.encode("utf-8")


@given(st.lists(st.floats()))
def test_fmt_column_float_array_follows_fmt(xs):
    """nan and the infinities included."""
    assert list(fmt_column(np.array(xs, dtype=float))) == [fmt(x) for x in xs]


_TEXT = st.text(alphabet="abcxyz_019.-\u00e9").map(str) | st.text(alphabet="abc019.-").map(np.str_)


@given(st.lists(st.lists(_TEXT, min_size=1, max_size=6), max_size=8))
@settings(max_examples=200, deadline=None)
def test_write_csv_string_rows_are_comma_joined(tmp_path_factory, rows):
    path = tmp_path_factory.mktemp("csv") / "rows.csv"
    write_csv(path, ["h"], rows)
    want = "h\n" + "".join(",".join(row) + "\n" for row in rows)
    assert path.read_bytes() == want.encode("utf-8")


@pytest.mark.parametrize("row", [("a", 0.1), (1, "b"), ("a", np.float64(0.5))])
@pytest.mark.parametrize("at", [0, 1])
def test_write_csv_rejects_unformatted_values(tmp_path, row, at):
    """A row of raw values, first or later, raises rather than writing
    their str (0.1 where fmt writes 0.10000000000000001)."""
    rows = [("c", "d")] * 2
    rows[at] = row
    with pytest.raises(TypeError):
        write_csv(tmp_path / "raw.csv", ["a", "b"], rows)


def test_write_csv_reads_a_generator_once(tmp_path):
    reads = []

    def rows():
        for k in range(3):
            reads.append(k)
            yield (fmt(k), fmt(0.1 * k), f"r{k}")

    path = tmp_path / "gen.csv"
    write_csv(path, ["k", "x", "label"], rows())
    assert reads == [0, 1, 2]
    assert path.read_text() == "k,x,label\n0,0,r0\n1,0.10000000000000001,r1\n2,0.20000000000000001,r2\n"


@given(
    gamma=st.floats(min_value=0.05, max_value=50.0),
    t=st.floats(min_value=0.0, max_value=10.0),
)
@settings(max_examples=50, deadline=None)
def test_q_hat_scales_inversely_with_gamma(gamma, t):
    def model_for(g):
        return validate_config(
            BASE_INSURANCE, BASE_HESTON, AversionDistribution.single(g), Horizon(T=10.0, M=10)
        )

    q1 = float(q_hat(model_for(gamma), t))
    q2 = float(q_hat(model_for(2.0 * gamma), t))
    assert q2 == q1 / 2.0 or math.isclose(q2, q1 / 2.0, rel_tol=1e-12)


@given(t=st.floats(min_value=0.0, max_value=10.0))
@settings(max_examples=50, deadline=None)
def test_g2_closed_nonpositive_and_bounded(t):
    val = float(g2_closed_single(t, BASE_HESTON, T=10.0))
    # bounded by the stationary root of the scalar Riccati equation
    assert -1.0 < val <= 0.0
