import math
import struct
from unittest import mock
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from eqreinvest import csvio
from eqreinvest.csvio import CELL, CONST, FAST_MAX, FAST_MIN, INNER, OUTER, fmt, fmt17, write_csv, write_table
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


def _texts(chars):
    """The strings of a char matrix's rows, each NUL-padded at its end."""
    return [b.decode() for b in chars.view(f"S{chars.shape[1]}").ravel().tolist()]


def _assert_fmt17_is_printf(values):
    x = np.asarray(values, dtype=np.float64)
    wrong = [(v, got, "%.17g" % v) for v, got in zip(x.tolist(), _texts(fmt17(x))) if got != "%.17g" % v]
    assert not wrong, wrong[:5]


_DOUBLE_BITS = st.integers(min_value=0, max_value=2 ** 64 - 1).map(
    lambda b: struct.unpack("<d", struct.pack("<Q", b))[0])  # every double, nan payloads included


@given(st.floats() | _DOUBLE_BITS)
@example(math.nan)
@example(-math.nan)
@example(math.inf)
@example(-math.inf)
@example(0.0)
@example(-0.0)
@example(5e-324)
@example(-5e-324)
@example(2.225073858507201e-308)  # the largest subnormal
@example(2.2250738585072014e-308)
@example(1.7976931348623157e308)
@example(-1.7976931348623157e308)
def test_fmt17_matches_printf_on_any_double(x):
    _assert_fmt17_is_printf([x])


@given(st.lists(st.floats() | _DOUBLE_BITS, max_size=40))
@settings(max_examples=200)
def test_fmt17_matches_printf_on_mixed_arrays(xs):
    """Fast and fallback values side by side in one array."""
    _assert_fmt17_is_printf(xs)


def test_fmt17_powers_of_ten_and_their_neighbours():
    """The decade is decided on the exact value: the double nearest 1e-06
    lies below it and prints as 9.9999999999999995e-07."""
    xs = []
    for k in range(FAST_MIN - 1, FAST_MAX + 3):
        p = float(f"1e{k}")
        xs += [p, np.nextafter(p, 0.0), np.nextafter(p, math.inf)]
    _assert_fmt17_is_printf(xs + [-x for x in xs])
    assert _texts(fmt17(np.array([1e-06]))) == ["9.9999999999999995e-07"]


def test_fmt17_rounds_exact_ties_half_to_even():
    """x = m / 2^(k+1) with odd m and k = 16 - E is a tie at the 17th digit;
    such doubles exist for decades E from -7 to 15."""
    rng = np.random.default_rng(17)
    xs = []
    for E in range(-7, FAST_MAX + 1):
        k = 16 - E
        low = math.ceil(Fraction(10) ** E * 2 ** (k + 1))
        high = min(math.floor(Fraction(10) ** (E + 1) * 2 ** (k + 1)), 2 ** 53)
        odd = rng.integers(low // 2, high // 2, 2000) * 2 + 1
        ties = odd / 2.0 ** (k + 1)
        assert all((Fraction(x) * 10 ** k).denominator == 2 for x in ties[:20].tolist())
        xs += ties.tolist()
    _assert_fmt17_is_printf(xs + [-x for x in xs])


def test_fmt17_random_values_in_every_decade():
    """10^5 doubles per decade of the fast range, drawn uniformly over the
    bit patterns between 10^E and 10^(E+1), with random signs."""
    rng = np.random.default_rng(20261018)
    for E in range(FAST_MIN, FAST_MAX + 1):
        low, high = np.array([float(f"1e{E}"), float(f"1e{E + 1}")]).view(np.uint64).tolist()
        x = rng.integers(low, high, 100_000, dtype=np.uint64, endpoint=True).view(np.float64)
        _assert_fmt17_is_printf(x * rng.choice([-1.0, 1.0], x.size))


def test_write_csv_lf_only(tmp_path):
    path = tmp_path / "out.csv"
    write_csv(path, ["a", "b"], ["1,2", "0.1,0.2"])
    data = path.read_bytes()
    assert b"\r" not in data
    assert data.endswith(b"\n")
    assert data.decode().splitlines() == ["a,b", "1,2", "0.1,0.2"]


_CELL = st.one_of(
    st.floats(allow_nan=False),
    st.floats(allow_nan=False).map(np.float64),
    st.integers(min_value=-(2 ** 70), max_value=2 ** 70),
    st.text(alphabet="abcxyz_019.-"),
    st.text(alphabet="abcxyz_019.-").map(np.str_),
)
_FLOAT = st.floats() | _DOUBLE_BITS
_WORD = st.text(alphabet="abcxyz_019.-\u00e9")


def _axis_values(size):
    """A column of one axis as the writers pass them: a list of any cell
    types mixed, a range, a float array, or a str array (ASCII or not)."""
    def sized(elements):
        return st.lists(elements, min_size=size, max_size=size)

    return st.one_of(sized(_CELL), st.just(range(size)), sized(_FLOAT).map(np.array),
                     sized(_WORD).map(lambda w: np.array(w, dtype=str)))


@st.composite
def _tables(draw):
    """(outer, inner, columns, value of column c at row (i, j))."""
    outer, inner = draw(st.integers(1, 5)), draw(st.integers(1, 5))
    columns, value_at = [], []
    for kind in draw(st.lists(st.sampled_from([CONST, OUTER, INNER, CELL]), min_size=1, max_size=5)):
        if kind == CONST:
            values = draw(_CELL)
            value_at.append(lambda i, j, v=values: v)
        elif kind == OUTER:
            values = draw(_axis_values(outer))
            value_at.append(lambda i, j, v=values: v[i])
        elif kind == INNER:
            values = draw(_axis_values(inner))
            value_at.append(lambda i, j, v=values: v[j])
        else:  # an (outer, inner) array, or its rows unstacked
            values = np.array(draw(st.lists(_FLOAT, min_size=outer * inner, max_size=outer * inner)))
            values = values.reshape(outer, inner)
            value_at.append(lambda i, j, v=values: v[i, j])
            if draw(st.booleans()):
                values = list(values)
        columns.append((kind, values))
    return outer, inner, columns, value_at


@given(_tables(), st.sampled_from([1, 2, 3, 2048]))
@settings(max_examples=300, deadline=None)
def test_write_table_row_bytes_equal_fmt_join(tmp_path_factory, table, block_rows):
    """Every column kind gives fmt's bytes, row by row, outer-major, for
    every value type the writers pass (float, np.float64, int, str, np.str_,
    mixed freely within a column; float and str arrays, nan and non-ASCII
    text included), in blocks of any size."""
    outer, inner, columns, value_at = table
    path = tmp_path_factory.mktemp("csv") / "table.csv"
    with mock.patch.object(csvio, "BLOCK_ROWS", block_rows):
        write_table(path, ["h"] * len(columns), outer, inner, columns)
    want = ",".join(["h"] * len(columns)) + "\n" + "".join(
        ",".join(fmt(at(i, j)) for at in value_at) + "\n" for i in range(outer) for j in range(inner))
    assert path.read_bytes() == want.encode("utf-8")


@given(st.lists(st.floats(), min_size=1))
def test_write_table_float_columns_follow_fmt(tmp_path_factory, xs):
    """A float array prints as fmt prints each value, nan and the
    infinities included, whether formatted once or a block at a time."""
    x = np.array(xs, dtype=float)
    path = tmp_path_factory.mktemp("csv") / "floats.csv"
    want = "".join(fmt(v) + "\n" for v in xs)
    for outer, inner, column in ((len(x), 1, (OUTER, x)), (1, len(x), (INNER, x)),
                                 (len(x), 1, (CELL, x[:, None])), (1, len(x), (CELL, [x]))):
        write_table(path, ["x"], outer, inner, [column])
        assert path.read_text(encoding="utf-8") == "x\n" + want
    write_table(path, ["x", "k"], len(x), 2, [(OUTER, x), (INNER, ["a", "b"])])
    assert path.read_text(encoding="utf-8") == "x,k\n" + "".join(
        f"{fmt(v)},{k}\n" for v in xs for k in "ab")


def test_writers_reach_write_csv_with_one_line_per_row(tmp_path, monkeypatch, model_case1, gsol_case1):
    """Timing wrappers replace csvio.write_csv and count the items it is
    given: the writers call it through the module global, one str a row."""
    calls = []

    def counting(path, header, lines):
        lines = list(lines)
        calls.append((len(lines), all(isinstance(line, str) for line in lines)))
        return real(path, header, lines)

    real = csvio.write_csv
    monkeypatch.setattr(csvio, "write_csv", counting)
    csvio.write_g_csv(tmp_path / "g.csv", model_case1, gsol_case1)
    rows = len(gsol_case1.grid)
    assert calls == [(2 * rows, True)]
    assert len((tmp_path / "g.csv").read_text().splitlines()) == 2 * rows + 1


@given(st.lists(_WORD.map(str) | st.text(alphabet="abc019.-,").map(np.str_), max_size=8))
@settings(max_examples=200, deadline=None)
def test_write_csv_writes_lines_as_given(tmp_path_factory, lines):
    path = tmp_path_factory.mktemp("csv") / "lines.csv"
    write_csv(path, ["h", "k"], lines)
    want = "h,k\n" + "".join(line + "\n" for line in lines)
    assert path.read_bytes() == want.encode("utf-8")


@pytest.mark.parametrize("row", [("a", 0.1), (1, "b"), ("a", np.float64(0.5))])
@pytest.mark.parametrize("at", [0, 1])
def test_write_csv_rejects_unformatted_values(tmp_path, row, at):
    """A line that is not a str, first or later, raises rather than
    writing anything's str (0.1 where fmt writes 0.10000000000000001)."""
    lines = ["c,d"] * 2
    lines[at] = row
    with pytest.raises(TypeError):
        write_csv(tmp_path / "raw.csv", ["a", "b"], lines)


def test_write_csv_reads_a_generator_once(tmp_path):
    reads = []

    def lines():
        for k in range(3):
            reads.append(k)
            yield f"{fmt(k)},{fmt(0.1 * k)},r{k}"

    path = tmp_path / "gen.csv"
    write_csv(path, ["k", "x", "label"], lines())
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
