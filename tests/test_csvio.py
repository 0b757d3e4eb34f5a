import math
import struct
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from eqreinvest.csvio import FAST_MAX, FAST_MIN, fmt, fmt17, fmt_column, write_csv
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
