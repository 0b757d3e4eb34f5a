import contextlib
import math
import os
import shutil
import struct
import subprocess
import sys
from unittest import mock
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import eqreinvest
from eqreinvest import csvio
from eqreinvest.csvio import FAST_MAX, FAST_MIN, fmt, fmt17, write_csv, write_table
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


# the CSV rows are built in C with cc; without it fmt is joined in Python
needs_cc = pytest.mark.skipif(shutil.which("cc") is None, reason="no C compiler on PATH")
WRITERS = [pytest.param("c", marks=needs_cc), "python"]


def _writer(kind):
    """A context in which write_table runs the C rows ("c") or, as where
    they cannot be built or loaded, joins fmt in Python ("python")."""
    if kind == "c":
        assert csvio._library() is not None
        return contextlib.nullcontext()
    return mock.patch.object(csvio, "_library", lambda: None)


def _assert_fmt17_is_printf(values):
    x = np.asarray(values, dtype=np.float64)
    wrong = [(v, got, "%.17g" % v) for v, got in zip(x.tolist(), fmt17(x)) if got != "%.17g" % v]
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
@example(2.0 ** 51)
@example(1e15)
@example(999999999999999.9)  # the double below 1e15: the exact path's largest decade
@example(9.999999999999998e15)
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
    assert fmt17(np.array([1e-06])) == ["9.9999999999999995e-07"]


def test_fmt17_rounds_exact_ties_half_to_even():
    """x = m / 2^(k+1) with odd m and k = 16 - E is a tie at the 17th digit;
    such doubles exist for decades E from -7 to 15."""
    xs = _ties(np.random.default_rng(17), 2000)
    _assert_fmt17_is_printf(xs + [-x for x in xs])


def test_fmt17_random_values_in_every_decade():
    """10^5 doubles per decade of the fast range, drawn uniformly over the
    bit patterns between 10^E and 10^(E+1), with random signs."""
    rng = np.random.default_rng(20261018)
    for E in range(FAST_MIN, FAST_MAX + 1):
        low, high = np.array([float(f"1e{E}"), float(f"1e{E + 1}")]).view(np.uint64).tolist()
        x = rng.integers(low, high, 100_000, dtype=np.uint64, endpoint=True).view(np.float64)
        _assert_fmt17_is_printf(x * rng.choice([-1.0, 1.0], x.size))


def _ties(rng, per_decade):
    """Doubles x = m / 2^(k+1), odd m, k = 16 - E: exact ties at the 17th
    digit, which exist for decades E from -7 to 15."""
    xs = []
    for E in range(-7, FAST_MAX + 1):
        k = 16 - E
        low = math.ceil(Fraction(10) ** E * 2 ** (k + 1))
        high = min(math.floor(Fraction(10) ** (E + 1) * 2 ** (k + 1)), 2 ** 53)
        ties = ((rng.integers(low // 2, high // 2, per_decade) * 2 + 1) / 2.0 ** (k + 1)).tolist()
        assert all((Fraction(x) * 10 ** k).denominator == 2 for x in ties[:20])
        xs += ties
    return xs


@needs_cc
def test_c_fmt17_matches_printf_on_a_million_bit_patterns():
    """One call of the C fmt17 on 10^6 random bit patterns and the edge
    cases: nan payloads of both signs (nan, where printf writes -nan), the
    zeros and infinities, the subnormal extremes, each side of the exact
    path's edges 1e-11 and 1e15, and 17th-digit ties."""
    assert csvio._library() is not None
    rng = np.random.default_rng(23)
    bits = rng.integers(0, 2 ** 64, 10 ** 6, dtype=np.uint64, endpoint=False)
    nans = np.array([0x7FF8000000000000, 0xFFF8000000000000, 0x7FF0000000000001, 0xFFFFFFFFFFFFFFFF,
                     0x7FF4000000000123, 0xFFF0000000000001], dtype=np.uint64)
    edges = [0.0, math.inf, 5e-324, 2.225073858507201e-308, 2.2250738585072014e-308, 1e-11, 1e15]
    edges += [np.nextafter(x, t) for x in (1e-11, 1e15) for t in (0.0, math.inf)] + _ties(rng, 20)
    x = np.concatenate([bits.view(np.float64), nans.view(np.float64), edges, np.negative(edges)])
    got = fmt17(x)
    assert {got[i] for i in np.flatnonzero(np.isnan(x)).tolist()} == {"nan"}
    wrong = [(v, text) for v, text in zip(x.tolist(), got) if text != "%.17g" % v]
    assert not wrong, wrong[:5]


def test_write_csv_lf_only(tmp_path):
    path = tmp_path / "out.csv"
    write_csv(path, ["a", "b"], [b"1,2\n", b"0.1,0.2\n"])
    data = path.read_bytes()
    assert b"\r" not in data
    assert data.endswith(b"\n")
    assert data.decode().splitlines() == ["a,b", "1,2", "0.1,0.2"]


_FLOAT = st.floats() | _DOUBLE_BITS
_WORD = st.text(alphabet="abcxyz_019.-\u00e9")
_ELEMENTS = st.sampled_from([
    _FLOAT,
    st.integers(min_value=-(2 ** 70), max_value=2 ** 70),  # int64, uint64 or object arrays
    st.text(alphabet="abcxyz_019.-"),
    _WORD,  # ASCII or not
])


_VALUE_AT = {"const": lambda v, i, j: v[()], "inner": lambda v, i, j: v[j],
             "outer": lambda v, i, j: v[i, 0], "cell": lambda v, i, j: v[i, j]}


@st.composite
def _tables(draw):
    """(outer, inner, columns, value of column c at row (i, j)): each column
    an array of floats, ints or strs whose shape is its layout. outer or
    inner is 1 when no column has that axis."""
    layouts = draw(st.lists(st.sampled_from(list(_VALUE_AT)), min_size=1, max_size=5))
    outer = draw(st.integers(1, 5)) if {"outer", "cell"} & set(layouts) else 1
    inner = draw(st.integers(1, 5)) if {"inner", "cell"} & set(layouts) else 1
    columns, value_at = [], []
    for layout in layouts:
        shape = {"const": (), "inner": (inner,), "outer": (outer, 1), "cell": (outer, inner)}[layout]
        size = math.prod(shape)
        values = np.array(draw(st.lists(draw(_ELEMENTS), min_size=size, max_size=size))).reshape(shape)
        value_at.append(lambda i, j, v=values, at=_VALUE_AT[layout]: at(v, i, j))
        scalar = layout == "const" and draw(st.booleans())  # the writers pass Python scalars too
        columns.append(values.item() if scalar else values)
    return outer, inner, columns, value_at


@pytest.mark.parametrize("writer", WRITERS)
@given(_tables(), st.sampled_from([1, 2, 3, 2048]))
@settings(max_examples=300, deadline=None)
def test_write_table_row_bytes_equal_fmt_join(tmp_path_factory, writer, table, block_rows):
    """Every column shape gives fmt's bytes, row by row, outer-major, for
    every array type the writers pass (float, int, ASCII and non-ASCII str;
    nan and the infinities included), in blocks of any size, from the C
    rows and from the Python join."""
    outer, inner, columns, value_at = table
    path = tmp_path_factory.mktemp("csv") / "table.csv"
    with mock.patch.object(csvio, "BLOCK_ROWS", block_rows), _writer(writer):
        write_table(path, ["h"] * len(columns), columns)
    want = ",".join(["h"] * len(columns)) + "\n" + "".join(
        ",".join(fmt(at(i, j)) for at in value_at) + "\n" for i in range(outer) for j in range(inner))
    assert path.read_bytes() == want.encode("utf-8")


@needs_cc
def test_write_table_slots_last_one_table_across_its_blocks(tmp_path):
    """A float column with fewer values than the table has rows (per inner
    index, per outer index, a constant) is formatted into slots that later
    rows copy. In blocks of 7 rows of a 3 x 20 table, with values off
    fmt17's path among them, the bytes are _fmt_blocks'; a second table of
    the same shapes and other values finds no slot of the first."""
    specials = [5e-324, 1e-300, 1e20, -0.0, math.nan, -math.inf]
    tables = [
        [np.r_[specials, np.linspace(0.1, 1.4, 14)], np.array([[5e-324], [0.1], [-math.inf]]), 1e-300],
        [np.r_[np.linspace(-7.0, 6.0, 14), specials[::-1]], np.array([[-0.0], [1e20], [math.nan]]), 0.25],
    ]
    path = tmp_path / "slots.csv"
    with mock.patch.object(csvio, "BLOCK_ROWS", 7):
        for per_inner, per_outer, constant in tables:
            columns = [per_inner, per_outer, np.float64(constant), np.arange(60.0).reshape(3, 20) / 7]
            write_table(path, list("abcd"), columns)
            want = b"".join(csvio._fmt_blocks([np.atleast_2d(c) for c in columns], 3, 20))
            assert path.read_bytes() == b"a,b,c,d\n" + want


@pytest.mark.parametrize("writer", WRITERS)
@given(st.lists(st.floats(), min_size=1))
def test_write_table_float_columns_follow_fmt(tmp_path_factory, writer, xs):
    """A float array prints as fmt prints each value, nan and the
    infinities included, along either axis, from the C rows and from the
    Python join."""
    x = np.array(xs, dtype=float)
    path = tmp_path_factory.mktemp("csv") / "floats.csv"
    want = "".join(fmt(v) + "\n" for v in xs)
    with _writer(writer):
        for column in (x[:, None], x, x[None, :]):
            write_table(path, ["x"], [column])
            assert path.read_text(encoding="utf-8") == "x\n" + want
        write_table(path, ["x", "k"], [x[:, None], np.array(["a", "b"])])
    assert path.read_text(encoding="utf-8") == "x,k\n" + "".join(
        f"{fmt(v)},{k}\n" for v in xs for k in "ab")


@pytest.mark.parametrize("columns", [
    [np.zeros(3), np.zeros(2)],
    [np.zeros((3, 1)), np.zeros((2, 1))],
    [np.zeros((3, 2)), np.zeros(3)],
    [np.zeros((2, 2, 2))],
])
def test_write_table_rejects_columns_that_do_not_broadcast(tmp_path, columns):
    """The shapes are checked before the file is opened: an existing file
    keeps its bytes."""
    path = tmp_path / "kept.csv"
    path.write_bytes(b"a,b\n1,2\n")
    with pytest.raises(ValueError):
        write_table(path, ["a", "b"], columns)
    assert path.read_bytes() == b"a,b\n1,2\n"


@pytest.mark.parametrize("header, columns", [
    (["a"], [np.zeros(2), np.ones(2)]),
    (["a", "b", "c"], [np.zeros(2)]),
    ([], [np.zeros(2)]),
])
def test_write_table_rejects_a_header_that_is_not_one_field_per_column(tmp_path, header, columns):
    """A header of more or fewer fields than columns raises before the file
    is opened, rather than write rows of another width than the header's:
    an existing file keeps its bytes."""
    path = tmp_path / "kept.csv"
    path.write_bytes(b"a,b\n1,2\n")
    with pytest.raises(ValueError):
        write_table(path, header, columns)
    assert path.read_bytes() == b"a,b\n1,2\n"


@pytest.mark.parametrize("writer", WRITERS)
def test_writers_reach_write_csv_with_bytes_blocks(tmp_path, monkeypatch, writer, model_case1, gsol_case1):
    """Timing wrappers replace csvio.write_csv: the writers call it through
    the module global, with blocks of bytes whose LFs are the rows."""
    calls = []

    def counting(path, header, blocks):
        blocks = list(blocks)
        calls.append((sum(block.count(b"\n") for block in blocks), {type(block) for block in blocks}))
        return real(path, header, blocks)

    real = csvio.write_csv
    monkeypatch.setattr(csvio, "write_csv", counting)
    with mock.patch.object(csvio, "BLOCK_ROWS", 7), _writer(writer):
        csvio.write_g_csv(tmp_path / "g.csv", model_case1, gsol_case1)
    rows = model_case1.horizon.M + 1
    assert calls == [(2 * rows, {bytes})]
    assert len((tmp_path / "g.csv").read_text().splitlines()) == 2 * rows + 1


@given(st.lists(st.lists(_WORD | st.text(alphabet="abc019.-,"), max_size=4), max_size=5))
@settings(max_examples=200, deadline=None)
def test_write_csv_writes_blocks_as_given(tmp_path_factory, blocks):
    """Each block, a list of lines here, reaches the file as its bytes."""
    path = tmp_path_factory.mktemp("csv") / "blocks.csv"
    write_csv(path, ["h", "k"], ["".join(line + "\n" for line in block).encode() for block in blocks])
    want = "h,k\n" + "".join(line + "\n" for block in blocks for line in block)
    assert path.read_bytes() == want.encode("utf-8")


@pytest.mark.parametrize("item", ["c,d\n", 0.1, np.float64(0.5)])
@pytest.mark.parametrize("at", [0, 1])
def test_write_csv_rejects_unformatted_values(tmp_path, item, at):
    """An item that is not bytes, first or later, raises rather than
    writing a str, a float's str (0.1 where fmt writes 0.10000000000000001)
    or a numpy float's raw buffer."""
    blocks = [b"c,d\n"] * 2
    blocks[at] = item
    with pytest.raises(TypeError):
        write_csv(tmp_path / "raw.csv", ["a", "b"], blocks)


def test_write_csv_reads_a_generator_once(tmp_path):
    reads = []

    def blocks():
        for k in range(3):
            reads.append(k)
            yield f"{fmt(k)},{fmt(0.1 * k)},r{k}\n".encode()

    path = tmp_path / "gen.csv"
    write_csv(path, ["k", "x", "label"], blocks())
    assert reads == [0, 1, 2]
    assert path.read_text() == "k,x,label\n0,0,r0\n1,0.10000000000000001,r1\n2,0.20000000000000001,r2\n"


def test_write_table_without_a_c_compiler_writes_the_same_bytes(tmp_path):
    """A fresh interpreter with no cc on PATH and an empty cache cannot
    build the C rows, and its fmt join writes the bytes this process does:
    floats on and off fmt17's exact path, nan, text and int columns."""
    x = np.array([0.1, -2.5e-12, 1e300, math.nan, -0.0, 1e15, 123456.789, 5e-324])
    columns = [x[:, None], np.array(["a", "é"]), np.arange(2) * 7, -1e-7]
    np.save(tmp_path / "x.npy", x)
    code = f"""if True:
        import numpy as np
        from eqreinvest import csvio
        assert csvio._library() is None
        x = np.load({str(tmp_path / "x.npy")!r})
        csvio.write_table({str(tmp_path / "fmt.csv")!r}, list("abcd"),
                          [x[:, None], np.array(["a", "\\u00e9"]), np.arange(2) * 7, -1e-7])
    """
    (tmp_path / "bin").mkdir()
    src = os.path.dirname(os.path.dirname(eqreinvest.__file__))
    subprocess.run([sys.executable, "-c", code], check=True, env={
        **os.environ, "PATH": str(tmp_path / "bin"), "XDG_CACHE_HOME": str(tmp_path / "cache"),
        "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))})
    write_table(tmp_path / "here.csv", list("abcd"), columns)
    assert (tmp_path / "fmt.csv").read_bytes() == (tmp_path / "here.csv").read_bytes()


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
