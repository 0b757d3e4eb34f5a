"""CSV emission: UTF-8, comma-separated, header row, LF line endings,
17-significant-digit decimals.

Floats are printed as "%.17g" would print them, by fmt17: exact integer
arithmetic in numpy, a column at a time. Every file is a table of
write_table: its rows are (outer, inner) index pairs, its columns arrays
whose shapes broadcast to (outer, inner): constants, values per inner
index, values per outer index, or a value per row. Lines are
built BLOCK_ROWS rows at a time, as write_csv reads them, from char matrices
(one row of UTF-8 bytes per value, NUL-padded); a value shared by many rows
(a grid time, an atom's gamma, a constant column) is formatted once."""

from __future__ import annotations

import functools
from itertools import chain, islice

import numpy as np

BLOCK_ROWS = 2048  # lines built, and joined for writing, at a time


def fmt(value):
    if isinstance(value, (float, np.floating)):
        return f"{value:.17g}"
    return str(value)


# ----------------------------------------------------------- exact "%.17g"
#
# A finite double x = m 2^e (m < 2^53) with decimal exponent E, 10^E <= |x| <
# 10^(E+1), prints as the 17 digits of D = round-half-even(|x| 10^(16-E)).
# For E in [FAST_MIN, FAST_MAX], k = 16 - E is in [2, 27], so 5^k < 2^64 and
# |x| 10^k = m 5^k 2^(e+k) is an integer product of at most 116 bits shifted
# right: 2^(e+k) = |x| 10^k / (m 5^k) < 10^17 / (2^52 5^2) < 1.
# E is first taken from log10 and then decided on that exact product, since
# log10 may round a value just below a power of ten up to it (the double
# nearest 1e-06 prints as 9.9999999999999995e-07). The text is gathered from
# the digits by a layout template chosen by sign, E and significant digits.
# Every other value (zeros, nan, inf, subnormals, |x| < 1e-11, |x| >= 1e15)
# goes through "%.17g" itself.

FAST_MIN, FAST_MAX = -11, 14
WIDTH = 24  # the longest "%.17g": -2.2250738585072014e-308
_M32 = np.uint64(0xFFFFFFFF)
_HALF = np.uint64(1 << 63)
# bytes of a value's source row: its first digit, digits 1-16 in four
# 4-digit groups, then constant characters
_DIGIT = [0] + list(range(4, 20))
_NUL, _DOT, _E, _MINUS, _ZERO = 20, 21, 22, 23, 24
_CONSTANTS = b"\0.e-0123456789\0\0"
_DECADES = FAST_MAX + 1 - FAST_MIN


def _key(neg, E, keep):
    """Row of the layout template of a value with sign neg, decade E and
    keep significant digits (1-17); ints or arrays."""
    return (neg * _DECADES + (E - FAST_MIN)) * 18 + keep


@functools.cache
def _tables():
    """Built at first use: 5^k for k = 0..27; the characters (as one uint32)
    and the trailing zeros of each 4-digit group; and the layout templates,
    with their lengths."""
    pow5 = np.array([5 ** k for k in range(28)], dtype=np.uint64)
    v = np.arange(10000, dtype=np.uint16)
    chars = np.stack([v // 1000, v // 100 % 10, v // 10 % 10, v % 10], axis=1).astype(np.uint8) + 48
    tz = sum((v % 10 ** j == 0).astype(np.uint8) for j in (1, 2, 3, 4))
    templates = np.full((_key(2, FAST_MIN, 0), WIDTH), _NUL, dtype=np.uint8)
    lengths = np.zeros(len(templates), np.int64)
    for neg in (0, 1):
        for E in range(FAST_MIN, FAST_MIN + _DECADES):
            for keep in range(1, 18):
                layout = _layout(neg, E, keep)
                templates[_key(neg, E, keep), :len(layout)] = layout
                lengths[_key(neg, E, keep)] = len(layout)
    return pow5, chars.view(np.uint32).ravel(), tz, templates, lengths


def _layout(neg, E, keep):
    """Source bytes of "%.17g" of a value with decimal exponent E whose 17
    digits end in 17 - keep zeros: fixed notation for -4 <= E <= 16 (zeros
    after the point and a bare point dropped), d.ddde-XX below."""
    sign = [_MINUS] if neg else []
    if E < -4:
        mantissa = [_DIGIT[0]] + ([_DOT] + _DIGIT[1:keep] if keep > 1 else [])
        return sign + mantissa + [_E, _MINUS, _ZERO + -E // 10, _ZERO + -E % 10]
    if E < 0:
        return sign + [_ZERO, _DOT] + [_ZERO] * (-E - 1) + _DIGIT[:keep]
    fraction = _DIGIT[E + 1:keep]
    return sign + _DIGIT[:E + 1] + ([_DOT] + fraction if fraction else [])


def _scaled(m, e, k, pow5):
    """(floor, round-half-even) of |x| 10^k = m 5^k 2^(e+k), exactly, for
    k in [2, 27]; both fit in 64 bits where 10^(16-k) <= |x| < 10^(17-k)."""
    p = pow5[k]
    m0, m1 = m & _M32, m >> 32
    p0, p1 = p & _M32, p >> 32
    a = m0 * p0
    mid = m0 * p1 + m1 * p0 + (a >> 32)  # below 2^63 + 2^53 + 2^32
    high = m1 * p1 + (mid >> 32)
    low = m * p  # m 5^k = high 2^64 + low; uint64 products wrap
    s = -(e + k)  # |x| 10^k = (m 5^k) 2^-s, s in [1, 62] on the exact path
    sr = np.clip(s, 1, 63).astype(np.uint64)
    floor = (high << (64 - sr)) | (low >> sr)
    dropped = low << (64 - sr)  # the bits shifted out, at the top: 2^63 is a half
    rounded = floor + ((dropped > _HALF) | ((dropped == _HALF) & (floor & 1).astype(bool)))
    return floor, rounded


def fmt17(values):
    """Char matrix of "%.17g" % x for each x of a float array: row i holds
    the text of values[i], NUL-padded to the longest text. Large arrays
    are done BLOCK_ROWS values at a time."""
    x = np.ascontiguousarray(values, dtype=np.float64).ravel()
    if len(x) <= BLOCK_ROWS:
        return _fmt17_block(x)
    out = np.zeros((len(x), WIDTH), np.uint8)
    for a in range(0, len(x), BLOCK_ROWS):
        block = _fmt17_block(x[a:a + BLOCK_ROWS])
        out[a:a + len(block), :block.shape[1]] = block
    return out


def _fmt17_block(x):
    pow5, chars, tz, templates, lengths = _tables()
    fast, E, d = _decimal(x, pow5)
    src, keep = _digit_bytes(d, chars, tz)
    key = _key(np.signbit(x), E, keep)
    slow = np.flatnonzero(~fast)
    key[slow] = _key(0, 0, 1)
    width = lengths.take(key).max(initial=1)
    if slow.size:  # through "%.17g" itself
        texts = text_column(["%.17g" % v for v in x[slow].tolist()])
        width = max(width, texts.shape[1])
    index = templates[:, :width].take(key, axis=0) + np.arange(0, src.size, src.shape[1])[:, None]
    out = src.ravel().take(index)
    if slow.size:
        out[slow] = 0
        out[slow, :texts.shape[1]] = texts
    return out


def _decimal(x, pow5):
    """(fast, E, d): whether each value takes the exact path, its decimal
    exponent, and its 17 digits as one integer d, 10^16 <= d < 10^17
    (10^16 where not fast)."""
    bits = x.view(np.uint64)
    ax = np.abs(x)
    fast = (ax >= 1e-11) & (ax < 1e15)  # E in [-12, 14]; nan fails both
    m = (bits & np.uint64((1 << 52) - 1)) | np.uint64(1 << 52)
    e = ((bits >> 52) & 0x7FF).astype(np.int64) - 1075
    with np.errstate(divide="ignore"):
        E = np.floor(np.log10(np.where(fast, ax, 1.0)))
    E = np.clip(E, FAST_MIN, FAST_MAX).astype(np.int64)
    floor, d = _scaled(m, e, 16 - E, pow5)
    off = fast & ((floor < 10 ** 16) | (floor >= 10 ** 17))  # E off by one
    if off.any():
        i = np.flatnonzero(off)
        E[i] += np.where(floor[i] >= 10 ** 17, 1, -1)
        inside = (E[i] >= FAST_MIN) & (E[i] <= FAST_MAX)
        fast[i[~inside]] = False
        i = i[inside]
        d[i] = _scaled(m[i], e[i], 16 - E[i], pow5)[1]
    # d < 10^17: no double of the range lies within half a 17th-digit unit
    # below a power of ten (the powers-of-ten test checks each one)
    return fast, E, np.where(fast, d, 10 ** 16).astype(np.int64)


def _digit_bytes(d, chars, tz):
    """(src, keep): a row of bytes per d, its first digit, its other 16
    digits (see _DIGIT) and _CONSTANTS; and its significant digits, 17
    less its trailing zeros."""
    lead, rest = np.divmod(d, 10 ** 16)
    groups = np.empty((len(d), 4), np.int64)
    hi, lo = np.divmod(rest, 10 ** 8)
    groups[:, 0], groups[:, 1] = np.divmod(hi, 10 ** 4)
    groups[:, 2], groups[:, 3] = np.divmod(lo, 10 ** 4)
    zeros = tz.take(groups[:, 3]).astype(np.int64)
    short = np.flatnonzero(groups[:, 3] == 0)
    if short.size:
        more = tz.take(groups[short, 0]).astype(np.int64)
        for j in (1, 2):
            more = tz.take(groups[short, j]) + (groups[short, j] == 0) * more
        zeros[short] += more
    src = np.empty((len(d), 9), np.uint32)
    src[:, 1:5] = chars.take(groups)
    src[:, 5:] = np.frombuffer(_CONSTANTS, np.uint32)
    src = src.view(np.uint8)
    src[:, 0] = lead + 48
    return src, 17 - zeros


# ------------------------------------------------------------ tables

def text_column(strings):
    """Char matrix of strings: the UTF-8 bytes of each in a row, NUL-padded."""
    encoded = np.array([s.encode() for s in strings], dtype=bytes)
    return encoded.view(np.uint8).reshape(len(encoded), -1)


def _chars(values):
    """Char matrix of fmt of each value of a 1-D array: fmt17 for floats,
    the code points themselves for ASCII str, fmt of each value otherwise."""
    if values.dtype.kind == "f":
        return fmt17(values)
    if values.dtype.kind == "U":
        codes = np.ascontiguousarray(values).view(np.uint32).reshape(values.size, -1)
        if codes.max(initial=0) < 128:  # UTF-8 of ASCII is its code point
            return codes.astype(np.uint8)
    return text_column([fmt(v) for v in values.tolist()])


def _lines(n, fields):
    """The n lines of one block, without their LF: the rows of the fields'
    char matrices joined by commas, NULs dropped. A field has a row per
    line, or one row that every line shares."""
    buf = np.empty((n, sum(f.shape[1] + 1 for f in fields)), np.uint8)
    at = 0
    for f in fields:
        buf[:, at:at + f.shape[1]] = f
        buf[:, at + f.shape[1]] = 44  # ","
        at += f.shape[1] + 1
    buf[:, -1] = 10  # LF ends each line, not a comma
    lines = buf[buf != 0].tobytes().decode("utf-8").split("\n")
    lines.pop()
    return lines


def _field(values):
    """field(i0, i1, j0, j1): the char matrix of a 2-D column (1 or outer
    rows, 1 or inner columns) over the rows of outer indices [i0, i1) and
    inner indices [j0, j1). A column that does not vary along outer is
    formatted once; the others a block at a time."""
    rows, cols = values.shape
    if rows == 1:
        chars = _chars(values[0])
        if cols == 1:  # one row that every line shares
            return lambda i0, i1, j0, j1: chars
        return lambda i0, i1, j0, j1: np.tile(chars[j0:j1], (i1 - i0, 1))
    if cols == 1:  # a block holds whole outer rows, or lies in one
        return lambda i0, i1, j0, j1: np.repeat(_chars(values[i0:i1, 0]), j1 - j0, axis=0)
    return lambda i0, i1, j0, j1: _chars(values[i0:i1, j0:j1].ravel())


def write_table(path, header, columns):
    """Write outer x inner rows, outer-major, through write_csv; a column
    per header field, each an array whose shape is its layout:

    ()              one value for every row;
    (inner,)        a value per inner index;
    (outer, 1)      a value per outer index;
    (outer, inner)  a value per row.

    outer and inner are the broadcast of the shapes; columns that do not
    broadcast raise ValueError before the file is opened. Every value is
    printed by fmt (float arrays by fmt17). Lines are built a block of at
    most BLOCK_ROWS rows at a time, as write_csv reads them."""
    columns = [np.atleast_2d(c) for c in columns]
    outer, inner = np.broadcast_shapes((1, 1), *(c.shape for c in columns))
    fields = [_field(c) for c in columns]
    if inner <= BLOCK_ROWS:
        step = BLOCK_ROWS // inner
        spans = [(i, min(i + step, outer), 0, inner) for i in range(0, outer, step)]
    else:
        spans = [(i, i + 1, j, min(j + BLOCK_ROWS, inner))
                 for i in range(outer) for j in range(0, inner, BLOCK_ROWS)]
    blocks = (_lines((i1 - i0) * (j1 - j0), [f(i0, i1, j0, j1) for f in fields])
              for i0, i1, j0, j1 in spans)
    write_csv(path, header, chain.from_iterable(blocks))


def write_csv(path, header, lines):
    """Write the header and the lines (any iterable of str, one per data
    row, without its LF; read once). A line that is not a str raises
    TypeError rather than reach the file as str(value), not fmt's digits.
    Lines are written BLOCK_ROWS at a time, joined."""
    lines = iter(lines)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        while chunk := list(islice(lines, BLOCK_ROWS)):
            chunk.append("")
            fh.write("\n".join(chunk))


def write_g_csv(path, model, gsol):
    """GSolution export: one row per (grid point, atom), time ascending."""
    write_table(path, ["t", "atom_index", "gamma", "g1", "g2", "g3"], [
        model.horizon.grid()[:, None], np.arange(model.dist.n), model.dist.gammas,
        gsol.g1.T, gsol.g2.T, gsol.g3.T])


def write_strategy_csv(path, grid, q, pi, regime):
    """A strategy (q, pi) on the grid: one row per grid point, with its regime label."""
    write_table(path, ["t", "q_hat", "pi_hat", "regime"], [c[:, None] for c in (grid, q, pi, regime)])


def write_admissibility_csv(path, model, report):
    write_table(path, ["t", "atom_index", "lhs", "rhs", "margin"], [
        model.horizon.grid()[:, None], np.arange(model.dist.n), report.lhs.T, report.rhs, report.margin.T])


def write_simulation_csv(path, model, result):
    header = ["atom_index", "gamma", "utility_mean", "utility_se", "cert_equiv", "reward_J"]
    write_table(path, header, [np.arange(model.dist.n), model.dist.gammas, result.utility_mean,
                               result.utility_se, result.cert_equiv, result.reward])


def write_sweep_csv(path, param, grid, values, curves, label):
    """A sweep of param: one row per (value, grid point), the curve of each
    value (a row of curves, over the grid) in its rows."""
    write_table(path, ["param", "value", "t", "observable", "result"], [
        param, np.asarray(values)[:, None], grid, label, curves])
