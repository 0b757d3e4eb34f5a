"""CSV emission: UTF-8, comma-separated, header row, LF line endings,
17-significant-digit decimals.

Every file is a table of write_table: its rows are (outer, inner) index
pairs, its columns arrays whose shapes broadcast to (outer, inner):
constants, values per inner index, values per outer index, or a value per
row. Every value is printed by fmt, floats as "%.17g". The rows reach
write_csv as blocks of bytes, BLOCK_ROWS rows each, which it writes to the
file as they are. They are built in C (_CSV_C): a float64 column is read
in place through its strides (0 along a broadcast axis), and any other
column is formatted by fmt, once per value of its array, and passed as
NUL-padded text. Its fmt17 prints a double by exact integer arithmetic,
locale-free, and reports the values off its exact path, which Python
prints with "%.17g" into the block. A float64 column with fewer values
than the table has rows keeps their texts, for the one table, in 25-byte
slots: one per inner index for a value per inner index, else one, filled
again at each outer index. The first row to reach a slot fills it and
later rows copy it; a value off the exact path is not kept. Where the
library cannot be built or loaded, fmt of each value is joined in Python,
a block at a time, with the same bytes."""

from __future__ import annotations

import functools

import numpy as np

from . import native

BLOCK_ROWS = 2048  # rows built, and written, at a time
FAST_MIN, FAST_MAX = -11, 14  # the decimal exponents of fmt17's exact path


def fmt(value):
    if isinstance(value, (float, np.floating)):
        return f"{value:.17g}"
    return str(value)


# A finite double x = m 2^e (m < 2^53) with decimal exponent E, 10^E <= |x| <
# 10^(E+1), prints as the 17 digits of D = round-half-even(|x| 10^(16-E)).
# For E in [FAST_MIN, FAST_MAX], k = 16 - E is in [2, 27], so 5^k < 2^64 and
# |x| 10^k = m 5^k 2^(e+k) is an integer product of at most 116 bits shifted
# right by 1 to 62 bits. E is first estimated from e and then decided on that
# product, against 10^16 and 10^17: the double nearest 1e-06 lies below it
# and prints as 9.9999999999999995e-07. D < 10^17, since no double of the
# range lies within half a 17th-digit unit below a power of ten. The text
# is laid out as %g does: fixed notation for E >= -4, d.ddde-XX below, with
# trailing zeros and a bare point dropped.
_CSV_C = r"""
#include <math.h>
#include <string.h>

typedef unsigned long long u64;
static const u64 pow5[28] = {POW5};
static const char pairs[] = PAIRS;  /* "00" to "99" */

/* "%.17g" of x into s for zeros, nan (any sign), the infinities and the
   exact path; returns the length, or 0 for any other x. It writes with
   fixed-size copies, up to 33 bytes from s, past the text's end: a '-' at
   s[0] that a positive x overwrites, and that the caller's next byte
   overwrites where it returns 0. */
static int fmt17(double x, char *s)
{
    u64 bits, m, d, rest, half;
    unsigned __int128 product;
    unsigned high, low;
    int e, E, shift, keep, i, n;
    char digit[32];  /* the 17 digits, and room for a fixed-size read */

    memcpy(&bits, &x, 8);
    if (isnan(x)) {
        memcpy(s, "nan", 3);
        return 3;
    }
    s[0] = '-';
    n = bits >> 63;
    if (isinf(x)) {
        memcpy(s + n, "inf", 3);
        return n + 3;
    }
    if (x == 0.0) {
        s[n++] = '0';
        return n;
    }
    if (!(fabs(x) >= 1e-11 && fabs(x) < 1e15))
        return 0;
    m = (bits & ((1ull << 52) - 1)) | 1ull << 52;
    e = (int)(bits >> 52 & 0x7FF) - 1075;
    E = (e + 52) * 78913 >> 18;  /* floor((e + 52) log10 2): E or E - 1 */
    E = E < FAST_MIN ? FAST_MIN : E > FAST_MAX ? FAST_MAX : E;
    for (;;) {
        shift = -(e + 16 - E);
        product = (unsigned __int128)m * pow5[16 - E];
        d = (u64)(product >> shift);
        if (d < 10000000000000000ull && --E < FAST_MIN)
            return 0;
        if (d >= 100000000000000000ull && ++E > FAST_MAX)
            return 0;
        if (d >= 10000000000000000ull && d < 100000000000000000ull)
            break;
    }
    rest = (u64)product & ((1ull << shift) - 1);
    half = 1ull << (shift - 1);
    d += rest + (d & 1) > half;  /* half to even: rest < 2^62, no overflow */
    high = d / 100000000;
    low = d % 100000000;
    for (i = 0; i < 4; i++, high /= 100, low /= 100) {
        memcpy(digit + 15 - 2 * i, pairs + 2 * (low % 100), 2);
        memcpy(digit + 7 - 2 * i, pairs + 2 * (high % 100), 2);
    }
    digit[0] = '0' + high;
    for (keep = 17; digit[keep - 1] == '0'; keep--)
        ;
    if (E < -4) {
        s[n] = digit[0];
        s[n + 1] = '.';
        memcpy(s + n + 2, digit + 1, 16);
        n += keep > 1 ? keep + 1 : 1;
        memcpy(s + n, "e-", 2);
        s[n + 2] = '0' + -E / 10;
        s[n + 3] = '0' + -E % 10;
        return n + 4;
    }
    if (E < 0) {
        memcpy(s + n, "0.000000", 8);
        memcpy(s + n + 1 - E, digit, 17);
        return n + 1 - E + keep;
    }
    memcpy(s + n, digit, 16);
    s[n + E + 1] = '.';
    memcpy(s + n + E + 2, digit + E + 1, 16);
    return n + (keep > E + 1 ? keep + 1 : E + 1);
}

/* Rows r0 to r1 - 1 of a table of ncols columns into out, the fields joined
   by commas and each row ended by LF (no rows without columns). Row r is
   (i, j) = (r / inner, r % inner), and column c's value there is at base[c] + i * outer_step[c]
   + j * inner_step[c]: a double where width[c] is 0, else width[c] bytes
   of text, NUL-padded. A double off fmt17's path leaves its place empty,
   and its offset in out and its value go to off_at and off_value, their
   count to *n_off. out holds 33 bytes more than the rows. Returns the
   bytes written.

   slot[c] is NULL, or the zeroed slots of a double column with fewer
   values than the table has rows, kept from one call to the next: one
   per inner index where the column varies along it, else one, for the
   outer index tag[c] (-1 before the first row). A slot holds fmt17's text
   of its value, 24 bytes, and its length, 0 until a row formats it and
   for a value off fmt17's path, which is formatted, and reported, on
   every row. */
long rows(long ncols, const char *const *base, const long *outer_step, const long *inner_step,
          const long *width, unsigned char *const *slot, long *tag, long inner, long r0, long r1,
          char *out, long *off_at, double *off_value, long *n_off)
{
    long r, c, i, j, w, n = 0, off = 0;
    const char *p;
    unsigned char *q;
    double x;
    int length;

    i = r0 / inner;
    j = r0 % inner;
    for (r = r0; r < r1 && ncols; r++, j = j + 1 < inner ? j + 1 : (i++, 0)) {
        for (c = 0; c < ncols; c++) {
            p = base[c] + i * outer_step[c] + j * inner_step[c];
            q = slot[c] ? slot[c] + (inner_step[c] ? 25 * j : 0) : NULL;
            if (q && !inner_step[c] && tag[c] != i) {  /* a new outer index */
                tag[c] = i;
                q[24] = 0;
            }
            if (width[c]) {
                for (w = 0; w < width[c] && p[w]; w++)
                    out[n++] = p[w];
            } else if (q && q[24]) {
                memcpy(out + n, q, 24);
                n += q[24];
            } else {
                memcpy(&x, p, 8);
                length = fmt17(x, out + n);
                if (!length) {
                    off_at[off] = n;
                    off_value[off++] = x;
                }
                if (q) {
                    memcpy(q, out + n, 24);
                    q[24] = length;
                }
                n += length;
            }
            out[n++] = ',';
        }
        out[n - 1] = '\n';
    }
    *n_off = off;
    return n;
}
"""


@functools.cache
def _library():
    """The blocks of a table from the C rows of _CSV_C, as a function of
    (columns, outer, inner), or None where native.load cannot build or
    load them."""
    pow5, pairs = ", ".join(str(5 ** k) for k in range(28)), "".join(f"{k:02d}" for k in range(100))
    lib = native.load("csv", f"#define POW5 {pow5}\n#define PAIRS \"{pairs}\"\n#define FAST_MIN ({FAST_MIN})\n"
                             f"#define FAST_MAX {FAST_MAX}\n{_CSV_C}")
    if lib is None:
        return None
    import ctypes

    rows, pointer, long = lib.rows, ctypes.c_void_p, ctypes.c_long
    rows.restype = long
    rows.argtypes = [long, *[pointer] * 6, long, long, long, *[pointer] * 4]

    def blocks(columns, outer, inner):
        fields = [np.asarray(c, np.float64) if c.dtype.kind == "f" else _text(c) for c in columns]
        base = np.array([f.ctypes.data for f in fields], np.uintp)
        outer_step, inner_step = (np.array([f.strides[a] * (f.shape[a] > 1) for f in fields], np.int64)
                                  for a in (0, 1))
        width = np.array([0 if f.dtype.kind == "f" else f.itemsize for f in fields], np.int64)
        # a float column that broadcasts: its slots, one per value along inner, else one
        slots = [np.zeros(25 * f.shape[1], np.uint8) if f.dtype.kind == "f" and f.size < outer * inner
                 else None for f in fields]
        slot = np.array([0 if s is None else s.ctypes.data for s in slots], np.uintp)
        tag = np.full(len(fields), -1, np.int64)
        size, count = BLOCK_ROWS, long()
        out = np.empty(size * int(np.where(width, width, 24).sum() + len(fields)) + 33, np.uint8)
        off_at, off_value = np.empty(size * len(fields), np.int64), np.empty(size * len(fields))

        def block(r0, alive=(fields, slots)):
            """Rows r0 on as new bytes: out is overwritten by the next block.
            alive holds the arrays that base and slot point into."""
            n = rows(len(fields), base.ctypes.data, outer_step.ctypes.data, inner_step.ctypes.data,
                     width.ctypes.data, slot.ctypes.data, tag.ctypes.data, inner, r0,
                     min(r0 + size, outer * inner), out.ctypes.data, off_at.ctypes.data,
                     off_value.ctypes.data, ctypes.byref(count))
            data, at, pieces = memoryview(out)[:n], 0, []
            for k, v in zip(off_at[:count.value].tolist(), off_value[:count.value].tolist()):
                pieces += [data[at:k], b"%.17g" % v]  # the values off fmt17's path
                at = k
            return b"".join([*pieces, data[at:]])
        return map(block, range(0, outer * inner, size))
    return blocks


def _text(column):
    """fmt of each value of a column as NUL-padded UTF-8, in its shape."""
    if column.dtype.kind == "U":
        codes = np.ascontiguousarray(column).view(np.uint32)
        if codes.max(initial=0) < 128:  # ASCII, whose UTF-8 bytes are its code points
            return codes.astype(np.uint8).view(f"S{column.itemsize // 4}").reshape(column.shape)
    return np.array([fmt(v).encode() for v in column.ravel().tolist()], bytes).reshape(column.shape)


def _fmt_blocks(columns, outer, inner):
    """The blocks of a table as fmt of each value, joined by commas."""
    texts = [np.broadcast_to(np.array([fmt(v) for v in c.ravel().tolist()], object).reshape(c.shape),
                             (outer, inner)) for c in columns]
    for r0 in range(0, outer * inner, BLOCK_ROWS):
        i, j = divmod(np.arange(r0, min(r0 + BLOCK_ROWS, outer * inner)), inner)
        yield "".join(",".join(row) + "\n" for row in zip(*[t[i, j] for t in texts])).encode()


def fmt17(values):
    """"%.17g" % x for each x of a float array, as a list of str."""
    x = np.asarray(values, np.float64).reshape(-1, 1)
    return b"".join((_library() or _fmt_blocks)([x], len(x), 1)).decode().split("\n")[:-1]


def write_table(path, header, columns):
    """Write outer x inner rows, outer-major, through write_csv; a column
    per header field, each an array whose shape is its layout:

    ()              one value for every row;
    (inner,)        a value per inner index;
    (outer, 1)      a value per outer index;
    (outer, inner)  a value per row.

    outer and inner are the broadcast of the shapes; columns that do not
    broadcast, or whose count is not the header's, raise ValueError before
    the file is opened. Every value is printed by fmt."""
    if len(header) != len(columns):
        raise ValueError(f"{len(header)} header fields for {len(columns)} columns")
    columns = [np.atleast_2d(c) for c in columns]
    outer, inner = np.broadcast_shapes((1, 1), *(c.shape for c in columns))
    write_csv(path, header, (_library() or _fmt_blocks)(columns, outer, inner))


def write_csv(path, header, blocks):
    """Write the header and then the blocks (any iterable of bytes, each
    whole rows of UTF-8, every row ended by LF; read once). An item that is
    not bytes raises TypeError rather than reach the file as str(value), not
    fmt's digits, or as a numpy scalar's raw buffer."""
    with open(path, "wb") as fh:
        fh.write((",".join(header) + "\n").encode())
        for block in blocks:
            if not isinstance(block, bytes):
                raise TypeError(f"a CSV block is bytes, not {type(block).__name__}")
            fh.write(block)


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
