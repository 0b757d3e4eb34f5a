"""CSV emission: UTF-8, comma-separated, header row, LF line endings,
17-significant-digit decimals. Writers format column by column, a value
shared by many rows once, as write_csv reads the rows."""

from __future__ import annotations

from itertools import chain, cycle, repeat

import numpy as np


def fmt(value):
    if isinstance(value, (float, np.floating)):
        return f"{value:.17g}"
    return str(value)


def fmt_column(values):
    """fmt of each value, made as it is read. A float array goes through one
    C-level map of "%.17g" over .tolist(), which is fmt's rule for floats."""
    if isinstance(values, np.ndarray) and values.dtype.kind == "f":
        return map("%.17g".__mod__, values.tolist())
    return map(fmt, values)


def _per_atom(column, n):
    """Each value of a column n times in a row: the n atom rows of a grid point."""
    return chain.from_iterable(map(repeat, column, repeat(n)))


def write_csv(path, header, rows):
    """Write header and rows (any iterable of sequences of str, read once);
    each row's bytes are ",".join(row). A value that is not a str raises
    TypeError rather than reach the file as str(value), not fmt's digits."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        fh.writelines(map("%s\n".__mod__, map(",".join, rows)))


def write_g_csv(path, model, gsol):
    """GSolution export: one row per (grid point, atom), time ascending."""
    n = model.dist.n
    rows = zip(
        _per_atom(fmt_column(gsol.grid), n),
        cycle(map(str, range(n))),
        cycle(fmt_column(model.dist.gammas)),
        *(fmt_column(g.T.ravel()) for g in (gsol.g1, gsol.g2, gsol.g3)),
    )
    write_csv(path, ["t", "atom_index", "gamma", "g1", "g2", "g3"], rows)


def write_strategy_csv(path, spath):
    rows = zip(*map(fmt_column, (spath.grid, spath.q_hat, spath.pi_hat)), spath.regime.tolist())
    write_csv(path, ["t", "q_hat", "pi_hat", "regime"], rows)


def write_admissibility_csv(path, model, report):
    n = model.dist.n
    lhs = report.lhs.T.ravel()  # time-major, like the rows
    rows = zip(
        _per_atom(fmt_column(report.grid), n),
        cycle(map(str, range(n))),
        fmt_column(lhs),
        repeat(fmt(report.rhs)),
        fmt_column(report.rhs - lhs),
    )
    write_csv(path, ["t", "atom_index", "lhs", "rhs", "margin"], rows)


def write_simulation_csv(path, result):
    columns = (result.gammas, result.utility_mean, result.utility_se, result.cert_equiv)
    rows = zip(map(str, range(len(result.gammas))), *map(fmt_column, columns), repeat(fmt(result.reward)))
    write_csv(
        path,
        ["atom_index", "gamma", "utility_mean", "utility_se", "cert_equiv", "reward_J"],
        rows,
    )
