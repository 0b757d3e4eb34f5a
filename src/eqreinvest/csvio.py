"""CSV emission: UTF-8, comma-separated, header row, LF line endings,
17-significant-digit decimals."""

from __future__ import annotations

import numpy as np


def fmt(value):
    if isinstance(value, (float, np.floating)):
        return f"{value:.17g}"
    return str(value)


class _RowFormats(dict):
    """Column types of a row -> its %-format line, with fmt's rule per column."""

    def __missing__(self, types):
        line = ",".join("%.17g" if issubclass(t, (float, np.floating)) else "%s" for t in types)
        self[types] = line + "\n"
        return self[types]


def write_csv(path, header, rows):
    """Write header and rows (any iterable, read once); each row is one
    %-format whose bytes equal ",".join(fmt(v) for v in row)."""
    formats = _RowFormats()
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        fh.writelines(formats[tuple(map(type, row))] % tuple(row) for row in rows)


def write_g_csv(path, model, gsol):
    """GSolution export: one row per (grid point, atom), time ascending."""
    gammas = model.dist.gammas
    columns = zip(gsol.grid.tolist(), gsol.g1.T.tolist(), gsol.g2.T.tolist(), gsol.g3.T.tolist())
    rows = (
        (t, i, gamma, g1, g2, g3)
        for t, g1s, g2s, g3s in columns
        for i, (gamma, g1, g2, g3) in enumerate(zip(gammas, g1s, g2s, g3s))
    )
    write_csv(path, ["t", "atom_index", "gamma", "g1", "g2", "g3"], rows)


def write_strategy_csv(path, spath):
    rows = zip(spath.grid.tolist(), spath.q_hat.tolist(), spath.pi_hat.tolist(), spath.regime.tolist())
    write_csv(path, ["t", "q_hat", "pi_hat", "regime"], rows)


def write_admissibility_csv(path, model, report):
    rhs = report.rhs
    rows = (
        (t, i, lhs, rhs, rhs - lhs)
        for t, lhs_at_t in zip(report.grid.tolist(), report.lhs.T.tolist())
        for i, lhs in enumerate(lhs_at_t)
    )
    write_csv(path, ["t", "atom_index", "lhs", "rhs", "margin"], rows)


def write_simulation_csv(path, result):
    rows = []
    for i, gamma in enumerate(result.gammas):
        rows.append(
            (i, gamma, result.utility_mean[i], result.utility_se[i],
             result.cert_equiv[i], result.reward)
        )
    write_csv(
        path,
        ["atom_index", "gamma", "utility_mean", "utility_se", "cert_equiv", "reward_J"],
        rows,
    )
