"""Per-layer spans, recorded from outside the program.

``install`` replaces public functions of the program's modules by timing
wrappers. A function is replaced under every name that refers to it in any
module of the package (``cli`` imports ``solve_g`` by name, for example),
so calls made from inside the program are recorded too. Nothing under
``src/`` changes.

Spans nest (``solve_g`` contains ``solve_g2_coupled``); the time covered by
outermost spans is what ``cli.self_s`` subtracts from a job's wall time.
"""

from __future__ import annotations

import os
import sys
import time
from collections import defaultdict

# (module, function) -> span name
SPANS = {
    ("config", "load_config"): "config.load",
    ("model", "validate_config"): "model.validate",
    ("odes", "solve_g"): "odes.solve_g",
    ("odes", "solve_g2_coupled"): "odes.g2",
    ("odes", "solve_g3"): "odes.g3",
    ("strategy", "equilibrium_strategy"): "strategy.assemble",
    ("strategy", "check_admissibility"): "strategy.admissibility",
    ("montecarlo", "simulate_paths"): "montecarlo.simulate",
    ("montecarlo", "estimate_reward"): "montecarlo.estimate",
    ("montecarlo", "equilibrium_spot_check"): "montecarlo.spot_check",
    ("csvio", "write_csv"): "csvio.write",
}


class Recorder:
    """Span totals, call counts and work counts for one process."""

    def __init__(self):
        self.seconds = defaultdict(float)
        self.calls = defaultdict(int)
        self.work = defaultdict(int)  # g2 steps, path-steps, CSV rows and bytes, sweep cells
        self.covered = 0.0  # time inside outermost spans
        self._depth = 0

    def span(self, name, fn, count=None):
        def wrapper(*args, **kwargs):
            self._depth += 1
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = time.perf_counter() - t0
                self._depth -= 1
                self.seconds[name] += dt
                self.calls[name] += 1
                if self._depth == 0:
                    self.covered += dt
                if count is not None:
                    count(self.work, args, kwargs)

        return wrapper


def _arg(args, kwargs, pos, name):
    return args[pos] if len(args) > pos else kwargs[name]


def _count_g2(work, args, kwargs):
    work["odes.g2_steps"] += _arg(args, kwargs, 0, "model").horizon.M


def _count_paths(work, args, kwargs):
    model = _arg(args, kwargs, 0, "model")
    work["montecarlo.path_steps"] += _arg(args, kwargs, 2, "n_paths") * model.horizon.M


def _count_csv_bytes(work, args, kwargs):
    work["csvio.bytes"] += os.path.getsize(_arg(args, kwargs, 0, "path"))


def install(package):
    """Wrap the package's layer functions; returns the Recorder."""
    rec = Recorder()
    modules = [m for name, m in sys.modules.items()
               if m is not None and (name == package or name.startswith(package + "."))]
    counters = {
        "odes.g2": _count_g2,
        "montecarlo.simulate": _count_paths,
        "csvio.write": _count_csv_bytes,
    }
    replace = {}
    for (mod, fn_name), span in SPANS.items():
        fn = getattr(sys.modules[f"{package}.{mod}"], fn_name)
        wrapped = rec.span(span, fn, counters.get(span))
        if span == "csvio.write":
            wrapped = _counting_rows(rec, wrapped)
        replace[fn] = wrapped

    cli = sys.modules[f"{package}.cli"]
    sweep_cell = cli._sweep_cell

    def counted_cell(*args, **kwargs):
        rec.work["cli.sweep_cells"] += 1
        return sweep_cell(*args, **kwargs)

    replace[sweep_cell] = counted_cell
    for m in modules:
        for attr, val in list(vars(m).items()):
            if callable(val) and val in replace:
                setattr(m, attr, replace[val])
    return rec


def _counting_rows(rec, write_csv):
    def wrapper(path, header, rows):
        def counted():
            for row in rows:
                rec.work["csvio.rows"] += 1
                yield row

        return write_csv(path, header, counted())

    return wrapper


def metric(value, unit):
    """One metric as the benchmark prints it."""
    return {"value": value, "unit": unit}


def layer_metrics(rec, rounds, busy):
    """The per-layer metrics of a traced run of ``rounds`` rounds and
    ``busy`` seconds of job time: ``_ms``/``_us`` per call, ``_s`` and
    counts per round, rates as work over a layer's time."""
    s, calls, work = rec.seconds, rec.calls, rec.work

    def per_call(span, scale):
        return s[span] / calls[span] * scale if calls[span] else 0.0

    def rate(num, den, scale):
        return num / den * scale if den else 0.0

    def count(n):
        n /= rounds
        return int(n) if n == int(n) else n

    return {
        "config.load_ms": metric(per_call("config.load", 1e3), "ms"),
        "model.validate_us": metric(per_call("model.validate", 1e6), "us"),
        "model.validations": metric(count(calls["model.validate"]), "count"),
        "odes.g2_us_per_step": metric(rate(s["odes.g2"], work["odes.g2_steps"], 1e6), "us"),
        "odes.g2_steps": metric(count(work["odes.g2_steps"]), "count"),
        "odes.g3_ms_per_solve": metric(per_call("odes.g3", 1e3), "ms"),
        "odes.solve_g_s": metric(s["odes.solve_g"] / rounds, "s"),
        "strategy.assemble_ms": metric(per_call("strategy.assemble", 1e3), "ms"),
        "strategy.admissibility_ms": metric(per_call("strategy.admissibility", 1e3), "ms"),
        "montecarlo.ns_per_path_step": metric(
            rate(s["montecarlo.simulate"], work["montecarlo.path_steps"], 1e9), "ns"),
        "montecarlo.path_steps": metric(count(work["montecarlo.path_steps"]), "count"),
        "montecarlo.estimate_ms": metric(per_call("montecarlo.estimate", 1e3), "ms"),
        "montecarlo.spot_check_s": metric(s["montecarlo.spot_check"] / rounds, "s"),
        "csvio.rows_per_s": metric(rate(work["csvio.rows"], s["csvio.write"], 1.0), "1/s"),
        "csvio.rows": metric(count(work["csvio.rows"]), "count"),
        "csvio.bytes": metric(count(work["csvio.bytes"]), "count"),
        "csvio.write_s": metric(s["csvio.write"] / rounds, "s"),
        "cli.sweep_cells": metric(count(work["cli.sweep_cells"]), "count"),
        "cli.self_s": metric((busy - rec.covered) / rounds, "s"),
    }
