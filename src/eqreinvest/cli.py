"""Command-line front end: solve, check, simulate, sweep, reproduce.

Every run writes a manifest.json next to its outputs with the resolved
config snapshot; re-running a subcommand from that manifest reproduces
the data files byte-identically (timings aside).

Exit codes: 0 ok, 1 config error, 2 solver or simulation blow-up, 3 admissibility
failed.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import math
import os
import sys
import time

import numpy as np

from . import __version__
from .config import RULES, ConfigError, _parse_number, build_model, load_config, model_to_config_dict
from .csvio import (
    write_admissibility_csv,
    write_g_csv,
    write_simulation_csv,
    write_strategy_csv,
    write_sweep_csv,
)
from .model import Horizon, ValidationError, validate_config
from .montecarlo import SimulationError, estimate_reward, simulate_paths
from .odes import BlowUpError, solve_g, solve_g2_coupled
from .presets import CASES, XI, baseline_model
from .strategy import (
    check_admissibility,
    equilibrium_strategy,
    pi_hat_path,
    q_hat as strategy_q_hat,
    regime_classification,
    regime_labels,
)

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_BLOWUP = 2
EXIT_ADMISSIBILITY = 3

REPRODUCE_SWEEPS = {
    # figure id -> (param, values, observable, heston overrides)
    "fig1": ("r", [0.03, 0.05, 0.07], "pi_hat", {}),
    "fig2": ("xi", [0.3, XI, 0.6], "pi_hat", {}),
    "fig31": ("kappa", [4.0, 5.0, 6.0], "pi_diff", {"rho": -0.5}),
    "fig32": ("kappa", [4.0, 5.0, 6.0], "pi_diff", {"rho": 0.5}),
    "fig41": ("sigma", [0.15, 0.25, 0.35], "pi_diff", {"rho": -0.5}),
    "fig42": ("sigma", [0.15, 0.25, 0.35], "pi_diff", {"rho": 0.5}),
    "fig51": ("rho", [-0.5, 0.0, 0.5], "pi_diff", {}),
    "fig7": ("r", [0.03, 0.05, 0.07], "q_hat", {}),
    "fig8": ("eta2", [0.4, 0.5, 0.6], "q_hat", {}),
    "fig9": ("lambda1", [0.5, 1.0, 2.0], "q_hat", {}),
    "fig10": ("mu1", [0.08, 0.1, 0.12], "q_hat", {}),
    "fig11": ("mu2", [0.15, 0.2, 0.25], "q_hat", {}),
}

REPRODUCE_HORIZONS = {"T10": 10.0, "T100": 100.0}  # horizon tag -> T


def _valid_case_ids():
    return [f"{fig}/{tag}/{case}" for fig in REPRODUCE_SWEEPS for tag in REPRODUCE_HORIZONS for case in CASES]


def _params_holding(model, param):
    """Name of the model part ("ins" or "heston") whose field is param."""
    for part in ("ins", "heston"):
        if param in {f.name for f in dataclasses.fields(getattr(model, part))}:
            return part
    raise ConfigError(f"unknown sweep parameter {param!r}")


def _write_json(path, obj):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _write_manifest(outdir, subcommand, config_dict, flags, timings):
    _write_json(os.path.join(outdir, "manifest.json"), {
        "tool": "eqreinvest",
        "version": __version__,
        "subcommand": subcommand,
        "out": os.path.abspath(outdir),
        "config": config_dict,
        "flags": flags,
        "timings": timings,
    })


def _resolve_model(args):
    """Model + seed + flags, from --from-manifest or --config."""
    if args.from_manifest:
        with open(args.from_manifest, "r", encoding="utf-8") as fh:
            try:
                manifest = json.load(fh)
            except (ValueError, RecursionError) as exc:  # also an int past the digit limit, deep nesting
                raise ConfigError(f"manifest {args.from_manifest} is not JSON: {exc}") from exc
        config = manifest.get("config") if isinstance(manifest, dict) else None
        if not isinstance(config, dict):
            raise ConfigError(f"manifest {args.from_manifest} has no 'config' table")
        flags = manifest.get("flags", {})
        if not isinstance(flags, dict):
            raise ConfigError(f"manifest {args.from_manifest} has a 'flags' entry that is not a table")
        model, seed = build_model(config)
        return model, seed, flags
    if not args.config:
        raise ConfigError("--config (or --from-manifest) is required")
    model, seed = load_config(args.config)
    return model, seed, {}


def _merge_flags(args, saved, names, defaults):
    """(flags as given, flags as parsed by config.RULES) of one run over the
    flag names. A flag comes from the command line, else the manifest, else
    the command's default."""
    given = {name: saved[name] for name in names if name in saved}
    for name in names:
        if getattr(args, name) is not None:
            given[name] = getattr(args, name)
    given = {**defaults, **given}
    return given, {name: RULES[name](f"flag {name}", value) for name, value in given.items()}


def cmd_solve(args):
    t0 = time.perf_counter()
    model, seed, _ = _resolve_model(args)
    timings = {"validate": time.perf_counter() - t0}

    t0 = time.perf_counter()
    gsol = solve_g(model)
    timings["solve"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    q, pi = equilibrium_strategy(model, gsol.g2)
    regime = regime_classification(model)
    os.makedirs(args.out, exist_ok=True)
    write_g_csv(os.path.join(args.out, "g_functions.csv"), model, gsol)
    write_strategy_csv(os.path.join(args.out, "strategy.csv"), model.horizon.grid(), q, pi, regime_labels(q))
    _write_json(os.path.join(args.out, "regime.json"), {
        "retention_ratio": regime.ratio,
        "crossover_time_to_maturity": regime.crossover_tau,
        "reinsurance_throughout": regime.reinsurance_throughout,
    })
    timings["emit"] = time.perf_counter() - t0
    _write_manifest(args.out, "solve", model_to_config_dict(model, seed), {}, timings)
    return EXIT_OK


def cmd_check(args):
    t0 = time.perf_counter()
    model, seed, _ = _resolve_model(args)
    report = check_admissibility(model, solve_g2_coupled(model))  # reads g2 alone
    timings = {"check": time.perf_counter() - t0}
    os.makedirs(args.out, exist_ok=True)
    write_admissibility_csv(os.path.join(args.out, "admissibility.csv"), model, report)
    _write_manifest(args.out, "check", model_to_config_dict(model, seed), {}, timings)
    if not report.passed:
        print(
            f"admissibility FAILED: first violation atom={report.first_violation[0]} "
            f"grid_index={report.first_violation[1]} (max lhs {report.max_lhs:.6g} "
            f"vs rhs {report.rhs:.6g})",
            file=sys.stderr,
        )
        return EXIT_ADMISSIBILITY
    print(f"admissibility passed (max lhs {report.max_lhs:.6g} vs rhs {report.rhs:.6g})")
    return EXIT_OK


def _parse_strategy_flag(model, token):
    if token == "equilibrium":
        return equilibrium_strategy(model, solve_g2_coupled(model))
    if token == "zero":
        return 0.0, 0.0
    if token.startswith("const:"):
        parts = token[len("const:"):].split(",")
        if len(parts) != 2:
            raise ConfigError(f"const strategy must be const:q,pi, got {token!r}")
        values = [_parse_number(part) for part in parts]
        for part, value in zip(parts, values):
            if not abs(value) <= sys.float_info.max:  # also nan, and an int past the float range
                raise ConfigError(f"const strategy {token!r}: {part.strip()!r} is not a finite number")
        return tuple(values)
    raise ConfigError(f"unknown strategy {token!r}")


def cmd_simulate(args):
    t0 = time.perf_counter()
    model, seed, saved_flags = _resolve_model(args)
    flags, parsed = _merge_flags(
        args, saved_flags, ("paths", "seed", "horizon", "strategy"),
        {"paths": 10000, "seed": seed, "strategy": "equilibrium"},
    )
    if "horizon" in parsed and parsed["horizon"] != model.horizon.T:
        # keep the grid step, rescale the number of steps; validation
        # refuses a T, or a number of steps, that is not finite
        T = parsed["horizon"]
        steps = T / model.horizon.l
        M = max(1, round(steps)) if math.isfinite(steps) else steps
        hz = Horizon(T=T, M=M, x0=model.horizon.x0)
        model = validate_config(model.ins, model.heston, model.dist, hz)
    strategy = _parse_strategy_flag(model, parsed["strategy"])
    # a non-finite state ends the run as a SimulationError, which names its
    # step; main's floating-point errors would end it there with less to say
    with np.errstate(invalid="ignore", over="ignore"):
        batch = simulate_paths(model, strategy, parsed["paths"], parsed["seed"], workers=args.threads)
    result = estimate_reward(model, batch)
    timings = {"simulate": time.perf_counter() - t0}
    os.makedirs(args.out, exist_ok=True)
    write_simulation_csv(os.path.join(args.out, "simulation.csv"), model, result)
    _write_manifest(args.out, "simulate", model_to_config_dict(model, parsed["seed"]), flags, timings)
    return EXIT_OK


def _sweep_cell(model, param, value, observable):
    part = _params_holding(model, param)
    changed = dataclasses.replace(getattr(model, part), **{param: value})
    cell = dataclasses.replace(model, **{part: changed})
    cell = validate_config(cell.ins, cell.heston, cell.dist, cell.horizon)
    if observable == "q_hat":
        return strategy_q_hat(cell, cell.horizon.grid())
    # g2 alone: solve_g2_coupled raises unless every value is finite
    return pi_hat_path(cell, solve_g2_coupled(cell))


def run_sweep(model, param, values, observable):
    """Evaluate the observable over the parameter grid, one cell at a time.

    Returns (values, curves, label) for csvio.write_sweep_csv: the values
    shown, a row of curves (over the grid) per value, and the observable's
    column label. In pi_diff mode the first value is the baseline and the
    curves are pi_hat(t; value) - pi_hat(t; baseline) for the others.
    """
    _params_holding(model, param)
    if observable not in ("q_hat", "pi_hat", "pi_diff"):
        raise ConfigError(f"unknown observable {observable!r}")
    if observable == "pi_diff" and len(values) < 2:
        raise ConfigError(f"pi_diff needs a baseline and at least one more value, got {len(values)}")
    base_obs = "pi_hat" if observable == "pi_diff" else observable
    curves = np.empty((len(values), model.horizon.M + 1))
    for row, v in zip(curves, values):
        row[:] = _sweep_cell(model, param, v, base_obs)
    if observable == "pi_diff":
        curves[1:] -= curves[0]
        return values[1:], curves[1:], "pi_hat_diff"
    return values, curves, observable


def _sweep(out, name, model, param, values, observable, phase, t0):
    """Run a sweep and write it to out/name; every cell is evaluated before
    the file is opened. Returns the timings: the run under phase, from t0,
    and the write under emit."""
    sweep = run_sweep(model, param, values, observable)
    t1 = time.perf_counter()
    os.makedirs(out, exist_ok=True)
    write_sweep_csv(os.path.join(out, name), param, model.horizon.grid(), *sweep)
    return {phase: t1 - t0, "emit": time.perf_counter() - t1}


def cmd_sweep(args):
    t0 = time.perf_counter()
    model, seed, saved_flags = _resolve_model(args)
    names = ("param", "values", "observable")
    flags, parsed = _merge_flags(args, saved_flags, names, {})
    for key in names:
        if key not in flags:
            raise ConfigError(f"sweep requires --{key}")
    timings = _sweep(args.out, "sweep.csv", model, *(parsed[key] for key in names), "sweep", t0)
    _write_manifest(args.out, "sweep", model_to_config_dict(model, seed), flags, timings)
    return EXIT_OK


def cmd_reproduce(args):
    case_id = args.case
    if case_id not in _valid_case_ids():
        raise ConfigError(f"unknown case id {case_id!r}; valid ids: {', '.join(_valid_case_ids())}")
    fig, horizon_tag, case = case_id.split("/")
    param, values, observable, overrides = REPRODUCE_SWEEPS[fig]
    T = REPRODUCE_HORIZONS[horizon_tag]
    t0 = time.perf_counter()
    model = baseline_model(case=case, T=T, **overrides)
    name = case_id.replace("/", "_") + ".csv"
    timings = _sweep(args.out, name, model, param, values, observable, "reproduce", t0)
    _write_manifest(
        args.out,
        "reproduce",
        model_to_config_dict(model, 0),
        {"case": case_id, "param": param, "values": values, "observable": observable},
        timings,
    )
    return EXIT_OK


def numeric(text):
    """A flag's number, read as a config file reads one; config.RULES decides if it is valid."""
    return _parse_number(text)


class _Parser(argparse.ArgumentParser):
    """An argument error is a config error (exit 1, one error: line), not
    argparse's usage message and exit 2, the blow-up code."""

    def error(self, message):
        raise ConfigError(message)


@functools.cache  # one parser for every main call of a process; parse_args leaves it as it is
def build_parser():
    parser = _Parser(
        prog="eqreinvest",
        description="Equilibrium reinsurance and investment strategies under "
        "stochastic volatility with randomly distributed risk aversion.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def common(p, model=True):
        if model:
            p.add_argument("--config", help="path to a key=value config file")
            p.add_argument("--from-manifest", help="re-run from a previously written manifest")
        p.add_argument("--out", default=".", help="output directory")
        p.add_argument(
            "--threads",
            type=numeric,
            help="Monte Carlo worker threads for simulate (default: one per usable core; "
            "at most one per chunk of paths and per core); sweeps and the other "
            "subcommands run in one thread",
        )

    p = sub.add_parser("solve", help="solve the exponent ODEs and emit strategy CSVs")
    common(p)
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("check", help="evaluate the admissibility condition")
    common(p)
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("simulate", help="Monte Carlo estimate of utilities and reward")
    common(p)
    p.add_argument("--paths", type=numeric, help="number of Monte Carlo paths")
    p.add_argument("--seed", type=numeric, help="RNG seed (overrides config)")
    p.add_argument("--horizon", type=numeric, help="override horizon T, keeping the grid step")
    p.add_argument(
        "--strategy",
        help="equilibrium | zero | const:q,pi",
    )
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("sweep", help="parameter sweep of an observable")
    common(p)
    p.add_argument("--param", help="parameter name to sweep")
    p.add_argument("--values", help="comma-separated values (rationals allowed)")
    p.add_argument("--observable", help="q_hat | pi_hat | pi_diff")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("reproduce", help="emit the data behind a benchmark figure")
    common(p, model=False)  # the figure fixes the model
    p.add_argument("--case", required=True, help="e.g. fig7/T10/caseI")
    p.set_defaults(func=cmd_reproduce)

    return parser


def main(argv=None):
    try:
        args = build_parser().parse_args(argv)
        if args.threads is not None:
            args.threads = RULES["threads"]("flag threads", args.threads)
        # a floating-point overflow or invalid operation is a blow-up, not a warning
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            return args.func(args)
    except (ConfigError, ValidationError, OSError, UnicodeDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (BlowUpError, SimulationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BLOWUP
    except ArithmeticError as exc:  # numpy's text names no stage: add this package's innermost
        import traceback  # here, not at the top: importing it adds ~5 ms to every start-up
        pkg = os.path.dirname(__file__)
        stage = [f for f in traceback.extract_tb(exc.__traceback__) if os.path.dirname(f.filename) == pkg][-1]
        print(f"error: {exc} (in {os.path.basename(stage.filename)[:-3]}.{stage.name})", file=sys.stderr)
        return EXIT_BLOWUP


if __name__ == "__main__":
    sys.exit(main())
