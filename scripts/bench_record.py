"""Benchmark two commits side by side and write one BENCH_*.json record.

    python3 scripts/bench_record.py --base <rev> --out BENCH_<label>.json

Run it from the root of a checkout. The base revision and HEAD are
exported with ``git archive`` into temporary directories, and each runs
its own ``perfbench/run.py`` unchanged: every workload of BENCHMARK.json
at each of SEEDS with ``--trace 0`` (end-to-end metrics) and at each of
TRACE_SEEDS with ``--trace 1`` (per-layer metrics). The two sides
alternate which runs first from one seed to the next. The record holds each metric's runs,
median and quartiles per side, the count of seeds on which the head was
better, every run's correctness and failure counts, and the machine: CPU
model, usable cores, OpenBLAS core type, numpy's enabled dispatch targets,
and the Python and numpy versions.

Ten ``setup_s`` samples a side do not resolve its bound on a noisy
machine, so each workload also gets a set-up series: SETUP_PAIRS
alternating fresh-interpreter runs of each side's unchanged
``perfbench/probe.py`` on the configs its ``perfbench/jobs.py`` writes at
the first seed, timed as ``perfbench/run.py`` times a sample. Runs are
sequential; nothing else should run meanwhile.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time

SEEDS = [7, 71, 72, 73, 74, 75, 76, 77, 78, 79]  # ten pairs per workload, as a claimed gain needs
TRACE_SEEDS = [7, 71, 72]
SETUP_PAIRS = 30  # set-up probes per side and workload, alternating sides
# the config files perfbench/jobs.py writes for a workload and seed, as JSON
_CONFIGS = ("import json, sys, jobs; print(json.dumps(sorted({c for job in "
            "jobs.build(sys.argv[1], int(sys.argv[2]), sys.argv[3]) for c in job.configs})))")


def _export(rev, dest):
    """The commit hash of rev, whose tree is written into dest."""
    sha = subprocess.run(["git", "rev-parse", rev], capture_output=True, text=True, check=True).stdout.strip()
    archive = subprocess.run(["git", "archive", sha], capture_output=True, check=True).stdout
    subprocess.run(["tar", "-x", "-C", dest], input=archive, check=True)
    return sha


def _run(root, workload, seed, seconds, trace):
    """The JSON line that perfbench/run.py prints last, run from root."""
    out = subprocess.run([sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
                          "--seconds", str(seconds), "--trace", str(trace)],
                         cwd=root, capture_output=True, text=True, check=True)
    return json.loads(out.stdout.strip().splitlines()[-1])


def _summary(values):
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3, "runs": values}


def _setup_series(roots, workload, seed, scratch):
    """Set-up times of SETUP_PAIRS fresh interpreters a side, alternating
    sides and which side goes first, each running its side's probe.py as
    perfbench/run.py does (OPENBLAS_NUM_THREADS=1, src/ on PYTHONPATH)."""
    probes = {}
    for side, root in roots.items():
        dest = os.path.join(scratch, side)
        os.makedirs(dest)
        configs = json.loads(subprocess.run([sys.executable, "-c", _CONFIGS, workload, str(seed), dest],
                                            cwd=os.path.join(root, "perfbench"), capture_output=True,
                                            text=True, check=True).stdout)
        env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"), OPENBLAS_NUM_THREADS="1")
        probes[side] = ([sys.executable, os.path.join(root, "perfbench", "probe.py"), *configs], env)
    times = {"base": [], "head": []}
    for k in range(SETUP_PAIRS):
        for side in ("base", "head") if k % 2 == 0 else ("head", "base"):
            argv, env = probes[side]
            t0 = time.perf_counter()
            subprocess.run(argv, cwd=roots[side], env=env, stdout=subprocess.DEVNULL, check=True)
            times[side].append(time.perf_counter() - t0)
    wins = sum(h < b for b, h in zip(times["base"], times["head"]))
    return {"unit": "s", "better": "lower", "head_better_on": wins, "pairs": SETUP_PAIRS, "seed": seed,
            "base": _summary(times["base"]), "head": _summary(times["head"])}


def _numpy_dispatch():
    """numpy's enabled SIMD dispatch targets (X86_V4 and AVX512_* are its
    AVX-512 kernels)."""
    from numpy._core import _multiarray_umath as umath

    return [t for t in umath.__cpu_dispatch__ if umath.__cpu_features__.get(t)]


def _openblas_core():
    """The kernel family OpenBLAS picked for this CPU, or None when numpy's
    OpenBLAS cannot be asked."""
    import numpy

    libs = os.path.join(os.path.dirname(numpy.__file__), os.pardir, "numpy.libs")
    for path in glob.glob(os.path.join(libs, "*openblas*")):
        lib = ctypes.CDLL(path)
        for name in ("scipy_openblas_get_corename64_", "scipy_openblas_get_corename", "openblas_get_corename"):
            fn = getattr(lib, name, None)
            if fn is not None:
                fn.restype = ctypes.c_char_p
                return fn().decode()
    return None


def _machine():
    import numpy

    cpu = None
    with open("/proc/cpuinfo", encoding="utf-8") as fh:
        for line in fh:
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    return {"cpu": cpu, "cores": len(os.sched_getaffinity(0)), "openblas_core": _openblas_core(),
            "numpy_dispatch": _numpy_dispatch(), "python": platform.python_version(),
            "numpy": numpy.__version__}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--base", required=True, help="the revision to compare against")
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)

    with open("BENCHMARK.json", encoding="utf-8") as fh:
        bench = json.load(fh)
    better = {m["name"]: m["better"] for m in bench["end_to_end"] + bench["per_layer"]}
    seconds = bench["run_seconds"]
    record = {"machine": _machine(), "seconds": seconds, "seeds": SEEDS, "trace_seeds": TRACE_SEEDS,
              "setup_pairs": SETUP_PAIRS, "workloads": {}}
    with tempfile.TemporaryDirectory() as base_dir, tempfile.TemporaryDirectory() as head_dir, \
            tempfile.TemporaryDirectory() as config_dir:
        roots = {"base": base_dir, "head": head_dir}
        record["base"], record["head"] = _export(args.base, base_dir), _export("HEAD", head_dir)
        for w in bench["workloads"]:
            runs = {"base": [], "head": []}
            values = {}  # (trace, metric) -> side -> [value per seed]
            units = {}
            for trace, seeds in ((0, SEEDS), (1, TRACE_SEEDS)):
                for k, seed in enumerate(seeds):
                    for side in ("base", "head") if k % 2 == 0 else ("head", "base"):
                        res = _run(roots[side], w["name"], seed, seconds, trace)
                        print(f"{w['name']} trace {trace} seed {seed} {side}: {json.dumps(res)}", file=sys.stderr)
                        runs[side].append({"seed": seed, "trace": trace, "correct": res["correct"],
                                           "attempted": res["attempted"], "failed": res["failed"]})
                        for name, m in res["metrics"].items():
                            units[name] = m["unit"]
                            values.setdefault((trace, name), {"base": [], "head": []})[side].append(m["value"])
            metrics = {"end_to_end": {}, "per_layer": {}}
            for (trace, name), sides in values.items():
                sign = 1 if better.get(name) == "higher" else -1
                wins = sum(sign * (h - b) > 0 for b, h in zip(sides["base"], sides["head"]))
                metrics["per_layer" if trace else "end_to_end"][name] = {
                    "unit": units[name], "better": better.get(name), "head_better_on": wins,
                    "pairs": len(sides["base"]), "base": _summary(sides["base"]), "head": _summary(sides["head"])}
            series = _setup_series(roots, w["name"], SEEDS[0], os.path.join(config_dir, w["name"]))
            print(f"{w['name']} set-up series: {json.dumps(series)}", file=sys.stderr)
            record["workloads"][w["name"]] = {**metrics, "setup_series": series, "runs": runs}
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
