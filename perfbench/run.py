"""Benchmark of eqreinvest: runs one workload and prints its metrics.

    python3 perfbench/run.py --workload figures --seed 1 --seconds 25 --trace 0

Run it from the root of a checkout; the package is imported from ``src/``
there and nowhere else. Workloads and their checks are in ``jobs.py``; see
README.md for what each measures.

This process makes the workload's job list from the seed, samples set-up
time in fresh interpreters, and starts ``worker.py``, which runs whole
rounds of the list for ``--seconds`` seconds of job time in a process of
its own with one worker thread. When the worker has ended, every job's
first output is checked here against the references. With ``--trace 0``
the end-to-end metrics are reported, with ``--trace 1`` the per-layer
ones, recorded in the worker by wrapping the package's functions
(``spans.py``). The last line of standard output is one JSON object.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
SETUP_SAMPLES = 5  # fresh interpreters before the rounds and as many after; setup_s is their median


def _setup_samples(env, configs):
    """Wall times of fresh interpreters that import the package and load the
    workload's configs."""
    samples = []
    for _ in range(SETUP_SAMPLES):
        # no timeout: with one, Popen.wait polls in sleeps of up to 50 ms,
        # which quantizes the sample; without, it blocks in waitpid
        t0 = time.perf_counter()
        subprocess.run([sys.executable, os.path.join(HERE, "probe.py"), *configs],
                       env=env, stdout=subprocess.DEVNULL, check=True)
        samples.append(time.perf_counter() - t0)
    return samples


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "eqreinvest", "__init__.py")):
        print(f"error: no src/eqreinvest under {root}; run from the root of a checkout",
              file=sys.stderr)
        return 2
    import jobs as workloads
    from spans import metric

    if workloads.WORKLOADS.get(args.workload) is None:
        print(f"error: unknown workload {args.workload!r}; one of {', '.join(workloads.WORKLOADS)}",
              file=sys.stderr)
        return 2
    # one worker thread, probes included
    env = dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS="1")
    workdir = os.path.join(HERE, "out", f"{args.workload}-{os.getpid()}")
    os.makedirs(workdir)
    try:
        jobs = workloads.build(args.workload, args.seed, workdir)
        configs = sorted({c for job in jobs for c in job.configs})
        plan = {"workdir": workdir, "seconds": args.seconds, "trace": args.trace,
                "jobs": [{"name": job.name, "argv": job.argv, "spot": job.spot} for job in jobs]}
        plan_path, result_path = os.path.join(workdir, "plan.json"), os.path.join(workdir, "result.json")
        with open(plan_path, "w", encoding="utf-8") as fh:
            json.dump(plan, fh)
        setup = _setup_samples(env, configs)
        worker = subprocess.run([sys.executable, os.path.join(HERE, "worker.py"), plan_path, result_path],
                                env=env)
        if worker.returncode != 0:
            print(f"error: the worker exited with code {worker.returncode}", file=sys.stderr)
            return 1
        with open(result_path, encoding="utf-8") as fh:
            run = json.load(fh)
        # sampled on both sides of the rounds, so set-up time is not read
        # from a single moment of a machine whose speed drifts
        setup += _setup_samples(env, configs)

        problems = {name: ["output differs from round 1"] for name in run["differs"]}
        for job in jobs:
            first = run["first"].get(job.name)
            if first is None:  # failed in every round
                continue
            found = job.check(os.path.join(workdir, job.name), first["result"], first["stderr"])
            if found:
                problems.setdefault(job.name, []).extend(found)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            os.rmdir(os.path.join(HERE, "out"))

    for name, why in run["failures"].items():
        print(f"failed: {name}: {why}", file=sys.stderr)
    for name, found in problems.items():
        print(f"wrong: {name}: {len(found)} problem(s), first: {found[0]}", file=sys.stderr)
    busy, job_times = run["busy"], run["job_times"]
    print(f"{args.workload}: {run['rounds']} round(s) of {len(jobs)} jobs, {busy:.2f} s in jobs")

    if args.trace:
        metrics = run["layers"]
    else:
        metrics = {
            "setup_s": metric(statistics.median(setup), "s"),
            "job_s_p50": metric(statistics.median(job_times) if job_times else busy, "s"),
            "jobs_per_s": metric(len(job_times) / busy, "1/s"),
            "peak_rss_mb": metric(run["peak_rss_mb"], "MB"),
        }
    print(json.dumps({"correct": not problems, "attempted": run["attempted"], "failed": run["failed"],
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
