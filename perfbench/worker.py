"""Timed rounds of one workload, in a process of their own.

    python3 perfbench/worker.py PLAN.json RESULT.json

``run.py`` writes the plan (the job list, the seconds, the trace flag and
the output directory), starts this process with ``src/`` on PYTHONPATH and
reads the result when it has ended. This process imports only the
package, the standard library and ``spans``; the references and their
scipy stay in ``run.py``, so the peak resident set it reports is the
program's (and the interpreter's), not the checks'.

Rounds are whole: every job of the list runs once per round, one after
the other, each CLI job with ``--threads 1``. Another round starts while
the run, with one more round of average length, ends nearer the seconds
than it does without it; there is always at least one. The first output
of each job is kept for ``run.py`` to check; a later round must
reproduce it (byte for byte for data files, field for field for the spot
check's rows) and its output is then removed.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import io
import json
import os
import resource
import shutil
import sys
import time


def _digest(outdir):
    """Hash of a job's data files; the manifest holds timings and is left out."""
    h = hashlib.sha256()
    for name in sorted(os.listdir(outdir)):
        if name == "manifest.json":
            continue
        h.update(name.encode())
        with open(os.path.join(outdir, name), "rb") as fh:
            for block in iter(lambda: fh.read(1 << 20), b""):
                h.update(block)
    return h.hexdigest()


def _peak_rss_mb():
    """Peak resident set of this process since it started, in MiB.

    Read from VmHWM, the high-water mark of the process's own memory map.
    On Linux ``ru_maxrss`` also keeps the peak of the image replaced at
    exec, here the forked copy of ``run.py`` with scipy loaded.
    """
    with contextlib.suppress(OSError):
        with open("/proc/self/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _spot_check(spot):
    """Library job: load the model, solve it and run the paired spot check."""
    # attributes read at call time, so a traced run sees its wrappers
    from eqreinvest import config, montecarlo, odes

    model, _ = config.load_config(spot["config"])
    gsol = odes.solve_g(model)
    rows = montecarlo.equilibrium_spot_check(
        model, gsol, [tuple(p) for p in spot["perturbations"]], spot["h"], spot["paths"], spot["seed"])
    return [{k: _plain(v) for k, v in dataclasses.asdict(row).items()} for row in rows]


def _plain(v):
    """A numpy scalar (the violation flag is an np.bool_) as a JSON value."""
    return v.item() if hasattr(v, "item") else v


def main(plan_path, result_path):
    with open(plan_path, encoding="utf-8") as fh:
        plan = json.load(fh)
    import eqreinvest
    from eqreinvest import cli

    import spans

    rec = spans.install(eqreinvest.__name__) if plan["trace"] else None
    jobs, workdir, seconds = plan["jobs"], plan["workdir"], plan["seconds"]
    first, digests, failures, differs = {}, {}, {}, []
    job_times = []
    attempted = failed = rounds = 0
    busy = 0.0
    while rounds == 0 or busy + 0.5 * busy / rounds <= seconds:
        for job in jobs:
            name = job["name"]
            out = os.path.join(workdir, name if name not in first else name + ".rerun")
            err = io.StringIO()
            attempted += 1
            t0 = time.perf_counter()
            try:
                with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
                    if job["spot"] is not None:
                        result = _spot_check(job["spot"])
                    else:
                        try:
                            result = cli.main([*job["argv"], "--threads", "1", "--out", out])
                        except SystemExit as exc:  # argparse rejects its arguments
                            result = exc.code
            except Exception as exc:  # a job that raises counts as failed, the run goes on
                busy += time.perf_counter() - t0
                failed += 1
                failures.setdefault(name, f"{type(exc).__name__}: {exc}")
                continue
            dt = time.perf_counter() - t0
            busy += dt
            job_times.append(dt)
            if name not in first:
                first[name] = {"result": result, "stderr": err.getvalue()}
                if job["spot"] is None:
                    digests[name] = _digest(out)
            else:
                if job["spot"] is not None:
                    same = result == first[name]["result"]
                else:
                    same = _digest(out) == digests[name]
                    shutil.rmtree(out, ignore_errors=True)
                if not same and name not in differs:
                    differs.append(name)
        rounds += 1

    result = {
        "attempted": attempted, "failed": failed, "rounds": rounds, "busy": busy,
        "job_times": job_times, "failures": failures, "first": first, "differs": differs,
        "peak_rss_mb": _peak_rss_mb(),
        "layers": spans.layer_metrics(rec, rounds, busy) if rec is not None else None,
    }
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(*sys.argv[1:]))
