"""bochnerlab benchmark: one command, one workload per invocation.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  Each measurement starts a fresh child
interpreter (perfbench/child.py) that imports ``bochnerlab.cli`` from
``src`` and runs the workload's fixed sequence of CLI calls; the
children run one after another (a closed loop of one client).  Every
output is checked against an oracle after the child exits.

The run first starts one untimed child (byte-compiles, warms the file
cache) and SETUP_PROBES import-only children, then repeats the workload
while another child of the longest duration seen still fits in S
seconds (at least once).  With --trace 1 one more child runs the
workload under the span tracer and the run reports per-layer metrics.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.  Exit code 0 on a completed
measurement (even with failed operations), 1 if a child could not run,
2 if the checkout holds no program to measure.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

from spans import metric_units
from workloads import WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SETUP_PROBES = 3
RUN_LIMIT_S = 170.0  # every child must end within this much of the start
MAX_THREADS = 2
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS")


class BenchError(RuntimeError):
    pass


def _now():
    # CLOCK_MONOTONIC is system-wide, so parent and child stamps compare
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def thread_count():
    return max(1, min(MAX_THREADS, len(os.sched_getaffinity(0))))


def child_env(threads):
    """Environment fixed before the child starts.

    The BLAS pools are sized when numpy loads OpenBLAS, so the thread
    caps must be in the environment before the interpreter starts;
    the CLI's BRL_THREADS is read only after that and is removed here.
    """
    env = dict(os.environ)
    env.pop("BRL_THREADS", None)
    env["PYTHONPATH"] = os.path.join(ROOT, "src")
    for var in THREAD_VARS:
        env[var] = str(threads)
    return env


def git_sha():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return None
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


class Runner:
    def __init__(self, work, env, deadline):
        self.work = work
        self.env = env
        self.deadline = deadline

    def child(self, calls, trace=False):
        """Run one child to completion; returns its result record."""
        plan = os.path.join(self.work, "plan.json")
        result = os.path.join(self.work, "result.json")
        with open(plan, "w") as fh:
            json.dump({"calls": calls, "trace": trace}, fh)
        if os.path.exists(result):
            os.remove(result)
        t0 = _now()
        try:
            proc = subprocess.run(
                [sys.executable, os.path.join(HERE, "child.py"), plan, result],
                env=self.env, cwd=ROOT, stdout=sys.stderr,
                timeout=max(1.0, self.deadline - t0),
            )
        except subprocess.TimeoutExpired as exc:
            raise BenchError("child exceeded the run's time limit") from exc
        wall = _now() - t0
        if proc.returncode != 0 or not os.path.exists(result):
            raise BenchError(f"child exited with code {proc.returncode}")
        with open(result) as fh:
            res = json.load(fh)
        res["setup_s"] = res["imported"] - t0
        res["wall_s"] = wall
        return res


def quartiles(values):
    """(median, q1, q3) of a sample."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3


def measure(args, work):
    wl = WORKLOADS[args.workload]
    threads = thread_count()
    runner = Runner(work, child_env(threads), _now() + RUN_LIMIT_S)
    if wl.prepare:
        wl.prepare(work, args.seed)
    keep = set(os.listdir(work))
    calls = wl.calls(work, args.seed)

    first = runner.child([])  # untimed warm-up
    setup = [runner.child([])["setup_s"] for _ in range(SETUP_PROBES)]

    attempted = failed = 0

    def workload_child(trace):
        nonlocal attempted, failed
        for name in set(os.listdir(work)) - keep:
            os.remove(os.path.join(work, name))
        res = runner.child(calls, trace)
        verdicts = wl.check(work, res["codes"])
        attempted += len(calls)
        failed += len(calls) - sum(verdicts)
        setup.append(res["setup_s"])
        return res

    runs = []
    t_loop = _now()
    while True:
        runs.append(workload_child(False))
        longest = max(r["wall_s"] for r in runs)
        if _now() - t_loop + longest > args.seconds:
            break

    solve = [r["solve_s"] for r in runs]
    samples = {
        "solve_s": (solve, "s"),
        "setup_s": (setup, "s"),
        "peak_rss_mb": ([r["peak_rss_mb"] for r in runs], "MB"),
    }
    metrics = {}
    if args.trace:
        traced = workload_child(True)
        if traced["missing_spans"]:
            print("spans not found: " + ", ".join(traced["missing_spans"]),
                  file=sys.stderr)
        for name, unit in metric_units().items():
            metrics[name] = {"value": traced["layers"][name], "unit": unit}
        metrics["trace.overhead_s"] = {
            "value": traced["solve_s"] - statistics.median(solve), "unit": "s"}
    else:
        for name, (values, unit) in samples.items():
            metrics[name] = {"value": statistics.median(values), "unit": unit}
        metrics["success_rate"] = {
            "value": 1.0 - failed / attempted, "unit": "ratio"}

    provenance = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": bool(args.trace),
        "git_sha": git_sha(),
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "threads": {var: runner.env[var] for var in THREAD_VARS},
        "versions": first["versions"],
        "runs_per_median": {k: len(v) for k, (v, _) in samples.items()},
    }
    print("provenance " + json.dumps(provenance, sort_keys=True))
    for name, (values, unit) in samples.items():
        med, q1, q3 = quartiles(values)
        print(f"{name:12s} median {med:.6g} {unit}  q1 {q1:.6g}  q3 {q3:.6g}"
              f"  n={len(values)}")
    print(f"operations   attempted {attempted}  failed {failed}")
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=40.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "bochnerlab", "cli.py")):
        print("perfbench: no bochnerlab sources under src/ to measure",
              file=sys.stderr)
        return 2
    base = os.path.join(ROOT, ".perfbench_work")
    work = os.path.join(base, f"{args.workload}-{os.getpid()}")
    shutil.rmtree(work, ignore_errors=True)  # never check a stale output
    os.makedirs(work)
    try:
        result = measure(args, work)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            os.rmdir(base)
        except OSError:
            pass
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
