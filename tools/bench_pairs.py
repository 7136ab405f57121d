"""Paired benchmark runs: the working tree against a git revision.

    python3 tools/bench_pairs.py REV WORKLOAD [N] [--seed S] [--seconds T]

Run from anywhere inside the repository.  REV's ``src/`` and
``perfbench/`` are extracted with ``git archive`` into a temporary
directory, next to a copy of the working tree's two, under names of
the same length (the checkout's path enters the children's memory).
It then runs N pairs (default 10) of ``perfbench/run.py --workload
WORKLOAD --seed S --seconds T``, one run on each tree per pair, the
tree that runs first alternating.  For each end-to-end metric of
``BENCHMARK.json`` it prints each side's median and quartiles over the
pairs, the change of the medians, and in how many pairs the working
tree was better in the metric's direction.

Exit code 0 when every run completed, 1 when a run failed, 2 on a
usage error (a revision git cannot archive included).
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
TREES = ("src", "perfbench")


def _quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3


def summarize(pairs, metrics):
    """One line per metric from pairs of (revision, working tree) metric
    dicts, as run.py prints them ({name: {"value": v, ...}}); metrics is
    BENCHMARK.json's end_to_end list."""
    lines = []
    for metric in metrics:
        name, lower = metric["name"], metric["better"] == "lower"
        old = [p[0][name]["value"] for p in pairs]
        new = [p[1][name]["value"] for p in pairs]
        wins = sum((b < a) if lower else (b > a) for a, b in zip(old, new))
        (mo, lo, ho), (mn, ln, hn) = _quartiles(old), _quartiles(new)
        change = f"{(mn - mo) / mo:+.1%}" if mo else "n/a"
        lines.append(f"{name:12s} revision {mo:.6g} [{lo:.6g}-{ho:.6g}]  "
                     f"working {mn:.6g} [{ln:.6g}-{hn:.6g}] {metric['unit']}  {change}  "
                     f"working better in {wins}/{len(pairs)} pairs")
    return lines


def _run(tree, args):
    proc = subprocess.run(
        [sys.executable, os.path.join("perfbench", "run.py"), "--workload", args.workload,
         "--seed", str(args.seed), "--seconds", str(args.seconds)],
        cwd=tree, capture_output=True, text=True)
    if proc.returncode:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"run.py in {tree} exited with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])["metrics"]


def _trees(rev, tmp):
    """(revision tree, working tree) under tmp, each with TREES."""
    old, new = os.path.join(tmp, "old"), os.path.join(tmp, "new")
    archive = subprocess.run(["git", "-C", ROOT, "archive", rev, *TREES], capture_output=True)
    if archive.returncode:
        sys.stderr.write(f"git archive {rev}: {archive.stderr.decode().strip()}\n")
        raise SystemExit(2)
    os.makedirs(old)
    subprocess.run(["tar", "-x", "-C", old], input=archive.stdout, check=True)
    for name in TREES:
        shutil.copytree(os.path.join(ROOT, name), os.path.join(new, name),
                        ignore=shutil.ignore_patterns("__pycache__", ".perfbench_work"))
    return old, new


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("rev", help="git revision to compare the working tree with")
    parser.add_argument("workload", help="a perfbench workload")
    parser.add_argument("n", type=int, nargs="?", default=10, help="number of pairs")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=8.0)
    args = parser.parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        metrics = json.load(fh)["end_to_end"]
    pairs = []
    with tempfile.TemporaryDirectory() as tmp:
        old, new = _trees(args.rev, tmp)
        for i in range(args.n):
            order = (old, new) if i % 2 == 0 else (new, old)
            runs = {tree: _run(tree, args) for tree in order}
            pairs.append((runs[old], runs[new]))
            print(f"pair {i + 1}/{args.n}: solve_s {runs[old]['solve_s']['value']:.4g} "
                  f"-> {runs[new]['solve_s']['value']:.4g}", file=sys.stderr)
    print(f"{args.workload}, {args.n} pairs, seed {args.seed}, {args.seconds:g} s a run: "
          f"revision {args.rev} against the working tree, median [q1-q3]")
    for line in summarize(pairs, metrics):
        print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
