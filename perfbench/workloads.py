"""Workload definitions: the CLI calls each child runs, the inputs the
benchmark writes from the seed, and one output oracle per call.

A workload is a fixed sequence of ``bochnerlab.cli.main(argv)`` calls.
Every call writes its JSON summary to a file in the work directory; its
oracle reads that file (and any other artifact) after the child exits
and returns True when the output is correct.
"""

from __future__ import annotations

import json
import math
import os
import random

TORUS = "torus:a=1,b=1"
PRODUCT = "prodspheres:r1=1,r2=2"
GRID = 64  # product map grid, nodes per axis


def _load(work, name):
    with open(os.path.join(work, name)) as fh:
        return json.load(fh)


def _lines(path):
    with open(path) as fh:
        return sum(1 for _ in fh)


# -- flow_cap_t2 -------------------------------------------------------------


def _flow_calls(work, seed):
    return [[
        "flow", "--domain", TORUS, "--init", "cap:amplitude=0.3",
        "--resolution", "64", "--steps", "50000", "--seed", str(seed),
        "--save", os.path.join(work, "flow.map"),
        "--json", os.path.join(work, "flow.json"),
    ]]


def _flow_ok(work, rc):
    out = _load(work, "flow.json")
    return (
        rc == 0
        and out["outcome"] == "collapsed_to_constant"
        and float(out["final_diameter"]) < 1e-3
        and out["energy_monotone"] is True
        and _lines(os.path.join(work, "flow.map")) == 4 + 64 * 64
    )


# -- sphere_pipeline ---------------------------------------------------------


def _sphere_calls(work, seed):
    s = str(seed)
    return [
        ["verify", "--map", "holomorphic:k=2", "--resolution", "128",
         "--refine", "2", "--seed", s,
         "--json", os.path.join(work, "verify.json"),
         "--csv", os.path.join(work, "verify.csv")],
        ["report", "--map", "scaling", "--target", "sphere:r=2",
         "--resolution", "256", "--seed", s,
         "--json", os.path.join(work, "report.json")],
        ["consistency", "--resolution", "128", "--seed", s,
         "--json", os.path.join(work, "consistency.json")],
    ]


def _verify_ok(work, rc):
    out = _load(work, "verify.json")
    # the CSV holds one row per node of the finest level, 256 x 512
    rows = _lines(os.path.join(work, "verify.csv")) - 1
    return rc == 0 and out["passed"] is True and rows == 256 * 512


def _scaling_report_ok(work, rc):
    out = _load(work, "report.json")
    rep, diag = out["report"], out.get("equality_diagnostics", {})
    return (
        rc == 0
        and rep["classification"] == "equality"
        and abs(float(rep["homothety_factor"]) - 4.0) <= 0.04
        and diag.get("ok") is True
    )


def _consistency_ok(work, rc):
    return rc == 0 and _load(work, "consistency.json")["passed"] is True


# -- product_report ----------------------------------------------------------


def _unit_pair(rng):
    """Orthonormal (a, b) in R^3, so cos(t) a + sin(t) b is a great circle."""
    a = [rng.gauss(0.0, 1.0) for _ in range(3)]
    na = math.sqrt(sum(x * x for x in a))
    a = [x / na for x in a]
    b = [rng.gauss(0.0, 1.0) for _ in range(3)]
    dot = sum(x * y for x, y in zip(a, b))
    b = [y - dot * x for x, y in zip(a, b)]
    nb = math.sqrt(sum(x * x for x in b))
    return a, [x / nb for x in b]


def write_product_map(path, seed):
    """(u, v) -> (great circle of S^2(1) at u, great circle of S^2(2) at v).

    The seed picks both circles.  Written in the program's plain-text
    map format with 17 significant digits.
    """
    rng = random.Random(seed)
    (a1, b1), (a2, b2) = _unit_pair(rng), _unit_pair(rng)
    step = 2.0 * math.pi / GRID
    with open(path, "w") as fh:
        fh.write("bochnerlab-map 1\n")
        fh.write(f"domain {TORUS}\ntarget {PRODUCT}\n")
        fh.write(f"grid {GRID} {GRID} 6\n")
        for i in range(GRID):
            cu, su = math.cos(i * step), math.sin(i * step)
            p = [cu * x + su * y for x, y in zip(a1, b1)]
            for j in range(GRID):
                cv, sv = math.cos(j * step), math.sin(j * step)
                q = [2.0 * (cv * x + sv * y) for x, y in zip(a2, b2)]
                fh.write(" ".join(format(x, ".17g") for x in p + q) + "\n")


def _product_prepare(work, seed):
    write_product_map(os.path.join(work, "product.map"), seed)


def _product_calls(work, seed):
    s = str(seed)
    return [
        ["report", "--map", "constant", "--domain", TORUS, "--target", PRODUCT,
         "--resolution", str(GRID), "--seed", s,
         "--json", os.path.join(work, "constant.json")],
        ["report", "--load", os.path.join(work, "product.map"),
         "--global-sample", "4096", "--seed", s,
         "--json", os.path.join(work, "circles.json")],
    ]


def _product_report(work, name):
    # domain and target come from the report: report --load writes the
    # CLI defaults, not the loaded map's, into provenance
    rep = _load(work, name)["report"]
    ok = rep["domain"] == TORUS and rep["target"] == PRODUCT
    return rep, ok and abs(float(rep["sec_max_image"]) - 1.0) <= 1e-6


def _constant_ok(work, rc):
    rep, ok = _product_report(work, "constant.json")
    return rc == 0 and ok and rep["is_constant"] is True


def _circles_ok(work, rc):
    rep, ok = _product_report(work, "circles.json")
    return (
        rc == 0
        and ok
        and rep["is_constant"] is False
        and abs(float(rep["sec_max_global_sample"]) - 1.0) <= 1e-6
    )


class Workload:
    def __init__(self, calls, oracles, prepare=None):
        self.calls = calls  # (work_dir, seed) -> list of argv
        self.oracles = oracles  # one (work_dir, exit_code) -> bool per call
        self.prepare = prepare  # (work_dir, seed) -> None, writes inputs

    def check(self, work, codes):
        """Oracle verdict per call; a missing or unreadable output fails."""
        verdicts = []
        for oracle, rc in zip(self.oracles, codes):
            try:
                verdicts.append(bool(oracle(work, rc)))
            except (OSError, ValueError, KeyError, TypeError):
                verdicts.append(False)
        return verdicts


WORKLOADS = {
    "flow_cap_t2": Workload(_flow_calls, [_flow_ok]),
    "sphere_pipeline": Workload(
        _sphere_calls, [_verify_ok, _scaling_report_ok, _consistency_ok]
    ),
    "product_report": Workload(
        _product_calls, [_constant_ok, _circles_ok], prepare=_product_prepare
    ),
}
