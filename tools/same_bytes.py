"""Byte-identity gate: the working tree's outputs against a git revision's.

    python3 tools/same_bytes.py REV

Run from anywhere inside the repository.  REV's ``src/`` is extracted
with ``git archive`` into a temporary directory.  Each config of
CONFIGS then runs on both trees, one fresh interpreter per config
(``python -m bochnerlab.cli ARGS`` with PYTHONPATH at that tree's
``src/``), in one run directory per tree, in list order: a later config
may read what an earlier one wrote.  The md5 of every file in the two
run directories is compared, each config's stdout, stderr and exit
code included.  For each JSON or CSV file that differs, the keys or
columns that moved are printed with their largest relative change.

Exit code 0 when every byte agrees, 1 when something differs, 2 on a
usage error (a revision git cannot archive included).
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import math
import os
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
TORUS = "torus:a=1,b=1"
PRODUCT = "prodspheres:r1=1,r2=2"


def _product_map(run_dir):
    """The product_report workload's input map, from its own writer."""
    sys.path.insert(0, os.path.join(ROOT, "perfbench"))
    try:
        from workloads import write_product_map
    finally:
        sys.path.pop(0)
    write_product_map(os.path.join(run_dir, "product.map"), 1)


def _sphere_map(path, target, image, n1=32):
    """Write a map of S^2 at n1 x 2 n1 into the target descriptor `target`,
    each node's unit direction u sent to the coordinates image(u)."""
    n2 = 2 * n1
    with open(path, "w") as fh:
        fh.write(f"bochnerlab-map 1\ndomain sphere:r=1\ntarget {target}\n"
                 f"grid {n1} {n2} {len(image((0.0, 0.0, 1.0)))}\n")
        for i in range(n1):
            theta = (i + 0.5) * math.pi / n1
            for j in range(n2):
                phi = j * 2.0 * math.pi / n2
                u = (math.sin(theta) * math.cos(phi), math.sin(theta) * math.sin(phi),
                     math.cos(theta))
                fh.write(" ".join(format(x, ".17g") for x in image(u)) + "\n")


def _ellipsoid_map(run_dir, n1=32, name="ellipsoid.map"):
    """A nonconstant map of S^2 at n1 x 2 n1 into ellipsoid:a=1,b=1,c=2, off
    the surface as written: the unit directions u scaled by (1.2, 0.9, 2.1),
    which the map constructor reprojects by the ellipsoid's Newton iteration."""
    _sphere_map(os.path.join(run_dir, name), "ellipsoid:a=1,b=1,c=2",
                lambda u: [c * x for c, x in zip((1.2, 0.9, 2.1), u)], n1)


def _diagonal_map(run_dir):
    """u -> (u, 2u) from S^2 at 32 x 64 into S^2(1) x S^2(2): its image
    planes mix the factors (curvature 1/5), so the path check meets both
    ends of the target's curvature range."""
    _sphere_map(os.path.join(run_dir, "diagonal.map"), PRODUCT,
                lambda u: list(u) + [2.0 * x for x in u])


def _clifford_map(run_dir, n=32):
    """(u, v) -> (cos u, sin u, cos v, sin v) from torus:a=1,b=1 at n x n
    into euclid:m=4: an equality-classified map into a flat target."""
    step = 2.0 * math.pi / n
    with open(os.path.join(run_dir, "clifford.map"), "w") as fh:
        fh.write(f"bochnerlab-map 1\ndomain {TORUS}\ntarget euclid:m=4\ngrid {n} {n} 4\n")
        for i in range(n):
            for j in range(n):
                u, v = i * step, j * step
                fh.write(" ".join(format(x, ".17g") for x in
                                  (math.cos(u), math.sin(u), math.cos(v), math.sin(v))) + "\n")


# (name, CLI arguments, preparation run in the run directory first or
# None); every path is relative to the run directory
CONFIGS = (
    # the benchmark's three workloads at seed 1
    ("flow-cap", ["flow", "--domain", TORUS, "--init", "cap:amplitude=0.3",
                  "--resolution", "64", "--steps", "50000", "--seed", "1",
                  "--save", "flow.map", "--json", "flow.json"], None),
    ("verify-k2-128", ["verify", "--map", "holomorphic:k=2", "--resolution", "128",
                       "--refine", "2", "--seed", "1", "--json", "verify.json",
                       "--csv", "verify.csv"], None),
    ("report-scaling-256", ["report", "--map", "scaling", "--target", "sphere:r=2",
                            "--resolution", "256", "--seed", "1",
                            "--json", "report.json"], None),
    ("consistency-128", ["consistency", "--resolution", "128", "--seed", "1",
                         "--json", "consistency.json"], None),
    ("report-product-constant", ["report", "--map", "constant", "--domain", TORUS,
                                 "--target", PRODUCT, "--resolution", "64", "--seed", "1",
                                 "--json", "constant.json"], None),
    ("report-product-circles", ["report", "--load", "product.map", "--global-sample",
                                "4096", "--seed", "1", "--json", "circles.json"],
     _product_map),
    # the sphere's resolvent steps with a trace
    ("flow-k2-trace", ["flow", "--init", "holomorphic:k=2", "--resolution", "32",
                       "--steps", "40", "--trace", "h.csv", "--json", "h.json",
                       "--save", "h.map"], None),
    # banded verifies: bands reading the antipodal ghost rows, the torus's
    # constant profiles, and several levels
    ("verify-k2-64", ["verify", "--map", "holomorphic:k=2", "--resolution", "64",
                      "--refine", "2", "--json", "k2.json", "--csv", "k2.csv"], None),
    ("verify-cap-100", ["verify", "--domain", TORUS, "--map", "cap:amplitude=0.3",
                        "--resolution", "100", "--json", "cap.json", "--csv", "cap.csv"],
     None),
    ("verify-k3-96", ["verify", "--map", "holomorphic:k=3", "--resolution", "96",
                      "--refine", "2", "--json", "k3.json", "--csv", "k3.csv"], None),
    # a first-order pass alone, on a map off the equality case
    ("report-k3-128", ["report", "--map", "holomorphic:k=3", "--resolution", "128",
                       "--json", "k3-128.json"], None),
    ("report-k3-global", ["report", "--map", "holomorphic:k=3", "--resolution", "96",
                          "--global-sample", "512", "--seed", "3",
                          "--json", "k3-global.json"], None),
    # the constant map into each target kind
    ("report-constant-sphere", ["report", "--map", "constant", "--resolution", "32",
                                "--json", "c-sphere.json"], None),
    ("report-constant-euclid", ["report", "--map", "constant", "--target", "euclid:m=3",
                                "--resolution", "32", "--json", "c-euclid.json"], None),
    ("report-constant-ellipsoid", ["report", "--map", "constant",
                                   "--target", "ellipsoid:a=1,b=1,c=2",
                                   "--resolution", "32", "--json", "c-ellipsoid.json"],
     None),
    ("report-constant-torusemb", ["report", "--map", "constant",
                                  "--target", "torusemb:rho1=1,rho2=2",
                                  "--resolution", "32", "--json", "c-torusemb.json"], None),
    ("report-constant-prodspheres", ["report", "--map", "constant", "--domain", TORUS,
                                     "--target", PRODUCT, "--resolution", "32",
                                     "--json", "c-prodspheres.json"], None),
    # zero products, where a sum's sign of zero could move, and every CSV column
    ("verify-constant-sphere", ["verify", "--map", "constant", "--resolution", "32",
                                "--json", "vc.json", "--csv", "vc.csv"], None),
    # the ellipsoid's Newton projection, curvature sums and contractions
    ("verify-ellipsoid", ["verify", "--load", "ellipsoid.map", "--json", "ve.json",
                          "--csv", "ve.csv"], _ellipsoid_map),
    ("report-ellipsoid", ["report", "--load", "ellipsoid.map", "--json", "re.json"], None),
    # the closed-form global Sec_max of a target whose curvature varies
    ("report-ellipsoid-global", ["report", "--load", "ellipsoid.map", "--global-sample",
                                 "4096", "--seed", "1", "--json", "re-global.json"], None),
    # four bands whose curvature varies, its maximum reached at both
    # poles: the report's Sec_max witness is chosen across the bands
    ("report-ellipsoid-128", ["report", "--load", "ellipsoid-128.map", "--json", "re-128.json"],
     lambda run_dir: _ellipsoid_map(run_dir, 128, "ellipsoid-128.map")),
    # the path check on a target whose curvature is not one value
    ("verify-product-diagonal", ["verify", "--load", "diagonal.map", "--json", "vd.json",
                                 "--csv", "vd.csv"], _diagonal_map),
    # the parameter scans
    ("scan-scaling", ["scan", "--map", "scaling", "--param", "r=0.5:2:0.5",
                      "--resolution", "16", "--csv", "scan.csv", "--json", "scan.json"],
     None),
    ("scan-torusemb", ["scan", "--map", "constant", "--domain", TORUS,
                       "--target", "torusemb:rho1=1,rho2=1", "--param", "rho2=0.5:1:0.25",
                       "--resolution", "16", "--csv", "scan-t.csv",
                       "--json", "scan-t.json"], None),
    # a sweep whose entries are harmonic at r = 1 and not at 1.5 and 2
    ("scan-cap", ["scan", "--map", "cap:amplitude=0.3", "--domain", TORUS,
                  "--param", "r=1:2:0.5", "--resolution", "64", "--csv", "scan-cap.csv",
                  "--json", "scan-cap.json"], None),
    # the affine fit of the equality diagnostics, which only a flat target takes
    ("report-clifford", ["report", "--load", "clifford.map", "--json", "clifford.json"],
     _clifford_map),
    # a report on the criterion-5 flow's saved map
    ("report-flowed", ["report", "--load", "flow.map", "--json", "flowed.json"], None),
)


def run_configs(src, run_dir, configs):
    """Run each config on the tree whose package lies in `src`, in run_dir;
    its stdout, stderr and exit code go to NAME.stdout, .stderr and .code."""
    env = dict(os.environ, PYTHONPATH=src, PYTHONDONTWRITEBYTECODE="1")
    for name, args, prepare in configs:
        if prepare:
            prepare(run_dir)
        with open(os.path.join(run_dir, name + ".stdout"), "wb") as out, \
                open(os.path.join(run_dir, name + ".stderr"), "wb") as err:
            proc = subprocess.run([sys.executable, "-m", "bochnerlab.cli"] + args,
                                  cwd=run_dir, env=env, stdout=out, stderr=err)
        with open(os.path.join(run_dir, name + ".code"), "w") as fh:
            fh.write(f"{proc.returncode}\n")


def _md5(path):
    with open(path, "rb") as fh:
        return hashlib.md5(fh.read()).hexdigest()


def _relative(old, new):
    if old == new:
        return 0.0
    return abs(new - old) / abs(old) if old else math.inf


def _flatten(obj, prefix=""):
    """Leaf values of parsed JSON by dotted path, list indices in brackets."""
    if isinstance(obj, dict):
        items = ((f"{prefix}.{k}" if prefix else str(k), v) for k, v in obj.items())
    elif isinstance(obj, list):
        items = ((f"{prefix}[{i}]", v) for i, v in enumerate(obj))
    else:
        return {prefix: obj}
    out = {}
    for key, value in items:
        out.update(_flatten(value, key))
    return out


def _number(x):
    if isinstance(x, bool):
        return None
    try:
        return float(x)
    except (TypeError, ValueError):
        return None


def _moved(pairs):
    """'changed' or the largest relative change over (old, new) pairs."""
    worst = 0.0
    for old, new in pairs:
        a, b = _number(old), _number(new)
        if a is None or b is None:
            if old != new:
                return "changed"
            continue
        worst = max(worst, _relative(a, b))
    return f"max rel change {worst:.3g}"


def json_moves(old_path, new_path):
    """The moved keys of two JSON files, each with its largest relative change."""
    with open(old_path) as fh:
        old = _flatten(json.load(fh))
    with open(new_path) as fh:
        new = _flatten(json.load(fh))
    out = [f"{key}: only in the revision" for key in old.keys() - new.keys()]
    out += [f"{key}: only in the working tree" for key in new.keys() - old.keys()]
    out += [f"{key}: {_moved([(old[key], new[key])])}"
            for key in old if key in new and old[key] != new[key]]
    return sorted(out)


def csv_moves(old_path, new_path):
    """The columns of two CSV files that one side lacks, matched by name,
    and the shared columns that moved, each with its largest relative change."""
    with open(old_path, newline="") as fh:
        old = list(csv.reader(fh))
    with open(new_path, newline="") as fh:
        new = list(csv.reader(fh))
    if not old or not new:
        return ["no header"]
    if len(old) != len(new):
        return [f"{len(old) - 1} rows in the revision, {len(new) - 1} in the working tree"]
    out = [f"{name}: only in the revision" for name in old[0] if name not in new[0]]
    out += [f"{name}: only in the working tree" for name in new[0] if name not in old[0]]
    shared = [name for name in old[0] if name in new[0]]
    if shared != [name for name in new[0] if name in old[0]]:
        out.append("column order differs")
    for name in shared:
        i, j = old[0].index(name), new[0].index(name)
        pairs = [(a[i], b[j]) for a, b in zip(old[1:], new[1:]) if a[i] != b[j]]
        if pairs:
            out.append(f"{name}: {len(pairs)} cells, {_moved(pairs)}")
    return out


def compare(old_dir, new_dir):
    """Lines naming each file whose bytes differ between the run directories."""
    names = sorted(set(os.listdir(old_dir)) | set(os.listdir(new_dir)))
    lines = []
    for name in names:
        old, new = os.path.join(old_dir, name), os.path.join(new_dir, name)
        if not os.path.exists(old) or not os.path.exists(new):
            side = "revision" if os.path.exists(old) else "working tree"
            lines.append(f"{name}: only in the {side}")
            continue
        if _md5(old) == _md5(new):
            continue
        lines.append(f"{name}: bytes differ")
        try:
            if name.endswith(".json"):
                lines += ["  " + m for m in json_moves(old, new)]
            elif name.endswith(".csv"):
                lines += ["  " + m for m in csv_moves(old, new)]
        except (ValueError, IndexError, csv.Error) as exc:
            lines.append(f"  cannot parse: {exc}")
    return lines


def _archive_src(rev, dest):
    """REV's src/ under dest, by git archive; the path of its src/."""
    archive = subprocess.run(["git", "-C", ROOT, "archive", rev, "src"],
                             capture_output=True)
    if archive.returncode:
        sys.stderr.write(f"git archive {rev}: {archive.stderr.decode().strip()}\n")
        raise SystemExit(2)
    subprocess.run(["tar", "-x", "-C", dest], input=archive.stdout, check=True)
    return os.path.join(dest, "src")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("rev", help="git revision to compare the working tree with")
    ns = parser.parse_args(argv)
    with tempfile.TemporaryDirectory() as tmp:
        old_dir, new_dir = os.path.join(tmp, "revision"), os.path.join(tmp, "working")
        os.makedirs(old_dir)
        os.makedirs(new_dir)
        old_src = _archive_src(ns.rev, tmp)
        run_configs(old_src, old_dir, CONFIGS)
        run_configs(os.path.join(ROOT, "src"), new_dir, CONFIGS)
        lines = compare(old_dir, new_dir)
        files = len(os.listdir(new_dir))
    for line in lines:
        print(line)
    print(f"{len(CONFIGS)} configs, {files} files: "
          + (f"{sum(not line.startswith(' ') for line in lines)} differ" if lines
             else "every byte agrees"))
    return 1 if lines else 0


if __name__ == "__main__":
    sys.exit(main())
