"""Batch command-line harness.

Commands: verify (Bochner identity on a map, per-node CSV + JSON
summary), flow (heat flow with trace CSV), report (pinching report
JSON), scan (parameter sweep, one report per CSV row), consistency
(falsification table over the harmonic catalog).

Exit codes: 0 all enabled assertions pass, 1 assertion failure,
2 usage error (an unreadable input path or an unwritable output path
included), 3 numerical error (a NaN or infinite number in the result
included).  All floats are written with 17 significant digits so
identical configs reproduce identical bytes.  To cap the BLAS/OpenMP
worker threads, set OMP_NUM_THREADS and OPENBLAS_NUM_THREADS before
Python starts: the pools are sized when numpy is imported.
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from .bochner import compute_bochner, integral_identity_residual, pinching_slack
from .catalog import build_target, parse_descriptor, parse_domain, parse_target
from .domains import ricci_min
from .errors import ChartDomainError, NumericalError, UsageError
from .flow import DT_MAX, ENERGY_SLACK, IMPLICIT_DT, FlowParams, run_flow
from .io_utils import ColumnRows, json_dumps, write_csv
from .maps import catalog_map, load_map, save_map
from .rigidity import HARMONIC_COEFF, build_report, grid_h, theorem_consistency_scan
from .targets import ON_TARGET_TOL

MIN_RESOLUTION = 8
VERIFY_RES_COEFF = 100.0  # residual band C h^2, calibrated on the catalog
PATH_AGREEMENT_TOL = 1e-8
RATIO_BAND = (3.0, 5.0)
MAX_SWEEP = 10_000  # values per scan; each builds one report

CONSISTENCY_CATALOG = (
    ("constant", "sphere:r=1", "constant"),
    ("identity_sphere", "sphere:r=1", "identity"),
    ("radial_scaling(0.5)", "sphere:r=0.5", "scaling"),
    ("radial_scaling(1)", "sphere:r=1", "scaling"),
    ("radial_scaling(2)", "sphere:r=2", "scaling"),
    ("holomorphic_degree_2", "sphere:r=1", "holomorphic:k=2"),
    ("holomorphic_degree_3", "sphere:r=1", "holomorphic:k=3"),
)


def _resolution(text):
    try:
        n = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"resolution must be an integer: {text!r}")
    if n < MIN_RESOLUTION:
        raise argparse.ArgumentTypeError(
            f"resolution {n} below the minimum of {MIN_RESOLUTION} per axis"
        )
    return n


def _dt(text):
    if text == "auto":
        return IMPLICIT_DT
    try:
        v = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"--dt takes 'auto' or a number: {text!r}")
    if not 0 < v < np.inf:
        raise argparse.ArgumentTypeError("--dt must be positive and finite")
    return v


def _add_common(sub, descriptors=True):
    if descriptors:
        sub.add_argument("--domain", default="sphere:r=1", help="domain descriptor")
        sub.add_argument("--target", default="sphere:r=1", help="target descriptor")
    sub.add_argument(
        "--resolution",
        type=_resolution,
        default=64,
        help=f"latitude nodes n1 (>= {MIN_RESOLUTION}); n2 follows the domain kind",
    )
    # accepted and ignored until the benchmark's calls stop passing it
    sub.add_argument("--seed", type=int, help=argparse.SUPPRESS)
    sub.add_argument("--json", default=None, help="write the JSON summary here")
    sub.add_argument("--config", default=None, help="JSON config file; flags override")


def _verify_options(p):
    _add_common(p)
    p.add_argument("--map", default=None, help="catalog map descriptor")
    p.add_argument("--load", default=None, help="saved-map path")
    p.add_argument("--refine", type=int, default=1, help="number of doubling levels")
    p.add_argument("--csv", default=None, help="write the per-node CSV here")


def _flow_options(p):
    _add_common(p)
    p.add_argument("--init", default=None, help="catalog map descriptor")
    p.add_argument("--load", default=None, help="saved-map path")
    p.add_argument(
        "--dt", type=_dt, default="auto",
        help=(
            f"first implicit step, or 'auto' for {IMPLICIT_DT:g}; doubles after each "
            f"clean step up to DT_MAX = {DT_MAX:g}, or to a larger first step"
        ),
    )
    p.add_argument("--steps", type=int, default=10000, help="step budget")
    p.add_argument("--tol", type=float, default=1e-6, help="tension stopping tolerance")
    p.add_argument(
        "--collapse-tol", type=float, default=1e-3, help="diameter collapse tolerance"
    )
    p.add_argument("--save", default=None, help="write the final map here")
    p.add_argument("--trace", default=None, help="write the step trace CSV here")
    p.add_argument(
        "--trace-stride", type=int, default=1, help="record every k-th step"
    )


def _report_options(p):
    _add_common(p)
    p.add_argument("--map", default=None, help="catalog map descriptor")
    p.add_argument("--load", default=None, help="saved-map path")
    # accepted and ignored until the benchmark's calls stop passing it
    p.add_argument("--global-sample", type=int, help=argparse.SUPPRESS)


def _scan_options(p):
    _add_common(p)
    p.add_argument("--map", default=None, help="catalog map descriptor")
    p.add_argument(
        "--param",
        required=True,
        help="sweep grammar key=start:stop:step over the target descriptor",
    )
    p.add_argument("--csv", default=None, help="write the sweep table here")


def _consistency_options(p):
    _add_common(p, descriptors=False)


# each command's help line and the function that adds its options
_SUBCOMMANDS = {
    "verify": ("check the Bochner identity on a map", _verify_options),
    "flow": ("run the heat flow", _flow_options),
    "report": ("build a pinching report", _report_options),
    "scan": ("sweep a target parameter, one report per row", _scan_options),
    "consistency": ("falsification scan over the harmonic catalog", _consistency_options),
}


def build_parser(command=None):
    """The parser of every command, with the options of `command` alone,
    or of every command when it is None.

    A call parses one command, and the others' options change neither
    the top-level help nor any message about the command line before
    the command, so `parse_config` builds only the options it reads.
    """
    parser = argparse.ArgumentParser(
        prog="bochnerlab", description=__doc__.splitlines()[0]
    )
    subs = parser.add_subparsers(dest="command", required=True)
    for name, (text, add_options) in _SUBCOMMANDS.items():
        p = subs.add_parser(name, help=text)
        if command in (None, name):
            add_options(p)
    return parser, subs


def parse_config(argv):
    """Parse flags, merging in a JSON config file if one is named."""
    # argparse takes the first positional argument for the command, and
    # reports an unknown option before it only after parsing the command;
    # no top-level option takes a value, so it is the first command name
    parser, subs = build_parser(next((a for a in argv if a in _SUBCOMMANDS), None))
    ns = parser.parse_args(argv)
    if ns.config:
        try:
            with open(ns.config) as fh:
                cfg = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise UsageError(f"cannot read config {ns.config}: {exc}") from exc
        if not isinstance(cfg, dict):
            raise UsageError("config file must hold a JSON object")
        sub = subs.choices[ns.command]
        known = {a.dest for a in sub._actions} - {"help", "config"}
        unknown = set(cfg) - known
        if unknown:
            raise UsageError(f"unknown config keys {sorted(unknown)}")
        # as strings, file values pass each flag's type check; null keeps the default
        sub.set_defaults(**{k: str(v) for k, v in cfg.items() if v is not None})
        ns = parser.parse_args(argv)  # explicit flags override file values
    return ns


def _build_map(ns, attr="map"):
    name = getattr(ns, attr, None)
    path = getattr(ns, "load", None)
    if name and path:
        raise UsageError("give either a catalog map or a saved map, not both")
    if path:
        return load_map(path)
    if not name:
        raise UsageError("a map source is required (catalog name or saved map)")
    dom = parse_domain(ns.domain, ns.resolution)
    tgt = parse_target(ns.target)
    return catalog_map(name, dom, tgt)


def _provenance(ns, f=None):
    """The run's settings; a saved map supplies its own domain, target and n1."""
    keys = ("command", "domain", "target", "resolution")
    prov = {k: getattr(ns, k) for k in keys if hasattr(ns, k)}
    if getattr(ns, "load", None):
        prov.update(
            domain=f.domain.descriptor(),
            target=f.target.descriptor(),
            resolution=f.domain.n1,
        )
    return prov


def _emit(ns, text):
    if ns.json:
        with open(ns.json, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _verify_level(f):
    dom = f.domain
    h = grid_h(dom)
    # the accuracy-6 integrand holds its own continued values and
    # integrand grid; taken first, it runs while no Bochner field is held
    integral = integral_identity_residual(f)
    data = compute_bochner(f, contraction=True)
    tol = VERIFY_RES_COEFF * h * h
    harmonic = data.sup_tension <= HARMONIC_COEFF * h * h
    vol = dom.volume()
    return data, {
        "resolution": [dom.n1, dom.n2],
        "h": h,
        "sup_residual": data.sup_residual,
        "sup_tension": data.sup_tension,
        "path_disagreement": data.path_disagreement,
        "residual_tol": tol,
        "harmonic": harmonic,
        "energy": data.energy,
        "integral_identity_residual": integral,
        "volume": vol,
        "constraint_residual": data.constraint_residual,
    }


def cmd_verify(ns):
    if ns.refine < 1:
        raise UsageError("--refine must be at least 1")
    if ns.load and ns.refine > 1:
        raise UsageError("refinement levels need a catalog map, not a saved map")
    f = _build_map(ns)
    tgt = f.target
    # the finer levels' domains first: one beyond MAX_NODES exits before level 1
    finer = [f.domain.with_resolution(f.domain.n1 << lev) for lev in range(1, ns.refine)]
    levels = []
    for dom in [None] + finer:
        if dom is not None:
            # drop the previous level's map and fields before the next is built
            f = data = None
            f = catalog_map(ns.map, dom, tgt)
        data, summary = _verify_level(f)
        levels.append(summary)

    # a pair of exactly zero residuals (an exactly harmonic map) has no
    # order to check: its ratio is None
    sups = [s["sup_residual"] for s in levels]
    ratios = [
        None if a == b == 0 else a / max(b, 1e-300) for a, b in zip(sups, sups[1:])
    ]
    checks = {}
    checks["constraint"] = all(s["constraint_residual"] <= ON_TARGET_TOL for s in levels)
    checks["path_agreement"] = all(
        s["path_disagreement"] <= PATH_AGREEMENT_TOL for s in levels
    )
    harmonic = all(s["harmonic"] for s in levels)
    if harmonic:
        checks["residual_band"] = all(
            s["sup_residual"] <= s["residual_tol"] for s in levels
        )
        if ratios:
            checks["refinement_ratio"] = all(
                RATIO_BAND[0] <= r <= RATIO_BAND[1] for r in ratios if r is not None
            )
    passed = all(checks.values())

    payload = {
        "provenance": _provenance(ns, f),
        "map": ns.map or ns.load,
        "levels": levels,
        "residual_ratios": ratios,
        "ratio_band": list(RATIO_BAND),
        "harmonic": harmonic,
        "checks": checks,
        "passed": passed,
    }
    text = json_dumps(payload)
    if ns.csv:
        _write_node_csv(ns, f, data)
    _emit(ns, text)
    return 0 if passed else 1


def _write_node_csv(ns, f, data):
    dom = f.domain
    rmin, _ = ricci_min(dom)
    # Sec_max over every image node, as the report takes it
    sec_max = max(data.sec_max, 0.0)
    n = dom.n
    header = (
        ["i", "j", "e"]
        + [f"lam{k + 1}" for k in range(n)]
        + ["ricci_term", "target_term", "Q", "hess", "lap", "residual", "slack"]
    )
    S = data.S.reshape(-1)

    # the node indices, e, Q, the residual and the slack are computed a
    # block of rows at a time
    def node_index(op):
        return lambda start, stop: op(np.arange(start, stop), dom.n2)

    def at_nodes(field):
        return lambda start, stop: field(slice(start, stop))

    columns = (
        [node_index(np.floor_divide), node_index(np.remainder),
         lambda start, stop: S[start:stop] / 2.0]
        + [data.lam[..., k] for k in range(n)]
        + [data.ricci, data.target, at_nodes(data.Q), data.hess, data.lap,
           at_nodes(data.residual),
           at_nodes(lambda nodes: pinching_slack(data, rmin, sec_max, nodes))]
    )
    write_csv(ns.csv, header, ColumnRows(columns, count=S.size))


def cmd_flow(ns):
    if ns.trace and ns.trace_stride < 1:
        raise UsageError("--trace-stride must be at least 1")
    f0 = _build_map(ns, attr="init")
    params = FlowParams(
        dt=ns.dt,
        max_steps=ns.steps,
        tension_tol=ns.tol,
        collapse_tol=ns.collapse_tol,
        snapshot_stride=ns.trace_stride if ns.trace else 0,
    )
    f, summary = run_flow(f0, params)
    energies = np.asarray(summary.energies)
    monotone = bool(np.all(np.diff(energies) <= ENERGY_SLACK))
    passed = monotone and summary.outcome != "max_steps"
    payload = {
        "provenance": _provenance(ns, f0),
        "init": ns.init or ns.load,
        "dt": summary.dt,
        "steps": summary.steps,
        "rejected_steps": summary.rejected,
        "outcome": summary.outcome,
        "final_tension": summary.final_tension,
        "final_diameter": summary.final_diameter,
        "energy_initial": float(energies[0]),
        "energy_final": float(energies[-1]),
        "energy_monotone": monotone,
        "passed": passed,
    }
    text = json_dumps(payload)
    if ns.save:
        save_map(f, ns.save)
    if ns.trace:
        write_csv(
            ns.trace,
            ["step", "energy", "sup_tension", "image_diameter", "e_max"],
            ColumnRows(zip(*summary.trace)),
        )
    _emit(ns, text)
    return 0 if passed else 1


def cmd_report(ns):
    f = _build_map(ns)
    rep = build_report(f)
    payload = {"provenance": _provenance(ns, f), "report": rep.to_dict()}
    diag = rep.equality
    if diag is not None:
        payload["equality_diagnostics"] = {
            "hess_sup": rep.hess_sup,
            "lambda_spread": rep.lambda_spread,
            "energy_density_variation": diag.energy_density_variation,
            "homothety_factor": rep.homothety_factor,
            "affine_fit_residual": diag.affine_fit_residual,
            "tol": diag.tol,
            "ok": diag.ok,
        }
    _emit(ns, json_dumps(payload))
    return 0


def _sweep_values(spec):
    key, sep, rng = spec.partition("=")
    if not sep:
        raise UsageError(f"--param needs key=start:stop:step, got {spec!r}")
    parts = rng.split(":")
    if len(parts) != 3:
        raise UsageError(f"--param needs key=start:stop:step, got {spec!r}")
    try:
        start, stop, step = (float(x) for x in parts)
    except ValueError as exc:
        raise UsageError(f"non-numeric sweep bound in {spec!r}") from exc
    # an infinite step would make start + 0 * step NaN
    if not (0 < step < np.inf and np.isfinite(stop - start) and stop >= start):
        raise UsageError("sweep needs finite bounds, a finite step > 0 and stop >= start")
    count = np.floor((stop - start) / step + 1e-9) + 1
    if count > MAX_SWEEP:
        raise UsageError(f"sweep of {count:g} values exceeds the limit of {MAX_SWEEP}")
    return key.strip(), [start + i * step for i in range(int(count))]


_SCAN_COLUMNS = (
    "classification",
    "margin",
    "tol",
    "ric_min",
    "sec_max_image",
    "S0",
    "e_max",
    "threshold_S0",
    "threshold_e",
    "sup_tension",
    "harmonic",
    "is_constant",
    "hess_sup",
    "lambda_spread",
    "homothety_factor",
)


def cmd_scan(ns):
    if not ns.map:
        raise UsageError("scan needs a catalog map")
    key, values = _sweep_values(ns.param)
    kind, params = parse_descriptor(ns.target)
    dom = parse_domain(ns.domain, ns.resolution)
    # every target first, so a bad sweep value is refused before any map
    targets = [build_target(kind, {**params, key: v}) for v in values]
    entries = ((v, catalog_map(ns.map, dom, tgt)) for v, tgt in zip(values, targets))
    result = theorem_consistency_scan(entries)
    swept = [(r.name, r.report) for r in result.rows]
    payload = {
        "provenance": _provenance(ns),
        "map": ns.map,
        "sweep": {"key": key, "values": values},
        "reports": [{**rep.to_dict(), "sweep_key": key, "sweep_value": v}
                    for v, rep in swept],
        "passed": result.ok,
    }
    text = json_dumps(payload)
    if ns.csv:
        rows = [[v, rep.domain, rep.target] + [getattr(rep, c) for c in _SCAN_COLUMNS]
                for v, rep in swept]
        write_csv(ns.csv, [key, "domain", "target"] + list(_SCAN_COLUMNS), rows)
    _emit(ns, text)
    return 0 if result.ok else 1


def cmd_consistency(ns):
    # built on the unit sphere one at a time as the scan reaches them
    entries = (
        (name, catalog_map(spec, parse_domain("sphere:r=1", ns.resolution), parse_target(tgt)))
        for name, tgt, spec in CONSISTENCY_CATALOG
    )
    result = theorem_consistency_scan(entries)
    text = json_dumps({
        "provenance": _provenance(ns),
        "rows": [r.to_dict() for r in result.rows],
        "passed": result.ok,
    })
    sys.stdout.write(result.table() + "\n")
    if ns.json:
        _emit(ns, text)
    return 0 if result.ok else 1


_COMMANDS = {
    "verify": cmd_verify,
    "flow": cmd_flow,
    "report": cmd_report,
    "scan": cmd_scan,
    "consistency": cmd_consistency,
}


def run(ns):
    return _COMMANDS[ns.command](ns)


def main(argv=None):
    try:
        ns = parse_config(sys.argv[1:] if argv is None else argv)
        return run(ns)
    # an input path that cannot be read as text, or an output path that
    # cannot be written, is the caller's error
    except (UsageError, OSError, UnicodeDecodeError) as exc:
        sys.stderr.write(json_dumps({"error": "usage", "message": str(exc)}))
        return 2
    # from the CLI, off-target points, overflow and exhausted memory are numerical
    except (NumericalError, ChartDomainError, ArithmeticError, MemoryError) as exc:
        sys.stderr.write(
            json_dumps({"error": type(exc).__name__, "message": str(exc)})
        )
        return 3


if __name__ == "__main__":
    sys.exit(main())
