"""CLI harness: commands, config merging, exit codes, reproducibility."""

import importlib.util
import json
import shutil
import subprocess
import sys
import time
import warnings
import weakref
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bochnerlab import cli
from bochnerlab.bochner import compute_bochner, pinching_slack
from bochnerlab.catalog import parse_domain, parse_target
from bochnerlab.cli import main
from bochnerlab.domains import FlatTorus2, ricci_min
from bochnerlab.errors import NumericalError, UsageError
from bochnerlab.maps import DiscreteMap, catalog_map, load_map, save_map
from bochnerlab.rigidity import build_report
from bochnerlab.targets import Ellipsoid, sec_max_over_region

pytestmark = pytest.mark.usefixtures("tmp_path")
WORKLOADS = Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"


def run_cli(*args):
    return main(list(args))


def exit_code(argv):
    """The process exit code: main's return value, or argparse's exit."""
    try:
        return main(argv)
    except SystemExit as exc:
        return exc.code


def ellipsoid_map(path, n1):
    """Save the unit directions of S^2 at n1 x 2 n1 scaled by (1.2, 0.9, 2.1),
    reprojected onto ellipsoid(1, 1, 2); its Gauss curvature peaks near
    both poles."""
    dom = parse_domain("sphere:r=1", n1)
    TH, PH = dom.chart_grid()
    u = np.stack([np.sin(TH) * np.cos(PH), np.sin(TH) * np.sin(PH), np.cos(TH)], axis=-1)
    save_map(DiscreteMap(dom, Ellipsoid(a=1, b=1, c=2), u * [1.2, 0.9, 2.1]), path)
    return str(path)


class TestVerify:
    def test_refinement_json_and_csv(self, tmp_path):
        out = tmp_path / "verify.json"
        csv = tmp_path / "nodes.csv"
        rc = run_cli(
            "verify", "--map", "identity", "--resolution", "32",
            "--refine", "2", "--json", str(out), "--csv", str(csv),
        )
        assert rc == 0
        doc = json.loads(out.read_text())
        assert doc["passed"] is True
        assert len(doc["levels"]) == 2
        assert 3.0 <= doc["residual_ratios"][0] <= 5.0
        header = csv.read_text().splitlines()[0].split(",")
        assert header == [
            "i", "j", "e", "lam1", "lam2", "ricci_term", "target_term",
            "Q", "hess", "lap", "residual", "slack",
        ]
        rows = csv.read_text().splitlines()[1:]
        assert len(rows) == 64 * 128  # finest level

    @pytest.mark.parametrize("source", ["circles", "holomorphic"])
    def test_node_csv_round_trips_the_bochner_fields(self, tmp_path, source):
        # circles: S^1 x S^1 into S^2(1) x S^2(2), whose curvature is not
        # one value, so the path check reads both ends of sec_range;
        # holomorphic: S^2 -> S^2, where the Ricci, target and Q columns
        # all differ
        path, csv = tmp_path / "in.map", tmp_path / "nodes.csv"
        if source == "circles":
            spec = importlib.util.spec_from_file_location("workloads", WORKLOADS)
            workloads = importlib.util.module_from_spec(spec)
            spec.loader.exec_module(workloads)
            workloads.write_product_map(str(path), seed=4)
        else:
            dom = parse_domain("sphere:r=1", 16)
            save_map(catalog_map("holomorphic:k=2", dom, parse_target("sphere:r=1")), path)
        rc = run_cli("verify", "--load", str(path), "--csv", str(csv),
                     "--json", str(tmp_path / "v.json"))
        assert rc == 0
        f = load_map(str(path))
        data = compute_bochner(f, contraction=True)
        # the node CSV takes Sec_max over every image node, as the report does
        nodes = f.values.reshape(-1, f.target.m)
        sec_max = max(sec_max_over_region(f.target, nodes)[0], 0.0)
        slack = pinching_slack(data, ricci_min(f.domain)[0], sec_max)
        lines = csv.read_text().splitlines()
        assert lines[0].split(",")[2:] == [
            "e", "lam1", "lam2", "ricci_term", "target_term",
            "Q", "hess", "lap", "residual", "slack",
        ]
        cells = [line.split(",") for line in lines[1:]]
        i, j = np.indices((f.domain.n1, f.domain.n2))
        assert [int(c[0]) for c in cells] == i.ravel().tolist()
        assert [int(c[1]) for c in cells] == j.ravel().tolist()
        expected = [data.S / 2.0, data.lam[..., 0], data.lam[..., 1], data.ricci,
                    data.target, data.Q(), data.hess, data.lap, data.residual(), slack]
        got = np.array([[float(x) for x in c[2:]] for c in cells])
        for col, field in enumerate(expected):
            np.testing.assert_array_equal(got[:, col], field.ravel())
        # no two columns alike, except those that vanish on the circles map
        distinct = {tuple(col) for col in got.T}
        assert len(distinct) == (8 if source == "circles" else 10)

    def test_node_csv_slack_uses_the_reports_sec_max(self, tmp_path):
        # a band map T^2 -> ellipsoid(1,1,2) whose highest image point
        # sits in an odd column: the report reads every node, so its
        # Sec_max is the one every node gives
        dom = FlatTorus2(a=1, b=1, n1=48, n2=48)
        U, V = dom.chart_grid()
        z = 0.2 * np.sin(V + dom.spacing[1])
        f = DiscreteMap(dom, Ellipsoid(a=1, b=1, c=2),
                        np.stack([np.cos(U), np.sin(U), z], axis=-1))
        path, csv, out = tmp_path / "in.map", tmp_path / "nodes.csv", tmp_path / "r.json"
        save_map(f, path)
        assert run_cli("verify", "--load", str(path), "--csv", str(csv),
                       "--json", str(tmp_path / "v.json")) == 0
        assert run_cli("report", "--load", str(path), "--json", str(out)) == 0
        sec_max = json.loads(out.read_text())["report"]["sec_max_image"]
        f = load_map(str(path))
        every_node = sec_max_over_region(f.target, f.values.reshape(-1, 3))[0]
        assert 0 < sec_max == every_node
        data = compute_bochner(f, contraction=True)
        slack = pinching_slack(data, ricci_min(f.domain)[0], sec_max)
        got = [float(line.rsplit(",", 1)[1]) for line in csv.read_text().splitlines()[1:]]
        np.testing.assert_array_equal(got, slack.ravel())

    def test_ellipsoid_path_check_reads_the_closed_form_curvature(self, tmp_path, monkeypatch):
        # the enclosure takes the ellipsoid's Gauss curvature from
        # sec_range and the contraction takes it from the Gauss equation,
        # so a 1 % error in the closed form fails the path check
        path = ellipsoid_map(tmp_path / "ellipsoid.map", 32)

        def path_agreement():
            out = tmp_path / "v.json"
            run_cli("verify", "--load", str(path), "--json", str(out))
            return json.loads(out.read_text())["checks"]["path_agreement"]

        assert path_agreement() is True
        closed_form = Ellipsoid.sec_range
        monkeypatch.setattr(Ellipsoid, "sec_range",
                            lambda self, q: tuple(1.01 * K for K in closed_form(self, q)))
        assert path_agreement() is False

    @pytest.mark.parametrize("command", ["verify", "report"])
    def test_the_image_is_read_once_per_band(self, tmp_path, count_calls, command):
        # 128 x 256 nodes are four bands; the pass reads the target at
        # the image nodes, and the report, the verify level and the node
        # CSV read the pass (8 calls each at a verify with --csv before)
        path = ellipsoid_map(tmp_path / "ellipsoid.map", 128)
        counts = count_calls(Ellipsoid, ("sec_range", "constraint_residual"))
        argv = [command, "--load", path, "--json", str(tmp_path / "out.json")]
        if command == "verify":
            argv += ["--csv", str(tmp_path / "nodes.csv")]
        assert run_cli(*argv) == 0
        assert counts == {"sec_range": 4, "constraint_residual": 4}

    @pytest.mark.parametrize("refine", [2, 3])
    def test_exactly_harmonic_map_has_no_ratio_to_check(self, tmp_path, refine):
        # the constant map's residual is exactly 0 at every level, so a
        # ratio of the pair is no refinement order
        out = tmp_path / "verify.json"
        argv = ["verify", "--map", "constant", "--refine", str(refine),
                "--resolution", "16", "--json", str(out)]
        assert run_cli(*argv) == 0
        doc = json.loads(out.read_text())
        assert [s["sup_residual"] for s in doc["levels"]] == [0.0] * refine
        assert doc["residual_ratios"] == [None] * (refine - 1)
        assert doc["checks"]["refinement_ratio"] is True and doc["passed"] is True

    def test_map_and_load_conflict(self, tmp_path):
        rc = run_cli("verify", "--map", "identity", "--load", "nope.txt")
        assert rc == 2

    def test_missing_map_source(self):
        assert run_cli("verify") == 2

    def test_resolution_floor(self):
        with pytest.raises(SystemExit) as exc:
            run_cli("verify", "--map", "identity", "--resolution", "4")
        assert exc.value.code == 2


class TestSavedMapErrors:
    HEADER = "bochnerlab-map 1\ndomain torus:a=1,b=1\ntarget sphere:r=1\ngrid 8 8 3\n"
    ROW = "0 0 1\n"

    @pytest.mark.parametrize(
        "text, code",
        [
            (HEADER.replace("target sphere:r=1\n", "") + ROW * 64, 2),  # no target
            (HEADER + ROW * 63 + "0 0\n", 2),  # truncated body
            (HEADER + ROW * 63 + "nan 0 1\n", 3),  # non-finite node
            (HEADER.replace("sphere", "sph\xe8re").encode("latin-1") + ROW.encode() * 64, 2),
        ],
        ids=["missing-target", "truncated", "nan-node", "not-utf8"],
    )
    def test_exit_codes(self, tmp_path, capsys, text, code):
        path = tmp_path / "bad.map"
        path.write_bytes(text if isinstance(text, bytes) else text.encode())
        out = tmp_path / "r.json"
        assert run_cli("report", "--load", str(path), "--json", str(out)) == code
        assert not out.exists()
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == ("usage" if code == 2 else "NumericalError")


TORUS_CAP = ["--domain", "torus:a=1,b=1", "--init", "cap:amplitude=0.3", "--steps", "1"]


@pytest.mark.parametrize(
    "args",
    [
        ["report", "--load", "{tmp}/no-such.map"],
        ["report", "--load", "{tmp}"],
        ["report", "--map", "constant", "--config", "{tmp}/latin1.json"],
        ["report", "--map", "constant", "--json", "{tmp}/no-such-dir/r.json"],
        ["verify", "--map", "identity", "--csv", "{tmp}/no-such-dir/n.csv"],
        ["flow", *TORUS_CAP, "--save", "{tmp}/no-such-dir/f.map"],
        ["flow", *TORUS_CAP, "--trace", "{tmp}/no-such-dir/t.csv"],
        ["scan", "--map", "constant", "--param", "r=1:1:1", "--csv", "{tmp}/no-such-dir/s.csv"],
        ["consistency", "--json", "{tmp}/no-such-dir/c.json"],
    ],
    ids=["load-missing", "load-directory", "config-not-utf8", "json-no-dir",
         "verify-csv-no-dir", "flow-save-no-dir", "flow-trace-no-dir",
         "scan-csv-no-dir", "consistency-json-no-dir"],
)
def test_bad_paths_are_usage_errors(tmp_path, capsys, args):
    (tmp_path / "latin1.json").write_bytes('{"seed": "\xe9"}'.encode("latin-1"))
    argv = [a.format(tmp=tmp_path) for a in args] + ["--resolution", "8"]
    assert exit_code(argv) == 2
    assert json.loads(capsys.readouterr().err)["error"] == "usage"


def test_import_leaves_out_scipy_optimize():
    code = "import sys, bochnerlab.cli; print('scipy.optimize' in sys.modules)"
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "False"


def test_report_of_the_global_sec_max_leaves_out_numpy_random():
    # the exact global value is closed form: no random number is drawn
    code = ("import sys, bochnerlab.cli; bochnerlab.cli.main(['report', '--map', 'identity', "
            "'--resolution', '8', '--global-sample', '4096']); "
            "print('numpy.random' in sys.modules)")
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True
    )
    assert out.stdout.splitlines()[-1] == "False"


class TestFlow:
    def test_cap_collapse_with_trace(self, tmp_path):
        trace = tmp_path / "trace.csv"
        out = tmp_path / "flow.json"
        final = tmp_path / "final.map"
        rc = run_cli(
            "flow", "--domain", "torus:a=1,b=1", "--init", "cap:amplitude=0.3",
            "--resolution", "32", "--steps", "5000", "--trace", str(trace),
            "--save", str(final), "--json", str(out),
        )
        assert rc == 0
        doc = json.loads(out.read_text())
        assert doc["outcome"] == "collapsed_to_constant"
        assert doc["energy_monotone"] is True
        assert doc["rejected_steps"] == 0
        lines = trace.read_text().splitlines()
        assert lines[0] == "step,energy,sup_tension,image_diameter,e_max"
        energy = np.array([float(l.split(",")[1]) for l in lines[1:]])
        assert np.all(np.diff(energy) <= 1e-10)
        # the saved map reloads
        rc = run_cli(
            "report", "--load", str(final), "--json", str(tmp_path / "r.json")
        )
        assert rc == 0

    def test_budget_ending_in_collapse_passes(self, tmp_path):
        # the 64^2 cap collapses at step 13, the last step of the budget
        out = tmp_path / "flow.json"
        rc = run_cli(
            "flow", "--domain", "torus:a=1,b=1", "--init", "cap:amplitude=0.3",
            "--resolution", "64", "--steps", "13", "--json", str(out),
        )
        doc = json.loads(out.read_text())
        assert (rc, doc["outcome"], doc["steps"]) == (0, "collapsed_to_constant", 13)
        assert doc["final_diameter"] < 1e-3


class TestReport:
    def test_equality_report_includes_diagnostics(self, tmp_path):
        out = tmp_path / "report.json"
        rc = run_cli(
            "report", "--map", "scaling", "--target", "sphere:r=2",
            "--resolution", "32", "--json", str(out),
        )
        assert rc == 0
        doc = json.loads(out.read_text())
        assert doc["report"]["classification"] == "equality"
        assert doc["equality_diagnostics"]["ok"] is True

    def test_saved_map_provenance_is_the_maps(self, tmp_path):
        # a saved map's own domain, target and n1 are recorded, not the
        # CLI defaults (sphere:r=1, sphere:r=1, 64)
        dom = parse_domain("torus:a=1,b=2", 16)
        f = catalog_map("cap:amplitude=0.3", dom, parse_target("sphere:r=2"))
        path, out = tmp_path / "cap.map", tmp_path / "r.json"
        save_map(f, path)
        assert run_cli("report", "--load", str(path), "--json", str(out)) == 0
        assert json.loads(out.read_text())["provenance"] == {
            "command": "report",
            "domain": "torus:a=1,b=2",
            "target": "sphere:r=2",
            "resolution": 16,
        }

    def test_saved_map_reloads_onto_the_same_target(self, tmp_path):
        # the dump's header must name k and the radius to the last digit,
        # or the reload is refused or reprojected onto another sphere
        target = "sphere:r=1.23456789,k=3"
        saved, out, ref = tmp_path / "s.map", tmp_path / "r.json", tmp_path / "c.json"
        common = ["--target", target, "--resolution", "8"]
        assert run_cli("flow", "--init", "constant", *common, "--steps", "1",
                       "--save", str(saved), "--json", str(tmp_path / "f.json")) == 0
        assert run_cli("report", "--load", str(saved), "--json", str(out)) == 0
        assert run_cli("report", "--map", "constant", *common, "--json", str(ref)) == 0
        loaded = json.loads(out.read_text())["report"]
        catalog = json.loads(ref.read_text())["report"]
        assert loaded["target"] == catalog["target"] == target
        assert loaded["sec_max_image"] == catalog["sec_max_image"]

    def test_a_large_target_sphere_is_on_target(self, tmp_path):
        # the on-target residual is relative to the radius, so the radial
        # scaling onto a sphere of radius 1e4 or 1e5 is the r = 1 report
        margins = []
        for r in ("1", "1e4", "1e5"):
            out = tmp_path / f"r{r}.json"
            assert run_cli("report", "--map", "scaling", "--target", f"sphere:r={r}",
                           "--resolution", "16", "--json", str(out)) == 0
            rep = json.loads(out.read_text())["report"]
            assert rep["classification"] == "equality"
            margins.append(rep["margin"])
        assert np.max(np.abs(np.subtract(margins[1:], margins[0]))) < 1e-12

    def test_byte_identical_reruns(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        args = ["report", "--map", "holomorphic:k=2", "--resolution", "32"]
        assert main(args + ["--json", str(a)]) == 0
        assert main(args + ["--json", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()


@pytest.fixture
def built_maps(monkeypatch):
    """Weak references to the catalog maps the CLI builds; building one
    while an earlier one is alive fails the test."""
    built = []

    def build_one(*args):
        assert all(ref() is None for ref in built)
        f = catalog_map(*args)
        built.append(weakref.ref(f))
        return f

    monkeypatch.setattr("bochnerlab.cli.catalog_map", build_one)
    return built


class TestScan:
    def test_sweep_has_seven_points(self, tmp_path):
        out = tmp_path / "scan.json"
        csv = tmp_path / "scan.csv"
        rc = run_cli(
            "scan", "--param", "r=0.5:2.0:0.25", "--map", "scaling",
            "--resolution", "32", "--json", str(out), "--csv", str(csv),
        )
        assert rc == 0
        doc = json.loads(out.read_text())
        assert doc["sweep"]["values"] == [0.5, 0.75, 1.0, 1.25, 1.5, 1.75, 2.0]
        assert len(doc["reports"]) == 7
        assert len(csv.read_text().splitlines()) == 8  # header + 7 rows

    def test_reports_carry_hess_sup_once(self, tmp_path):
        # each swept report carries hess_sup and no second copy of it
        out = tmp_path / "scan.json"
        assert run_cli("scan", "--map", "scaling", "--param", "r=0.5:2:0.5",
                       "--resolution", "16", "--json", str(out)) == 0
        reps = json.loads(out.read_text())["reports"]
        assert len(reps) == 4
        assert all("hess_sup" in r and "totally_geodesic_residual" not in r for r in reps)

    def test_malformed_param(self):
        assert run_cli("scan", "--param", "r=1:2", "--map", "scaling") == 2

    def test_one_map_alive_at_a_time(self, built_maps):
        assert run_cli("scan", "--map", "scaling", "--param", "r=0.5:2:0.5",
                       "--resolution", "16") == 0
        assert len(built_maps) == 4

    def test_a_bad_sweep_value_is_refused_before_any_map(self, monkeypatch):
        # k = 2.5 is no sphere dimension: refused before the k = 2 map is built
        def no_map(*args):
            raise AssertionError("a map was built")

        monkeypatch.setattr("bochnerlab.cli.catalog_map", no_map)
        assert run_cli("scan", "--map", "identity", "--param", "k=2:3:0.5",
                       "--resolution", "16") == 2

    @pytest.mark.parametrize("param", ["r=1:2:inf", "r=-1:1e-9:inf", "r=1:inf:1", "r=nan:2:1"])
    def test_a_non_finite_sweep_is_a_usage_error(self, param, monkeypatch):
        # an infinite step makes the one value start + 0 * inf NaN, which
        # is no radius: refused as the command line's error, before any map
        def no_map(*args):
            raise AssertionError("a map was built")

        monkeypatch.setattr("bochnerlab.cli.catalog_map", no_map)
        assert run_cli("scan", "--map", "scaling", "--param", param, "--resolution", "8") == 2

    def test_oversized_sweep_is_a_usage_error(self):
        # a million valid radii would build a million reports
        t0 = time.perf_counter()
        assert run_cli("scan", "--param", "r=1:2:1e-6", "--map", "scaling") == 2
        assert time.perf_counter() - t0 < 1.0


class TestConsistency:
    def test_catalog_passes(self, tmp_path, capsys):
        out = tmp_path / "c.json"
        rc = run_cli("consistency", "--resolution", "32", "--json", str(out))
        assert rc == 0
        doc = json.loads(out.read_text())
        assert doc["passed"] is True
        names = [r["name"] for r in doc["rows"]]
        assert "holomorphic_degree_3" in names and "constant" in names
        table = capsys.readouterr().out
        assert "identity_sphere" in table

    def test_one_catalog_map_alive_at_a_time(self, built_maps):
        assert run_cli("consistency", "--resolution", "16") == 0
        assert len(built_maps) == 7

    @pytest.mark.parametrize("flag", [["--target", "euclid:m=3"], ["--domain", "sphere:r=2"]],
                             ids=["target", "domain"])
    def test_the_catalog_takes_no_descriptor(self, flag):
        # the catalog fixes its own domain and targets
        assert exit_code(["consistency", "--resolution", "16"] + flag) == 2


def json_items(obj):
    """(key, value) of every object member and array item of parsed JSON,
    at any depth; an array item's key is its index."""
    if isinstance(obj, dict):
        items = obj.items()
    else:
        items = enumerate(obj) if isinstance(obj, list) else ()
    for key, value in items:
        yield key, value
        yield from json_items(value)


# one passing call of each command, before --resolution, --seed and --json
PASSING_CALLS = {
    "verify": ["verify", "--map", "constant"],
    "flow": ["flow", "--init", "constant", "--steps", "1"],
    "report": ["report", "--map", "constant", "--global-sample", "-1"],
    "scan": ["scan", "--map", "scaling", "--param", "r=1:2:1", "--csv", "{tmp}/scan.csv"],
    "consistency": ["consistency"],
}


class TestIgnoredFlags:
    """--seed and --global-sample take any integer and move nothing."""

    @pytest.mark.parametrize("command", list(PASSING_CALLS))
    def test_a_negative_seed_passes_and_no_output_names_a_seed(self, tmp_path, command):
        out = tmp_path / "out.json"
        argv = [a.format(tmp=tmp_path) for a in PASSING_CALLS[command]]
        assert run_cli(*argv, "--resolution", "16", "--seed", "-1", "--json", str(out)) == 0
        assert "seed" not in {key for key, _ in json_items(json.loads(out.read_text()))}
        if command == "scan":
            header = (tmp_path / "scan.csv").read_text().splitlines()[0]
            assert header.split(",")[:3] == ["r", "domain", "target"]
            assert "seed" not in header.split(",")

    @pytest.mark.parametrize("command", list(PASSING_CALLS))
    def test_help_lists_neither_flag(self, capsys, command):
        assert exit_code([command, "--help"]) == 0
        text = capsys.readouterr().out
        assert "--resolution" in text
        assert "--seed" not in text and "--global-sample" not in text


class TestConfig:
    def test_flags_override_config_file(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"map": "identity", "resolution": 48}))
        out = tmp_path / "v.json"
        rc = run_cli(
            "verify", "--config", str(cfg), "--resolution", "32",
            "--json", str(out),
        )
        assert rc == 0
        doc = json.loads(out.read_text())
        assert doc["provenance"]["resolution"] == 32  # flag wins
        assert doc["map"] == "identity"  # file supplies the map

    def test_unknown_config_key_rejected(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"mop": "identity"}))
        assert run_cli("verify", "--config", str(cfg)) == 2

    @pytest.mark.parametrize("dt", [None, "auto", 0.05])
    def test_config_dt_matches_the_default_step(self, tmp_path, dt):
        # a null keeps the flag's default; 'auto' is the default first step
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"dt": dt}))
        docs = []
        for extra in ([], ["--config", str(cfg)]):
            out = tmp_path / "flow.json"
            assert run_cli(*FLOW, "--json", str(out), *extra) == 1
            docs.append(json.loads(out.read_text()))
        assert docs[0] == docs[1] and docs[0]["dt"] == 0.2


FLOW = ["flow", "--domain", "torus:a=1,b=1", "--init", "cap:amplitude=0.3",
        "--resolution", "8", "--steps", "3"]


class TestOneCommandParser:
    """A call builds the options of the command it parses alone; its help
    and messages must be those of the parser of every command."""

    @pytest.mark.parametrize("argv", [
        ["--help"], [], ["bogus"], ["bogus", "flow"], ["--bogus", "flow", "--steps", "1"],
        ["--", "flow", "--steps", "1", "--help"],
        *([command, "--help"] for command in cli._COMMANDS),
        ["flow", "--bogus", "1"], ["report", "--map", "constant", "--dt", "1"],
        ["verify", "--resolution", "x"], ["verify", "--config", "CONFIG"],
        ["scan", "--map", "scaling", "--config", "CONFIG"],
    ], ids=" ".join)
    def test_matches_the_parser_of_every_command(self, argv, tmp_path, capsys, monkeypatch):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"map": "identity", "param": "r=1:2:1", "bogus": 1}))
        argv = [str(cfg) if a == "CONFIG" else a for a in argv]

        def outcome():
            rc = exit_code(argv)
            return (rc,) + tuple(capsys.readouterr())

        one = outcome()
        every = cli.build_parser
        monkeypatch.setattr(cli, "build_parser", lambda command=None: every())
        assert outcome() == one
        assert one[0] == 2 or "usage: bochnerlab" in one[1]

    def test_only_the_named_command_has_options(self):
        _, subs = cli.build_parser("flow")
        options = {name: {a.dest for a in p._actions} - {"help"} for name, p in subs.choices.items()}
        assert "trace_stride" in options["flow"]
        assert all(not dests for name, dests in options.items() if name != "flow")


class TestExitCodes:
    @pytest.mark.parametrize(
        "argv",
        [
            FLOW + ["--dt", "nan"],
            FLOW + ["--tol", "nan"],
            FLOW + ["--collapse-tol", "nan"],
            FLOW + ["--tol", "inf"],
            FLOW + ["--collapse-tol", "inf"],
            FLOW + ["--trace", "{tmp}/trace.csv", "--trace-stride", "0"],
        ],
        ids=["dt", "tol", "collapse-tol",
             "tol-inf", "collapse-tol-inf", "trace-stride"],
    )
    def test_bad_value_is_a_usage_error(self, tmp_path, argv):
        argv = [a.replace("{tmp}", str(tmp_path)) for a in argv]
        assert exit_code(argv) == 2
        assert not (tmp_path / "trace.csv").exists()

    @pytest.mark.parametrize(
        "descriptor",
        [
            ["--target", "sphere:r=nan"],
            ["--domain", "torus:a=inf,b=1"],
            ["--target", "euclid:m=inf"],
        ],
        ids=["nan-radius", "inf-side", "inf-dimension"],
    )
    def test_bad_descriptor_value_is_a_usage_error(self, descriptor):
        argv = ["report", "--map", "constant", "--resolution", "8"] + descriptor
        assert exit_code(argv) == 2

    @pytest.mark.parametrize("m", ["1e300", "1e6"])
    def test_oversized_ambient_dimension_fails_at_parse_time(self, monkeypatch, m):
        # refused before any map is built: numpy cannot allocate 1e300
        # columns, and 1e6 would allocate until the process is killed
        def refused(*args):
            raise AssertionError("a map was built")

        monkeypatch.setattr("bochnerlab.cli.catalog_map", refused)
        with pytest.raises(UsageError):
            parse_target(f"euclid:m={m}")
        with pytest.raises(UsageError):
            parse_target(f"sphere:k={m}")
        argv = ["report", "--map", "constant", "--target", f"euclid:m={m}",
                "--resolution", "16"]
        assert exit_code(argv) == 2

    @pytest.mark.parametrize(
        "argv, stage",
        [
            # the finest of 30 levels would be 8 * 2**29 rows
            (["verify", "--map", "holomorphic:k=2", "--resolution", "8",
              "--refine", "30"], "_verify_level"),
            # the value grid alone would take 240 GB
            (["report", "--map", "constant", "--domain", "torus:a=1,b=1",
              "--resolution", "100000"], "catalog_map"),
        ],
        ids=["refine", "resolution"],
    )
    def test_oversized_grid_exits_before_it_allocates(self, monkeypatch, argv, stage):
        def refused(*args):
            raise AssertionError(f"{stage} ran")

        monkeypatch.setattr(f"bochnerlab.cli.{stage}", refused)
        t0 = time.perf_counter()
        assert exit_code(argv) == 2
        assert time.perf_counter() - t0 < 1.0

    def test_config_value_passes_the_flag_check(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"steps": 2.5}))
        argv = [a for a in FLOW if a not in ("--steps", "3")]
        assert exit_code(argv + ["--config", str(cfg)]) == 2

    def test_memory_error_is_a_numerical_error(self, monkeypatch, capsys):
        # numpy raises a MemoryError subclass for an allocation beyond the
        # memory; raised here directly, the test allocates nothing
        def out_of_memory(*args, **kwargs):
            raise MemoryError("cannot allocate 14.6 TiB")

        monkeypatch.setattr("bochnerlab.cli.build_report", out_of_memory)
        assert exit_code(["report", "--map", "identity", "--resolution", "8"]) == 3
        err = json.loads(capsys.readouterr().err)
        assert err == {"error": "MemoryError", "message": "cannot allocate 14.6 TiB"}

    def test_stability_error_is_a_numerical_error(self, tmp_path, monkeypatch, capsys):
        # every candidate is NaN, so the flow's first step is rejected
        # until the controller gives up
        monkeypatch.setattr(FlatTorus2, "resolvent", lambda self, F, dt: F * np.nan)
        out = tmp_path / "flow.json"
        assert exit_code(FLOW + ["--json", str(out)]) == 3
        assert json.loads(capsys.readouterr().err)["error"] == "StabilityError"
        assert not out.exists()

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_overflowing_holomorphic_degree_exits_quietly(self, capsys):
        # t**k overflows for k = 1000; the non-finite values are refused
        # with one JSON error and no numpy warning
        argv = ["report", "--map", "holomorphic:k=1000", "--resolution", "8"]
        assert exit_code(argv) == 3
        assert json.loads(capsys.readouterr().err)["error"] == "NumericalError"

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_huge_dt_is_rejected_not_passed(self, tmp_path, capsys):
        # the solve overflows or its mean lies beyond the closest-point
        # map's range; each halving of 1e308 is still far too large
        out = tmp_path / "flow.json"
        assert exit_code(FLOW + ["--dt", "1e308", "--json", str(out)]) == 3
        assert json.loads(capsys.readouterr().err)["error"] == "StabilityError"
        assert not out.exists()


def noise_map(path, domain, target, scale=1.0):
    """8 x 8 (or 8 x 16) nodes of normal noise of deviation `scale`, saved."""
    dom, tgt = parse_domain(domain, 8), parse_target(target)
    values = scale * np.random.default_rng(0).standard_normal((dom.n1, dom.n2, tgt.m))
    save_map(DiscreteMap(dom, tgt, values), path)
    return str(path)


class TestNonFiniteResults:
    """A result with a NaN or infinite number is a numerical error (exit 3),
    and the command writes no output file."""

    def refused(self, tmp_path, capsys, argv, key):
        out = tmp_path / "out.json"
        with np.errstate(all="ignore"):
            assert exit_code(argv + ["--json", str(out)]) == 3
        err = json.loads(capsys.readouterr().err)
        assert err == {"error": "NumericalError", "message": f"non-finite result: {key}"}
        assert not out.exists()

    def test_flow_on_a_degenerate_torus(self, tmp_path, capsys):
        # a^2 h^2 underflows to 0: refused with the domain, before any step
        trace, out = tmp_path / "trace.csv", tmp_path / "out.json"
        argv = ["flow", "--domain", "torus:a=1e-300,b=1", "--init", "constant",
                "--steps", "5", "--resolution", "8", "--trace", str(trace),
                "--json", str(out)]
        assert exit_code(argv) == 2
        assert json.loads(capsys.readouterr().err)["error"] == "usage"
        assert not trace.exists() and not out.exists()

    @pytest.mark.parametrize("domain", ["torus:a=1e-300,b=1", "torus:a=1e200,b=1",
                                        "torus:a=1e-160,b=1", "sphere:r=1e160",
                                        "torus:a=1e-150,b=1", "sphere:r=1e-100"])
    def test_a_metric_beyond_normal_floats_is_a_usage_error(self, capsys, domain):
        # one JSON object on stderr: no RuntimeWarning and no OverflowError;
        # at 1e-150 and 1e-100 g_ii is normal but g_ii^2 is not
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert exit_code(["flow", "--domain", domain, "--init", "constant",
                              "--steps", "1", "--resolution", "8"]) == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "usage" and "not a finite normal float" in err["message"]

    def test_verify_of_noise_on_a_tiny_torus(self, tmp_path, capsys):
        path = noise_map(tmp_path / "n.map", "torus:a=1e-70,b=1", "euclid:m=3", 1e14)
        csv = tmp_path / "nodes.csv"
        argv = ["verify", "--load", path, "--csv", str(csv)]
        self.refused(tmp_path, capsys, argv, "levels[0].sup_residual")
        assert not csv.exists()

    @pytest.mark.parametrize("domain", ["sphere:r=1e-70", "torus:a=1e-70,b=1"])
    def test_report_of_noise_on_a_tiny_domain(self, tmp_path, capsys, domain):
        # g^ii f_ii overflows, so sup_tension is infinite: the report
        # refuses to classify the map
        path = noise_map(tmp_path / "n.map", domain, "euclid:m=3", 1e14)
        f = load_map(path)
        with np.errstate(all="ignore"), pytest.raises(
                NumericalError, match="^non-finite result: sup_tension$"):
            build_report(f)
        self.refused(tmp_path, capsys, ["report", "--load", path], "sup_tension")

    def test_report_of_the_constant_map_on_a_tiny_torus(self, capsys):
        # g_uu^2 = 1e-600 underflows, so (g^uu)^2 would overflow in |H|^2:
        # the domain is refused before any pass, without a RuntimeWarning
        with pytest.raises(UsageError, match=r"g_ii, g_ii\^2 or h_i\^2 g_ii"):
            parse_domain("torus:a=1e-150,b=1", 8)
        argv = ["report", "--map", "constant", "--domain", "torus:a=1e-150,b=1",
                "--resolution", "8"]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert exit_code(argv) == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "usage" and "not a finite normal float" in err["message"]

    def test_report_of_a_harmonic_map_of_a_tiny_torus(self, tmp_path, capsys):
        # (cos u, sin u, cos v, sin v) R / sqrt(2) into S^3(R) is harmonic,
        # so its tension stays finite; on a torus of side 1e-70 with
        # R = 1e16, (g^uu)^2 |H_uu|^2 ~ 1e280 R^2 / 4 overflows: hess_sup
        # alone is not finite
        dom = parse_domain("torus:a=1e-70,b=1e-70", 8)
        U, V = dom.chart_grid()
        values = 1e16 / np.sqrt(2) * np.stack([np.cos(U), np.sin(U), np.cos(V), np.sin(V)],
                                              axis=-1)
        f = DiscreteMap(dom, parse_target("sphere:r=1e16,k=3"), values)
        with np.errstate(all="ignore"), pytest.raises(
                NumericalError, match="^non-finite result: hess_sup$"):
            build_report(f)
        path = tmp_path / "c.map"
        save_map(f, path)
        self.refused(tmp_path, capsys, ["report", "--load", str(path)], "hess_sup")


# flag values: signs, zero, non-finite, huge, tiny, fractional, non-numeric
NUMBER = st.one_of(
    st.sampled_from(["-1", "0", "1", "3", "nan", "inf", "-inf", "1e308", "1e-300",
                     "2.5", "x", ""]),
    st.floats().map(repr),
)
SMALL_INT = st.integers(-3, 3).map(str)
BOUND = st.sampled_from(["nan", "inf", "-1", "0", "1", "1e-9", "x"])


# the flags whose values a call may draw; the others keep a valid value
DRAWN_FLAGS = ("seed", "domain", "target", "map", "dt", "tol", "collapse-tol",
               "steps", "trace-stride", "param", "refine", "global-sample")


@st.composite
def cli_argv(draw, work):
    """One CLI call with drawn flag and descriptor values.

    A drawn subset of DRAWN_FLAGS takes drawn values and the rest keep a
    valid one, so calls exit 0 and 1 as well as 2 and 3.  Grids, step
    budgets and refinement levels stay small, so every call runs in
    milliseconds.
    """
    drawn = draw(st.sets(st.sampled_from(DRAWN_FLAGS)))

    def value(flag, strategy, valid):
        return draw(strategy) if flag in drawn else valid

    seed = value("seed", st.sampled_from(["0", "-1", "2", "x"]), "0")
    common = ["--resolution=8", f"--seed={seed}", f"--json={work}/out.json"]
    cmd = draw(st.sampled_from(["flow", "report", "verify", "scan"]))
    target = draw(st.sampled_from(
        ["sphere:r={}", "ellipsoid:a=1,b=1,c={}", "prodspheres:r1=1,r2={}", "euclid:m=3"]
    )).format(value("target", NUMBER, "2"))
    if cmd == "scan":
        sweep = ":".join(value("param", BOUND, v) for v in ("1", "2", "1"))
        return ["scan", "--map=scaling", f"--target={target}", f"--param=r={sweep}",
                f"--csv={work}/scan.csv"] + common
    domain = draw(st.sampled_from(["sphere:r={}", "torus:a=1,b={}"])).format(
        value("domain", NUMBER, "1"))
    name = draw(st.sampled_from(
        ["holomorphic:k={}", "cap:amplitude={}", "scaling", "constant", "identity"]
    )).format(value("map", NUMBER, "2"))
    if cmd == "flow":
        flags = {"dt": (NUMBER, "auto"), "tol": (NUMBER, "1e-6"),
                 "collapse-tol": (NUMBER, "1e-3"), "steps": (SMALL_INT, "3"),
                 "trace-stride": (st.one_of(SMALL_INT, NUMBER), "1")}
        return [
            "flow", f"--domain={domain}", f"--init={name}", f"--target={target}",
            f"--trace={work}/trace.csv", f"--save={work}/final.map",
        ] + [f"--{k}={value(k, *v)}" for k, v in flags.items()] + common
    argv = [cmd, f"--domain={domain}", f"--map={name}", f"--target={target}"] + common
    if cmd == "verify":
        refine = value("refine", st.integers(-1, 2).map(str), "1")
        return argv + [f"--refine={refine}", f"--csv={work}/nodes.csv"]
    size = value("global-sample", st.one_of(SMALL_INT, NUMBER), "0")
    return argv + [f"--global-sample={size}"]


def csv_numbers(text):
    """Every cell of a CSV text that reads as a float, NaN and inf included;
    no number holds a comma, so a quoted cell's pieces are never read."""
    numbers = []
    for cell in text.replace("\n", ",").split(","):
        try:
            numbers.append(float(cell))
        except ValueError:
            pass
    return numbers


@settings(derandomize=True, database=None, deadline=None, max_examples=200)
@given(data=st.data())
def test_exit_code_contract_fuzz(tmp_path_factory, data):
    """Whatever the flag and descriptor values, the CLI exits 0-3, and
    every number of a JSON or CSV file it writes on exit 0 or 1 is finite."""
    work = tmp_path_factory.getbasetemp() / "fuzz"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir()
    argv = data.draw(cli_argv(work))
    code = exit_code(argv)
    assert code in (0, 1, 2, 3)
    if code > 1:
        return
    for path in work.iterdir():
        if path.suffix == ".json":
            numbers = [v for _, v in json_items(json.loads(path.read_text()))
                       if isinstance(v, float)]
        elif path.suffix == ".csv":
            numbers = csv_numbers(path.read_text())
        else:
            continue
        assert np.all(np.isfinite(numbers)), (argv, path.name)
