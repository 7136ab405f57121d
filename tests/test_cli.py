"""CLI harness: commands, config merging, exit codes, reproducibility."""

import importlib.util
import json
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bochnerlab.bochner import compute_bochner, pinching_bound_fields
from bochnerlab.catalog import parse_domain, parse_target
from bochnerlab.cli import main
from bochnerlab.domains import FlatTorus2, ricci_min
from bochnerlab.errors import UsageError
from bochnerlab.maps import DiscreteMap, catalog_map, load_map, save_map
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
        # constant, so the eigenframe term runs through sectional_batch;
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
        data = compute_bochner(f)
        # the node CSV takes Sec_max over every image node, as the report does
        nodes = f.values.reshape(-1, f.target.m)
        sec_max = max(sec_max_over_region(f.target, nodes)[0], 0.0)
        _, _, slack = pinching_bound_fields(f, ricci_min(f.domain)[0], sec_max, data)
        lines = csv.read_text().splitlines()
        assert lines[0].split(",")[2:] == [
            "e", "lam1", "lam2", "ricci_term", "target_term",
            "Q", "hess", "lap", "residual", "slack",
        ]
        cells = [line.split(",") for line in lines[1:]]
        i, j = np.indices((f.domain.n1, f.domain.n2))
        assert [int(c[0]) for c in cells] == i.ravel().tolist()
        assert [int(c[1]) for c in cells] == j.ravel().tolist()
        expected = [data.e, data.lam[..., 0], data.lam[..., 1], data.ricci,
                    data.target, data.Q, data.hess, data.lap, data.residual, slack]
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
        _, _, slack = pinching_bound_fields(
            f, ricci_min(f.domain)[0], sec_max, compute_bochner(f)
        )
        got = [float(line.rsplit(",", 1)[1]) for line in csv.read_text().splitlines()[1:]]
        np.testing.assert_array_equal(got, slack.ravel())

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
        ],
        ids=["missing-target", "truncated", "nan-node"],
    )
    def test_exit_codes(self, tmp_path, capsys, text, code):
        path = tmp_path / "bad.map"
        path.write_text(text)
        out = tmp_path / "r.json"
        assert run_cli("report", "--load", str(path), "--json", str(out)) == code
        assert not out.exists()
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == ("usage" if code == 2 else "NumericalError")


def test_import_leaves_out_scipy_optimize():
    code = "import sys, bochnerlab.cli; print('scipy.optimize' in sys.modules)"
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "False"


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
        assert doc["report"]["seed"] == 0

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
            "seed": 0,
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

    def test_byte_identical_reruns(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        args = ["report", "--map", "holomorphic:k=2", "--resolution", "32"]
        assert main(args + ["--json", str(a)]) == 0
        assert main(args + ["--json", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()


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

    def test_malformed_param(self):
        assert run_cli("scan", "--param", "r=1:2", "--map", "scaling") == 2

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


class TestExitCodes:
    @pytest.mark.parametrize(
        "argv",
        [
            ["report", "--map", "identity", "--resolution", "8", "--global-sample", "-1"],
            ["report", "--map", "holomorphic:k=2.5", "--resolution", "8"],
            FLOW + ["--dt", "nan"],
            FLOW + ["--tol", "nan"],
            FLOW + ["--collapse-tol", "nan"],
            FLOW + ["--trace", "{tmp}/trace.csv", "--trace-stride", "0"],
        ],
        ids=["global-sample", "fractional-degree", "dt", "tol", "collapse-tol",
             "trace-stride"],
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
            ["--target", "euclid:m=2.5"],
        ],
        ids=["nan-radius", "inf-side", "inf-dimension", "fractional-dimension"],
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


# flag values: signs, zero, non-finite, huge, tiny, fractional, non-numeric
NUMBER = st.one_of(
    st.sampled_from(["-1", "0", "1", "3", "nan", "inf", "-inf", "1e308", "1e-300",
                     "2.5", "x", ""]),
    st.floats().map(repr),
)
SMALL_INT = st.integers(-3, 3).map(str)
BOUND = st.sampled_from(["nan", "inf", "-1", "0", "1", "1e-9", "x"])


@st.composite
def cli_argv(draw, work):
    """One CLI call with drawn flag and descriptor values.

    Grids, step budgets, refinement levels and sample sizes stay small,
    so every call runs in milliseconds.
    """
    seed = draw(st.sampled_from(["0", "-1", "2", "x"]))
    common = ["--resolution=8", f"--seed={seed}"]
    cmd = draw(st.sampled_from(["flow", "report", "verify", "scan"]))
    if cmd == "flow":
        flags = {"dt": NUMBER, "tol": NUMBER, "collapse-tol": NUMBER,
                 "steps": SMALL_INT, "trace-stride": st.one_of(SMALL_INT, NUMBER)}
        return [
            "flow", "--domain=torus:a=1,b=1",
            f"--init=cap:amplitude={draw(NUMBER)}",
            f"--trace={work}/trace.csv", f"--save={work}/final.map",
            f"--json={work}/flow.json",
        ] + [f"--{k}={draw(v)}" for k, v in flags.items()] + common
    target = draw(st.sampled_from(
        ["sphere:r={}", "ellipsoid:a=1,b=1,c={}", "prodspheres:r1=1,r2={}", "euclid:m=3"]
    )).format(draw(NUMBER))
    if cmd == "scan":
        sweep = ":".join(draw(BOUND) for _ in range(3))
        return ["scan", "--map=scaling", f"--target={target}", f"--param=r={sweep}"] + common
    domain = draw(st.sampled_from(["sphere:r={}", "torus:a=1,b={}"])).format(draw(NUMBER))
    name = draw(st.sampled_from(
        ["holomorphic:k={}", "cap:amplitude={}", "scaling", "constant", "identity"]
    )).format(draw(NUMBER))
    argv = [cmd, f"--domain={domain}", f"--map={name}", f"--target={target}"] + common
    if cmd == "verify":
        return argv + [f"--refine={draw(st.integers(-1, 2))}"]
    return argv + [f"--global-sample={draw(st.one_of(SMALL_INT, NUMBER))}"]


@settings(derandomize=True, database=None, deadline=None, max_examples=200)
@given(data=st.data())
def test_exit_code_contract_fuzz(tmp_path_factory, data):
    """Whatever the flag and descriptor values, the CLI exits 0-3."""
    work = tmp_path_factory.getbasetemp()
    argv = data.draw(cli_argv(work))
    assert exit_code(argv) in (0, 1, 2, 3)
