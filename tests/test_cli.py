"""CLI harness: commands, config merging, exit codes, reproducibility."""

import json
import subprocess
import sys

import numpy as np
import pytest

from bochnerlab.catalog import parse_domain, parse_target
from bochnerlab.cli import main
from bochnerlab.maps import catalog_map, save_map

pytestmark = pytest.mark.usefixtures("tmp_path")


def run_cli(*args):
    return main(list(args))


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
        lines = trace.read_text().splitlines()
        assert lines[0] == "step,energy,sup_tension,image_diameter,e_max"
        energy = np.array([float(l.split(",")[1]) for l in lines[1:]])
        assert np.all(np.diff(energy) <= 1e-10)
        # the saved map reloads
        rc = run_cli(
            "report", "--load", str(final), "--json", str(tmp_path / "r.json")
        )
        assert rc == 0


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
