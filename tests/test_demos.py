"""Smoke tests: the narrative demos run and print their conclusions."""

import importlib.util
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
DEMOS = ROOT / "demos"


def load_demo(name):
    spec = importlib.util.spec_from_file_location(name, DEMOS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def run_demo(name):
    """A demo's stdout when run as a script, the way a reader runs it."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    out = subprocess.run(
        [sys.executable, str(DEMOS / f"{name}.py")],
        capture_output=True, text=True, check=True, env=env, timeout=120,
    )
    return out.stdout


def test_heat_flow_collapse(capsys):
    load_demo("heat_flow_collapse").main()
    out = capsys.readouterr().out
    assert "outcome: collapsed_to_constant after 31 steps" in out
    assert "is_constant=True" in out
    assert "energy monotone nonincreasing: True" in out
    # one trace row every 3 steps: 0, 3, ..., 30
    rows = out.split("diameter\n")[1].split("outcome:")[0].splitlines()
    assert [int(r.split()[0]) for r in rows] == list(range(0, 31, 3))


def test_curvature_extremizers():
    out = run_demo("curvature_extremizers")
    assert "S^2(2): sec = 0.250000" in out
    assert "ellipsoid(1,1,2) at pole: K = 4.000000" in out
    assert "ellipsoid(1,1,2) at equator: K = 0.250000" in out
    assert "S^2(1) x S^2(2) sample Sec_max: 1.00000000" in out


def test_equality_family():
    out = run_demo("equality_family")
    rows = out.splitlines()[1:-1]
    assert [r.split()[0] for r in rows] == ["0.50", "0.75", "1.00", "1.50", "2.00"]
    for row in rows:
        assert row.split()[3] == "equality" and row.split()[-1] == "ok"


def test_localization_gap():
    out = run_demo("localization_gap")
    assert "sec_max over the image:          0.2538" in out
    assert "localization gap:                3.7462" in out
    assert "classification of the band map: violated (harmonic=True)" in out
