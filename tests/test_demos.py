"""Smoke tests: the narrative demos run and print their conclusions."""

import importlib.util
from pathlib import Path

DEMOS = Path(__file__).resolve().parent.parent / "demos"


def load_demo(name):
    spec = importlib.util.spec_from_file_location(name, DEMOS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_heat_flow_collapse(capsys):
    load_demo("heat_flow_collapse").main()
    out = capsys.readouterr().out
    assert "outcome: collapsed_to_constant" in out
    assert "is_constant=True" in out
