"""The byte-identity gate tools/same_bytes.py on a two-config subset of
its list, the working tree against itself."""

import importlib.util
import json
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SUBSET = ("report-constant-sphere", "scan-scaling")


def load_tool():
    spec = importlib.util.spec_from_file_location("same_bytes", ROOT / "tools" / "same_bytes.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_same_tree_agrees_and_an_edit_is_reported(tmp_path):
    tool = load_tool()
    configs = [c for c in tool.CONFIGS if c[0] in SUBSET]
    assert [c[0] for c in configs] == list(SUBSET)
    runs = []
    for side in ("old", "new"):
        run_dir = tmp_path / side
        run_dir.mkdir()
        tool.run_configs(str(ROOT / "src"), str(run_dir), configs)
        runs.append(run_dir)
    old, new = runs
    assert (new / "scan-scaling.code").read_text() == "0\n"
    assert tool.compare(str(old), str(new)) == []

    # one JSON value and one CSV cell moved by a relative 1e-3
    path = new / "scan.json"
    doc = json.loads(path.read_text())
    doc["reports"][1]["margin"] *= 1.001
    path.write_text(json.dumps(doc))
    lines = (new / "scan.csv").read_text().splitlines()
    header = lines[0].split(",")
    cells = lines[2].split(",")
    col = header.index("S0")
    cells[col] = repr(float(cells[col]) * 1.001)
    lines[2] = ",".join(cells)
    (new / "scan.csv").write_text("\n".join(lines) + "\n")

    report = tool.compare(str(old), str(new))
    assert report[0] == "scan.csv: bytes differ"
    assert report[1].startswith("  S0: 1 cells, max rel change 0.001")
    assert report[2] == "scan.json: bytes differ"
    assert report[3].startswith("  reports[1].margin: max rel change 0.001")
    assert len(report) == 4
