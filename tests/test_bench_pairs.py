"""The summary of tools/bench_pairs.py: medians, quartiles and pair wins
in each metric's direction."""

import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
METRICS = [{"name": "solve_s", "unit": "s", "better": "lower"},
           {"name": "success_rate", "unit": "ratio", "better": "higher"}]


def load_tool():
    spec = importlib.util.spec_from_file_location("bench_pairs", ROOT / "tools" / "bench_pairs.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def run(solve_s, success_rate=1.0):
    return {"solve_s": {"value": solve_s, "unit": "s"},
            "success_rate": {"value": success_rate, "unit": "ratio"}}


def test_summary_counts_wins_in_each_metrics_direction():
    tool = load_tool()
    pairs = [(run(1.0), run(0.8)), (run(1.2), run(0.9)), (run(0.9), run(1.0, 0.5)),
             (run(1.1), run(0.7))]
    solve, success = tool.summarize(pairs, METRICS)
    # revision 0.9, 1.0, 1.1, 1.2 and working 0.7, 0.8, 0.9, 1.0, quartiles
    # as statistics.quantiles(n=4) takes them
    assert solve.startswith("solve_s      revision 1.05 [0.925-1.175]  "
                            "working 0.85 [0.725-0.975] s  -19.0%")
    assert solve.endswith("working better in 3/4 pairs")
    # a tie is no win, and a higher success rate would be
    assert success.endswith("+0.0%  working better in 0/4 pairs")


def test_summary_of_one_pair_has_no_spread():
    tool = load_tool()
    (line,) = tool.summarize([(run(2.0), run(1.0))], METRICS[:1])
    assert "revision 2 [2-2]  working 1 [1-1] s  -50.0%" in line
    assert line.endswith("1/1 pairs")
