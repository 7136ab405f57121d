"""The summary of tools/bench_pairs.py: medians, quartiles and pair wins
in each metric's direction, and the verdict on each metric."""

import importlib.util
import json
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


SOLVE = {"name": "solve_s", "unit": "s", "better": "lower", "bound": 0.25}
SUCCESS = {"name": "success_rate", "unit": "ratio", "better": "higher", "bound": 0.01}


def pairs_of(old, new, success=(1.0, 1.0)):
    return [(run(a, success[0]), run(b, success[1])) for a, b in zip(old, new)]


def test_a_gain_needs_nine_wins_in_ten_and_a_gap_beyond_the_spread():
    tool = load_tool()
    old = [1.00, 1.02, 0.98, 1.01, 0.99, 1.03, 0.97, 1.00, 1.01, 0.99]
    faster = [v - 0.1 for v in old]
    assert tool.verdict(pairs_of(old, faster), SOLVE).startswith(
        "  verdict: gain, working better in 10/10 pairs")
    # one lost pair in ten still counts; two do not
    one_lost = faster[:9] + [1.5]
    assert tool.verdict(pairs_of(old, one_lost), SOLVE).startswith("  verdict: gain")
    two_lost = faster[:8] + [1.5, 1.5]
    assert tool.verdict(pairs_of(old, two_lost), SOLVE) == "  verdict: within bound"
    # every pair won, but by less than the revision's quartile spread
    close = [v - 0.001 for v in old]
    assert tool.verdict(pairs_of(old, close), SOLVE) == "  verdict: within bound"


def test_a_regression_is_a_median_worse_by_more_than_the_bound():
    tool = load_tool()
    old = [1.0, 1.1, 0.9, 1.0]
    assert tool.verdict(pairs_of(old, [1.2, 1.3, 1.1, 1.2]), SOLVE) == "  verdict: within bound"
    slower = tool.verdict(pairs_of(old, [1.3, 1.4, 1.2, 1.3]), SOLVE)
    assert slower.startswith("  verdict: regression, working median worse by 0.3")
    # a higher-is-better metric regresses downwards
    assert tool.verdict(pairs_of(old, old, (1.0, 0.98)), SUCCESS).startswith(
        "  verdict: regression")
    assert tool.verdict(pairs_of(old, old), SUCCESS) == "  verdict: within bound"


def test_main_prints_a_verdict_after_each_metric(monkeypatch, capsys):
    tool = load_tool()
    metrics = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
    values = {"old": iter([1.0, 1.1]), "new": iter([0.5, 0.6])}

    def fake_run(tree, args):
        v = next(values[tree])
        return {m["name"]: {"value": v, "unit": m["unit"]} for m in metrics}

    monkeypatch.setattr(tool, "_trees", lambda rev, tmp: ("old", "new"))
    monkeypatch.setattr(tool, "_run", fake_run)
    assert tool.main(["HEAD", "flow_cap_t2", "2"]) == 0
    lines = capsys.readouterr().out.splitlines()[1:]
    assert [line.split()[0] for line in lines[::2]] == [m["name"] for m in metrics]
    verdicts = [line.split(",")[0] for line in lines[1::2]]
    assert verdicts == ["  verdict: " + ("regression" if m["better"] == "higher" else "gain")
                        for m in metrics]
