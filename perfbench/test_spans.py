"""Self-test of the span tracer: exact call counts on known workloads.

    python3 -m pytest perfbench/test_spans.py

The counts are properties of the program at the commit that defined the
benchmark; a change that alters how often a layer is called is expected
to fail here and to say so.
"""

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

import bochnerlab  # noqa: E402
from bochnerlab import cli, rigidity  # noqa: E402
from spans import Tracer, metric_units  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def _run(name, work, seed=0):
    wl = WORKLOADS[name]
    if wl.prepare:
        wl.prepare(str(work), seed)
    calls = wl.calls(str(work), seed)
    with Tracer() as tracer:
        codes = [cli.main(argv) for argv in calls]
    assert wl.check(str(work), codes) == [True] * len(calls)
    assert tracer.missing == []
    return tracer.metrics()


def test_flow_counts(tmp_path):
    argv = WORKLOADS["flow_cap_t2"].calls(str(tmp_path), 0)[0]
    argv[argv.index("--steps") + 1] = "200"
    with Tracer() as tracer:
        assert cli.main(argv) == 1  # step budget reached before collapse
    m = tracer.metrics()
    assert m["flow.flow_step.calls"] == 200
    assert m["flow.steps"] == 200
    assert m["flow.halvings"] == 0
    # five projectors per explicit step, three before and one after
    assert m["targets.tangent_projector.calls"] == 5 * 200 + 4
    assert m["bochner.compute_bochner.calls"] == 0


def test_sphere_pipeline_counts(tmp_path):
    m = _run("sphere_pipeline", tmp_path)
    assert m["bochner.compute_bochner.calls"] == 15
    assert m["io_utils.write_csv.rows"] == 256 * 512
    assert m["flow.run_flow.calls"] == 0


def test_product_report_counts(tmp_path):
    m = _run("product_report", tmp_path)
    assert m["bochner.compute_bochner.calls"] == 2
    assert m["targets.sec_max_over_region.calls"] == 3
    assert m["targets.sec_max_over_region.points"] == 2048 + 2048 + 4096


def test_uninstall_restores_bindings():
    with Tracer():
        assert hasattr(rigidity.compute_bochner, "__wrapped__")
        assert hasattr(cli._COMMANDS["report"], "__wrapped__")
    for fn in (rigidity.compute_bochner, bochnerlab.compute_bochner,
               cli._COMMANDS["report"], bochnerlab.Sphere.tangent_projector):
        assert not hasattr(fn, "__wrapped__")


def test_benchmark_lists_every_layer_metric():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        listed = {m["name"]: m["unit"] for m in json.load(fh)["per_layer"]}
    assert listed == {**metric_units(), "trace.overhead_s": "s"}
    assert list(listed) == list(metric_units()) + ["trace.overhead_s"]
