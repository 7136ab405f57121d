"""One benchmark child: import the CLI, run a plan of CLI calls, report.

Usage: python3 perfbench/child.py PLAN.json RESULT.json

PLAN holds {"calls": [argv, ...], "trace": bool}.  The child records
CLOCK_MONOTONIC when ``import bochnerlab.cli`` has finished (the parent
recorded it just before starting this interpreter), times the calls,
and writes exit codes, timings, its own peak RSS and library versions
to RESULT.  With "trace" the calls run under the span tracer.
"""

import contextlib
import io
import json
import resource
import sys
import time

import bochnerlab.cli as cli

IMPORTED = time.clock_gettime(time.CLOCK_MONOTONIC)


def _call(argv):
    """Exit code of one CLI call; an escaped exception is reported as None."""
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            return cli.main(argv)
    except SystemExit as exc:  # argparse rejects a malformed argv
        if exc.code is None:
            return 0
        return exc.code if isinstance(exc.code, int) else 1
    except Exception as exc:  # noqa: BLE001  a crash is a failed operation
        sys.stderr.write(f"perfbench: {argv[0]} raised {exc!r}\n")
        return None


def _versions():
    import numpy
    import scipy

    try:
        cfg = numpy.show_config(mode="dicts")
        blas = cfg["Build Dependencies"]["blas"].get("version")
    except (TypeError, KeyError, AttributeError):
        blas = None
    return {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "openblas": blas,
    }


def main(plan_path, result_path):
    with open(plan_path) as fh:
        plan = json.load(fh)
    tracer = None
    if plan["trace"]:
        from spans import Tracer  # this file's directory leads sys.path

        tracer = Tracer().install()
    t_first = time.perf_counter()
    codes = [_call(argv) for argv in plan["calls"]]
    solve_s = time.perf_counter() - t_first
    if tracer is not None:
        tracer.uninstall()
    result = {
        "imported": IMPORTED,
        "codes": codes,
        "solve_s": solve_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "versions": _versions(),
    }
    if tracer is not None:
        result["layers"] = tracer.metrics()
        result["missing_spans"] = tracer.missing
    with open(result_path, "w") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main(sys.argv[1], sys.argv[2])
