"""Strict-regime collapse under the heat flow.

A flat torus has Ric = 0, so any map into a nonnegatively curved
target satisfies the pinching hypothesis only with margin <= 0; a
harmonic limit must be constant.  Flowing the small-cap initial datum
T^2 -> S^2 exhibits exactly that: the energy decays monotonically and
the image shrinks to a point.
"""

import numpy as np

from bochnerlab import FlatTorus2, FlowParams, Sphere, catalog_map, run_flow
from bochnerlab.rigidity import build_report


def main():
    dom = FlatTorus2(a=1, b=1, n1=48, n2=48)
    f0 = catalog_map("cap:amplitude=0.3", dom, Sphere(k=2, r=1.0))
    # flow past the default collapse tolerance so the limit is constant
    # to within the report's diameter tolerance
    params = FlowParams(
        max_steps=30000, snapshot_stride=3, collapse_tol=5e-9, tension_tol=1e-10
    )
    f, summary = run_flow(f0, params)

    print("heat flow of cap(0.3): T^2 -> S^2(1)")
    print(f"{'step':>6s} {'energy':>12s} {'sup|tau|':>10s} {'diameter':>10s}")
    for step, energy, tau, diam, _ in summary.trace:
        print(f"{step:6d} {energy:12.4e} {tau:10.2e} {diam:10.2e}")
    print(f"outcome: {summary.outcome} after {summary.steps} steps "
          f"(last dt = {summary.dt:.2e})")
    print(f"final diameter {summary.final_diameter:.2e}, "
          f"final sup|tau| {summary.final_tension:.2e}")

    energies = np.asarray(summary.energies)
    print(f"energy monotone nonincreasing: "
          f"{bool(np.all(np.diff(energies) <= 1e-10))}")

    rep = build_report(f)
    print(f"flow limit classified: is_constant={rep.is_constant}, "
          f"prediction = {rep.prediction!r}")


if __name__ == "__main__":
    main()
