"""Refinement study of the Bochner identity.

For the harmonic catalog maps on the round sphere the discrete residual

    (1/2) Lap |df|^2 - |H|^2 - Q

should vanish in the continuum; here we watch its sup norm fall at
second order as the grid doubles.  The integral of |H|^2 + Q, which
also vanishes, is evaluated with sixth-order stencils and Fejer
weights and falls at about sixth order (ratios near 64).
"""

import numpy as np

from bochnerlab import RoundSphere2, Sphere, catalog_map, compute_bochner
from bochnerlab.bochner import integral_identity_residual

MAPS = ["identity", "holomorphic:k=2", "holomorphic:k=3"]
LEVELS = [32, 64, 128, 256]


def main():
    for name in MAPS:
        print(f"\n{name} on S^2(1) -> S^2(1)")
        print(f"{'n1':>5s} {'h':>10s} {'sup residual':>14s} {'ratio':>7s} "
              f"{'|integral|/Vol':>15s} {'ratio':>7s}")
        prev = None
        for n1 in LEVELS:
            dom = RoundSphere2(r=1.0, n1=n1, n2=2 * n1)
            f = catalog_map(name, dom, Sphere(k=2, r=1.0))
            data = compute_bochner(f, contraction=True)
            integ = abs(integral_identity_residual(f)) / dom.volume()
            h = max(dom.spacing)
            row = (data.sup_residual, integ)
            ratios = (
                ("", "") if prev is None
                else tuple(f"{p / c:.2f}" for p, c in zip(prev, row))
            )
            print(f"{n1:5d} {h:10.4e} {row[0]:14.4e} {ratios[0]:>7s} "
                  f"{row[1]:15.4e} {ratios[1]:>7s}")
            prev = row
        print("sup residual ratios near 4 = second order; "
              "integral ratios near 64 = sixth order")


if __name__ == "__main__":
    main()
