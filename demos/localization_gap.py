"""Localization: only curvature on the image matters.

The pinching hypothesis compares Ric_min of the domain with the
maximal sectional curvature over planes based at image points -- not
over the whole target.  A map whose image stays in the flat equatorial
belt of the elongated ellipsoid x^2 + y^2 + z^2/4 = 1 therefore faces
the threshold constant 1/4, even though the poles of the same target
carry curvature 4, the target's closed-form `sec_bounds` maximum.
"""

import numpy as np

from bochnerlab import DiscreteMap, Ellipsoid, FlatTorus2
from bochnerlab.rigidity import build_report


def band_map(n=64, amplitude=0.2):
    dom = FlatTorus2(a=1, b=1, n1=n, n2=n)
    U, V = dom.chart_grid()
    vals = np.stack([np.cos(U), np.sin(U), amplitude * np.sin(V)], axis=-1)
    return DiscreteMap(dom, Ellipsoid(a=1, b=1, c=2), vals)


def main():
    rep = build_report(band_map(), seed=0, global_sample=4096)
    print("equatorial band map T^2 -> ellipsoid(1,1,2)")
    print(f"sec_max over the image:          {rep.sec_max_image:.4f}")
    print(f"sec_max over the whole target:   {rep.sec_max_global_sample:.4f}")
    print(f"localization gap:                "
          f"{rep.sec_max_global_sample - rep.sec_max_image:.4f}")
    print(f"\npinching threshold with the image extremizer: "
          f"{rep.threshold_S0:.4f}")
    print(f"the same threshold with the global Sec_max would be "
          f"{(rep.n - 1) / rep.n * rep.sec_max_global_sample * rep.S0:.4f}")
    print(f"classification of the band map: {rep.classification} "
          f"(harmonic={rep.harmonic})")


if __name__ == "__main__":
    main()
