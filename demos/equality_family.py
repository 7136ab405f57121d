"""The equality case: homothetic maps sit exactly on the threshold.

The radial scaling S^2(1) -> S^2(r) multiplies the metric by r^2, so
Ric_min = 1, Sec_max = 1/r^2 and sup|df|^2 = 2r^2 put the margin at

    1 - (1/2) (1/r^2) (2 r^2) = 0

for every r.  The reports classify the whole family as 'equality' and
the diagnostics verify the two saturation phenomena: constant spectrum
(homothety) and vanishing second fundamental form (totally geodesic
image, here all of S^2(r)).
"""

from bochnerlab import RoundSphere2, Sphere, catalog_map
from bochnerlab.rigidity import build_report


def main():
    dom = RoundSphere2(r=1.0, n1=96, n2=192)
    print(f"{'r':>5s} {'margin':>11s} {'tol(h)':>10s} {'class':>9s} "
          f"{'factor':>8s} {'spread':>10s} {'hess sup':>10s} {'diag':>5s}")
    for r in (0.5, 0.75, 1.0, 1.5, 2.0):
        f = catalog_map("scaling", dom, Sphere(k=2, r=r))
        rep = build_report(f)
        diag = rep.equality
        print(f"{r:5.2f} {rep.margin:11.3e} {rep.tol:10.3e} "
              f"{rep.classification:>9s} {rep.homothety_factor:8.4f} "
              f"{rep.lambda_spread:10.2e} {rep.hess_sup:10.2e} "
              f"{'ok' if diag.ok else 'FAIL':>5s}")
    print("homothety factor tracks r^2; spread and |H| sit at grid level")


if __name__ == "__main__":
    main()
