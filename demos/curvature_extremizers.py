"""Sectional-curvature extremizers on the embedded targets.

Every target carries curvature through the Gauss equation of its
embedding; the extremizer takes the top eigenvalue of the curvature
operator on 2-vectors, which covers all 2-planes based at a point set.
Closed forms to compare against: a sphere of radius r has constant
curvature 1/r^2; the ellipsoid x^2 + y^2 + z^2/4 = 1 ranges from 1/4
on the equator to 4 at the poles; S^2(1) x S^2(2) ranges over
{0} union [1/4, 1] depending on how the plane splits across factors.
"""

import numpy as np

from bochnerlab import (
    Ellipsoid,
    ProductSpheres,
    Sphere,
    sec_max_over_region,
    sectional_curvature,
)
from bochnerlab.targets import tangent_basis


def main():
    rng = np.random.default_rng(0)

    tgt = Sphere(k=2, r=2.0)
    q = tgt.sample_points(1, rng)[0]
    B = tangent_basis(tgt, q)
    print(f"S^2(2): sec = {sectional_curvature(tgt, q, B[:, 0], B[:, 1]):.6f}"
          f"  (closed form 0.25)")

    tgt = Ellipsoid(a=1, b=1, c=2)
    for label, q in [("pole", np.array([0.0, 0.0, 2.0])),
                     ("equator", np.array([1.0, 0.0, 0.0]))]:
        val, _ = sec_max_over_region(tgt, q[None])
        print(f"ellipsoid(1,1,2) at {label}: K = {val:.6f}")
    pts = tgt.sample_points(2048, rng)
    val, sample = sec_max_over_region(tgt, pts)
    print(f"ellipsoid global sample max: {val:.6f} near z = "
          f"{sample.point[2]:+.3f}  (poles carry K = 4)")

    tgt = ProductSpheres(r1=1.0, r2=2.0)
    pts = tgt.sample_points(2048, rng)
    val, sample = sec_max_over_region(tgt, pts)
    print(f"S^2(1) x S^2(2) curvature-operator maximum: {val:.8f}  "
          f"(analytic max 1 on pure first-factor planes)")


if __name__ == "__main__":
    main()
