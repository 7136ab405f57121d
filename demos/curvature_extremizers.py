"""Sectional-curvature extremizers on the embedded targets.

Every target gives the Gauss equation of its embedding and, in closed
form, the least and greatest sectional curvature at each point
(`sec_range`).  Where the two agree, as on the sphere and the
ellipsoid, `sectional_curvature` returns that one value; the extremizer
takes the largest over a point set, which covers all 2-planes based
there.  A sphere of radius r has constant curvature 1/r^2; the
ellipsoid x^2 + y^2 + z^2/4 = 1 ranges from 1/4 on the equator to 4 at
the poles; S^2(1) x S^2(2) ranges over [0, 1] depending on how the
plane splits across factors: 0 on mixed planes, 1/r^2 on a plane in
one factor.  `sec_bounds` gives each target's range over all its
points in closed form, which a sample can only approach from inside.
"""

import numpy as np

from bochnerlab import (
    Ellipsoid,
    ProductSpheres,
    Sphere,
    sec_max_over_region,
    sectional_curvature,
)


def main():
    rng = np.random.default_rng(0)

    tgt = Sphere(k=2, r=2.0)
    q = tgt.closest_point(rng.standard_normal(3))  # a random point of S^2(2)
    X, Y = tgt.tangent_part(q, np.eye(3)[:2])  # P e_1, P e_2
    print(f"S^2(2): sec = {sectional_curvature(tgt, q, X, Y):.6f}"
          f"  (closed form 0.25)")

    tgt = Ellipsoid(a=1, b=1, c=2)
    for label, q in [("pole", np.array([0.0, 0.0, 2.0])),
                     ("equator", np.array([1.0, 0.0, 0.0]))]:
        val, _ = sec_max_over_region(tgt, q[None])
        print(f"ellipsoid(1,1,2) at {label}: K = {val:.6f}")
    u = rng.standard_normal((2048, 3))  # random directions, scaled onto the surface
    pts = u / np.linalg.norm(u, axis=-1, keepdims=True) * [1.0, 1.0, 2.0]
    val, point = sec_max_over_region(tgt, pts)
    print(f"ellipsoid global sample max: {val:.6f} near z = "
          f"{point[2]:+.3f}  (poles carry K = 4)")
    least, greatest = tgt.sec_bounds
    print(f"ellipsoid closed-form range over the whole target: "
          f"[{least:.6f}, {greatest:.6f}]")

    tgt = ProductSpheres(r1=1.0, r2=2.0)
    pts = tgt.closest_point(rng.standard_normal((2048, 6)))
    val, _ = sec_max_over_region(tgt, pts)
    print(f"S^2(1) x S^2(2) sample Sec_max: {val:.8f}  "
          f"(analytic max 1 on pure first-factor planes)")


if __name__ == "__main__":
    main()
