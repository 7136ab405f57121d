"""Embedded targets: projection, second fundamental form, sectional
curvature (with independent oracles), the closed-form curvature range
against the curvature operator, and the region extremizer."""

import numpy as np
import pytest
from curvature_oracle import curvature_operator, gauss_sectional_fd, tangent_basis

from bochnerlab.errors import (
    ChartDomainError,
    DegeneratePlaneError,
    NumericalError,
    UsageError,
)
from bochnerlab.targets import (
    Ellipsoid,
    Euclidean,
    FlatTorusEmb,
    ProductSpheres,
    Sphere,
    sec_max_over_region,
    sectional_batch,
    sectional_curvature,
)

ALL_TARGETS = [
    Euclidean(m=3),
    Sphere(k=2, r=1.5),
    FlatTorusEmb(radii=(1.0, 0.7)),
    Ellipsoid(a=1.0, b=1.0, c=2.0),
    ProductSpheres(r1=1.0, r2=2.0),
]


def on_target_points(target, count=16, seed=0):
    rng = np.random.default_rng(seed)
    return target.sample_points(count, rng)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize(
    "target", [t for t in ALL_TARGETS if t.kind != "euclid"], ids=lambda t: t.kind
)
def test_closest_point_refuses_a_huge_point(target):
    # the squared norm of a 1e300 point overflows; projecting it would
    # divide by inf (the origin) or run Newton on NaN
    x = on_target_points(target, 4)
    x[2] = 1e300
    with pytest.raises(NumericalError):
        target.closest_point(x)


@pytest.mark.parametrize("target", ALL_TARGETS, ids=lambda t: t.kind)
class TestEmbeddingBasics:
    def test_sample_points_satisfy_constraint(self, target):
        q = on_target_points(target)
        assert np.max(target.constraint_residual(q)) < 1e-10

    def test_closest_point_is_idempotent(self, target):
        q = on_target_points(target)
        np.testing.assert_allclose(target.closest_point(q), q, atol=1e-9)

    def test_closest_point_lands_on_target(self, target):
        rng = np.random.default_rng(1)
        x = rng.standard_normal((32, target.m)) * 1.5
        p = target.closest_point(x)
        assert np.max(target.constraint_residual(p)) < 1e-9

    def test_tangent_projector_is_projection(self, target):
        q = on_target_points(target)
        P = target.tangent_projector(q)
        np.testing.assert_allclose(P @ P, P, atol=1e-10)
        np.testing.assert_allclose(np.swapaxes(P, -1, -2), P, atol=1e-12)
        k = target.dim
        np.testing.assert_allclose(np.trace(P, axis1=-2, axis2=-1), k, atol=1e-9)

    def test_second_fundamental_is_normal_and_symmetric(self, target):
        q = on_target_points(target)
        P = target.tangent_projector(q)
        rng = np.random.default_rng(2)
        X = np.einsum("bij,bj->bi", P, rng.standard_normal(q.shape))
        Y = np.einsum("bij,bj->bi", P, rng.standard_normal(q.shape))
        A_xy = target.second_fundamental(q, X, Y)
        A_yx = target.second_fundamental(q, Y, X)
        np.testing.assert_allclose(A_xy, A_yx, atol=1e-10)
        tangential = np.einsum("bij,bj->bi", P, A_xy)
        assert np.max(np.abs(tangential)) < 1e-9


def unit_normals(target, q):
    """Orthonormal normal fields of the target at q, one (B, m) array each,
    written out per kind independently of the library."""
    zero = np.zeros_like(q)
    if target.kind == "euclid":
        return []
    if target.kind == "sphere":
        return [q / target.r]
    if target.kind == "ellipsoid":
        grad = q / np.array([target.a, target.b, target.c]) ** 2
        return [grad / np.linalg.norm(grad, axis=-1, keepdims=True)]
    if target.kind == "torusemb":
        normals = []
        for i, rho in enumerate(target.radii):
            n = zero.copy()
            n[:, 2 * i:2 * i + 2] = q[:, 2 * i:2 * i + 2] / rho
            normals.append(n)
        return normals
    n1, n2 = zero.copy(), zero.copy()
    n1[:, :3] = q[:, :3] / target.r1
    n2[:, 3:] = q[:, 3:] / target.r2
    return [n1, n2]


PROJECTION_TARGETS = ALL_TARGETS + [
    Ellipsoid(a=1.0, b=2.0, c=3.0),
    ProductSpheres(r1=1.0, r2=1.0),
]


@pytest.mark.parametrize("target", PROJECTION_TARGETS, ids=lambda t: t.descriptor())
class TestTangentPart:
    def test_matches_the_dense_projector(self, target):
        q = on_target_points(target, seed=4)
        P = np.broadcast_to(np.eye(target.m), (len(q), target.m, target.m))
        for n in unit_normals(target, q):
            P = P - n[:, :, None] * n[:, None, :]
        V = np.random.default_rng(5).standard_normal((q.shape[0], 3, target.m))
        want = np.einsum("bij,bkj->bki", P, V)
        got = target.tangent_part(q[:, None, :], V)
        np.testing.assert_allclose(got, want, atol=1e-14)
        np.testing.assert_allclose(target.tangent_projector(q), P, atol=1e-14)

    def test_is_idempotent(self, target):
        q = on_target_points(target, seed=6)
        V = np.random.default_rng(7).standard_normal(q.shape)
        PV = target.tangent_part(q, V)
        np.testing.assert_allclose(target.tangent_part(q, PV), PV, atol=1e-14)

    def test_annihilates_the_normals(self, target):
        q = on_target_points(target, seed=8)
        for n in unit_normals(target, q):
            np.testing.assert_allclose(target.tangent_part(q, n), 0.0, atol=1e-14)


class TestSectionalOracles:
    def test_sphere_matches_constant_curvature(self):
        # Gauss-equation path against the closed form 1/r^2
        tgt = Sphere(k=2, r=2.0)
        q = on_target_points(tgt, 8)
        for qi in q:
            B = tangent_basis(tgt, qi)
            sec = sectional_curvature(tgt, qi, B[:, 0], B[:, 1])
            assert sec == pytest.approx(0.25, abs=1e-8)

    def test_flat_torus_curvature_vanishes(self):
        tgt = FlatTorusEmb(radii=(1.0, 0.7))
        q = on_target_points(tgt, 8)
        for qi in q:
            B = tangent_basis(tgt, qi)
            sec = sectional_curvature(tgt, qi, B[:, 0], B[:, 1])
            assert sec == pytest.approx(0.0, abs=1e-10)

    def test_ellipsoid_gauss_curvature_closed_form(self):
        # independent oracle: K = 1/(a^2 b^2 c^2 h^4) with
        # h^2 = x^2/a^4 + y^2/b^4 + z^2/c^4 (support-function formula)
        a, b, c = 1.0, 1.0, 2.0
        tgt = Ellipsoid(a=a, b=b, c=c)
        q = on_target_points(tgt, 16, seed=5)
        h2 = q[:, 0] ** 2 / a**4 + q[:, 1] ** 2 / b**4 + q[:, 2] ** 2 / c**4
        K_oracle = 1.0 / (a**2 * b**2 * c**2 * h2**2)
        for qi, Ki in zip(q, K_oracle):
            B = tangent_basis(tgt, qi)
            sec = sectional_curvature(tgt, qi, B[:, 0], B[:, 1])
            assert sec == pytest.approx(Ki, rel=1e-9)

    def test_gauss_path_agrees_with_projector_differences(self):
        # second fundamental form recomputed from finite differences of
        # the tangent projector field, no analytic shape operator
        for tgt in (Sphere(k=2, r=1.5), Ellipsoid(a=1, b=1, c=2)):
            q = on_target_points(tgt, 6, seed=7)
            for qi in q:
                B = tangent_basis(tgt, qi)
                s1 = sectional_curvature(tgt, qi, B[:, 0], B[:, 1])
                s2 = gauss_sectional_fd(tgt, qi, B[:, 0], B[:, 1])
                assert s1 == pytest.approx(s2, abs=1e-5)

    def test_product_spheres_range(self):
        # sec on S^2(r1) x S^2(r2) lies in [0, 1/min(r1,r2)^2]; mixed
        # planes are flat, pure factor planes attain 1/r^2
        tgt = ProductSpheres(r1=1.0, r2=2.0)
        q = on_target_points(tgt, 8, seed=3)
        rng = np.random.default_rng(8)
        P = tgt.tangent_projector(q)
        for _ in range(50):
            X = np.einsum("bij,bj->bi", P, rng.standard_normal(q.shape))
            Y = np.einsum("bij,bj->bi", P, rng.standard_normal(q.shape))
            sec = sectional_batch(tgt, q, X, Y)
            assert np.all(sec >= -1e-10)
            assert np.all(sec <= 1.0 + 1e-10)
        # a pure first-factor plane attains the maximum
        q0 = np.array([1.0, 0.0, 0.0, 0.0, 0.0, 2.0])
        X = np.array([0.0, 1.0, 0.0, 0.0, 0.0, 0.0])
        Y = np.array([0.0, 0.0, 1.0, 0.0, 0.0, 0.0])
        assert sectional_curvature(tgt, q0, X, Y) == pytest.approx(1.0, abs=1e-12)
        # a mixed plane is flat
        Z = np.array([0.0, 0.0, 0.0, 0.0, 1.0, 0.0])
        assert sectional_curvature(tgt, q0, X, Z) == pytest.approx(0.0, abs=1e-12)

    def test_basis_invariance(self):
        # the sectional value only depends on the spanned plane
        tgt = Ellipsoid(a=1, b=1, c=2)
        q = on_target_points(tgt, 4, seed=11)
        rng = np.random.default_rng(12)
        for qi in q:
            B = tangent_basis(tgt, qi)
            X, Y = B[:, 0], B[:, 1]
            s0 = sectional_curvature(tgt, qi, X, Y)
            for _ in range(5):
                M = rng.standard_normal((2, 2))
                while abs(np.linalg.det(M)) < 0.1:
                    M = rng.standard_normal((2, 2))
                Xp = M[0, 0] * X + M[0, 1] * Y
                Yp = M[1, 0] * X + M[1, 1] * Y
                assert sectional_curvature(tgt, qi, Xp, Yp) == pytest.approx(
                    s0, rel=1e-9
                )

    def test_degenerate_plane_rejected(self):
        tgt = Sphere(k=2, r=1.0)
        q = np.array([0.0, 0.0, 1.0])
        X = np.array([1.0, 0.0, 0.0])
        with pytest.raises(DegeneratePlaneError):
            sectional_curvature(tgt, q, X, 2.0 * X)

    def test_off_target_point_rejected(self):
        tgt = Sphere(k=2, r=1.0)
        q = np.array([0.0, 0.0, 2.0])
        with pytest.raises(ChartDomainError):
            sectional_curvature(
                tgt, q, np.array([1.0, 0.0, 0.0]), np.array([0.0, 1.0, 0.0])
            )

    @pytest.mark.parametrize("tgt", [Sphere(), Ellipsoid()], ids=lambda t: t.kind)
    def test_nan_point_rejected(self, tgt):
        # a NaN residual compares False against the tolerance either way
        q = np.array([np.nan, 0.0, 2.0])
        with pytest.raises(ChartDomainError):
            sectional_curvature(
                tgt, q, np.array([1.0, 0.0, 0.0]), np.array([0.0, 1.0, 0.0])
            )


class TestSecMaxExtremizer:
    def test_sphere_constant(self):
        tgt = Sphere(k=2, r=2.0)
        pts = on_target_points(tgt, 32)
        val, point = sec_max_over_region(tgt, pts)
        assert val == pytest.approx(0.25, abs=1e-12)
        np.testing.assert_array_equal(point, pts[0])

    def test_ellipsoid_pole_vs_equator(self):
        tgt = Ellipsoid(a=1, b=1, c=2)
        pole = np.array([[0.0, 0.0, 2.0]])
        equator = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
        v_pole, _ = sec_max_over_region(tgt, pole)
        v_eq, _ = sec_max_over_region(tgt, equator)
        assert v_pole == pytest.approx(4.0, rel=1e-6)
        assert v_eq == pytest.approx(0.25, rel=1e-6)

    def test_monotone_under_inclusion(self):
        tgt = Ellipsoid(a=1, b=1, c=2)
        rng = np.random.default_rng(0)
        pts = tgt.sample_points(64, rng)
        small, _ = sec_max_over_region(tgt, pts[:16])
        large, _ = sec_max_over_region(tgt, pts)
        assert large >= small

    def test_deterministic(self):
        tgt = ProductSpheres(r1=1.0, r2=2.0)
        pts = on_target_points(tgt, 32, seed=9)
        v1, p1 = sec_max_over_region(tgt, pts)
        v2, p2 = sec_max_over_region(tgt, pts)
        assert v1 == v2
        np.testing.assert_array_equal(p1, p2)

    def test_empty_region_rejected(self):
        tgt = Sphere(k=2, r=1.0)
        with pytest.raises(UsageError):
            sec_max_over_region(tgt, np.empty((0, 3)))

    def test_nan_point_rejected(self):
        tgt = Ellipsoid(a=1, b=1, c=2)
        pts = on_target_points(tgt, 8)
        pts[3, 0] = np.nan
        with pytest.raises(ChartDomainError):
            sec_max_over_region(tgt, pts)


class TestCurvatureOperator:
    @pytest.mark.parametrize(
        "tgt", [Ellipsoid(a=1, b=2, c=3), ProductSpheres(r1=1.0, r2=2.0)],
        ids=lambda t: t.kind,
    )
    def test_coordinate_planes_match_sectional_curvature(self, tgt):
        q = on_target_points(tgt, 8, seed=13)
        R, T = curvature_operator(tgt, q)
        p = tgt.dim * (tgt.dim - 1) // 2
        assert R.shape == (8, p, p)
        np.testing.assert_allclose(R, np.swapaxes(R, -1, -2), atol=1e-14)
        for n, qn in enumerate(q):
            for i, (a, b) in enumerate(zip(*np.triu_indices(tgt.dim, 1))):
                sec = sectional_curvature(tgt, qn, T[n][:, a], T[n][:, b])
                assert R[n, i, i] == pytest.approx(sec, abs=1e-12)

    @pytest.mark.parametrize(
        "tgt",
        [Ellipsoid(a=1, b=2, c=3), ProductSpheres(r1=1.0, r2=2.0),
         ProductSpheres(r1=1.0, r2=1.0)],
        ids=lambda t: f"{t.kind}-{t.descriptor()}",
    )
    def test_top_eigenvalue_bounds_random_planes(self, tgt):
        q = on_target_points(tgt, 16, seed=14)
        lam = np.linalg.eigvalsh(curvature_operator(tgt, q)[0])
        P = tgt.tangent_projector(q)
        rng = np.random.default_rng(15)
        for _ in range(50):
            X = np.einsum("bij,bj->bi", P, rng.standard_normal(q.shape))
            Y = np.einsum("bij,bj->bi", P, rng.standard_normal(q.shape))
            # sectional_batch takes non-orthonormal pairs; a degenerate one
            # reads as a non-finite value.  Its Gauss numerator cancels to
            # the Gram determinant, so rounding grows as 1 / sin^2 of the
            # angle between X and Y
            sec = sectional_batch(tgt, q, X, Y)
            ok = np.isfinite(sec)
            xx, yy, xy = (np.sum(U * V, axis=-1) for U, V in ((X, X), (Y, Y), (X, Y)))
            tol = 1e-12 * (xx * yy / (xx * yy - xy**2))[ok]
            assert np.all(sec[ok] <= lam[ok, -1] + tol)
            assert np.all(sec[ok] >= lam[ok, 0] - tol)

    def test_nonnegative_on_every_target(self):
        for tgt in ALL_TARGETS:
            R = curvature_operator(tgt, on_target_points(tgt, 8, seed=17))[0]
            assert np.linalg.eigvalsh(R).min() >= -1e-10


@pytest.mark.parametrize(
    "tgt",
    ALL_TARGETS
    + [Ellipsoid(a=1, b=2, c=3), ProductSpheres(r1=1.0, r2=1.0),
       Sphere(k=3, r=0.7), FlatTorusEmb(radii=(1.3, 0.7, 2.1))],
    ids=lambda t: t.descriptor(),
)
def test_sec_range_matches_the_curvature_operator(tgt):
    q = on_target_points(tgt, 16, seed=18)
    if tgt.kind == "ellipsoid":
        axes = np.diag([tgt.a, tgt.b, tgt.c])  # its poles and equator points
        q = np.concatenate([q, axes, -axes])
    lam = np.linalg.eigvalsh(curvature_operator(tgt, q)[0])
    least, greatest = tgt.sec_range(q)
    np.testing.assert_allclose(least, lam[:, 0], rtol=0, atol=1e-12)
    np.testing.assert_allclose(greatest, lam[:, -1], rtol=0, atol=1e-12)


class TestRoundSphereFamily:
    """Sphere, FlatTorusEmb and ProductSpheres are products of round
    spheres; each must give the sphere formulas factor by factor, bit
    for bit."""

    SHAPE = (4, 5)

    def _data(self, m, seed):
        rng = np.random.default_rng(seed)
        x, X, Y = (rng.standard_normal(self.SHAPE + (m,)) for _ in range(3))
        V = rng.standard_normal(self.SHAPE + (2, m))
        return x, X, Y, V

    def test_product_equals_its_two_spheres(self):
        tgt = ProductSpheres(r1=1.3, r2=0.7)
        factors = (Sphere(2, 1.3), slice(0, 3)), (Sphere(2, 0.7), slice(3, 6))
        x, X, Y, V = self._data(6, 21)
        q = tgt.closest_point(x)

        def joined(method, *args):
            return np.concatenate(
                [getattr(s, method)(*(a[..., sl] for a in args)) for s, sl in factors],
                axis=-1,
            )

        np.testing.assert_array_equal(q, joined("closest_point", x))
        np.testing.assert_array_equal(
            tgt.tangent_part(q[..., None, :], V), joined("tangent_part", q[..., None, :], V)
        )
        np.testing.assert_array_equal(
            tgt.second_fundamental(q, X, Y), joined("second_fundamental", q, X, Y)
        )
        np.testing.assert_array_equal(
            tgt.constraint_residual(x),
            np.maximum(*(s.constraint_residual(x[..., sl]) for s, sl in factors)),
        )

    def test_torus_applies_the_sphere_formulas_per_circle(self):
        radii = (1.3, 0.7, 2.1)
        tgt = FlatTorusEmb(radii=radii)
        x, X, Y, V = self._data(6, 22)
        q = tgt.closest_point(x)
        for i, rho in enumerate(radii):
            sl = slice(2 * i, 2 * i + 2)
            xi, qi, Xi, Yi, Vi = (a[..., sl] for a in (x, q, X, Y, V))
            np.testing.assert_array_equal(
                qi, rho * xi / np.linalg.norm(xi, axis=-1, keepdims=True)
            )
            n = qi[..., None, :] / rho
            np.testing.assert_array_equal(
                tgt.tangent_part(q[..., None, :], V)[..., sl],
                Vi - n * np.sum(n * Vi, axis=-1, keepdims=True),
            )
            np.testing.assert_array_equal(
                tgt.second_fundamental(q, X, Y)[..., sl],
                -np.sum(Xi * Yi, axis=-1, keepdims=True) * qi / rho**2,
            )
        res = [np.abs(np.sum(x[..., 2 * i:2 * i + 2] ** 2, axis=-1) - rho**2)
               for i, rho in enumerate(radii)]
        np.testing.assert_array_equal(tgt.constraint_residual(x), np.max(res, axis=0))

    @pytest.mark.parametrize(
        "tgt, least, greatest, constant",
        [
            (Sphere(k=3, r=0.5), 4.0, 4.0, 4.0),
            (FlatTorusEmb(radii=(1.3, 0.7, 2.1)), 0.0, 0.0, 0.0),
            (ProductSpheres(r1=2.0, r2=0.5), 0.0, 4.0, None),
            (ProductSpheres(r1=0.5, r2=0.5), 0.0, 4.0, None),
        ],
        ids=["sphere-k3", "torus-k3", "product", "product-equal-radii"],
    )
    def test_curvature_values(self, tgt, least, greatest, constant):
        # 1/r^2 inside each factor of dimension >= 2; mixed planes are flat
        q = on_target_points(tgt, 3)
        lo, hi = tgt.sec_range(q)
        np.testing.assert_array_equal(lo, [least] * 3)
        np.testing.assert_array_equal(hi, [greatest] * 3)
        assert tgt.constant_sec == constant


class TestConstruction:
    def test_invalid_parameters(self):
        with pytest.raises(UsageError):
            Sphere(k=2, r=-1.0)
        with pytest.raises(UsageError):
            Ellipsoid(a=0.0, b=1.0, c=1.0)
        with pytest.raises(UsageError):
            FlatTorusEmb(radii=())

    def test_descriptors_round_trip(self):
        from bochnerlab.catalog import parse_target

        for tgt in ALL_TARGETS:
            again = parse_target(tgt.descriptor())
            assert again.descriptor() == tgt.descriptor()

    def test_exact_parameters_keep_their_short_text(self):
        assert [t.descriptor() for t in ALL_TARGETS] == [
            "euclid:m=3",
            "sphere:r=1.5",
            "torusemb:rho1=1,rho2=0.7",
            "ellipsoid:a=1,b=1,c=2",
            "prodspheres:r1=1,r2=2",
        ]

    @pytest.mark.parametrize(
        "tgt",
        [
            Sphere(k=3, r=1.23456789),
            Sphere(k=2, r=1 / 3),
            FlatTorusEmb(radii=(0.1 + 0.2, 1.23456789)),
            Ellipsoid(a=1 / 3, b=0.1 + 0.2, c=1.23456789),
            ProductSpheres(r1=1 / 3, r2=0.1 + 0.2),
        ],
        ids=lambda t: t.kind,
    )
    def test_descriptor_names_the_target_exactly(self, tgt):
        # %g keeps 6 significant digits, and the sphere's k must be named
        from bochnerlab.catalog import parse_target

        assert parse_target(tgt.descriptor()) == tgt
