"""Discrete maps: catalog constructions, differential calculus against
closed-form oracles, energy quadrature, serialization."""

import numpy as np
import pytest
from chart_oracle import analytic_scaling_jacobian

from bochnerlab.domains import FlatTorus2, RoundSphere2
from bochnerlab.errors import UsageError
from bochnerlab.maps import (
    DiscreteMap,
    catalog_map,
    constant_map,
    derivative,
    energy_density_field,
    hessian_field,
    identity_sphere_map,
    jacobian_field,
    load_map,
    pullback_field,
    radial_scaling_map,
    save_map,
    spectrum,
    tension_field,
    total_energy,
)
from bochnerlab.numerics import fmt17, gen_eigh
from bochnerlab.targets import Ellipsoid, Euclidean, Sphere

SPHERE = RoundSphere2(r=1.0, n1=64, n2=128)


def keep(domain):
    return ~domain.flagged_mask()


class TestCatalog:
    def test_constant_map_has_zero_energy(self):
        f = constant_map(SPHERE, Sphere(k=2, r=1.0))
        assert total_energy(f) == 0.0
        assert np.max(np.abs(jacobian_field(f))) == 0.0

    def test_identity_needs_matching_radii(self):
        with pytest.raises(UsageError):
            identity_sphere_map(SPHERE, Sphere(k=2, r=2.0))

    def test_values_land_on_target(self):
        for name in ("identity", "holomorphic:k=2", "constant"):
            f = catalog_map(name, SPHERE, Sphere(k=2, r=1.0))
            assert f.max_constraint_residual() < 1e-12

    def test_cap_needs_torus_domain(self):
        with pytest.raises(UsageError):
            catalog_map("cap:amplitude=0.3", SPHERE, Sphere(k=2, r=1.0))

    def test_unknown_map_rejected(self):
        with pytest.raises(UsageError):
            catalog_map("moebius", SPHERE, Sphere(k=2, r=1.0))

    def test_values_are_immutable(self):
        f = catalog_map("identity", SPHERE, Sphere(k=2, r=1.0))
        with pytest.raises(ValueError):
            f.values[0, 0, 0] = 7.0

    def test_tension_and_energy_density_are_cached_read_only(self):
        f = catalog_map("holomorphic:k=2", SPHERE, Sphere(k=2, r=1.0))
        for field in (tension_field, energy_density_field):
            assert field(f) is field(f)
            with pytest.raises(ValueError):
                field(f)[0, 0] = 7.0

    def test_shape_mismatch_rejected(self):
        with pytest.raises(UsageError):
            DiscreteMap(SPHERE, Sphere(k=2, r=1.0), np.zeros((3, 3, 3)))


class TestJacobianOracle:
    def test_scaling_jacobian_matches_closed_form(self):
        r = 2.0
        f = radial_scaling_map(SPHERE, Sphere(k=2, r=r))
        J = jacobian_field(f)
        J_exact = analytic_scaling_jacobian(SPHERE, r)
        err = np.max(np.abs(J - J_exact)[keep(SPHERE)])
        h = max(SPHERE.spacing)
        assert err < 2.0 * h * h

    def test_scaling_spectrum_is_homothetic(self):
        # pullback eigenvalues are r^2/r_dom^2 at every node, exactly in
        # the continuum; discretely to O(h^2)
        f = radial_scaling_map(SPHERE, Sphere(k=2, r=0.5))
        P = pullback_field(jacobian_field(f))
        lam, S, e = spectrum(gen_eigh(P, SPHERE.metric_diag_grid())[0])
        m = keep(SPHERE)
        np.testing.assert_allclose(lam[m], 0.25, atol=1e-2)
        np.testing.assert_allclose(S[m], 2 * e[m], atol=0)


class TestTension:
    def test_sphere_target_cross_check(self):
        # for a unit-sphere target, tau = Lap f + |df|^2 f (the projector
        # identity); independent of the tangent-projection code path
        def disagreement(n1):
            dom = RoundSphere2(r=1.0, n1=n1, n2=2 * n1)
            f = catalog_map("holomorphic:k=2", dom, Sphere(k=2, r=1.0))
            tau = tension_field(f)
            lap = dom.laplace_beltrami(f.values)
            e2 = 2.0 * energy_density_field(f)
            alt = lap + e2[..., None] * f.values
            return np.max(np.linalg.norm((tau - alt), axis=-1)[keep(dom)])

        d64, d128 = disagreement(64), disagreement(128)
        assert d64 < 0.05
        assert 3.0 < d64 / d128 < 5.0

    def test_harmonic_catalog_tension_refines_at_second_order(self):
        for name in ("identity", "holomorphic:k=2"):
            sups = []
            for n1 in (32, 64):
                dom = RoundSphere2(r=1.0, n1=n1, n2=2 * n1)
                f = catalog_map(name, dom, Sphere(k=2, r=1.0))
                tau = np.linalg.norm(tension_field(f), axis=-1)
                sups.append(np.max(tau[keep(dom)]))
            assert 3.0 < sups[0] / sups[1] < 5.0

    def test_cap_map_is_not_harmonic(self):
        dom = FlatTorus2(a=1, b=1, n1=32, n2=32)
        f = catalog_map("cap:amplitude=0.3", dom, Sphere(k=2, r=1.0))
        tau = np.linalg.norm(tension_field(f), axis=-1)
        assert np.max(tau) > 0.1


def _ambient_exp(domain, a):
    """exp(a . x) on the sphere grid and its exact chart derivatives."""
    TH, PH = domain.chart_grid()
    st, ct, sp, cp = np.sin(TH), np.cos(TH), np.sin(PH), np.cos(PH)
    x = np.stack([st * cp, st * sp, ct], axis=-1)
    x_t = np.stack([ct * cp, ct * sp, -st], axis=-1)
    zero = np.zeros_like(st)
    x_p = np.stack([-st * sp, st * cp, zero], axis=-1)
    x_pp = np.stack([-st * cp, -st * sp, zero], axis=-1)
    x_tp = np.stack([-ct * sp, ct * cp, zero], axis=-1)
    F = np.exp(x @ a)
    return F, {
        (0, 1): F * (x_t @ a),
        (1, 1): F * (x_p @ a),
        (0, 2): F * ((x_t @ a) ** 2 - x @ a),
        (1, 2): F * ((x_p @ a) ** 2 + x_pp @ a),
        "mixed": F * ((x_t @ a) * (x_p @ a) + x_tp @ a),
    }


class TestStencils:
    A = np.array([0.7, -0.4, 0.9])

    @pytest.mark.parametrize("case", [(0, 1), (1, 1), (0, 2), (1, 2), "mixed"])
    def test_accuracy_6_converges_at_sixth_order_across_the_pole(self, case):
        # sup over every node, the pole rows included
        errs = []
        for n1 in (16, 32, 64):
            dom = RoundSphere2(r=1.0, n1=n1, n2=2 * n1)
            F, exact = _ambient_exp(dom, self.A)
            if case == "mixed":
                d = derivative(dom, derivative(dom, F, 1, 1, 6), 0, 1, 6)
            else:
                d = derivative(dom, F, *case, accuracy=6)
            errs.append(np.max(np.abs(d - exact[case])))
        orders = np.log2(np.array(errs[:-1]) / np.array(errs[1:]))
        assert np.all(orders >= 5.5), orders

    @pytest.mark.parametrize("dom", [SPHERE, FlatTorus2(a=1, b=2, n1=16, n2=24)])
    def test_accuracy_2_is_the_ghost_row_stencil(self, dom):
        # bit-identical to the one-ghost-layer stencils of domain.pad
        rng = np.random.default_rng(0)
        F = rng.standard_normal((dom.n1, dom.n2, 3))
        h1, h2 = dom.spacing
        Fp = dom.pad(F)
        c = Fp[1:-1, 1:-1]
        np.testing.assert_array_equal(
            derivative(dom, F, 0), (Fp[2:, 1:-1] - Fp[:-2, 1:-1]) / (2 * h1))
        np.testing.assert_array_equal(
            derivative(dom, F, 1), (Fp[1:-1, 2:] - Fp[1:-1, :-2]) / (2 * h2))
        np.testing.assert_array_equal(
            derivative(dom, F, 0, 2), (Fp[2:, 1:-1] - 2 * c + Fp[:-2, 1:-1]) / h1**2)
        np.testing.assert_array_equal(
            derivative(dom, F, 1, 2), (Fp[1:-1, 2:] - 2 * c + Fp[1:-1, :-2]) / h2**2)


class TestHessian:
    def test_identity_hessian_refines_at_second_order(self):
        # the identity is totally geodesic: |H| is pure discretization error
        sups = []
        for n1 in (32, 64):
            dom = RoundSphere2(r=1.0, n1=n1, n2=2 * n1)
            f = identity_sphere_map(dom, Sphere(k=2, r=1.0))
            h2 = hessian_field(f)
            sups.append(np.max(np.sqrt(h2)[keep(dom)]))
        assert 3.0 < sups[0] / sups[1] < 5.0

    def test_constant_map_hessian_vanishes(self):
        f = constant_map(SPHERE, Sphere(k=2, r=1.0))
        h2 = hessian_field(f)
        assert np.max(h2) == 0.0


class TestEnergy:
    def test_identity_energy_is_sphere_area(self):
        f = identity_sphere_map(SPHERE, Sphere(k=2, r=1.0))
        assert total_energy(f) == pytest.approx(4 * np.pi, rel=2e-3)

    def test_holomorphic_energy_is_4_pi_k(self):
        for k in (1, 2, 3):
            f = catalog_map(f"holomorphic:k={k}", SPHERE, Sphere(k=2, r=1.0))
            assert total_energy(f) == pytest.approx(4 * np.pi * k, rel=2e-2)


class TestSerialization:
    def test_round_trip_exact(self, tmp_path):
        dom = RoundSphere2(r=1.0, n1=16, n2=32)
        f = catalog_map("holomorphic:k=2", dom, Sphere(k=2, r=1.0))
        path = tmp_path / "map.txt"
        save_map(f, path)
        g = load_map(path)
        # exact up to the constructor's reprojection of on-target values
        np.testing.assert_allclose(f.values, g.values, atol=1e-15, rtol=0)
        assert g.domain.descriptor() == dom.descriptor()
        assert g.target.descriptor() == f.target.descriptor()

    def test_round_trip_ellipsoid(self, tmp_path):
        dom = FlatTorus2(a=1, b=1, n1=8, n2=8)
        f = constant_map(dom, Ellipsoid(a=1, b=1, c=2))
        path = tmp_path / "map.txt"
        save_map(f, path)
        g = load_map(path)
        np.testing.assert_array_equal(f.values, g.values)

    def test_save_writes_fmt17_bytes(self, tmp_path):
        # every value as fmt17 writes it, -0.0 and subnormals included
        dom = FlatTorus2(a=1, b=1, n1=8, n2=8)
        vals = np.random.default_rng(0).standard_normal((8, 8, 3))
        vals[0, 0] = [-0.0, 0.0, 5e-324]
        vals[0, 1] = [1e300, -1.7976931348623157e308, 0.1]
        f = DiscreteMap(dom, Euclidean(m=3), vals)
        path = tmp_path / "map.txt"
        save_map(f, path)
        reference = "bochnerlab-map 1\n" + "".join(
            f"{key} {text}\n"
            for key, text in [("domain", dom.descriptor()),
                              ("target", f.target.descriptor()),
                              ("grid", "8 8 3")]
        ) + "".join(" ".join(fmt17(x) for x in row) + "\n"
                    for row in f.values.reshape(-1, 3))
        assert path.read_text() == reference
        assert path.read_text().splitlines()[4].startswith("-0 0 4.9406564584124654e-324")

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "junk.txt"
        path.write_text("not a map\n")
        with pytest.raises(UsageError):
            load_map(path)
