"""Discrete maps: catalog constructions, differential calculus against
closed-form oracles, energy quadrature, serialization."""

import numpy as np
import pytest
from chart_oracle import analytic_scaling_jacobian

from bochnerlab.domains import FlatTorus2, RoundSphere2
from bochnerlab.errors import UsageError
from bochnerlab.maps import (
    DiscreteMap,
    _STENCILS,
    _stencil,
    catalog_map,
    constant_map,
    identity_sphere_map,
    jacobian_field,
    laplace_beltrami,
    load_map,
    pullback_field,
    radial_scaling_map,
    save_map,
    spectrum,
    total_energy,
)
from bochnerlab.numerics import fmt17, gen_eigvalsh
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
            assert np.max(f.target.constraint_residual(f.values)) < 1e-12

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

    def test_tension_is_derived_from_the_cached_laplacian(self, monkeypatch):
        calls = []
        kernel = RoundSphere2.laplace_beltrami_rows

        def counted(self, Fp, rows):
            calls.append(rows)
            return kernel(self, Fp, rows)

        monkeypatch.setattr(RoundSphere2, "laplace_beltrami_rows", counted)
        f = catalog_map("holomorphic:k=2", SPHERE, Sphere(k=2, r=1.0))
        tau = f.tension
        assert calls == [slice(0, SPHERE.n1)]  # 64 x 128 is one band
        # a second read takes the tangent part again, and no Laplacian
        np.testing.assert_array_equal(f.tension, tau)
        assert len(calls) == 1
        np.testing.assert_array_equal(tau, f.target.tangent_part(f.values, f.laplacian))
        for name in ("laplacian", "energy_density"):
            assert getattr(f, name) is getattr(f, name)
            with pytest.raises(ValueError):
                getattr(f, name)[0, 0] = 7.0

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
        lam = spectrum(gen_eigvalsh(P, SPHERE.metric_diag_grid()))[0]
        m = keep(SPHERE)
        np.testing.assert_allclose(lam[m], 0.25, atol=1e-2)


class TestTension:
    def test_sphere_target_cross_check(self):
        # for a unit-sphere target, tau = Lap f + |df|^2 f (the projector
        # identity); independent of the tangent-projection code path
        def disagreement(n1):
            dom = RoundSphere2(r=1.0, n1=n1, n2=2 * n1)
            f = catalog_map("holomorphic:k=2", dom, Sphere(k=2, r=1.0))
            tau = f.tension
            lap = laplace_beltrami(dom, f.values)
            e2 = 2.0 * f.energy_density
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
                tau = np.linalg.norm(f.tension, axis=-1)
                sups.append(np.max(tau[keep(dom)]))
            assert 3.0 < sups[0] / sups[1] < 5.0

    def test_cap_map_is_not_harmonic(self):
        dom = FlatTorus2(a=1, b=1, n1=32, n2=32)
        f = catalog_map("cap:amplitude=0.3", dom, Sphere(k=2, r=1.0))
        tau = np.linalg.norm(f.tension, axis=-1)
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


def derivative(domain, F, axis, order=1, accuracy=2):
    return _stencil(domain, domain.extend(F, axis, accuracy // 2), axis, order, accuracy)


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
        # bit-identical to the stencils on one ghost layer either side
        rng = np.random.default_rng(0)
        F = rng.standard_normal((dom.n1, dom.n2, 3))
        h1, h2 = dom.spacing
        Fp = dom.extend(dom.extend(F, 0, 1), 1, 1)
        c = Fp[1:-1, 1:-1]
        np.testing.assert_array_equal(
            derivative(dom, F, 0), (Fp[2:, 1:-1] - Fp[:-2, 1:-1]) / (2 * h1))
        np.testing.assert_array_equal(
            derivative(dom, F, 1), (Fp[1:-1, 2:] - Fp[1:-1, :-2]) / (2 * h2))
        np.testing.assert_array_equal(
            derivative(dom, F, 0, 2), (Fp[2:, 1:-1] - 2 * c + Fp[:-2, 1:-1]) / h1**2)
        np.testing.assert_array_equal(
            derivative(dom, F, 1, 2), (Fp[1:-1, 2:] - 2 * c + Fp[1:-1, :-2]) / h2**2)


    @pytest.mark.parametrize("axis", [0, 1])
    @pytest.mark.parametrize("key", sorted(_STENCILS))
    def test_stencil_is_the_weighted_sum_of_its_slices(self, key, axis):
        # bit for bit the sum of c * F_k in table order, divided once,
        # however the +-1 weights are applied; signed zeros included
        order, accuracy = key
        weights, den = _STENCILS[key]
        p = accuracy // 2
        rng = np.random.default_rng(accuracy + order)
        Fp = rng.standard_normal((10 + 2 * p, 12 + 2 * p, 3))
        Fp[:, :, 0] = 0.0
        Fp[::2, ::3, 0] = -0.0
        Fp[4, 5, 1] = np.inf
        Fp.flags.writeable = False  # the stencil must not write its input
        n = Fp.shape[axis] - 2 * p
        want = None
        for k, c in zip(range(2 * p, -1, -1), weights):
            if c:
                term = c * (Fp[k:k + n] if axis == 0 else Fp[:, k:k + n])
                want = term if want is None else want + term
        want = want / (den * SPHERE.spacing[axis] ** order)
        got = _stencil(SPHERE, Fp, axis, order, accuracy)
        np.testing.assert_array_equal(got.view(np.int64), want.view(np.int64))


class TestHessian:
    def test_identity_hessian_refines_at_second_order(self):
        # the identity is totally geodesic: |H| is pure discretization error
        sups = []
        for n1 in (32, 64):
            dom = RoundSphere2(r=1.0, n1=n1, n2=2 * n1)
            f = identity_sphere_map(dom, Sphere(k=2, r=1.0))
            _, h2 = jacobian_field(f, hessian=True)
            sups.append(np.max(np.sqrt(h2)[keep(dom)]))
        assert 3.0 < sups[0] / sups[1] < 5.0

    def test_constant_map_hessian_vanishes(self):
        f = constant_map(SPHERE, Sphere(k=2, r=1.0))
        _, h2 = jacobian_field(f, hessian=True)
        assert np.max(h2) == 0.0

    @pytest.mark.parametrize("accuracy", [2, 6])
    def test_hessian_leaves_the_jacobian_as_it_is(self, accuracy):
        f = catalog_map("holomorphic:k=3", SPHERE, Sphere(k=2, r=1.0))
        J, _ = jacobian_field(f, accuracy=accuracy, hessian=True)
        np.testing.assert_array_equal(J, jacobian_field(f, accuracy=accuracy))


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
