"""The Bochner identity, the lambda inequality chain, and the pointwise
pinching bound."""

import numpy as np
import pytest

from bochnerlab.bochner import (
    compute_bochner,
    integral_identity_residual,
    lambda_chain_check,
    pointwise_pinching_check,
    ricci_term_field,
    target_term_diagonal_field,
    target_term_field,
)
from bochnerlab.domains import FlatTorus2, RoundSphere2
from bochnerlab.errors import HypothesisViolationError, UsageError
from bochnerlab.flow import FlowParams, run_flow
from bochnerlab.maps import (
    catalog_map,
    constant_map,
    hessian_field,
    jacobian_field,
    pullback_field,
    spectrum,
)
from bochnerlab.numerics import gen_eigh
from bochnerlab.rigidity import build_report
from bochnerlab.targets import (
    Ellipsoid,
    Euclidean,
    FlatTorusEmb,
    ProductSpheres,
    Sphere,
)


def sphere_map(name, n1=64, r=1.0):
    dom = RoundSphere2(r=1.0, n1=n1, n2=2 * n1)
    return catalog_map(name, dom, Sphere(k=2, r=r))


class TestCurvatureTerms:
    def test_constant_map_Q_vanishes(self):
        f = constant_map(RoundSphere2(r=1.0, n1=16, n2=32), Sphere(k=2, r=1.0))
        data = compute_bochner(f)
        assert np.max(np.abs(data.Q)) == 0.0
        assert np.max(np.abs(data.residual)) < 1e-12

    def test_flat_target_reduces_to_ricci_term(self):
        dom = RoundSphere2(r=1.0, n1=32, n2=64)
        TH, PH = dom.chart_grid()
        vals = np.stack([np.sin(TH) * np.cos(PH), np.sin(TH) * np.sin(PH),
                         np.cos(TH)], axis=-1)
        from bochnerlab.maps import DiscreteMap

        for tgt in (Euclidean(m=3), FlatTorusEmb(radii=(1.0, 0.7))):
            if tgt.m == 3:
                f = DiscreteMap(dom, tgt, vals)
            else:
                continue
            J = jacobian_field(f)
            assert np.max(np.abs(target_term_field(f, J))) < 1e-12
            np.testing.assert_allclose(
                compute_bochner(f).Q, ricci_term_field(f, pullback_field(J)), atol=1e-12
            )

    def test_path_agreement_on_analytic_maps(self):
        # invariant contraction vs eigenframe sum over kept nodes
        for name in ("identity", "holomorphic:k=2"):
            data = compute_bochner(sphere_map(name))
            keep = ~data.f.domain.flagged_mask()
            assert np.max(np.abs(data.target - data.target_frame)[keep]) < 1e-8

    def test_identity_map_Q_vanishes_to_grid_accuracy(self):
        # Ric term = target term for the identity (both equal 2/r^2 - ish)
        f = sphere_map("identity")
        keep = ~f.domain.flagged_mask()
        data = compute_bochner(f)
        h = max(f.domain.spacing)
        assert np.max(np.abs(data.Q)[keep]) < 10 * h * h


class TestResidual:
    @pytest.mark.parametrize("name", ["identity", "holomorphic:k=2"])
    def test_residual_second_order(self, name):
        sups = []
        for n1 in (32, 64):
            sups.append(compute_bochner(sphere_map(name, n1=n1)).sup_residual)
        assert 3.0 < sups[0] / sups[1] < 5.0

    def test_integral_identity_refines_with_order_above_1_5(self):
        vals = []
        for n1 in (32, 64, 128):
            f = sphere_map("holomorphic:k=2", n1=n1)
            vals.append(abs(integral_identity_residual(f)))
        orders = np.log2(np.array(vals[:-1]) / np.array(vals[1:]))
        assert np.all(orders > 1.5)


class TestLambdaChain:
    def test_random_vectors(self):
        rng = np.random.default_rng(0)
        for n in (2, 3, 5):
            for _ in range(1000):
                lam = rng.uniform(0.0, 3.0, size=n)
                chain = lambda_chain_check(lam)
                assert abs(chain.lhs - chain.mid) < 1e-12
                assert chain.bound_ok
                assert not chain.equality or np.ptp(lam) <= 1e-12

    def test_equality_iff_spread_vanishes(self):
        assert lambda_chain_check([1.3, 1.3, 1.3]).equality
        chain = lambda_chain_check([1.3, 1.3 + 1e-6, 1.3])
        assert not chain.equality
        # equality saturates the bound exactly
        eq = lambda_chain_check([2.0, 2.0])
        assert eq.mid == pytest.approx(eq.bound, abs=1e-14)

    def test_bound_constant_is_n_minus_1_over_2n(self):
        for n in (2, 3, 5):
            chain = lambda_chain_check(np.ones(n))
            S = float(n)
            assert chain.bound == pytest.approx((n - 1) / (2 * n) * S * S, abs=1e-14)

    def test_negative_input_rejected(self):
        with pytest.raises(UsageError):
            lambda_chain_check([1.0, -0.5])


class TestPointwisePinching:
    def test_constant_map_slack_zero(self):
        f = constant_map(RoundSphere2(r=1.0, n1=16, n2=32), Sphere(k=2, r=1.0))
        chk = pointwise_pinching_check(f, (8, 8), ric_min=1.0, sec_max=1.0)
        assert chk.Q == 0.0 and chk.bound == 0.0 and chk.slack == 0.0

    def test_identity_slack_near_zero(self):
        # every inequality in the chain saturates for the identity
        f = sphere_map("identity")
        chk = pointwise_pinching_check(f, (32, 20), ric_min=1.0, sec_max=1.0)
        assert abs(chk.bound) < 1e-2
        assert abs(chk.slack) < 1e-2

    def test_energy_form_identical(self):
        f = sphere_map("holomorphic:k=2", n1=32)
        for node in ((8, 8), (16, 40), (25, 3)):
            chk = pointwise_pinching_check(f, node, ric_min=1.0, sec_max=1.0)
            assert chk.bound == pytest.approx(chk.bound_energy_form, abs=1e-14)

    def test_holomorphic_slack_nonnegative(self):
        f = sphere_map("holomorphic:k=2", n1=32)
        keep = ~f.domain.flagged_mask()
        idx = np.argwhere(keep)[:: 50]
        for i, j in idx:
            chk = pointwise_pinching_check(f, (int(i), int(j)), 1.0, 1.0)
            assert chk.slack >= -1e-6

    def test_negative_sec_max_flagged(self):
        f = sphere_map("identity", n1=32)
        with pytest.raises(HypothesisViolationError):
            pointwise_pinching_check(f, (8, 8), ric_min=1.0, sec_max=-0.5)
        chk = pointwise_pinching_check(
            f, (8, 8), ric_min=1.0, sec_max=-0.5, require_hypothesis=False
        )
        assert chk.slack <= 0.0  # bound exceeds Q once sec flips sign


class TestFlatDomainCatalog:
    def test_cap_hessian_positive_inside(self):
        # non-harmonic datum: |H|^2 > 0 at interior nodes
        dom = FlatTorus2(a=1, b=1, n1=32, n2=32)
        f = catalog_map("cap:amplitude=0.3", dom, Sphere(k=2, r=1.0))
        data = compute_bochner(f)
        assert np.min(data.hess) > 0.0


FIELDS = (
    "ricci", "target", "target_frame", "Q", "hess", "lap", "residual",
    "sup_residual", "sup_tension", "path_disagreement", "S", "lam", "e",
)


class TestLazyFields:
    PASS = ("jacobian_field", "pullback_field", "gen_eigh")

    def test_one_first_order_pass_for_every_field(self, count_calls):
        from bochnerlab import bochner

        counts = count_calls(bochner, self.PASS)
        data = compute_bochner(sphere_map("holomorphic:k=2", n1=32))
        assert counts == dict.fromkeys(self.PASS, 0)  # nothing up front
        for name in FIELDS:
            getattr(data, name)
        assert counts == dict.fromkeys(self.PASS, 1)

    def test_spectrum_read_skips_the_contractions(self, count_calls):
        from bochnerlab import bochner

        kernels = ("ricci_term_field", "target_term_field",
                   "target_term_diagonal_field", "sectional_batch")
        counts = count_calls(bochner, self.PASS + kernels)
        data = compute_bochner(sphere_map("holomorphic:k=2", n1=32))
        data.S, data.lam, data.e
        assert counts == {**dict.fromkeys(self.PASS, 1), **dict.fromkeys(kernels, 0)}

    def test_fields_equal_the_kernels_on_one_pass(self):
        f = sphere_map("holomorphic:k=3", n1=32)
        data = compute_bochner(f)
        J = jacobian_field(f)
        P = pullback_field(J)
        lam, vecs = gen_eigh(P, f.domain.metric_diag_grid())
        lam_desc, S, e = spectrum(lam)
        for got, want in (
            (data.ricci, ricci_term_field(f, P)),
            (data.target, target_term_field(f, J)),
            (data.target_frame, target_term_diagonal_field(f, J, lam, vecs)),
            (data.hess, hessian_field(f)),
            (data.lam, lam_desc), (data.S, S), (data.e, e),
        ):
            np.testing.assert_array_equal(got, want)

    def test_fields_do_not_depend_on_read_order(self):
        f = sphere_map("holomorphic:k=2", n1=32)
        spectrum_first, contraction_first = compute_bochner(f), compute_bochner(f)
        for name in ("S", "lam", "e", "ricci", "target", "target_frame"):
            getattr(spectrum_first, name)
        for name in ("ricci", "target", "target_frame", "S", "lam", "e"):
            getattr(contraction_first, name)
        for name in FIELDS:
            np.testing.assert_array_equal(
                getattr(spectrum_first, name), getattr(contraction_first, name)
            )

    def test_only_node_sized_arrays_are_kept(self):
        f = sphere_map("holomorphic:k=2", n1=32)
        data = compute_bochner(f)
        for name in FIELDS:
            getattr(data, name)
        cap = f.domain.n1 * f.domain.n2 * 2
        arrays = {k: v.size for k, v in vars(data).items() if isinstance(v, np.ndarray)}
        assert set(arrays) >= {"lam", "S", "Q", "residual"}
        assert max(arrays.values()) <= cap

    def test_fields_are_read_only(self):
        data = compute_bochner(sphere_map("identity", n1=16))
        with pytest.raises(ValueError):
            data.S[0, 0] = 1.0
        with pytest.raises(ValueError):
            data.residual[0, 0] = 1.0


def test_no_dense_projector_is_built(count_calls):
    # the library projects with tangent_part; tangent_projector is
    # for tests and tools
    classes = (Euclidean, Sphere, FlatTorusEmb, Ellipsoid, ProductSpheres)
    counts = [count_calls(cls, ("tangent_projector",)) for cls in classes]
    f = sphere_map("holomorphic:k=2", n1=16)
    data = compute_bochner(f)
    for name in FIELDS:
        getattr(data, name)
    build_report(sphere_map("scaling", n1=16, r=2.0))
    for tgt in (Euclidean(m=4), FlatTorusEmb(radii=(1.0, 0.7)),
                Ellipsoid(a=1.0, b=2.0, c=3.0), ProductSpheres(r1=1.0, r2=2.0)):
        build_report(constant_map(f.domain, tgt))
    integral_identity_residual(f)
    torus = FlatTorus2(a=1.0, b=1.0, n1=16, n2=16)
    run_flow(catalog_map("cap:amplitude=0.3", torus, Sphere()), FlowParams(max_steps=3))
    assert [c["tangent_projector"] for c in counts] == [0] * len(classes)
    f.target.tangent_projector(f.values)  # the counter does count
    assert counts[1]["tangent_projector"] == 1
