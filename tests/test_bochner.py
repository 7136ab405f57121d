"""The Bochner identity, the lambda inequality chain, and the slack of
the pointwise pinching bound."""

import numpy as np
import pytest

from bochnerlab.bochner import (
    compute_bochner,
    enclosure_gap,
    integral_identity_residual,
    lambda_chain_check,
    pinching_slack,
    ricci_term_field,
    target_term_field,
)
from bochnerlab.domains import FlatTorus2, RoundSphere2
from bochnerlab.errors import UsageError
from bochnerlab.flow import FlowParams, run_flow
from bochnerlab.maps import (
    DiscreteMap,
    catalog_map,
    constant_map,
    jacobian_field,
    laplace_beltrami,
    pullback_field,
    spectrum,
    total_energy,
)
from bochnerlab.numerics import gen_eigvalsh
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
        data = compute_bochner(f, contraction=True)
        assert np.max(np.abs(data.Q())) == 0.0
        assert np.max(np.abs(data.residual())) < 1e-12

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
            ginv = dom.inv_metric_diag_grid()
            assert np.max(np.abs(target_term_field(tgt, f.values, J, ginv))) < 1e-12
            np.testing.assert_allclose(
                compute_bochner(f, contraction=True).Q(),
                ricci_term_field(pullback_field(J), ginv, dom.ricci_grid()),
                atol=1e-12,
            )

    def test_path_agreement_on_analytic_maps(self):
        # invariant contraction vs its curvature enclosure over kept nodes
        for name in ("identity", "holomorphic:k=2"):
            assert compute_bochner(sphere_map(name), contraction=True).path_disagreement < 1e-8

    @pytest.mark.skipif(np.finfo(np.longdouble).eps >= np.finfo(float).eps,
                        reason="long double is no wider than double here")
    def test_target_term_rounding_against_long_double(self):
        # the same discrete term, sum_ij g^ii g^jj (<A_ii, A_jj> - |A_ij|^2)
        # with the sphere's A(X, Y) = -<X, Y> q, from the same float64 J, q
        # and g^-1, in long double
        f = sphere_map("holomorphic:k=3", n1=128)
        J = jacobian_field(f)
        ginv = f.domain.inv_metric_diag_grid()
        got = target_term_field(f.target, f.values, J, ginv)
        q, J, ginv = (np.asarray(a, dtype=np.longdouble) for a in (f.values, J, ginv))
        cols = (J[..., 0], J[..., 1])

        def A(i, j):
            return -np.sum(cols[i] * cols[j], axis=-1)[..., None] * q

        want = sum(ginv[..., i] * ginv[..., j]
                   * (np.sum(A(i, i) * A(j, j), axis=-1) - np.sum(A(i, j) ** 2, axis=-1))
                   for i in range(2) for j in range(2))
        assert np.max(np.abs(got - want)) <= 8e-16 * np.max(np.abs(want))

    def test_identity_map_Q_vanishes_to_grid_accuracy(self):
        # Ric term = target term for the identity (both equal 2/r^2 - ish)
        f = sphere_map("identity")
        keep = ~f.domain.flagged_mask()
        data = compute_bochner(f, contraction=True)
        h = max(f.domain.spacing)
        assert np.max(np.abs(data.Q())[keep]) < 10 * h * h


def product_map(second, n1=32):
    """S^2 -> S^2(1) x S^2(2), x -> (x, second(x)), at n1 x 2 n1."""
    dom = RoundSphere2(r=1.0, n1=n1, n2=2 * n1)
    TH, PH = dom.chart_grid()
    x = np.stack([np.sin(TH) * np.cos(PH), np.sin(TH) * np.sin(PH), np.cos(TH)], axis=-1)
    return DiscreteMap(dom, ProductSpheres(r1=1.0, r2=2.0),
                       np.concatenate([x, np.broadcast_to(second(x), x.shape)], axis=-1))


class TestPathCheck:
    """The target term is 2 Sec(image plane) lam_1 lam_2, so the path check
    holds it against sec_range(q) times 2 lam_1 lam_2."""

    SECOND = {
        "factor": lambda x: np.array([0.0, 0.0, 2.0]),  # planes in the first factor
        "diagonal": lambda x: 2.0 * x,  # planes mixing the factors, Sec = 1/5
        "reversed": lambda x: 2.0 * x * [1.0, 1.0, -1.0],  # orientation reversed
    }

    @pytest.mark.parametrize("name", SECOND)
    def test_product_maps_lie_in_the_enclosure(self, name):
        data = compute_bochner(product_map(self.SECOND[name]), contraction=True)
        assert np.max(np.abs(data.target)) > 1.0
        assert data.path_disagreement <= 1e-13

    def test_a_wrong_curvature_range_is_caught(self, monkeypatch):
        from bochnerlab.cli import PATH_AGREEMENT_TOL

        # halve the first factor's curvature: its planes have Sec = 1,
        # above the greatest value the target would then claim
        halved = property(lambda self: {0.5, 0.25, 0.0})
        monkeypatch.setattr(ProductSpheres, "_sec_values", halved)
        data = compute_bochner(product_map(self.SECOND["factor"]), contraction=True)
        assert data.path_disagreement > PATH_AGREEMENT_TOL


class TestResidual:
    @pytest.mark.parametrize("name", ["identity", "holomorphic:k=2"])
    def test_residual_second_order(self, name):
        sups = []
        for n1 in (32, 64):
            sups.append(compute_bochner(sphere_map(name, n1=n1), contraction=True).sup_residual)
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
        data = compute_bochner(f, contraction=True)
        slack = pinching_slack(data, ric_min=1.0, sec_max=1.0)
        assert data.Q()[8, 8] == slack[8, 8] == 0.0

    def test_identity_slack_near_zero(self):
        # every inequality in the chain saturates for the identity
        data = compute_bochner(sphere_map("identity"), contraction=True)
        slack = pinching_slack(data, ric_min=1.0, sec_max=1.0)
        assert abs(data.Q()[32, 20] - slack[32, 20]) < 1e-2  # the bound
        assert abs(slack[32, 20]) < 1e-2

    def test_holomorphic_slack_nonnegative(self):
        f = sphere_map("holomorphic:k=2", n1=32)
        keep = ~f.domain.flagged_mask()
        slack = pinching_slack(compute_bochner(f, contraction=True), 1.0, 1.0)
        assert np.all(slack[keep].ravel()[:: 50] >= -1e-6)

    def test_negative_sec_max_flagged(self):
        data = compute_bochner(sphere_map("identity", n1=32), contraction=True)
        slack = pinching_slack(data, ric_min=1.0, sec_max=-0.5)
        assert slack[8, 8] <= 0.0  # bound exceeds Q once sec flips sign


class TestFlatDomainCatalog:
    def test_cap_hessian_positive_inside(self):
        # non-harmonic datum: |H|^2 > 0 at interior nodes
        dom = FlatTorus2(a=1, b=1, n1=32, n2=32)
        f = catalog_map("cap:amplitude=0.3", dom, Sphere(k=2, r=1.0))
        data = compute_bochner(f, contraction=False)
        assert np.min(data.hess) > 0.0


# every field of a contraction pass; a first-order pass fills the first
# eight and leaves the rest None
FIELDS = ("lam", "S", "hess", "sup_tension",
          "sec_least", "sec_max", "sec_max_witness", "constraint_residual",
          "ricci", "target", "lap", "path_disagreement", "sup_residual", "energy")
FIRST_ORDER = FIELDS[:8]
KEPT = {False: {"lam", "S", "hess"}, True: {"lam", "S", "hess", "ricci", "target", "lap"}}
CONTRACTIONS = ("ricci_term_field", "target_term_field", "enclosure_gap")


class TestPasses:
    # both passes take the eigenvalues alone
    PASS = ("jacobian_field", "pullback_field", "gen_eigvalsh")

    @pytest.mark.parametrize("contraction", [False, True])
    def test_one_pass_fills_every_field(self, contraction, count_calls):
        from bochnerlab import bochner

        counts = count_calls(bochner, self.PASS + CONTRACTIONS)
        # 32 x 64 nodes are one band
        data = compute_bochner(sphere_map("holomorphic:k=2", n1=32), contraction=contraction)
        assert counts == {**dict.fromkeys(self.PASS, 1),
                          **dict.fromkeys(CONTRACTIONS, int(contraction))}
        for name in FIELDS:
            filled = contraction or name in FIRST_ORDER
            assert (getattr(data, name) is not None) == filled, name

    def test_fields_equal_the_kernels(self):
        f = sphere_map("holomorphic:k=3", n1=32)
        data = compute_bochner(f, contraction=True)
        dom, tgt, q = f.domain, f.target, f.values
        keep = ~dom.flagged_mask()
        J, hess = jacobian_field(f, hessian=True)
        P = pullback_field(J)
        lam = gen_eigvalsh(P, dom.metric_diag_grid())
        lam_desc, S = spectrum(lam)
        ginv = dom.inv_metric_diag_grid()
        target = target_term_field(tgt, q, J, ginv)
        for got, want in (
            (data.ricci, ricci_term_field(P, ginv, dom.ricci_grid())),
            (data.target, target), (data.hess, hess),
            (data.lam, lam_desc), (data.S, S), (data.lap, 0.5 * laplace_beltrami(dom, S)),
            (data.Q(), data.ricci - data.target),
            (data.residual(), data.lap - data.hess - data.Q()),
        ):
            np.testing.assert_array_equal(got, want)
        # the reductions the pass takes band by band, and its energy
        gap = enclosure_gap(target, tgt.sec_range(q), lam)
        assert data.path_disagreement == np.max(gap[keep])
        # on the unit sphere the enclosure is the one value 2 lam_1 lam_2
        frame = 2.0 * lam[..., 0] * lam[..., 1]
        assert data.path_disagreement == np.max(np.abs(target - frame)[keep])
        assert data.sup_residual == np.max(np.abs(data.residual())[keep])
        assert data.sup_tension == np.max(np.linalg.norm(f.tension, axis=-1)[keep])
        assert data.energy == total_energy(f)

    @pytest.mark.parametrize("contraction", [False, True])
    def test_image_reading_spans_the_bands(self, contraction, count_calls):
        # 128 x 256 nodes into ellipsoid(1, 1, 2) are four bands, and the
        # curvature maximum sits at both poles: the pass reads the target
        # once per band and takes the first node in C order that reaches it
        dom = RoundSphere2(r=1.0, n1=128, n2=256)
        TH, PH = dom.chart_grid()
        u = np.stack([np.sin(TH) * np.cos(PH), np.sin(TH) * np.sin(PH), np.cos(TH)], axis=-1)
        tgt = Ellipsoid(a=1, b=1, c=2)
        f = DiscreteMap(dom, tgt, u * [1.2, 0.9, 2.1])
        counts = count_calls(Ellipsoid, ("sec_range", "constraint_residual"))
        data = compute_bochner(f, contraction=contraction)
        assert counts == {"sec_range": 4, "constraint_residual": 4}
        least, greatest = tgt.sec_range(f.values)
        first = np.argmax(greatest)
        assert data.sec_max == greatest.ravel()[first] == np.max(greatest[-1])  # both poles
        assert data.sec_least == np.min(least) > 0
        assert data.sec_max_witness == tuple(f.values.reshape(-1, 3)[first])
        assert data.constraint_residual == np.max(tgt.constraint_residual(f.values))

    def test_first_order_pass_agrees_with_the_contraction_pass(self):
        f = sphere_map("holomorphic:k=2", n1=32)
        first, full = (compute_bochner(f, contraction=c) for c in (False, True))
        for name in FIRST_ORDER:
            np.testing.assert_array_equal(getattr(first, name), getattr(full, name))

    def test_node_slices_read_the_grids(self):
        # the node CSV reads Q and the residual a block of nodes at a time
        data = compute_bochner(sphere_map("holomorphic:k=2", n1=16), contraction=True)
        nodes = slice(100, 300)
        for field in (data.Q, data.residual):
            np.testing.assert_array_equal(field(nodes), field().reshape(-1)[nodes])

    @pytest.mark.parametrize("contraction", [False, True])
    def test_only_the_needed_grids_are_kept(self, contraction):
        f = sphere_map("holomorphic:k=2", n1=32)
        data = compute_bochner(f, contraction=contraction)
        arrays = {k for k, v in vars(data).items() if isinstance(v, np.ndarray)}
        assert arrays == KEPT[contraction]
        # the pass fills none of the map's caches either
        assert not {"laplacian", "energy_density"} & set(vars(f))

    def test_fields_are_read_only(self):
        data = compute_bochner(sphere_map("identity", n1=16), contraction=True)
        for name in KEPT[True]:
            with pytest.raises(ValueError):
                getattr(data, name)[0, 0] = 1.0


def test_no_dense_projector_is_built(count_calls):
    # the library projects with tangent_part; tangent_projector is
    # for tests and tools
    classes = (Euclidean, Sphere, FlatTorusEmb, Ellipsoid, ProductSpheres)
    counts = [count_calls(cls, ("tangent_projector",)) for cls in classes]
    f = sphere_map("holomorphic:k=2", n1=16)
    compute_bochner(f, contraction=True)
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
