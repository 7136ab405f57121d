"""Domain manifolds: metric data, curvature, and the discrete Laplacian."""

import numpy as np
import pytest
from chart_oracle import christoffel_at, christoffel_fd_at, metric_at, ricci_at, ricci_fd_at

from bochnerlab.catalog import parse_domain
from bochnerlab.domains import MAX_NODES, FlatTorus2, RoundSphere2, ricci_min
from bochnerlab.errors import UsageError
from bochnerlab.maps import laplace_beltrami
from bochnerlab.numerics import fejer1_weights, gen_eigvalsh


def interior_points(domain, count, seed=0):
    rng = np.random.default_rng(seed)
    th, ph = domain.chart_grid()
    idx = rng.integers(2, domain.n1 - 2, count), rng.integers(0, domain.n2, count)
    return np.stack([th[idx], ph[idx]], axis=-1)


class TestFlatTorus:
    def test_metric_is_constant_diagonal(self):
        dom = FlatTorus2(a=2.0, b=0.5, n1=16, n2=16)
        np.testing.assert_allclose(metric_at(dom, (0.3, 0.4)), np.diag([4.0, 0.25]))
        assert np.all(christoffel_at(dom, (0.3, 0.4)) == 0.0)
        assert np.all(ricci_at(dom, (0.3, 0.4)) == 0.0)

    def test_volume(self):
        dom = FlatTorus2(a=2.0, b=0.5, n1=32, n2=32)
        assert dom.volume() == pytest.approx(4 * np.pi**2 * 2.0 * 0.5, rel=1e-12)

    def test_ricci_min_zero(self):
        val, _ = ricci_min(FlatTorus2(a=1, b=1, n1=16, n2=16))
        assert val == pytest.approx(0.0, abs=1e-14)

    def test_laplacian_of_fourier_mode(self):
        # sin(2u)cos(3v) is an exact eigenfunction with eigenvalue -(4/a^2+9/b^2)
        def max_err(n):
            dom = FlatTorus2(a=1.0, b=2.0, n1=n, n2=n)
            U, V = dom.chart_grid()
            F = np.sin(2 * U) * np.cos(3 * V)
            lam = -(4.0 / 1.0**2 + 9.0 / 2.0**2)
            return np.max(np.abs(laplace_beltrami(dom, F) - lam * F))

        e64, e128 = max_err(64), max_err(128)
        assert e64 < 0.05
        assert e64 / e128 == pytest.approx(4.0, rel=0.05)

    @pytest.mark.parametrize("dt", [1e-3, 0.05, 1.0, 10.0])
    def test_resolvent_inverts_one_minus_dt_laplacian(self, dt):
        dom = FlatTorus2(a=1.0, b=2.0, n1=32, n2=48)
        F = np.random.default_rng(5).standard_normal((dom.n1, dom.n2, 3))
        X = dom.resolvent(F, dt)
        residual = X - dt * laplace_beltrami(dom, X) - F
        assert np.max(np.abs(residual)) <= 1e-12 * np.max(np.abs(F))


class TestRoundSphere:
    def test_metric_closed_form(self):
        dom = RoundSphere2(r=2.0, n1=16, n2=32)
        th = 1.1
        g = metric_at(dom, (th, 0.5))
        np.testing.assert_allclose(g, np.diag([4.0, 4.0 * np.sin(th) ** 2]))

    def test_christoffel_against_metric_differences(self):
        dom = RoundSphere2(r=1.5, n1=32, n2=64)
        for p in interior_points(dom, 8):
            G = christoffel_at(dom, p)
            G_fd = christoffel_fd_at(dom, p, h=1e-5)
            np.testing.assert_allclose(G, G_fd, atol=1e-7)

    def test_ricci_against_christoffel_differences(self):
        dom = RoundSphere2(r=1.5, n1=32, n2=64)
        for p in interior_points(dom, 8):
            np.testing.assert_allclose(
                ricci_at(dom, p), ricci_fd_at(dom, p, h=1e-4), atol=1e-5
            )

    def test_ricci_is_metric_over_r2(self):
        dom = RoundSphere2(r=2.0, n1=16, n2=32)
        p = (1.0, 0.3)
        np.testing.assert_allclose(ricci_at(dom, p), metric_at(dom, p) / 4.0)

    def test_ricci_min_is_inverse_radius_squared(self):
        for r in (0.5, 1.0, 3.0):
            val, _ = ricci_min(RoundSphere2(r=r, n1=16, n2=32))
            assert val == pytest.approx(1.0 / r**2, rel=1e-10)

    def test_volume_converges_to_sphere_area(self):
        dom = RoundSphere2(r=1.0, n1=64, n2=128)
        assert dom.volume() == pytest.approx(4 * np.pi, rel=1e-3)

    def test_grid_avoids_poles(self):
        dom = RoundSphere2(r=1.0, n1=16, n2=32)
        th = dom.chart_grid()[0]
        assert th.min() > 0 and th.max() < np.pi

    def test_discrete_divergence_theorem(self):
        # the flux-form Laplacian sums to zero against the quadrature weights
        dom = RoundSphere2(r=1.0, n1=32, n2=64)
        rng = np.random.default_rng(3)
        F = rng.standard_normal((dom.n1, dom.n2))
        total = np.sum(laplace_beltrami(dom, F) * dom.quad_weight_grid())
        assert abs(total) < 1e-8 * np.max(np.abs(F))

    def test_divergence_theorem_on_torus(self):
        dom = FlatTorus2(a=1.0, b=2.0, n1=16, n2=24)
        rng = np.random.default_rng(4)
        F = rng.standard_normal((dom.n1, dom.n2))
        total = np.sum(laplace_beltrami(dom, F) * dom.quad_weight_grid())
        assert abs(total) < 1e-10

    def test_laplacian_of_spherical_harmonic(self):
        # cos(theta) is an l=1 eigenfunction: Lap = -2/r^2 cos(theta)
        dom = RoundSphere2(r=1.0, n1=64, n2=128)
        TH, _ = dom.chart_grid()
        F = np.cos(TH)
        err = np.max(np.abs(laplace_beltrami(dom, F) + 2 * F))
        assert err < 2e-3

    @pytest.mark.parametrize("n1", [64, 128])
    @pytest.mark.parametrize("dt", [1e-3, 0.05, 1.0, 10.0])
    def test_resolvent_inverts_one_minus_dt_laplacian(self, n1, dt):
        dom = RoundSphere2(r=1.5, n1=n1, n2=2 * n1)
        F = np.random.default_rng(6).standard_normal((dom.n1, dom.n2, 3))
        X = dom.resolvent(F, dt)
        residual = X - dt * laplace_beltrami(dom, X) - F
        # the resolvent drops the south-pole ghost coupling, whose
        # coefficient dt sin(pi) / (r^2 sin(theta) h^2) on the last row
        # is zero only in exact arithmetic; it multiplies a difference
        # of two values of X, each at most max|F| (maximum principle)
        h1 = dom.spacing[0]
        coupling = dt * abs(np.sin(np.pi)) / (dom.r**2 * np.sin(h1 / 2) * h1**2)
        assert np.max(np.abs(residual)) <= (1e-12 + 2 * coupling) * np.max(np.abs(F))

    def test_one_ghost_layer_antipodal_wrap(self):
        # a rotationally symmetric smooth field stays smooth across the pole
        dom = RoundSphere2(r=1.0, n1=32, n2=64)
        TH, PH = dom.chart_grid()
        F = np.sin(TH) * np.cos(PH)
        Fp = dom.extend(dom.extend(F, 0, 1), 1, 1)
        # ghost row above the north pole equals the antipodally rolled row
        np.testing.assert_allclose(Fp[0, 1:-1], np.roll(F[0], dom.n2 // 2))

    def test_extend_continues_across_the_pole_in_reverse_order(self):
        # three ghost rows per pole: F(-theta_k, phi) = F(theta_k, phi + pi)
        dom = RoundSphere2(r=1.0, n1=16, n2=32)
        F = np.arange(16 * 32, dtype=float).reshape(16, 32)
        E = dom.extend(F, 0, 3)
        half = dom.n2 // 2
        for k in range(3):
            np.testing.assert_array_equal(E[2 - k], np.roll(F[k], half))
            np.testing.assert_array_equal(E[-3 + k], np.roll(F[-1 - k], half))
        np.testing.assert_array_equal(E[3:-3], F)

    def test_fejer_weights_are_the_sphere_area(self):
        dom = RoundSphere2(r=2.0, n1=16, n2=32)
        W = dom.high_order_weight_grid()  # a row profile: one weight per row
        assert W.shape == (dom.n1, 1)
        assert dom.n2 * W.sum() == pytest.approx(4 * np.pi * 4.0, rel=1e-14)

    def test_flagged_mask_covers_pole_collar(self):
        dom = RoundSphere2(r=1.0, n1=64, n2=128)
        TH, _ = dom.chart_grid()
        mask = dom.flagged_mask()  # one flag per row
        assert mask.shape == (dom.n1,)
        assert mask[0] and mask[-1]
        assert not mask[dom.n1 // 2]
        assert np.all(TH[mask][:, 0] != TH[dom.n1 // 2, 0])

    def test_invalid_construction(self):
        with pytest.raises(UsageError):
            RoundSphere2(r=-1.0, n1=16, n2=32)
        with pytest.raises(UsageError):
            FlatTorus2(a=1.0, b=1.0, n1=2, n2=16)

    @pytest.mark.parametrize("descriptor", ["torus:a=1e-300,b=1", "torus:a=1e-160,b=1",
                                            "torus:a=1,b=1e200", "sphere:r=1e160",
                                            "sphere:r=1e-160"])
    def test_metric_beyond_normal_floats_is_refused(self, descriptor):
        # the calculus divides by g_ii and h_i^2 g_ii
        with pytest.raises(UsageError, match="not a finite normal float"):
            parse_domain(descriptor, 8)

    def test_tiny_metric_of_normal_floats_is_accepted(self):
        assert FlatTorus2(a=1e-150, n1=8).metric_diag_grid()[0, 0, 0] == 1e-300


@pytest.mark.parametrize(
    "dom",
    [RoundSphere2(r=1.5, n1=8, n2=16), FlatTorus2(a=2.0, b=0.5, n1=8, n2=8)],
    ids=["sphere", "torus"],
)
def test_grid_forms_match_point_forms(dom):
    # the charts are warped products diag(E(u), G(u)): metric and Ricci
    # are diagonal, and of the eight Christoffel symbols only Gamma^u_vv
    # and Gamma^v_uv = Gamma^v_vu can be nonzero; all depend on u alone,
    # so the grid forms are row profiles and node (i, j) reads row i
    G_grid, ric_grid = dom.christoffel_grid(), dom.ricci_grid()
    g_grid, ginv_grid = dom.metric_diag_grid(), dom.inv_metric_diag_grid()
    for grid in (G_grid, ric_grid, g_grid, ginv_grid):
        assert grid.shape == (dom.n1, 1, 2)
    stored = np.zeros((2, 2, 2), dtype=bool)
    stored[0, 1, 1] = stored[1, 0, 1] = stored[1, 1, 0] = True
    U, V = dom.chart_grid()
    for idx in np.ndindex(U.shape):
        p, row = (U[idx], V[idx]), idx[0]
        G = christoffel_at(dom, p)
        assert G[0, 1, 1] == G_grid[row, 0, 0]
        assert G[1, 0, 1] == G[1, 1, 0] == G_grid[row, 0, 1]
        assert np.all(G[~stored] == 0.0)
        assert np.array_equal(ricci_at(dom, p), np.diag(ric_grid[row, 0]))
        assert np.array_equal(metric_at(dom, p), np.diag(g_grid[row, 0]))


@pytest.mark.parametrize(
    "text, per_n1", [("torus:a=1,b=1", 1), ("sphere:r=1", 2)], ids=["torus", "sphere"]
)
def test_n2_follows_the_domains_rule(text, per_n1):
    # parse_domain, with_resolution and the constructor share one rule
    dom = parse_domain(text, 12)
    assert (dom.n1, dom.n2) == (12, per_n1 * 12)
    assert dom.with_resolution(24).n2 == per_n1 * 24
    assert dom.with_resolution(24, 30).n2 == 30
    assert type(dom)(n1=16).n2 == per_n1 * 16


def test_grid_beyond_max_nodes_is_refused():
    # a 4096 x 4096 torus is the largest square grid; nothing is allocated
    side = 4096
    assert side * side == MAX_NODES
    dom = FlatTorus2(n1=side)
    for build in (lambda: FlatTorus2(n1=side + 1), lambda: RoundSphere2(n1=side),
                  lambda: FlatTorus2(n1=4, n2=MAX_NODES // 4 + 1),
                  lambda: dom.with_resolution(2 * side),
                  lambda: parse_domain("sphere:r=1", 100_000)):
        with pytest.raises(UsageError, match="MAX_NODES"):
            build()


@pytest.mark.parametrize(
    "dom",
    [FlatTorus2(a=1 / 3, b=0.1 + 0.2, n1=12), RoundSphere2(r=1.23456789, n1=12)],
    ids=lambda d: d.kind,
)
def test_descriptor_names_the_domain_exactly(dom):
    # %g keeps 6 significant digits; none of these parameters survives it
    assert parse_domain(dom.descriptor(), dom.n1) == dom


class TestFejerWeights:
    @pytest.mark.parametrize("n", [4, 5, 16, 33, 128])
    def test_weights_sum_to_two(self, n):
        assert fejer1_weights(n).sum() == pytest.approx(2.0, abs=1e-14)

    @pytest.mark.parametrize("n", [4, 5, 16, 33])
    def test_polynomials_in_cos_theta_are_exact(self, n):
        # the n-point rule is exact for degree below n on [-1, 1]
        w = fejer1_weights(n)
        x = np.cos((np.arange(n) + 0.5) * np.pi / n)
        for d in range(n):
            exact = 2.0 / (d + 1) if d % 2 == 0 else 0.0
            assert np.sum(w * x**d) == pytest.approx(exact, abs=1e-14)


RICCI_DOMAINS = [
    RoundSphere2(r=r, n1=n, n2=2 * n)
    for r in (1.0, 0.5, 2.0, 3.7, 0.123)
    for n in (8, 33, 128)
] + [FlatTorus2(a=a, b=b, n1=n, n2=n) for a, b in ((1, 1), (2, 0.3)) for n in (8, 33)]


def _ricci_id(domain):
    return f"{domain.descriptor()}-{domain.n1}"


class TestRicciMin:
    @pytest.mark.parametrize("domain", RICCI_DOMAINS, ids=_ricci_id)
    def test_matches_the_eigensolve_bit_for_bit(self, domain):
        nodes = (domain.n1, domain.n2, 2)
        gd = np.broadcast_to(domain.metric_diag_grid(), nodes).reshape(-1, 2)
        ric_d = np.broadcast_to(domain.ricci_grid(), nodes).reshape(-1, 2)
        ric = np.zeros(gd.shape + (2,))
        ric[:, (0, 1), (0, 1)] = ric_d
        lam = gen_eigvalsh(ric, gd)[..., 0]
        k = int(np.argmin(lam))
        U, V = domain.chart_grid()
        value, witness = ricci_min(domain)
        assert value == lam[k]
        assert witness.tolist() == [U.ravel()[k], V.ravel()[k]]

    def test_needs_no_eigensolve(self, monkeypatch):
        from bochnerlab import domains, numerics

        def refused(*args):
            raise AssertionError("gen_eigvalsh called")

        monkeypatch.setattr(numerics, "gen_eigvalsh", refused)
        monkeypatch.setattr(domains, "gen_eigvalsh", refused, raising=False)
        assert ricci_min(RoundSphere2(r=2.0, n1=16, n2=32))[0] > 0.0
