"""Heat flow: energy monotonicity, stopping conditions, diameter helper."""

import tracemalloc

import numpy as np
import pytest

from bochnerlab.domains import FlatTorus2, RoundSphere2
from bochnerlab.errors import NumericalError, StabilityError, UsageError
from bochnerlab import flow
from bochnerlab.flow import (
    DT_MAX,
    IMPLICIT_DT,
    MAX_HALVINGS,
    FlowParams,
    image_diameter,
    run_flow,
)
from bochnerlab.maps import DiscreteMap, catalog_map, total_energy
from bochnerlab.targets import Ellipsoid, Sphere


def cap(n=32, amplitude=0.3):
    dom = FlatTorus2(a=1, b=1, n1=n, n2=n)
    return catalog_map(f"cap:amplitude={amplitude}", dom, Sphere(k=2, r=1.0))


def record_solves(monkeypatch, domain_cls):
    solves = []
    original = domain_cls.resolvent

    def recorded(self, F, dt):
        solves.append(dt)
        return original(self, F, dt)

    monkeypatch.setattr(domain_cls, "resolvent", recorded)
    return solves


class TestStep:
    """One implicit step, taken through run_flow(max_steps=1)."""

    def test_energy_decreases_on_first_step(self):
        f0 = cap()
        _, summary = run_flow(f0, FlowParams(max_steps=1))
        assert summary.steps == 1 and summary.rejected == 0
        assert summary.energies[1] < summary.energies[0] == total_energy(f0)

    def test_nonpositive_dt_rejected(self):
        for dt in (0.0, -IMPLICIT_DT):
            with pytest.raises(UsageError):
                run_flow(cap(), FlowParams(dt=dt, max_steps=1))

    def test_step_stays_on_target(self):
        f, _ = run_flow(cap(), FlowParams(max_steps=1))
        assert np.max(f.target.constraint_residual(f.values)) < 1e-12


class TestRun:
    def test_cap_collapses_to_constant(self):
        f, summary = run_flow(cap(), FlowParams(max_steps=5000))
        assert summary.outcome == "collapsed_to_constant"
        assert summary.final_diameter < 1e-3
        energies = np.asarray(summary.energies)
        assert np.all(np.diff(energies) <= 1e-10)

    def test_harmonic_start_converges_immediately(self):
        dom = RoundSphere2(r=1.0, n1=32, n2=64)
        f0 = catalog_map("identity", dom, Sphere(k=2, r=1.0))
        # tension of the discrete identity is pure O(h^2) noise; with a
        # tolerance above that level the flow stops at step zero
        f, summary = run_flow(f0, FlowParams(tension_tol=1e-2, max_steps=10))
        assert summary.outcome == "converged"
        assert summary.steps == 0

    def test_max_steps_outcome(self):
        f, summary = run_flow(cap(), FlowParams(max_steps=3))
        assert summary.outcome == "max_steps"
        assert summary.steps == 3

    def test_budget_ending_on_a_collapsed_map_reports_collapse(self):
        # the criterion-5 flow collapses at step 13; a budget of exactly
        # 13 steps still tests the map the last step produced
        f, summary = run_flow(cap(n=64), FlowParams(max_steps=13))
        assert summary.steps == 13
        assert summary.outcome == "collapsed_to_constant"
        assert summary.final_diameter < 1e-3

    def test_collapse_is_tested_before_convergence(self):
        # a huge first step takes the cap to a point, whose tension is
        # zero as well: the outcome is the collapse
        f, summary = run_flow(cap(n=16), FlowParams(dt=1e20, max_steps=5))
        assert summary.steps == 1
        assert summary.final_tension < 1e-6
        assert summary.outcome == "collapsed_to_constant"

    def test_step_builds_two_projectors(self, monkeypatch):
        # two tangent projections per step: the tension of the map and
        # the energy of the candidate; plus the initial energy and the
        # final tension
        calls = []
        original = Sphere.tangent_part

        def counted(self, q, V):
            calls.append(q.shape)
            return original(self, q, V)

        monkeypatch.setattr(Sphere, "tangent_part", counted)
        n = 7
        f, summary = run_flow(cap(), FlowParams(max_steps=n))
        assert summary.steps == n and summary.outcome == "max_steps"
        assert len(calls) == 2 * n + 2

    def test_rejected_candidate_halves_dt_once(self, monkeypatch):
        # calls: the initial energy, then per step the map's energy and
        # the candidate's; the first candidate's energy reads as a rise
        solves = record_solves(monkeypatch, FlatTorus2)
        calls = []

        def rises_once(f):
            calls.append(None)
            return total_energy(f) + (1.0 if len(calls) == 3 else 0.0)

        monkeypatch.setattr(flow, "total_energy", rises_once)
        f, summary = run_flow(cap(), FlowParams(max_steps=4))
        assert summary.steps == 4
        assert summary.rejected == 1
        # the step after the halving is not grown; the next ones double
        d = IMPLICIT_DT
        assert solves == [d, d / 2, d / 2, d, 2 * d]
        assert summary.dt == IMPLICIT_DT * 2

    def test_halving_repeats_only_the_solve(self, monkeypatch):
        # per step one Laplacian L f, cached on the map, for its tension
        # and the normal part L f - tau, plus the final map's tension;
        # the rejected candidate costs a second resolvent solve and no
        # Laplacian.  A 32 x 32 grid is one band.
        laplacians = []
        original = FlatTorus2.laplace_beltrami_rows

        def counted(self, Fp, rows):
            laplacians.append(rows)
            return original(self, Fp, rows)

        energies = []

        def rises_once(f):
            energies.append(None)
            return total_energy(f) + (1.0 if len(energies) == 3 else 0.0)

        monkeypatch.setattr(FlatTorus2, "laplace_beltrami_rows", counted)
        monkeypatch.setattr(flow, "total_energy", rises_once)
        n = 3
        f, summary = run_flow(cap(), FlowParams(max_steps=n))
        assert summary.steps == n and summary.rejected == 1
        assert laplacians == [slice(0, 32)] * (n + 1)

    def test_non_finite_candidate_is_a_rejection(self, monkeypatch):
        # DiscreteMap refuses NaN values with NumericalError; the
        # controller halves dt instead of ending the flow
        solves = []
        original = FlatTorus2.resolvent

        def nan_once(self, F, dt):
            solves.append(dt)
            X = original(self, F, dt)
            return X * np.nan if len(solves) == 1 else X

        monkeypatch.setattr(FlatTorus2, "resolvent", nan_once)
        f, summary = run_flow(cap(), FlowParams(max_steps=2))
        assert summary.steps == 2 and summary.rejected == 1
        assert solves[:2] == [IMPLICIT_DT, IMPLICIT_DT / 2]

    def test_sphere_domain_cap_collapses(self):
        # a degree-0 map S^2 -> S^2 into a cap around the north pole; the
        # short pole rows would hold an explicit step below dt = 1e-6
        dom = RoundSphere2(r=1.0, n1=64, n2=128)
        TH, PH = dom.chart_grid()
        s = 0.3 * np.sin(TH)
        vals = np.stack([s * np.cos(PH), s * np.sin(PH), 1.0 + 0 * PH], axis=-1)
        f0 = DiscreteMap(dom, Sphere(k=2, r=1.0), vals)
        f, summary = run_flow(f0, FlowParams(max_steps=200))
        assert summary.outcome == "collapsed_to_constant"
        assert summary.steps <= 20
        assert np.all(np.diff(summary.energies) <= 1e-10)

    def test_ellipsoid_target_cap_collapses(self):
        dom = FlatTorus2(a=1, b=1, n1=32, n2=32)
        U, V = dom.chart_grid()
        s = 0.6 / np.sqrt(2.0)
        vals = np.stack([s * np.sin(U), s * np.sin(V), 2.0 + 0 * U], axis=-1)
        f0 = DiscreteMap(dom, Ellipsoid(a=1, b=1, c=2), vals)
        f, summary = run_flow(f0, FlowParams(max_steps=1000))
        assert summary.outcome == "collapsed_to_constant"
        assert summary.final_diameter < 1e-3
        assert np.all(np.diff(summary.energies) <= 1e-10)

    def test_trace_records_snapshots(self):
        f, summary = run_flow(
            cap(), FlowParams(max_steps=20, snapshot_stride=5)
        )
        # the growing step collapses the cap at step 13
        assert summary.outcome == "collapsed_to_constant"
        assert summary.steps == 13
        assert len(summary.trace) == 3
        steps = [row[0] for row in summary.trace]
        assert steps == [0, 5, 10]

    def test_trace_ends_with_the_final_map_of_a_spent_budget(self):
        f, summary = run_flow(cap(), FlowParams(max_steps=4, snapshot_stride=2))
        assert summary.outcome == "max_steps"
        assert [row[0] for row in summary.trace] == [0, 2, 4]
        assert summary.trace[-1][1] == summary.energies[-1]

    def test_every_candidate_rejected_raises_stability_error(self, monkeypatch):
        # DiscreteMap refuses NaN values, so every candidate is rejected
        solves = []

        def nan_always(self, F, dt):
            solves.append(dt)
            return F * np.nan

        monkeypatch.setattr(FlatTorus2, "resolvent", nan_always)
        with pytest.raises(StabilityError, match=f"{MAX_HALVINGS + 1} times"):
            run_flow(cap(), FlowParams(max_steps=5))
        assert solves == [IMPLICIT_DT / 2**k for k in range(MAX_HALVINGS + 1)]

    def test_invalid_params_rejected(self):
        for dt in (-1.0, 0.0, np.nan):
            with pytest.raises(UsageError):
                FlowParams(dt=dt)
        with pytest.raises(UsageError):
            FlowParams(tension_tol=0.0)
        with pytest.raises(UsageError):
            FlowParams(collapse_tol=np.inf)
        with pytest.raises(UsageError):
            FlowParams(max_steps=0)


class TestStepSchedule:
    def test_criterion_5_doubles_up_to_the_cap(self, monkeypatch):
        solves = record_solves(monkeypatch, FlatTorus2)
        f, summary = run_flow(cap(n=64), FlowParams(max_steps=50000))
        assert summary.outcome == "collapsed_to_constant"
        assert summary.steps <= 20 and summary.rejected == 0
        growing = [IMPLICIT_DT * 2**k for k in range(5)]  # 0.05 .. 0.8
        assert solves == growing + [DT_MAX] * (summary.steps - len(growing))
        assert summary.dt == DT_MAX
        assert np.all(np.diff(summary.energies) <= 1e-10)

    def test_large_first_step_is_not_capped(self, monkeypatch):
        solves = record_solves(monkeypatch, FlatTorus2)
        f, summary = run_flow(cap(), FlowParams(dt=5.0, max_steps=3))
        assert summary.rejected == 0
        assert solves == [5.0] * summary.steps and summary.dt == 5.0

    def test_cap_keeps_a_degree_one_map_from_collapsing(self, monkeypatch):
        # a degree-1 map S^2 -> S^2 cannot flow to a constant; with the
        # step uncapped the scheme still shrinks its image to a point
        dom = RoundSphere2(r=1.0, n1=32, n2=64)
        TH, PH = dom.chart_grid()
        v = catalog_map("identity", dom, Sphere(k=2, r=1.0)).values.copy()
        v[..., 0] += 0.3 * np.sin(TH) ** 2 * np.cos(2 * PH)
        v[..., 2] += 0.2 * np.sin(TH)
        f0 = DiscreteMap(dom, Sphere(k=2, r=1.0), v)
        f, summary = run_flow(f0, FlowParams(max_steps=20))
        assert summary.outcome == "max_steps" and summary.final_diameter > 1.9
        monkeypatch.setattr(flow, "DT_MAX", np.inf)
        f, summary = run_flow(f0, FlowParams(max_steps=20))
        assert summary.outcome == "collapsed_to_constant"


@pytest.fixture(scope="module")
def criterion_5_final():
    f, summary = run_flow(cap(n=64), FlowParams(max_steps=50000))
    assert summary.outcome == "collapsed_to_constant"
    return f.values.reshape(-1, 3)


def rng_points(seed, n, m=3):
    return np.random.default_rng(seed).standard_normal((n, m))


class TestDiameter:
    def test_exact_on_small_sets(self):
        rng = np.random.default_rng(0)
        pts = rng.standard_normal((200, 3))
        d2 = np.sum((pts[:, None] - pts[None]) ** 2, axis=-1)
        assert image_diameter(pts) == pytest.approx(np.sqrt(d2.max()))

    def test_sweep_matches_exact_on_sphere_samples(self, monkeypatch):
        # the sweep path (large inputs) agrees with the exact pairwise
        # scan on a round set
        rng = np.random.default_rng(1)
        pts = rng.standard_normal((6000, 3))
        pts /= np.linalg.norm(pts, axis=1, keepdims=True)
        swept = image_diameter(pts)  # sweep path (default limit 4096)
        monkeypatch.setattr(flow, "EXACT_DIAMETER_LIMIT", 10000)
        exact = image_diameter(pts)  # exact pairwise
        assert swept <= exact + 1e-12  # sweeps never overshoot
        assert swept == pytest.approx(exact, abs=1e-3)

    def test_exact_scan_memory_is_linear(self):
        # 4096 points in R^6: a pairwise difference array would take
        # 4096^2 * 6 * 8 B = 768 MiB; the blocked scan stays far below
        rng = np.random.default_rng(2)
        pts = rng.standard_normal((4096, 6))
        tracemalloc.start()
        try:
            diam = image_diameter(pts)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 128 * 2**20
        d2 = np.sum((pts[:512, None] - pts[None]) ** 2, axis=-1)
        assert diam >= np.sqrt(d2.max())

    @pytest.mark.parametrize("m", [2, 3, 4, 5, 6, 7, 8, 10])
    @pytest.mark.parametrize("scale", [1e-7, 1.0, 1e3])
    def test_matches_the_summed_scan(self, m, scale):
        pts = scale * np.random.default_rng(m).standard_normal((600, m))
        d2 = max(
            np.sum((pts[lo : lo + 256, None] - pts[None]) ** 2, axis=-1).max()
            for lo in range(0, 600, 256)
        )
        if m < 8:
            # numpy adds fewer than 8 terms left to right, as the scan does
            assert np.array_equal(image_diameter(pts), float(np.sqrt(d2)))
        else:
            # 8 or more terms numpy sums pairwise, so only the order differs
            assert image_diameter(pts) == pytest.approx(np.sqrt(d2), rel=1e-15)

    @pytest.mark.parametrize("m,scale", [(2, 1.0), (3, 1e-7), (3, 1.0), (3, 1e3),
                                         (6, 1.0), (8, 1e3)])
    def test_triangular_scan_equals_the_full_scan(self, m, scale):
        # each row block meets only the columns from its own start; the
        # full scan below meets every column, summing the same terms in
        # the same order, and both maxima agree bit for bit
        pts = scale * np.random.default_rng(10 + m).standard_normal((4096, m))
        d2 = 0.0
        for lo in range(0, 4096, 256):
            a = (pts[lo : lo + 256, None, 0] - pts[None, :, 0]) ** 2
            for c in range(1, m):
                a = a + (pts[lo : lo + 256, None, c] - pts[None, :, c]) ** 2
            d2 = max(d2, a.max())
        assert image_diameter(pts) == float(np.sqrt(d2))

    def test_exact_scan_holds_two_row_blocks(self):
        # two (256, 4096) float buffers are 16 MiB; a block of pairwise
        # differences in R^6 alone would be 48 MiB
        pts = np.random.default_rng(3).standard_normal((4096, 6))
        tracemalloc.start()
        try:
            image_diameter(pts)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 24 * 2**20

    def test_accepts_maps(self):
        f = cap()
        assert image_diameter(f) <= 0.6 + 1e-6

    @staticmethod
    def assert_exact(pts):
        assert image_diameter(pts).hex() == flow._scan_diameter(pts).hex()

    def test_criterion_5_final_map(self, criterion_5_final):
        self.assert_exact(criterion_5_final)

    def test_criterion_5_final_map_memory(self, criterion_5_final):
        # the unfiltered scan held two 8 MiB row blocks
        tracemalloc.start()
        try:
            image_diameter(criterion_5_final)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20

    @pytest.mark.parametrize("spread", [1e-15, 1e-13, 1e-11, 1e-9])
    def test_tight_clusters(self, spread):
        # rounding in |p - c| is comparable to the diameter here
        pts = np.array([0.0, 0.0, 1.0]) + spread * rng_points(20, 1000)
        self.assert_exact(pts)

    def test_repeated_points(self):
        base = rng_points(21, 5)
        self.assert_exact(np.repeat(base, 300, axis=0))
        self.assert_exact(np.repeat(base[:1], 300, axis=0))

    def test_one_and_two_points(self):
        pts = rng_points(22, 2)
        self.assert_exact(pts)
        self.assert_exact(pts[:1])
        assert image_diameter(pts[:1]) == 0.0

    @pytest.mark.parametrize("seed", range(8))
    @pytest.mark.parametrize("n", [5, 30, 300])
    @pytest.mark.parametrize("scale", [1.0, 1e-160])
    def test_collinear_points(self, seed, n, scale):
        # the near end of a diameter pair lies on the cut r = L - R
        # exactly, so without the slack rounding drops it about one
        # time in three; at 1e-160 the squares underflow
        rng = np.random.default_rng(seed)
        t = rng.uniform(-1, 1, n)
        pts = scale * (rng.standard_normal(3) + t[:, None] * rng.standard_normal(3))
        with np.errstate(under="ignore"):
            self.assert_exact(pts)

    def test_overflowing_squares_scan_every_point(self):
        # the squared lengths of a shell of radius 1e154 overflow to inf
        pts = rng_points(25, 300)
        pts *= 1e154 / np.linalg.norm(pts, axis=1, keepdims=True)
        with np.errstate(over="ignore"):
            self.assert_exact(pts)

    def test_large_compact_blob_is_exact(self, monkeypatch):
        # above EXACT_DIAMETER_LIMIT points, but few candidates survive
        pts = rng_points(24, 6000)
        self.assert_exact(pts)
        diam = image_diameter(pts)
        monkeypatch.setattr(flow, "EXACT_DIAMETER_LIMIT", 10000)
        assert image_diameter(pts).hex() == diam.hex()

    def test_round_shell_keeps_every_candidate(self, monkeypatch):
        # 6000 points on a sphere all survive the filter, so the sweep
        # value is returned and the scan never runs
        pts = rng_points(1, 6000)
        pts /= np.linalg.norm(pts, axis=1, keepdims=True)

        def refused(pts):
            raise AssertionError(f"scan on {len(pts)} candidates")

        monkeypatch.setattr(flow, "_scan_diameter", refused)
        assert 1.999 < image_diameter(pts) <= 2.0

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_values_raise(self, bad):
        pts = np.zeros((2, 3))
        pts[0, 0] = bad
        with pytest.raises(NumericalError):
            image_diameter(pts)

    def test_empty_set_has_diameter_zero(self):
        assert image_diameter(np.empty((0, 3))) == 0.0
