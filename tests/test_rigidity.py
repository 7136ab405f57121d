"""Pinching reports, equality diagnostics, localization, consistency scan."""

import tracemalloc
from dataclasses import fields, replace

import numpy as np
import pytest

from bochnerlab.domains import MAX_NODES, FlatTorus2, RoundSphere2
from bochnerlab.maps import DiscreteMap, catalog_map
from bochnerlab.rigidity import PinchingReport, build_report, theorem_consistency_scan
from bochnerlab.targets import Ellipsoid, Euclidean, Sphere


def sphere_map(name, n1=48, r=1.0):
    dom = RoundSphere2(r=1.0, n1=n1, n2=2 * n1)
    return catalog_map(name, dom, Sphere(k=2, r=r))


def band_map(n=48, amplitude=0.2):
    """Torus into the equatorial band of Ellipsoid(1, 1, 2)."""
    dom = FlatTorus2(a=1, b=1, n1=n, n2=n)
    U, V = dom.chart_grid()
    vals = np.stack(
        [np.cos(U), np.sin(U), amplitude * np.sin(V)], axis=-1
    )
    return DiscreteMap(dom, Ellipsoid(a=1, b=1, c=2), vals)


class TestReport:
    def test_field_invariants(self):
        rep = build_report(sphere_map("holomorphic:k=2"))
        assert rep.S0 == 2.0 * rep.e_max  # exact by construction
        n = rep.n
        assert rep.threshold_S0 == (n - 1) / n * rep.sec_max_image * rep.S0
        assert rep.threshold_e == (n - 1) / n * rep.sec_max_image * rep.e_max
        assert rep.margin == rep.ric_min - rep.threshold_S0

    def test_classification_bands(self):
        rep = build_report(sphere_map("constant"))
        assert rep.classification == "strict" and rep.prediction == "constant"
        assert rep.is_constant

        rep = build_report(sphere_map("identity"))
        assert rep.classification == "equality"
        assert abs(rep.margin) <= rep.tol
        assert not rep.is_constant
        assert "homothetic" in rep.prediction

        rep = build_report(sphere_map("holomorphic:k=2"))
        assert rep.classification == "violated"
        assert rep.margin < -rep.tol
        assert rep.prediction == "no conclusion (hypothesis fails)"

    def test_scaling_family_margin_independent_of_radius(self):
        margins = [
            build_report(sphere_map("scaling", r=r)).margin for r in (0.5, 1.0, 2.0)
        ]
        # sec_max ~ 1/r^2 exactly cancels S0 ~ r^2: all margins agree
        assert np.ptp(margins) < 1e-10

    def test_homothety_factor(self):
        rep = build_report(sphere_map("scaling", r=2.0, n1=64))
        assert rep.homothety_factor == pytest.approx(4.0, rel=1e-2)

    def test_harmonicity_flag(self):
        assert build_report(sphere_map("identity")).harmonic
        dom = FlatTorus2(a=1, b=1, n1=128, n2=128)
        f = catalog_map("cap:amplitude=0.3", dom, Sphere(k=2, r=1.0))
        assert not build_report(f).harmonic

    def test_deterministic(self):
        f = band_map()
        r1 = build_report(f, seed=3)
        r2 = build_report(f, seed=3)
        assert r1 == r2

    def test_report_round_trips_to_dict(self):
        d = build_report(sphere_map("identity")).to_dict()
        assert d["classification"] == "equality"
        assert isinstance(d["resolution"], list)


class TestPassCounts:
    def test_report_reads_the_spectrum_only(self, count_calls):
        from bochnerlab import bochner

        kernels = ("ricci_term_field", "target_term_field", "enclosure_gap")
        one_pass = ("jacobian_field", "pullback_field", "gen_eigvalsh")
        counts = count_calls(bochner, kernels + one_pass)
        rep = build_report(sphere_map("holomorphic:k=2"))
        assert not rep.is_constant
        assert counts == {**dict.fromkeys(kernels, 0), **dict.fromkeys(one_pass, 1)}

    def test_equality_diagnostics_reuse_the_reports_pass(self, count_calls):
        from bochnerlab import bochner

        # the Bochner pass is the package's one caller of gen_eigvalsh;
        # at 48 x 96 it takes one band
        counts = count_calls(bochner, ("gen_eigvalsh",))
        rep = build_report(sphere_map("scaling", r=2.0))
        assert rep.equality.ok
        assert counts == {"gen_eigvalsh": 1}

    def test_report_equality_diagnostics_are_not_output(self):
        rep = build_report(sphere_map("identity"))
        assert rep.classification == "equality" and rep.equality is not None
        assert "equality" not in rep.to_dict()
        assert "EqualityDiagnostics" not in repr(rep)
        assert not hasattr(rep, "bochner")  # the report holds no grid


class TestEqualityDiagnostics:
    def test_scaling_family_passes(self):
        for r in (0.5, 2.0):
            f = sphere_map("scaling", r=r)
            rep = build_report(f)
            assert rep.classification == "equality"
            diag = rep.equality
            assert diag.ok
            assert rep.homothety_factor == pytest.approx(r * r, rel=2e-2)
            assert rep.lambda_spread < diag.tol * max(1.0, r * r)

    def test_no_diagnostics_off_the_threshold(self):
        # a violated map and a constant map at the threshold carry none
        assert build_report(sphere_map("holomorphic:k=2")).equality is None
        dom = FlatTorus2(a=1, b=1, n1=16, n2=16)
        rep = build_report(catalog_map("constant", dom, Euclidean(m=3)))
        assert rep.classification == "equality" and rep.is_constant
        assert rep.equality is None

    def test_euclidean_equality_case_fits_affine_subspace(self):
        # a totally geodesic linear embedding of the flat torus chart
        # direction into flat space: margin 0 (flat domain, flat target)
        dom = FlatTorus2(a=1, b=1, n1=32, n2=32)
        U, V = dom.chart_grid()
        vals = np.stack([np.cos(U), np.sin(U), np.cos(V), np.sin(V)], axis=-1)
        f = DiscreteMap(dom, Euclidean(m=4), vals)
        rep = build_report(f)
        assert rep.classification == "equality"
        diag = rep.equality
        assert diag.affine_fit_residual is not None
        # the Clifford-style image spans the full 4-space evenly
        assert diag.energy_density_variation < diag.tol


class TestLocalization:
    def test_band_into_ellipsoid(self):
        rep = build_report(band_map(), seed=0, global_sample=1024)
        assert rep.sec_max_image < 0.3
        assert rep.sec_max_global_sample > 3.5
        assert rep.sec_max_global_sample - rep.sec_max_image > 3.0

    def test_global_sample_in_report(self):
        rep = build_report(band_map(), global_sample=512)
        assert rep.sec_max_global_sample is not None
        assert rep.sec_max_global_sample >= rep.sec_max_image - 1e-9

    def test_global_sample_beyond_max_nodes_reads_the_closed_form(self):
        # nothing is drawn: a (count, 3) sample of this size would take 400 MB
        f = band_map(n=8)
        tracemalloc.start()
        try:
            rep = build_report(f, global_sample=MAX_NODES + 1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert rep.sec_max_global_sample == f.target.sec_bounds[1] == 4.0
        assert peak < 0.01 * (MAX_NODES + 1) * 3 * 8


class TestConsistencyScan:
    def test_counterexample_rule(self):
        rep = build_report(sphere_map("scaling", r=2.0))
        assert rep.harmonic and rep.equality.ok and rep.counterexample is None
        above = replace(rep, margin=1.0, classification="strict")
        assert above.counterexample == "harmonic nonconstant map above the pinching threshold"
        failed = replace(rep, equality=replace(rep.equality, ok=False))
        assert failed.counterexample.startswith("threshold diagnostics failed")
        for exempt in (replace(above, harmonic=False), replace(failed, is_constant=True)):
            assert exempt.counterexample is None

    def test_both_scans_read_the_reports_rule(self, monkeypatch, tmp_path):
        from bochnerlab import cli

        monkeypatch.setattr(PinchingReport, "counterexample", property(lambda rep: "planted"))
        result = theorem_consistency_scan([("identity", sphere_map("identity", n1=16))])
        assert not result.ok and result.rows[0].detail == "planted"
        argv = ["scan", "--map", "scaling", "--param", "r=1:1:1", "--resolution", "16",
                "--json", str(tmp_path / "scan.json")]
        assert cli.main(argv) == 1

    def test_row_reads_its_report(self):
        result = theorem_consistency_scan([("identity", sphere_map("identity", n1=16))])
        row = result.rows[0]
        assert [f.name for f in fields(row)] == ["name", "report", "status", "detail"]
        d = row.to_dict()
        assert list(d) == ["name", "classification", "margin", "tol", "sup_tension",
                           "harmonic", "is_constant", "status", "detail"]
        assert d["margin"] == row.report.margin and d["status"] == row.status == "pass"

    def test_catalog_passes(self):
        entries = [
            ("constant", sphere_map("constant")),
            ("identity", sphere_map("identity")),
            ("scaling_0.5", sphere_map("scaling", r=0.5)),
            ("scaling_2", sphere_map("scaling", r=2.0)),
            ("holomorphic_2", sphere_map("holomorphic:k=2")),
        ]
        result = theorem_consistency_scan(entries)
        assert result.ok
        assert all(r.status in ("pass", "skipped") for r in result.rows)
        assert "margin" in result.table()

    def test_flow_limit_of_cap_classified_constant(self):
        from bochnerlab.flow import FlowParams, run_flow

        dom = FlatTorus2(a=1, b=1, n1=32, n2=32)
        f0 = catalog_map("cap:amplitude=0.3", dom, Sphere(k=2, r=1.0))
        f, summary = run_flow(
            f0, FlowParams(max_steps=30000, collapse_tol=5e-9, tension_tol=1e-10)
        )
        assert summary.outcome == "collapsed_to_constant"
        result = theorem_consistency_scan([("cap_flow_limit", f)])
        assert result.ok
        assert result.rows[0].report.is_constant
        assert result.rows[0].status == "pass"

    def test_non_harmonic_entry_is_skipped(self):
        dom = FlatTorus2(a=1, b=1, n1=128, n2=128)
        f = catalog_map("cap:amplitude=0.3", dom, Sphere(k=2, r=1.0))
        result = theorem_consistency_scan([("cap", f)])
        assert result.ok
        assert result.rows[0].status == "skipped"

    def test_energy_in_the_pole_collar_enters_S0(self):
        # z -> a z in the stereographic coordinate of S^2 is harmonic and
        # puts nearly all of |df|^2 in the collar around theta = 0; a sup
        # over the unflagged nodes alone read 0.267 here (all nodes: 68.7),
        # called the map strict and the scan a counterexample
        a = 200.0
        dom = RoundSphere2(r=1.0, n1=32)
        theta, phi = dom.chart_grid()
        w = a * np.tan(theta / 2.0)
        sin_t, cos_t = 2.0 * w / (1.0 + w * w), (1.0 - w * w) / (1.0 + w * w)
        vals = np.stack([sin_t * np.cos(phi), sin_t * np.sin(phi), cos_t], axis=-1)
        f = DiscreteMap(dom, Sphere(k=2, r=1.0), vals)
        rep = build_report(f)
        assert rep.harmonic and not rep.is_constant
        assert rep.classification != "strict"
        assert rep.S0 > 60.0
        assert theorem_consistency_scan([("dilation", f)]).ok
