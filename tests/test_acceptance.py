"""Acceptance gate: one test per release criterion, at the pinned
resolutions and tolerances.  Each test prints a single PASS/FAIL line
(visible via the -v test id and on failure via the captured output).

The integral-identity criterion (test 2) demands |integral of
(|H|^2 + Q)| below 1e-5 * Vol at 128x256.  The continuum value is 0,
so the test measures quadrature error.  Second-order fields under
midpoint weights leave an O(h^2) bias near 4e-2 * Vol for the degree-3
map; integral_identity_residual instead uses accuracy-6 stencils on
the double-Fourier-sphere continuation and Fejer first-rule weights,
which meets the criterion as stated (see the README).
"""

import time

import numpy as np
import pytest
from curvature_oracle import sample_points

from bochnerlab.bochner import (
    compute_bochner,
    integral_identity_residual,
    lambda_chain_check,
)
from bochnerlab.cli import main as cli_main
from bochnerlab.domains import FlatTorus2, RoundSphere2
from bochnerlab.flow import FlowParams, run_flow
from bochnerlab.maps import DiscreteMap, catalog_map, total_energy
from bochnerlab.rigidity import build_report
from bochnerlab.targets import Ellipsoid, ProductSpheres, Sphere, sec_max_over_region


def report(criterion, ok, detail):
    line = f"criterion {criterion}: {'PASS' if ok else 'FAIL'} - {detail}"
    print(line)
    assert ok, line


def sphere_map(name, n1, r=1.0):
    dom = RoundSphere2(r=1.0, n1=n1, n2=2 * n1)
    return catalog_map(name, dom, Sphere(k=2, r=r))


def test_criterion_1_bochner_residual_second_order():
    # sup-node residual of (1/2) Lap |df|^2 - |H|^2 - Q refines with
    # ratio in [3, 5] over 64 -> 128 -> 256; under 60 s per level
    details = []
    ok = True
    for name in ("identity", "holomorphic:k=2"):
        sups = []
        for n1 in (64, 128, 256):
            t0 = time.perf_counter()
            sups.append(compute_bochner(sphere_map(name, n1), contraction=True).sup_residual)
            elapsed = time.perf_counter() - t0
            ok = ok and elapsed < 60.0
        ratios = [sups[i] / sups[i + 1] for i in range(2)]
        ok = ok and all(3.0 <= r <= 5.0 for r in ratios)
        details.append(f"{name} ratios {ratios[0]:.2f}, {ratios[1]:.2f}")
    report(1, ok, "; ".join(details))


def test_criterion_2_integral_identity():
    # |integral of (|H|^2 + Q)| <= 1e-5 * Vol at 128x256 for every
    # catalog harmonic map -- sixth-order evaluator, see the module docstring
    cases = [
        ("constant", 1.0),
        ("identity", 1.0),
        ("scaling", 0.5),
        ("scaling", 2.0),
        ("holomorphic:k=2", 1.0),
        ("holomorphic:k=3", 1.0),
    ]
    ok = True
    worst = ("", 0.0)
    for name, r in cases:
        f = sphere_map(name, 128, r=r)
        rel = abs(integral_identity_residual(f)) / f.domain.volume()
        if rel > worst[1]:
            worst = (f"{name}(r={r})", rel)
        ok = ok and rel <= 1e-5
    report(2, ok, f"max |integral|/Vol = {worst[1]:.3e} at {worst[0]} (limit 1e-5)")


def test_criterion_3_lambda_chain():
    rng = np.random.default_rng(0)
    t0 = time.perf_counter()
    ok = True
    total = 0
    for n in (2, 3, 5):
        for _ in range(3334):
            lam = rng.uniform(0.0, 5.0, size=n)
            chain = lambda_chain_check(lam)
            ok = ok and abs(chain.lhs - chain.mid) < 1e-12 * max(1.0, chain.mid)
            ok = ok and chain.bound_ok
            ok = ok and chain.equality == (np.ptp(lam) <= 1e-12)
            total += 1
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 1.0
    report(3, ok, f"{total} vectors, identity/bound/equality hold, {elapsed:.2f} s")


def test_criterion_4_equality_family():
    # radial_scaling(r), r in {0.5, 1, 2}: margin and spread inside
    # tol(h), homothety factor r^2 within 1% at 128x256, hess_sup
    # refinement ratio in [3, 5]
    ok = True
    details = []
    for r in (0.5, 1.0, 2.0):
        f = sphere_map("scaling", 128, r=r)
        rep = build_report(f)
        ok = ok and abs(rep.margin) <= rep.tol
        ok = ok and rep.lambda_spread < rep.tol * max(1.0, r * r)
        ok = ok and abs(rep.homothety_factor - r * r) <= 0.01 * r * r
        details.append(f"r={r}: margin {rep.margin:.2e}, factor {rep.homothety_factor:.4f}")
    hess = [
        build_report(sphere_map("scaling", n1, r=2.0)).hess_sup for n1 in (64, 128)
    ]
    ratio = hess[0] / hess[1]
    ok = ok and 3.0 <= ratio <= 5.0
    report(4, ok, "; ".join(details) + f"; hess ratio {ratio:.2f}")


def test_criterion_5_strict_regime_collapse():
    # cap(0.3) on T^2 at 64x64 collapses below diameter 1e-3 within
    # 5e4 steps; energy trace monotone to 1e-10; under 5 minutes
    t0 = time.perf_counter()
    dom = FlatTorus2(a=1, b=1, n1=64, n2=64)
    f0 = catalog_map("cap:amplitude=0.3", dom, Sphere(k=2, r=1.0))
    f, summary = run_flow(f0, FlowParams(max_steps=50000))
    elapsed = time.perf_counter() - t0
    energies = np.asarray(summary.energies)
    monotone = bool(np.all(np.diff(energies) <= 1e-10))
    ok = (
        summary.outcome == "collapsed_to_constant"
        and summary.final_diameter < 1e-3
        and summary.steps <= 50000
        and monotone
        and elapsed < 300.0
    )
    report(
        5,
        ok,
        f"{summary.outcome} in {summary.steps} steps, diameter "
        f"{summary.final_diameter:.2e}, monotone={monotone}, {elapsed:.0f} s",
    )


def test_criterion_6_theorem_consistency(tmp_path):
    # the consistency command over the harmonic catalog exits 0
    rc = cli_main(
        ["consistency", "--resolution", "64", "--json", str(tmp_path / "c.json")]
    )
    report(6, rc == 0, f"consistency exit code {rc}")


def test_criterion_7_localization():
    # equatorial band into Ellipsoid(1,1,2): the image sees only the
    # flat equatorial belt while the global maximum 4 sits at the poles
    dom = FlatTorus2(a=1, b=1, n1=64, n2=64)
    U, V = dom.chart_grid()
    vals = np.stack([np.cos(U), np.sin(U), 0.2 * np.sin(V)], axis=-1)
    f = DiscreteMap(dom, Ellipsoid(a=1, b=1, c=2), vals)
    rep = build_report(f)
    gap = rep.sec_max_global_sample - rep.sec_max_image
    ok = (
        rep.sec_max_image <= 0.25 + 1e-2
        and 3.9 <= rep.sec_max_global_sample <= 4.1
        and rep.sec_max_global_sample == 4.0
        and gap > 3.5
    )
    report(
        7,
        ok,
        f"sec_max image {rep.sec_max_image:.4f}, global "
        f"{rep.sec_max_global_sample:.4f}, gap {gap:.3f}",
    )


def test_criterion_8_grassmann_extremizer():
    # the analytic maximum on S^2(1) x S^2(2) is 1.0 (pure small-factor
    # planes); 4096 sample points under 30 s
    tgt = ProductSpheres(r1=1.0, r2=2.0)
    pts = sample_points(tgt, 4096, np.random.default_rng(0))
    t0 = time.perf_counter()
    val, _ = sec_max_over_region(tgt, pts)
    elapsed = time.perf_counter() - t0
    ok = abs(val - 1.0) <= 1e-6 and elapsed < 30.0
    report(8, ok, f"sec_max {val:.9f} (target 1), {elapsed:.1f} s")


def test_criterion_9_energy_oracle():
    # identity energy = area = 4 pi within 0.1% at 128x256; degree-k
    # energies = 4 pi k within 0.5% under Richardson extrapolation
    e_id = total_energy(sphere_map("identity", 128))
    ok = abs(e_id - 4 * np.pi) <= 1e-3 * 4 * np.pi
    details = [f"identity {e_id:.5f} vs {4 * np.pi:.5f}"]
    for k in (1, 2, 3):
        e128 = total_energy(sphere_map(f"holomorphic:k={k}", 128))
        e256 = total_energy(sphere_map(f"holomorphic:k={k}", 256))
        richardson = (4.0 * e256 - e128) / 3.0
        exact = 4 * np.pi * k
        ok = ok and abs(richardson - exact) <= 5e-3 * exact
        details.append(f"k={k}: {richardson:.5f} vs {exact:.5f}")
    report(9, ok, "; ".join(details))
