"""Row-banded evaluation of the map construction, the tension, the
Bochner pass, the Hessian, the accuracy-6 integrand and the energy: the
same bits as one whole-grid band, temporaries the size of a band, and
no grid kept that a later reader does not need."""

import tracemalloc
import types

import numpy as np
import pytest
from chart_oracle import catalog_values_on_meshgrid
from curvature_oracle import sample_points
from test_bochner import CONTRACTIONS, FIELDS

from bochnerlab import bochner, cli, maps, rigidity
from bochnerlab.bochner import compute_bochner, integral_identity_residual
from bochnerlab.catalog import parse_target
from bochnerlab.domains import FlatTorus2, RoundSphere2
from bochnerlab.maps import (
    DiscreteMap,
    catalog_map,
    jacobian_field,
    row_bands,
    total_energy,
)
from bochnerlab.targets import Ellipsoid, Sphere


def ellipsoid_map(domain):
    U, V = domain.chart_grid()
    vals = np.stack(
        [np.cos(U), 1.5 * np.sin(U) * np.cos(V), 2.0 * np.sin(U) * np.sin(V) + 0.3],
        axis=-1,
    )
    return DiscreteMap(domain, Ellipsoid(a=1.0, b=1.5, c=2.0), vals)


# (map builder, bands of BAND_NODES nodes): S^2 at 96 x 192 takes bands
# of 42 rows (42, 42, 12), the first and last reading the antipodal ghost
# rows; T^2 at 100 x 100 takes bands of 81 rows (81, 19)
CASES = {
    "sphere": (lambda: catalog_map("holomorphic:k=3", RoundSphere2(n1=96), Sphere()), 3),
    "torus": (lambda: catalog_map("cap:amplitude=0.3", FlatTorus2(n1=100), Sphere()), 2),
    "ellipsoid": (lambda: ellipsoid_map(FlatTorus2(n1=100)), 2),
}


def evaluate(build):
    """Every field of a contraction pass, Q, the residual, the integrand's
    quadrature and the map's own energy of a freshly built map."""
    f = build()
    data = compute_bochner(f, contraction=True)
    out = {name: getattr(data, name) for name in FIELDS}
    out["Q"], out["residual"] = data.Q(), data.residual()
    out["integral"] = integral_identity_residual(f)
    out["map_energy"] = total_energy(f)
    return f, out


def assert_same(got, want):
    assert got.keys() == want.keys()
    for name in want:
        np.testing.assert_array_equal(got[name], want[name], err_msg=name)


@pytest.mark.parametrize("case", sorted(CASES))
def test_banding_is_bit_exact(case, count_calls, monkeypatch):
    build, bands = CASES[case]
    counts = count_calls(bochner, ("jacobian_field",))
    f, banded = evaluate(build)
    # one Jacobian and |H|^2 per band for the pass and one for the integrand
    assert counts == {"jacobian_field": 2 * bands}
    np.testing.assert_array_equal(banded["hess"], jacobian_field(f, hessian=True)[1])
    monkeypatch.setattr(maps, "BAND_NODES", f.domain.n1 * f.domain.n2)
    _, whole = evaluate(build)
    assert_same(banded, whole)


def test_bands_of_one_row_are_bit_exact(monkeypatch):
    # the integrand's three ghost rows each side span several one-row bands
    def build():
        return catalog_map("holomorphic:k=2", RoundSphere2(n1=16), Sphere())

    _, default = evaluate(build)
    monkeypatch.setattr(maps, "BAND_NODES", 1)
    _, rows = evaluate(build)
    assert_same(rows, default)


def transient(op):
    """Bytes that op() allocates beyond what it still holds when it returns."""
    tracemalloc.start()
    try:
        op()
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak - kept


def test_band_sized_temporaries(tmp_path):
    # S^2 at 128 x 256: 32768 nodes, 4 bands
    f = catalog_map("holomorphic:k=2", RoundSphere2(n1=128), Sphere())
    band = maps.BAND_NODES * f.target.m * 8  # one band of the values, 192 KB

    # Multiples of one band that each operation may allocate beyond what
    # it keeps, set between two designs' measurements (numpy 2.4).  Bands
    # continued on their own, a banded Laplace-Beltrami, a banded map
    # construction and a streaming node CSV: the contraction pass 12.8
    # bands with its sup norms, energy and lap, the first-order pass 11.2,
    # the map's L f 6.4, the integrand 11.9, the energy 10.4, the writer
    # 10.6, and a holomorphic build at 256 x 512 19.8 (its raw value grid
    # is 16).  One continued copy of the whole grid per pass, whole-grid
    # Laplacians, builds on chart meshgrids and whole-grid CSV columns:
    # the pass 16.1, sup_tension 16.5, lap 5.8, the integrand 15.0, the
    # energy 13.4, the writer 32.2 and the build 75.0.
    KERNELS, LAPLACIANS, BUILD, WRITER = 16, 8, 24, 16
    passes = []
    for contraction in (False, True):
        used = transient(lambda: passes.append(compute_bochner(f, contraction=contraction)))
        assert used <= KERNELS * band, contraction
    data = passes[-1]
    assert transient(lambda: f.laplacian) <= LAPLACIANS * band
    assert transient(lambda: total_energy(f)) <= KERNELS * band
    assert transient(lambda: integral_identity_residual(f)) <= KERNELS * band
    ns = types.SimpleNamespace(csv=str(tmp_path / "nodes.csv"))
    assert transient(lambda: cli._write_node_csv(ns, f, data)) <= WRITER * band
    built = []
    fine = RoundSphere2(n1=256)
    used = transient(lambda: built.append(catalog_map("holomorphic:k=2", fine, Sphere())))
    assert used <= BUILD * band


# -- what each command runs and keeps ---------------------------------------


def test_one_set_of_chart_derivatives_per_band(monkeypatch):
    # S^2 at 16 x 32 is one band: f_u, f_v, f_uu, f_uv and f_vv for each
    # pass and for the integrand, f_u and f_v for the energy density
    calls = []
    stencil = maps._stencil

    def counted(*args):
        calls.append(args[2:4])  # (axis, order)
        return stencil(*args)

    monkeypatch.setattr(maps, "_stencil", counted)
    f = catalog_map("holomorphic:k=2", RoundSphere2(n1=16), Sphere())
    assert len(row_bands(f.domain)) == 1
    # (axis, order) of f_u, f_v, f_uu, f_uv (the u-derivative of f_v), f_vv
    five = sorted([(0, 1), (1, 1), (0, 2), (0, 1), (1, 2)])
    for op in (lambda: compute_bochner(f, contraction=False),
               lambda: compute_bochner(f, contraction=True),
               lambda: integral_identity_residual(f)):
        calls.clear()
        op()
        assert sorted(calls) == five
    calls.clear()
    f.energy_density
    assert sorted(calls) == [(0, 1), (1, 1)]


def test_verify_level_makes_one_pass_and_one_integrand(count_calls):
    # S^2 at 128 x 256 is 4 bands: 4 Jacobians for the pass and 4 for the
    # accuracy-6 integrand; the energy is summed from the pass's own J
    counts = count_calls(bochner, ("jacobian_field",))
    own = count_calls(maps, ("jacobian_field",))
    f = catalog_map("holomorphic:k=2", RoundSphere2(n1=128), Sphere())
    cli._verify_level(f)
    assert counts["jacobian_field"] + own["jacobian_field"] == 8
    assert not {"laplacian", "energy_density"} & set(vars(f))


def test_report_runs_no_contraction(count_calls):
    counts = count_calls(bochner, CONTRACTIONS)
    f = catalog_map("holomorphic:k=3", RoundSphere2(n1=32), Sphere())
    rigidity.build_report(f)
    assert counts == dict.fromkeys(CONTRACTIONS, 0)
    assert not {"laplacian", "energy_density"} & set(vars(f))


def grids_kept(op):
    """Bytes op() leaves allocated, its result kept."""
    held = []
    tracemalloc.start()
    try:
        held.append(op())
        return tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()


def test_bochner_data_keeps_only_what_is_read():
    # in node grids of n1 * n2 floats beyond the map at 128 x 256: verify
    # keeps lam (2), S, hess, ricci, target and lap; a report keeps none,
    # its equality diagnostics included.  Storing Q, the residual, the
    # frame term, L f and the energy density as well kept 14 and 7.
    f = catalog_map("holomorphic:k=2", RoundSphere2(n1=128), Sphere())
    grid = f.domain.n1 * f.domain.n2 * 8
    assert grids_kept(lambda: cli._verify_level(f)) / grid < 7.5
    # an equality map, so the report measures its diagnostics as well
    f = catalog_map("scaling", RoundSphere2(n1=128), Sphere(r=2.0))
    assert grids_kept(lambda: rigidity.build_report(f)) / grid < 0.5


# -- per-band continuation, the banded Laplacian and the map construction ----


@pytest.mark.parametrize("band_nodes", [None, 1])
@pytest.mark.parametrize("case", ["sphere", "torus"])
def test_banded_laplacians_are_the_whole_grid_kernel(case, band_nodes, monkeypatch):
    build, bands = CASES[case]
    f = build()
    dom = f.domain
    if band_nodes:
        monkeypatch.setattr(maps, "BAND_NODES", band_nodes)
        bands = dom.n1
    calls = []
    kernel = type(dom).laplace_beltrami_rows

    def counted(self, Fp, rows):
        calls.append(rows)
        return kernel(self, Fp, rows)

    def whole_grid(F):
        # the kernel on one band of every row, one ghost layer either side
        return kernel(dom, dom.extend(dom.extend(F, 0, 1), 1, 1), slice(0, dom.n1))

    monkeypatch.setattr(type(dom), "laplace_beltrami_rows", counted)
    tau = f.tension
    assert len(calls) == bands
    np.testing.assert_array_equal(f.laplacian, whole_grid(f.values))
    np.testing.assert_array_equal(tau, f.target.tangent_part(f.values, whole_grid(f.values)))
    # the pass takes L f on each band for sup|tau|, and the contraction
    # pass then the Laplacian of S on each band for lap
    data = compute_bochner(f, contraction=False)
    assert len(calls) == 2 * bands
    assert data.sup_tension == np.max(np.linalg.norm(tau, axis=-1)[~dom.flagged_mask()])
    data = compute_bochner(f, contraction=True)
    assert len(calls) == 4 * bands
    np.testing.assert_array_equal(data.lap, 0.5 * whole_grid(data.S))


@pytest.mark.parametrize("band_nodes", [1, 40, maps.BAND_NODES])
@pytest.mark.parametrize("accuracy", [0, 2, 6])
@pytest.mark.parametrize(
    "dom",
    [RoundSphere2(n1=12), RoundSphere2(n1=4, n2=6), FlatTorus2(n1=10, n2=8)],
    ids=["sphere", "small-sphere", "torus"],
)
def test_band_continuation_is_the_whole_grids(dom, accuracy, band_nodes, monkeypatch):
    # each band's rows of extend(extend(F, 0, p), 1, p), ghost rows past
    # either end of the grid included, down to one-row bands at p = 3
    monkeypatch.setattr(maps, "BAND_NODES", band_nodes)
    F = np.random.default_rng(accuracy).standard_normal((dom.n1, dom.n2, 3))
    p = accuracy // 2
    whole = dom.extend(dom.extend(F, 0, p), 1, p) if p else F
    rows = row_bands(dom)
    step = max(1, band_nodes // dom.n2)
    assert [r.start for r in rows] == list(range(0, dom.n1, step))
    for r in rows:
        band = maps._band(dom, F, r, accuracy)
        np.testing.assert_array_equal(band.values, F[r])
        np.testing.assert_array_equal(band.continued, whole[r.start:r.stop + 2 * p])


@pytest.mark.parametrize(
    "descriptor",
    ["sphere:r=2", "ellipsoid:a=1,b=1.5,c=2", "prodspheres:r1=1,r2=2",
     "torusemb:rho1=1,rho2=2", "euclid:m=3"],
)
def test_banded_reprojection_is_one_closest_point_call(descriptor, monkeypatch):
    # bands of 3 rows; points off the target by up to 30 %, so that the
    # ellipsoid's Newton iteration takes different counts in different bands
    target = parse_target(descriptor)
    dom = FlatTorus2(n1=12, n2=10)
    rng = np.random.default_rng(7)
    raw = sample_points(target, dom.n1 * dom.n2, rng)
    raw = raw * (1.0 + 0.3 * rng.uniform(-1, 1, (raw.shape[0], 1)))
    raw = raw.reshape(dom.n1, dom.n2, target.m)
    monkeypatch.setattr(maps, "BAND_NODES", 3 * dom.n2)
    assert len(row_bands(dom)) == 4
    np.testing.assert_array_equal(DiscreteMap(dom, target, raw).values, target.closest_point(raw))


@pytest.mark.parametrize(
    "name, domain, descriptor",
    [
        ("identity", RoundSphere2(n1=96), "sphere:r=1"),
        ("scaling", RoundSphere2(n1=96), "sphere:r=2"),
        ("holomorphic:k=1", RoundSphere2(n1=96), "sphere:r=1"),
        ("holomorphic:k=3", RoundSphere2(n1=96), "sphere:r=1.5"),
        ("holomorphic:k=40", RoundSphere2(n1=16), "sphere:r=1"),
        ("cap:amplitude=0.3", FlatTorus2(n1=100), "sphere:r=1"),
        ("cap:amplitude=1.2", FlatTorus2(n1=30, n2=44), "sphere:r=2"),
        ("constant", FlatTorus2(n1=100), "prodspheres:r1=1,r2=2"),
    ],
)
def test_catalog_maps_are_the_meshgrid_builds(name, domain, descriptor, monkeypatch):
    # the raw value grid a builder hands the map constructor, bit for bit
    target = parse_target(descriptor)
    raw = []
    monkeypatch.setattr(maps, "DiscreteMap", lambda dom, tgt, values: raw.append(values))
    catalog_map(name, domain, target)
    expected = catalog_values_on_meshgrid(name, domain, target)
    np.testing.assert_array_equal(raw[0], expected)
    assert np.signbit(raw[0]).tobytes() == np.signbit(expected).tobytes()
