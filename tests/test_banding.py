"""Row-banded evaluation of the Bochner pass, the Hessian, the accuracy-6
integrand and the energy: the same bits as one whole-grid band, and
temporaries the size of a band."""

import tracemalloc
import types

import numpy as np
import pytest
from test_bochner import FIELDS

from bochnerlab import bochner, cli, maps
from bochnerlab.bochner import compute_bochner, integral_identity_residual
from bochnerlab.domains import FlatTorus2, RoundSphere2
from bochnerlab.maps import DiscreteMap, catalog_map, hessian_field, total_energy
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
    """Every Bochner field, the integrand's quadrature and the energy of a
    freshly built map (the energy density is cached on the map)."""
    f = build()
    data = compute_bochner(f)
    out = {name: getattr(data, name) for name in FIELDS}
    out["integral"] = integral_identity_residual(f)
    out["energy"] = total_energy(f)
    return f, out


def assert_same(got, want):
    assert got.keys() == want.keys()
    for name in want:
        np.testing.assert_array_equal(got[name], want[name], err_msg=name)


@pytest.mark.parametrize("case", sorted(CASES))
def test_banding_is_bit_exact(case, count_calls, monkeypatch):
    build, bands = CASES[case]
    counts = count_calls(bochner, ("jacobian_field", "hessian_field"))
    f, banded = evaluate(build)
    # one Jacobian per band for the pass and one for the integrand, and one
    # Hessian per band for the field and one for the integrand
    assert counts == {"jacobian_field": 2 * bands, "hessian_field": 2 * bands}
    np.testing.assert_array_equal(banded["hess"], hessian_field(f))
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
    n1, n2, m = f.values.shape
    band = maps.BAND_NODES * m * 8  # one band of the values, 192 KB

    def continued(accuracy):
        p = accuracy // 2
        return (n1 + 2 * p) * (n2 + 2 * p) * m * 8

    # Multiples of one band that each operation may allocate beyond what
    # it keeps and the values it continues, set between two designs'
    # measurements (numpy 2.4).  Banded kernels that slice the domain's
    # row profiles: reading the fields at most 12.4 bands (sup_tension,
    # whose tension is taken over the whole grid; the contraction pass
    # 12.0), the integrand 10.7, the energy 9.3, and 28.1 for the node-CSV
    # writer (some 50 temporaries per cell of a 1024-row block).  Banded
    # kernels that slice node-sized metric, inverse metric and Ricci grids
    # (2.7 bands each at this grid): the contraction pass 19.7, the
    # integrand 18.9, the energy 12.0.  Whole-grid kernels: 30.6 to 40.2
    # bands for the fields, the energy and the integrand, and 98.5 for the
    # writer with 4096-row blocks.
    KERNELS, WRITER = 16, 40
    data = compute_bochner(f)
    for name in FIELDS:
        used = transient(lambda: getattr(data, name))
        assert used <= continued(2) + KERNELS * band, name
    assert transient(lambda: total_energy(f)) <= continued(2) + KERNELS * band
    used = transient(lambda: integral_identity_residual(f))
    assert used <= continued(6) + KERNELS * band
    ns = types.SimpleNamespace(csv=str(tmp_path / "nodes.csv"))
    used = transient(lambda: cli._write_node_csv(ns, f, data))
    assert used <= continued(2) + WRITER * band
