"""Discrete maps between a domain grid and an embedded target.

A map is its grid of ambient target values.  First- and second-order
data (Jacobian, pullback metric, tension, |H|^2 of the second
fundamental form of the map) come from central differences on the
chart grid followed by the target's matrix-free `tangent_part` at the
image point; no m x m projector is formed.  The chart metric is
diagonal, so every contraction over the two chart directions is a sum
of elementwise products.  The pointwise calculus uses second-order
stencils; `accuracy=6` selects 7-point ones where a quadrature needs a
smaller truncation error.

The stencil kernels `jacobian_field` and `hessian_field` evaluate one
row band of the grid at a time when given a `Band` that `assemble`
passes its kernel: about BAND_NODES nodes, so that their temporaries
stay the size of a band however fine the grid.  The domain's
coefficients are row profiles, and a kernel slices the band's rows of
them; every node sees the same arithmetic as in a whole-grid
evaluation, so the assembled grids are bit-identical.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .catalog import parse_descriptor, parse_domain, parse_target
from .domains import FlatTorus2, RoundSphere2
from .errors import NumericalError, UsageError
from .io_utils import ColumnRows
from .numerics import dot, read_only


@dataclass(frozen=True)
class DiscreteMap:
    """Map f: domain -> target sampled on the domain grid.

    values has shape (n1, n2, m) and always lies on the target: the
    constructor reprojects through the closest-point map.  The values
    are read-only, so the tension and energy density are cached; the
    Jacobian is not kept, and the energy density is taken a row band of
    it at a time.
    """

    domain: object
    target: object
    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        if v.shape != (self.domain.n1, self.domain.n2, self.target.m):
            raise UsageError(
                f"value grid shape {v.shape} does not match "
                f"({self.domain.n1}, {self.domain.n2}, {self.target.m})"
            )
        if not np.all(np.isfinite(v)):
            raise NumericalError("map values contain non-finite entries")
        object.__setattr__(self, "values", read_only(self.target.closest_point(v)))

    @cached_property
    def tension(self):
        lap = self.domain.laplace_beltrami(self.values)
        return read_only(self.target.tangent_part(self.values, lap))

    @cached_property
    def energy_density(self):
        def density(band):
            J = jacobian_field(self, band=band)
            ginv = self.domain.inv_metric_diag_grid()[band.rows]
            S = sum(ginv[..., d] * dot(J[..., d], J[..., d]) for d in range(2))
            return {"e": S / 2.0}

        return read_only(assemble(self, density)["e"])

    def with_values(self, values):
        return DiscreteMap(self.domain, self.target, values)

    def max_constraint_residual(self):
        return float(np.max(self.target.constraint_residual(self.values)))


# -- analytic map catalog ----------------------------------------------------


def _unit_directions(domain):
    if not isinstance(domain, RoundSphere2):
        raise UsageError("this catalog map needs a sphere domain")
    TH, PH = domain.chart_grid()
    s = np.sin(TH)
    return np.stack([s * np.cos(PH), s * np.sin(PH), np.cos(TH)], axis=-1)


def default_basepoint(target):
    """A canonical on-target point, used by the constant map."""
    kind = target.kind
    if kind == "euclid":
        return np.zeros(target.m)
    if kind == "sphere":
        q = np.zeros(target.m)
        q[-1] = target.r
        return q
    if kind == "ellipsoid":
        return np.array([0.0, 0.0, target.c])
    if kind == "torusemb":
        q = np.zeros(target.m)
        for i, r in enumerate(target.radii):
            q[2 * i] = r
        return q
    if kind == "prodspheres":
        return np.array([0.0, 0.0, target.r1, 0.0, 0.0, target.r2])
    raise UsageError(f"no default basepoint for target kind {kind!r}")


def constant_map(domain, target):
    vals = np.broadcast_to(default_basepoint(target), (domain.n1, domain.n2, target.m))
    return DiscreteMap(domain, target, vals.copy())


def radial_scaling_map(domain, target):
    """Sphere chart point -> same direction on the target sphere.

    A homothety with factor (r_target / r_domain)^2 on the pullback
    spectrum; the identity map when the radii agree.
    """
    if target.kind != "sphere" or target.m != 3:
        raise UsageError("radial scaling needs a 2-sphere target in R^3")
    return DiscreteMap(domain, target, target.r * _unit_directions(domain))


def identity_sphere_map(domain, target):
    spheres = domain.kind == target.kind == "sphere"
    if not (spheres and abs(target.r - domain.r) <= 1e-12):
        raise UsageError("identity map needs a sphere domain and target of one radius")
    return radial_scaling_map(domain, target)


def holomorphic_map(domain, target, k):
    """Degree-k power map of the sphere in a stereographic coordinate."""
    if not (float(k).is_integer() and k >= 1):
        raise UsageError("holomorphic degree must be a positive integer")
    k = int(k)
    if target.kind != "sphere" or target.m != 3:
        raise UsageError("holomorphic map needs a 2-sphere target in R^3")
    TH, PH = domain.chart_grid()
    t = np.tan(TH / 2.0)
    # a large degree overflows w to inf and the quotients to nan, which
    # DiscreteMap refuses as a NumericalError
    with np.errstate(over="ignore", invalid="ignore"):
        w = t**k  # |z|^k; the staggered grid keeps t finite
        denom = 1.0 + w * w
        sin_tp = 2.0 * w / denom
        cos_tp = (1.0 - w * w) / denom
    vals = target.r * np.stack(
        [sin_tp * np.cos(k * PH), sin_tp * np.sin(k * PH), cos_tp], axis=-1
    )
    return DiscreteMap(domain, target, vals)


def cap_map(domain, target, amplitude):
    """Torus into a small geodesic cap around the north pole of a sphere.

    The image lies in the geodesic ball of radius `amplitude` around
    the basepoint; the map is not harmonic.
    """
    if not isinstance(domain, FlatTorus2):
        raise UsageError("cap map needs a torus domain")
    if target.kind != "sphere" or target.m != 3:
        raise UsageError("cap map needs a 2-sphere target in R^3")
    if not (0 < amplitude < np.pi / 2):
        raise UsageError("cap amplitude must lie in (0, pi/2)")
    U, V = domain.chart_grid()
    s = amplitude / np.sqrt(2.0)
    disp = np.stack([s * np.sin(U), s * np.sin(V), np.zeros_like(U)], axis=-1)
    q0 = np.array([0.0, 0.0, 1.0])
    vals = target.r * _normalize(q0 + disp)
    return DiscreteMap(domain, target, vals)


def _normalize(v):
    return v / np.linalg.norm(v, axis=-1, keepdims=True)


def catalog_map(name, domain, target):
    """Build a catalog map from a descriptor such as 'holomorphic:k=2'."""
    kind, params = parse_descriptor(name)
    if kind == "constant":
        if params:
            raise UsageError("constant map takes no descriptor keys")
        return constant_map(domain, target)
    if kind == "identity":
        if params:
            raise UsageError("identity map takes no descriptor keys")
        return identity_sphere_map(domain, target)
    if kind == "scaling":
        if params:
            raise UsageError("scaling map takes no descriptor keys")
        return radial_scaling_map(domain, target)
    if kind == "holomorphic":
        k = params.pop("k", 2.0)
        if params:
            raise UsageError(f"unknown keys {sorted(params)} for holomorphic map")
        return holomorphic_map(domain, target, k)
    if kind == "cap":
        amp = params.pop("amplitude", 0.3)
        if params:
            raise UsageError(f"unknown keys {sorted(params)} for cap map")
        return cap_map(domain, target, amp)
    raise UsageError(f"unknown catalog map {kind!r}")


# -- finite differences ------------------------------------------------------


# central-difference weights for offsets +p..-p and their common
# denominator, keyed by (derivative order, accuracy); the terms are
# summed in this order, which keeps accuracy 2 bit-identical to the
# three-point ghost-row stencils
_STENCILS = {
    (1, 2): ((1, 0, -1), 2),
    (1, 6): ((1, -9, 45, 0, -45, 9, -1), 60),
    (2, 2): ((1, -2, 1), 1),
    (2, 6): ((2, -27, 270, -490, 270, -27, 2), 180),
}


def _stencil(domain, Fp, axis, order, accuracy):
    """Central difference of order 1 or 2 and accuracy 2 or 6 along a chart
    axis, of the field that Fp, its `domain.extend` by accuracy // 2 nodes
    along that axis, continues (periodic on a torus, antipodal on a sphere)."""
    weights, den = _STENCILS[order, accuracy]
    p = accuracy // 2
    n = Fp.shape[axis] - 2 * p
    out = None
    for k, c in zip(range(2 * p, -1, -1), weights):
        if c:
            term = c * (Fp[k:k + n] if axis == 0 else Fp[:, k:k + n])
            out = term if out is None else out + term
    return out / (den * domain.spacing[axis] ** order)


# nodes per row band of the banded kernels: a band of values is 192 KB
# at m = 3, so its temporaries are cache-sized blocks (Lam, Rothberg &
# Wolf, ASPLOS 1991) and stay that size however fine the grid
BAND_NODES = 8192


class Band(NamedTuple):
    """The rows `rows` of a map's grid: their values, and the continued
    values on them and on accuracy // 2 ghost rows either side."""

    rows: slice
    values: np.ndarray
    continued: np.ndarray


def _bands(f, accuracy, step=None):
    """The map's grid cut into bands of `step` whole rows, by default
    about BAND_NODES nodes.  The values are continued by accuracy // 2
    ghost nodes across both axes once, and every band slices them."""
    dom, p = f.domain, accuracy // 2
    continued = dom.extend(dom.extend(f.values, 0, p), 1, p)
    step = step or max(1, BAND_NODES // dom.n2)
    for r in range(0, dom.n1, step):
        rows = slice(r, min(r + step, dom.n1))
        yield Band(rows, f.values[rows], continued[r:rows.stop + 2 * p])


def assemble(f, kernel, accuracy=2):
    """The node grids, by name, of which kernel(band) gives each band's rows.

    Each grid is allocated once and filled band by band; a band of
    every row gives its values as they are.  The banded evaluation costs
    one pass over the grid however many bands it takes.
    """
    n1 = f.domain.n1
    grids = {}
    for band in _bands(f, accuracy):
        for name, value in kernel(band).items():
            if band.rows == slice(0, n1):
                grids[name] = value
                continue
            if name not in grids:
                grids[name] = np.empty((n1,) + value.shape[1:])
            grids[name][band.rows] = value
    return grids


def jacobian_field(f, accuracy=2, band=None):
    """Tangent-projected chart Jacobian, shape (n1, n2, m, 2), or its
    rows on a `Band` that `assemble(f, kernel, accuracy)` passes.

    Both chart derivatives go through one `tangent_part` call; the
    result is a view whose columns J[..., i] are contiguous.
    """
    if band is None:
        band = next(_bands(f, accuracy, f.domain.n1))
    p = accuracy // 2
    vp = band.continued
    du = _stencil(f.domain, vp[:, p:-p], 0, 1, accuracy)
    dv = _stencil(f.domain, vp[p:-p], 1, 1, accuracy)
    JT = f.target.tangent_part(band.values[..., None, :], np.stack([du, dv], axis=-2))
    return np.swapaxes(JT, -1, -2)


def pullback_field(J):
    """Chart components of the pullback metric f*gbar, shape (..., 2, 2).

    E, F and G are the dot products of the two Jacobian columns.
    """
    Ju, Jv = J[..., 0], J[..., 1]
    E, F, G = dot(Ju, Ju), dot(Ju, Jv), dot(Jv, Jv)
    return np.stack([np.stack([E, F], axis=-1), np.stack([F, G], axis=-1)], axis=-2)


def spectrum(lam):
    """(lam desc, S) from the ascending eigenvalues of g^{-1} f*gbar.

    lam are clamped at zero; S is their sum, |df|^2 (the energy density
    is S / 2).
    """
    lam = np.where(lam > -1e-12, np.maximum(lam, 0.0), lam)[..., ::-1]
    return lam, lam.sum(axis=-1)


def energy_density_field(f):
    """e = trace_g(f*gbar) / 2 without an eigensolve."""
    return f.energy_density


def total_energy(f):
    """Quadrature of the energy density over the domain."""
    return float(np.sum(f.energy_density * f.domain.quad_weight_grid()))


def tension_field(f):
    """Tension tau = tangential part of the componentwise Laplace-Beltrami."""
    return f.tension


def hessian_field(f, accuracy=2, band=None):
    """Squared norm |H|^2 of the second fundamental form of the map, on
    the grid or on a `Band` that `assemble(f, kernel, accuracy)` passes.

    H_ij = P(f) (d_i d_j f - Gamma^k_ij d_k f), the chart derivatives
    taken with stencils of the given accuracy.  The chart is a warped
    product, so H_uu = f_uu, H_uv = H_vu = f_uv - Gamma^v_uv f_v and
    H_vv = f_vv - Gamma^u_vv f_u before the projection, and the metric
    is diagonal, so |H|^2 = sum_ij g^ii g^jj |H_ij|^2.  Each component
    is projected and added in as soon as it is taken, so only a few
    node fields are held at once and H itself is never formed.
    """
    if band is None:
        band = next(_bands(f, accuracy, f.domain.n1))
    dom = f.domain
    v = band.values
    G = dom.christoffel_grid()[band.rows]  # (Gamma^u_vv, Gamma^v_uv)
    ginv = dom.inv_metric_diag_grid()[band.rows]

    def sq(Hij):
        Hij = f.target.tangent_part(v, Hij)
        return dot(Hij, Hij)

    p = accuracy // 2
    vp = band.continued
    along_u, along_v = vp[:, p:-p], vp[p:-p]
    norm2 = ginv[..., 0] * ginv[..., 0] * sq(_stencil(dom, along_u, 0, 2, accuracy))
    # f_v on the ghost rows as well: the continuation commutes with the
    # v-stencil, so these rows are f_v's own continuation
    fv = _stencil(dom, vp, 1, 1, accuracy)
    fuv = _stencil(dom, fv, 0, 1, accuracy)
    norm2 += 2.0 * ginv[..., 0] * ginv[..., 1] * sq(fuv - G[..., 1, None] * fv[p:-p])
    del fv, fuv
    fvv = _stencil(dom, along_v, 1, 2, accuracy)
    fu = _stencil(dom, along_u, 0, 1, accuracy)
    norm2 += ginv[..., 1] * ginv[..., 1] * sq(fvv - G[..., 0, None] * fu)
    return norm2


# -- serialization -----------------------------------------------------------


def save_map(f, path):
    """Plain-text grid dump: descriptor header, then one line per node of
    its values as `fmt17` writes them, separated by spaces."""
    header = (
        "bochnerlab-map 1\n"
        f"domain {f.domain.descriptor()}\n"
        f"target {f.target.descriptor()}\n"
        f"grid {f.domain.n1} {f.domain.n2} {f.target.m}\n"
    )
    with open(path, "wb") as fh:
        fh.write(header.encode())
        fh.writelines(ColumnRows(f.values.reshape(-1, f.target.m).T).encode(" "))


def load_map(path):
    """Read a `save_map` dump; a malformed file raises UsageError."""
    with open(path) as fh:
        magic = fh.readline().split()
        if not magic or magic[0] != "bochnerlab-map":
            raise UsageError(f"{path} is not a map dump")
        header = {}
        for _ in range(3):
            key, _, rest = fh.readline().partition(" ")
            header[key.strip()] = rest.strip()
        try:
            n1, n2, m = (int(x) for x in header["grid"].split())
            domain = parse_domain(header["domain"], n1, n2)
            target = parse_target(header["target"])
            if target.m != m:
                raise UsageError(f"ambient dimension mismatch in {path}")
            vals = np.loadtxt(fh).reshape(n1, n2, m)
        except (KeyError, ValueError) as exc:
            raise UsageError(f"malformed map dump {path}: {exc}") from exc
    return DiscreteMap(domain, target, vals)
