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

The stencil kernels `jacobian_field` (J alone, or J and |H|^2 from
one set of chart derivatives) and `laplace_beltrami` and the map's
reprojection evaluate one row band of the grid at a time, on a `Band`
that `assemble` passes its kernel: about BAND_NODES nodes, so that
their temporaries stay the size of a band however fine the grid.  Each
band is continued on its own, an interior band by a slice and one
column wrap, so no pass continues the whole grid.  The domain's coefficients are row profiles, and a kernel
slices the band's rows of them; every node sees the same arithmetic as
in a whole-grid evaluation, so the assembled grids are bit-identical.
The catalog maps are built from the chart axes as row and column
profiles, with the elementwise operations of a meshgrid build.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .catalog import build, parse_descriptor, parse_domain, parse_target
from .domains import FlatTorus2, RoundSphere2
from .errors import NumericalError, UsageError
from .io_utils import ColumnRows
from .numerics import dot, norm, read_only, total


@dataclass(frozen=True)
class DiscreteMap:
    """Map f: domain -> target sampled on the domain grid.

    values has shape (n1, n2, m) and always lies on the target: the
    constructor reprojects through the closest-point map one row band at
    a time.  The values are read-only, so L f (`laplacian`) and the
    energy density are cached for the flow, each taken a row band at a
    time; the tension is the tangent part of L f, and the Jacobian is
    not kept.  The Bochner pass reads neither: it reduces sup|tau| and
    sums the energy from its own bands.
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
        # every band is checked before any is projected, so that a
        # non-finite entry is refused as such wherever it lies
        if not all(np.all(np.isfinite(v[rows])) for rows in row_bands(self.domain)):
            raise NumericalError("map values contain non-finite entries")

        def project(band):
            return {"values": self.target.closest_point(band.values)}

        values = assemble(self.domain, v, project, accuracy=0)["values"]
        object.__setattr__(self, "values", read_only(values))

    @cached_property
    def laplacian(self):
        """L f, the Laplace-Beltrami of each ambient component."""
        return read_only(laplace_beltrami(self.domain, self.values))

    @property
    def tension(self):
        """tau = the tangent part of L f at each node."""
        return self.target.tangent_part(self.values, self.laplacian)

    @cached_property
    def energy_density(self):
        def density(band):
            ginv = self.domain.inv_metric_diag_grid()[band.rows]
            return {"e": energy_density_field(jacobian_field(self, band=band), ginv)}

        return read_only(assemble(self.domain, self.values, density)["e"])

    def with_values(self, values):
        return DiscreteMap(self.domain, self.target, values)


# -- analytic map catalog ----------------------------------------------------

# The builders evaluate each factor on the chart axes, row and column
# profiles, and write the products into the one value grid they return:
# elementwise the same operations as on chart_grid() meshgrids, so the
# same bits, without grid-sized temporaries.


def _unit_directions(domain):
    if not isinstance(domain, RoundSphere2):
        raise UsageError("this catalog map needs a sphere domain")
    theta, phi = domain.axes()
    s = np.sin(theta)[:, None]
    out = np.empty((domain.n1, domain.n2, 3))
    np.multiply(s, np.cos(phi), out=out[..., 0])
    np.multiply(s, np.sin(phi), out=out[..., 1])
    out[..., 2] = np.cos(theta)[:, None]
    return out


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
    return DiscreteMap(domain, target, vals)


def radial_scaling_map(domain, target):
    """Sphere chart point -> same direction on the target sphere.

    A homothety with factor (r_target / r_domain)^2 on the pullback
    spectrum; the identity map when the radii agree.
    """
    if target.kind != "sphere" or target.m != 3:
        raise UsageError("radial scaling needs a 2-sphere target in R^3")
    vals = _unit_directions(domain)
    vals *= target.r
    return DiscreteMap(domain, target, vals)


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
    theta, phi = domain.axes()
    t = np.tan(theta / 2.0)
    # a large degree overflows w to inf and the quotients to nan, which
    # DiscreteMap refuses as a NumericalError
    with np.errstate(over="ignore", invalid="ignore"):
        w = t**k  # |z|^k; the staggered grid keeps t finite
        denom = 1.0 + w * w
        sin_tp = (2.0 * w / denom)[:, None]
        cos_tp = (1.0 - w * w) / denom
    vals = np.empty((domain.n1, domain.n2, 3))
    np.multiply(sin_tp, np.cos(k * phi), out=vals[..., 0])
    np.multiply(sin_tp, np.sin(k * phi), out=vals[..., 1])
    vals[..., 2] = cos_tp[:, None]
    vals *= target.r
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
    u, v = domain.axes()
    s = amplitude / np.sqrt(2.0)
    vals = np.empty((domain.n1, domain.n2, 3))  # q0 + the displacement
    vals[..., 0] = (s * np.sin(u))[:, None]
    vals[..., 1] = s * np.sin(v)
    vals[..., 2] = 0.0
    vals += np.array([0.0, 0.0, 1.0])
    vals /= norm(vals)[..., None]
    vals *= target.r
    return DiscreteMap(domain, target, vals)


# each catalog map's builder and its descriptor keys with their defaults
CATALOG = {
    "constant": (constant_map, {}),
    "identity": (identity_sphere_map, {}),
    "scaling": (radial_scaling_map, {}),
    "holomorphic": (holomorphic_map, {"k": 2}),
    "cap": (cap_map, {"amplitude": 0.3}),
}


def catalog_map(name, domain, target):
    """Build a catalog map from a descriptor such as 'holomorphic:k=2'.

    The kinds, their keys and defaults are `CATALOG`'s; `catalog.build`
    rejects an unknown kind or key and a fractional degree.
    """
    return build("catalog map", CATALOG, *parse_descriptor(name), domain=domain, target=target)


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
            # +-1 adds or subtracts the slice itself: -c F is -(c F) exactly
            F = Fp[k:k + n] if axis == 0 else Fp[:, k:k + n]
            term = F if abs(c) == 1 else abs(c) * F
            if out is None:
                out = term if c > 0 else -term
            else:  # in place, or while out is a slice of Fp into the term's own array
                into = (None if term is F else term) if np.may_share_memory(out, Fp) else out
                out = (np.add if c > 0 else np.subtract)(out, term, out=into)
    out /= den * domain.spacing[axis] ** order
    return out


# nodes per row band of the banded kernels: a band of values is 192 KB
# at m = 3, so its temporaries are cache-sized blocks (Lam, Rothberg &
# Wolf, ASPLOS 1991) and stay that size however fine the grid
BAND_NODES = 8192


class Band(NamedTuple):
    """The rows `rows` of a node field's grid: their values, and the field
    continued on them and on accuracy // 2 ghost rows either side, its
    columns wrapped by as many."""

    rows: slice
    values: np.ndarray
    continued: np.ndarray


def row_bands(domain):
    """The domain's grid rows cut into slices of whole rows, about
    BAND_NODES nodes each."""
    step = max(1, BAND_NODES // domain.n2)
    return [slice(r, min(r + step, domain.n1)) for r in range(0, domain.n1, step)]


def _band(domain, F, rows, accuracy):
    """The band of the node field F on the grid rows `rows`, continued on
    its own by accuracy // 2 ghost rows and columns (none at accuracy 0).

    A band's ghost rows are F's rows either side of it, except past an
    end of the grid, where the domain continues F (periodic on a torus,
    antipodal across a pole on a sphere).  An interior band is then a
    slice and one column wrap.
    """
    n1, p = domain.n1, accuracy // 2
    if not p:
        return Band(rows, F[rows], F[rows])
    lo, hi = rows.start - p, rows.stop + p
    continued = F[max(lo, 0):min(hi, n1)]
    if lo < 0 or hi > n1:
        # domain.extend continues the p rows nearest each end into the
        # ghost rows past it, so extending those rows alone gives them
        ends = domain.extend(np.concatenate([F[:p], F[-p:]]), 0, p)
        continued = np.concatenate(
            [ends[:p][min(lo, 0) + p:], continued, ends[-p:][:max(hi - n1, 0)]])
    return Band(rows, F[rows], domain.extend(continued, 1, p))


def assemble(domain, F, kernel, accuracy=2):
    """The node grids, by name, that kernel(band) gives band by band, on
    the bands of the node field F continued for `accuracy`.

    Each grid is allocated once and filled band by band; a band of
    every row gives its values as they are.  The banded evaluation costs
    one pass over the grid however many bands it takes.
    """
    n1 = domain.n1
    grids = {}
    for rows in row_bands(domain):
        # the band is built in the call, so that the kernel holds it alone
        # and can drop its continued rows once they are dead
        for name, value in kernel(_band(domain, F, rows, accuracy)).items():
            if rows == slice(0, n1):
                grids[name] = value
                continue
            if name not in grids:
                grids[name] = np.empty((n1,) + value.shape[1:])
            grids[name][rows] = value
    return grids


def laplace_beltrami(domain, F):
    """The domain's Laplace-Beltrami of a node field F, (n1, n2[, k]): its
    kernel `laplace_beltrami_rows` a row band at a time."""
    def lap(band):
        return {"lap": domain.laplace_beltrami_rows(band.continued, band.rows)}

    return assemble(domain, np.asarray(F, dtype=float), lap)["lap"]


def jacobian_field(f, accuracy=2, band=None, hessian=False):
    """Tangent-projected chart Jacobian, shape (n1, n2, m, 2), or its
    rows on a `Band` that `assemble` passes its kernel; with hessian=True
    the pair (J, |H|^2), |H|^2 the squared norm of the second fundamental
    form of the map, taken from the same chart derivatives f_u and f_v.

    Both chart derivatives go through one `tangent_part` call; J is a
    view whose columns J[..., i] are contiguous.

    H_ij = P(f) (d_i d_j f - Gamma^k_ij d_k f).  The chart is a warped
    product, so H_uu = f_uu, H_uv = H_vu = f_uv - Gamma^v_uv f_v and
    H_vv = f_vv - Gamma^u_vv f_u before the projection, and the metric
    is diagonal, so |H|^2 = sum_ij g^ii g^jj |H_ij|^2.  Each component
    is projected and added in as soon as it is taken, so H itself is
    never formed.
    """
    dom = f.domain
    if band is None:
        band = _band(dom, f.values, slice(0, dom.n1), accuracy)
    p = accuracy // 2
    vp = band.continued
    along_u, along_v = vp[:, p:-p], vp[p:-p]
    fu = _stencil(dom, along_u, 0, 1, accuracy)
    # for f_uv, f_v on the ghost rows as well: the continuation commutes
    # with the v-stencil, so these rows are f_v's own continuation
    fv = _stencil(dom, vp if hessian else along_v, 1, 1, accuracy)
    v = band.values
    J = np.swapaxes(f.target.tangent_part(
        v[..., None, :], np.stack([fu, fv[p:-p] if hessian else fv], axis=-2)), -1, -2)
    if not hessian:
        return J
    G = dom.christoffel_grid()[band.rows]  # (Gamma^u_vv, Gamma^v_uv)
    ginv = dom.inv_metric_diag_grid()[band.rows]

    def sq(Hij):
        Hij = f.target.tangent_part(v, Hij)
        return dot(Hij, Hij)

    norm2 = ginv[..., 0] * ginv[..., 0] * sq(_stencil(dom, along_u, 0, 2, accuracy))
    fuv = _stencil(dom, fv, 0, 1, accuracy)
    norm2 += 2.0 * ginv[..., 0] * ginv[..., 1] * sq(fuv - G[..., 1, None] * fv[p:-p])
    del fv, fuv
    norm2 += ginv[..., 1] * ginv[..., 1] * sq(_stencil(dom, along_v, 1, 2, accuracy)
                                               - G[..., 0, None] * fu)
    return J, norm2


def pullback_field(J):
    """Chart components of the pullback metric f*gbar, shape (..., 2, 2).

    E, F and G are the dot products of the two Jacobian columns.
    """
    Ju, Jv = J[..., 0], J[..., 1]
    P = np.empty(J.shape[:-2] + (2, 2))
    P[..., 0, 0] = dot(Ju, Ju)
    P[..., 0, 1] = P[..., 1, 0] = dot(Ju, Jv)
    P[..., 1, 1] = dot(Jv, Jv)
    return P


def energy_density_field(J, ginv):
    """The energy density (1/2) sum_i g^ii |J_i|^2 = |df|^2 / 2 at the
    nodes of the Jacobian J, ginv the inverse metric diagonal there."""
    return sum(ginv[..., d] * dot(J[..., d], J[..., d]) for d in range(2)) / 2.0


def spectrum(lam):
    """(lam desc, S) from the ascending eigenvalues of g^{-1} f*gbar.

    lam are clamped at zero; S is their sum, |df|^2 (the energy density
    is S / 2).
    """
    lam = np.where(lam > -1e-12, np.maximum(lam, 0.0), lam)[..., ::-1]
    return lam, total(lam)


def total_energy(f):
    """Quadrature of the energy density over the domain."""
    return float(np.sum(f.energy_density * f.domain.quad_weight_grid()))


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
