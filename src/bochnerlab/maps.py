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
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

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
    Jacobian is not (6 MB per map at 256x512 into R^3).
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
        J = jacobian_field(self)
        ginv = self.domain.inv_metric_diag_grid()
        S = sum(ginv[..., d] * dot(J[..., d], J[..., d]) for d in range(2))
        return read_only(S / 2.0)

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


def derivative(domain, F, axis, order=1, accuracy=2):
    """Central finite difference of a node field along a chart axis.

    `order` is 1 or 2 and `accuracy` 2 or 6; the stencil has
    accuracy + 1 points and acts on the domain's periodic (torus) or
    antipodal (sphere) continuation of F.
    """
    return _stencil(domain, domain.extend(F, axis, accuracy // 2), axis, order, accuracy)


def _stencil(domain, Fp, axis, order, accuracy):
    """`derivative` of the field that Fp continues by accuracy // 2 nodes along axis."""
    weights, den = _STENCILS[order, accuracy]
    p = accuracy // 2
    n = Fp.shape[axis] - 2 * p
    out = None
    for k, c in zip(range(2 * p, -1, -1), weights):
        if c:
            term = c * (Fp[k:k + n] if axis == 0 else Fp[:, k:k + n])
            out = term if out is None else out + term
    return out / (den * domain.spacing[axis] ** order)


def jacobian_field(f, accuracy=2):
    """Tangent-projected chart Jacobian, shape (n1, n2, m, 2).

    Both chart derivatives go through one `tangent_part` call; the
    result is a view whose columns J[..., i] are contiguous.
    """
    du = derivative(f.domain, f.values, 0, accuracy=accuracy)
    dv = derivative(f.domain, f.values, 1, accuracy=accuracy)
    rows = f.target.tangent_part(f.values[..., None, :], np.stack([du, dv], axis=-2))
    return np.swapaxes(rows, -1, -2)


def pullback_field(J):
    """Chart components of the pullback metric f*gbar, shape (..., 2, 2).

    E, F and G are the dot products of the two Jacobian columns.
    """
    Ju, Jv = J[..., 0], J[..., 1]
    E, F, G = dot(Ju, Ju), dot(Ju, Jv), dot(Jv, Jv)
    return np.stack([np.stack([E, F], axis=-1), np.stack([F, G], axis=-1)], axis=-2)


def spectrum(lam):
    """(lam desc, S, e) from the ascending eigenvalues of g^{-1} f*gbar.

    lam are clamped at zero; S is their sum (= |df|^2) and e = S / 2.
    """
    lam = np.where(lam > -1e-12, np.maximum(lam, 0.0), lam)[..., ::-1]
    S = lam.sum(axis=-1)
    return lam, S, S / 2.0


def energy_density_field(f):
    """e = trace_g(f*gbar) / 2 without an eigensolve."""
    return f.energy_density


def total_energy(f):
    """Quadrature of the energy density over the domain."""
    return float(np.sum(f.energy_density * f.domain.quad_weight_grid()))


def tension_field(f):
    """Tension tau = tangential part of the componentwise Laplace-Beltrami."""
    return f.tension


def hessian_field(f, accuracy=2):
    """Squared norm |H|^2 of the second fundamental form of the map.

    H_ij = P(f) (d_i d_j f - Gamma^k_ij d_k f), the chart derivatives
    taken with stencils of the given accuracy.  The chart is a warped
    product, so H_uu = f_uu, H_uv = H_vu = f_uv - Gamma^v_uv f_v and
    H_vv = f_vv - Gamma^u_vv f_u before the projection, and the metric
    is diagonal, so |H|^2 = sum_ij g^ii g^jj |H_ij|^2.  Each component
    is projected and added in as soon as it is taken, so only a few
    node fields are held at once and H itself is never formed.
    """
    dom = f.domain
    v = f.values
    G = dom.christoffel_grid()  # (Gamma^u_vv, Gamma^v_uv)
    ginv = dom.inv_metric_diag_grid()

    def sq(Hij):
        Hij = f.target.tangent_part(v, Hij)
        return dot(Hij, Hij)

    # the values continued across both axes once, for their four derivatives
    p = accuracy // 2
    vp = dom.extend(dom.extend(v, 0, p), 1, p)
    along_u, along_v = vp[:, p:-p], vp[p:-p]
    norm2 = ginv[..., 0] * ginv[..., 0] * sq(_stencil(dom, along_u, 0, 2, accuracy))
    fv = _stencil(dom, along_v, 1, 1, accuracy)
    fuv = derivative(dom, fv, 0, 1, accuracy)
    norm2 += 2.0 * ginv[..., 0] * ginv[..., 1] * sq(fuv - G[..., 1, None] * fv)
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
