"""Target manifolds as isometrically embedded submanifolds of R^m.

Every target exposes the tangent part P(q) V of ambient vectors V
(`tangent_part`, matrix-free: V less its components along the unit
normals at q), a closest-point map onto the submanifold, and an
analytic second fundamental form A(X, Y).  Each takes the ambient axis
an index at a time (`numerics.per_index`), with the bits of its
broadcast formula.
Ambient space is flat, so the Gauss equation

    <R(X, Y) Y, X> = <A(X, X), A(Y, Y)> - |A(X, Y)|^2

(`gauss_numerator`) gives the curvature from A.  Besides Euclidean
space and the ellipsoid, the targets are products of round spheres
(S^k(r), the flat torus S^1(rho_1) x ... x S^1(rho_k) and
S^2(r1) x S^2(r2)), which share one implementation, `_RoundSpheres`.
Each target also gives in closed form the least and greatest
eigenvalue of its curvature operator on the 2-vectors of T_q
(`sec_range`); every eigenvector is decomposable for these kinds, so
the two are the least and greatest sectional curvature at q.  On every
kind but S^2(r1) x S^2(r2) they agree, and `sectional_curvature` reads
their one value as the curvature of every plane.  The Bochner
passes read them at every image node, and the contraction pass checks
its Gauss contraction against them there.  The region extremizer
`sec_max_over_region` takes the greatest over a point set, so it is
deterministic and monotone under set inclusion.  `sec_bounds` is the
least and greatest over the whole target, also in closed form; every
pinching report writes its greatest as `sec_max_global_sample`.

A point is on target when its `constraint_residual`, relative to the
target's size (| |q|^2 / r^2 - 1 | per sphere factor), is at most
ON_TARGET_TOL, so the closest-point map's values pass at any radius.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    ChartDomainError,
    DegeneratePlaneError,
    NumericalError,
    UsageError,
)
from .numerics import dot, fmt_param, norm, per_index, total

ON_TARGET_TOL = 1e-8
PROJECTION_MAX_ITER = 50
PROJECTION_TOL = 1e-13


def _finite_norm(x):
    """Norm over the last axis, kept; NumericalError where it is not finite,
    as for a point beyond about 1e154, whose squares overflow."""
    with np.errstate(over="ignore"):
        nrm = norm(x)[..., None]
    if not np.all(np.isfinite(nrm)):
        raise NumericalError("closest-point map overflows on a huge point")
    return nrm


def _drop_normal(n, V, s, blocks=1):
    """V less its components s = <n, V> along the unit normals n, one a
    block of the last axis: V_k - n_k s."""
    return per_index(lambda nk, Vk, sk, out: np.subtract(Vk, nk * sk, out), n, V, s,
                     blocks=blocks)


class _Target:
    """What every target derives from its own `tangent_part(q, V)`, which
    returns P(q) V along V's last axis, q broadcast against V, and from
    its global curvature range `sec_bounds` = (least, greatest)."""

    def sec_range(self, q):
        """Least and greatest curvature-operator eigenvalue at each point,
        as read-only views of `sec_bounds`: a target whose curvature
        varies overrides this."""
        shape, (least, greatest) = np.shape(q)[:-1], self.sec_bounds
        return np.broadcast_to(least, shape), np.broadcast_to(greatest, shape)

    def tangent_projector(self, q):
        """Dense projector P(q), shape q.shape[:-1] + (m, m).

        For tests and tools; the library projects with `tangent_part`.
        """
        q = np.asarray(q, dtype=float)
        return self.tangent_part(q[..., None, :], np.eye(self.m))


@dataclass(frozen=True)
class Euclidean(_Target):
    """Flat R^m."""

    m: int = 3

    kind = "euclid"

    def __post_init__(self):
        if self.m < 2:
            raise UsageError("ambient dimension must be at least 2")

    @property
    def dim(self):
        return self.m

    def descriptor(self):
        return f"euclid:m={self.m}"

    def constraint_residual(self, q):
        q = np.asarray(q, dtype=float)
        return np.zeros(q.shape[:-1])

    def closest_point(self, x):
        return np.asarray(x, dtype=float).copy()

    def tangent_part(self, q, V):
        return np.broadcast_to(V, np.broadcast_shapes(np.shape(q), np.shape(V)))

    def second_fundamental(self, q, X, Y):
        return np.zeros(np.broadcast_shapes(np.shape(q), np.shape(X), np.shape(Y)))

    sec_bounds = (0.0, 0.0)


class _RoundSpheres(_Target):
    """Riemannian product S^d(r_1) x ... x S^d(r_p) in R^{p(d+1)}.

    A subclass gives `_factors`, its radii and the factor dimension d.
    The ambient coordinates are p blocks of d + 1, one sphere each, and
    every formula is the sphere's applied blockwise: factor i has unit
    normal q_i / r_i and second fundamental form
    A(X, Y) = -<X_i, Y_i> q_i / r_i^2.  A plane inside a factor of
    dimension d >= 2 has curvature 1 / r_i^2 and a plane that mixes
    factors is flat, at every point.
    """

    @property
    def m(self):
        radii, d = self._factors
        return len(radii) * (d + 1)

    @property
    def dim(self):
        radii, d = self._factors
        return len(radii) * d

    @property
    def _r(self):
        # against the blocks; one radius stays a Python scalar (faster)
        radii = self._factors[0]
        return radii[0] if len(radii) == 1 else np.array(radii, dtype=float)[:, None]

    def _blocks(self, x):
        radii, d = self._factors
        x = np.asarray(x, dtype=float)
        return x.reshape(x.shape[:-1] + (len(radii), d + 1))

    @property
    def _sec_values(self):
        """Every sectional curvature the target takes, at any point."""
        radii, d = self._factors
        values = {1.0 / r**2 for r in radii} if d >= 2 else set()
        return values | {0.0} if len(radii) >= 2 else values

    @property
    def sec_bounds(self):
        return min(self._sec_values), max(self._sec_values)

    def constraint_residual(self, q):
        p = self._blocks(q)
        res = np.abs(dot(p, p)[..., None] / self._r**2 - 1.0)
        return np.max(res, axis=(-2, -1))

    def closest_point(self, x):
        nrm = _finite_norm(self._blocks(x))[..., 0]
        if np.any(nrm < 1e-14):
            raise NumericalError("closest-point map undefined at the origin")
        # r p / |p|, each factor's radius and norm against its coordinates
        radii = self._factors[0]
        return per_index(lambda rk, pk, nk, out: np.divide(rk * pk, nk, out),
                         np.array(radii, dtype=float), x, nrm, blocks=len(radii))

    def tangent_part(self, q, V):
        # the unit normals q_i / r_i
        radii = self._factors[0]
        n = per_index(np.divide, q, np.array(radii, dtype=float), blocks=len(radii))
        return _drop_normal(n, V, dot(self._blocks(n), self._blocks(V)), len(radii))

    def second_fundamental(self, q, X, Y):
        # -<X_i, Y_i> q_i / r_i^2, with r_i^2 as `_r**2` takes it: a Python
        # power for one radius, numpy's square for several, which can
        # differ in the last bit
        s = -dot(self._blocks(X), self._blocks(Y))
        return per_index(lambda sk, qk, r2k, out: np.divide(sk * qk, r2k, out),
                         s, q, np.reshape(self._r**2, -1), blocks=len(self._factors[0]))


@dataclass(frozen=True)
class Sphere(_RoundSpheres):
    """Round k-sphere of radius r embedded in R^{k+1}."""

    k: int = 2
    r: float = 1.0

    kind = "sphere"

    def __post_init__(self):
        if self.k < 2:
            raise UsageError("sphere dimension must be at least 2")
        if self.r <= 0:
            raise UsageError("sphere radius must be positive")

    @property
    def _factors(self):
        return (self.r,), self.k

    def descriptor(self):
        k = f",k={self.k}" if self.k != 2 else ""
        return f"sphere:r={fmt_param(self.r)}{k}"


@dataclass(frozen=True)
class FlatTorusEmb(_RoundSpheres):
    """Product of k circles of radii rho_i, embedded in R^{2k}.  Flat."""

    radii: tuple = (1.0, 1.0)

    kind = "torusemb"

    def __post_init__(self):
        if len(self.radii) < 2:
            raise UsageError("embedded torus needs at least 2 circle factors")
        if any(r <= 0 for r in self.radii):
            raise UsageError("circle radii must be positive")

    @property
    def _factors(self):
        return self.radii, 1

    def descriptor(self):
        inner = ",".join(f"rho{i + 1}={fmt_param(r)}" for i, r in enumerate(self.radii))
        return f"torusemb:{inner}"


@dataclass(frozen=True)
class ProductSpheres(_RoundSpheres):
    """S^2(r1) x S^2(r2) embedded in R^6 with the product metric."""

    r1: float = 1.0
    r2: float = 2.0

    kind = "prodspheres"

    def __post_init__(self):
        if self.r1 <= 0 or self.r2 <= 0:
            raise UsageError("sphere radii must be positive")

    @property
    def _factors(self):
        return (self.r1, self.r2), 2

    def descriptor(self):
        return f"prodspheres:r1={fmt_param(self.r1)},r2={fmt_param(self.r2)}"


@dataclass(frozen=True)
class Ellipsoid(_Target):
    """Surface x^2/a^2 + y^2/b^2 + z^2/c^2 = 1 in R^3."""

    a: float = 1.0
    b: float = 1.0
    c: float = 2.0

    kind = "ellipsoid"
    m = 3
    dim = 2

    def __post_init__(self):
        if min(self.a, self.b, self.c) <= 0:
            raise UsageError("ellipsoid semi-axes must be positive")

    def descriptor(self):
        a, b, c = (fmt_param(v) for v in (self.a, self.b, self.c))
        return f"ellipsoid:a={a},b={b},c={c}"

    @property
    def _w(self):
        return np.array([self.a, self.b, self.c], dtype=float) ** -2

    def constraint_residual(self, q):
        q = np.asarray(q, dtype=float)
        return np.abs(dot(self._w * q, q) - 1.0)

    def closest_point(self, x):
        """Euclidean closest point via Newton on the Lagrange multiplier.

        Stationarity gives x_i = p_i / (1 + mu w_i); mu solves
        sum w_i p_i^2 / (1 + mu w_i)^2 = 1.  Valid inside the
        projection tube around the surface.  A point whose |phi| is
        below PROJECTION_TOL takes one more step, which brings it to
        round-off, and stops; so each point projects to the same bits
        whatever other points share the call.
        """
        p = np.asarray(x, dtype=float)
        w = self._w
        mu = np.zeros(p.shape[:-1])
        done = np.zeros(mu.shape, dtype=bool)
        lo = -0.9 / w.max()
        _finite_norm(p)  # a huge point would overflow p * p below
        # the numerators' factors w p p and w^2 p p, which mu leaves as they are
        wpp, w2pp = (per_index(lambda ck, pk, out: np.multiply(ck * pk, pk, out), c, p)
                     for c in (w, w**2))

        def denominator():  # 1 + mu w
            return per_index(lambda mk, wk, out: np.add(1.0, mk * wk, out), mu[..., None], w)

        for _ in range(PROJECTION_MAX_ITER):
            if np.all(done):
                break
            d = denominator()
            phi = total(wpp / d**2) - 1.0
            dphi = -2.0 * total(w2pp / d**3)
            mu = np.where(done, mu, np.maximum(mu - phi / dphi, lo))
            done |= np.abs(phi) < PROJECTION_TOL
        else:
            phi = total(wpp / denominator()**2) - 1.0
            if not np.all(np.abs(phi) <= 1e-10):
                raise NumericalError("ellipsoid projection did not converge")
        return p / denominator()

    def tangent_part(self, q, V):
        # the unit normal is W q / |W q|, W = diag(a, b, c)^-2
        grad = per_index(np.multiply, self._w, q)
        n = per_index(np.divide, grad, norm(grad)[..., None])
        return _drop_normal(n, V, dot(n, V)[..., None])

    def second_fundamental(self, q, X, Y):
        # A(X, Y) = -n <W X, Y> / |W q| for tangent X, Y, n = W q / |W q|
        wq, wX = (per_index(np.multiply, self._w, v) for v in (q, X))
        grad_norm = norm(wq)[..., None]
        coef = -dot(wX, np.asarray(Y, dtype=float))[..., None] / grad_norm
        return per_index(lambda ck, wqk, gk, out: np.multiply(ck, wqk / gk, out),
                         coef, wq, grad_norm)

    def sec_range(self, q):
        # Gauss curvature 1/(a^2 b^2 c^2 h^4), h^2 = x^2/a^4 + y^2/b^4 + z^2/c^4
        q = np.asarray(q, dtype=float)
        h2 = dot(self._w**2 * q, q)
        K = 1.0 / ((self.a * self.b * self.c) ** 2 * h2**2)
        return K, K

    @property
    def sec_bounds(self):
        # K = (abc)^-2 h^-4 and h^2 = sum y_i / a_i^2 is linear in
        # y_i = x_i^2 / a_i^2 on the simplex: its extremes sit at the axes
        K = [s**4 / (self.a * self.b * self.c) ** 2 for s in (self.a, self.b, self.c)]
        return min(K), max(K)


# -- sectional curvature -----------------------------------------------------


def gauss_numerator(target, q, X, Y):
    """<R(X, Y) Y, X> = <A(X, X), A(Y, Y)> - |A(X, Y)|^2, the Gauss
    equation with the analytic A."""
    Axx = target.second_fundamental(q, X, X)
    Ayy = target.second_fundamental(q, Y, Y)
    Axy = target.second_fundamental(q, X, Y)
    return dot(Axx, Ayy) - dot(Axy, Axy)


def sectional_curvature(target, q, X, Y):
    """Sectional curvature of the 2-plane span(X, Y) at an on-target point:
    the one value of `sec_range` where its least and greatest agree, else
    the Gauss equation, for which X, Y need not be orthonormal."""
    q, X, Y = (np.asarray(v, dtype=float) for v in (q, X, Y))
    res = float(target.constraint_residual(q))
    if not np.all(res <= ON_TARGET_TOL):
        raise ChartDomainError(f"base point off target (residual {res:.3e})")
    norms = dot(X, X) * dot(Y, Y)
    gram = norms - dot(X, Y) ** 2
    if not gram > 1e-14 * norms:  # relative: scaling X or Y moves nothing
        raise DegeneratePlaneError("vectors do not span a 2-plane")
    least, greatest = target.sec_range(q)
    return float(greatest if least == greatest else gauss_numerator(target, q, X, Y) / gram)


def sec_max_over_region(target, points):
    """Maximum sectional curvature over all 2-planes at the given points.

    Returns (value, the first point that reaches it), from the target's
    closed-form `sec_range`: the greatest curvature-operator eigenvalue,
    which is the largest sectional curvature there.
    """
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    if pts.size == 0 or pts.shape[-1] != target.m:
        raise UsageError(f"Sec_max needs a nonempty set of points in R^{target.m}, "
                         f"got shape {pts.shape}")
    res = np.max(target.constraint_residual(pts))
    if not res <= ON_TARGET_TOL:
        raise ChartDomainError(f"point set contains off-target points (max residual {res:.3e})")
    greatest = target.sec_range(pts)[1]
    b = int(np.argmax(greatest))
    return float(greatest[b]), pts[b]
