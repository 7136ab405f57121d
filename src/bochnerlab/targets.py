"""Target manifolds as isometrically embedded submanifolds of R^m.

Every target exposes a tangent projector P(q), a closest-point map onto
the submanifold, and an analytic second fundamental form A(X, Y).
Ambient space is flat, so sectional curvature comes from the Gauss
equation

    <R(X, Y) Y, X> = <A(X, X), A(Y, Y)> - |A(X, Y)|^2,

with closed-form overrides for the constant-curvature kinds.  Each
target also gives in closed form the least and greatest eigenvalue of
its curvature operator on the 2-vectors of T_q (`sec_range`); every
eigenvector is decomposable for these kinds, so the two are the least
and greatest sectional curvature at q.  The region extremizer takes
their extremes over a point set, so it is deterministic and monotone
under set inclusion.
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

ON_TARGET_TOL = 1e-8
PROJECTION_MAX_ITER = 50
PROJECTION_TOL = 1e-13


def _finite_norm(x):
    """Norm over the last axis, kept; NumericalError where it is not finite,
    as for a point beyond about 1e154, whose squares overflow."""
    with np.errstate(over="ignore"):
        nrm = np.linalg.norm(x, axis=-1, keepdims=True)
    if not np.all(np.isfinite(nrm)):
        raise NumericalError("closest-point map overflows on a huge point")
    return nrm


class _ConstantCurvature:
    """A target whose curvature operator is constant_sec times the identity."""

    def sec_range(self, q):
        """Least and greatest curvature-operator eigenvalue at each point."""
        sec = np.full(np.shape(q)[:-1], self.constant_sec)
        return sec, sec


@dataclass(frozen=True)
class Euclidean(_ConstantCurvature):
    """Flat R^m."""

    m: int = 3

    kind = "euclid"
    constant_sec = 0.0

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

    def tangent_projector(self, q):
        q = np.asarray(q, dtype=float)
        return np.broadcast_to(np.eye(self.m), q.shape[:-1] + (self.m, self.m)).copy()

    def second_fundamental(self, q, X, Y):
        X = np.asarray(X, dtype=float)
        return np.zeros(np.broadcast_shapes(X.shape, np.shape(Y)))

    def sample_points(self, count, rng):
        return rng.standard_normal((count, self.m))


@dataclass(frozen=True)
class Sphere(_ConstantCurvature):
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
    def m(self):
        return self.k + 1

    @property
    def dim(self):
        return self.k

    @property
    def constant_sec(self):
        return 1.0 / self.r**2

    def descriptor(self):
        return f"sphere:r={self.r:g}"

    def constraint_residual(self, q):
        q = np.asarray(q, dtype=float)
        return np.abs(np.sum(q * q, axis=-1) - self.r**2)

    def closest_point(self, x):
        x = np.asarray(x, dtype=float)
        nrm = _finite_norm(x)
        if np.any(nrm < 1e-14):
            raise NumericalError("closest-point map undefined at the origin")
        return self.r * x / nrm

    def tangent_projector(self, q):
        q = np.asarray(q, dtype=float)
        eye = np.eye(self.m)
        return eye - q[..., :, None] * q[..., None, :] / self.r**2

    def second_fundamental(self, q, X, Y):
        q = np.asarray(q, dtype=float)
        X = np.asarray(X, dtype=float)
        Y = np.asarray(Y, dtype=float)
        return -np.sum(X * Y, axis=-1)[..., None] * q / self.r**2

    def sample_points(self, count, rng):
        return self.closest_point(rng.standard_normal((count, self.m)))


@dataclass(frozen=True)
class FlatTorusEmb(_ConstantCurvature):
    """Product of k circles of radii rho_i, embedded in R^{2k}.  Flat."""

    radii: tuple = (1.0, 1.0)

    kind = "torusemb"
    constant_sec = 0.0

    def __post_init__(self):
        if len(self.radii) < 2:
            raise UsageError("embedded torus needs at least 2 circle factors")
        if any(r <= 0 for r in self.radii):
            raise UsageError("circle radii must be positive")

    @property
    def k(self):
        return len(self.radii)

    @property
    def m(self):
        return 2 * self.k

    @property
    def dim(self):
        return self.k

    def descriptor(self):
        inner = ",".join(f"rho{i + 1}={r:g}" for i, r in enumerate(self.radii))
        return f"torusemb:{inner}"

    def _pairs(self, q):
        return np.asarray(q, dtype=float).reshape(q.shape[:-1] + (self.k, 2))

    def constraint_residual(self, q):
        p = self._pairs(np.asarray(q, dtype=float))
        res = np.abs(np.sum(p * p, axis=-1) - np.square(self.radii))
        return np.max(res, axis=-1)

    def closest_point(self, x):
        x = np.asarray(x, dtype=float)
        p = self._pairs(x)
        nrm = _finite_norm(p)
        if np.any(nrm < 1e-14):
            raise NumericalError("closest-point map undefined at a circle axis")
        p = p * (np.asarray(self.radii)[:, None] / nrm)
        return p.reshape(x.shape)

    def tangent_projector(self, q):
        q = np.asarray(q, dtype=float)
        p = self._pairs(q)
        rho2 = np.square(self.radii)
        P = np.zeros(q.shape[:-1] + (self.m, self.m))
        for i in range(self.k):
            s = slice(2 * i, 2 * i + 2)
            blk = np.eye(2) - p[..., i, :, None] * p[..., i, None, :] / rho2[i]
            P[..., s, s] = blk
        return P

    def second_fundamental(self, q, X, Y):
        q = np.asarray(q, dtype=float)
        shape = np.broadcast_shapes(np.shape(X), np.shape(Y), q.shape)
        Xp = self._pairs(np.broadcast_to(np.asarray(X, float), shape))
        Yp = self._pairs(np.broadcast_to(np.asarray(Y, float), shape))
        qp = self._pairs(np.broadcast_to(q, shape))
        rho2 = np.square(self.radii)
        A = -np.sum(Xp * Yp, axis=-1)[..., None] * qp / rho2[:, None]
        return A.reshape(shape)

    def sample_points(self, count, rng):
        ang = rng.uniform(0, 2 * np.pi, size=(count, self.k))
        p = np.stack([np.cos(ang), np.sin(ang)], axis=-1)
        p *= np.asarray(self.radii)[:, None]
        return p.reshape(count, self.m)


@dataclass(frozen=True)
class Ellipsoid:
    """Surface x^2/a^2 + y^2/b^2 + z^2/c^2 = 1 in R^3."""

    a: float = 1.0
    b: float = 1.0
    c: float = 2.0

    kind = "ellipsoid"
    constant_sec = None
    m = 3
    dim = 2

    def __post_init__(self):
        if min(self.a, self.b, self.c) <= 0:
            raise UsageError("ellipsoid semi-axes must be positive")

    def descriptor(self):
        return f"ellipsoid:a={self.a:g},b={self.b:g},c={self.c:g}"

    @property
    def _w(self):
        return np.array([self.a, self.b, self.c], dtype=float) ** -2

    def constraint_residual(self, q):
        q = np.asarray(q, dtype=float)
        return np.abs(np.sum(self._w * q * q, axis=-1) - 1.0)

    def closest_point(self, x):
        """Euclidean closest point via Newton on the Lagrange multiplier.

        Stationarity gives x_i = p_i / (1 + mu w_i); mu solves
        sum w_i p_i^2 / (1 + mu w_i)^2 = 1.  Valid inside the
        projection tube around the surface.
        """
        p = np.asarray(x, dtype=float)
        w = self._w
        mu = np.zeros(p.shape[:-1])
        lo = -0.9 / w.max()
        _finite_norm(p)  # a huge point would overflow p * p below
        for _ in range(PROJECTION_MAX_ITER):
            d = 1.0 + mu[..., None] * w
            phi = np.sum(w * p * p / d**2, axis=-1) - 1.0
            if np.all(np.abs(phi) < PROJECTION_TOL):
                break
            dphi = -2.0 * np.sum(w**2 * p * p / d**3, axis=-1)
            mu = np.maximum(mu - phi / dphi, lo)
        else:
            d = 1.0 + mu[..., None] * w
            phi = np.sum(w * p * p / d**2, axis=-1) - 1.0
            if not np.all(np.abs(phi) <= 1e-10):
                raise NumericalError("ellipsoid projection did not converge")
        return p / (1.0 + mu[..., None] * w)

    def _unit_normal(self, q):
        q = np.asarray(q, dtype=float)
        grad = self._w * q
        return grad / np.linalg.norm(grad, axis=-1, keepdims=True)

    def tangent_projector(self, q):
        n = self._unit_normal(q)
        return np.eye(3) - n[..., :, None] * n[..., None, :]

    def second_fundamental(self, q, X, Y):
        # A(X, Y) = -n <W X, Y> / |W q| for tangent X, Y
        q = np.asarray(q, dtype=float)
        X = np.asarray(X, dtype=float)
        Y = np.asarray(Y, dtype=float)
        w = self._w
        grad_norm = np.linalg.norm(w * q, axis=-1)
        n = self._unit_normal(q)
        coef = -np.sum(w * X * Y, axis=-1) / grad_norm
        return coef[..., None] * n

    def sec_range(self, q):
        # Gauss curvature 1/(a^2 b^2 c^2 h^4), h^2 = x^2/a^4 + y^2/b^4 + z^2/c^4
        q = np.asarray(q, dtype=float)
        h2 = np.sum(self._w**2 * q * q, axis=-1)
        K = 1.0 / ((self.a * self.b * self.c) ** 2 * h2**2)
        return K, K

    def sample_points(self, count, rng):
        u = rng.standard_normal((count, 3))
        u /= np.linalg.norm(u, axis=-1, keepdims=True)
        return u * np.array([self.a, self.b, self.c])


@dataclass(frozen=True)
class ProductSpheres:
    """S^2(r1) x S^2(r2) embedded in R^6 with the product metric."""

    r1: float = 1.0
    r2: float = 2.0

    kind = "prodspheres"
    constant_sec = None
    m = 6
    dim = 4

    def __post_init__(self):
        if self.r1 <= 0 or self.r2 <= 0:
            raise UsageError("sphere radii must be positive")

    def descriptor(self):
        return f"prodspheres:r1={self.r1:g},r2={self.r2:g}"

    def _factors(self):
        return Sphere(2, self.r1), Sphere(2, self.r2)

    def constraint_residual(self, q):
        q = np.asarray(q, dtype=float)
        s1, s2 = self._factors()
        return np.maximum(
            s1.constraint_residual(q[..., :3]), s2.constraint_residual(q[..., 3:])
        )

    def closest_point(self, x):
        x = np.asarray(x, dtype=float)
        s1, s2 = self._factors()
        return np.concatenate(
            [s1.closest_point(x[..., :3]), s2.closest_point(x[..., 3:])], axis=-1
        )

    def tangent_projector(self, q):
        q = np.asarray(q, dtype=float)
        s1, s2 = self._factors()
        P = np.zeros(q.shape[:-1] + (6, 6))
        P[..., :3, :3] = s1.tangent_projector(q[..., :3])
        P[..., 3:, 3:] = s2.tangent_projector(q[..., 3:])
        return P

    def second_fundamental(self, q, X, Y):
        q = np.asarray(q, dtype=float)
        X = np.asarray(X, dtype=float)
        Y = np.asarray(Y, dtype=float)
        s1, s2 = self._factors()
        return np.concatenate(
            [
                s1.second_fundamental(q[..., :3], X[..., :3], Y[..., :3]),
                s2.second_fundamental(q[..., 3:], X[..., 3:], Y[..., 3:]),
            ],
            axis=-1,
        )

    def sec_range(self, q):
        # the 2-vectors of one factor carry 1/r^2; the mixed ones are flat
        shape = np.shape(q)[:-1]
        return np.zeros(shape), np.full(shape, 1.0 / min(self.r1, self.r2) ** 2)

    def sample_points(self, count, rng):
        s1, s2 = self._factors()
        return np.concatenate(
            [s1.sample_points(count, rng), s2.sample_points(count, rng)], axis=-1
        )


# -- sectional curvature -----------------------------------------------------


def _gauss_numerator(target, q, X, Y):
    """<R(X, Y) Y, X> from the Gauss equation with the analytic A."""
    Axx = target.second_fundamental(q, X, X)
    Ayy = target.second_fundamental(q, Y, Y)
    Axy = target.second_fundamental(q, X, Y)
    return np.sum(Axx * Ayy, axis=-1) - np.sum(Axy * Axy, axis=-1)


def sectional_batch(target, q, X, Y):
    """Sectional curvature of span(X, Y) at q, batched, no validity checks.

    X, Y need not be orthonormal; degenerate pairs yield nan.
    """
    if target.constant_sec is not None:
        X = np.asarray(X, dtype=float)
        shape = np.broadcast_shapes(X.shape[:-1], np.shape(Y)[:-1])
        return np.full(shape, target.constant_sec)
    X = np.asarray(X, dtype=float)
    Y = np.asarray(Y, dtype=float)
    gram = (
        np.sum(X * X, axis=-1) * np.sum(Y * Y, axis=-1)
        - np.sum(X * Y, axis=-1) ** 2
    )
    with np.errstate(divide="ignore", invalid="ignore"):
        return _gauss_numerator(target, q, X, Y) / gram


def sectional_curvature(target, q, X, Y):
    """Sectional curvature of the 2-plane span(X, Y) at an on-target point."""
    q = np.asarray(q, dtype=float)
    X = np.asarray(X, dtype=float)
    Y = np.asarray(Y, dtype=float)
    res = float(target.constraint_residual(q))
    if not np.all(res <= ON_TARGET_TOL):
        raise ChartDomainError(f"base point off target (residual {res:.3e})")
    gram = float(
        np.dot(X, X) * np.dot(Y, Y) - np.dot(X, Y) ** 2
    )
    if gram < 1e-14:
        raise DegeneratePlaneError("vectors do not span a 2-plane")
    if target.constant_sec is not None:
        return float(target.constant_sec)
    return float(_gauss_numerator(target, q, X, Y) / gram)


def curvature_bounds(target, points):
    """Least and greatest curvature-operator eigenvalue over the points.

    Returns (least, greatest, the first point that reaches the
    greatest), from the target's closed-form `sec_range`.  The greatest
    is the largest sectional curvature at the points; the least is
    nonnegative exactly when every sectional curvature there is.
    """
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    if pts.size == 0:
        raise UsageError("curvature bounds need a nonempty point set")
    if pts.shape[-1] != target.m:
        raise UsageError(
            f"points have ambient dimension {pts.shape[-1]}, expected {target.m}"
        )
    res = target.constraint_residual(pts)
    if not np.all(res <= ON_TARGET_TOL):
        raise ChartDomainError(
            f"point set contains off-target points (max residual {np.max(res):.3e})"
        )
    least, greatest = target.sec_range(pts)
    b = int(np.argmax(greatest))
    return float(np.min(least)), float(greatest[b]), pts[b]


def sec_max_over_region(target, points):
    """Maximum sectional curvature over all 2-planes at the given points.

    Returns (value, witness point) from `curvature_bounds`.
    """
    return curvature_bounds(target, points)[1:]
