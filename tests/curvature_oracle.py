"""Curvature from the embedding alone, the oracle for the targets' closed
forms: a tangent frame, the curvature operator on 2-vectors, a
Gauss-equation value from finite differences of the projector, and the
Gauss quotient of many planes at once.  Also seeded points on a target."""

import numpy as np

from bochnerlab.errors import DegeneratePlaneError
from bochnerlab.numerics import norm
from bochnerlab.targets import gauss_numerator


def sample_points(target, count, rng):
    """`count` points of the target from the generator `rng`: standard
    normal ones in Euclidean space, normal directions scaled by the
    semi-axes on the ellipsoid, and the closest points of normal ones on
    the round targets."""
    x = rng.standard_normal((count, target.m))
    if target.kind == "euclid":
        return x
    if target.kind == "ellipsoid":
        x /= norm(x)[..., None]
        return x * np.array([target.a, target.b, target.c])
    return target.closest_point(x)


def gauss_sectional_fd(target, q, X, Y, eps=1e-5):
    """Gauss-equation sectional value with A from finite differences of P.

    A(X, Y) = (I - P) (D_X P) Y, with D_X P differenced along the
    projected curve through q.  Independent of the analytic A.
    """
    q = np.asarray(q, dtype=float)
    P = target.tangent_projector(q)
    N = np.eye(target.m) - P

    def A(U, V):
        dP = (
            target.tangent_projector(target.closest_point(q + eps * U))
            - target.tangent_projector(target.closest_point(q - eps * U))
        ) / (2 * eps)
        return N @ (dP @ V)

    num = float(A(X, X) @ A(Y, Y) - A(X, Y) @ A(X, Y))
    gram = float(np.dot(X, X) * np.dot(Y, Y) - np.dot(X, Y) ** 2)
    if gram < 1e-14:
        raise DegeneratePlaneError("vectors do not span a 2-plane")
    return num / gram


def sectional_batch(target, q, X, Y):
    """Sectional curvature of span(X, Y) at q from the Gauss equation with
    the analytic A, batched over q, X and Y together, no validity checks:
    X, Y need not be orthonormal, and a degenerate pair reads as a
    non-finite value."""
    q, X, Y = (np.asarray(v, dtype=float) for v in (q, X, Y))
    gram = np.sum(X * X, axis=-1) * np.sum(Y * Y, axis=-1) - np.sum(X * Y, axis=-1) ** 2
    with np.errstate(divide="ignore", invalid="ignore"):
        return gauss_numerator(target, q, X, Y) / gram


def tangent_basis(target, q):
    """Orthonormal basis of T_q as columns of an (..., m, k) array."""
    P = target.tangent_projector(q)
    evals, evecs = np.linalg.eigh(P)
    # projector eigenvalues are 0/1; tangent directions are the top k
    return evecs[..., -target.dim:]


def curvature_operator(target, q):
    """Curvature operator on the 2-vectors of T_q, batched over points (..., m).

    Returns (R, T).  T is the orthonormal frame of `tangent_basis`, and R
    (..., p, p) with p = k(k-1)/2 holds, over the index pairs a < b in
    `np.triu_indices(k, 1)` order,

        <R(e_a ^ e_b), e_c ^ e_d> = <A(e_b, e_d), A(e_a, e_c)>
                                    - <A(e_a, e_d), A(e_b, e_c)>.

    Its diagonal holds the sectional curvatures of the coordinate planes.
    """
    q = np.asarray(q, dtype=float)
    T = tangent_basis(target, q)
    E = np.swapaxes(T, -1, -2)  # frame vectors e_a along axis -2
    A = target.second_fundamental(
        q[..., None, None, :], E[..., :, None, :], E[..., None, :, :]
    )
    G = np.einsum("...abm,...cdm->...abcd", A, A)  # <A_ab, A_cd>
    a, b = np.triu_indices(target.dim, 1)
    a1, a2, b1, b2 = a[:, None], a[None, :], b[:, None], b[None, :]
    return G[..., a1, a2, b1, b2] - G[..., a1, b2, b1, a2], T
