"""Small shared numerical helpers: batched generalized eigensolves
against a diagonal metric, Fejer quadrature weights, 17-significant-digit
float formatting for byte-stable output files and read-only cached
arrays.
"""

from __future__ import annotations

import numpy as np

from .errors import NumericalError


def gen_eigh(P, gd):
    """Solve P v = lam g v (batched) for a diagonal metric g = diag(gd).

    P is (..., n, n) symmetric and gd the metric diagonal (..., n),
    positive.  With d = gd^{-1/2} the problem is the symmetric one for
    A_ij = d_i P_ij d_j, and v = d W for its eigenvectors W.  Returns
    (lam, vecs) with eigenvalues ascending along the last axis and
    eigenvector columns g-orthonormal.  lam are the eigenvalues of
    g^{-1} P, i.e. the squared singular values when P is a pullback
    metric.
    """
    P = np.asarray(P, dtype=float)
    gd = np.asarray(gd, dtype=float)
    if not np.all(gd > 0):
        raise NumericalError("metric not positive definite")
    d = 1.0 / np.sqrt(gd)
    A = d[..., :, None] * P * d[..., None, :]
    A = 0.5 * (A + np.swapaxes(A, -1, -2))
    lam, W = np.linalg.eigh(A)
    return lam, d[..., :, None] * W


def fejer1_weights(n):
    """Weights of Fejer's first rule on [-1, 1] (Waldvogel 2006).

    The nodes are cos(theta_k) with theta_k = (k + 1/2) pi / n,
    k = 0..n-1; the rule is exact for polynomials of degree below n.
    As a rule in theta it integrates g(theta) sin(theta) over [0, pi].
    """
    theta = (np.arange(n) + 0.5) * np.pi / n
    j = np.arange(1, n // 2 + 1)
    series = np.cos(2.0 * np.outer(theta, j)) / (4.0 * j * j - 1.0)
    return 2.0 / n * (1.0 - 2.0 * series.sum(axis=1))


def fmt17(x):
    """Format a float with 17 significant digits (round-trip stable)."""
    return format(float(x), ".17g")


def read_only(a):
    """Mark a cached array read-only and return it."""
    a.flags.writeable = False
    return a
