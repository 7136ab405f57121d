"""Small shared numerical helpers: sums, dot products and norms over a
short last axis, and elementwise kernels along it (`per_index`), each
looping over that axis one index at a time rather than broadcasting
against it; the eigenvalues of the batched 2x2 generalized
eigenproblem against a diagonal metric, Fejer quadrature weights,
17-significant-digit float formatting for byte-stable output files,
exact descriptor parameters and read-only cached arrays.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import NumericalError, UsageError


def dot(X, Y):
    """Sum of X * Y over the last axis, which is short (the ambient m, a
    factor block or an eigenvalue pair), one index at a time.

    With `total` and `norm`, the package's one short-axis reduction:
    several times faster than np.sum over a short axis, and equal to it
    bit for bit below 8 terms but for an all-(-0.0) sum, which numpy
    starts from +0.0 and this from the first term.
    """
    out = X[..., 0] * Y[..., 0]
    for k in range(1, np.shape(X)[-1]):
        out += X[..., k] * Y[..., k]
    return out


def total(X):
    """Sum of X over its short last axis, one index at a time, as `dot`."""
    out = X[..., 0].copy()
    for k in range(1, X.shape[-1]):
        out += X[..., k]
    return out


def norm(X):
    """np.linalg.norm(X, axis=-1) in its own operations, sqrt(dot(X, X))."""
    return np.sqrt(dot(X, X))


def per_index(f, *X, blocks=1):
    """The array whose [..., k] is written by f(X_0[..., k], X_1[..., k],
    ..., out), out that column of it, for each index k of the short last
    axis in turn.

    Broadcast against the short axis (the ambient m, a factor block or
    the two Jacobian columns), a node array makes numpy run every inner
    loop over the 2 to 6 entries of that axis; taken an index at a time
    as `dot` adds, each numpy call in f runs over the nodes.  Each
    element sees the operations of the broadcast formula, so the result
    is the same bits.  f reads arrays through X alone and writes through
    numpy's out arguments.  The last axis of each array holds m entries
    (a constant per index, or a field), `blocks` entries, one for each
    run of m / blocks indices (a product target's factors), or one,
    which every index reads (a node array joins as X[..., None]).  The
    arrays' other axes broadcast, and when they are all one node shape,
    it is read as one axis, so that each column is a 1-D array, numpy's
    fastest loop.
    """
    X = [np.asarray(x) for x in X]
    m = max(x.shape[-1] for x in X)
    if any(x.shape[-1] not in (1, blocks, m) for x in X) or m % blocks:
        raise ValueError(f"shapes {[x.shape for x in X]} do not split {m} indices "
                         f"into {blocks} blocks")
    nodes = {x.shape[:-1] for x in X if x.ndim > 1}
    if len(nodes) == 1:
        (nodes,) = nodes
        X = [x.reshape(-1, x.shape[-1]) if x.ndim > 1 else x for x in X]
        out = np.empty((math.prod(nodes), m))
    else:
        nodes = np.broadcast(*(x[..., 0] for x in X)).shape
        out = np.empty(nodes + (m,))
    for k in range(m):
        f(*(x[..., k * x.shape[-1] // m] for x in X), out[..., k])
    return out.reshape(nodes + (m,))


def gen_eigvalsh(P, gd):
    """Eigenvalues of P v = lam g v (batched) for a diagonal 2x2 metric g = diag(gd).

    P is (..., 2, 2) symmetric and gd the metric diagonal (..., 2),
    positive.  With d = gd^{-1/2} the problem is the symmetric one for
    A_ij = d_i P_ij d_j = [[a, b], [b, c]], which one Jacobi rotation
    diagonalizes (Golub & Van Loan, Matrix Computations, Alg. 8.5.2):
    t = sign(tau) / (|tau| + hypot(1, tau)), tau = (c - a) / (2b), is
    the tangent of its angle, and the eigenvalues are a - t b and
    c + t b.  A diagonal A (b = 0, t = 0) gives back a and c exactly.
    Returns the eigenvalues ascending along the last axis: those of
    g^{-1} P, i.e. the squared singular values when P is a pullback
    metric.
    """
    P = np.asarray(P, dtype=float)
    gd = np.asarray(gd, dtype=float)
    if P.shape[-2:] != (2, 2):
        raise UsageError("gen_eigvalsh solves the 2x2 problem of a 2-D chart")
    if not np.all(gd > 0):
        raise NumericalError("metric not positive definite")
    d = 1.0 / np.sqrt(gd)
    d0, d1 = d[..., 0], d[..., 1]
    a = d0 * P[..., 0, 0] * d0
    c = d1 * P[..., 1, 1] * d1
    b = 0.5 * (d0 * P[..., 0, 1] * d1 + d1 * P[..., 1, 0] * d0)
    # b = 0 gives tau = +-inf or nan, replaced below; a subnormal b
    # overflows tau to inf, where t = 0 is the right limit
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        tau = 0.5 * (c - a) / b
        t = np.copysign(1.0, tau) / (np.abs(tau) + np.hypot(1.0, tau))
    t = np.where(b == 0.0, 0.0, t)
    lo, hi = a - t * b, c + t * b
    return np.stack([np.minimum(lo, hi), np.maximum(lo, hi)], axis=-1)


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


def fmt_param(x):
    """A descriptor parameter: its %g text when that reads back as x,
    else the shortest text that does (repr)."""
    text = f"{x:g}"
    return text if float(text) == x else repr(float(x))


def read_only(a):
    """Mark a cached array read-only and return it."""
    a.flags.writeable = False
    return a
