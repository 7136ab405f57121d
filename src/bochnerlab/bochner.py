"""Curvature terms of the Bochner identity for maps, and the inequality
chain that turns them into the slack of a pointwise pinching bound.

The curvature quantity is

    Q = Ric^{ij} (f*gbar)_{ij}  -  g^{ia} g^{jb} <Rbar(d_i f, d_j f) d_b f, d_a f>,

a frame-invariant contraction; the eigenframe evaluation (weights
lam_i lam_j on the pullback singular directions) is kept as a second
path and must agree with the contraction.  For a harmonic map the
discrete residual (1/2) Lap |df|^2 - |H|^2 - Q decays at second order.

`compute_bochner` computes nothing up front: each field of the
BochnerData it returns is computed when first read.  The first-order
fields and |H|^2 come from one pass over the map, one row band at a
time (`maps.assemble`): per band one Hessian, one Jacobian J, one
pullback metric P = J^T J and one eigensolve of P against the domain
metric.  The spectrum (lam, S) comes from the eigenvalues; the kernels
ricci_term_field, target_term_field and target_term_diagonal_field
contract P, J, and J with the eigenvectors (integral_identity_residual
applies the first two to its own accuracy-6 Jacobian, also a band at a
time).  A pass started by S, lam or hess skips the contractions, so a
report that reads only those pays for none; a pass started by a
contraction field computes them all as well.  J, P, the eigenvectors
and each band's continued values never exceed a band, and the domain
coefficients are row profiles, so the pass holds only its node grids;
a contraction read after a contraction-free pass runs the pass again,
all but the Hessian.  Readers that need both read a contraction first
(the residual reads Q before S).  (1/2) Lap |df|^2 is the banded
`maps.laplace_beltrami` of S, halved; the sup norms reduce a band at a
time, sup|tau| from the map's cached L f, so no tension grid is held.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import UsageError
from .maps import (
    assemble,
    hessian_field,
    jacobian_field,
    laplace_beltrami,
    pullback_field,
    row_bands,
    spectrum,
)
from .numerics import gen_eigh, read_only
from .targets import sectional_batch

DEGENERATE_PAIR_TOL = 1e-14


def ricci_term_field(P, ginv, ric):
    """Ric^{ij} (f*gbar)_{ij} at every node, from the pullback metric P
    and the inverse metric and Ricci diagonals at the same nodes.

    Metric and Ricci tensor are diagonal, so this is
    sum_i (g^ii)^2 Ric_ii P_ii.
    """
    out = np.zeros(P.shape[:-2])
    for i in range(2):
        out += ginv[..., i] * ginv[..., i] * ric[..., i] * P[..., i, i]
    return out


def target_term_field(target, q, J, ginv):
    """Invariant contraction of the target curvature term (Gauss equation)
    at the image points q, with Jacobian J and inverse metric diagonal ginv.

    With a diagonal metric it is
    sum_{i,j} g^ii g^jj (<A_ii, A_jj> - <A_ij, A_ji>),
    A_ij the second fundamental form of the target on the columns of J;
    A is symmetric, so A_vu is A_uv.
    """
    Auv = target.second_fundamental(q, J[..., 0], J[..., 1])
    A = [[target.second_fundamental(q, J[..., 0], J[..., 0]), Auv],
         [Auv, target.second_fundamental(q, J[..., 1], J[..., 1])]]
    t1 = np.zeros(q.shape[:-1])
    t2 = np.zeros(q.shape[:-1])
    term = np.empty(q.shape[:-1])
    # accumulate one term at a time over i, then j, then the ambient
    # index m: the order of the dense contraction g^ia g^jb A_iam A_jbm
    # that the output files were first written with (summing over m
    # first with np.sum changes the last bits)
    for i in range(2):
        for j in range(2):
            w = ginv[..., i] * ginv[..., j]
            for m in range(target.m):
                np.multiply(w, A[i][i][..., m], out=term)
                term *= A[j][j][..., m]
                t1 += term
                np.multiply(w, A[i][j][..., m], out=term)
                term *= A[j][i][..., m]
                t2 += term
    return t1 - t2


def target_term_diagonal_field(target, q, J, lam, vecs):
    """Eigenframe evaluation: 2 Sec(u_1, u_2) lam_1 lam_2 at the image points q.

    lam and vecs are the ascending eigenvalue pair and g-orthonormal
    eigenvectors of the pullback metric, u_a = J vecs_a.  Where
    lam_1 lam_2 is below the degeneracy cutoff the term is 0 (its
    weight vanishes).  Cross-check path for target_term_field.
    """
    w = lam[..., 0] * lam[..., 1]
    ua, ub = (J[..., 0] * vecs[..., 0, a, None] + J[..., 1] * vecs[..., 1, a, None]
              for a in range(2))
    sec = sectional_batch(target, q, ua, ub)
    sec = np.nan_to_num(sec, nan=0.0, posinf=0.0, neginf=0.0)
    return np.where(w > DEGENERATE_PAIR_TOL, 2.0 * sec * w, 0.0)


class _PassField:
    """A BochnerData field that the first-order pass fills on first read."""

    def __init__(self, contraction):
        self.contraction = contraction

    def __set_name__(self, owner, name):
        self.name = name

    def __get__(self, data, owner=None):
        if data is None:
            return self
        # no __set__, so once the pass has stored the field in the
        # instance dict, attribute lookup finds it there and skips this
        data._first_order_pass(self.contraction)
        return data.__dict__[self.name]


@dataclass(frozen=True, eq=False)
class BochnerData:
    """Per-node Bochner bookkeeping for one map, each field computed on first read.

    The fields are read-only node grids (lam holds the descending pair
    per node) and, for the sup norms, floats over the unflagged nodes.
    The residual is meaningful when sup_tension is small (numerically
    harmonic map).
    """

    f: object

    lam = _PassField(contraction=False)
    S = _PassField(contraction=False)
    hess = _PassField(contraction=False)  # |H|^2
    ricci = _PassField(contraction=True)
    target = _PassField(contraction=True)
    target_frame = _PassField(contraction=True)

    def _first_order_pass(self, contraction):
        f, dom = self.f, self.f.domain
        need_hess = "hess" not in self.__dict__  # a second pass skips it

        def first_order(band):
            # the Hessian before J, so that no J is held
            fields = {"hess": hessian_field(f, band=band)} if need_hess else {}
            J = jacobian_field(f, band=band)
            P = pullback_field(J)
            # ascending, g-orthonormal
            lam, vecs = gen_eigh(P, dom.metric_diag_grid()[band.rows])
            fields.update(zip(("lam", "S"), spectrum(lam)))
            if contraction:
                q, ginv = band.values, dom.inv_metric_diag_grid()[band.rows]
                fields.update(
                    ricci=ricci_term_field(P, ginv, dom.ricci_grid()[band.rows]),
                    target=target_term_field(f.target, q, J, ginv),
                    target_frame=target_term_diagonal_field(f.target, q, J, lam, vecs),
                )
            return fields

        for name, value in assemble(dom, f.values, first_order).items():
            self.__dict__.setdefault(name, read_only(value))

    @cached_property
    def Q(self):
        return read_only(self.ricci - self.target)

    @cached_property
    def lap(self):
        """(1/2) Lap |df|^2, a row band of S at a time."""
        lap = laplace_beltrami(self.f.domain, self.S)
        lap *= 0.5
        return read_only(lap)

    @cached_property
    def residual(self):
        Q = self.Q  # before lap, so that one pass fills S as well
        return read_only(self.lap - self.hess - Q)

    @cached_property
    def sup_residual(self):
        residual = self.residual
        return self._sup(lambda rows: np.abs(residual[rows]))

    @cached_property
    def sup_tension(self):
        f = self.f
        return self._sup(lambda rows: np.linalg.norm(
            f.target.tangent_part(f.values[rows], f.laplacian[rows]), axis=-1))

    @cached_property
    def path_disagreement(self):
        target, frame = self.target, self.target_frame
        return self._sup(lambda rows: np.abs(target[rows] - frame[rows]))

    def _sup(self, field):
        """The max over the unflagged nodes of field(rows), a node field
        on the grid rows `rows`, taken a row band at a time."""
        dom = self.f.domain
        keep = ~dom.flagged_mask()
        return float(np.max([np.max(field(rows)[keep[rows]], initial=-np.inf)
                             for rows in row_bands(dom)]))


def compute_bochner(f):
    """The terms of the identity on the grid, each computed when first read."""
    return BochnerData(f)


def integral_identity_residual(f):
    """Quadrature of |H|^2 + Q over the domain.

    Integrating the identity over a closed domain gives
    int (|H|^2 + Q) = (1/2) int Lap |df|^2 = 0 for a harmonic map.  The
    integrand is evaluated one row band at a time, with its own
    accuracy-6 (7-point) stencils on the periodic continuation of the
    grid (the double Fourier
    sphere on S^2) and integrated with the domain's high-order weights
    (Fejer's first rule in theta on S^2, trapezoid on T^2), so the
    value falls at sixth order under grid refinement rather than
    carrying the O(h^2) bias of the pointwise fields.
    """
    def integrand(band):
        J = jacobian_field(f, accuracy=6, band=band)
        ginv = f.domain.inv_metric_diag_grid()[band.rows]
        Q = (ricci_term_field(pullback_field(J), ginv, f.domain.ricci_grid()[band.rows])
             - target_term_field(f.target, band.values, J, ginv))
        return {"hess_Q": hessian_field(f, accuracy=6, band=band) + Q}

    hess_Q = assemble(f.domain, f.values, integrand, accuracy=6)["hess_Q"]
    return float(np.sum(hess_Q * f.domain.high_order_weight_grid()))


# -- the lambda inequality chain --------------------------------------------


@dataclass(frozen=True)
class LambdaChain:
    """sum_{i<j} lam_i lam_j, its closed form, and the 1/n bound."""

    lhs: float
    mid: float
    bound: float
    n: int
    equality: bool

    @property
    def bound_ok(self):
        return self.mid <= self.bound + 1e-12


def lambda_chain_check(lams):
    """Verify the elementary-symmetric identity and its Cauchy-Schwarz bound.

    For lam_i >= 0:
      lhs  = sum_{i<j} lam_i lam_j
      mid  = (S^2 - sum lam_i^2) / 2      (equal by algebra)
      bound = (n-1)/(2n) S^2              (mid <= bound always)
    equality holds iff all lam_i coincide.
    """
    lam = np.asarray(lams, dtype=float)
    if lam.ndim != 1 or lam.size < 1:
        raise UsageError("lambda_chain_check takes a 1-D vector")
    if np.any(lam < -1e-12):
        raise UsageError("singular values must be nonnegative")
    lam = np.maximum(lam, 0.0)
    n = lam.size
    S = lam.sum()
    lhs = float(sum(lam[i] * lam[j] for i in range(n) for j in range(i + 1, n)))
    mid = float((S**2 - np.sum(lam**2)) / 2.0)
    bound = float((n - 1) / (2.0 * n) * S**2)
    equality = bool(np.max(lam) - np.min(lam) <= 1e-12)
    return LambdaChain(lhs=lhs, mid=mid, bound=bound, n=n, equality=equality)


# -- pointwise pinching ------------------------------------------------------


def pinching_slack(data, ric_min, sec_max, nodes=None):
    """Q - S (ric_min - (n-1)/n sec_max S) at every node, S = |df|^2, or
    at the nodes `nodes`, a slice of them in C order: the pointwise
    pinching bound holds where this slack is nonnegative."""
    n = data.f.domain.n
    Q = data.Q  # a contraction first: one pass fills S too
    S = data.S
    if nodes is not None:
        Q, S = Q.reshape(-1)[nodes], S.reshape(-1)[nodes]
    return Q - S * (ric_min - (n - 1) / n * sec_max * S)
