"""Curvature terms of the Bochner identity for maps, and the inequality
chain that turns them into a pointwise pinching bound.

The curvature quantity is

    Q = Ric^{ij} (f*gbar)_{ij}  -  g^{ia} g^{jb} <Rbar(d_i f, d_j f) d_b f, d_a f>,

a frame-invariant contraction; the eigenframe evaluation (weights
lam_i lam_j on the pullback singular directions) is kept as a second
path and must agree with the contraction.  For a harmonic map the
discrete residual (1/2) Lap |df|^2 - |H|^2 - Q decays at second order.

`compute_bochner` computes nothing up front: each field of the
BochnerData it returns is computed when first read.  The first-order
fields come from one pass over the map: one Jacobian J, one pullback
metric P = J^T J and one eigensolve of P against the domain metric.
The spectrum (lam, S, e) comes from the eigenvalues; the kernels
ricci_term_field, target_term_field and target_term_diagonal_field
contract P, J, and J with the eigenvectors (integral_identity_residual
applies the first two to its own accuracy-6 Jacobian).  A pass started
by a spectrum field stops there, so a report that reads only S and lam
pays for no curvature contraction; a pass started by a contraction
field computes all of them and the spectrum.  Only node-sized results
are kept: J, P and the eigenvectors are dropped when the pass returns,
so a contraction read after a spectrum-only pass runs the pass again.
Readers that need both read a contraction first (the residual reads Q
before S).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import HypothesisViolationError, UsageError
from .maps import (
    hessian_field,
    jacobian_field,
    pullback_field,
    spectrum,
    tension_field,
)
from .numerics import gen_eigh, read_only
from .targets import sectional_batch

DEGENERATE_PAIR_TOL = 1e-14


def ricci_term_field(f, P):
    """Ric^{ij} (f*gbar)_{ij} at every node, from the pullback metric P.

    Metric and Ricci tensor are diagonal, so this is
    sum_i (g^ii)^2 Ric_ii P_ii.
    """
    ginv = f.domain.inv_metric_diag_grid()
    ric = f.domain.ricci_grid()
    out = np.zeros(P.shape[:-2])
    for i in range(2):
        out += ginv[..., i] * ginv[..., i] * ric[..., i] * P[..., i, i]
    return out


def target_term_field(f, J):
    """Invariant contraction of the target curvature term (Gauss equation).

    With a diagonal metric it is
    sum_{i,j} g^ii g^jj (<A_ii, A_jj> - <A_ij, A_ji>),
    A_ij the second fundamental form of the target on the columns of J.
    """
    q = f.values
    tgt = f.target
    A = [
        [tgt.second_fundamental(q, J[..., i], J[..., j]) for j in range(2)]
        for i in range(2)
    ]
    ginv = f.domain.inv_metric_diag_grid()
    t1 = np.zeros(q.shape[:2])
    t2 = np.zeros(q.shape[:2])
    # accumulate one term at a time over i, then j, then the ambient
    # index m: the order of the dense contraction g^ia g^jb A_iam A_jbm
    # that the output files were first written with (summing over m
    # first with np.sum changes the last bits)
    for i in range(2):
        for j in range(2):
            w = ginv[..., i] * ginv[..., j]
            for m in range(tgt.m):
                t1 += w * A[i][i][..., m] * A[j][j][..., m]
                t2 += w * A[i][j][..., m] * A[j][i][..., m]
    return t1 - t2


def target_term_diagonal_field(f, J, lam, vecs):
    """Eigenframe evaluation: 2 Sec(u_1, u_2) lam_1 lam_2.

    lam and vecs are the ascending eigenvalue pair and g-orthonormal
    eigenvectors of the pullback metric, u_a = J vecs_a.  Where
    lam_1 lam_2 is below the degeneracy cutoff the term is 0 (its
    weight vanishes).  Cross-check path for target_term_field.
    """
    w = lam[..., 0] * lam[..., 1]
    ua, ub = (J[..., 0] * vecs[..., 0, a, None] + J[..., 1] * vecs[..., 1, a, None]
              for a in range(2))
    sec = sectional_batch(f.target, f.values, ua, ub)
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
    e = _PassField(contraction=False)
    ricci = _PassField(contraction=True)
    target = _PassField(contraction=True)
    target_frame = _PassField(contraction=True)

    def _first_order_pass(self, contraction):
        f = self.f
        J = jacobian_field(f)
        P = pullback_field(J)
        lam, vecs = gen_eigh(P, f.domain.metric_diag_grid())  # ascending, g-orthonormal
        fields = dict(zip(("lam", "S", "e"), spectrum(lam)))
        if contraction:
            fields.update(
                ricci=ricci_term_field(f, P),
                target=target_term_field(f, J),
                target_frame=target_term_diagonal_field(f, J, lam, vecs),
            )
        for name, value in fields.items():
            self.__dict__.setdefault(name, read_only(value))

    @cached_property
    def Q(self):
        return read_only(self.ricci - self.target)

    @cached_property
    def hess(self):
        """|H|^2."""
        return read_only(hessian_field(self.f))

    @cached_property
    def lap(self):
        """(1/2) Lap |df|^2."""
        return read_only(0.5 * self.f.domain.laplace_beltrami(self.S))

    @cached_property
    def residual(self):
        Q = self.Q  # before lap, so that one pass fills S as well
        return read_only(self.lap - self.hess - Q)

    @cached_property
    def sup_residual(self):
        return self._sup(np.abs(self.residual))

    @cached_property
    def sup_tension(self):
        return self._sup(np.linalg.norm(tension_field(self.f), axis=-1))

    @cached_property
    def path_disagreement(self):
        return self._sup(np.abs(self.target - self.target_frame))

    def _sup(self, field):
        return float(np.max(field[~self.f.domain.flagged_mask()]))


def compute_bochner(f):
    """The terms of the identity on the grid, each computed when first read."""
    return BochnerData(f)


def integral_identity_residual(f):
    """Quadrature of |H|^2 + Q over the domain.

    Integrating the identity over a closed domain gives
    int (|H|^2 + Q) = (1/2) int Lap |df|^2 = 0 for a harmonic map.  The
    integrand is evaluated with its own accuracy-6 (7-point) stencils
    on the periodic continuation of the grid (the double Fourier
    sphere on S^2) and integrated with the domain's high-order weights
    (Fejer's first rule in theta on S^2, trapezoid on T^2), so the
    value falls at sixth order under grid refinement rather than
    carrying the O(h^2) bias of the pointwise fields.
    """
    J = jacobian_field(f, accuracy=6)
    hess = hessian_field(f, accuracy=6)
    Q = ricci_term_field(f, pullback_field(J)) - target_term_field(f, J)
    w = f.domain.high_order_weight_grid()
    return float(np.sum((hess + Q) * w))


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


@dataclass(frozen=True)
class PinchingCheck:
    Q: float
    bound: float
    bound_energy_form: float
    slack: float


def pinching_bound_fields(f, ric_min, sec_max, data):
    """(Q, bound, slack) fields for Q >= S (ric_min - (n-1)/n sec_max S)."""
    n = f.domain.n
    S = data.S
    bound = S * (ric_min - (n - 1) / n * sec_max * S)
    return data.Q, bound, data.Q - bound


def pointwise_pinching_check(f, node, ric_min, sec_max, require_hypothesis=True):
    """Evaluate the pointwise pinching bound at a node.

    Also evaluates the energy-density form of the same bound,
    2e (ric_min - 2(n-1)/n sec_max e), which is the identical
    polynomial after S = 2e.
    """
    if require_hypothesis and sec_max < 0:
        raise HypothesisViolationError(
            "sec_max < 0 violates the nonnegative-curvature hypothesis"
        )
    data = compute_bochner(f)
    n = f.domain.n
    Q = float(data.Q[node])  # a contraction first: one pass fills S too
    S = float(data.S[node])
    e = S / 2.0
    bound = S * (ric_min - (n - 1) / n * sec_max * S)
    bound_e = 2 * e * (ric_min - 2 * (n - 1) / n * sec_max * e)
    return PinchingCheck(
        Q=Q, bound=float(bound), bound_energy_form=float(bound_e), slack=Q - bound
    )
