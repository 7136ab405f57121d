"""Curvature terms of the Bochner identity for maps, and the inequality
chain that turns them into the slack of a pointwise pinching bound.

The curvature quantity is

    Q = Ric^{ij} (f*gbar)_{ij}  -  g^{ia} g^{jb} <Rbar(d_i f, d_j f) d_b f, d_a f>,

a frame-invariant contraction, whose target part on a diagonal chart
metric is 2 g^uu g^vv times the Gauss numerator of (d_u f, d_v f), that
is 2 Sec(image plane) lam_1 lam_2.  It must lie in the target's
closed-form `sec_range` at the image point times 2 lam_1 lam_2, and the
path check is its distance from that enclosure.  For a harmonic map the
discrete residual (1/2) Lap |df|^2 - |H|^2 - Q decays at second order.

`compute_bochner` runs one pass over the map, one row band at a time
(`maps.assemble`), and its caller says which: the first-order pass
(what a report reads) or the contraction pass (what `verify` reads).
Per band the first-order pass takes L f on the band's continuation,
then the Jacobian J and |H|^2 from one set of chart derivatives, one
pullback metric P = J^T J and the eigenvalues of P against the domain
metric (no eigenvectors).  It keeps the spectrum (lam, S) and |H|^2
as node grids and reduces sup|tau| inside the band, so neither L f nor
the tension is held.  It takes the target's `sec_range` and
`constraint_residual` at the band's image nodes once, for the image's
curvature range (Sec_max with the first node that reaches it) and its
on-target residual.  The contraction pass also contracts P and J into
the Ricci and target terms (ricci_term_field, target_term_field),
which it keeps; it reduces the path check against the same curvature
enclosure inside the band, and sums the energy density of its own J
over the grid.  A second banded pass then takes (1/2) Lap |df|^2 of S,
kept for the node CSV, and reduces sup|residual|.  Q and the residual
are never stored: they are derived from the kept grids a band or a CSV
block at a time.  J, P and each band's continued values never exceed a
band, and the domain coefficients are row profiles.
`integral_identity_residual` applies the contractions to its own
accuracy-6 Jacobian and |H|^2, also a band at a time.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import UsageError
from .maps import (
    assemble,
    energy_density_field,
    jacobian_field,
    pullback_field,
    spectrum,
)
from .numerics import gen_eigvalsh, norm, read_only
from .targets import gauss_numerator


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

    With a diagonal metric it is sum_{i,j} g^ii g^jj (<A_ii, A_jj> - |A_ij|^2),
    A_ij the second fundamental form on the columns of J, whose i = j
    terms vanish: 2 g^uu g^vv times the Gauss numerator of (J_u, J_v).
    """
    return 2.0 * ginv[..., 0] * ginv[..., 1] * gauss_numerator(target, q, J[..., 0], J[..., 1])


def enclosure_gap(term, sec_range, lam):
    """How far the target term lies outside [least w, greatest w] at every
    node, w = 2 lam_1 lam_2 from the raw ascending eigenvalue pair lam and
    (least, greatest) the target's `sec_range` at the image points.

    Where the two are one value K this is |term - 2 K lam_1 lam_2|.
    """
    least, greatest = sec_range
    w = 2.0 * lam[..., 0] * lam[..., 1]
    return np.maximum(np.maximum(least * w - term, term - greatest * w), 0.0)


def _at(grid, nodes):
    """The node grid, or its nodes `nodes`, a slice of them in C order."""
    return grid if nodes is None else grid.reshape(-1)[nodes]


def _residual(lap, hess, ricci, target):
    """(1/2) Lap |df|^2 - |H|^2 - Q, Q = ricci - target, elementwise and
    in the order the output files were first written with."""
    return (lap - hess) - (ricci - target)


def _band_max(values, keep):
    """The max of a band's node values over its unflagged rows `keep`."""
    return np.max(values[keep], initial=-np.inf)


@dataclass(frozen=True, eq=False)
class BochnerData:
    """Per-node Bochner bookkeeping for one map, from one pass.

    The node grids are read-only: lam (the descending pair per node), S
    and hess (|H|^2) from either pass; ricci, target and lap
    ((1/2) Lap |df|^2) from the contraction pass only, as are
    path_disagreement, sup_residual and energy (None after the
    first-order pass).  The sup norms are floats over the unflagged
    nodes.  sec_least, sec_max (first reached at the image point
    sec_max_witness, in C order) and constraint_residual are over every
    image node.  The residual is meaningful when sup_tension is small
    (numerically harmonic map).
    """

    f: object
    lam: np.ndarray
    S: np.ndarray
    hess: np.ndarray
    sup_tension: float
    sec_least: float
    sec_max: float
    sec_max_witness: tuple
    constraint_residual: float
    ricci: np.ndarray | None = None
    target: np.ndarray | None = None
    lap: np.ndarray | None = None
    path_disagreement: float | None = None
    sup_residual: float | None = None
    energy: float | None = None

    def Q(self, nodes=None):
        """Ric term - target term on the grid, or at the nodes `nodes`, a
        slice of them in C order."""
        return _at(self.ricci, nodes) - _at(self.target, nodes)

    def residual(self, nodes=None):
        """(1/2) Lap |df|^2 - |H|^2 - Q on the grid, or at the nodes `nodes`."""
        grids = (self.lap, self.hess, self.ricci, self.target)
        return _residual(*(_at(grid, nodes) for grid in grids))


def compute_bochner(f, *, contraction):
    """The terms of the identity on the grid, from one pass over the map:
    the first-order pass, or with contraction=True the contraction pass."""
    dom, tgt = f.domain, f.target
    keep = ~dom.flagged_mask()
    sups = {"sup_tension": [], "path_disagreement": [], "sup_residual": [],
            "constraint_residual": []}
    image = []  # per band: least and greatest Sec, the first node reaching it

    def first_order(band):
        rows, q = band.rows, band.values
        least, greatest = tgt.sec_range(q)
        node = np.unravel_index(np.argmax(greatest), greatest.shape)
        image.append((np.min(least), greatest[node], q[node]))
        sups["constraint_residual"].append(np.max(tgt.constraint_residual(q)))
        # L f on the continuation the stencils read, dropped once reduced
        tau = tgt.tangent_part(q, dom.laplace_beltrami_rows(band.continued, rows))
        sups["sup_tension"].append(_band_max(norm(tau), keep[rows]))
        del tau
        J, hess = jacobian_field(f, band=band, hessian=True)
        fields = {"hess": hess}
        P = pullback_field(J)
        lam = gen_eigvalsh(P, dom.metric_diag_grid()[rows])  # ascending
        fields.update(zip(("lam", "S"), spectrum(lam)))
        if contraction:
            ginv = dom.inv_metric_diag_grid()[rows]
            target = target_term_field(tgt, q, J, ginv)
            gap = enclosure_gap(target, (least, greatest), lam)
            sups["path_disagreement"].append(_band_max(gap, keep[rows]))
            fields.update(ricci=ricci_term_field(P, ginv, dom.ricci_grid()[rows]),
                          target=target, e=energy_density_field(J, ginv))
        return fields

    grids = assemble(dom, f.values, first_order)
    band_least, band_max, band_node = zip(*image)
    top = int(np.argmax(band_max))  # the first band that reaches it
    floats = {"sec_least": float(np.min(band_least)), "sec_max": float(band_max[top]),
              "sec_max_witness": tuple(map(float, band_node[top]))}
    if contraction:
        # one whole-grid sum, as total_energy takes it: sums per band move bits
        e = grids.pop("e")
        e *= dom.quad_weight_grid()
        floats["energy"] = float(np.sum(e))
        del e
        hess, ricci, target = grids["hess"], grids["ricci"], grids["target"]

        def half_laplacian(band):
            rows = band.rows
            lap = dom.laplace_beltrami_rows(band.continued, rows)
            lap *= 0.5
            residual = _residual(lap, hess[rows], ricci[rows], target[rows])
            sups["sup_residual"].append(_band_max(np.abs(residual), keep[rows]))
            return {"lap": lap}

        grids.update(assemble(dom, grids["S"], half_laplacian))
    floats.update((name, float(np.max(maxima))) for name, maxima in sups.items() if maxima)
    return BochnerData(f, **{name: read_only(g) for name, g in grids.items()}, **floats)


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
        J, hess = jacobian_field(f, accuracy=6, band=band, hessian=True)
        ginv = f.domain.inv_metric_diag_grid()[band.rows]
        Q = (ricci_term_field(pullback_field(J), ginv, f.domain.ricci_grid()[band.rows])
             - target_term_field(f.target, band.values, J, ginv))
        return {"hess_Q": hess + Q}

    hess_Q = assemble(f.domain, f.values, integrand, accuracy=6)["hess_Q"]
    hess_Q *= f.domain.high_order_weight_grid()
    return float(np.sum(hess_Q))


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
    pinching bound holds where this slack is nonnegative.  data is a
    contraction pass."""
    n = data.f.domain.n
    S = _at(data.S, nodes)
    return data.Q(nodes) - S * (ric_min - (n - 1) / n * sec_max * S)
