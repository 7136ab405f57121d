"""Heat flow toward harmonic maps.

run_flow takes linearly implicit projection steps (Alouges 1997): it
solves (I - dt L) f* = f - dt (L f - tau(f)) with the domain's fast
resolvent and reprojects f* onto the target with the closest-point map.
L f - tau = N L f is the normal part of the componentwise Laplacian, so
the step treats the diffusion implicitly and the constraint force
explicitly; both terms read the L f cached on the map, so a step runs
one Laplace-Beltrami.  An energy-monotone controller halves dt
whenever a candidate's energy rises or the map constructor rejects it.

run_flow doubles dt (DT_GROWTH) after each step accepted at its first
try, up to DT_MAX or the given first step if that is larger; a step
that needed a halving keeps its accepted dt for the next one.  Every
accepted step still passes the energy check, so the energy trace stays
nonincreasing whatever the schedule.  DT_MAX bounds the simulated time
one step covers: uncapped, a perturbed degree-1 map S^2 -> S^2 at
32x64, which cannot become constant, shrinks to a point in 16 steps.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import NumericalError, StabilityError, UsageError
from .maps import row_bands, total_energy
from .numerics import norm, total

ENERGY_SLACK = 1e-10
MAX_HALVINGS = 20
DIAMETER_BLOCK = 256
EXACT_DIAMETER_LIMIT = 4096
IMPLICIT_DT = 0.05
DT_GROWTH = 2.0
DT_MAX = 1.0
CONCENTRATION_FACTOR = 10.0


@dataclass(frozen=True)
class FlowParams:
    """Controls for the flow driver.

    dt is the first implicit step.  The controller halves it when a
    step would raise the energy, and run_flow doubles it after each
    step accepted at its first try, up to max(DT_MAX, dt).
    """

    dt: float = IMPLICIT_DT
    max_steps: int = 10000
    tension_tol: float = 1e-6
    collapse_tol: float = 1e-3
    snapshot_stride: int = 0

    def __post_init__(self):
        # written as not (x > 0) so that NaN is rejected too
        if not self.dt > 0:
            raise UsageError("time step must be positive")
        if not (0 < self.tension_tol < np.inf and 0 < self.collapse_tol < np.inf):
            raise UsageError("tolerances must be positive and finite")
        if self.max_steps < 1:
            raise UsageError("max_steps must be at least 1")


@dataclass
class FlowSummary:
    steps: int = 0  # accepted steps
    rejected: int = 0  # rejected candidates; each halved dt once
    energies: list = field(default_factory=list)
    final_tension: float = np.inf
    final_diameter: float = np.inf
    outcome: str = "max_steps"
    dt: float = 0.0  # last accepted step (the first step if none was taken)
    trace: list = field(default_factory=list)  # (step, E, sup_tau, diam, e_max)


def image_diameter(f_or_values):
    """Maximum pairwise ambient distance between node values.

    Farthest-point sweeps from the centroid c meet a pair of length L,
    a lower bound on the diameter D.  Any diameter pair (p, q) has
    D <= |p - c| + |q - c| <= r_p + R with R = max_i |x_i - c|, so
    r_p >= D - R >= L - R: both ends of every diameter pair keep
    r_i >= L - R, and the exact pairwise scan needs only those
    candidates.  The inequality holds for c as computed, so the slack
    covers only the rounding of r, R, L and the scanned maximum, and is
    scaled to the coordinate magnitude.  Pairs are summed as in the
    unfiltered scan, so the result is bit-identical to it.

    Up to EXACT_DIAMETER_LIMIT candidates the result is exact, and
    memory stays O(n) plus DIAMETER_BLOCK rows of the k candidates,
    2 * DIAMETER_BLOCK * k floats.  Beyond that it is L, which is never
    above the diameter.  Raises NumericalError on a non-finite value;
    an empty set has diameter 0.
    """
    vals = getattr(f_or_values, "values", f_or_values)
    pts = np.asarray(vals, dtype=float).reshape(-1, vals.shape[-1])
    n, m = pts.shape
    if n == 0:
        return 0.0
    # the max propagates NaN, so this also tests every value is finite
    scale = np.abs(pts).max()
    if not np.isfinite(scale):
        raise NumericalError("image diameter of non-finite node values")
    d2 = total((pts - pts.mean(axis=0)) ** 2)
    r = np.sqrt(d2)
    lower = 0.0
    for _ in range(4):
        d2 = total((pts - pts[int(np.argmax(d2))]) ** 2)
        lower = max(lower, float(np.sqrt(np.max(d2))))
    # r, R, L and the scanned maximum are each within (m + 4) eps / 4,
    # relative, of a length at most 2 sqrt(m) max|x|; the sqrt term
    # covers squares that underflow
    eps = np.finfo(float).eps
    slack = 4 * (m + 4) * np.sqrt(m) * eps * scale
    slack += 4 * np.sqrt(m * np.finfo(float).tiny)
    cut = lower - r.max() - slack
    # a squared length that overflowed bounds nothing: scan every point
    cand = pts[r >= cut] if np.isfinite(cut) else pts
    if len(cand) > EXACT_DIAMETER_LIMIT:
        return lower
    return _scan_diameter(cand)


def _scan_diameter(pts):
    """Exact diameter of an (n, m) point set by a blocked pairwise scan.

    Each squared distance is summed component by component, in blocks
    of DIAMETER_BLOCK rows, so memory stays linear in n.
    """
    n, m = pts.shape
    # a block of rows meets only the columns from its own start on:
    # (x_i - x_j)^2 = (x_j - x_i)^2 exactly, so the pairs left of
    # the block were met by an earlier block, term for term
    d2 = 0.0
    cols = np.ascontiguousarray(pts.T)
    acc = np.empty(min(n, DIAMETER_BLOCK) * n)
    sq = np.empty_like(acc)
    for lo in range(0, n, DIAMETER_BLOCK):
        rows = cols[:, lo : lo + DIAMETER_BLOCK, None]
        shape = (rows.shape[1], n - lo)
        a = acc[: shape[0] * shape[1]].reshape(shape)
        t = sq[: a.size].reshape(shape)
        np.square(np.subtract(rows[0], cols[0, lo:], out=a), out=a)
        for c in range(1, m):
            np.square(np.subtract(rows[c], cols[c, lo:], out=t), out=t)
            a += t
        d2 = max(d2, a.max())
    return float(np.sqrt(d2))


def image_radius(f):
    """Largest distance of a node value of the map f from their centroid,
    a row band at a time.  It brackets the image diameter: R <= diam <= 2R."""
    center = f.values.reshape(-1, f.target.m).mean(axis=0)
    return float(max(np.max(norm(f.values[rows] - center))
                     for rows in row_bands(f.domain)))


def _implicit_step(f, tau, dt):
    """One accepted linearly implicit step from f, whose tension is tau,
    halving dt on each rejection.

    A candidate is rejected when its energy rises or the map constructor
    refuses its values with NumericalError.  The normal part L f - tau
    does not depend on dt, so a halving repeats only the resolvent
    solve.  Returns (map, accepted_dt, energy_after, rejections); raises
    StabilityError after MAX_HALVINGS + 1 rejections in a row.
    """
    normal = f.laplacian - tau
    e0 = total_energy(f)
    e1 = np.nan
    for rejected in range(MAX_HALVINGS + 1):
        # an overflow from a huge dt leaves values the map refuses
        with np.errstate(over="ignore", invalid="ignore"):
            values = f.domain.resolvent(f.values - dt * normal, dt)
        try:
            cand = f.with_values(values)
        except NumericalError:
            pass
        else:
            del values  # the candidate holds its own reprojected copy
            e1 = total_energy(cand)
            if e1 <= e0 + ENERGY_SLACK:
                return cand, dt, e1, rejected
        dt *= 0.5
    raise StabilityError(
        f"flow step rejected {MAX_HALVINGS + 1} times (energy {e0:.6e} -> {e1:.6e})"
    )


def run_flow(f0, params=None):
    """Iterate the flow until harmonicity, collapse, or the step budget.

    Every map, the last one included, is tested for
    'collapsed_to_constant' (twice its bounding radius, an upper bound
    on the image diameter, below collapse_tol) and then for 'converged'
    (sup|tau| below tension_tol); a flow that passes neither within the
    step budget ends with 'max_steps'.  Aborts with NumericalError if
    sup e exceeds CONCENTRATION_FACTOR times its initial value (possible
    bubbling), which is outside this solver's scope.
    """
    params = params or FlowParams()
    dt = params.dt
    dt_cap = max(DT_MAX, dt)
    f = f0
    summary = FlowSummary(dt=dt)
    keep = ~f0.domain.flagged_mask()
    e_max0 = float(np.max(f0.energy_density))
    summary.energies.append(total_energy(f))

    # one more pass than the budget of steps tests the final map as well
    for step in range(params.max_steps + 1):
        tau = f.tension
        sup_tau = float(np.max(norm(tau)[keep]))
        e_max = float(np.max(f.energy_density))
        # 2 * bounding radius dominates the diameter, so the collapse test is safe
        diam = 2 * image_radius(f)
        if params.snapshot_stride and step % params.snapshot_stride == 0:
            summary.trace.append((step, summary.energies[-1], sup_tau, diam, e_max))
        # a constant map has no tension either, so collapse is tested first
        if diam < params.collapse_tol:
            summary.outcome = "collapsed_to_constant"
        elif sup_tau < params.tension_tol:
            summary.outcome = "converged"
        if summary.outcome != "max_steps" or step == params.max_steps:
            break
        if e_max0 > 1e-12 and e_max > CONCENTRATION_FACTOR * e_max0:
            raise NumericalError(
                f"energy density concentrated ({e_max:.3e} vs initial {e_max0:.3e})"
            )
        f, dt, energy, rejected = _implicit_step(f, tau, dt)
        summary.dt = dt
        summary.rejected += rejected
        summary.energies.append(energy)
        summary.steps = step + 1
        if not rejected:
            # compared before multiplying, so a huge dt cannot overflow
            dt = dt_cap if dt >= dt_cap / DT_GROWTH else DT_GROWTH * dt
    summary.final_tension = sup_tau
    summary.final_diameter = image_diameter(f)
    return f, summary
