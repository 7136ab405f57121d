"""Heat flow toward harmonic maps.

run_flow takes linearly implicit projection steps (Alouges 1997): it
solves (I - dt L) f* = f - dt (L f - tau(f)) with the domain's fast
resolvent and reprojects f* onto the target with the closest-point map.
L f - tau = N L f is the normal part of the componentwise Laplacian, so
the step treats the diffusion implicitly and the constraint force
explicitly, and reuses the map's cached tension.  An energy-monotone
controller halves dt whenever a candidate's energy rises or the map
constructor rejects it.

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
from .maps import energy_density_field, tension_field, total_energy

ENERGY_SLACK = 1e-10
MAX_HALVINGS = 20
DIAMETER_BLOCK = 256
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
        if not (self.tension_tol > 0 and self.collapse_tol > 0):
            raise UsageError("tolerances must be positive")
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


def image_diameter(f_or_values, exact_limit=4096):
    """Maximum pairwise ambient distance between node values.

    Exact pairwise scan up to exact_limit points, in blocks of
    DIAMETER_BLOCK rows so memory stays linear in the point count;
    larger sets use iterated farthest-point sweeps from the
    bounding-sphere center, which attain the true diameter on the round
    image sets handled here and are never above it.
    """
    vals = getattr(f_or_values, "values", f_or_values)
    pts = np.asarray(vals, dtype=float).reshape(-1, vals.shape[-1])
    n, m = pts.shape
    if n <= exact_limit:
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
    best = 0.0
    seed_pts = [pts.mean(axis=0)]
    for _ in range(4):
        d2 = np.sum((pts - seed_pts[-1]) ** 2, axis=-1)
        nxt = pts[int(np.argmax(d2))]
        best = max(best, float(np.sqrt(np.max(np.sum((pts - nxt) ** 2, axis=-1)))))
        seed_pts.append(nxt)
    return best


def image_radius(values):
    """Largest distance of a node value from their centroid.

    It brackets the image diameter: R <= diam <= 2R.
    """
    pts = values.reshape(-1, values.shape[-1])
    center = pts.mean(axis=0)
    return float(np.max(np.linalg.norm(pts - center, axis=-1)))


def _implicit_step(f, dt):
    """One accepted linearly implicit step, halving dt on each rejection.

    A candidate is rejected when its energy rises or the map constructor
    refuses its values with NumericalError.  The normal part L f - tau
    does not depend on dt, so a halving repeats only the resolvent
    solve.  Returns (map, accepted_dt, energy_after, rejections); raises
    StabilityError after MAX_HALVINGS + 1 rejections in a row.
    """
    normal = f.domain.laplace_beltrami(f.values) - tension_field(f)
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
            e1 = total_energy(cand)
            if e1 <= e0 + ENERGY_SLACK:
                return cand, dt, e1, rejected
        dt *= 0.5
    raise StabilityError(
        f"flow step rejected {MAX_HALVINGS + 1} times (energy {e0:.6e} -> {e1:.6e})"
    )


def run_flow(f0, params=None):
    """Iterate the flow until harmonicity, collapse, or the step budget.

    Outcomes: 'converged' (sup|tau| below tolerance), and
    'collapsed_to_constant' (image diameter below tolerance),
    'max_steps'.  Aborts with NumericalError if sup e exceeds
    CONCENTRATION_FACTOR times its initial value (possible bubbling),
    which is outside this solver's scope.
    """
    params = params or FlowParams()
    dt = params.dt
    dt_cap = max(DT_MAX, dt)
    f = f0
    summary = FlowSummary(dt=dt)
    keep = ~f0.domain.flagged_mask()
    e_max0 = float(np.max(energy_density_field(f0)))
    summary.energies.append(total_energy(f))

    for step in range(params.max_steps):
        tau = tension_field(f)
        sup_tau = float(np.max(np.linalg.norm(tau, axis=-1)[keep]))
        e_max = float(np.max(energy_density_field(f)))
        # 2 * bounding radius dominates the diameter, so the collapse test is safe
        diam = 2 * image_radius(f.values)
        if params.snapshot_stride and step % params.snapshot_stride == 0:
            summary.trace.append((step, summary.energies[-1], sup_tau, diam, e_max))
        if sup_tau < params.tension_tol:
            summary.outcome = "converged"
            break
        if diam < params.collapse_tol:
            summary.outcome = "collapsed_to_constant"
            break
        if e_max0 > 1e-12 and e_max > CONCENTRATION_FACTOR * e_max0:
            raise NumericalError(
                f"energy density concentrated ({e_max:.3e} vs initial {e_max0:.3e})"
            )
        f, dt, energy, rejected = _implicit_step(f, dt)
        summary.dt = dt
        summary.rejected += rejected
        summary.energies.append(energy)
        summary.steps = step + 1
        if not rejected:
            # compared before multiplying, so a huge dt cannot overflow
            dt = dt_cap if dt >= dt_cap / DT_GROWTH else DT_GROWTH * dt
    tau = tension_field(f)
    summary.final_tension = float(np.max(np.linalg.norm(tau, axis=-1)[keep]))
    summary.final_diameter = image_diameter(f)
    if summary.outcome == "max_steps" and summary.final_tension < params.tension_tol:
        summary.outcome = "converged"
    return f, summary
