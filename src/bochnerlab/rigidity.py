"""Pinching reports and rigidity classification.

A report gathers the two curvature extremizers, the sup of |df|^2, the
pinching threshold and margin, and classifies the map as strictly
pinched (prediction: constant), at the threshold (prediction: constant
or homothetic with totally geodesic image), or outside the hypothesis.
The exact dichotomy of the continuum statement is realized numerically
with a resolution-indexed equality band tol(h) = C h^2.

A report is the one judge of a map: at the threshold it carries the
equality diagnostics from its own Bochner pass, and `counterexample`
states the falsification rule.  `theorem_consistency_scan` is the one
sweep that applies it, for the CLI's `scan` and `consistency` alike.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields

import numpy as np

from .bochner import compute_bochner
from .domains import ricci_min
from .errors import ChartDomainError, NumericalError
from .flow import image_diameter, image_radius
from .targets import ON_TARGET_TOL

# Margin/diagnostic band coefficients for tol(h) = C h^2, calibrated on
# the homothety family (see tests): discrete margins and Hessian sups of
# the exact equality-case maps stay well inside these bands at every
# tested resolution while remaining far below genuine violations.
TOL_COEFF = 8.0
DIAG_COEFF = 30.0
HARMONIC_COEFF = 30.0
CONSTANT_DIAMETER_TOL = 1e-8


def grid_h(domain):
    return max(domain.spacing)


@dataclass(frozen=True)
class EqualityDiagnostics:
    """Threshold-case saturation measurements beyond the report's own.

    At equality the differential must be parallel: the report's Hessian
    sup and singular-value spread sit at discretization level, |df|^2
    is constant, and the common squared singular value is the report's
    homothety factor.
    """

    energy_density_variation: float
    affine_fit_residual: float | None
    tol: float
    ok: bool


@dataclass(frozen=True)
class PinchingReport:
    n: int
    resolution: tuple
    domain: str
    target: str
    ric_min: float
    ric_min_witness: tuple
    sec_max_image: float
    sec_max_witness_point: tuple
    sec_max_global_sample: float
    S0: float
    e_max: float
    threshold_S0: float
    threshold_e: float
    margin: float
    tol: float
    tol_coeff: float
    hypothesis_ok: bool
    classification: str
    prediction: str
    is_constant: bool
    sup_tension: float
    harmonic_tol: float
    harmonic: bool
    hess_sup: float
    lambda_spread: float
    homothety_factor: float
    # set for a nonconstant equality-classified map; not output
    equality: EqualityDiagnostics | None = field(default=None, repr=False, compare=False)

    def to_dict(self):
        d = {k.name: getattr(self, k.name) for k in fields(self) if k.compare}
        d["ric_min_witness"] = list(self.ric_min_witness)
        d["sec_max_witness_point"] = list(self.sec_max_witness_point)
        d["resolution"] = list(self.resolution)
        return d

    @property
    def counterexample(self):
        """Why this map falsifies the theorem, or None: a harmonic
        nonconstant map must neither lie above the pinching threshold
        nor fail the threshold diagnostics at it."""
        if not self.harmonic or self.is_constant:
            return None
        if self.classification == "strict":
            return "harmonic nonconstant map above the pinching threshold"
        if self.equality is not None and not self.equality.ok:
            return (
                f"threshold diagnostics failed (hess_sup={self.hess_sup:.3e}, "
                f"spread={self.lambda_spread:.3e}, tol={self.equality.tol:.3e})"
            )
        return None


def build_report(f):
    """Assemble the pinching report for a map.

    sec_max_global_sample is the target's exact Sec_max over the whole
    target, its closed-form `sec_bounds`; it is diagnostic only.  Its
    excess over sec_max_image exhibits localization: curvature away
    from the image does not enter the pinching hypothesis.  A float of
    the report that is not finite raises NumericalError.
    """
    dom, tgt = f.domain, f.target
    n = dom.n
    h = grid_h(dom)
    tol = TOL_COEFF * h * h
    harmonic_tol = HARMONIC_COEFF * h * h

    data = compute_bochner(f, contraction=False)
    if not data.constraint_residual <= ON_TARGET_TOL:
        raise ChartDomainError("point set contains off-target points "
                               f"(max residual {data.constraint_residual:.3e})")
    # sup |df|^2 over every node: energy in the pole collar enters the
    # pinching threshold; the collar is left out of the second-order sups
    S0 = float(np.max(data.S))
    e_max = S0 / 2.0

    rmin, rwit = ricci_min(dom)
    threshold_S0 = (n - 1) / n * data.sec_max * S0
    threshold_e = (n - 1) / n * data.sec_max * e_max
    margin = rmin - threshold_S0

    # R <= diam <= 2R decides diam < tol without the pairwise scan
    # unless R lies in [tol/2, tol)
    R = image_radius(f)
    is_constant = 2 * R < CONSTANT_DIAMETER_TOL or (
        R < CONSTANT_DIAMETER_TOL and image_diameter(f) < CONSTANT_DIAMETER_TOL
    )
    harmonic = data.sup_tension <= harmonic_tol

    if margin > tol:
        classification = "strict"
    elif margin >= -tol:
        classification = "equality"
    else:
        classification = "violated"

    # Sec >= 0 on all planes at the image nodes (the hypothesis) when
    # the least eigenvalue of the curvature operator is nonnegative
    hypothesis_ok = data.sec_least >= 0
    if is_constant:
        prediction = "constant"
    elif not hypothesis_ok or classification == "violated":
        prediction = "no conclusion (hypothesis fails)"
    elif classification == "strict":
        prediction = "constant"
    else:
        prediction = "constant or homothetic with totally geodesic image"

    keep = ~dom.flagged_mask()
    lam = data.lam
    spread = float(np.max((lam[..., 0] - lam[..., -1])[keep]))
    # the pair's mean, S / 2 bit for bit, weighted in place by the row profile
    mean = data.S / 2.0
    mean *= dom.quad_weight_grid()
    homothety = float(np.sum(mean) / dom.volume())
    hess_sup = float(np.max(np.sqrt(np.maximum(data.hess, 0.0))[keep]))
    # never returned: an infinite margin would read strict, a NaN one
    # violated, and a NaN hess_sup would fail the diagnostics silently
    for name, value in (("S0", S0), ("sup_tension", data.sup_tension),
                        ("sec_max_image", data.sec_max), ("margin", margin),
                        ("hess_sup", hess_sup), ("lambda_spread", spread),
                        ("homothety_factor", homothety)):
        if not np.isfinite(value):
            raise NumericalError(f"non-finite result: {name}")

    equality = None
    if classification == "equality" and not is_constant:
        diag_tol = DIAG_COEFF * h * h
        S = data.S[keep]
        svar = float(np.max(np.abs(S - S.mean())))
        affine = None
        if tgt.kind == "euclid":
            pts = f.values.reshape(-1, tgt.m)
            sv = np.linalg.svd(pts - pts.mean(axis=0), compute_uv=False)
            # a totally geodesic image in flat space fits an affine subspace
            affine = float(sv[n:].max() / max(sv[0], 1e-30)) if sv.size > n else 0.0
        band = diag_tol * max(1.0, homothety)
        ok = spread <= band and hess_sup <= band and svar <= band
        if affine is not None:
            ok = ok and affine <= diag_tol
        equality = EqualityDiagnostics(
            energy_density_variation=svar, affine_fit_residual=affine, tol=diag_tol, ok=ok
        )

    return PinchingReport(
        n=n,
        resolution=(dom.n1, dom.n2),
        domain=dom.descriptor(),
        target=tgt.descriptor(),
        ric_min=rmin,
        ric_min_witness=tuple(float(x) for x in rwit),
        sec_max_image=data.sec_max,
        sec_max_witness_point=data.sec_max_witness,
        sec_max_global_sample=tgt.sec_bounds[1],
        S0=S0,
        e_max=e_max,
        threshold_S0=float(threshold_S0),
        threshold_e=float(threshold_e),
        margin=float(margin),
        tol=float(tol),
        tol_coeff=TOL_COEFF,
        hypothesis_ok=hypothesis_ok,
        classification=classification,
        prediction=prediction,
        is_constant=is_constant,
        sup_tension=data.sup_tension,
        harmonic_tol=float(harmonic_tol),
        harmonic=harmonic,
        hess_sup=hess_sup,
        lambda_spread=spread,
        homothety_factor=homothety,
        equality=equality,
    )


_ROW_FIELDS = ("classification", "margin", "tol", "sup_tension", "harmonic", "is_constant")


@dataclass
class ScanRow:
    name: str | float  # a catalog name, or the sweep value of a parameter scan
    report: PinchingReport
    status: str
    detail: str

    def to_dict(self):
        return {"name": self.name, **{k: getattr(self.report, k) for k in _ROW_FIELDS},
                "status": self.status, "detail": self.detail}


@dataclass
class ScanResult:
    rows: list
    ok: bool

    def table(self):
        lines = [
            f"{'map':24s} {'class':10s} {'margin':>12s} {'sup|tau|':>10s} {'status':8s}"
        ]
        for r in self.rows:
            rep = r.report
            lines.append(
                f"{r.name:24s} {rep.classification:10s} {rep.margin:12.4e} "
                f"{rep.sup_tension:10.2e} {r.status:8s} {r.detail}"
            )
        return "\n".join(lines)


def theorem_consistency_scan(entries):
    """Falsification sweep: one report per (name, map) entry.

    An entry fails when its report names a counterexample and passes
    when its map is numerically harmonic; a non-harmonic entry is
    listed as skipped.  Each map is dropped once its report is built,
    so a generator of entries holds one map at a time.
    """
    rows = []
    for name, f in entries:
        rep = build_report(f)
        del f  # gone before a generator of entries builds the next map
        reason = rep.counterexample
        if reason:
            status, detail = "fail", reason
        elif rep.harmonic:
            status, detail = "pass", ""
        else:
            status, detail = "skipped", "not numerically harmonic"
        rows.append(ScanRow(name, rep, status, detail))
    return ScanResult(rows=rows, ok=all(r.status != "fail" for r in rows))
