"""Numerical laboratory for curvature-pinching rigidity of harmonic maps.

The package computes, on model domain and target manifolds, every
quantity in the pinching inequality

    Ric_min(M)  vs  (n-1)/n * Sec_max(f(M)) * sup |df|^2,

finds harmonic maps by heat flow, verifies the Bochner identity chain
at second order in the grid spacing, and classifies maps against the
strict (constancy) and threshold (homothety) predictions.
"""

from .bochner import (
    compute_bochner,
    integral_identity_residual,
    lambda_chain_check,
    pinching_slack,
)
from .catalog import parse_domain, parse_target
from .domains import FlatTorus2, RoundSphere2, ricci_min
from .errors import (
    BochnerLabError,
    ChartDomainError,
    DegeneratePlaneError,
    NumericalError,
    StabilityError,
    UsageError,
)
from .flow import FlowParams, FlowSummary, image_diameter, run_flow
from .maps import (
    DiscreteMap,
    catalog_map,
    constant_map,
    holomorphic_map,
    identity_sphere_map,
    load_map,
    radial_scaling_map,
    save_map,
    total_energy,
)
from .rigidity import PinchingReport, build_report, theorem_consistency_scan
from .targets import (
    Ellipsoid,
    Euclidean,
    FlatTorusEmb,
    ProductSpheres,
    Sphere,
    sec_max_over_region,
    sectional_curvature,
)

__version__ = "0.1.0"
