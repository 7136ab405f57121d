"""Exception hierarchy shared by all modules.

The CLI maps these onto its exit-code contract:
usage errors -> 2, numerical errors -> 3, assertion failures -> 1.
"""


class BochnerLabError(Exception):
    """Base class for all package errors."""


class UsageError(BochnerLabError):
    """Caller violated a precondition (bad arguments, empty sample set, ...)."""


class ChartDomainError(BochnerLabError):
    """A chart point or ambient point lies outside the valid range."""


class NumericalError(BochnerLabError):
    """A numerical procedure failed (singular metric, no convergence, ...)."""


class DegeneratePlaneError(NumericalError):
    """Two vectors fail to span a 2-plane."""


class StabilityError(NumericalError):
    """Flow step rejected too many times in a row."""


class HypothesisViolationError(UsageError):
    """A curvature-sign hypothesis was violated while its flag was on."""
