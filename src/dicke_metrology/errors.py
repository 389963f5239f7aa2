"""Exception types shared across the package."""


class DickeMetrologyError(Exception):
    """Base class for numerical-domain failures raised by this package."""


class CriticalPointSingularity(DickeMetrologyError):
    """The coupling sits inside the excluded window around the critical point."""


class NonConvergedSeries(DickeMetrologyError):
    """A truncated series failed to reach the requested tail mass, or could not be carried on in doubles."""


class UnphysicalStateError(DickeMetrologyError, ValueError):
    """Moments violate the constraints of a physical (or in-family) Gaussian state."""


class SingularCovarianceError(DickeMetrologyError, ValueError):
    """A covariance matrix is singular or indefinite where positivity is required."""
