"""Exception and warning types shared across the package."""


class VentrcError(Exception):
    """Base class for toolkit-specific errors."""


class ConfigurationError(VentrcError, ValueError):
    """Structurally invalid configuration (shift budgets, capacities, periods)."""


class SingularityError(VentrcError, ValueError):
    """Transfer-function evaluation hit a denominator root on the grid, or overflowed."""


class IdentificationError(VentrcError, RuntimeError):
    """Closed-loop identification could not produce a usable estimate."""


class DesignError(VentrcError, RuntimeError):
    """Filter synthesis failed its stability or margin requirements."""

    def __init__(self, message, report=None):
        super().__init__(message)
        self.report = report


class ExperimentDiverged(VentrcError, RuntimeError):
    """Closed-loop experiment produced unbounded or non-finite signals."""

    def __init__(self, message, partial_log=None):
        super().__init__(message)
        self.partial_log = partial_log


class FitConvergenceWarning(UserWarning):
    """Rational fitting stopped before meeting its convergence target."""
