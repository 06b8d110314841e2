"""Exception and warning types shared across the package, and the one
check of an input number."""

import math
import operator


class VentrcError(Exception):
    """Base class for toolkit-specific errors."""


class ConfigurationError(VentrcError, ValueError):
    """Structurally invalid configuration (shift budgets, capacities, periods)."""


def check_number(field: str, value, *, gt=None, ge=None, lt=math.inf, le=None,
                 integer: bool = False):
    """value, or ConfigurationError("<field> must ..., got <value!r>").

    The bounds are gt or ge below and lt and le above.  lt is math.inf and
    holds unless le=math.inf, so inf fails unless le=math.inf allows it.  The
    first bound that fails names the rule: "positive" for gt=0, "finite" for
    lt=inf.
    NaN fails every bound.  An integer field must pass operator.index
    ("must be an integer"), and its index is returned.
    """
    if integer:
        try:
            value = operator.index(value)
        except TypeError:
            raise ConfigurationError(f"{field} must be an integer, got {value!r}") from None
    if gt is not None and not value > gt:
        rule = "positive" if gt == 0 else f"> {gt}"
    elif ge is not None and not value >= ge:
        rule = f">= {ge}"
    elif le != math.inf and not value < lt:
        rule = "finite" if lt == math.inf else f"< {lt}"
    elif le is not None and not value <= le:
        rule = f"<= {le}"
    else:
        return value
    raise ConfigurationError(f"{field} must be {rule}, got {value!r}")


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
