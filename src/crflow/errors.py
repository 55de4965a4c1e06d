"""Exception hierarchy shared across the package, and the type check on
numeric construction arguments that raises one of them."""

import numbers


class CrflowError(Exception):
    """Base class for all package errors."""


class ConfigError(CrflowError):
    """Invalid configuration or construction arguments."""


class DimensionError(CrflowError):
    """Operands defined over mismatched spaces or shapes."""


class ValidationError(CrflowError):
    """A validation report failed and the caller did not override."""


class NumericalError(CrflowError):
    """A numerical routine produced non-finite values or failed to converge."""


class PositivityError(NumericalError):
    """A trajectory left the nonnegative cone beyond tolerance."""


class ConvergenceError(NumericalError):
    """An iterative solver exceeded its iteration budget."""


class StiffnessError(NumericalError):
    """Adaptive step size underflowed."""


def require_number(name: str, value) -> None:
    """Raise a ConfigError naming the field unless value is a real number
    (a Python or numpy int or float, not a bool)."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ConfigError(f"{name} must be a number, got {value!r}")
