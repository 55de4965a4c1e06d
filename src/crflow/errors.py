"""Exception hierarchy shared across the package."""


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
