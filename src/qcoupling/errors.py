"""Exception types shared across the package.

Every error raised on bad input or failed numerics derives from
CouplingError so callers (and the CLI) can catch one base class.
"""


class CouplingError(ValueError):
    """Base class for all domain and numerics errors in this package."""


class DomainError(CouplingError):
    """Input outside the mathematical domain of the operation."""


class PoleError(DomainError):
    """Parameter sits on (or numerically at) a pole of the map."""


class SingularDivisorError(DomainError):
    """Deformed division or subtraction with a vanishing divisor."""


class UnsupportedInputError(CouplingError):
    """Operation not defined for this input kind (e.g. grids where only
    closed families are meaningful)."""


class InstabilityError(CouplingError):
    """Numerical blow-up detected during time stepping."""


class InsufficientDataError(CouplingError):
    """Too few samples for the requested statistical procedure."""


class NumericsError(CouplingError):
    """A numerical consistency check failed (residuals, quadrature)."""
