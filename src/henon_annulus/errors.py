"""Exception types shared across the package."""


class HenonAnnulusError(Exception):
    """Base class for all package errors."""


class ConfigurationError(HenonAnnulusError):
    """Invalid configuration: grid sizes, parameter ranges, malformed sweep specs."""


class DomainError(HenonAnnulusError):
    """Evaluation outside the admissible domain of an operation."""


class GridCompatibilityError(HenonAnnulusError):
    """Two objects live on grids that do not match."""


class DegenerateFieldError(HenonAnnulusError):
    """An operation received an identically zero or otherwise degenerate field."""


class NonConvergenceError(HenonAnnulusError):
    """Every attempted solve failed to converge."""


class ContractViolationError(HenonAnnulusError):
    """A documented precondition or an internal invariant did not hold."""
