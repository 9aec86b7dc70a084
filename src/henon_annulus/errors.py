"""Exception types shared across the package."""


class HenonAnnulusError(Exception):
    """Base class for all package errors."""


class ConfigurationError(HenonAnnulusError):
    """Invalid input: grid sizes, parameter ranges, malformed sweep specs,
    a point outside an operation's domain, or a field on the wrong grid."""


class DegenerateFieldError(HenonAnnulusError):
    """An operation received an identically zero or otherwise degenerate field."""


class NonConvergenceError(HenonAnnulusError):
    """Every attempted solve failed to converge."""


class ContractViolationError(HenonAnnulusError):
    """A documented precondition or an internal invariant did not hold."""
