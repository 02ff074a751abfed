"""Exception types shared across the package."""

__all__ = [
    "HyperharmonicError", "DomainError", "PoleError", "NonConvergentError",
    "AccelerationBreakdown", "UnknownIdentityError",
]


class HyperharmonicError(Exception):
    """Base class for package-specific failures."""


class DomainError(HyperharmonicError, ValueError):
    """Input lies outside the mathematical domain of an operation."""


class PoleError(HyperharmonicError, ZeroDivisionError):
    """Evaluation at, or within 1e-12 of, a pole."""


class NonConvergentError(HyperharmonicError, ArithmeticError):
    """A series failed to reach the requested tolerance within its budget."""


class AccelerationBreakdown(HyperharmonicError, ArithmeticError):
    """A unit-circle tail model cannot be formed: the ladder's overflows
    or is singular, or the anchored rule's expansion of the terms
    overflows (shifts near 1e30)."""


class UnknownIdentityError(HyperharmonicError, KeyError):
    """Lookup of an identity id that is not in the registry."""
