"""Shared exception types.

Everything user-facing maps onto two CLI exit codes: DomainError-family
errors (bad arguments, divergent parameters, boundary points, unparseable
input) exit with 2, BudgetExceededError and MemoryError with 3.
"""


class DomainError(ValueError):
    """Parameters outside the mathematical domain of an operation."""


class BoundaryPointError(DomainError):
    """The point lies on the boundary divisor; affine-only operations reject it."""


class PointParseError(DomainError):
    """Unparseable point text."""


class BudgetExceededError(RuntimeError):
    """An enumeration would exceed the configured candidate budget."""
