"""Error types shared across the package.

The CLI maps these onto exit codes: domain/range -> 3, resource -> 4,
disagreement -> 5. The CLI also raises DomainError for an --output path
that cannot be opened for writing.
NumericError signals a solver that failed to converge on valid input,
which is a bug, so it is never caught internally.
"""

from decimal import Decimal


def short_int(n: int) -> str:
    """n for a one-line message: whole up to 30 digits, else as 1.000e+400."""
    return str(n) if n < 10**30 else f"{Decimal(n):.3e}"


class FriabilisError(Exception):
    pass


class DomainError(FriabilisError, ValueError):
    """A parameter violates a documented precondition."""


class RangeError(DomainError):
    """A query lies outside the tabulated range (grid or prime table)."""


class ResourceError(FriabilisError):
    """A work cap (a count, an x, a y or a prime table) would be exceeded."""


class NumericError(FriabilisError):
    """An iteration failed to converge. Must not happen for valid inputs."""


class DisagreementError(FriabilisError):
    """Exact counting methods returned different counts for one (x, y)."""
