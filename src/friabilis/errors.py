"""Error types shared across the package.

The CLI maps these onto exit codes: domain/range -> 3, resource -> 4,
disagreement -> 5. The CLI also raises DomainError for an output path
(--output, --export-grid) that cannot be opened for writing.
NumericError signals a solver that failed to converge on valid input,
which is a bug, so it is never caught internally.
"""


class FriabilisError(Exception):
    pass


class DomainError(FriabilisError, ValueError):
    """A parameter violates a documented precondition."""


class RangeError(DomainError):
    """A query lies outside the tabulated range (grid or prime table)."""


class ResourceError(FriabilisError):
    """A configurable work cap would be exceeded.

    Carries ``estimate`` (predicted work or count) when one is available.
    """

    def __init__(self, message, estimate=None):
        super().__init__(message)
        self.estimate = estimate


class NumericError(FriabilisError):
    """An iteration failed to converge. Must not happen for valid inputs."""


class DisagreementError(FriabilisError):
    """Exact counting methods returned different counts for one (x, y)."""
