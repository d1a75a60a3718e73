"""Exception types shared across the package."""

from __future__ import annotations


class SteerlabError(Exception):
    """Base class for every error raised by this package."""


class DimensionError(SteerlabError, ValueError):
    """Operand dimensions are inconsistent or exceed the configured cap."""


class ValidationError(SteerlabError, ValueError):
    """A value violates one of its declared invariants."""


class DegenerateInputError(SteerlabError, ValueError):
    """The input is degenerate (zero vector, zero trace) so the result is undefined."""


class UnsupportedSettingError(SteerlabError, ValueError):
    """The measurement setting lacks the structure this operation needs."""


class PreconditionError(SteerlabError, ValueError):
    """A documented precondition of the operation does not hold."""


class ParseError(SteerlabError, ValueError):
    """A document failed schema validation; ``path`` locates the offending node."""

    def __init__(self, message: str, path: str = ""):
        self.path = path
        super().__init__(f"{path}: {message}" if path else message)


class SolverLimitError(SteerlabError, RuntimeError):
    """The feasibility solver reached no verdict.

    Raised when its iteration cap is hit, when a passive Gram block is
    singular, or when its residual is above the tolerance but certifies
    nothing.
    """
