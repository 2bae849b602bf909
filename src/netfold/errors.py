"""Exception types shared across the package."""

from __future__ import annotations

from contextlib import contextmanager


class NetfoldError(Exception):
    """Base class for all package errors."""


class ValidationError(NetfoldError):
    """A shell description violates a structural requirement."""


@contextmanager
def writing(path):
    """Raise an OSError met while writing to `path` as a ValidationError
    naming the path, as reading a shell document does."""
    try:
        yield
    except OSError as exc:
        raise ValidationError(f"{exc.filename or path}: cannot write: {exc.strerror or exc}") from exc


class NonManifoldError(ValidationError):
    """An edge is shared by a number of faces incompatible with a shell."""

    def __init__(self, edge, count, message=None):
        self.edge = tuple(edge)
        self.count = count
        super().__init__(message or f"edge {self.edge} belongs to {count} faces")


class MissingGeometryError(NetfoldError):
    """A geometric operation was requested on a faces-only shell."""


class BudgetExceededError(NetfoldError):
    """A search exceeded its node or time budget.

    Carries whatever was computed before the overrun so callers can report
    partial results.
    """

    def __init__(self, message, partial=None):
        self.partial = partial
        super().__init__(message)


class FallbackExhaustedError(NetfoldError):
    """Every candidate net overlaps itself; no selection is possible."""

    def __init__(self, message, ranked=None):
        self.ranked = ranked
        super().__init__(message)
