"""Exception types shared across the package."""
from __future__ import annotations


class DymatchError(Exception):
    """Base class for all package-specific errors."""


class InfeasibleConstraintError(DymatchError):
    """No dyadic pmf supported on the target can satisfy the cost budget."""


class SizeCapError(DymatchError):
    """A block extension would exceed SIZE_CAP entries."""


class ConvergenceError(DymatchError):
    """A multiplier search found no bracket below its cap."""


class CodeFormatError(DymatchError):
    """A code table, bit stream, or text input failed to parse.

    Carries optional location attributes so callers can point at the
    offending spot: line and column for table files, position for
    character streams.
    """

    def __init__(self, message: str, *, line: int | None = None,
                 column: int | None = None, position: int | None = None):
        loc = []
        if line is not None:
            loc.append(f"line {line}")
        if column is not None:
            loc.append(f"column {column}")
        if position is not None:
            loc.append(f"position {position}")
        if loc:
            message = f"{message} ({', '.join(loc)})"
        super().__init__(message)
        self.line = line
        self.column = column
        self.position = position
