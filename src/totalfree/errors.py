"""Exception types shared across the package."""

from __future__ import annotations


class TotalFreeError(Exception):
    """Base class for all errors raised by this package."""


class ParseError(TotalFreeError):
    """Malformed arrangement or basis file.  Carries the offending line number."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class DuplicateHyperplaneError(ParseError):
    """Two input hyperplanes normalize to the same covector.

    Duplicates are rejected, never merged: merging would silently change
    the meaning of the multiplicity vector.
    """


class DimensionMismatchError(TotalFreeError):
    """Vector/arrangement/derivation dimensions do not line up."""


class MalformedFlatError(TotalFreeError):
    """A rank-2 flat does not belong to the arrangement it is used with."""


class ReducibleInputError(TotalFreeError):
    """An operation needing an irreducible arrangement of rank >= 3 got something else."""


class NotTotallyFreeError(TotalFreeError):
    """Exponents were asked of an arrangement that is not totally free."""


class InternalInvariantError(TotalFreeError):
    """A condition guaranteed by the underlying theory failed.

    Reaching this indicates a bug in this package, not bad user input.
    """
