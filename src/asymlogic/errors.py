"""Shared exception types for the toolchain."""

from __future__ import annotations


class AsymLogicError(Exception):
    """Base class for every error raised by this package."""


class ArityError(AsymLogicError):
    """An operator was built with too few (or malformed) operands."""


class EvaluationError(AsymLogicError):
    """Evaluation hit an unbound variable or a non-expression node."""


class CapacityError(AsymLogicError):
    """A size limit was exceeded: a variable cap or the cover node budget."""


class ShapeError(AsymLogicError):
    """An expression is not in the normal form an operation requires."""


class NoMatchError(AsymLogicError):
    """A rewrite rule did not match at the requested position."""


class ParseError(AsymLogicError):
    """Concrete-syntax error, with the offending character position."""

    def __init__(self, message: str, position: int) -> None:
        super().__init__(f"{message} (at position {position})")
        self.position = position
