"""Structured errors shared across the library.

Misuse that no caller should recover from (wrong arity, empty input) raises
plain ValueError; everything with domain meaning gets its own class so tests
and the CLI can tell failure modes apart.
"""

from __future__ import annotations


class ZeroRadicandError(ValueError):
    """Tried to adjoin sqrt(0) to a tower."""


class SquareRadicandError(ValueError):
    """Tried to adjoin sqrt(d) where d is already a square in the tower."""

    def __init__(self, message: str, root=None):
        super().__init__(message)
        self.root = root


class NonRealRadicandError(ValueError):
    """Tried to adjoin sqrt(d) for d not fixed by conjugation."""


class TowerDepthError(ValueError):
    """Tried to build a tower of more than field.MAX_DEPTH square roots."""


class ZeroShiftError(ValueError):
    """A shift step kappa of 0 was supplied."""


class ZeroPolynomialError(ValueError):
    """The zero polynomial appeared where a nonzero one is required."""


class NotDivisibleError(ArithmeticError):
    """Exact polynomial division left a nonzero remainder."""


class EnclosureWidthError(ArithmeticError):
    """Interval refinement stopped before reaching the requested width."""


class DependentInputsError(ValueError):
    """Inputs required to be linearly independent are not."""


class ZeroSumError(ValueError):
    """A derived sum that must be nonzero vanished identically."""


class ParseError(ValueError):
    """Source text rejected by the expression parser.

    Carries the 0-based offset of the offending token and, when known, the
    set of token kinds that would have been accepted there.  A bad flag
    value has no source text: position None, and no suffix.
    """

    def __init__(
        self, message: str, position: int | None = None, expected: frozenset[str] = frozenset()
    ):
        super().__init__(message if position is None else f"{message} (at position {position})")
        self.position = position
        self.expected = expected


class UnknownConstantError(ParseError):
    """A symbol or square root that the session tower cannot represent."""


class NegativeExponentError(ParseError):
    """An exponent below zero; only natural powers are allowed."""


class PrintLimitError(ValueError):
    """A coefficient whose printed numerator or denominator would pass the
    digit limit of Python's int/str conversion."""


class ZeroLeadingError(ValueError):
    """A factored polynomial with leading coefficient zero."""


class NonPositiveMultiplicityError(ValueError):
    """A factored polynomial with a root multiplicity below one."""
