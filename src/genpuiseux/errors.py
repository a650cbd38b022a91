"""Shared exception types for the expansion engine."""


class EngineError(Exception):
    """Base class for all engine errors."""


class ValuationIndeterminate(EngineError):
    """The valuation is only bounded below by the working precision."""

    def __init__(self, message="valuation indeterminate", bound=None):
        super().__init__(message)
        self.bound = bound


class PrecisionExceeded(EngineError):
    """A read or operation needs data beyond the stored precision."""


class NonUnit(EngineError):
    """Inversion of a non-unit (positive valuation or non-invertible lead)."""


class DivisionByZero(EngineError):
    """Field division by zero."""


class IrreducibleOverRationals(EngineError):
    """No root exists in a Q-base tower and extension is not whitelisted."""


class ChainComplete(EngineError):
    """The key-polynomial chain already computes the valuation of the input."""


class ChainExhausted(EngineError):
    """A stage index points past the computed key-polynomial chain."""


class UnsupportedLimitPattern(EngineError):
    """A limit stage matched no registered closed-form exponent pattern."""


class ZeroPolynomial(EngineError):
    """An operation that needs a nonzero polynomial received zero."""


class EngineInvariantViolation(EngineError):
    """An internal invariant of the recursion failed; carries diagnostics."""


class ParseError(EngineError):
    """Input text does not match the grammar."""

    def __init__(self, message, line=None, col=None):
        loc = ""
        if line is not None:
            loc = f" at line {line}" + (f", col {col}" if col is not None else "")
        super().__init__(message + loc)
        self.line = line
        self.col = col
