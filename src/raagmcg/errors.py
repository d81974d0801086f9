"""Domain errors. Every error carries a machine-readable code and details."""

from __future__ import annotations


class RaagError(Exception):
    """Base class for all domain errors raised by this package."""

    def __init__(self, message: str, **details):
        super().__init__(message)
        self.message = message
        self.details = details

    @property
    def code(self) -> str:
        return type(self).__name__

    def to_json_dict(self) -> dict:
        return {"error": self.code, "message": self.message, "details": self.details}


class MalformedGraph(RaagError):
    pass


class MalformedRealization(RaagError):
    pass


class DuplicateVertex(RaagError):
    pass


class SelfLoop(RaagError):
    pass


class DanglingEdge(RaagError):
    pass


class UnknownVertex(RaagError):
    pass


class UnknownCurve(RaagError):
    pass


class MalformedWord(RaagError, ValueError):
    """Raised for a word token outside the grammar (details ``token``).  It
    is a ValueError too, so ``except ValueError`` callers keep catching it."""


class GraphMismatch(RaagError, ValueError):
    """Raised when objects over different defining graphs meet.  It is a
    ValueError too, so ``except ValueError`` callers keep catching it."""


class MoveNotApplicable(RaagError):
    pass


class CapExceeded(RaagError):
    pass


class SearchBudgetExceeded(RaagError):
    pass


class NotCyclicallyReduced(RaagError):
    pass


class ShiftMapUndefined(RaagError):
    """Raised when a power of the word does not keep the block structure
    needed to shift syllables between powers (single-generator words, or
    words whose support is disconnected in the complement graph)."""


class DisjointnessMismatch(RaagError):
    pass


class NestingDetected(RaagError):
    pass


class InvalidConstants(RaagError):
    pass


class NotFilling(RaagError):
    pass
