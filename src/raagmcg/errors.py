"""Domain errors. Every error carries a machine-readable code and details."""

from __future__ import annotations

import json
import sys


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


class DuplicateCurve(RaagError):
    """Raised for a realization whose reference curves name one curve twice
    (details ``curve``)."""


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


class IntegerTooLong(RaagError):
    """Raised where an answer's integer becomes text and has more digits
    than Python converts (details ``limit``, read from
    ``sys.get_int_max_str_digits()``).  The package keeps that limit;
    a caller that wants longer answers lifts it with
    ``sys.set_int_max_str_digits``."""

    def __init__(self):
        limit = sys.get_int_max_str_digits()
        super().__init__(
            f"the answer holds an integer of more than {limit} digits, "
            "more than Python converts to text", limit=limit,
        )


def _reject_constant(name: str):
    raise ValueError(f"{name} is not a JSON number")


def _finite_float(text: str) -> float:
    value = float(text)
    if abs(value) > sys.float_info.max:  # overflowed to an infinity
        raise ValueError(f"{text} is out of floating-point range")
    return value


# Standard JSON only: NaN and Infinity, which json.loads accepts, and
# numbers that overflow a float never reach a graph or a realization, so
# every float an error's details echo is finite.
_DECODER = json.JSONDecoder(parse_constant=_reject_constant, parse_float=_finite_float)


def decode_json(text: str, error: type[RaagError], kind: str):
    """``json.loads(text)`` for standard JSON, raising ``error`` for each
    way it fails: text that is not JSON (details ``line`` and
    ``column``); ``NaN``, ``Infinity``, a number out of floating-point
    range or an integer of more digits than ``int()`` converts; and
    arrays or objects nested past the parser's stack.  ``kind`` ("graph",
    "realization") opens each message.  The one decoder of the graph and
    realization loaders."""
    try:
        if text.startswith("\ufeff"):
            json.loads(text)  # raises: json.loads names a byte-order mark before decoding
        return _DECODER.decode(text)
    except json.JSONDecodeError as err:
        raise error(
            f"{kind} is not valid JSON: {err}", line=err.lineno, column=err.colno
        ) from None
    except ValueError as err:  # a number the parse hooks or int() reject
        raise error(f"{kind} JSON cannot be read: {err}") from None
    except RecursionError:
        raise error(f"{kind} JSON is nested too deeply") from None
