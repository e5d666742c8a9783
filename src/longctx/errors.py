"""Exception types shared across the toolkit, the one field-type check, and the
one reader of UTF-8 text files, which raises them for bytes that are not UTF-8.

The CLI maps these onto exit codes: configuration problems exit with 2,
data/validation problems with 3, numeric failures with 4.
"""

import numbers


class LongCtxError(Exception):
    """Base class for all toolkit errors."""


class ConfigurationError(LongCtxError):
    """Invalid model/strategy configuration (bad dimensions, infeasible parameters)."""


class DimensionError(ConfigurationError):
    """Vector or matrix shapes incompatible with the requested operation."""


class PositionError(LongCtxError):
    """Position id outside the active position table or target window."""


class LengthError(LongCtxError):
    """Input longer than the target context window."""


class EmptyInputError(LongCtxError):
    """Operation requires at least one active token / item."""


class GenerationError(LongCtxError):
    """A synthetic generator cannot satisfy its contract (exhausted names, short essay)."""


class ValidationError(LongCtxError):
    """Task data is internally inconsistent (dangling ids, missing judgments)."""


class ParseError(ValidationError):
    """A task, config or checkpoint file could not be parsed."""


class EvaluationError(LongCtxError):
    """Metrics were handed inconsistent rankings or judgments."""


class NumericError(LongCtxError):
    """A numeric failure (NaN loss, divergence) aborted the run."""


# What a value must be for each annotation ``check_types`` knows. bool is an
# int subclass in Python, so it is ruled out of int and float explicitly.
_TYPE_RULES = {
    "int": lambda v: isinstance(v, numbers.Integral) and not isinstance(v, bool),
    "float": lambda v: isinstance(v, numbers.Real) and not isinstance(v, bool),
    "str": lambda v: isinstance(v, str),
    "bool": lambda v: isinstance(v, bool),
}


def check_types(values: dict, annotations: dict[str, str]) -> None:
    """Raise ConfigurationError naming the first value its annotation rejects.

    ``annotations`` maps each name in ``values`` to a type written as a
    string, as dataclass fields under ``from __future__ import annotations``
    carry it: ``int`` takes an integer but not a bool, ``float`` a real
    number but not a bool, and ``X | None`` also takes None. Names annotated
    with any other type are left to their owner's own checks.
    """
    for name, value in values.items():
        annotation = annotations[name]
        kind = annotation.removesuffix(" | None")
        ok = _TYPE_RULES.get(kind)
        if ok is None or ok(value) or (value is None and kind != annotation):
            continue
        raise ConfigurationError(f"{name!r} must be {annotation}, got {value!r}")


def read_text(path, error: type[LongCtxError]) -> str:
    """A UTF-8 text file's contents, newlines as "\\n"; bytes that are not UTF-8
    raise ``error`` naming the file."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except UnicodeDecodeError as exc:
        raise error(f"{path}: not UTF-8 text ({exc.reason})") from exc
