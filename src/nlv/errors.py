"""Exception hierarchy, report type and JSON readers shared by all nlv
modules.  Every file loader is built on the readers at the end, so all
formats refuse bad input the same way: with a ParseError whose message
starts with the file kind, e.g. ``game file: ...``."""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np


class NlvError(Exception):
    """Base class for all domain errors raised by this package."""


class ValidationError(NlvError):
    """An object violates its invariants, or an argument is out of range."""


class ParseError(NlvError):
    """A file or text blob does not conform to its documented schema."""


class DimensionMismatchError(NlvError):
    """Two objects that must share dimensions do not."""


class CapExceededError(NlvError):
    """A requested enumeration or sampling size exceeds the configured cap."""


class DefectTooLargeError(NlvError):
    """An almost-PVM is too far from a genuine PVM to be repaired."""


class MachineHaltedError(NlvError):
    """A halted machine configuration was asked to take another step."""


@dataclass(frozen=True)
class Report:
    """Result of a report-style validation check.

    ``violations`` holds one human-readable line per failed check, naming
    the offending index, and ``ok`` is True iff there are none.  ``worst``
    is the largest violation magnitude seen (0.0 when clean).
    """

    violations: tuple[str, ...] = ()
    worst: float = 0.0

    @property
    def ok(self) -> bool:
        return not self.violations

    def raise_if_failed(self, what: str) -> None:
        if not self.ok:
            detail = "; ".join(self.violations)
            raise ValidationError(f"invalid {what}: {detail}")


_JSON_TYPES = {list: "a list", str: "a string", dict: "an object"}


def read_object(text: str, what: str) -> dict:
    """The top-level object of a JSON document; ``what`` names the file
    kind in errors, e.g. ``"game file"``."""
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as err:
        raise ParseError(f"{what}: invalid JSON at line {err.lineno}: {err.msg}") from err
    if not isinstance(obj, dict):
        raise ParseError(f"{what}: top level must be an object")
    return obj


def _get(obj, key: str, what: str):
    if not isinstance(obj, dict):
        raise ParseError(f"{what} must be an object")
    if key not in obj:
        raise ParseError(f"{what}: missing field '{key}'")
    return obj[key]


def read_field(obj, key: str, kind: type, what: str):
    """Field ``key`` of ``obj``, required to be a JSON list, string or
    object (``kind`` is list, str or dict)."""
    value = _get(obj, key, what)
    if not isinstance(value, kind):
        raise ParseError(f"{what}: field '{key}' must be {_JSON_TYPES[kind]}")
    return value


def read_count(obj, key: str, what: str) -> int:
    """Field ``key`` of ``obj`` as a count: an integral number >= 1, so
    that 2.0 reads as 2 and true is refused."""
    value = _get(obj, key, what)
    if type(value) is float and value.is_integer():
        value = int(value)
    if type(value) is not int or value < 1:
        raise ParseError(f"{what}: {key} must be an integer >= 1, got {value!r}")
    return value


def _has_shape(values, shape: tuple[int, ...]) -> bool:
    if not isinstance(values, list) or len(values) != shape[0]:
        return False
    if len(shape) == 1:
        return all(type(v) in (int, float) for v in values)
    return all(_has_shape(v, shape[1:]) for v in values)


def read_array(values, shape: tuple[int, ...], what: str) -> np.ndarray:
    """Nested lists of numbers of exactly ``shape`` as a float64 array.
    The shape is checked before anything is allocated."""
    if not _has_shape(values, tuple(shape)):
        raise ParseError(f"{what} must be a numeric array of shape {tuple(shape)}")
    return np.array(values, dtype=np.float64).reshape(shape)
