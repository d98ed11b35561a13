"""Exception hierarchy, :func:`require` for validators' violation lines,
and the file I/O shared by all nlv modules.  Every file loader is built on
the JSON readers at the end, so all formats refuse bad input the same way:
with a ParseError whose message starts with the file kind, e.g. ``game
file: ...``.  Every file writer formats with :func:`dump_json` and writes
with :func:`write_file`."""

from __future__ import annotations

import json
import os
import stat
from json.encoder import encode_basestring_ascii

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


def require(violations: tuple[str, ...], what: str) -> None:
    """Raise a validator's violation lines, if there are any, as one
    ``invalid <what>: <line>; <line>`` :class:`ValidationError`."""
    if violations:
        raise ValidationError(f"invalid {what}: {'; '.join(violations)}")


_JSON_TYPES = {list: "a list", str: "a string", dict: "an object"}


def excerpt(value) -> str:
    """File content as an error line shows it: ``repr(value)``, whose line
    breaks stay escaped, and past 40 characters only its first 20 and last
    17 around ``...``."""
    text = repr(value)
    return text if len(text) <= 40 else f"{text[:20]}...{text[-17:]}"


def read_object(text: str, what: str) -> dict:
    """The top-level object of a JSON document; ``what`` names the file
    kind in errors, e.g. ``"game file"``."""
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as err:
        raise ParseError(f"{what}: invalid JSON at line {err.lineno}: {err.msg}") from err
    except RecursionError as err:
        raise ParseError(f"{what}: invalid JSON: nested too deeply") from err
    except ValueError as err:   # an integer literal past Python's digit limit
        raise ParseError(f"{what}: invalid JSON: integer literal too long") from err
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
    that 2.0 reads as 2 and true is refused, and no larger than a numpy
    index, so that no size computed from it is too long to print."""
    value = _get(obj, key, what)
    if type(value) is float and value.is_integer():
        value = int(value)
    if type(value) is not int or value < 1:
        raise ParseError(f"{what}: {key} must be an integer >= 1, got {excerpt(value)}")
    if value > np.iinfo(np.intp).max:
        raise ParseError(f"{what}: {key} out of range")
    return value


def _has_shape(values, shape: tuple[int, ...]) -> bool:
    if not isinstance(values, list) or len(values) != shape[0]:
        return False
    if len(shape) == 1:
        return {int, float}.issuperset(map(type, values))
    return all(_has_shape(v, shape[1:]) for v in values)


def read_array(values, shape: tuple[int, ...], what: str) -> np.ndarray:
    """Nested lists of numbers of exactly ``shape`` as a float64 array.
    The shape is checked before anything is allocated; an integer past
    float64's range, or a shape numpy cannot hold, is refused."""
    if not _has_shape(values, tuple(shape)):
        raise ParseError(f"{what} must be a numeric array of shape {tuple(shape)}")
    try:
        return np.array(values, dtype=np.float64).reshape(shape)
    except (OverflowError, ValueError) as err:
        raise ParseError(f"{what}: number or dimension out of range") from err


_FORMATS = {float: float.__repr__, int: int.__repr__, str: encode_basestring_ascii}


def dump_json(obj, newline: str = "\n") -> str:
    """``json.dumps(obj, indent=2)``, byte for byte, without the
    pure-Python encoder that ``indent`` selects: a list whose items are all
    floats, all ints or all strings is one ``join`` of their formats.
    Object keys must be strings; ``newline`` is the line break and indent
    at ``obj``'s depth."""
    if not isinstance(obj, (list, tuple, dict)) or not obj:
        return json.dumps(obj)
    inner = newline + "  "
    if isinstance(obj, dict):
        return "{" + inner + ("," + inner).join(
            [f"{encode_basestring_ascii(key)}: {dump_json(value, inner)}"
             for key, value in obj.items()]) + newline + "}"
    kinds = set(map(type, obj))
    fmt = _FORMATS.get(kinds.pop()) if len(kinds) == 1 else None
    body = ("," + inner).join(map(fmt, obj)) if fmt else ""
    if not body or (fmt is float.__repr__ and "n" in body):  # json writes NaN, Infinity
        body = ("," + inner).join([dump_json(v, inner) for v in obj])
    return "[" + inner + body + newline + "]"


def write_file(path, text: str) -> None:
    """Write ``text`` to ``path`` in place, then cut a regular file to its
    new length: truncating to zero first, as ``Path.write_text`` does, makes
    ext4 flush the file on close.  No more atomic than that; a target that
    is not a regular file (``/dev/null``, a pipe) is never cut."""
    with open(os.open(path, os.O_WRONLY | os.O_CREAT, 0o666), "wb") as file:
        file.write(text.encode())
        if stat.S_ISREG(os.fstat(file.fileno()).st_mode):
            file.truncate()
