"""The one reader of a JSON record: the config, a task line and a log line.

A record is a dataclass whose field annotations name JSON types.  Python
counts a bool as an int, so bools are told apart here: a bool field takes
only a bool, an int field an int, a float field an int or a float that a
float64 holds: the one finite-float rule, so NaN, the infinities (which
RFC 8259 keeps out of JSON) and ints past float range are refused.  JSON's
``\ud800`` escapes decode to lone surrogates, which no UTF-8 text can hold,
so a str field takes only a string that encodes as UTF-8.  A reader states
its other rules as ``(test, text)`` pairs such as ``at_least(1)``.
"""

from __future__ import annotations

import dataclasses
import sys

from .errors import SchemaViolation

_JSON_TYPES = {"bool": bool, "int": int, "dict": dict, "list": list, "tuple": list}


def json_type_ok(value, kind: str) -> bool:
    """Whether ``value`` has the JSON type of a field annotated ``kind``; a float is finite."""
    if kind == "str":
        return isinstance(value, str) and _unicode_ok(value)
    if kind == "float":
        number = isinstance(value, (int, float)) and not isinstance(value, bool)
        return number and abs(value) <= sys.float_info.max
    return isinstance(value, _JSON_TYPES[kind]) and (kind == "bool" or not isinstance(value, bool))


def type_name(value) -> str:
    """The type of ``value`` as a refusal names it; a number that no float
    holds shows its ``value_repr``, and a string that is not valid Unicode says so."""
    if isinstance(value, str) and not _unicode_ok(value):
        return "a string that is not valid Unicode (lone surrogate)"
    number = isinstance(value, (int, float)) and not isinstance(value, bool)
    if number and not json_type_ok(value, "float"):
        return value_repr(value)
    return type(value).__name__


def value_repr(value) -> str:
    """``repr(value)``, cut after its first 80 characters and then sized, or
    the bit length of an int past Python's digit limit."""
    try:
        text = repr(value)
    except ValueError:
        return f"<int of {value.bit_length()} bits>"
    return text if len(text) <= 80 else f"{text[:80]}... <repr of {len(text)} characters>"


def _unicode_ok(text: str) -> bool:
    if text.isascii():
        return True
    try:
        text.encode("utf-8")
    except UnicodeEncodeError:
        return False
    return True


def at_least(low):
    return (lambda v: v >= low), f">= {low}"


def between(low, high):
    return (lambda v: low <= v <= high), f"in [{low}, {high}]"


def one_of(*allowed):
    return (lambda v: v in allowed), f"one of {', '.join(map(repr, allowed))}"


def every_int(cls, rule) -> dict:
    """``rule`` for each int field of dataclass ``cls``, as ``check_record`` takes it."""
    return {f.name: rule for f in dataclasses.fields(cls) if f.type == "int"}


def check_record(cls, doc, path: str = "", **rules) -> dict:
    """``doc`` if it is an object that fits the fields of dataclass ``cls``.

    Unknown keys are refused and a field without a default must be present.
    A field whose default a dataclass builds is a nested record, checked in
    turn; any other present field must have its JSON type, then pass
    ``rules[name]``, a ``(test, text)`` pair, if there is one.  A failure
    raises ``SchemaViolation(path + name, reason)``; an empty key is named ``''``.
    """
    if not isinstance(doc, dict):
        raise SchemaViolation(path.rstrip("."), "expected an object")
    fields = {f.name: f for f in dataclasses.fields(cls)}
    for key in doc:
        if key not in fields:
            raise SchemaViolation(f"{path}{key or repr(key)}", "unknown field")
    for name, f in fields.items():
        if name not in doc:
            if f.default is dataclasses.MISSING and f.default_factory is dataclasses.MISSING:
                raise SchemaViolation(f"{path}{name}", "missing field")
        elif dataclasses.is_dataclass(f.default_factory):
            check_record(f.default_factory, doc[name], f"{path}{name}.")
        elif not json_type_ok(doc[name], f.type):
            raise SchemaViolation(f"{path}{name}", f"expected {f.type}, got {type_name(doc[name])}")
        elif name in rules and not rules[name][0](doc[name]):
            raise SchemaViolation(f"{path}{name}", f"must be {rules[name][1]}, got {value_repr(doc[name])}")
    return doc
