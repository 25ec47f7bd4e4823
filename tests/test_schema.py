import dataclasses
import json

import pytest

from tickslab.errors import SchemaViolation
from tickslab.schema import check_record, json_type_ok, type_name

# field annotation -> the Python types of the JSON values it takes
ACCEPTED = {
    "bool": {bool},
    "int": {int},
    "float": {int, float},
    "str": {str},
    "dict": {dict},
    "list": {list},
    "tuple": {list},
}


@pytest.mark.parametrize("kind", sorted(ACCEPTED))
@pytest.mark.parametrize("value", [True, 1, 1.5, "x", [], {}], ids=repr)
def test_json_type_ok(kind, value):
    assert json_type_ok(value, kind) == (type(value) in ACCEPTED[kind])


@pytest.mark.parametrize(
    "text, ok",
    [
        ("\ud800", False),
        ("x\udfffy", False),
        ("\ud83d\ude00", False),  # two lone surrogates, not joined
        (json.loads('"\\ud83d\\ude00"'), True),  # JSON joins an escaped pair into one emoji
        ("café", True),
        ("", True),
    ],
    ids=repr,
)
def test_str_takes_only_valid_unicode(text, ok):
    assert json_type_ok(text, "str") is ok
    assert (type_name(text) == "str") is ok


def test_refusal_names_a_lone_surrogate():
    @dataclasses.dataclass
    class Record:
        name: "str"

    with pytest.raises(SchemaViolation, match="name: expected str, got a string that is not valid Unicode"):
        check_record(Record, json.loads('{"name": "\\ud800"}'))
