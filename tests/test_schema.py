import pytest

from tickslab.schema import json_type_ok

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
