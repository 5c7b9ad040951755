"""The requires-python floor: the package source must run on Python 3.10.

`int.to_bytes` gained defaults for its length and byte order in 3.11, and
`int.from_bytes` one for its byte order, so a call that leans on them runs
on 3.11 and fails on 3.10.  The calls are read from the source with `ast`,
so the check holds whichever interpreter runs the tests.
"""

import ast
from pathlib import Path

import pytest

import darcais

PACKAGE = Path(darcais.__file__).parent

# the parameters each method must be given, by position or by keyword
REQUIRED = {"to_bytes": ("length", "byteorder"), "from_bytes": ("bytes", "byteorder")}


def calls_on_newer_defaults(source: str) -> list[int]:
    """Line numbers of the `.to_bytes(...)` and `.from_bytes(...)` calls that
    leave a parameter of REQUIRED to its default."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
            required = REQUIRED.get(node.func.attr)
            if required is None:
                continue
            given = set(required[:len(node.args)]) | {k.arg for k in node.keywords}
            if not given.issuperset(required):
                lines.append(node.lineno)
    return lines


@pytest.mark.parametrize("path", sorted(PACKAGE.rglob("*.py")), ids=lambda p: p.name)
def test_byte_conversions_pass_their_length_and_byte_order(path):
    assert calls_on_newer_defaults(path.read_text()) == [], path.name


def test_a_call_on_the_newer_defaults_is_caught():
    source = "\n".join([
        "a = v.to_bytes(width)",
        "b = int.from_bytes(data)",
        "c = v.to_bytes(byteorder='little')",
        "d = v.to_bytes(width, 'little')",
        "e = int.from_bytes(data, byteorder='little', signed=True)",
        "f = v.to_bytes(length=width, byteorder='big')",
    ])
    assert calls_on_newer_defaults(source) == [1, 2, 3]
