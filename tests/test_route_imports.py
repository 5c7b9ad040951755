"""Route independence: each route module imports only the shared primitives.

The routes are checked against each other, so agreement means something
only while they share no code beyond `exact` and `arith` (and, for the
partition routes, `partitions`).  The primitives are layered below the
routes: `exact` and `partitions` import no package module, and `arith`
only `exact`.  The imports are read from the source with `ast`, so a
route that reaches another one at call time is caught before it runs.
Within `exact`, the Kronecker packing is reached only through
`product_window` and `slot_width`: no other module names `pack_signed` or
`unpack_window`, so the slot-width rule has one home.
"""

import ast
from pathlib import Path

import pytest

import darcais

PACKAGE = Path(darcais.__file__).parent

ALLOWED = {
    "exact": set(),
    "arith": {"exact"},
    "partitions": set(),
    "recursion": {"exact", "arith"},
    "weights": {"exact", "arith", "partitions"},
    # series -> recursion is the one exception: `closed_family_check` is a
    # cross-check kept in series.py until the benchmark change of ROADMAP
    # item 1 lets it move into checks.py.
    "series": {"exact", "arith", "partitions", "recursion"},
}


def package_imports(source: str) -> set[str]:
    """Names of the darcais modules a module's source imports, in any spelling."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            for alias in node.names:
                parts = alias.name.split(".")
                if parts[0] == "darcais" and len(parts) > 1:
                    found.add(parts[1])
        elif isinstance(node, ast.ImportFrom):
            parts = node.module.split(".") if node.module else []
            if node.level == 0:
                if not parts or parts[0] != "darcais":
                    continue
                parts = parts[1:]
            if parts:
                found.add(parts[0])
            else:  # `from . import x` or `from darcais import x`
                found.update(alias.name for alias in node.names)
    return found


@pytest.mark.parametrize("route", sorted(ALLOWED))
def test_routes_import_only_the_shared_primitives(route):
    imports = package_imports((PACKAGE / f"{route}.py").read_text())
    assert imports <= ALLOWED[route], f"{route} imports {sorted(imports - ALLOWED[route])}"


def test_every_import_spelling_is_seen():
    source = "\n".join([
        "import math",
        "import darcais.weights",
        "from darcais import shapes",
        "from darcais.checks import run_suite",
        "from . import cli",
        "from .recursion import value_sequence",
        "from fractions import Fraction",
    ])
    assert package_imports(source) == {"weights", "shapes", "checks", "cli", "recursion"}


PACKED_PRIMITIVES = {"pack_signed", "unpack_window"}


def names_used(source: str) -> set[str]:
    """Every name, attribute and imported name a module's source spells."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name):
            found.add(node.id)
        elif isinstance(node, ast.Attribute):
            found.add(node.attr)
        elif isinstance(node, ast.alias):
            found.add(node.name.split(".")[-1])
    return found


def test_only_exact_packs_a_product():
    """The routes multiply through `exact.product_window`, which sizes its
    slots by `exact.slot_width`; packing and reading a window of slots stay
    inside exact, so no route sizes a packed product of its own."""
    packers = sorted(path.stem for path in PACKAGE.glob("*.py")
                     if names_used(path.read_text()) & PACKED_PRIMITIVES)
    assert packers == ["exact"]


def test_every_name_spelling_is_seen():
    source = "\n".join([
        "from .exact import pack_signed as p",
        "import darcais.exact as e",
        "w = e.unpack_window",
        "unpack_signed(1, 2, 3)",
    ])
    assert {"pack_signed", "unpack_window", "unpack_signed"} <= names_used(source)
