"""Route independence: each route module imports only the shared primitives.

The routes are checked against each other, so agreement means something
only while they share no code beyond `exact` and `arith` (and, for the
partition routes, `partitions`).  The primitives are layered below the
routes: `exact` and `partitions` import no package module, and `arith`
only `exact`.  The imports are read from the source with `ast`, so a
route that reaches another one at call time is caught before it runs.
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
