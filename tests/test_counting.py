"""One counting loop: only `exact.first_failure` counts a check's comparisons.

Every check and scan hands its outcomes to `first_failure`, so the count
it reports is the number of comparisons actually made.  The increments
of a name `checks` are read from the source with `ast`, so a hand-written
counter is caught before it runs.
"""

import ast
from pathlib import Path

import darcais
from darcais.exact import first_failure

PACKAGE = Path(darcais.__file__).parent


def counters(source: str) -> set[str]:
    """Dotted names of the functions whose own body increments `checks`."""
    found = set()

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, scope + (child.name,))
                continue
            if (isinstance(child, ast.AugAssign) and isinstance(child.target, ast.Name)
                    and child.target.id == "checks"):
                found.add(".".join(scope))
            visit(child, scope)

    visit(ast.parse(source), ())
    return found


def test_only_first_failure_counts_checks():
    found = {f"{path.stem}.{name}" for path in sorted(PACKAGE.glob("*.py"))
             for name in counters(path.read_text())}
    assert found == {"exact.first_failure"}


def test_a_hand_counter_is_seen():
    source = "\n".join([
        "def scan(max_n):",
        "    checks = 0",
        "    def outcomes():",
        "        nonlocal checks",
        "        for n in range(max_n):",
        "            checks += 1",
        "    total = 0",
        "    total += 1",
        "    return checks",
    ])
    assert counters(source) == {"scan.outcomes"}


def test_first_failure_stops_at_the_first_failure():
    def outcomes():
        yield None
        yield None
        yield (3, "here")
        raise AssertionError("read past the first failure")

    assert first_failure(outcomes()) == (3, (3, "here"))


def test_first_failure_counts_every_outcome_it_reads():
    assert first_failure(iter([None] * 5)) == (5, None)
    assert first_failure([None, 0, None]) == (2, 0)  # a falsy location is still a failure
    assert first_failure([]) == (0, None)
