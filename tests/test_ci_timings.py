"""The CI timing runner: its table still names the package, and a child
that exits non-zero fails the run."""

import ast
import builtins

import pytest

from darcais.cli import build_parser

from ci_timings import CLI, ENTRIES, LONG, child_source, run


@pytest.mark.parametrize("setup, statement", ENTRIES + LONG, ids=[s for _, s in ENTRIES + LONG])
def test_every_entry_still_names_the_package(setup, statement):
    # a renamed flag or function fails here, not only in the CI job
    compile(child_source(setup, statement), "<child>", "exec")
    namespace = {}
    exec(setup, namespace)
    call = ast.parse(statement, mode="eval").body
    names = {node.id for node in ast.walk(call) if isinstance(node, ast.Name)}
    assert all(name in namespace or hasattr(builtins, name) for name in names)
    if call.func.id == "main":
        build_parser().parse_args(ast.literal_eval(call.args[0]))


def test_run_passes_a_call_that_exits_0(capsys):
    assert run([(CLI, "main(['poly', '--n', '3'])")]) == 0
    assert capsys.readouterr().out.startswith("main(['poly', '--n', '3']): ")


def test_run_fails_when_one_call_exits_nonzero(capsys):
    entries = [(CLI, "main(['poly', '--n', '3'])"),
               (CLI, "main(['scan', '--check', 'lehmer', '--max-n', '0'])")]
    assert run(entries) != 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 2 and lines[1].endswith(", exit 2")
