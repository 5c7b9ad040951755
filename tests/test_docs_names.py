"""Every package name README.md cites in backticks still exists."""

import importlib
import inspect
import pkgutil
import re
from pathlib import Path

import darcais

README = Path(__file__).resolve().parent.parent / "README.md"
MODULES = {info.name: importlib.import_module(f"darcais.{info.name}")
           for info in pkgutil.iter_modules(darcais.__path__)}
CLASSES = {name: value for module in MODULES.values()
           for name, value in vars(module).items() if inspect.isclass(value)}


def cited_spans():
    text = re.sub(r"```.*?```", "", README.read_text(encoding="utf-8"), flags=re.S)
    return re.findall(r"`([^`]+)`", text)


def test_every_dotted_package_name_resolves():
    # `exact.slot_width`, `darcais.arith`, `Poly.from_numerators`; a dotted
    # name that starts with no module or class of the package is skipped
    stale = []
    for span in cited_spans():
        for dotted in re.findall(r"\b\w+(?:\.\w+)+", span):
            first, *rest = dotted.removeprefix("darcais.").split(".")
            value = MODULES.get(first, CLASSES.get(first))
            if value is None:
                continue
            for name in rest:
                value = getattr(value, name, None)
            if value is None:
                stale.append(dotted)
    assert stale == []


def test_every_snake_case_call_resolves():
    # `value_sequence(`, `euler_product_ints(24, ·)`; an equation such as
    # `A[n][m] = sum gw(mu) * hw_orbit(mu, n)` is math, and so is a name with
    # a one-letter or numeric part, such as `h_j(k)` or `sigma_11(n)`; a
    # method of a local, such as `bound.bit_length()`, is not the package's
    calls = {name for span in cited_spans() if " = " not in span
             for name in re.findall(r"(?<![.\w])(_?[a-z][a-z0-9]*(?:_[a-z][a-z0-9]+)+)\(", span)}
    assert calls
    assert sorted(name for name in calls
                  if not any(hasattr(module, name) for module in MODULES.values())) == []
