"""Command-line front end: compute, cross-verify, scan, export.

Exit codes: 0 success, 1 verification failure (first counterexample goes
to stdout), 2 usage error.  All output is deterministic for a fixed
invocation; rationals are always serialized as "p/q" strings (plain
decimal strings for integers), never as floats.
"""

from __future__ import annotations

import argparse
import json
import sys
from contextlib import nullcontext
from fractions import Fraction
from typing import Optional

from .arith import ArithmeticFunction, CumulativeProduct, from_descriptor
from .checks import SUITES, run_suite
from .exact import Poly, X, format_rational, rational
from .recursion import coefficient_table, polynomial_sequence
from .series import generating_series_h_id, generating_series_h_one, hook_length_polynomial
from .shapes import (
    hook_poly_log_concavity_scan,
    hook_poly_top_inequality_scan,
    lehmer_scan,
    top_margin,
)
from .weights import (
    coefficient_composition_sum,
    coefficient_from_weights,
    coefficient_h_id,
    coefficient_h_one,
)

# Unused here, but perfbench/test_perfbench.py checks that the benchmark
# tracer rebinds this name in darcais.cli and in the package root.
from .series import euler_product_power  # noqa: F401

METHODS = ("recursion", "lemma", "main-theorem", "thm1", "thm2", "composition", "series", "hook")
CHECKS = ("lehmer", "hook-logconcave", "hook-top", "delta")
FORMATS = ("text", "json", "csv")


class UsageError(Exception):
    """Bad descriptors, indices, bounds, or method/function mismatches (exit 2)."""


def _parse_functions(args: argparse.Namespace) -> tuple[ArithmeticFunction, ArithmeticFunction]:
    try:
        g = from_descriptor(args.g_desc)
        h = from_descriptor(args.h_desc)
    except (ValueError, TypeError, OSError) as exc:
        raise UsageError(f"bad function descriptor: {exc}") from exc
    return g, h


def _require_h(args: argparse.Namespace, h: ArithmeticFunction, names: tuple[str, ...]) -> None:
    if h.name not in names:
        raise UsageError(f"method {args.method!r} needs h in {names}, got {args.h_desc!r}")


def _poly_from_method(args: argparse.Namespace, g: ArithmeticFunction, h: ArithmeticFunction) -> Poly:
    n = args.n
    if n < 0:
        raise UsageError("n must be nonnegative")
    if args.method == "recursion":
        return polynomial_sequence(g, h, n)[n]
    if args.method == "series":
        _require_h(args, h, ("one", "id"))
        series = generating_series_h_one(g, n) if h.name == "one" else generating_series_h_id(g, n)
        coeff = series.coefficient(n)
        return coeff if isinstance(coeff, Poly) else Poly((coeff,))
    if args.method == "hook":
        if g.name != "sigma:1" or h.name != "id":
            raise UsageError("method 'hook' is only defined for --g sigma:1 --h id")
        return hook_length_polynomial(n)(X - 1)
    raise UsageError(f"method {args.method!r} is not valid for 'poly'")


def _coeff_from_method(
    args: argparse.Namespace, g: ArithmeticFunction, h: ArithmeticFunction
) -> Fraction:
    n, m, method = args.n, args.m, args.method
    if not 0 <= m <= n:
        raise UsageError(f"coefficient indices need 0 <= m <= n, got n={n}, m={m}")
    if method in ("main-theorem", "thm1", "thm2", "composition") and m == 0:
        raise UsageError(f"method {method!r} needs m >= 1")
    if method in ("recursion", "series", "hook"):
        return _poly_from_method(args, g, h)[m] * CumulativeProduct(h).value(n)
    if method == "lemma":
        return Fraction(coefficient_table(g, h, n).entry(n, m))
    if method == "main-theorem":
        return coefficient_from_weights(g, h, n, m)
    if method == "thm1":
        _require_h(args, h, ("one",))
        return coefficient_h_one(g, n, m)
    if method == "thm2":
        _require_h(args, h, ("id",))
        return coefficient_h_id(g, n, m)
    if method == "composition":
        _require_h(args, h, ("one", "id"))
        return coefficient_composition_sum(g, n, m, h.name)
    raise UsageError(f"unknown method {method!r}")


def _run_poly(args: argparse.Namespace) -> int:
    eval_at = None
    if args.eval_at is not None:
        try:
            eval_at = rational(args.eval_at)
        except (ValueError, TypeError, ZeroDivisionError) as exc:
            raise UsageError(f"bad --eval-at value {args.eval_at!r}: {exc}") from exc
    g, h = _parse_functions(args)
    try:
        poly = _poly_from_method(args, g, h)
    except (ValueError, IndexError) as exc:
        raise UsageError(str(exc)) from exc
    doc = {"g": g.name, "h": h.name, "n": args.n, "method": args.method}
    if eval_at is not None:
        value = poly(eval_at)
        if args.format == "json":
            doc.update(eval_at=format_rational(eval_at), value=format_rational(value))
            print(json.dumps(doc))
        else:
            print(format_rational(value))
    elif args.format == "json":
        doc["coefficients"] = [format_rational(c) for c in poly.padded(args.n + 1)]
        print(json.dumps(doc))
    else:
        print(str(poly))
    return 0


def _run_coeff(args: argparse.Namespace) -> int:
    g, h = _parse_functions(args)
    try:
        value = _coeff_from_method(args, g, h)
        if args.scaled:
            value = Fraction(value) / CumulativeProduct(h).value(args.n)
    except (ValueError, IndexError) as exc:
        raise UsageError(str(exc)) from exc
    if args.format == "json":
        print(json.dumps({
            "g": g.name, "h": h.name, "n": args.n, "m": args.m,
            "method": args.method, "scaled": args.scaled,
            "value": format_rational(value),
        }))
    else:
        print(format_rational(value))
    return 0


# ---------------------------------------------------------------------------
# verification suites (darcais.checks)


def _run_verify(args: argparse.Namespace) -> int:
    names = list(SUITES) if args.suite == "all" else [args.suite]
    bounds = {name: args.max_n or SUITES[name].default_n for name in names}
    for name, bound in bounds.items():
        minimum = SUITES[name].min_n
        if bound < minimum:
            raise UsageError(f"suite {name!r} needs --max-n >= {minimum}, got {bound}")
    for name, bound in bounds.items():
        checks, failure = run_suite(name, bound)
        if failure is not None:
            print(f"FAIL {name}: {failure}")
            return 1
        print(f"ok {name}: {checks} checks up to n={bound}")
    return 0


# ---------------------------------------------------------------------------
# scans


def _emit_value_rows(rows: list[tuple[int, Fraction]], fmt: str) -> None:
    if fmt == "json":
        print(json.dumps([format_rational(v) for _, v in rows]))
    elif fmt == "csv":
        print("n,value")
        for n, v in rows:
            print(f"{n},{format_rational(v)}")
    else:
        for n, v in rows:
            print(f"{n} {format_rational(v)}")


def _emit_summary(doc: dict, fmt: str) -> None:
    if fmt == "json":
        print(json.dumps(doc))
    elif fmt == "csv":
        keys = list(doc)
        print(",".join(keys))
        print(",".join(str(doc[k]) for k in keys))
    else:
        print(" ".join(f"{k}={doc[k]}" for k in doc))


_SCAN_MIN_N = {"lehmer": 1, "hook-logconcave": 1, "hook-top": 2, "delta": 2}


def _run_scan(args: argparse.Namespace) -> int:
    max_n, check = args.max_n, args.check
    if max_n < _SCAN_MIN_N[check]:
        raise UsageError(f"{check} scan needs --max-n >= {_SCAN_MIN_N[check]}")
    if check == "lehmer":
        report = lehmer_scan(max_n)
        _emit_value_rows([(n, report.values[n]) for n in range(1, max_n + 1)], args.format)
        if not report.passed:
            detail = f"zeros at {report.zeros}" if report.zeros else "Euler-product cross-check failed"
            print(f"FAIL lehmer: {detail}", file=sys.stderr)
            return 1
        return 0
    if check == "delta":
        g, h = _parse_functions(args)
        try:
            rows = [(n, top_margin(g, h, n)) for n in range(2, max_n + 1)]
        except (ValueError, IndexError) as exc:
            raise UsageError(str(exc)) from exc
        _emit_value_rows(rows, args.format)
        bad = [n for n, v in rows if v <= 0]
        if bad:
            print(f"FAIL delta: nonpositive margin at n={bad[0]}", file=sys.stderr)
            return 1
        return 0
    if check == "hook-logconcave":
        report = hook_poly_log_concavity_scan(max_n, check_chain=True)
    else:
        report = hook_poly_top_inequality_scan(max_n)
    _emit_summary(
        {"check": report.check, "max_n": report.max_n, "passed": report.passed,
         "first_failure": report.first_failure}, args.format)
    return 0 if report.passed else 1


def _run_export(args: argparse.Namespace) -> int:
    g, h = _parse_functions(args)
    if args.max_n < 0:
        raise UsageError("export needs --max-n >= 0")
    # open --output before the work, so an unwritable path fails fast
    try:
        output = open(args.output, "w", encoding="utf-8") if args.output else nullcontext(sys.stdout)
    except OSError as exc:
        raise UsageError(f"cannot write --output: {exc}") from exc
    with output as handle:
        try:
            table = coefficient_table(g, h, args.max_n)
        except (ValueError, IndexError) as exc:
            raise UsageError(str(exc)) from exc
        doc = table.to_dict()
        if args.format == "json":
            text = json.dumps(doc)
        else:
            header = "n/m," + ",".join(str(m) for m in range(args.max_n + 1))
            lines = [header]
            for n in range(args.max_n + 1):
                row = doc["rows"][n]
                cells = row + [""] * (args.max_n + 1 - len(row))
                lines.append(f"{n}," + ",".join(cells))
            text = "\n".join(lines)
        try:
            print(text, file=handle)
        except OSError as exc:
            raise UsageError(f"cannot write --output: {exc}") from exc
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="darcais",
        description="Exact polynomials attached to arithmetic functions: "
        "computation, cross-verification, scans, export.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_functions(p: argparse.ArgumentParser) -> None:
        p.add_argument("--g", dest="g_desc", default="sigma:1",
                       help="descriptor for g: one | id | sigma:<l> | tilde:<desc> | table:<path>")
        p.add_argument("--h", dest="h_desc", default="id",
                       help="descriptor for h (must be non-vanishing)")

    p_poly = sub.add_parser("poly", help="compute one attached polynomial")
    p_poly.set_defaults(func=_run_poly)
    add_functions(p_poly)
    p_poly.add_argument("--n", type=int, required=True)
    p_poly.add_argument("--method", choices=("recursion", "series", "hook"), default="recursion")
    p_poly.add_argument("--eval-at", dest="eval_at", default=None,
                        help="evaluate at this rational (p/q) instead of printing coefficients")
    p_poly.add_argument("--format", choices=("text", "json"), default="text")

    p_coeff = sub.add_parser("coeff", help="compute one triangle coefficient A[n][m]")
    p_coeff.set_defaults(func=_run_coeff)
    add_functions(p_coeff)
    p_coeff.add_argument("--n", type=int, required=True)
    p_coeff.add_argument("--m", type=int, required=True)
    p_coeff.add_argument("--method", choices=METHODS, default="lemma")
    p_coeff.add_argument("--scaled", action="store_true",
                         help="divide by H(n), giving the literal coefficient of x^m")
    p_coeff.add_argument("--format", choices=("text", "json"), default="text")

    p_verify = sub.add_parser("verify", help="run a cross-verification suite")
    p_verify.set_defaults(func=_run_verify)
    p_verify.add_argument("--suite", choices=(*SUITES, "all"), default="all")
    p_verify.add_argument("--max-n", dest="max_n", type=int, default=0,
                          help="override the suite's desk-scale bound")

    p_scan = sub.add_parser("scan", help="run an exact scan")
    p_scan.set_defaults(func=_run_scan)
    add_functions(p_scan)
    p_scan.add_argument("--check", choices=CHECKS, required=True)
    p_scan.add_argument("--max-n", dest="max_n", type=int, required=True)
    p_scan.add_argument("--format", choices=FORMATS, default="text")

    p_export = sub.add_parser("export", help="export a coefficient table")
    p_export.set_defaults(func=_run_export)
    add_functions(p_export)
    p_export.add_argument("--max-n", dest="max_n", type=int, required=True)
    p_export.add_argument("--format", choices=("json", "csv"), default="json")
    p_export.add_argument("--output", default=None, help="write to this path instead of stdout")

    return parser


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code else 0
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
