"""Command-line front end: compute, cross-verify, scan, export.

Exit codes: 0 success, 1 verification failure (first counterexample goes
to stdout), 2 usage error, 3 internal error, 141 stdout closed by its reader
(128 + SIGPIPE).  All output is deterministic for a fixed invocation;
rationals are "p/q" strings (plain decimal strings for integers), never floats.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from contextlib import nullcontext
from fractions import Fraction
from math import prod
from typing import Iterator, Optional

from .arith import ArithmeticFunction, from_descriptor
from .checks import SUITES, run_suite
from .exact import Poly, X, format_rational, rational
from .recursion import CoefficientTable, coefficient_table, polynomial
from .series import generating_series_h_id, generating_series_h_one, hook_length_polynomial
from .shapes import (
    delta_scan,
    hook_poly_log_concavity_scan,
    hook_poly_top_inequality_scan,
    lehmer_scan,
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
POLY_METHODS = ("recursion", "series", "hook")
# the h each method takes, for the methods that do not take every h
_METHOD_H = {"series": ("one", "id"), "composition": ("one", "id"),
             "thm1": ("one",), "thm2": ("id",)}


class UsageError(Exception):
    """Bad descriptors, indices, bounds, or method/function mismatches (exit 2)."""


class _Parser(argparse.ArgumentParser):
    """Raises argparse's own usage errors as UsageError: one `error:` line."""

    def error(self, message: str):
        raise UsageError(message)


def _parse_functions(args: argparse.Namespace) -> tuple[ArithmeticFunction, ArithmeticFunction]:
    try:
        g = from_descriptor(args.g_desc)
        h = from_descriptor(args.h_desc)
    except (ValueError, TypeError, OSError) as exc:
        raise UsageError(f"bad function descriptor: {exc}") from exc
    return g, h


def _check_method(args: argparse.Namespace, g: ArithmeticFunction, h: ArithmeticFunction) -> None:
    names = _METHOD_H.get(args.method)
    if names is not None and h.name not in names:
        raise UsageError(f"method {args.method!r} needs h in {names}, got {args.h_desc!r}")
    if args.method == "hook" and (g.name, h.name) != ("sigma:1", "id"):
        raise UsageError("method 'hook' is only defined for --g sigma:1 --h id")


def _poly_from_method(args: argparse.Namespace, g: ArithmeticFunction, h: ArithmeticFunction) -> Poly:
    n = args.n
    if n < 0:
        raise UsageError("n must be nonnegative")
    _check_method(args, g, h)
    if args.method == "recursion":
        return polynomial(g, h, n)
    if args.method == "series":
        series = generating_series_h_one(g, n) if h.name == "one" else generating_series_h_id(g, n)
        coeff = series.coefficient(n)
        return coeff if isinstance(coeff, Poly) else Poly((coeff,))
    return hook_length_polynomial(n)(X - 1)


def _coeff_from_method(
    args: argparse.Namespace, g: ArithmeticFunction, h: ArithmeticFunction
) -> Fraction:
    """A[n][m]; for the POLY_METHODS, the coefficient of x^m in P_n instead."""
    n, m, method = args.n, args.m, args.method
    if not 0 <= m <= n:
        raise UsageError(f"coefficient indices need 0 <= m <= n, got n={n}, m={m}")
    if method in ("main-theorem", "thm1", "thm2", "composition") and m == 0:
        raise UsageError(f"method {method!r} needs m >= 1")
    if method in POLY_METHODS:
        return _poly_from_method(args, g, h)[m]
    _check_method(args, g, h)
    if method == "lemma":
        return Fraction(coefficient_table(g, h, n).entry(n, m))
    if method == "main-theorem":
        return coefficient_from_weights(g, h, n, m)
    if method == "thm1":
        return coefficient_h_one(g, n, m)
    if method == "thm2":
        return coefficient_h_id(g, n, m)
    return coefficient_composition_sum(g, n, m, h.name)


def _run_poly(args: argparse.Namespace) -> int:
    eval_at = None
    if args.eval_at is not None:
        try:
            eval_at = rational(args.eval_at)
        except (ValueError, TypeError) as exc:
            raise UsageError(f"bad --eval-at value {args.eval_at!r}: {exc}") from exc
    g, h = _parse_functions(args)
    try:
        poly = _poly_from_method(args, g, h)
    except (ValueError, IndexError) as exc:
        raise UsageError(str(exc)) from exc
    value = None if eval_at is None else format_rational(poly(eval_at))
    if args.format == "json":
        doc = {"g": g.name, "h": h.name, "n": args.n, "method": args.method}
        if value is None:
            doc["coefficients"] = [format_rational(c) for c in poly.padded(args.n + 1)]
        else:
            doc.update(eval_at=format_rational(eval_at), value=value)
        text = json.dumps(doc)
    else:
        text = str(poly) if value is None else value
    print(text)
    return 0


def _run_coeff(args: argparse.Namespace) -> int:
    g, h = _parse_functions(args)
    try:
        value = _coeff_from_method(args, g, h)
        literal = args.method in POLY_METHODS
        if args.scaled != literal:  # convert by H(n) = h(1) ... h(n)
            hn = prod(h(k) for k in range(1, args.n + 1))
            value = Fraction(value) / hn if args.scaled else value * hn
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
    bounds = {name: SUITES[name].default_n if args.max_n is None else args.max_n for name in names}
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
    g, h = _parse_functions(args)
    if check != "delta" and (g.name, h.name) != ("sigma:1", "id"):
        raise UsageError(f"{check} scan is only defined for --g sigma:1 --h id")
    if check == "lehmer":
        values, (_, failure) = lehmer_scan(max_n)
        rows, reason = [(n, values[n]) for n in range(1, max_n + 1)], "{0[1]} at n={0[0]}"
    elif check == "delta":
        try:
            rows, (_, failure) = delta_scan(g, h, max_n)
        except (ValueError, IndexError) as exc:
            raise UsageError(str(exc)) from exc
        reason = "nonpositive margin at n={0}"
    else:
        if check == "hook-logconcave":
            name, (_, failure) = "hook-log-concavity", hook_poly_log_concavity_scan(max_n)
        else:
            name, (_, failure) = "hook-top-inequality", hook_poly_top_inequality_scan(max_n)
        _emit_summary({"check": name, "max_n": max_n, "passed": failure is None,
                       "first_failure": failure}, args.format)
        return 0 if failure is None else 1
    _emit_value_rows(rows, args.format)
    if failure is not None:
        print(f"FAIL {check}: " + reason.format(failure), file=sys.stderr)
    return 0 if failure is None else 1


def _export_chunks(table: CoefficientTable, fmt: str) -> Iterator[str]:
    """The export document, one row formatted at a time, so that only the
    triangle and the row being written are held.  The JSON pieces are the
    bytes of json.dumps(table.to_dict()): the header goes through
    json.dumps, which escapes the names, and entries hold only digits, "-"
    and "/", which JSON never escapes."""
    rows = range(table.max_n + 1)
    if fmt == "json":
        yield json.dumps(table.header())[:-1] + ', "rows": ['
        for n in rows:
            cells = '", "'.join(table.formatted_row(n))
            yield f'{", " if n else ""}["{cells}"]'
        yield "]}\n"
    else:
        yield f"n/m,{','.join(map(str, rows))}\n"
        for n in rows:
            yield f"{n},{','.join(table.formatted_row(n))}{',' * (table.max_n - n)}\n"


def _run_export(args: argparse.Namespace) -> int:
    g, h = _parse_functions(args)
    if args.max_n < 0:
        raise UsageError("export needs --max-n >= 0")
    try:  # open --output before the work, so an unwritable path fails fast
        output = open(args.output, "w", encoding="utf-8") if args.output else nullcontext(sys.stdout)
        with output as handle:
            try:
                table = coefficient_table(g, h, args.max_n)
            except (ValueError, IndexError) as exc:
                raise UsageError(str(exc)) from exc
            handle.writelines(_export_chunks(table, args.format))
    except OSError as exc:  # the open, a write, or the flush when the file closes
        if not args.output:
            raise
        raise UsageError(f"cannot write --output: {exc}") from exc
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
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
    p_poly.add_argument("--method", choices=POLY_METHODS, default="recursion")
    p_poly.add_argument("--eval-at", dest="eval_at", default=None,
                        help="evaluate at this integer or p/q instead of printing coefficients "
                        "(a negative one as --eval-at=-1/2)")
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
    p_verify.add_argument("--max-n", dest="max_n", type=int, default=None,
                          help="override the suite's desk-scale bound")

    p_scan = sub.add_parser("scan", help="run an exact scan")
    p_scan.set_defaults(func=_run_scan)
    add_functions(p_scan)
    p_scan.add_argument("--check", choices=tuple(_SCAN_MIN_N), required=True)
    p_scan.add_argument("--max-n", dest="max_n", type=int, required=True)
    p_scan.add_argument("--format", choices=("text", "json", "csv"), default="text")

    p_export = sub.add_parser("export", help="export a coefficient table")
    p_export.set_defaults(func=_run_export)
    add_functions(p_export)
    p_export.add_argument("--max-n", dest="max_n", type=int, required=True)
    p_export.add_argument("--format", choices=("json", "csv"), default="json")
    p_export.add_argument("--output", default=None, help="write to this path instead of stdout")

    return parser


def main(argv: Optional[list[str]] = None) -> int:
    # lift the int-to-str digit cap (absent before Python 3.10.7) for the run, not the parse
    cap = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    try:
        args = build_parser().parse_args(argv)
        if cap:
            sys.set_int_max_str_digits(0)
        code = args.func(args)
        sys.stdout.flush()  # so a closed pipe shows here, not at exit
        return code
    except SystemExit as exc:  # --help
        return int(exc.code) if exc.code else 0
    except BrokenPipeError:  # the reader is gone: quiet the flush at exit, exit as SIGPIPE would
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3
    finally:
        if cap:
            sys.set_int_max_str_digits(cap)


if __name__ == "__main__":
    sys.exit(main())
