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
from fractions import Fraction
from typing import Optional

from .arith import ArithmeticFunction, CumulativeProduct, from_descriptor, identity, one, sigma
from .exact import Poly, X, format_rational, rational
from .partitions import partitions_of
from .recursion import coefficient_table, polynomial_sequence, value_sequence
from .series import (
    closed_family_check,
    euler_product_power,
    generating_series_h_id,
    generating_series_h_one,
    hook_length_polynomial,
    inverse_eisenstein,
)
from .shapes import (
    counterexample_search,
    hook_poly_log_concavity_scan,
    hook_poly_top_inequality_scan,
    is_log_concave,
    is_ultra_log_concave,
    is_unimodal,
    lehmer_scan,
    top_margin,
    top_margin_lower_bound,
    transfer_check,
)
from .weights import (
    coefficient_composition_sum,
    coefficient_from_weights,
    coefficient_h_id,
    coefficient_h_one,
    conversion_scan,
    h_weight,
    h_weight_id,
    h_weight_one,
)

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
# verification suites


def _suite_oracles(max_n: int) -> tuple[int, str | None]:
    checks = 0
    sig = sigma(1)
    for g in (one(), identity(), sig):
        for h_desc, h, series_fn in (
            ("id", identity(), generating_series_h_id),
            ("one", one(), generating_series_h_one),
        ):
            polys = polynomial_sequence(g, h, max_n)
            series = series_fn(g, max_n)
            for n in range(max_n + 1):
                checks += 1
                if not series.coefficient(n) == polys[n]:
                    return checks, f"series oracle (g={g.name}, h={h_desc}) differs at n={n}"
    polys = polynomial_sequence(sig, identity(), max_n)
    symbolic = euler_product_power(X, max_n)
    minus_x = Poly((0, -1))
    for n in range(max_n + 1):
        checks += 1
        if not symbolic.coefficient(n) == polys[n](minus_x):
            return checks, f"symbolic Euler-product coefficient differs at n={n}"
    for weight, g_pow, point in ((4, 3, -240), (6, 5, 504)):
        inverse = inverse_eisenstein(weight, max_n)
        values = value_sequence(sigma(g_pow), one(), Fraction(point), max_n)
        for n in range(max_n + 1):
            checks += 1
            if inverse[n] != values[n]:
                return checks, f"1/E{weight} differs from the recursion at n={n}"
    report = lehmer_scan(max_n)
    checks += max_n
    if not report.passed:
        return checks, f"Lehmer cross-check failed: zeros={report.zeros}"
    return checks, None


def _suite_closed_forms(max_n: int) -> tuple[int, str | None]:
    checks = 0
    for g in (one(), identity(), sigma(1)):
        for h_desc, route in (("one", coefficient_h_one), ("id", coefficient_h_id)):
            h = one() if h_desc == "one" else identity()
            table = coefficient_table(g, h, max_n)
            for n in range(1, max_n + 1):
                for m in range(1, n + 1):
                    checks += 1
                    if route(g, n, m) != table.entry(n, m):
                        return checks, (
                            f"closed form (g={g.name}, h={h_desc}) differs at (n={n}, m={m})"
                        )
    for mu in ((1,), (2,), (1, 1), (1, 2), (2, 1), (3, 1)):
        for n in range(0, max_n + 1):
            checks += 2
            if h_weight(one(), mu, n) != h_weight_one(mu, n):
                return checks, f"h=one weight mismatch at mu={mu}, n={n}"
            if h_weight(identity(), mu, n) != h_weight_id(mu, n):
                return checks, f"h=id weight mismatch at mu={mu}, n={n}"
    return checks, None


def _suite_conversion(max_n: int) -> tuple[int, str | None]:
    checks = 0
    for g in (one(), identity(), sigma(1), sigma(3)):
        failure = conversion_scan(g, max_n)
        checks += max_n * (max_n + 1) // 2
        if failure is not None:
            return checks, f"conversion identity fails for g={g.name} at (n, m)={failure}"
    return checks, None


def _suite_no_formula(max_n: int) -> tuple[int, str | None]:
    checks = 0
    polys = polynomial_sequence(sigma(1), identity(), max_n)
    shift = X + 1
    partition_counts = [sum(1 for _ in partitions_of(n)) for n in range(max_n + 1)]
    for n in range(max_n + 1):
        q = hook_length_polynomial(n)
        checks += 2
        if q != polys[n](shift):
            return checks, f"hook-length identity Q_n(x) = P_n(x+1) fails at n={n}"
        if q(Fraction(0)) != partition_counts[n]:
            return checks, f"Q_n(0) != p(n) at n={n}"
    return checks, None


def _suite_main_theorem(max_n: int) -> tuple[int, str | None]:
    checks = 0
    for g in (one(), identity(), sigma(1), sigma(3), sigma(5)):
        for h in (one(), identity(), sigma(1)):
            table = coefficient_table(g, h, max_n)
            polys = polynomial_sequence(g, h, max_n)
            products = CumulativeProduct(h)
            for n in range(1, max_n + 1):
                hn = products.value(n)
                for m in range(1, n + 1):
                    checks += 2
                    if coefficient_from_weights(g, h, n, m) != table.entry(n, m):
                        return checks, (
                            f"weight route differs from the triangle for "
                            f"(g={g.name}, h={h.name}) at (n={n}, m={m})"
                        )
                    if polys[n][m] * hn != table.entry(n, m):
                        return checks, (
                            f"recursion differs from the triangle for "
                            f"(g={g.name}, h={h.name}) at (n={n}, m={m})"
                        )
    return checks, None


def _suite_shapes(max_n: int) -> tuple[int, str | None]:
    checks = 0
    # the two reference quadratics, classified exactly
    seq_a = [Fraction(5), Fraction(2), Fraction(1)]  # x^2 + 2x + 5, constant first
    seq_b = [Fraction(3), Fraction(2), Fraction(1)]  # x^2 + 2x + 3
    checks += 4
    if not (is_unimodal(seq_a).holds and not is_log_concave(seq_a).holds):
        return checks, "x^2+2x+5 must be unimodal but not log-concave"
    if not (is_log_concave(seq_b).holds and not is_ultra_log_concave(seq_b).holds):
        return checks, "x^2+2x+3 must be log-concave but not ultra-log-concave"
    sig = sigma(1)
    for h in (one(), identity()):
        for n in range(2, max_n + 1):
            checks += 2
            margin = top_margin(sig, h, n)
            if margin <= 0:
                return checks, f"top margin for (sigma, {h.name}) not positive at n={n}"
            if margin < top_margin_lower_bound(sig, h, n):
                return checks, f"top margin below its bound for (sigma, {h.name}) at n={n}"
        witness = counterexample_search(h, max_n=min(max_n, 50))
        checks += 1
        if witness is None:
            return checks, f"no top-margin counterexample found for h={h.name}"
    report = hook_poly_top_inequality_scan(max_n)
    checks += max_n - 1
    if not report.passed:
        return checks, f"hook top inequality fails at n={report.first_failure}"
    scan = hook_poly_log_concavity_scan(min(max_n, 40), check_chain=True)
    checks += scan.max_n
    if not scan.passed:
        return checks, f"hook log-concavity fails at n={scan.first_failure}"
    for g in (one(), identity(), sig):
        result = transfer_check(g, min(max_n, 12))
        checks += min(max_n, 12)
        if not result.passed:
            return checks, f"shape transfer fails for g={g.name} at {result.first_failure}"
    for family in ("pochhammer", "stirling", "lah", "chebyshev3term", "symmetric_product"):
        report = closed_family_check(family, min(max_n, 12))
        checks += report.checks
        if not report.passed:
            return checks, f"closed family check fails: {report.first_failure}"
    return checks, None


# suite -> (runner, default bound, smallest bound it can run at); shapes
# needs n = 3 for its frozen top-margin counterexample
_SUITE_RUNNERS = {
    "oracles": (_suite_oracles, 12, 1),
    "closed-forms": (_suite_closed_forms, 12, 1),
    "conversion": (_suite_conversion, 12, 1),
    "no-formula": (_suite_no_formula, 10, 1),
    "main-theorem": (_suite_main_theorem, 10, 1),
    "shapes": (_suite_shapes, 30, 3),
}


def _run_verify(args: argparse.Namespace) -> int:
    names = list(_SUITE_RUNNERS) if args.suite == "all" else [args.suite]
    bounds = {name: args.max_n or _SUITE_RUNNERS[name][1] for name in names}
    for name, bound in bounds.items():
        minimum = _SUITE_RUNNERS[name][2]
        if bound < minimum:
            raise UsageError(f"suite {name!r} needs --max-n >= {minimum}, got {bound}")
    for name, bound in bounds.items():
        checks, failure = _SUITE_RUNNERS[name][0](bound)
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
    if args.output:
        try:
            with open(args.output, "w", encoding="utf-8") as handle:
                handle.write(text + "\n")
        except OSError as exc:
            raise UsageError(f"cannot write --output: {exc}") from exc
    else:
        print(text)
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
    p_verify.add_argument("--suite", choices=(*_SUITE_RUNNERS, "all"), default="all")
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
