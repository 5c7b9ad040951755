"""Cross-checks between independent routes, and the `verify` suites.

Each check compares two routes exactly over the functions and up to the
bound it is given, and returns ``(checks, failure)`` from
`exact.first_failure`: the comparisons made and the first mismatch, as
one line, or None.  `SUITES` lists the checks each `darcais verify`
suite runs, in order; the acceptance tests call them at their own bounds.

Library routines are called through this module's globals at call time,
so a tracer that rebinds them (perfbench/tracer.py) sees every call.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Callable, Iterable, NamedTuple, Optional, Sequence

from .arith import ArithmeticFunction, identity, one, sigma
from .exact import X, first_failure
from .recursion import coefficient_table, polynomial_sequence, value_sequence
from .series import (
    FAMILIES,
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
    coefficient_from_weights,
    coefficient_h_id,
    coefficient_h_one,
    conversion_scan,
    h_weight,
    h_weight_id,
    h_weight_one,
)

Check = tuple[int, Optional[str]]
Functions = Sequence[ArithmeticFunction]


def _in_order(check: Callable, items: Iterable, message: str = "{1}") -> Check:
    """check(item) for each item in order, which returns (count, failure or
    None): the counts added up, and the first failure described by
    message.format(item, failure)."""
    total = 0
    for item in items:
        checks, failure = check(item)
        total += checks
        if failure is not None:
            return total, message.format(item, failure)
    return total, None


def route_equivalence(gs: Functions, hs: Functions, max_n: int) -> Check:
    """Weight formula == triangle == polynomial recursion, 1 <= m <= n <= max_n."""
    def outcomes():
        for g in gs:
            for h in hs:
                table = coefficient_table(g, h, max_n)
                polys = polynomial_sequence(g, h, max_n)
                for n in range(1, max_n + 1):
                    hn = table.normalizer(n)
                    for m in range(1, n + 1):
                        entry = table.entry(n, m)
                        for route, value in (("weight route", coefficient_from_weights(g, h, n, m)),
                                             ("recursion", polys[n][m] * hn)):
                            yield None if value == entry else (
                                f"{route} differs from the triangle for "
                                f"(g={g.name}, h={h.name}) at (n={n}, m={m})")
    return first_failure(outcomes())


def closed_forms(gs: Functions, max_n: int) -> Check:
    """The h = one and h = id closed forms == triangle, 1 <= m <= n <= max_n."""
    def outcomes():
        for g in gs:
            for h, route in ((one(), coefficient_h_one), (identity(), coefficient_h_id)):
                table = coefficient_table(g, h, max_n)
                for n in range(1, max_n + 1):
                    for m in range(1, n + 1):
                        yield None if route(g, n, m) == table.entry(n, m) else (
                            f"closed form (g={g.name}, h={h.name}) differs at (n={n}, m={m})")
    return first_failure(outcomes())


def h_weight_forms(compositions: Sequence[tuple[int, ...]], max_n: int) -> Check:
    """Inductive h-weight == its closed forms for h = one and h = id, 0 <= n <= max_n."""
    def outcomes():
        for mu in compositions:
            for n in range(0, max_n + 1):
                for h, closed_form in ((one(), h_weight_one), (identity(), h_weight_id)):
                    yield None if h_weight(h, mu, n) == closed_form(mu, n) else (
                        f"h={h.name} weight mismatch at mu={mu}, n={n}")
    return first_failure(outcomes())


def series_oracles(gs: Functions, max_n: int) -> Check:
    """Generating-series coefficients == recursion polynomials for h = id and one."""
    def outcomes():
        for g in gs:
            for h, series_fn in ((identity(), generating_series_h_id),
                                 (one(), generating_series_h_one)):
                polys = polynomial_sequence(g, h, max_n)
                series = series_fn(g, max_n)
                for n in range(max_n + 1):
                    yield None if series.coefficient(n) == polys[n] else (
                        f"series oracle (g={g.name}, h={h.name}) differs at n={n}")
    return first_failure(outcomes())


def symbolic_euler_product(max_n: int) -> Check:
    """prod (1 - q^k)^x == sum P_n(-x) q^n for (sigma, id)."""
    polys = value_sequence(sigma(1), identity(), -X, max_n)
    symbolic = euler_product_power(X, max_n)
    return first_failure(
        None if symbolic.coefficient(n) == polys[n]
        else f"symbolic Euler-product coefficient differs at n={n}" for n in range(max_n + 1))


def inverse_eisenstein_values(max_n: int) -> Check:
    """1/E4 and 1/E6 == the value recursion at x = -240 and x = 504."""
    def outcomes():
        for weight, g_pow, point in ((4, 3, -240), (6, 5, 504)):
            inverse = inverse_eisenstein(weight, max_n)
            values = value_sequence(sigma(g_pow), one(), Fraction(point), max_n)
            for n in range(max_n + 1):
                yield None if inverse[n] == values[n] else (
                    f"1/E{weight} differs from the recursion at n={n}")
    return first_failure(outcomes())


def lehmer_nonvanishing(max_n: int) -> Check:
    """P_n(-24) != 0 for (sigma, id), 1 <= n <= max_n, on two routes."""
    _, (checks, failure) = lehmer_scan(max_n)
    return checks, failure and "Lehmer cross-check failed: {1} at n={0}".format(*failure)


def conversion(gs: Functions, max_n: int) -> Check:
    """A[n][m](g, id) / n! == A[n][m](g~, one) / m!, 1 <= m <= n <= max_n."""
    return _in_order(lambda g: conversion_scan(g, max_n), gs,
                     "conversion identity fails for g={0.name} at (n, m)={1}")


def hook_length_identity(max_n: int) -> Check:
    """Q_n(x) == P_n(x+1) for (sigma, id), and Q_n(0) == p(n), read off
    Euler's prod (1 - q^k)^(-1) rather than the partitions Q_n sums over."""
    def outcomes():
        polys = value_sequence(sigma(1), identity(), X + 1, max_n)
        partition_counts = euler_product_power(-1, max_n).coefficients
        for n in range(max_n + 1):
            q = hook_length_polynomial(n)
            yield None if q == polys[n] else (
                f"hook-length identity Q_n(x) = P_n(x+1) fails at n={n}")
            yield None if q(Fraction(0)) == partition_counts[n] else f"Q_n(0) != p(n) at n={n}"
    return first_failure(outcomes())


def reference_quadratics() -> Check:
    """x^2 + 2x + 5 is unimodal, not log-concave; x^2 + 2x + 3 is log-concave,
    not ultra-log-concave (coefficients constant first)."""
    seq_a = [Fraction(5), Fraction(2), Fraction(1)]
    seq_b = [Fraction(3), Fraction(2), Fraction(1)]
    if not (is_unimodal(seq_a) is None and is_log_concave(seq_a) is not None):
        return 4, "x^2+2x+5 must be unimodal but not log-concave"
    if not (is_log_concave(seq_b) is None and is_ultra_log_concave(seq_b) is not None):
        return 4, "x^2+2x+3 must be log-concave but not ultra-log-concave"
    return 4, None


def top_margins(hs: Functions, max_n: int, search_n: int) -> Check:
    """Per h: the top margin of (sigma, h) is positive and above its exact
    lower bound for 2 <= n <= max_n, and some g-table breaks it by n = search_n."""
    def outcomes():
        g = sigma(1)
        for h in hs:
            for n in range(2, max_n + 1):
                margin = top_margin(g, h, n)
                yield None if margin > 0 else (
                    f"top margin for (sigma, {h.name}) not positive at n={n}")
                yield None if margin >= top_margin_lower_bound(g, h, n) else (
                    f"top margin below its bound for (sigma, {h.name}) at n={n}")
            yield None if counterexample_search(h, max_n=search_n) is not None else (
                f"no top-margin counterexample found for h={h.name}")
    return first_failure(outcomes())


def hook_top_inequality(max_n: int) -> Check:
    """Strict top inequality of the hook polynomials, 2 <= n <= max_n."""
    checks, n = hook_poly_top_inequality_scan(max_n)
    return checks, None if n is None else f"hook top inequality fails at n={n}"


def hook_log_concavity(max_n: int) -> Check:
    """Hook polynomials are log-concave, with the implication chain, n <= max_n."""
    checks, n = hook_poly_log_concavity_scan(max_n)
    return checks, None if n is None else f"hook log-concavity fails at n={n}"


def shape_transfer(gs: Functions, max_n: int) -> Check:
    """(Ultra-)log-concavity of P_n for (g/n, one) carries over to (g, id)."""
    return _in_order(lambda g: transfer_check(g, max_n), gs,
                     "shape transfer fails for g={0.name} at {1}")


def closed_families(hs: Functions, max_n: int) -> Check:
    """Pochhammer, Stirling, Lah, three-term and symmetric-product families."""
    return _in_order(lambda family: closed_family_check(family, max_n, hs), FAMILIES,
                     "closed family check fails: {1}")


class Suite(NamedTuple):
    steps: tuple[Callable[[int], Check], ...]  # each called with the bound, in order
    default_n: int
    min_n: int


# Families are built when a step runs, so importing this module builds no
# function.  shapes needs n = 3 for its frozen top-margin counterexample.
SUITES = {
    "oracles": Suite((
        lambda n: series_oracles((one(), identity(), sigma(1)), n),
        symbolic_euler_product,
        inverse_eisenstein_values,
        lehmer_nonvanishing,
    ), 12, 1),
    "closed-forms": Suite((
        lambda n: closed_forms((one(), identity(), sigma(1)), n),
        lambda n: h_weight_forms(((1,), (2,), (1, 1), (1, 2), (2, 1), (3, 1)), n),
    ), 12, 1),
    "conversion": Suite((
        lambda n: conversion((one(), identity(), sigma(1), sigma(3)), n),
    ), 12, 1),
    "no-formula": Suite((hook_length_identity,), 10, 1),
    "main-theorem": Suite((
        lambda n: route_equivalence((one(), identity(), sigma(1), sigma(3), sigma(5)),
                                    (one(), identity(), sigma(1)), n),
    ), 10, 1),
    "shapes": Suite((
        lambda n: reference_quadratics(),
        lambda n: top_margins((one(), identity()), n, search_n=min(n, 50)),
        hook_top_inequality,
        lambda n: hook_log_concavity(min(n, 40)),
        lambda n: shape_transfer((one(), identity(), sigma(1)), min(n, 12)),
        lambda n: closed_families((one(), identity(), sigma(1)), min(n, 12)),
    ), 30, 3),
}


def run_suite(name: str, max_n: int) -> Check:
    """Run a suite's checks in order, stopping at the first failure."""
    return _in_order(lambda step: step(max_n), SUITES[name].steps)
