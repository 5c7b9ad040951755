"""Cross-checks between independent routes, and the `verify` suites.

Each check compares two routes exactly over the functions and up to the
bound it is given, and returns ``(checks, failure)``: the number of
comparisons made and a one-line description of the first mismatch, or
None.  `SUITES` lists the checks each `darcais verify` suite runs, in
order; the acceptance tests call the same checks at their own bounds.

Library routines are called through this module's globals at call time,
so a tracer that rebinds them (perfbench/tracer.py) sees every call.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Callable, Iterable, NamedTuple, Optional, Sequence

from .arith import ArithmeticFunction, identity, one, sigma
from .exact import X
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
    checks = 0
    for g in gs:
        for h in hs:
            table = coefficient_table(g, h, max_n)
            polys = polynomial_sequence(g, h, max_n)
            for n in range(1, max_n + 1):
                hn = table.normalizer(n)
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


def closed_forms(gs: Functions, max_n: int) -> Check:
    """The h = one and h = id closed forms == triangle, 1 <= m <= n <= max_n."""
    checks = 0
    for g in gs:
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
    return checks, None


def h_weight_forms(compositions: Sequence[tuple[int, ...]], max_n: int) -> Check:
    """Inductive h-weight == its closed forms for h = one and h = id, 0 <= n <= max_n."""
    checks = 0
    for mu in compositions:
        for n in range(0, max_n + 1):
            checks += 2
            if h_weight(one(), mu, n) != h_weight_one(mu, n):
                return checks, f"h=one weight mismatch at mu={mu}, n={n}"
            if h_weight(identity(), mu, n) != h_weight_id(mu, n):
                return checks, f"h=id weight mismatch at mu={mu}, n={n}"
    return checks, None


def series_oracles(gs: Functions, max_n: int) -> Check:
    """Generating-series coefficients == recursion polynomials for h = id and one."""
    checks = 0
    for g in gs:
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
    return checks, None


def symbolic_euler_product(max_n: int) -> Check:
    """prod (1 - q^k)^x == sum P_n(-x) q^n for (sigma, id)."""
    checks = 0
    polys = value_sequence(sigma(1), identity(), -X, max_n)
    symbolic = euler_product_power(X, max_n)
    for n in range(max_n + 1):
        checks += 1
        if not symbolic.coefficient(n) == polys[n]:
            return checks, f"symbolic Euler-product coefficient differs at n={n}"
    return checks, None


def inverse_eisenstein_values(max_n: int) -> Check:
    """1/E4 and 1/E6 == the value recursion at x = -240 and x = 504."""
    checks = 0
    for weight, g_pow, point in ((4, 3, -240), (6, 5, 504)):
        inverse = inverse_eisenstein(weight, max_n)
        values = value_sequence(sigma(g_pow), one(), Fraction(point), max_n)
        for n in range(max_n + 1):
            checks += 1
            if inverse[n] != values[n]:
                return checks, f"1/E{weight} differs from the recursion at n={n}"
    return checks, None


def lehmer_nonvanishing(max_n: int) -> Check:
    """P_n(-24) != 0 for (sigma, id), 1 <= n <= max_n, on two routes."""
    _, (checks, failure) = lehmer_scan(max_n)
    return checks, failure and "Lehmer cross-check failed: {1} at n={0}".format(*failure)


def conversion(gs: Functions, max_n: int) -> Check:
    """A[n][m](g, id) / n! == A[n][m](g~, one) / m!, 1 <= m <= n <= max_n."""
    return _in_order(lambda g: conversion_scan(g, max_n), gs,
                     "conversion identity fails for g={0.name} at (n, m)={1}")


def hook_length_identity(max_n: int) -> Check:
    """Q_n(x) == P_n(x+1) for (sigma, id), and Q_n(0) == p(n)."""
    checks = 0
    polys = value_sequence(sigma(1), identity(), X + 1, max_n)
    partition_counts = [sum(1 for _ in partitions_of(n)) for n in range(max_n + 1)]
    for n in range(max_n + 1):
        q = hook_length_polynomial(n)
        checks += 2
        if q != polys[n]:
            return checks, f"hook-length identity Q_n(x) = P_n(x+1) fails at n={n}"
        if q(Fraction(0)) != partition_counts[n]:
            return checks, f"Q_n(0) != p(n) at n={n}"
    return checks, None


def reference_quadratics() -> Check:
    """x^2 + 2x + 5 is unimodal, not log-concave; x^2 + 2x + 3 is log-concave,
    not ultra-log-concave (coefficients constant first)."""
    seq_a = [Fraction(5), Fraction(2), Fraction(1)]
    seq_b = [Fraction(3), Fraction(2), Fraction(1)]
    if not (is_unimodal(seq_a).holds and not is_log_concave(seq_a).holds):
        return 4, "x^2+2x+5 must be unimodal but not log-concave"
    if not (is_log_concave(seq_b).holds and not is_ultra_log_concave(seq_b).holds):
        return 4, "x^2+2x+3 must be log-concave but not ultra-log-concave"
    return 4, None


def top_margins(hs: Functions, max_n: int, search_n: int) -> Check:
    """Per h: the top margin of (sigma, h) is positive and above its exact
    lower bound for 2 <= n <= max_n, and some g-table breaks it by n = search_n."""
    checks = 0
    g = sigma(1)
    for h in hs:
        for n in range(2, max_n + 1):
            checks += 2
            margin = top_margin(g, h, n)
            if margin <= 0:
                return checks, f"top margin for (sigma, {h.name}) not positive at n={n}"
            if margin < top_margin_lower_bound(g, h, n):
                return checks, f"top margin below its bound for (sigma, {h.name}) at n={n}"
        witness = counterexample_search(h, max_n=search_n)
        checks += 1
        if witness is None:
            return checks, f"no top-margin counterexample found for h={h.name}"
    return checks, None


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
    return _in_order(lambda family: closed_family_check(family, max_n, hs),
                     ("pochhammer", "stirling", "lah", "chebyshev3term", "symmetric_product"),
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
