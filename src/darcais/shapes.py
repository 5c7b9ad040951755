"""Coefficient-sequence shape predicates and exact scans.

The predicates (unimodal, log-concave, ultra-log-concave) are evaluated
exactly on sequences of nonnegative rationals, and each returns the first
index where its sequence breaks the shape, or None where it holds.  The
scans combine routes from the recursion engine and the oracles: the hook
log-concavity scan reads the hook polynomials Q_n(x) = P_n(x+1) for
(sigma, id) off the Euler-product power prod (1 - q^k)^(-x-1), the
D'Arcais generating function at -x - 1, one power of x at a time,
requires every coefficient positive, as the hook length formula makes
it, and checks the constant terms against the recursion at x = 1; the
hook top-inequality scan reads the top band of the integer coefficient
triangle, the delta scan takes the top margin of (g, h) through the
weight route, and the Lehmer scan runs the recursion on values at x = -24
and cross-checks the 24th Euler-product power.  Each scan returns
(checks, first_failure): the comparisons it made and where the first one
failed, or None; the delta and Lehmer scans return their values too.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import accumulate, compress, repeat
from math import comb
from operator import le, lt, mul, ne
from typing import NamedTuple, Sequence

from .arith import ArithmeticFunction, from_table, identity, one, sigma, tilde
from .exact import X, first_failure
from .recursion import coefficient_table, coefficient_top_band, value_sequence
from .series import euler_product_columns, euler_product_ints

# Unused here since the Lehmer scan compares int lists, but
# perfbench/test_perfbench.py checks that the benchmark tracer rebinds
# this name in darcais.shapes too.
from .series import euler_product_power  # noqa: F401
from .weights import orbit_weight_sum

_F0 = Fraction(0)


def _as_nonnegative(seq: Sequence) -> list:
    """The values as given, so int sequences are compared in ints.

    Anything but an int or a Fraction is refused by its type: floats,
    booleans, and "p/q" strings, which would compare as text."""
    values = list(seq)
    if not {*map(type, values)} <= {int, Fraction}:
        stray = next(v for v in values if type(v) not in (int, Fraction))
        raise TypeError(f"shape predicates need ints or Fractions, got {stray!r}")
    if values and min(values) < 0:
        raise ValueError("shape predicates are defined for nonnegative sequences")
    return values


def is_unimodal(seq: Sequence) -> int | None:
    """Nondecreasing up to some peak, then nonincreasing: None, or the
    index of the first rise after a fall."""
    values = _as_nonnegative(seq)
    i = 0
    while i + 1 < len(values) and values[i] <= values[i + 1]:
        i += 1
    while i + 1 < len(values) and values[i] >= values[i + 1]:
        i += 1
    return None if i + 1 >= len(values) else i + 1


def is_log_concave(seq: Sequence) -> int | None:
    """a_j^2 >= a_{j-1} a_{j+1} for every interior j: None, or the first j
    where it fails."""
    values = _as_nonnegative(seq)
    for j in range(1, len(values) - 1):
        if values[j] * values[j] < values[j - 1] * values[j + 1]:
            return j
    return None


def is_ultra_log_concave(seq: Sequence) -> int | None:
    """Log-concavity of the associated sequence a_k / C(n, k), n = len(seq) - 1,
    cross-multiplied: a_j^2 C(n, j-1) C(n, j+1) >= a_{j-1} a_{j+1} C(n, j)^2.
    None, or the first j where it fails."""
    values = _as_nonnegative(seq)
    n = len(values) - 1
    binomials = [comb(n, k) for k in range(n + 1)]
    for j in range(1, n):
        if (values[j] * values[j] * binomials[j - 1] * binomials[j + 1]
                < values[j - 1] * values[j + 1] * binomials[j] * binomials[j]):
            return j
    return None


def transfer_check(g: ArithmeticFunction, max_n: int) -> tuple[int, tuple[int, str] | None]:
    """Whenever P_n for (g/n, one) is (ultra-)log-concave, so must be P_n for (g, id).

    The rows A[n][.] are P_n's coefficients times H(n) > 0, and no shape
    predicate changes under a positive factor, so the rows are compared.
    Returns (values of n scanned, first (n, predicate) breaking the implication or None).
    """
    source = coefficient_table(tilde(g), one(), max_n)
    target = coefficient_table(g, identity(), max_n)

    def outcomes():
        for n in range(1, max_n + 1):
            src, dst = source.row(n), target.row(n)
            if is_log_concave(src) is None and is_log_concave(dst) is not None:
                yield n, "log-concave"
            elif is_ultra_log_concave(src) is None and is_ultra_log_concave(dst) is not None:
                yield n, "ultra-log-concave"
            else:
                yield None
    return first_failure(outcomes())


def top_margin(g: ArithmeticFunction, h: ArithmeticFunction, n: int) -> Fraction:
    """A[n][n-1]^2 - A[n][n-2] A[n][n]: positivity gives log-concavity at the top.

    Evaluated through the weight route, so only g(2) and g(3) are needed
    (table-backed g of length 3 suffices).
    """
    if n < 2:
        raise ValueError("the top margin needs n >= 2")
    a_top = g(2) * orbit_weight_sum(h, (1,), n)
    a_next = g(3) * orbit_weight_sum(h, (2,), n) + g(2) ** 2 * orbit_weight_sum(h, (1, 1), n)
    return a_top * a_top - a_next


def delta_scan(
    g: ArithmeticFunction, h: ArithmeticFunction, max_n: int
) -> tuple[list[tuple[int, Fraction]], tuple[int, int | None]]:
    """The top margin for 2 <= n <= max_n, which must stay positive.

    Every margin is computed before any is compared, so a table too short
    for some n raises before a row is returned.  Returns the rows
    (n, margin) and (values of n compared, first n with a nonpositive
    margin or None).
    """
    if max_n < 2:
        raise ValueError("the delta scan needs max_n >= 2")
    rows = [(n, top_margin(g, h, n)) for n in range(2, max_n + 1)]
    return rows, first_failure(None if margin > 0 else n for n, margin in rows)


def top_margin_lower_bound(g: ArithmeticFunction, h: ArithmeticFunction, n: int) -> Fraction:
    """(g(2)^2 - g(3)) * sum_{k=2}^{n-1} h(k) h(k-1)."""
    if n < 2:
        raise ValueError("the top margin needs n >= 2")
    window_sum = _F0
    for k in range(2, n):
        window_sum += h(k) * h(k - 1)
    return (g(2) ** 2 - g(3)) * window_sum


class MarginCounterexample(NamedTuple):
    """A g-table and an n where the top margin goes negative."""

    g_values: tuple[int, ...]
    h_name: str
    n: int
    margin: Fraction


def counterexample_search(h: ArithmeticFunction, max_n: int = 50) -> MarginCounterexample | None:
    """Double g(3) from 2 up to 2^20 on g = table[1, 1, g(3)] until the top margin fails.

    Existence is guaranteed for any h with positive values: the g(3) term
    grows without bound while the rest of the margin is fixed.
    """
    for big in (1 << k for k in range(1, 21)):
        g = from_table([1, 1, big])
        for n in range(2, max_n + 1):
            margin = top_margin(g, h, n)
            if margin < 0:
                return MarginCounterexample((1, 1, big), h.name, n, margin)
    return None


def hook_poly_log_concavity_scan(max_n: int) -> tuple[int, int | None]:
    """Exact log-concavity of the hook-polynomial coefficients, and
    ultra => log-concave => unimodal on each of them, for 1 <= n <= max_n.

    Ultra-log-concave implies log-concave, and a positive log-concave
    sequence is unimodal: its ratios a_j / a_{j-1} do not increase, so
    they stay >= 1 up to a peak and <= 1 after it.  So on a log-concave
    row the chain comes down to positivity, which the hook length formula
    Q_n(x) = sum over the partitions of n of prod (1 + x / t^2) over their
    hooks t proves for x^0..x^n: a row with an entry <= 0 fails.
    Q_n = P_n(x+1) is the q^n coefficient of prod (1 - q^k)^(-x-1), not
    read off the triangle: its int numerators over a positive denominator,
    which drops out of every comparison, come one power of x at a time from
    `euler_product_columns`, and column j holds the x^j coefficients of
    rows j..max_n.  Three consecutive columns give a_{j-1}^2 >= a_{j-2} a_j
    on every row at once.  Row n is complete once column n has come, so
    the scan stops at the first failing row.  Column 0 is cross-checked by
    a route that shares no code with Miller's kernel, which is cheap:
    Q_n(0) = P_n(1) = p(n), the defining recursion for (sigma, id) run at
    x = 1 (`value_sequence`), so a row whose constant term is not n! P_n(1)
    fails too.  Returns (values of n compared, first failing n or None).
    """
    partitions = value_sequence(sigma(1), identity(), 1, max_n)[1:]
    failed = max_n + 1  # the first row seen to fail
    before = last = None
    for j, column in enumerate(euler_product_columns(-X - 1, max_n)):
        rows = range(j, failed)
        low = compress(rows, map(le, column, repeat(0)))
        failed = min(failed, next(filter(None, low), failed))  # row 0 is not scanned
        if j == 0:
            factorials = accumulate(range(1, max_n + 1), mul)
            off = compress(rows[1:], map(ne, column[1:], map(mul, factorials, partitions)))
            failed = min(failed, next(off, failed))
        if j > 1:
            above = last[1:]  # column j - 1 on rows j..max_n
            dips = compress(range(j, failed),
                            map(lt, map(mul, above, above), map(mul, before[2:], column)))
            failed = min(failed, next(dips, failed))
        if failed <= j:
            break
        before, last = last, column
    return (failed, failed) if failed <= max_n else (max_n, None)


def hook_poly_top_inequality_scan(max_n: int) -> tuple[int, int | None]:
    """Strict b_{n,n-1}^2 > b_{n,n-2} b_{n,n} for the hook polynomials, 2 <= n <= max_n.

    Uses the diagonal band of the triangle: with N_j = n! b_{n,j},
    N_{n}   = A[n][n],
    N_{n-1} = A[n][n-1] + n A[n][n],
    N_{n-2} = A[n][n-2] + (n-1) A[n][n-1] + C(n,2) A[n][n].
    Returns (values of n compared, first failing n or None).
    """
    if max_n < 2:
        raise ValueError("the top inequality scan needs max_n >= 2")
    band = coefficient_top_band(sigma(1), identity(), max_n, depth=2)

    def outcomes():
        for n in range(2, max_n + 1):
            a_nn, a_n1, a_n2 = band[n][0], band[n][1], band[n][2]
            top = a_n1 + n * a_nn
            second = a_n2 + (n - 1) * a_n1 + comb(n, 2) * a_nn
            yield None if top * top > second * a_nn else n
    return first_failure(outcomes())


def lehmer_scan(max_n: int) -> tuple[list[Fraction], tuple[int, tuple[int, str] | None]]:
    """P_n(-24) != 0 for 1 <= n <= max_n, checked exactly.

    The values come from the recursion run at x = -24; independently, the
    q-expansion of the 24th power of the Euler product, the int list of
    `euler_product_ints`, must reproduce them coefficient by coefficient.
    Returns the values (index n from 0) and (comparisons made, counting
    n = 0 only where it fails, first (n, "zero" or "Euler-product
    mismatch") or None).
    """
    if max_n < 1:
        raise ValueError("the scan needs max_n >= 1")
    values = value_sequence(sigma(1), identity(), Fraction(-24), max_n)
    product = euler_product_ints(24, max_n)
    if product[0] != values[0]:
        return values, (1, (0, "Euler-product mismatch"))
    return values, first_failure(
        (n, "zero") if values[n] == 0
        else (n, "Euler-product mismatch") if product[n] != values[n]
        else None
        for n in range(1, max_n + 1))
