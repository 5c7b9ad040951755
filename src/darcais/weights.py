"""Partition/composition weights and the coefficient routes built on them.

For a composition mu = (mu_1, ..., mu_r) and a normalized g, the g-side
weight is the product

    gw(mu) = g(mu_1 + 1) ... g(mu_r + 1),        gw(()) = 1.

The h-side weight hw(mu, n) is defined inductively on the length: it is 1
for the empty composition (n >= 0), it is 0 whenever n < |mu| + len(mu),
and otherwise, peeling the last part,

    hw(mu, n) = sum_{k=|mu|+len(mu)-1}^{n-1}
                    h_{mu_r}(k) * hw((mu_1, ..., mu_{r-1}), k - mu_r)

with h_m(k) = h(k) h(k-1) ... h(k-m+1).  Its orbit sum over all distinct
reorderings of a partition drives the coefficient formula

    A[n][m] = sum over partitions mu of n-m of gw(mu) * orbit_sum(mu, n)

which `_partition_sum` evaluates once for three h-sides: the general
orbit-weight engine and the closed forms for h = one and h = id.  The
brute-force sum over compositions is a route of its own.

The partition sum runs in ints: it takes G g, G the lcm of the
denominators of g(2..n-m+1), and divides by G^(n-m) once per coefficient.
Its g-side, the terms G^(n-m) gw(mu) of the partitions mu of n-m, depends
on g and n-m only, so it is computed once into a term table per
(g, n-m), held in an LRU memo of `_TERM_TABLES` tables that every n and
all three h-sides read.  A table holds one term for each partition, zero
weights included, in the length order of `_by_length`.

All three h-sides vanish exactly when mu has more than m parts:
C(m, len mu) for h = one, C(n, n - m + len mu) for h = id, and
n < |mu| + len mu for the engine.  So the sum reads only the prefix of the
table with at most m parts, cut by one bisect, and each h-side maps over
that prefix in one pass: the closed forms as products of binomials with
the memoized orbit sizes or R', the engine as one column W(., n) per
(n - m, n), kept beside its rows and shared by every g.

hw and the orbit sum are one engine class, `_WeightMemo`, given the
removal rule of its recursion.  It forms each window h_j(k) from its list
of h values, ints where integral, and keeps no memo of windows, so for an
integer h every weight is an int (a rational h carries its Fractions
exactly), as are the h-sides of both closed forms.  The public routes
return Fractions.
"""

from __future__ import annotations

from bisect import bisect_right
from collections import Counter
from fractions import Fraction
from functools import lru_cache, partial
from itertools import repeat
from math import comb, factorial, perm, prod
from operator import add, mul
from typing import Callable, Iterable, Sequence

from .arith import ArithmeticFunction, tilde
from .exact import Scalar, first_failure, rational, scaled_ints
from .partitions import compositions_of, multinomial, partitions_of

_F0 = Fraction(0)

# Sizes of the LRU memos: engines per h (its rows and columns go with it),
# g-side term tables per (g, size) and partitions sorted by length per size,
# orbit sizes and R' per partition.  Builtins are shared instances, so equal
# builtin descriptors hit the same engine and tables; table and tilde
# functions get memos of their own, evicted once unused.
_ENGINES = 8
_TERM_TABLES = 64
_ORBIT_SIZES = 1 << 15
_RECIPROCALS = 1 << 15


def _check_weight_args(mu: Sequence[int], n: int) -> None:
    """Refuse n < 0 and any part of mu that is not an int >= 1 (a bool too)."""
    if n < 0:
        raise ValueError("weights are defined for n >= 0")
    if not all(type(part) is int and part >= 1 for part in mu):
        raise ValueError(f"weights need parts that are ints >= 1, got {tuple(mu)!r}")


def _last_part(mu: tuple[int, ...]) -> list[tuple[int, tuple[int, ...]]]:
    """(last part, the rest) of the composition mu."""
    return [(mu[-1], mu[:-1])]


def _distinct_removals(mu: tuple[int, ...]) -> list[tuple[int, tuple[int, ...]]]:
    """(j, mu minus one copy of j) for each distinct part j of the
    non-increasing partition mu, largest j first."""
    return [
        (part, mu[:i] + mu[i + 1:])
        for i, part in enumerate(mu)
        if i == 0 or mu[i - 1] != part
    ]


class _WeightMemo:
    """Memoized weights W(mu, n) for one fixed h, by a running sum over k.

    W((), n) = 1, W(mu, n) = 0 for n < |mu| + len(mu), and above that

        W(mu, k) = W(mu, k-1) + sum over (j, child) in removals(mu) of
                       h_j(k-1) * W(child, k-1-j).

    `_last_part` peels the last part of a composition, so W is hw.
    `_distinct_removals` on non-increasing keys gives the orbit sum:
    peeling the last part of every composition in the orbit groups its
    terms by the value of that part, so the memo is keyed by partitions,
    not by the exponentially many compositions.  Callers pass normalised
    keys, and the children are keys too.

    Each key has one row of running sums W(mu, t), W(mu, t+1), ... from
    its threshold t = |mu| + len(mu), extended from where it ends.  The
    window h_j(k-1) is the product of h(k-j..k-1) on the list of h values,
    each an int where it is integral.  The columns W(., n) that the
    partition sum reads are memoized beside the rows, which hold each of
    their entries save W((), n) = 1, and go with them on eviction.
    """

    __slots__ = ("h", "removals", "_h_values", "_rows", "_columns")

    def __init__(self, h: ArithmeticFunction,
                 removals: Callable[[tuple[int, ...]], list[tuple[int, tuple[int, ...]]]]):
        self.h, self.removals = h, removals
        self._h_values: list[Scalar] = [0]  # h(0), h(1), ...; none past h(0) is zero
        self._rows: dict[tuple[int, ...], list[Scalar]] = {}
        self._columns: dict[tuple[int, int], list[Scalar]] = {}

    def value(self, mu: tuple[int, ...], n: int) -> Scalar:
        """W(mu, n) for a key mu."""
        _check_weight_args(mu, n)
        self._read_h(n)
        return self._value(mu, n)

    def column(self, size: int, n: int, prefix: Sequence[tuple[int, ...]]) -> list[Scalar]:
        """W(mu, n) for each mu of prefix, the partitions of size with at
        most n - size parts in length order; reads h up to h(n)."""
        got = self._columns.get((size, n))
        if got is None:
            self._read_h(n)
            got = self._columns[size, n] = list(map(self._value, prefix, repeat(n)))
        return got

    def _value(self, mu: tuple[int, ...], n: int) -> Scalar:
        """W(mu, n) for a key mu, once h is read up to h(n)."""
        if not mu:
            return 1
        threshold = sum(mu) + len(mu)
        if n < threshold:
            return 0
        row = self._rows.setdefault(mu, [])
        if threshold + len(row) <= n:
            acc = row[-1] if row else 0
            removals, hv, value = self.removals(mu), self._h_values, self._value
            for k in range(threshold + len(row), n + 1):
                for j, child in removals:
                    acc = acc + prod(hv[k - j:k]) * value(child, k - 1 - j)
                row.append(acc)
        return row[n - threshold]

    def _read_h(self, n: int) -> None:
        """Read h up to h(n), refusing a zero as the recursion to n does."""
        h, values = self.h, self._h_values
        for k in range(len(values), n + 1):
            value = h(k)
            if value == 0:
                raise ValueError(f"h = {h.name!r} vanishes at n = {k}")
            values.append(value.numerator if value.denominator == 1 else value)


_h_engine = lru_cache(maxsize=_ENGINES)(partial(_WeightMemo, removals=_last_part))
_orbit_sum_engine = lru_cache(maxsize=_ENGINES)(partial(_WeightMemo, removals=_distinct_removals))


def h_weight(h: ArithmeticFunction, mu: Sequence[int], n: int) -> Fraction:
    """hw(mu, n) by the inductive definition (memoized per h)."""
    return rational(_h_engine(h).value(tuple(mu), n))


def orbit_weight_sum(h: ArithmeticFunction, mu: Sequence[int], n: int) -> Fraction:
    """Sum of hw(lambda, n) over the orbit of the partition mu."""
    return rational(_orbit_sum_engine(h).value(tuple(sorted(mu, reverse=True)), n))


def h_weight_one(mu: Sequence[int], n: int) -> Fraction:
    """Closed form for h = one: hw(mu, n) = C(n - |mu|, len(mu))."""
    _check_weight_args(mu, n)
    size, length = sum(mu), len(mu)
    if n - size < length:
        return _F0
    return Fraction(comb(n - size, length))


def h_weight_id(mu: Sequence[int], n: int) -> Fraction:
    """Closed form for h = id:

        hw(mu, n) = prod_{k=0}^{|mu|+len(mu)-1} (n - k)
                    * prod_{k=1}^{len(mu)} (k + mu_1 + ... + mu_k)^(-1)

    The first product vanishes automatically when n < |mu| + len(mu).
    """
    _check_weight_args(mu, n)
    numerator = perm(n, sum(mu) + len(mu))
    if not numerator:
        return _F0
    denominator = 1
    prefix = 0
    for k, part in enumerate(mu, start=1):
        prefix += part
        denominator *= k + prefix
    return Fraction(numerator, denominator)


@lru_cache(maxsize=_ORBIT_SIZES)
def _orbit_size(mu: tuple[int, ...]) -> int:
    """The number of distinct reorderings of the partition mu."""
    return multinomial(len(mu), list(Counter(mu).values()))


@lru_cache(maxsize=_RECIPROCALS)
def _reciprocal_sum(mu: tuple[int, ...]) -> int:
    """R'(mu) = s! R(mu), s = |mu| + len(mu), for the partition mu, where

        R(mu) = sum over reorderings lam of mu of prod_k 1/(k + lam_1 + ... + lam_k).

    Peeling the last part: every reordering ends in some distinct part j,
    and the final factor is 1/s regardless of j, so R(mu) is the sum of
    R(mu minus j) over the distinct parts j, divided by s.  The child
    mu minus j has s - 1 - j in place of s, so R' is the int

        R'(mu) = sum over distinct parts j of (s-1)(s-2)...(s-j) * R'(mu minus j),

    with R'(()) = 1.
    """
    if not mu:
        return 1
    s = sum(mu) + len(mu)
    return sum(perm(s - 1, j) * _reciprocal_sum(child) for j, child in _distinct_removals(mu))


def _check_coeff_range(n: int, m: int) -> None:
    if not 1 <= m <= n:
        raise ValueError(f"coefficient indices need 1 <= m <= n, got n={n}, m={m}")


@lru_cache(maxsize=_TERM_TABLES)
def _by_length(size: int) -> tuple[tuple[int, ...], ...]:
    """The partitions of size sorted by length, stably."""
    return tuple(sorted(partitions_of(size), key=len))


@lru_cache(maxsize=_TERM_TABLES)
def _g_terms(g: ArithmeticFunction, size: int) -> tuple[tuple[int, ...], int]:
    """(terms, G^size): the g-side of the partition sum for one size.

    With G the lcm of the denominators of g(2..size+1), terms holds, for
    each partition mu of size in the order of `_by_length(size)`, the int

        (G g)(mu_1 + 1) ... (G g)(mu_r + 1) * G^(size - r),    r = len(mu),

    which is G^size gw(mu), zero where gw(mu) is.  The terms depend on g
    and size only, so every (n, m) with n - m = size, and all three
    h-sides, read one table.
    """
    gv, G = scaled_ints(g(k) for k in range(2, size + 2))  # gv[part] = G g(part + 1)
    powers = [G ** e for e in range(size + 1)]
    terms = tuple([prod(map(gv.__getitem__, mu)) * powers[size - len(mu)]
                   for mu in _by_length(size)])
    return terms, powers[size]


def _partition_sum(
    g: ArithmeticFunction, n: int, m: int,
    h_side: Callable[[tuple[tuple[int, ...], ...]], Iterable[Scalar]],
) -> Fraction:
    """sum over partitions mu of n-m of gw(mu) times its h-side, in ints.

    The g-side terms G^s gw(mu), s = n - m, come from the memoized table
    `_g_terms(g, s)`; h_side is called once, before g is read (so a bad h
    is named first), on the prefix of `_by_length(s)` with at most m parts,
    outside which every h-side vanishes, and yields h_side(mu) for each of
    them in order.  The sum of each term times h_side(mu) is divided by G^s
    once.  An int h_side keeps every term an int, and a Fraction one (the
    engine of a rational h) is carried exactly.  For m = n the sum has the
    single empty-partition term and gives 1, the diagonal of the triangle.
    """
    _check_coeff_range(n, m)
    mus = _by_length(n - m)
    h_values = h_side(mus[:bisect_right(mus, m, key=len)])
    terms, denominator = _g_terms(g, n - m)
    return Fraction(sum(map(mul, terms, h_values)), denominator)


def coefficient_from_weights(
    g: ArithmeticFunction, h: ArithmeticFunction, n: int, m: int
) -> Fraction:
    """A[n][m] as the partition sum of g-weights times orbit-summed h-weights."""
    return _partition_sum(g, n, m, partial(_orbit_sum_engine(h).column, n - m, n))


def coefficient_h_one(g: ArithmeticFunction, n: int, m: int) -> Fraction:
    """A[n][m] for h = one:

        sum over partitions mu of n-m of
            gw(mu) * multinomial(len(mu); multiplicities) * C(m, len(mu)),

    the multinomial being the orbit size of mu and m = n - |mu|.
    """

    def h_side(mus: tuple[tuple[int, ...], ...]) -> Iterable[int]:
        return map(mul, map(comb, repeat(m), map(len, mus)), map(_orbit_size, mus))

    return _partition_sum(g, n, m, h_side)


def coefficient_h_id(g: ArithmeticFunction, n: int, m: int) -> Fraction:
    """A[n][m] for h = id:

        sum over partitions mu of n-m of
            gw(mu) * (n)(n-1)...(n-s+1) * R(mu),    s = |mu| + len(mu),

    where (n)(n-1)...(n-s+1) R(mu) = C(n, s) R'(mu) for the int R' = s! R.
    """

    def h_side(mus: tuple[tuple[int, ...], ...]) -> Iterable[int]:
        sizes = map(add, repeat(n - m), map(len, mus))
        return map(mul, map(comb, repeat(n), sizes), map(_reciprocal_sum, mus))

    return _partition_sum(g, n, m, h_side)


def conversion_scan(
    g: ArithmeticFunction, max_n: int
) -> tuple[int, tuple[int, int] | None]:
    """Check A[n][m]^{g, id} / n! == A[n][m]^{g/n, one} / m! for 1 <= m <= n <= max_n.

    The two sides run through independent routes: the h = id closed form
    on g versus the h = one closed form on the transformed function.
    Returns (comparisons made, first failing (n, m) or None).
    """
    g_tilde = tilde(g)

    def outcomes():
        for n in range(1, max_n + 1):
            for m in range(1, n + 1):
                lhs = coefficient_h_id(g, n, m) / factorial(n)
                yield None if lhs == coefficient_h_one(g_tilde, n, m) / factorial(m) else (n, m)
    return first_failure(outcomes())


def coefficient_composition_sum(
    g: ArithmeticFunction, n: int, m: int, h_kind: str
) -> Fraction:
    """A[n][m] by brute force over all compositions of n with m parts.

    h_kind = "one":  sum of prod g(k_i);
    h_kind = "id":   (n!/m!) * sum of prod g(k_i)/k_i.

    The factors are tabulated once as ints over the lcm L of their
    denominators, so the sum runs in ints and is divided by L^m once.
    """
    _check_coeff_range(n, m)
    if h_kind not in ("one", "id"):
        raise ValueError(f"h_kind must be 'one' or 'id', got {h_kind!r}")
    # no part exceeds n - m + 1
    factors, L = scaled_ints(g(k) / k if h_kind == "id" else g(k) for k in range(1, n - m + 2))
    total = sum(prod(map(factors.__getitem__, parts)) for parts in compositions_of(n, m))
    return Fraction(total * perm(n, n - m) if h_kind == "id" else total, L**m)
