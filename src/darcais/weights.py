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

which this module evaluates along several independent routes: the general
weight route, closed forms for h = one and h = id, and brute-force sums
over compositions.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import comb, factorial
from typing import Sequence

from .arith import ArithmeticFunction, CumulativeProduct, tilde
from .partitions import (
    compositions_of,
    multiplicities,
    multinomial,
    orbit_of,
    partitions_of,
)

_F0 = Fraction(0)
_F1 = Fraction(1)

# Sizes of the LRU memos keyed by function objects.  Builtins are shared
# instances, so equal builtin descriptors hit the same entries; table and
# tilde functions get entries of their own, evicted once unused.
_ENGINES = 8
_G_WEIGHTS = 1 << 15


def g_weight(g: ArithmeticFunction, mu: Sequence[int]) -> Fraction:
    """Product of g over the parts shifted by one; 1 for the empty composition.

    Invariant under reordering of the parts.
    """
    out = _F1
    for part in mu:
        out *= g(part + 1)
    return out


class _WeightMemo:
    """Memoized weights W(mu, n) for one fixed h, by a running sum over k.

    W((), n) = 1, W(mu, n) = 0 for n < |mu| + len(mu), and above that

        W(mu, k) = W(mu, k-1) + sum over (j, child) in removals(mu) of
                       h_j(k-1) * W(child, k-1-j).

    Every truncation W(mu, k) is cached, so asking for W(mu, n) resumes
    from the highest cached k instead of starting over.  Subclasses give
    the key normalisation and the (part, child) removals.
    """

    __slots__ = ("windows", "_memo")

    def __init__(self, h: ArithmeticFunction):
        if not h.non_vanishing:
            raise ValueError(f"h = {h.name!r} is not flagged non-vanishing")
        self.windows = CumulativeProduct(h)
        self._memo: dict[tuple[tuple[int, ...], int], Fraction] = {}

    def value(self, mu: Sequence[int], n: int) -> Fraction:
        mu = self.key(mu)
        if not mu:
            if n < 0:
                raise ValueError(f"{self.domain} defined for n >= 0")
            return _F1
        threshold = sum(mu) + len(mu)
        if n < threshold:
            return _F0
        memo = self._memo
        got = memo.get((mu, n))
        if got is not None:
            return got
        acc = _F0
        start = threshold
        for k in range(n - 1, threshold - 1, -1):
            cached = memo.get((mu, k))
            if cached is not None:
                acc = cached
                start = k + 1
                break
        removals = self.removals(mu)
        window = self.windows.window
        for k in range(start, n + 1):
            for j, child in removals:
                acc = acc + window(j, k - 1) * self.value(child, k - 1 - j)
            memo[(mu, k)] = acc
        return acc


class HWeights(_WeightMemo):
    """Memoized hw(mu, n), recursing on the last part of the composition."""

    __slots__ = ()
    domain = "hw is"

    @staticmethod
    def key(mu: Sequence[int]) -> tuple[int, ...]:
        return tuple(mu)

    @staticmethod
    def removals(mu: tuple[int, ...]) -> list[tuple[int, tuple[int, ...]]]:
        return [(mu[-1], mu[:-1])]


_h_engine = lru_cache(maxsize=_ENGINES)(HWeights)


def h_weight(h: ArithmeticFunction, mu: Sequence[int], n: int) -> Fraction:
    """hw(mu, n) by the inductive definition (memoized per h)."""
    return _h_engine(h).value(mu, n)


def h_weight_one(mu: Sequence[int], n: int) -> Fraction:
    """Closed form for h = one: hw(mu, n) = C(n - |mu|, len(mu))."""
    if n < 0:
        raise ValueError("hw is defined for n >= 0")
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
    if n < 0:
        raise ValueError("hw is defined for n >= 0")
    size, length = sum(mu), len(mu)
    numerator = 1
    for k in range(size + length):
        numerator *= n - k
        if numerator == 0:
            return _F0
    denominator = 1
    prefix = 0
    for k, part in enumerate(mu, start=1):
        prefix += part
        denominator *= k + prefix
    return Fraction(numerator, denominator)


def orbit_weight_sum_direct(h: ArithmeticFunction, mu: Sequence[int], n: int) -> Fraction:
    """Sum of hw over all distinct reorderings of mu, term by term."""
    engine = _h_engine(h)
    total = _F0
    for lam in orbit_of(mu):
        total += engine.value(lam, n)
    return total


class OrbitWeightEngine(_WeightMemo):
    """Orbit-summed weight with a partition-level memo.

    Peeling the last part of every composition in the orbit groups the
    terms by which part value was last, giving the multiset recursion

        W(mu, n) = W(mu, n-1)
                   + sum over distinct parts j of
                         h_j(n-1) * W(mu minus one copy of j, n-1-j)

    for n >= |mu| + len(mu), with W(mu, n) = 0 below that threshold and
    W((), n) = 1.  Keys are partitions, so the memo stays small where the
    literal orbit sum would visit exponentially many compositions.
    """

    __slots__ = ()
    domain = "orbit weights are"

    @staticmethod
    def key(mu: Sequence[int]) -> tuple[int, ...]:
        return tuple(sorted(mu, reverse=True))

    @staticmethod
    def removals(mu: tuple[int, ...]) -> list[tuple[int, tuple[int, ...]]]:
        out = []
        for j in sorted(set(mu), reverse=True):
            child = list(mu)
            child.remove(j)
            out.append((j, tuple(child)))
        return out


_orbit_sum_engine = lru_cache(maxsize=_ENGINES)(OrbitWeightEngine)


def orbit_weight_sum(h: ArithmeticFunction, mu: Sequence[int], n: int) -> Fraction:
    """Sum of hw(lambda, n) over the orbit of the partition mu."""
    return _orbit_sum_engine(h).value(mu, n)


# g-weights of partitions (tuples), memoized per (g, mu)
_g_weight_memo = lru_cache(maxsize=_G_WEIGHTS)(g_weight)


def _check_coeff_range(n: int, m: int) -> None:
    if not 1 <= m <= n:
        raise ValueError(f"coefficient indices need 1 <= m <= n, got n={n}, m={m}")


def coefficient_from_weights(
    g: ArithmeticFunction, h: ArithmeticFunction, n: int, m: int
) -> Fraction:
    """A[n][m] as the partition sum of g-weights times orbit-summed h-weights.

    For m = n the sum has the single empty-partition term and gives 1,
    matching the diagonal of the triangle.
    """
    _check_coeff_range(n, m)
    engine = _orbit_sum_engine(h)
    total = _F0
    for mu in partitions_of(n - m):
        gw = _g_weight_memo(g, mu)
        if gw:
            total += gw * engine.value(mu, n)
    return total


def coefficient_h_one(g: ArithmeticFunction, n: int, m: int) -> Fraction:
    """A[n][m] for h = one:

        sum over partitions mu of n-m of
            gw(mu) * multinomial(len(mu); multiplicities) * C(n - |mu|, len(mu)).
    """
    _check_coeff_range(n, m)
    total = _F0
    for mu in partitions_of(n - m):
        gw = _g_weight_memo(g, mu)
        if not gw:
            continue
        length = len(mu)
        orbit = multinomial(length, list(multiplicities(mu).values()))
        total += gw * orbit * comb(n - sum(mu), length)
    return total


def orbit_reciprocal_sum_direct(mu: Sequence[int]) -> Fraction:
    """sum over reorderings lam of mu of prod_k 1/(k + lam_1 + ... + lam_k)."""
    total = _F0
    for lam in orbit_of(mu):
        term = _F1
        prefix = 0
        for k, part in enumerate(lam, start=1):
            prefix += part
            term /= k + prefix
        total += term
    return total


_RECIPROCAL_MEMO: dict[tuple[int, ...], Fraction] = {(): _F1}


def orbit_reciprocal_sum(mu: Sequence[int]) -> Fraction:
    """Memoized orbit reciprocal sum.

    Peeling the last part: every reordering ends in some distinct part j,
    and the final factor is 1/(len(mu) + |mu|) regardless of j, so

        R(mu) = (sum over distinct parts j of R(mu minus j)) / (|mu| + len(mu)).
    """
    mu = tuple(sorted(mu, reverse=True))
    got = _RECIPROCAL_MEMO.get(mu)
    if got is None:
        acc = _F0
        for j in sorted(set(mu), reverse=True):
            child = list(mu)
            child.remove(j)
            acc += orbit_reciprocal_sum(tuple(child))
        got = _RECIPROCAL_MEMO[mu] = acc / (sum(mu) + len(mu))
    return got


def _falling_product(n: int, length: int) -> int:
    """n (n-1) ... (n-length+1); zero when length exceeds n."""
    out = 1
    for k in range(length):
        out *= n - k
        if out == 0:
            return 0
    return out


def coefficient_h_id(g: ArithmeticFunction, n: int, m: int) -> Fraction:
    """A[n][m] for h = id:

        sum over partitions mu of n-m of
            gw(mu) * (n)(n-1)...(n-|mu|-len(mu)+1) * orbit_reciprocal_sum(mu).
    """
    _check_coeff_range(n, m)
    total = _F0
    for mu in partitions_of(n - m):
        gw = _g_weight_memo(g, mu)
        if not gw:
            continue
        falling = _falling_product(n, sum(mu) + len(mu))
        if falling:
            total += gw * falling * orbit_reciprocal_sum(mu)
    return total


def conversion_holds(
    g: ArithmeticFunction, n: int, m: int, g_tilde: ArithmeticFunction | None = None
) -> bool:
    """Check A[n][m]^{g, id} / n! == A[n][m]^{g/n, one} / m!.

    The two sides run through independent routes: the h = id closed form on
    g versus the h = one closed form on the transformed function.
    """
    if g_tilde is None:
        g_tilde = tilde(g)
    lhs = coefficient_h_id(g, n, m) / factorial(n)
    rhs = coefficient_h_one(g_tilde, n, m) / factorial(m)
    return lhs == rhs


def conversion_scan(
    g: ArithmeticFunction, max_n: int
) -> tuple[int, int] | None:
    """First (n, m) where the conversion identity fails, or None."""
    g_tilde = tilde(g)
    for n in range(1, max_n + 1):
        for m in range(1, n + 1):
            if not conversion_holds(g, n, m, g_tilde=g_tilde):
                return (n, m)
    return None


def coefficient_composition_sum(
    g: ArithmeticFunction, n: int, m: int, h_kind: str
) -> Fraction:
    """A[n][m] by brute force over all compositions of n with m parts.

    h_kind = "one":  sum of prod g(k_i);
    h_kind = "id":   (n!/m!) * sum of prod g(k_i)/k_i.
    """
    _check_coeff_range(n, m)
    if h_kind not in ("one", "id"):
        raise ValueError(f"h_kind must be 'one' or 'id', got {h_kind!r}")
    total = _F0
    for parts in compositions_of(n, m):
        term = _F1
        for k in parts:
            term *= g(k) / k if h_kind == "id" else g(k)
        total += term
    if h_kind == "id":
        total *= Fraction(factorial(n), factorial(m))
    return total
