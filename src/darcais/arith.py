"""Normalized arithmetic functions.

An arithmetic function here is a map n >= 1 -> Fraction with value 1 at
n = 1 (normalization, enforced at construction).  The value at 0 is fixed
to 0.  Instances memoize evaluated values and carry no flags: whether the
values are integers, and whether h vanishes among the values a route
reads, is decided from the values themselves by the kernels that
tabulate them.  They read f(1..N) at once through `values`, which for
sigma_ell is one divisor sieve of ints and otherwise the memoized calls.
The builtins one, id and sigma_ell are shared instances, so their memos
(and the weight engines keyed by them) serve every caller.
"""

from __future__ import annotations

import json
import re
from fractions import Fraction
from functools import cache
from itertools import repeat
from operator import add
from typing import Callable, Sequence, Union

from .exact import format_rational, rational

_F0 = Fraction(0)
_F1 = Fraction(1)
MAX_TILDE_DEPTH = 100  # each level adds two stack frames to an evaluation


class ArithmeticFunction:
    """Memoized evaluator for a normalized arithmetic function; `tabulate`,
    if given, returns f(1), ..., f(max_n) as ints without evaluating f."""

    __slots__ = ("name", "_eval", "_memo", "_tabulate")

    def __init__(self, name: str, evaluator: Callable[[int], Union[int, Fraction]],
                 tabulate: Callable[[int], list[int]] | None = None):
        self.name = name
        self._eval = evaluator
        self._tabulate = tabulate
        first = rational(evaluator(1))
        if first != 1:
            raise ValueError(f"{name!r} is not normalized: value at 1 is {first}")
        self._memo = {1: _F1}

    def __call__(self, n: int) -> Fraction:
        if n == 0:
            return _F0
        if n < 0:
            raise ValueError(f"arithmetic functions are defined for n >= 0, got {n}")
        value = self._memo.get(n)
        if value is None:
            value = self._eval(n)  # an exact int (not a bool) needs none of rational()'s checks
            value = self._memo[n] = Fraction(value) if type(value) is int else rational(value)
        return value

    def values(self, max_n: int) -> list:
        """[f(1), ..., f(max_n)]: ints from the tabulation where there is
        one (sigma_ell's divisor sieve), else Fractions read through the
        memoized calls, so a table read past its end raises IndexError."""
        if self._tabulate is not None:
            return self._tabulate(max_n)
        return list(map(self, range(1, max_n + 1)))

    def __repr__(self) -> str:
        return f"ArithmeticFunction({self.name!r})"


def divisor_power_sum(n: int, power: int) -> int:
    """sigma_ell(n): sum of the ell-th powers of the divisors of n."""
    if n < 1:
        raise ValueError("divisor sums need n >= 1")
    total = 0
    d = 1
    while d * d <= n:
        if n % d == 0:
            total += d**power
            q = n // d
            if q != d:
                total += q**power
        d += 1
    return total


def divisor_power_sums(max_n: int, power: int) -> list[int]:
    """[sigma_ell(1), ..., sigma_ell(max_n)] by one divisor sieve.  Each
    n = d q with d <= q is met at d <= sqrt(max_n) only, which adds d^ell
    to every multiple d q, q >= d, and q^ell to those with q > d: about
    max_n ln(max_n) int additions in all, in 2 sqrt(max_n) slice steps."""
    powers = [k**power for k in range(max_n + 1)]
    sums = [0] * (max_n + 1)
    d = 1
    while d * d <= max_n:
        sums[d * d::d] = map(add, sums[d * d::d], repeat(powers[d]))
        sums[d * (d + 1)::d] = map(add, sums[d * (d + 1)::d], powers[d + 1:max_n // d + 1])
        d += 1
    del sums[0]
    return sums


@cache
def one() -> ArithmeticFunction:
    """The constant function 1 (one shared instance)."""
    return ArithmeticFunction("one", lambda n: 1)


@cache
def identity() -> ArithmeticFunction:
    """The identity function n -> n (one shared instance)."""
    return ArithmeticFunction("id", lambda n: n)


@cache
def sigma(power: int, /) -> ArithmeticFunction:
    """The divisor-power sum sigma_ell; sigma(1) is the classical sigma.

    One shared instance per ell: the exponent is positional and has no
    default, so every call for one ell has the same cache key.
    """
    if power < 0:
        raise ValueError("sigma needs a nonnegative exponent")
    return ArithmeticFunction(f"sigma:{power}", lambda n: divisor_power_sum(n, power),
                              lambda max_n: divisor_power_sums(max_n, power))


def tilde(g: ArithmeticFunction) -> ArithmeticFunction:
    """The transform n -> g(n)/n; normalized whenever g is."""
    return ArithmeticFunction(f"tilde:{g.name}", lambda n: g(n) / n)


def from_table(
    values: Sequence[Union[int, str, Fraction]], name: str | None = None
) -> ArithmeticFunction:
    """Finite table-backed function; values[0] is the value at n = 1.

    Queries past the end of the table raise IndexError.
    """
    table = [rational(v) for v in values]
    if not table or table[0] != 1:
        raise ValueError("table must start with value 1 at n = 1")
    if name is None:
        name = "table:[" + ",".join(format_rational(v) for v in table) + "]"

    def evaluate(n: int) -> Fraction:
        if n > len(table):
            raise IndexError(f"table of length {len(table)} queried at n = {n}")
        return table[n - 1]

    return ArithmeticFunction(name, evaluate)


def from_descriptor(descriptor: str) -> ArithmeticFunction:
    """Parse a function descriptor.

    Grammar: ``one`` | ``id`` | ``sigma:<ell>`` | ``tilde:<descriptor>`` |
    ``table:<path>`` where the file holds a JSON array of integers or
    "p/q" strings, index 0 being the value at n = 1.  ``tilde:`` nests at
    most MAX_TILDE_DEPTH deep.
    """
    descriptor = descriptor.strip()
    if descriptor == "one":
        return one()
    if descriptor == "id":
        return identity()
    if descriptor.startswith("sigma:"):
        try:
            power = int(descriptor[len("sigma:"):])
        except ValueError:
            raise ValueError(f"bad sigma exponent in descriptor {descriptor!r}") from None
        return sigma(power)
    if descriptor.startswith("tilde:"):
        if re.match(r"(?:tilde:\s*){%d}" % (MAX_TILDE_DEPTH + 1), descriptor):
            raise ValueError(f"tilde: nests more than {MAX_TILDE_DEPTH} deep")
        return tilde(from_descriptor(descriptor[len("tilde:"):]))
    if descriptor.startswith("table:"):
        path = descriptor[len("table:"):]
        with open(path, "r", encoding="utf-8") as handle:
            data = json.load(handle)
        if not isinstance(data, list):
            raise ValueError(f"table file {path!r} must hold a JSON array")
        return from_table(data, name=descriptor)
    raise ValueError(f"unknown function descriptor {descriptor!r}")

