"""Normalized arithmetic functions and their cumulative products.

An arithmetic function here is a map n >= 1 -> Fraction with value 1 at
n = 1 (normalization, enforced at construction).  The value at 0 is fixed
to 0.  Instances memoize evaluated values and carry two flags: whether the
function is known never to vanish, and whether its values are integers.
The builtins one, id and sigma_ell are shared instances, so their memos
(and the weight engines keyed by them) serve every caller.
"""

from __future__ import annotations

import json
from fractions import Fraction
from functools import cache
from typing import Callable, Sequence, Union

from .exact import format_rational, rational

_F0 = Fraction(0)
_F1 = Fraction(1)


class ArithmeticFunction:
    """Memoized evaluator for a normalized arithmetic function."""

    __slots__ = ("name", "non_vanishing", "integer_valued", "_eval", "_memo")

    def __init__(
        self,
        name: str,
        evaluator: Callable[[int], Union[int, Fraction]],
        *,
        non_vanishing: bool = False,
        integer_valued: bool = False,
    ):
        self.name = name
        self._eval = evaluator
        self.non_vanishing = non_vanishing
        self.integer_valued = integer_valued
        first = Fraction(evaluator(1))
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
            value = Fraction(self._eval(n))
            if self.non_vanishing and value == 0:
                raise ArithmeticError(
                    f"{self.name!r} is flagged non-vanishing but vanishes at {n}"
                )
            self._memo[n] = value
        return value

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


@cache
def one() -> ArithmeticFunction:
    """The constant function 1 (one shared instance)."""
    return ArithmeticFunction("one", lambda n: 1, non_vanishing=True, integer_valued=True)


@cache
def identity() -> ArithmeticFunction:
    """The identity function n -> n (one shared instance)."""
    return ArithmeticFunction("id", lambda n: n, non_vanishing=True, integer_valued=True)


@cache
def sigma(power: int, /) -> ArithmeticFunction:
    """The divisor-power sum sigma_ell; sigma(1) is the classical sigma.

    One shared instance per ell: the exponent is positional and has no
    default, so every call for one ell has the same cache key.
    """
    if power < 0:
        raise ValueError("sigma needs a nonnegative exponent")
    return ArithmeticFunction(
        f"sigma:{power}",
        lambda n: divisor_power_sum(n, power),
        non_vanishing=True,
        integer_valued=True,
    )


def tilde(g: ArithmeticFunction) -> ArithmeticFunction:
    """The transform n -> g(n)/n; normalized whenever g is."""
    return ArithmeticFunction(
        f"tilde:{g.name}", lambda n: g(n) / n, non_vanishing=g.non_vanishing
    )


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

    return ArithmeticFunction(
        name,
        evaluate,
        non_vanishing=all(v != 0 for v in table),
        integer_valued=all(v.denominator == 1 for v in table),
    )


def from_descriptor(descriptor: str) -> ArithmeticFunction:
    """Parse a function descriptor.

    Grammar: ``one`` | ``id`` | ``sigma:<ell>`` | ``tilde:<descriptor>`` |
    ``table:<path>`` where the file holds a JSON array of integers or
    "p/q" strings, index 0 being the value at n = 1.
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
        return tilde(from_descriptor(descriptor[len("tilde:"):]))
    if descriptor.startswith("table:"):
        path = descriptor[len("table:"):]
        with open(path, "r", encoding="utf-8") as handle:
            data = json.load(handle)
        if not isinstance(data, list):
            raise ValueError(f"table file {path!r} must hold a JSON array")
        return from_table(data, name=descriptor)
    raise ValueError(f"unknown function descriptor {descriptor!r}")


class CumulativeProduct:
    """Prefix products H(n) = h(1) h(2) ... h(n) with H(0) = 1."""

    __slots__ = ("base", "_values", "_windows")

    def __init__(self, base: ArithmeticFunction):
        self.base = base
        self._values = [_F1]
        self._windows: dict[tuple[int, int], Fraction] = {}

    def value(self, n: int) -> Fraction:
        if n < 0:
            raise ValueError("cumulative products need n >= 0")
        while len(self._values) <= n:
            k = len(self._values)
            self._values.append(self._values[-1] * self.base(k))
        return self._values[n]

    def window(self, m: int, n: int) -> Fraction:
        """h_m(n) = H(n)/H(n-m) = h(n) h(n-1) ... h(n-m+1); h_0(n) = 1 (memoized)."""
        got = self._windows.get((m, n))
        if got is None:
            if not 0 <= m <= n:
                raise ValueError(f"window needs 0 <= m <= n, got m={m}, n={n}")
            got = _F1
            for k in range(m):
                got *= self.base(n - k)
            self._windows[(m, n)] = got
        return got
