"""Generating-function and hook-length oracles.

Every route here computes the attached polynomials (or their values)
without touching the recursion engine, so agreement between the two is
meaningful evidence:

* h = id:   sum_n P_n(x) q^n = exp(x * sum_k g(k) q^k / k),
* h = one:  sum_n P_n(x) q^n = 1 / (1 - x * sum_k g(k) q^k),
* Euler products prod_n (1 - q^n)^r expanded factor by factor with
  generalized binomial coefficients (r may be a polynomial variable),
* reciprocals of the weight-4/6 Eisenstein series,
* hook-length sums over partitions.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb, factorial

from .arith import ArithmeticFunction, identity, one, sigma
from .exact import Poly, Series, X, first_failure, quotient
from .partitions import hook_multiset, partitions_of, stirling_rows
from .recursion import coefficient_table, polynomial_sequence

_F1 = Fraction(1)


def generating_series_h_id(g: ArithmeticFunction, order: int) -> Series:
    """exp(x * sum_{k>=1} g(k) q^k / k) truncated; q^n coefficient is P_n for h = id."""
    if order < 0:
        raise ValueError("series order must be nonnegative")
    argument = Series(
        [Poly()] + [Poly((0, g(k) / k)) for k in range(1, order + 1)]
    )
    return argument.exp()


def generating_series_h_one(g: ArithmeticFunction, order: int) -> Series:
    """1 / (1 - x * sum_{k>=1} g(k) q^k) truncated; q^n coefficient is P_n for h = one."""
    if order < 0:
        raise ValueError("series order must be nonnegative")
    denominator = Series([1] + [Poly((0, -g(k))) for k in range(1, order + 1)])
    return denominator.inverse()


def _signed_binomial_terms(exponent, kmax: int) -> list:
    """Coefficients (-1)^k C(exponent, k) for k = 1..kmax, up to the first zero.

    Works for integer exponents (negative included), where every term is
    an int because C(r, k) = C(r, k-1) (r - k + 1) / k divides exactly, and
    for Fraction and Poly exponents.
    """
    current = 1
    terms = []
    for k in range(1, kmax + 1):
        current = quotient(-current * (exponent - (k - 1)), k)
        if current == 0:
            break  # nonnegative integer exponent: the factor is a polynomial
        terms.append(current)
    return terms


def euler_product_power(exponent, order: int) -> Series:
    """prod_{n>=1} (1 - q^n)^r truncated at q^order.

    `exponent` may be any integer or Fraction, or a Poly (typically X), in
    which case the q^n coefficient is an exact polynomial of degree n in
    the exponent variable.  An integer exponent runs the expansion in ints.
    """
    if order < 0:
        raise ValueError("series order must be nonnegative")
    if isinstance(exponent, bool) or not isinstance(exponent, (int, Fraction, Poly)):
        raise TypeError("exponent must be an integer, Fraction, or Poly")
    acc: list = [1] + [0] * order
    for n in range(1, order + 1):
        out = list(acc)  # k = 0 contribution
        for k, c in enumerate(_signed_binomial_terms(exponent, order // n), 1):
            shift = n * k
            out[shift:] = [o + c * a if a else o for o, a in zip(out[shift:], acc)]
        acc = out
    return Series(acc)


def inverse_eisenstein(weight: int, order: int) -> list[Fraction]:
    """q-expansion coefficients of 1/E4 or 1/E6, by `Series.inverse` of
    E = 1 + scale * sum sigma_power(n) q^n."""
    if weight == 4:
        scale, power = 240, 3
    elif weight == 6:
        scale, power = -504, 5
    else:
        raise ValueError(f"weight must be 4 or 6, got {weight}")
    s = sigma(power)
    eisenstein = Series([1] + [scale * s(n) for n in range(1, order + 1)])
    return list(eisenstein.inverse().coefficients)


def hook_length_polynomial(n: int) -> Poly:
    """The degree-n hook-length polynomial (Nekrasov-Okounkov form):

        Q_n(x) = sum over partitions lam of n of
                     prod over hook lengths t of (1 + x / t^2).

    Q_n(0) = p(n) and every coefficient is a positive rational.
    """
    if n < 0:
        raise ValueError("hook-length polynomials need n >= 0")
    # the hook length formula makes prod t a divisor of n!, so every term
    # prod (x + t^2) / prod t^2 is an int row over the one denominator n!^2
    common = factorial(n) ** 2
    total = [0] * (n + 1)
    for lam in partitions_of(n):
        numerator = [1]  # prod (x + t^2), constant term first
        denominator = 1
        for t in hook_multiset(lam):
            t2 = t * t
            denominator *= t2
            numerator = [a + t2 * b for a, b in zip([0] + numerator, numerator + [0])]
        scale = common // denominator
        total = [a + scale * c for a, c in zip(total, numerator)]
    return Poly.from_numerators(total, common)


FAMILIES = ("pochhammer", "stirling", "lah", "chebyshev3term", "symmetric_product")


def closed_family_check(
    family: str, max_n: int, h_functions: list[ArithmeticFunction]
) -> tuple[int, tuple | None]:
    """Verify one closed polynomial family against the recursion engine.

    pochhammer:         P_n for (one, one) equals x (x+1)^(n-1)
    stirling:           A[n][m] for (one, id) equals |s(n, m)|
    lah:                A[n][m] for (id, id) equals (n!/m!) C(n-1, m-1)
    chebyshev3term:     g = id satisfies, for each h,
                        h(n) P_n + (-2 h(n+1) - x) P_{n+1} + h(n+2) P_{n+2} = 0
                        (h(0) = 0, so the P_0 term drops at n = 0)
    symmetric_product:  H(n) P_n for (one, h) equals prod_{k=0}^{n-1} (x + h(k))

    Returns (comparisons made, first failing (family, n[, m]) or None).
    """
    if family not in FAMILIES:
        raise ValueError(f"unknown family {family!r}; expected one of {FAMILIES}")
    if max_n < 1:
        raise ValueError("max_n must be at least 1")

    def outcomes():
        if family == "pochhammer":
            polys = polynomial_sequence(one(), one(), max_n)
            for n in range(1, max_n + 1):
                yield None if polys[n] == X * (X + 1) ** (n - 1) else (family, n)

        elif family == "stirling":
            table = coefficient_table(one(), identity(), max_n)
            for n, stirling in enumerate(stirling_rows(max_n)):
                for m in range(n + 1):
                    yield None if table.entry(n, m) == stirling[m] else (family, n, m)

        elif family == "lah":
            table = coefficient_table(identity(), identity(), max_n)
            for n in range(1, max_n + 1):
                for m in range(1, n + 1):
                    lah = (factorial(n) // factorial(m)) * comb(n - 1, m - 1)
                    yield None if table.entry(n, m) == lah else (family, n, m)

        elif family == "chebyshev3term":
            for h in h_functions:
                polys = polynomial_sequence(identity(), h, max_n + 2)
                for n in range(max_n + 1):
                    lhs = (
                        polys[n] * h(n)
                        + polys[n + 1] * (Poly((-2 * h(n + 1),)) - X)
                        + polys[n + 2] * h(n + 2)
                    )
                    yield None if lhs.is_zero() else (family, h.name, n)

        else:  # symmetric_product
            for h in h_functions:
                polys = polynomial_sequence(one(), h, max_n)
                expected, hn = Poly((_F1,)), _F1
                for n in range(1, max_n + 1):
                    expected = expected * (X + h(n - 1))  # h(0) = 0 gives the x factor
                    hn *= h(n)
                    yield None if polys[n] * hn == expected else (family, h.name, n)

    return first_failure(outcomes())
