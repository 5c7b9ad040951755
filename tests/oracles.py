"""Reference implementations that the tests compare the package against.

Each one is the literal definition, written without memoization and
without calling the routine it checks.
"""

from collections import Counter
from fractions import Fraction
from math import comb, factorial

from darcais.partitions import orbit_of


def h_weight_literal(h, mu, n):
    """The unmemoized inductive sum for hw(mu, n), peeling the last part."""
    mu = tuple(mu)
    if not mu:
        return Fraction(1)
    threshold = sum(mu) + len(mu)
    if n < threshold:
        return Fraction(0)
    last, head = mu[-1], mu[:-1]
    total = Fraction(0)
    for k in range(threshold - 1, n):
        window = Fraction(1)
        for j in range(last):
            window *= h(k - j)
        total += window * h_weight_literal(h, head, k - last)
    return total


def orbit_weight_sum_direct(h, mu, n):
    """Sum of hw over all distinct reorderings of mu, term by term."""
    return sum((h_weight_literal(h, lam, n) for lam in orbit_of(mu)), Fraction(0))


def orbit_reciprocal_sum_direct(mu):
    """sum over reorderings lam of mu of prod_k 1/(k + lam_1 + ... + lam_k)."""
    total = Fraction(0)
    for lam in orbit_of(mu):
        term = Fraction(1)
        prefix = 0
        for k, part in enumerate(lam, start=1):
            prefix += part
            term /= k + prefix
        total += term
    return total


def orbit_size(mu):
    """len(mu)! / prod_j multiplicity_j!"""
    size = factorial(len(mu))
    for count in Counter(mu).values():
        size //= factorial(count)
    return size


def composition_count(n, k):
    """c_k(n) = C(n-1, k-1)."""
    if n < 1 or not 1 <= k <= n:
        raise ValueError(f"composition counts need n >= 1 and 1 <= k <= n, got n={n}, k={k}")
    return comb(n - 1, k - 1)
