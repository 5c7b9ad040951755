"""Generating-function and hook-length oracles.

Every route here computes the attached polynomials (or their values)
without touching the recursion engine, so agreement between the two is
meaningful evidence:

* h = id:   sum_n P_n(x) q^n = exp(x * sum_k g(k) q^k / k),
* h = one:  sum_n P_n(x) q^n = 1 / (1 - x * sum_k g(k) q^k),
* Euler products prod_n (1 - q^n)^r: for an int r >= 0, Jacobi's cube
  series to the power r // 3 by squarings of Kronecker-packed ints, times
  Euler's pentagonal series to the power r % 3; for every other r, one
  kernel of Miller's power recurrence on Euler's pentagonal series, which
  takes r as a polynomial (a scalar r as a constant one) and runs
  division-free on ints over the scales d^n n!, one power of the variable
  at a time,
* reciprocals of the weight-4/6 Eisenstein series,
* hook-length sums over partitions.
"""

from __future__ import annotations

from bisect import bisect_right
from fractions import Fraction
from itertools import repeat
from math import comb, factorial, perm, prod
from operator import add, mul
from typing import Iterator

from .arith import ArithmeticFunction, identity, one, sigma
from .exact import Poly, Series, X, first_failure, product_window, slot_width, unpack_signed
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


def _pentagonal(order: int) -> list[tuple[int, int]]:
    """(i, e_i) for the nonzero coefficients e_i of q^i, 1 <= i <= order, in
    prod_{k>=1} (1 - q^k): by Euler's pentagonal theorem e_i = (-1)^j at the
    generalized pentagonal numbers i = j (3j -+ 1) / 2, and 0 elsewhere."""
    pairs = []
    j = 1
    while j * (3 * j - 1) // 2 <= order:
        sign = -1 if j % 2 else 1
        pairs += [(i, sign) for i in (j * (3 * j - 1) // 2, j * (3 * j + 1) // 2) if i <= order]
        j += 1
    return pairs


def euler_product_power(exponent, order: int) -> Series:
    """prod_{n>=1} (1 - q^n)^r truncated at q^order.

    `exponent` may be any integer or Fraction, or a Poly (typically X), in
    which case the q^n coefficient is an exact polynomial of degree n in
    the exponent variable.  With E = prod (1 - q^k) = sum e_i q^i, sparse by
    `_pentagonal`, a nonnegative integral r takes the product route
    (`euler_product_ints`): E^r from Jacobi's cube by packed squarings.  Every
    other r runs Miller's recurrence: G = E^r satisfies E G' = r E' G, that is

        n G_n = sum_{i>=1} e_i ((r + 1) i - n) G_{n-i}

    (J. C. P. Miller's power recurrence; Knuth, TAOCP vol. 2, 4.7), in its
    one kernel `euler_product_columns`: for r = u / d (u an int polynomial,
    d > 0) it yields the int rows F_n = d^n n! G_n one power of the exponent
    variable at a time, and each row is read back over its scale d^n n!.  A
    scalar r goes in as the constant polynomial (r,), whose one column is
    read as Fractions.
    """
    if order < 0:
        raise ValueError("series order must be nonnegative")
    if isinstance(exponent, bool) or not isinstance(exponent, (int, Fraction, Poly)):
        raise TypeError("exponent must be an integer, Fraction, or Poly")
    if isinstance(exponent, Poly) and exponent.is_zero():
        exponent = 0  # the zero polynomial: the series 1, with rational coefficients
    if not isinstance(exponent, Poly) and exponent.denominator == 1 and exponent >= 0:
        return Series(euler_product_ints(exponent.numerator, order))
    r = exponent if isinstance(exponent, Poly) else Poly((exponent,))
    rows = [[] for _ in range(order + 1)]
    for column in euler_product_columns(r, order):
        for row, c in zip(rows[order + 1 - len(column):], column):
            row.append(c)
    d, coefficients = r.denominator, []
    for n in range(order, 0, -1):  # each row reduced as it is popped off
        row, scale = rows.pop(), d**n * factorial(n)
        coefficients.append(Poly.from_numerators(row, scale) if r is exponent
                            else Fraction(row[0], scale))  # a scalar r: one column
    return Series([1] + coefficients[::-1])


def euler_product_ints(r: int, order: int) -> list[int]:
    """The int coefficients of q^0, ..., q^order in prod (1 - q^k)^r for an
    int r >= 0, the branch of `euler_product_power` that it wraps in a
    Series: with r = 3 t + s, s < 3, prod (1 - q^k)^r = J^t E^s, where
    E = sum_i e_i q^i by `_pentagonal` and J = prod (1 - q^k)^3 =
    sum_{k>=0} (-1)^k (2k + 1) q^(k (k + 1) / 2) by Jacobi's identity.  J^t
    is taken by left-to-right binary powering, so r = 24 costs three
    squarings, and each step is one packed product read to q^order
    (`exact.product_window`)."""
    if order < 0:
        raise ValueError("series order must be nonnegative")
    if type(r) is not int:
        raise TypeError(f"the int route needs an int exponent, got {r!r}")
    if r < 0:
        raise ValueError(f"the int route needs an exponent r >= 0, got {r}")
    t, s = divmod(r, 3)
    euler = [1] + [0] * order
    for i, e in _pentagonal(order):
        euler[i] = e
    jacobi = [0] * (order + 1)
    k = 0
    while k * (k + 1) // 2 <= order:
        jacobi[k * (k + 1) // 2] = -(2 * k + 1) if k % 2 else 2 * k + 1
        k += 1
    power = jacobi if t else [1] + [0] * order
    for bit in bin(t)[3:]:
        power = product_window(power, power, 0, order + 1)
        if bit == "1":
            power = product_window(power, jacobi, 0, order + 1)
    for _ in range(s):
        power = product_window(power, euler, 0, order + 1)
    return power


def euler_product_columns(exponent: Poly, order: int) -> Iterator[list[int]]:
    """Miller's recurrence for a nonzero Poly r = u / d (u an int polynomial
    of degree D, d > 0), run column by column on the int rows
    F_n = d^n n! G_n of G = prod (1 - q^k)^r, with F_0 = 1.  Multiplying
    n d G_n = sum_i e_i ((u + d) i - n d) G_{n-i} by d^(n-1) (n-1)! gives
    the division-free recurrence

        F_n = sum_i e_i ((u + d) i - n d) a_i F_{n-i},
        a_i = d^(i-1) (n-1)! / (n-i)! = d^(i-1) (n-1) (n-2) ... (n-i+1),

    so each F_n is an int polynomial of degree at most n D.  With
    f_{n,j} = [x^j] F_n, v = u + d, s0_j(n) = sum_i e_i a_i f_{n-i,j} and
    s1_j(n) = sum_i i e_i a_i f_{n-i,j}, it reads, coefficient by coefficient,

        f_{n,j} = sum_t v_t s1_{j-t}(n) - n d s0_j(n),

    so column j needs only its own earlier entries and the s1 of the last D
    columns: O(order^2) bits are held, where rows would hold O(order^3).
    Both sums are taken by Horner's rule from the largest pentagonal step
    i' <= n - ceil(j / D) down (F_{n-i} has no x^j below that): between
    consecutive steps i < i' the sums so far are multiplied by
    a_i' / a_i = d^(i'-i) (n-i)! / (n-i')!, which depends on n alone and
    is tabulated once, and at i = 1, where a_1 = 1, they are s0 and s1.
    The signs are folded into the ratios: the step reads t <- t rho + c on
    t = s / e_i, with rho = e_i e_i' a_i' / a_i, and e_1 = -1 gives
    s0 = -t0 and s1 = -t1.

    Yields the columns j = 0, ..., order D in turn; column j lists f_{n,j} for
    n = ceil(j / D), ..., order (every n for D = 0), the rows whose degree
    bound n D reaches j.  Row n is complete once column n D has come.
    `euler_product_power` reads the rows back over their scales d^n n!.

    For r = -x - 1, the hook scan's exponent, D = d = 1 and column j lists
    rows j..order.  Each F_n is then canonical, since its leading
    coefficient is 1: G = exp((x + 1) L), with
    L = -log prod (1 - q^k) = sum_m sigma(m) q^m / m = q + O(q^2).  In
    exp((x + 1) L) = sum_k (x + 1)^k L^k / k! the terms with k < n have
    degree k < n in x, and those with k > n start at q^k, so
    [x^n q^n] G = [x^n] (x + 1)^n [q^n] L^n / n! = 1 / n!.  The x^n
    coefficient of F_n = n! G_n is therefore 1, and its gcd with n! is 1.
    """
    if order < 0:
        raise ValueError("series order must be nonnegative")
    v, d = list(exponent.numerators), exponent.denominator
    v[0] += d  # u + d
    degree = len(v) - 1
    pentagonal = _pentagonal(order)
    steps = [i for i, _ in pentagonal]
    below = [bisect_right(steps, t) for t in range(order + 1)]  # steps <= t
    # horner[n]: (n - i, i, e_i e_i' a_i' / a_i) for the steps i <= n,
    # largest first; the largest one's next step i' is past n, and its
    # ratio 0 multiplies sums that are still 0
    nexts = pentagonal[1:] + [(order + 1, 1)]
    horner = [[(n - a, a, e * f * d ** (b - a) * perm(n - a, b - a) if b <= n else 0)
               for (a, e), (b, f) in zip(pentagonal[k - 1::-1], nexts[k - 1::-1])] if k else []
              for n, k in enumerate(below)]
    history = []  # s1 of the last D columns, newest first, indexed by n
    for j in range(order * degree + 1):
        first = -(-j // degree) if degree else 0
        start = max(first, 1)
        column = [0] * first if j else [1]  # f_{0,j}, ..., f_{order,j}
        carry = [0] * (order + 1)  # carry[n]: the terms v_t s1_{j-t}(n), t >= 1
        for t, older in enumerate(history, 1):
            carry = list(map(add, carry, map(mul, older, repeat(v[t]))))
        s1s = [0] * (order + 1)
        for n, steps_n, k_n, k in zip(range(start, order + 1), horner[start:], below[start:],
                                      below[start - first:]):
            t0 = t1 = 0  # s0 / e_i and s1 / e_i so far
            for m, i, ratio in steps_n[k_n - k:]:  # m = n - i
                c = column[m]
                t0 = t0 * ratio + c
                t1 = t1 * ratio + i * c
            s1s[n] = s1 = -t1  # e_1 = -1
            column.append(carry[n] + v[0] * s1 + n * d * t0)
        yield column[first:]
        history = [s1s, *history][:degree]


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

    By the hook length formula f_lam = n! / prod t is an int, so

        n!^2 Q_n(x) = sum over lam of f_lam^2 prod (x + t^2)

    has int coefficients.  The sum is taken as one int, Kronecker-packed:
    each prod (x + t^2) is evaluated at x = 2^(8w) as one product of ints,
    weighted by f_lam^2 and added up, and the n + 1 slots of w bytes are
    read once at the end by `unpack_signed`.  The slots cannot carry into
    each other: all coefficients are nonnegative; each coefficient of
    prod (x + t^2) is at most the sum of them all,
    prod (1 + t^2) <= prod 2 t^2 = 2^n prod t^2, so f_lam^2 times it is at
    most 2^n n!^2; and so each coefficient of the sum over the p(n)
    partitions is at most p(n) 2^n n!^2, and slots of
    w = slot_width(p(n) 2^n n!^2) bytes hold it.
    """
    if n < 0:
        raise ValueError("hook-length polynomials need n >= 0")
    counts = [1]  # p(0..n), by Euler's pentagonal recurrence, for the slot width
    pentagonal = _pentagonal(n)
    for k in range(1, n + 1):
        counts.append(-sum(e * counts[k - i] for i, e in pentagonal if i <= k))
    nf = factorial(n)
    width = slot_width(counts[n] * nf * nf << n)
    x = 1 << 8 * width
    total = 0
    for lam in partitions_of(n):
        hooks = hook_multiset(lam)
        total += (nf // prod(hooks)) ** 2 * prod([t * t + x for t in hooks])
    return Poly.from_numerators(unpack_signed(total, width, n + 1), nf * nf)


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
