"""Generating-function and hook-length oracles.

Every route here computes the attached polynomials (or their values)
without touching the recursion engine, so agreement between the two is
meaningful evidence:

* h = id:   sum_n P_n(x) q^n = exp(x * sum_k g(k) q^k / k),
* h = one:  sum_n P_n(x) q^n = 1 / (1 - x * sum_k g(k) q^k),
* Euler products prod_n (1 - q^n)^r: for an int r >= 0, Jacobi's cube
  series to the power r // 3 by squarings of Kronecker-packed ints, times
  Euler's pentagonal series to the power r % 3; for every other r, Miller's
  power recurrence on Euler's pentagonal series (r may be a polynomial
  variable, whose q^n coefficient runs division-free on ints over its own
  scale d^n n!),
* reciprocals of the weight-4/6 Eisenstein series,
* hook-length sums over partitions.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import repeat
from math import comb, factorial, perm, prod
from operator import add, mul, sub

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
    (`_jacobi_power`): E^r from Jacobi's cube by packed squarings.  Every
    other r runs Miller's recurrence: G = E^r satisfies E G' = r E' G, that is

        n G_n = sum_{i>=1} e_i ((r + 1) i - n) G_{n-i}

    (J. C. P. Miller's power recurrence; Knuth, TAOCP vol. 2, 4.7).  For
    r = u / d (u an int, or an int polynomial for a Poly exponent; d > 0)
    it runs in ints.  A negative or non-integral scalar r runs on
    E_n = T G_n, with T = 1 for an integer r and T = d^order order!
    otherwise, which n! G_n in Z[r] makes integral; each step divides by
    n d once, exactly.  A Poly r runs on
    the rows F_n = d^n n! G_n, each over its own scale, by a division-free
    form of the recurrence (`_poly_power`).
    """
    if order < 0:
        raise ValueError("series order must be nonnegative")
    if isinstance(exponent, bool) or not isinstance(exponent, (int, Fraction, Poly)):
        raise TypeError("exponent must be an integer, Fraction, or Poly")
    pentagonal = _pentagonal(order)
    if isinstance(exponent, Poly):
        if not exponent.is_zero():
            return _poly_power(exponent, order, pentagonal)
        exponent = 0  # the zero polynomial: the series 1, with rational coefficients
    u, d = exponent.numerator, exponent.denominator
    if d == 1 and u >= 0:
        return Series(_jacobi_power(u, order, pentagonal))
    T = 1 if d == 1 else d**order * factorial(order)
    steps, signs = [i for i, _ in pentagonal], [e for _, e in pentagonal]
    weights = list(map(mul, steps, signs))
    values, k = [T], 0
    for n in range(1, order + 1):
        if k < len(steps) and steps[k] == n:
            k += 1
        terms = list(map(values.__getitem__, map(n.__sub__, steps[:k])))
        s0, s1 = sum(map(mul, signs, terms)), sum(map(mul, weights, terms))
        values.append(((u + d) * s1 - d * n * s0) // (n * d))
    return Series(values if T == 1 else [Fraction(v, T) for v in values])


def _jacobi_power(r: int, order: int, pentagonal: list) -> list[int]:
    """The branch of `euler_product_power` for an int r >= 0: with r = 3 t + s,
    s < 3, prod (1 - q^k)^r = J^t E^s, where E = sum_i e_i q^i by
    `_pentagonal` and J = prod (1 - q^k)^3 = sum_{k>=0} (-1)^k (2k + 1)
    q^(k (k + 1) / 2) by Jacobi's identity.  J^t is taken by left-to-right
    binary powering, so r = 24 costs three squarings, and each step is one
    packed product read to q^order (`exact.product_window`)."""
    t, s = divmod(r, 3)
    euler = [1] + [0] * order
    for i, e in pentagonal:
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


def _poly_power(exponent: Poly, order: int, pentagonal: list) -> Series:
    """The Poly branch of `euler_product_power`, run on int rows over each
    row's own scale: F_n = d^n n! G_n, with F_0 = 1.  Multiplying
    n d G_n = sum_i e_i ((u + d) i - n d) G_{n-i} by d^(n-1) (n-1)! gives
    the division-free recurrence

        F_n = sum_i e_i ((u + d) i - n d) a_i F_{n-i},
        a_i = d^(i-1) (n-1)! / (n-i)! = d^(i-1) (n-1) (n-2) ... (n-i+1),

    so each F_n is an int polynomial, with no division by n d.  With
    s0 = sum e_i a_i F_{n-i} and s1 = sum i e_i a_i F_{n-i},
    F_n = (u + d) s1 - n d s0.  Both sums are taken by Horner's rule from
    the largest pentagonal step i' <= n down: between consecutive steps
    i < i' the sums so far are multiplied by
    a_i' / a_i = d^(i'-i) (n-i)! / (n-i')!, and at i = 1, where a_1 = 1,
    they are s0 and s1.  Rows grow with n, so F_{n-i} is at least as long
    as the sums so far, and one pass over it scales them and adds it.  The
    sums are taken in place, one coefficient at a time, so a step copies no
    row: summing slice by slice, a copy per term, fragmented the heap and
    raised the peak RSS of `scan --check hook-logconcave --max-n 200` from
    about 22.4 to 23.3 MiB.  Row n is read as F_n / (d^n n!), reduced as it
    is popped off the list of rows.

    For r = -x - 1, the hook scan's exponent, each F_n is already
    canonical, since its leading coefficient is 1.  There d = 1 and
    G = exp((x + 1) L), with L = -log prod (1 - q^k) = sum_m sigma(m) q^m / m
    = q + O(q^2).  In exp((x + 1) L) = sum_k (x + 1)^k L^k / k! the terms
    with k < n have degree k < n in x, and those with k > n start at q^k,
    so [x^n q^n] G = [x^n] (x + 1)^n [q^n] L^n / n! = 1 / n!.  The x^n
    coefficient of F_n = n! G_n is therefore 1, and its gcd with n! is 1.
    """
    v, d = list(exponent.numerators), exponent.denominator
    v[0] += d  # u + d
    rows = [[1]]
    k = 0  # the steps i <= n are pentagonal[:k]
    for n in range(1, order + 1):
        if k < len(pentagonal) and pentagonal[k][0] == n:
            k += 1
        s0, s1 = [0] * len(rows[-1]), [0] * len(rows[-1])
        top = pentagonal[k - 1][0]
        for i, e in reversed(pentagonal[:k]):
            ratio = d ** (top - i) * perm(n - i, top - i)  # a_top / a_i
            top, w = i, i * e
            if e > 0:
                for j, c in enumerate(rows[n - i]):
                    s0[j] = s0[j] * ratio + c
                    s1[j] = s1[j] * ratio + w * c
            else:
                for j, c in enumerate(rows[n - i]):
                    s0[j] = s0[j] * ratio - c
                    s1[j] = s1[j] * ratio + w * c
        out = [0] * (len(s1) + len(v) - 1)
        for j, c in enumerate(v):
            if c:
                out[j:j + len(s1)] = map(add, out[j:j + len(s1)], map(mul, s1, repeat(c)))
        out[:len(s0)] = map(sub, out[:len(s0)], map(mul, s0, repeat(n * d)))
        rows.append(out)
    coefficients = []
    for n in range(order, 0, -1):
        coefficients.append(Poly.from_numerators(rows.pop(), d**n * factorial(n)))
    return Series([1] + coefficients[::-1])


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
