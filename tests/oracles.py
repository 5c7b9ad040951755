"""Reference implementations that the tests compare the package against.

Each one is the literal definition, written without memoization and
without calling the routine it checks.  The last section holds the
test-side entries to the package that no package code needs.
"""

from collections import Counter
from fractions import Fraction
from itertools import repeat
from math import comb, factorial, perm, prod
from operator import add, mul

from darcais.exact import Poly, Series, X
from darcais.partitions import hook_multiset, partitions_of
from darcais.series import euler_product_columns
from darcais.shapes import is_log_concave, is_ultra_log_concave, is_unimodal
from darcais.weights import _reciprocal_sum


def orbit_of(mu):
    """All distinct reorderings of the parts, in lexicographic order.

    Uses the classical next-permutation sweep starting from the sorted
    arrangement, so repeated parts are never emitted twice.
    """
    arr = sorted(mu)
    while True:
        yield tuple(arr)
        i = len(arr) - 2
        while i >= 0 and arr[i] >= arr[i + 1]:
            i -= 1
        if i < 0:
            return
        j = len(arr) - 1
        while arr[j] <= arr[i]:
            j -= 1
        arr[i], arr[j] = arr[j], arr[i]
        arr[i + 1:] = reversed(arr[i + 1:])


def g_weight(g, mu):
    """Product of g over the parts shifted by one; 1 for the empty composition."""
    out = Fraction(1)
    for part in mu:
        out *= g(part + 1)
    return out


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


def chebyshev_example(n):
    """x U_{n-1}(1 + x/2), constant term first, for n >= 1: P_n for (id, one).

    U_k(t) = sum_j (-1)^j C(k-j, j) (2t)^(k-2j), and (2 + x)^e is expanded
    binomially, so the coefficient of x^(i+1) is
    sum_j (-1)^j C(k-j, j) C(k-2j, i) 2^(k-2j-i) with k = n - 1.
    """
    k = n - 1
    return [Fraction(0)] + [
        Fraction(sum((-1) ** j * comb(k - j, j) * comb(k - 2 * j, i) * 2 ** (k - 2 * j - i)
                     for j in range((k - i) // 2 + 1)))
        for i in range(k + 1)
    ]


def laguerre_example(n):
    """(x/n) L^(1)_{n-1}(-x), constant term first, for n >= 1: P_n for (id, id).

    L^(1)_k(y) = sum_i (-1)^i C(k+1, k-i) y^i / i!, so at y = -x the
    coefficient of x^(i+1) is C(n, n-1-i) / (n i!).
    """
    return [Fraction(0)] + [Fraction(comb(n, n - 1 - i), n * factorial(i)) for i in range(n)]


def conjugate_by_counting(lam):
    """The conjugate partition, column j counted as the rows longer than j."""
    if not lam:
        return ()
    return tuple(sum(1 for row in lam if row > j) for j in range(lam[0]))


def partitions_recursive(n):
    """Partitions of n in reverse-lexicographic order by recursive descent:
    each part in turn from the largest allowed down to 1, then the
    partitions of the remainder into parts no larger."""
    def descend(remaining, cap, prefix):
        if remaining == 0:
            yield tuple(prefix)
            return
        for part in range(min(remaining, cap), 0, -1):
            prefix.append(part)
            yield from descend(remaining - part, part, prefix)
            prefix.pop()

    yield from descend(n, n, [])


def triangle_literal(g, h, max_n):
    """A[n][m] = sum_k g(k) h(n-1)...h(n-k+1) A[n-k][m-1], term by term in
    Fractions; g and h are lists of values indexed from 1 (entry 0 unused)."""
    rows = [[Fraction(1)]]
    for n in range(1, max_n + 1):
        row = [Fraction(0)] * (n + 1)
        for m in range(1, n + 1):
            for k in range(1, n - m + 2):
                weight = Fraction(g[k])
                for i in range(1, k):
                    weight *= h[n - i]
                row[m] += weight * rows[n - k][m - 1]
        rows.append(row)
    return rows


def polynomials_literal(g, h, max_n):
    """P_0..P_max_n as Fraction lists by P_n = (x / h(n)) sum_k g(k) P_{n-k};
    g and h are lists of values indexed from 1 (entry 0 unused)."""
    polys = [[Fraction(1)]]
    for n in range(1, max_n + 1):
        total = []
        for k in range(1, n + 1):
            total = poly_add(total, poly_mul([Fraction(g[k])], polys[n - k]))
        polys.append(poly_mul([Fraction(0), 1 / Fraction(h[n])], total))
    return polys


def values_literal(g, h, point, max_n):
    """P_0(point), ..., P_max_n(point) as Fractions by
    P_n = (point / h(n)) sum_k g(k) P_{n-k}, one Fraction operation at a
    time; g and h are lists of values indexed from 1 (entry 0 unused)."""
    values = [Fraction(1)]
    for n in range(1, max_n + 1):
        total = Fraction(0)
        for k in range(1, n + 1):
            total += Fraction(g[k]) * values[n - k]
        values.append(Fraction(point) * total / h[n])
    return values


def poly_values_by_columns(gv, hv, point):
    """P_0(point), ..., P_N(point) for the int tables gv, hv (N = len(gv) - 1,
    entry 0 unused), as the defining recursion ran before its rows were
    packed: with point = u / d, the int rows E_n = T P_n over
    T = |d^N h(1) ... h(N)| are kept as columns, cols[j] holding [x^j] E_m
    for m from the first row that reaches degree j, so each sum is one
    int dot product per column and each division is one per coefficient."""
    u, d = point.numerators, point.denominator
    T = abs(d ** (len(gv) - 1) * prod(hv[1:]))
    g1, cols = gv[1:], [[T]]
    for n in range(1, len(gv)):
        s = [sum(map(mul, g1, reversed(col))) for col in cols]
        row = [0] * (len(s) + max(len(u) - 1, 0))
        for i, c in enumerate(u):
            if c:
                row[i:i + len(s)] = map(add, row[i:i + len(s)], map(mul, s, repeat(c)))
        q = d * hv[n]
        cols += [[] for _ in range(len(row) - len(cols))]
        for col, c in zip(cols, row):
            col.append(c // q)
    values = []
    while cols:
        values.append(Poly.from_numerators([col.pop() for col in cols], T))
        while cols and not cols[-1]:
            cols.pop()
    return values[::-1]


def hook_length_polynomial_by_terms(n):
    """Q_n as a sum of one `Poly` per partition of n, each
    prod (x + t^2) / prod t^2 over the hook lengths t, reduced at every
    addition."""
    total = Poly()
    for lam in partitions_of(n):
        numerator = [1]
        denominator = 1
        for t in hook_multiset(lam):
            t2 = t * t
            denominator *= t2
            new = [0] * (len(numerator) + 1)
            for i, c in enumerate(numerator):
                new[i] += t2 * c
                new[i + 1] += c
            numerator = new
        total = total + Poly.from_numerators(numerator, denominator)
    return total


def _signed_binomial_terms(exponent, kmax):
    """Coefficients (-1)^k C(exponent, k) for k = 1..kmax, up to the first zero.

    Works for integer exponents (negative included), where every term is
    integral because C(r, k) = C(r, k-1) (r - k + 1) / k divides exactly,
    and for Fraction and Poly exponents.
    """
    current = 1
    terms = []
    for k in range(1, kmax + 1):
        current = -current * (exponent - (k - 1)) * Fraction(1, k)
        if current == 0:
            break  # nonnegative integer exponent: the factor is a polynomial
        terms.append(current)
    return terms


def euler_product_by_factors(exponent, order):
    """prod_{n>=1} (1 - q^n)^r truncated at q^order, multiplied out one
    factor at a time, each factor expanded by generalized binomial
    coefficients."""
    acc = [1] + [0] * order
    for n in range(1, order + 1):
        out = list(acc)  # k = 0 contribution
        for k, c in enumerate(_signed_binomial_terms(exponent, order // n), 1):
            shift = n * k
            out[shift:] = [o + c * a if a else o for o, a in zip(out[shift:], acc)]
        acc = out
    return Series(acc)


def euler_power_by_binomials(r, order):
    """prod_{n>=1} (1 - q^n)^r for an int r >= 0, truncated at q^order, in
    ints: each factor (1 - q^n)^r = sum_k (-1)^k C(r, k) q^(nk) multiplied
    in one term at a time."""
    acc = [1] + [0] * order
    for n in range(1, order + 1):
        out = list(acc)
        for k in range(1, min(r, order // n) + 1):
            c = (-1) ** k * comb(r, k)
            out[n * k:] = map(add, out[n * k:], map(mul, acc, repeat(c)))
        acc = out
    return acc


def pentagonal_pairs(order):
    """(i, e_i) for the nonzero q^i coefficients e_i of prod (1 - q^k),
    1 <= i <= order, in increasing i: (-1)^j at i = j (3j -+ 1) / 2."""
    pairs = {}
    for j in range(1, order + 1):
        for i in (j * (3 * j - 1) // 2, j * (3 * j + 1) // 2):
            if i <= order:
                pairs[i] = (-1) ** j
    return sorted(pairs.items())


def miller_rows(exponent, order):
    """The int rows F_n = d^n n! G_n, n = 0..order, of
    G = prod_{n>=1} (1 - q^n)^r for a nonzero Poly r = u / d, as lists of
    their x^0..x^(n deg u) coefficients, by Miller's recurrence run row by
    row: F_0 = 1 and

        F_n = sum_i e_i ((u + d) i - n d) a_i F_{n-i},
        a_i = d^(i-1) (n-1) (n-2) ... (n-i+1),

    each sum taken by Horner's rule from the largest pentagonal i <= n
    down, every row kept to the end."""
    v, d = list(exponent.numerators), exponent.denominator
    v[0] += d  # u + d
    pentagonal = pentagonal_pairs(order)
    rows = [[1]]
    for n in range(1, order + 1):
        steps = [(i, e) for i, e in pentagonal if i <= n]
        s0, s1 = [0] * len(rows[-1]), [0] * len(rows[-1])
        top = steps[-1][0]
        for i, e in reversed(steps):
            ratio = d ** (top - i) * perm(n - i, top - i)  # a_top / a_i
            top = i
            for j, c in enumerate(rows[n - i]):
                s0[j] = s0[j] * ratio + e * c
                s1[j] = s1[j] * ratio + i * e * c
        out = [0] * (len(s1) + len(v) - 1)
        for j, c in enumerate(v):
            out[j:j + len(s1)] = map(add, out[j:j + len(s1)], map(mul, s1, repeat(c)))
        out[:len(s0)] = [a - n * d * b for a, b in zip(out, s0)]
        rows.append(out)
    return rows


def euler_power_by_rows(exponent, order):
    """prod_{n>=1} (1 - q^n)^r for a nonzero Poly r = u / d, truncated at
    q^order: the rows of `miller_rows`, each read over its scale d^n n!."""
    rows, d = miller_rows(exponent, order), exponent.denominator
    return Series([1] + [Poly.from_numerators(rows[n], d**n * factorial(n))
                         for n in range(1, order + 1)])


# A polynomial as a plain list of Fractions, constant term first, with no
# trailing zero: the representation `exact.Poly` had before it kept
# integer numerators over one denominator.

def poly_trim(coefficients):
    out = [Fraction(c) for c in coefficients]
    while out and out[-1] == 0:
        out.pop()
    return out


def poly_add(a, b):
    size = max(len(a), len(b))
    a = list(a) + [Fraction(0)] * (size - len(a))
    b = list(b) + [Fraction(0)] * (size - len(b))
    return poly_trim(x + y for x, y in zip(a, b))


def poly_mul(a, b):
    out = [Fraction(0)] * max(len(a) + len(b) - 1, 0)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return poly_trim(out)


def poly_eval(a, point):
    """Horner's rule at a rational point, or at a polynomial point (a list)."""
    if isinstance(point, list):
        acc = []
        for c in reversed(a):
            acc = poly_add(poly_mul(acc, point), [c])
        return acc
    acc = Fraction(0)
    for c in reversed(a):
        acc = acc * point + c
    return acc


def ramanujan_691_failures(tau):
    """The n with tau(n) != sigma_11(n) (mod 691), Ramanujan's congruence,
    for tau(n) = tau[n - 1], n = 1..len(tau): an empty list where it holds.
    A value that is not an integer fails too.  sigma_11(n) mod 691 is summed
    over the multiples of each d, sharing no code with `darcais.arith`."""
    top = len(tau)
    sigma_11 = [0] * (top + 1)
    for d in range(1, top + 1):
        power = pow(d, 11, 691)
        for m in range(d, top + 1, d):
            sigma_11[m] += power
    return [n for n, t in enumerate(tau, 1) if t.denominator != 1 or (t - sigma_11[n]) % 691]


# Test-side entries to the package.

def orbit_reciprocal_sum(mu):
    """R(mu) from the memoized int R'(mu) = s! R(mu) of `darcais.weights`,
    s = |mu| + len(mu), for the parts in any order."""
    return Fraction(_reciprocal_sum(tuple(sorted(mu, reverse=True))), factorial(sum(mu) + len(mu)))


def hook_rows(max_n):
    """The rows N! Q_n(x), n = 0..max_n, N = max_n, over the one scale that
    the hook scan reads column by column: `euler_product_columns(-X - 1,
    max_n)` transposed."""
    rows = [[] for _ in range(max_n + 1)]
    for j, column in enumerate(euler_product_columns(-X - 1, max_n)):
        for row, c in zip(rows[j:], column):
            row.append(c)
    return rows


def columns_of(rows):
    """The columns of a triangle whose row n has n + 1 entries: column j
    lists the x^j entries of rows j, j + 1, ..., as the hook scan reads them."""
    return [[row[j] for row in rows[j:]] for j in range(len(rows))]


def implication_chain_holds(seq):
    """ultra-log-concave => log-concave => unimodal on this sequence."""
    ultra = is_ultra_log_concave(seq)
    log = is_log_concave(seq)
    uni = is_unimodal(seq)
    if ultra is None and log is not None:
        return False
    if log is None and uni is not None:
        return False
    return True
