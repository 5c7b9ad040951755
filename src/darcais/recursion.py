"""The defining polynomial recursion and the coefficient-triangle recursion.

Two deliberately separate routes live here.  `value_sequence` runs the
defining recursion

    P_0 = 1,   P_n = (x / h(n)) * sum_{k=1}^{n} g(k) P_{n-k}

in one loop, on values at a scalar point or on polynomials at a Poly
point; `polynomial_sequence` is that loop at x = X.  `CoefficientTable`
fills the triangle A[n][m] of normalized coefficients
(P_n = (1/H(n)) sum_m A[n][m] x^m) by its own recursion

    A[n][m] = sum_{k=1}^{n-m+1} g(k) * h(n-1)...h(n-k+1) * A[n-k][m-1]

so that each route can serve as an oracle for the other.  Both run in ints,
for rational g and h too: with G, D the lcms of the denominators of g(1..n),
h(1..n), each path to A[n][m] takes m factors of g and n - m of h, so A[n][m]
is the int entry for (G g, D h) over G^m D^(n-m), and P_n(x) for (g, h) is
P_n(x D / G) for (G g, D h).  Fractions are formed only on read.  At a
Poly point u / d the recursion runs on int rows E_n = T P_n over one fixed
denominator T = |d^N h(1) ... h(N)|, stored as columns, with one exact
division per coefficient and step and one reduction per row at the end.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import accumulate, repeat
from math import comb, prod
from operator import add, mul
from typing import Sequence

from .arith import ArithmeticFunction
from .exact import Poly, X, format_rational, quotient, rational, scaled_ints


def polynomial_sequence(g: ArithmeticFunction, h: ArithmeticFunction, max_n: int) -> list[Poly]:
    """P_0, ..., P_max_n: the defining recursion run at the point X."""
    return value_sequence(g, h, X, max_n)


def value_sequence(g: ArithmeticFunction, h: ArithmeticFunction, point, max_n: int) -> list:
    """P_0(point), ..., P_max_n(point) by the defining recursion, run on the
    int tables (G g, D h) at point * D / G: Fractions at an int or Fraction
    point, the polynomials P_n(point) at a Poly point (X, -X, X + 1, ...).
    At an integral scaled point the values stay ints while each division by
    D h(n) is exact; an inexact one yields a Fraction, which every later sum
    carries.  A Poly point runs on one fixed denominator (`_poly_values`)."""
    gv, hv, (G, D) = _kernel_inputs(g, h, max_n)
    if isinstance(point, Poly):
        return _poly_values(gv, hv, point * Fraction(D, G))
    x0 = rational(point) * Fraction(D, G)
    x0 = x0.numerator if x0.denominator == 1 else x0
    values = [1]
    for n in range(1, max_n + 1):
        values.append(quotient(x0 * sum(map(mul, gv[1:n + 1], values[n - 1::-1])), hv[n]))
    return [rational(v) for v in values]


def _poly_values(gv: list[int], hv: list[int], point: Poly) -> list[Poly]:
    """P_0(point), ..., P_N(point) for the int tables gv, hv (N = len(gv) - 1).

    With point = u / d (u an int polynomial, d > 0), every E_n = T P_n is an
    int polynomial for T = |d^N h(1) ... h(N)|, and
    E_n = u * sum_k g(k) E_{n-k} / (d h(n)), each division exact.  Only the
    columns are kept: cols[j] holds [x^j] E_m for m from the first row that
    reaches degree j, so each sum is one int dot product.  Each row is
    popped off the columns at the end and reduced once.
    """
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


def _kernel_inputs(g: ArithmeticFunction, h: ArithmeticFunction, max_n: int) -> tuple:
    """(gv, hv, (G, D)): G g and D h at 0..max_n as ints, G and D the lcms of
    the denominators of g(1..max_n) and h(1..max_n) (1 for integer values).
    A zero among h(1..max_n) is refused; h past max_n is never read."""
    if max_n < 0:
        raise ValueError("max_n must be nonnegative")
    hv = [h(k) for k in range(1, max_n + 1)]
    if 0 in hv:
        raise ValueError(f"h = {h.name!r} vanishes at n = {hv.index(0) + 1}")
    (gv, G), (hv, D) = scaled_ints(g(k) for k in range(1, max_n + 1)), scaled_ints(hv)
    return gv, hv, (G, D)


def _band(gv: list[int], hv: list[int], depth: int) -> list[tuple[int, ...]]:
    """Rows B[n] = (A[n][n], A[n][n-1], ..., A[n][n-min(depth, n)]), in ints.

    Indexed by offset from the diagonal, B[n][j] = A[n][n-j], the term
    A[n-k][m-1] of A[n][n-j] is B[n-k][j+1-k], which lies inside the band
    whenever m >= 1; A[n][0] = 0 for n >= 1.  The weights
    c[k-1] = g(k) h(n-1) ... h(n-k+1) are built once per row.
    """
    band: list[tuple] = [(1,)]
    for n in range(1, len(gv)):
        c, weight = [gv[1]], 1
        for k in range(2, min(depth + 1, n) + 1):
            weight = weight * hv[n - k + 1]
            c.append(gv[k] * weight)
        row = [
            sum(c[i] * band[n - 1 - i][j - i] for i in range(j + 1))
            for j in range(min(depth, n - 1) + 1)
        ]
        if depth >= n:
            row.append(0)
        band.append(tuple(row))
    return band


class CoefficientTable:
    """Triangle A[n][m] for 0 <= m <= n <= max_n plus the normalizers H(n).

    The rows are the full-depth band of the int tables (G g, D h), reversed.
    When g(1..max_n) and h(1..max_n) are integers (G = D = 1) they are the
    entries, read as plain ints; otherwise a read divides by G^m D^(n-m).
    """

    __slots__ = ("g", "h", "max_n", "_rows", "_normalizers", "_gp", "_dp")

    def __init__(self, g: ArithmeticFunction, h: ArithmeticFunction, max_n: int):
        gv, hv, (G, D) = _kernel_inputs(g, h, max_n)
        self.g, self.h, self.max_n = g, h, max_n
        self._rows = [row[::-1] for row in _band(gv, hv, max_n)]
        normalizers = list(accumulate(hv[1:], mul, initial=1))
        self._gp = self._dp = None  # G^i, D^i for i <= max_n: the denominators' factors
        if G * D > 1:
            self._gp, self._dp = ([s**i for i in range(max_n + 1)] for s in (G, D))
            normalizers = list(map(Fraction, normalizers, self._dp))
        self._normalizers = normalizers

    def entry(self, n: int, m: int):
        """A[n][m], an int or Fraction."""
        if not 0 <= n <= self.max_n or not 0 <= m <= n:
            raise IndexError(f"table index (n={n}, m={m}) outside 0 <= m <= n <= {self.max_n}")
        a = self._rows[n][m]
        return a if self._gp is None else Fraction(a, self._gp[m] * self._dp[n - m])

    def row(self, n: int) -> tuple:
        if not 0 <= n <= self.max_n:
            raise IndexError(f"row {n} outside 0 <= n <= {self.max_n}")
        if self._gp is None:
            return tuple(self._rows[n])
        return tuple(map(Fraction, self._rows[n], map(mul, self._gp, self._dp[n::-1])))

    def normalizer(self, n: int):
        """H(n) = h(1) ... h(n)."""
        if not 0 <= n <= self.max_n:
            raise IndexError(f"normalizer index {n} outside 0 <= n <= {self.max_n}")
        return self._normalizers[n]

    def to_dict(self) -> dict:
        """JSON-ready dict; every rational rendered as a "p/q" string."""
        return {
            "kind": "coefficient-table", "g": self.g.name, "h": self.h.name, "max_n": self.max_n,
            "normalizers": [format_rational(v) for v in self._normalizers],
            "rows": [[format_rational(a) for a in self.row(n)] for n in range(self.max_n + 1)],
        }


def coefficient_table(g: ArithmeticFunction, h: ArithmeticFunction, max_n: int) -> CoefficientTable:
    return CoefficientTable(g, h, max_n)


def coefficient_top_band(
    g: ArithmeticFunction, h: ArithmeticFunction, max_n: int, depth: int = 2
) -> list[tuple]:
    """Rows of (A[n][n], A[n][n-1], ..., A[n][n-depth]) by the triangle recursion.

    The band is closed under the recursion (A[n][n-j] only needs entries
    with smaller offsets from the diagonal), so top-coefficient scans to
    large n skip the O(n^2) bulk of the triangle.  Read as in the table.
    """
    if depth < 0:
        raise ValueError("band depth must be nonnegative")
    gv, hv, (G, D) = _kernel_inputs(g, h, max_n)
    band = _band(gv, hv, depth)
    if G * D == 1:
        return band
    return [tuple(Fraction(b, G ** (n - j) * D**j) for j, b in enumerate(row))
            for n, row in enumerate(band)]


def shifted_coefficient_numerators(row: Sequence) -> list:
    """Given row n of a table, the numerators of the coefficients of
    P_n(x+1): entry j is H(n) * [x^j] P_n(x+1) = sum_m A[n][m] C(m, j).

    No scan calls it: the hook scan runs the recursion at X + 1, and the
    tests keep this triangle + binomial shift route as its oracle."""
    size = len(row)
    return [sum(row[m] * comb(m, j) for m in range(j, size)) for j in range(size)]
