"""The defining polynomial recursion and the coefficient-triangle recursion.

Two deliberately separate routes live here.  `value_sequence` runs the
defining recursion

    P_0 = 1,   P_n = (x / h(n)) * sum_{k=1}^{n} g(k) P_{n-k}

in one loop, on values at a scalar point or on polynomials at a Poly
point; `polynomial_sequence` is that loop at x = X.  `CoefficientTable`
fills the triangle A[n][m] of normalized coefficients
(P_n = (1/H(n)) sum_m A[n][m] x^m) by its own recursion

    A[n][m] = sum_{k=1}^{n-m+1} g(k) * h(n-1)...h(n-k+1) * A[n-k][m-1]

so that each route can serve as an oracle for the other.  Both take g
and h as plain ints when the tabulated values are all integers.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb
from operator import mul
from typing import Sequence

from .arith import ArithmeticFunction
from .exact import Poly, X, format_rational, quotient, rational

_F0 = Fraction(0)
_F1 = Fraction(1)


def polynomial_sequence(g: ArithmeticFunction, h: ArithmeticFunction, max_n: int) -> list[Poly]:
    """P_0, ..., P_max_n: the defining recursion run at the point X."""
    return value_sequence(g, h, X, max_n)


def value_sequence(g: ArithmeticFunction, h: ArithmeticFunction, point, max_n: int) -> list:
    """P_0(point), ..., P_max_n(point) by the defining recursion, run in the
    ring of `point`.

    Evaluation commutes with the recursion: at an int or Fraction point
    the results are Fractions, at a Poly point (X, -X, X + 1, ...) they
    are the polynomials P_n(point).  When g, h and a scalar point are
    integral the values stay ints while each division by h(n) is exact;
    an inexact one yields a Fraction, which every later sum then carries.
    """
    one, gv, hv = _kernel_inputs(g, h, max_n)
    if isinstance(point, Poly):
        x0, one = point, Poly((one,))
    else:
        x0 = rational(point)
        if x0.denominator == 1:
            x0 = x0.numerator
    values = [one]
    for n in range(1, max_n + 1):
        acc = sum(map(mul, gv[1:n + 1], values[n - 1::-1]))
        values.append(quotient(x0 * acc, hv[n]))
    return values if isinstance(x0, Poly) else [rational(v) for v in values]


def _kernel_inputs(g: ArithmeticFunction, h: ArithmeticFunction, max_n: int) -> tuple:
    """(one, gv, hv): the unit and g, h at 0..max_n, as plain ints when all
    of those values are integers, exact Fractions otherwise.  A zero among
    h(1..max_n) is refused; values of h past max_n are never read."""
    if max_n < 0:
        raise ValueError("max_n must be nonnegative")
    hv = [_F0] + [h(k) for k in range(1, max_n + 1)]
    if 0 in hv[1:]:
        raise ValueError(f"h = {h.name!r} vanishes at n = {hv.index(0, 1)}")
    gv = [_F0] + [g(k) for k in range(1, max_n + 1)]
    if all(v.denominator == 1 for v in gv + hv):
        return 1, [v.numerator for v in gv], [v.numerator for v in hv]
    return _F1, gv, hv


def _band(one, gv: list, hv: list, depth: int) -> list[tuple]:
    """Rows B[n] = (A[n][n], A[n][n-1], ..., A[n][n-min(depth, n)]).

    Indexed by offset from the diagonal, B[n][j] = A[n][n-j], the term
    A[n-k][m-1] of A[n][n-j] is B[n-k][j+1-k], which lies inside the band
    whenever m >= 1; A[n][0] = 0 for n >= 1.  The weights
    c[k-1] = g(k) h(n-1) ... h(n-k+1) are built once per row.
    """
    band: list[tuple] = [(one,)]
    for n in range(1, len(gv)):
        c = [gv[1]]
        weight = one
        for k in range(2, min(depth + 1, n) + 1):
            weight = weight * hv[n - k + 1]
            c.append(gv[k] * weight)
        row = [
            sum(c[i] * band[n - 1 - i][j - i] for i in range(j + 1))
            for j in range(min(depth, n - 1) + 1)
        ]
        if depth >= n:
            row.append(gv[0])
        band.append(tuple(row))
    return band


class CoefficientTable:
    """Triangle A[n][m] for 0 <= m <= n <= max_n plus the normalizers H(n).

    Entries are plain ints when g(1..max_n) and h(1..max_n) are all
    integers (the triangle recursion then never leaves the integers),
    exact Fractions otherwise.  The rows are the full-depth band, reversed.
    """

    __slots__ = ("g", "h", "max_n", "_rows", "_normalizers")

    def __init__(self, g: ArithmeticFunction, h: ArithmeticFunction, max_n: int):
        one, gv, hv = _kernel_inputs(g, h, max_n)
        self.g = g
        self.h = h
        self.max_n = max_n
        rows = _band(one, gv, hv, max_n)
        for n, row in enumerate(rows):
            rows[n] = row[::-1]
        normalizers = [one]
        for n in range(1, max_n + 1):
            normalizers.append(normalizers[-1] * hv[n])
        self._rows = rows
        self._normalizers = normalizers

    def entry(self, n: int, m: int):
        """A[n][m], an int or Fraction."""
        if not 0 <= n <= self.max_n or not 0 <= m <= n:
            raise IndexError(f"table index (n={n}, m={m}) outside 0 <= m <= n <= {self.max_n}")
        return self._rows[n][m]

    def row(self, n: int) -> tuple:
        if not 0 <= n <= self.max_n:
            raise IndexError(f"row {n} outside 0 <= n <= {self.max_n}")
        return tuple(self._rows[n])

    def normalizer(self, n: int):
        """H(n) = h(1) ... h(n)."""
        if not 0 <= n <= self.max_n:
            raise IndexError(f"normalizer index {n} outside 0 <= n <= {self.max_n}")
        return self._normalizers[n]

    def to_dict(self) -> dict:
        """JSON-ready dict; every rational rendered as a "p/q" string."""
        return {
            "kind": "coefficient-table",
            "g": self.g.name,
            "h": self.h.name,
            "max_n": self.max_n,
            "normalizers": [format_rational(v) for v in self._normalizers],
            "rows": [[format_rational(a) for a in row] for row in self._rows],
        }


def coefficient_table(g: ArithmeticFunction, h: ArithmeticFunction, max_n: int) -> CoefficientTable:
    return CoefficientTable(g, h, max_n)


def coefficient_top_band(
    g: ArithmeticFunction, h: ArithmeticFunction, max_n: int, depth: int = 2
) -> list[tuple]:
    """Rows of (A[n][n], A[n][n-1], ..., A[n][n-depth]) by the triangle recursion.

    The band is closed under the recursion (A[n][n-j] only needs entries
    with smaller offsets from the diagonal), so top-coefficient scans to
    large n skip the O(n^2) bulk of the triangle.
    """
    if depth < 0:
        raise ValueError("band depth must be nonnegative")
    return _band(*_kernel_inputs(g, h, max_n), depth)


def shifted_coefficient_numerators(row: Sequence) -> list:
    """Given row n of a table, the numerators of the coefficients of
    P_n(x+1): entry j is H(n) * [x^j] P_n(x+1) = sum_m A[n][m] C(m, j)."""
    size = len(row)
    return [
        sum(row[m] * comb(m, j) for m in range(j, size)) for j in range(size)
    ]
