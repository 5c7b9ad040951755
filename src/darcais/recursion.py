"""The defining polynomial recursion and the coefficient-triangle recursion.

Two deliberately separate code paths live here.  `polynomial_sequence`
builds P_n from

    P_0 = 1,   P_n = (x / h(n)) * sum_{k=1}^{n} g(k) P_{n-k}

while `CoefficientTable` fills the triangle A[n][m] of normalized
coefficients (P_n = (1/H(n)) sum_m A[n][m] x^m) by its own recursion

    A[n][m] = sum_{k=1}^{n-m+1} g(k) * h(n-1)...h(n-k+1) * A[n-k][m-1]

so that each route can serve as an oracle for the other.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb
from typing import Sequence

from .arith import ArithmeticFunction
from .exact import Poly, format_rational, rational

_F0 = Fraction(0)
_F1 = Fraction(1)


def _require_nonvanishing(h: ArithmeticFunction) -> None:
    if not h.non_vanishing:
        raise ValueError(f"h = {h.name!r} is not flagged non-vanishing")


def polynomial_sequence(g: ArithmeticFunction, h: ArithmeticFunction, max_n: int) -> list[Poly]:
    """P_0, ..., P_max_n by the defining recursion."""
    _require_nonvanishing(h)
    if max_n < 0:
        raise ValueError("max_n must be nonnegative")
    polys = [Poly((_F1,))]
    gv = [_F0] + [g(k) for k in range(1, max_n + 1)]
    for n in range(1, max_n + 1):
        acc = Poly()
        for k in range(1, n + 1):
            if gv[k]:
                acc = acc + polys[n - k] * gv[k]
        polys.append((acc / h(n)).times_x())
    return polys


def polynomial(g: ArithmeticFunction, h: ArithmeticFunction, n: int) -> Poly:
    """P_n by the defining recursion; degree n, zero constant term for n >= 1."""
    return polynomial_sequence(g, h, n)[n]


def value_sequence(
    g: ArithmeticFunction, h: ArithmeticFunction, point, max_n: int
) -> list[Fraction]:
    """P_0(point), ..., P_max_n(point): the recursion run on values.

    Evaluation commutes with the recursion, so scans that only need
    P_n at a fixed point avoid building polynomials entirely.
    """
    _require_nonvanishing(h)
    x0 = rational(point)
    values = [_F1]
    gv = [_F0] + [g(k) for k in range(1, max_n + 1)]
    for n in range(1, max_n + 1):
        acc = _F0
        for k in range(1, n + 1):
            if gv[k]:
                acc += gv[k] * values[n - k]
        values.append(x0 * acc / h(n))
    return values


def _kernel_inputs(g: ArithmeticFunction, h: ArithmeticFunction, max_n: int) -> tuple:
    """(one, gv, hv): the unit and g, h at 0..max_n, as plain ints when both
    functions are integer-valued, exact Fractions otherwise."""
    _require_nonvanishing(h)
    if max_n < 0:
        raise ValueError("max_n must be nonnegative")
    if g.integer_valued and h.integer_valued:
        return (1, [0] + [g(k).numerator for k in range(1, max_n + 1)],
                [0] + [h(k).numerator for k in range(1, max_n + 1)])
    return (_F1, [_F0] + [g(k) for k in range(1, max_n + 1)],
            [_F0] + [h(k) for k in range(1, max_n + 1)])


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

    Entries are plain ints when both g and h are integer-valued (the
    triangle recursion then never leaves the integers), exact Fractions
    otherwise.  The rows are the full-depth band, reversed.
    """

    __slots__ = ("g", "h", "max_n", "integer_entries", "_rows", "_normalizers")

    def __init__(self, g: ArithmeticFunction, h: ArithmeticFunction, max_n: int):
        one, gv, hv = _kernel_inputs(g, h, max_n)
        self.g = g
        self.h = h
        self.max_n = max_n
        self.integer_entries = g.integer_valued and h.integer_valued
        rows = _band(one, gv, hv, max_n)
        for n, row in enumerate(rows):
            rows[n] = row[::-1]
        normalizers = [one]
        for n in range(1, max_n + 1):
            normalizers.append(normalizers[-1] * hv[n])
        self._rows = rows
        self._normalizers = normalizers

    def _check_index(self, n: int, m: int) -> None:
        if not 0 <= n <= self.max_n or not 0 <= m <= n:
            raise IndexError(f"table index (n={n}, m={m}) outside 0 <= m <= n <= {self.max_n}")

    def entry(self, n: int, m: int):
        """A[n][m], an int or Fraction."""
        self._check_index(n, m)
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

    def scaled(self, n: int, m: int) -> Fraction:
        """The literal coefficient of x^m in P_n, i.e. A[n][m] / H(n)."""
        self._check_index(n, m)
        a = self._rows[n][m]
        hn = self._normalizers[n]
        if self.integer_entries:
            return Fraction(a, hn)
        return a / hn

    def poly(self, n: int) -> Poly:
        """P_n reconstructed from row n."""
        if not 0 <= n <= self.max_n:
            raise IndexError(f"row {n} outside 0 <= n <= {self.max_n}")
        hn = self._normalizers[n]
        if self.integer_entries:
            return Poly(tuple(Fraction(a, hn) for a in self._rows[n]))
        return Poly(tuple(a / hn for a in self._rows[n]))

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


def table_rows_from_dict(doc: dict) -> tuple[list[list[Fraction]], list[Fraction]]:
    """Parse an exported table back into exact rows and normalizers."""
    if doc.get("kind") != "coefficient-table":
        raise ValueError("not a coefficient-table document")
    rows = [[rational(cell) for cell in row] for row in doc["rows"]]
    for n, row in enumerate(rows):
        if len(row) != n + 1:
            raise ValueError(f"row {n} has {len(row)} entries, expected {n + 1}")
    normalizers = [rational(v) for v in doc["normalizers"]]
    if len(normalizers) != len(rows):
        raise ValueError("normalizer count does not match row count")
    return rows, normalizers


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
