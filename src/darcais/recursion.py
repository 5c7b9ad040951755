"""The defining polynomial recursion and the coefficient-triangle recursion.

Two deliberately separate routes live here.  `value_sequence` runs the
defining recursion

    P_0 = 1,   P_n = (x / h(n)) * sum_{k=1}^{n} g(k) P_{n-k}

in two int kernels, on values at a scalar point or on polynomials at a
Poly point; `polynomial_sequence` is it at x = X, and `polynomial` reads
its last row only.  At an integral scaled point `_int_prefix` finds the
prefix of int values as an online convolution by divide and conquer, each
block's terms one product of Kronecker-packed ints.  Where it stops short
the row loop `_rows` goes on from it, and at any other point it runs from
the start.  `g` and `h` are read once, by `ArithmeticFunction.values`.
`CoefficientTable`
fills the triangle A[n][m] of normalized coefficients
(P_n = (1/H(n)) sum_m A[n][m] x^m) by its own recursion

    A[n][m] = sum_{k=1}^{n-m+1} g(k) * h(n-1)...h(n-k+1) * A[n-k][m-1]

so that each route can serve as an oracle for the other.  Both run in ints,
for rational g and h too, and form Fractions only on read.  With G, D the
lcms of the denominators of g(1..n), h(1..n), P_n(x) for (g, h) is
P_n(x D / G) for (G g, D h), and `value_sequence` runs on those tables.  At
a point u / d the row loop runs on int rows E_n = T P_n over one fixed
denominator T = |d^N h(1) ... h(N)|, a step one int dot product and one
exact division; at a Poly point each row is packed, as one int E_n(2^(8w))
with a w-byte slot per coefficient, and unpacked once, when it is read.
The triangle telescopes the denominators of h instead: with
h(k) = p_k / q_k in lowest terms and Q(j) = q_1 ... q_j, the entries
A*[n][m] = G^m Q(n-1) A[n][m] follow the same recursion with the int
weights (G g)(k) p_{n-1} ... p_{n-k+1} q_{n-k} (q_0 = 1), so they are
ints.  They are stored as columns col[m][n - m], so each entry is one int
dot product, and read by one division by G^m Q(n-1).
"""

from __future__ import annotations

from fractions import Fraction
from itertools import accumulate, repeat
from math import comb, gcd, prod
from operator import add, floordiv, getitem, mul
from typing import Sequence

from .arith import ArithmeticFunction
from .exact import (
    Poly,
    X,
    format_rational,
    product_window,
    rational,
    scaled_ints,
    slot_width,
    unpack_signed,
)


def polynomial_sequence(g: ArithmeticFunction, h: ArithmeticFunction, max_n: int) -> list[Poly]:
    """P_0, ..., P_max_n: the defining recursion run at the point X."""
    return value_sequence(g, h, X, max_n)


def polynomial(g: ArithmeticFunction, h: ArithmeticFunction, n: int) -> Poly:
    """P_n alone: the loop of `polynomial_sequence`, which unpacks and
    reduces only its last row."""
    rows, read = _poly_rows(g, h, X, n)
    return read(rows[n], n)


def value_sequence(g: ArithmeticFunction, h: ArithmeticFunction, point, max_n: int) -> list:
    """P_0(point), ..., P_max_n(point) by the defining recursion, run on the
    int tables (G g, D h) at point * D / G: Fractions at an int or Fraction
    point, the polynomials P_n(point) at a Poly point (X, -X, X + 1, ...).
    At an integral scaled point `_int_prefix` runs while each division by
    D h(n) is exact, in O(M(N) log N).  Where it stops short, `_rows` goes
    on from T times that prefix, and at any other scalar point it runs from
    E_0 = T; the values past the prefix are its rows E_n / T.  A Poly
    point runs on packed rows (`_poly_rows`), each popped and reduced once."""
    if isinstance(point, Poly):
        rows, read = _poly_rows(g, h, point, max_n)
        values = []
        while rows:
            values.append(read(rows.pop(), len(rows)))
        return values[::-1]
    gv, hv, (G, D) = _kernel_inputs(g, h, max_n)
    x0 = rational(point) * Fraction(D, G)
    values = _int_prefix(gv, hv, x0.numerator) if x0.denominator == 1 else [1]
    if len(values) <= max_n:
        rows = _rows(gv, hv, [(x0.numerator, 0)], x0.denominator, values)
        values += (Fraction(row, rows[0]) for row in rows[len(values):])
    return list(map(Fraction, values))


_LEAF = 32  # blocks this short are finished by the direct dot products


def _int_prefix(gv: list[int], hv: list[int], x0: int) -> list[int]:
    """v_0 = 1, v_1, ... for v_n = x0 sum_k gv[k] v_{n-k} / hv[n], up to
    n = len(gv) - 1 or to the first division with a remainder, exclusive:
    the longest prefix of the recursion that stays in ints.

    The sums acc[n] = sum_k gv[k] v_{n-k} form an online convolution, and
    `solve(l, r)` finishes v on [l, r) once acc[l:r) holds the terms of
    every v_j with j < l.  It finishes [l, m), adds the terms of v[l:m) to
    acc[m:r) as one product of packed ints, and finishes [m, r); a block of
    at most `_LEAF` entries adds the terms of its own v_j one dot product at
    a time.  Each pair j < n is added once, where j and n first fall into
    different halves, so the whole costs O(M(N) log N).

    The product of v[l:m) and gv[:r-l] is read by `exact.product_window`
    in only the slots [m - l, r - l) that acc[m:r) gains."""
    values, acc = [1], list(gv)  # acc[n] starts with the term gv[n] v_0

    def solve(l: int, r: int) -> bool:
        if r - l <= _LEAF:
            for n in range(l, r):
                own = sum(map(mul, gv[1:n - l + 1], reversed(values[l:])))
                q, rem = divmod(x0 * (acc[n] + own), hv[n])
                if rem:
                    return False
                values.append(q)
            return True
        m = (l + r) // 2
        if not solve(l, m):
            return False
        acc[m:r] = map(add, acc[m:r], product_window(values[l:m], gv[:r - l], m - l, r - l))
        return solve(m, r)

    solve(1, len(gv))
    return values


def _rows(gv: list[int], hv: list[int], terms: list[tuple[int, int]], d: int,
          prefix: Sequence[int] = (1,)) -> list[int]:
    """E_0 = T = |d^N h(1) ... h(N)|, E_1, ..., E_N (N = len(gv) - 1) for
    E_n = u s / (d h(n)), s = sum_k g(k) E_{n-k}: T P_n at u / d, an int,
    so each division is exact.  The int u = sum c 2^shift comes as its terms
    (c, shift): (u, 0) for a scalar, one per nonzero coefficient of a packed
    polynomial (`_poly_rows`).  The loop starts after `prefix`, the values
    P_0 = 1, P_1, ... already known, as the rows T P_n."""
    T, g1 = abs(d ** (len(gv) - 1) * prod(hv[1:])), gv[1:]
    rows = [T * v for v in prefix]
    for n in range(len(rows), len(gv)):
        s = sum(map(mul, g1, reversed(rows)))
        rows.append(sum(c * s << shift for c, shift in terms) // (d * hv[n]))
    return rows


def _poly_rows(g: ArithmeticFunction, h: ArithmeticFunction, point: Poly, max_n: int) -> tuple:
    """(rows, read) at a Poly point: rows[n] is E_n(B) of `_rows`, B = 2^(8w),
    and read(rows[n], n) is P_n(point) as a Poly.

    On the int tables (G g, D h), with point D / G = u / d (u an int
    polynomial, d > 0), E_n = T P_n is an int polynomial, kept as one int,
    E_n evaluated at B (Kronecker substitution).  Evaluation at B is a ring
    map, so a step is one int dot product, one shift-add per nonzero
    coefficient of u and one exact division by d h(n).  Only `unpack_signed`
    reads slots, and it needs every coefficient of E_n below 2^(8w - 1) in
    absolute value.  M_n, `_rows` on |gv|, |hv| at the int point |u|_1 (the
    sum of the absolute values of the coefficients of u), is an int, T P_n of
    (|gv|, |hv|) at |u|_1 / d, and bounds them: M_0 = T = |E_0|_1, and by
    induction, the triangle inequality and |p q|_1 <= |p|_1 |q|_1 give
    |E_n|_1 <= M_n, attained by monomial rows, as for g = (1, 0, 0, ...).
    """
    gv, hv, (G, D) = _kernel_inputs(g, h, max_n)
    point = point * Fraction(D, G)
    u, d = point.numerators, point.denominator
    majorant = _rows(list(map(abs, gv)), list(map(abs, hv)), [(sum(map(abs, u)), 0)], d)
    width = slot_width(max(majorant))
    rows = _rows(gv, hv, [(c, 8 * width * i) for i, c in enumerate(u) if c], d)
    degree, T = max(len(u) - 1, 0), rows[0]
    return rows, lambda row, n: Poly.from_numerators(unpack_signed(row, width, n * degree + 1), T)


def _kernel_inputs(g: ArithmeticFunction, h: ArithmeticFunction, max_n: int) -> tuple:
    """(gv, hv, (G, D)): G g and D h at 0..max_n as ints, G and D the lcms of
    the denominators of g(1..max_n) and h(1..max_n) (1 for integer values),
    read by `ArithmeticFunction.values`, so sigma_ell by its divisor sieve.
    A zero among h(1..max_n) is refused; h past max_n is never read."""
    if max_n < 0:
        raise ValueError("max_n must be nonnegative")
    hv = h.values(max_n)
    if 0 in hv:
        raise ValueError(f"h = {h.name!r} vanishes at n = {hv.index(0) + 1}")
    (gv, G), (hv, D) = scaled_ints(g.values(max_n)), scaled_ints(hv)
    return gv, hv, (G, D)


def _band(gv: list[int], p: list[int], q: list[int], depth: int) -> list[list[int]]:
    """The band n - m <= depth of the scaled triangle, as int columns
    col[m][n - m] = A*[n][m] = G^m Q(n-1) A[n][m].

    With Q(j) = q[1] ... q[j] (Q(-1) = Q(0) = 1), the scaled recursion is
    A*[n][m] = sum_k c[k-1] A*[n-k][m-1] with the int row weights
    c[k-1] = (G g)(k) p[n-1] ... p[n-k+1] q[n-k]: the factors
    h(n-1) ... h(n-k+1) cancel their own denominators out of Q(n-1), which
    leaves Q(n-k) = q[n-k] Q(n-k-1).  The terms of A*[n][m] are then c
    against col[m-1] read backwards from n - m, one int dot product per
    entry.  A*[n][0] = 0 for n >= 1 is stored as zeros, and
    a column holds at most depth + 1 entries, so depth >= len(gv) - 1 gives
    the full triangle and a smaller depth its top band.
    """
    cols = [[1] + [0] * min(depth, len(gv) - 1)]
    for n in range(1, len(gv)):
        c, weight = [], 1
        for k in range(1, min(depth + 1, n) + 1):
            c.append(gv[k] * weight * q[n - k])
            weight *= p[n - k]
        for m in range(max(1, n - depth), n):
            cols[m].append(sum(map(mul, c, cols[m - 1][n - m::-1])))
        cols.append([c[0] * cols[n - 1][0]])
    return cols


def _scaled_band(g: ArithmeticFunction, h: ArithmeticFunction, max_n: int, depth: int) -> tuple:
    """(cols, p, q, scale): `_band` at this depth for g, h at 0..max_n,
    h(k) = p[k] / q[k] in lowest terms with q[k] > 0 (q[0] = 1), and the
    read's denominators scale = (G^m for m <= max_n, Q(n-1) for n <= max_n),
    or None when g(1..max_n) and h(1..max_n) are integers (G = D = 1)."""
    gv, hv, (G, D) = _kernel_inputs(g, h, max_n)
    r = list(map(gcd, hv, repeat(D)))
    p, q = list(map(floordiv, hv, r)), [D // v for v in r]
    scale = None if G * D == 1 else (
        [G**m for m in range(max_n + 1)], [1, *accumulate(q[1:max_n], mul, initial=1)])
    return _band(gv, p, q, depth), p, q, scale


def _read(cols: list[list[int]], scale: tuple | None, n: int, m: int):
    """A[n][m] = col[m][n - m] / (G^m Q(n-1)) of `_scaled_band`; an int if scale is None."""
    a = cols[m][n - m]
    return a if scale is None else Fraction(a, scale[0][m] * scale[1][n])


class CoefficientTable:
    """Triangle A[n][m] for 0 <= m <= n <= max_n plus the normalizers H(n).

    Held once, as the int columns col[m][n - m] = A*[n][m] = G^m Q(n-1) A[n][m]
    of `_band` at full depth, Q(j) the product of the lowest-terms
    denominators of h(1..j).  When g(1..max_n) and h(1..max_n) are integers
    (G = D = 1) the scale is 1 and entries read as plain ints; otherwise a
    read divides once by G^m Q(n-1), and H(n) = p_1 ... p_n / Q(n).
    """

    __slots__ = ("g", "h", "max_n", "_cols", "_scale", "_normalizers")

    def __init__(self, g: ArithmeticFunction, h: ArithmeticFunction, max_n: int):
        self._cols, p, q, self._scale = _scaled_band(g, h, max_n, max_n)
        self.g, self.h, self.max_n = g, h, max_n
        H = accumulate(p[1:], mul, initial=1)
        self._normalizers = list(H if self._scale is None
                                 else map(Fraction, H, accumulate(q[1:], mul, initial=1)))

    def entry(self, n: int, m: int):
        """A[n][m], an int or Fraction."""
        if not 0 <= n <= self.max_n or not 0 <= m <= n:
            raise IndexError(f"table index (n={n}, m={m}) outside 0 <= m <= n <= {self.max_n}")
        return _read(self._cols, self._scale, n, m)

    def _scaled_row(self, n: int) -> tuple:
        """(A*[n][m] for m = 0..n, their denominators G^m Q(n-1)), the second
        None for an int table."""
        if not 0 <= n <= self.max_n:
            raise IndexError(f"row {n} outside 0 <= n <= {self.max_n}")
        entries = map(getitem, self._cols[:n + 1], range(n, -1, -1))
        if self._scale is None:
            return entries, None
        return entries, map(mul, self._scale[0][:n + 1], repeat(self._scale[1][n]))

    def row(self, n: int) -> tuple:
        entries, denominators = self._scaled_row(n)
        return tuple(entries if denominators is None else map(Fraction, entries, denominators))

    def normalizer(self, n: int):
        """H(n) = h(1) ... h(n)."""
        if not 0 <= n <= self.max_n:
            raise IndexError(f"normalizer index {n} outside 0 <= n <= {self.max_n}")
        return self._normalizers[n]

    def formatted_row(self, n: int) -> list[str]:
        """Row n as "p/q" strings (plain decimal strings for ints).  Each
        entry is reduced by one gcd and formatted from its two ints, without
        a Fraction, as `format_rational` would render it."""
        entries, denominators = self._scaled_row(n)
        return list(map(str, entries) if denominators is None
                    else map(_format_quotient, entries, denominators))

    def header(self) -> dict:
        """The fields of `to_dict` before its rows, in the same order."""
        return {
            "kind": "coefficient-table", "g": self.g.name, "h": self.h.name, "max_n": self.max_n,
            "normalizers": [format_rational(v) for v in self._normalizers],
        }

    def to_dict(self) -> dict:
        """JSON-ready dict; every rational rendered as a "p/q" string."""
        return {**self.header(), "rows": [self.formatted_row(n) for n in range(self.max_n + 1)]}


def _format_quotient(a: int, b: int) -> str:
    """str(Fraction(a, b)) for ints a and b > 0: "p/q" in lowest terms, or "p"."""
    d = gcd(a, b)
    return str(a // d) if b == d else f"{a // d}/{b // d}"


def coefficient_table(g: ArithmeticFunction, h: ArithmeticFunction, max_n: int) -> CoefficientTable:
    return CoefficientTable(g, h, max_n)


def coefficient_top_band(
    g: ArithmeticFunction, h: ArithmeticFunction, max_n: int, depth: int = 2
) -> list[tuple]:
    """Rows of (A[n][n], A[n][n-1], ..., A[n][n-depth]) by the triangle recursion.

    The band is closed under the recursion (A[n][n-j] only needs entries
    with smaller offsets from the diagonal), so `_band` at this depth
    keeps depth + 1 entries per column and top-coefficient scans to large n
    skip the O(n^2) bulk of the triangle.  Read as in the table, by `_read`.
    """
    if depth < 0:
        raise ValueError("band depth must be nonnegative")
    cols, _, _, scale = _scaled_band(g, h, max_n, depth)
    return [tuple(_read(cols, scale, n, n - j) for j in range(min(depth, n) + 1))
            for n in range(max_n + 1)]


def shifted_coefficient_numerators(row: Sequence) -> list:
    """Given row n of a table, the numerators of the coefficients of
    P_n(x+1): entry j is H(n) * [x^j] P_n(x+1) = sum_m A[n][m] C(m, j).

    No scan calls it: the hook scan runs the recursion at X + 1, and the
    tests keep this triangle + binomial shift route as its oracle."""
    size = len(row)
    return [sum(row[m] * comb(m, j) for m in range(j, size)) for j in range(size)]
