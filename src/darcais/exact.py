"""Exact scalars, dense polynomials, and truncated power series.

Scalars are `fractions.Fraction` throughout, so every computation in this
package is exact and polynomial equality is decidable.  Polynomials are
dense, coefficients indexed from degree 0.  Truncated series live in the
ring (polynomials in x)[[q]]: a series coefficient may be a rational or a
`Poly` in the second variable x.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Union

Scalar = Union[int, Fraction]

_F0 = Fraction(0)
_F1 = Fraction(1)


def rational(value: Union[int, str, Fraction]) -> Fraction:
    """Coerce an int, a Fraction, or a "p/q" / "p" string to a Fraction.

    bool is refused although it is an int: a JSON `true` is not a number."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, (int, str)) and not isinstance(value, bool):
        return Fraction(value)
    raise TypeError(f"cannot interpret {value!r} as an exact rational")


def format_rational(value: Union[int, Fraction]) -> str:
    """Render a rational as "p/q", or as a plain decimal string if integral."""
    return str(Fraction(value))


class Poly:
    """Dense univariate polynomial over the rationals.

    Immutable.  ``p[m]`` is the coefficient of x^m; trailing zeros are
    stripped, so the zero polynomial has an empty coefficient tuple and
    degree -1.  Scalars (int, Fraction) mix freely in arithmetic and
    comparisons.
    """

    __slots__ = ("_coeffs",)

    def __init__(self, coefficients: Iterable = ()):
        coeffs = [c if isinstance(c, Fraction) else Fraction(c) for c in coefficients]
        while coeffs and coeffs[-1] == 0:
            coeffs.pop()
        self._coeffs = tuple(coeffs)

    @property
    def coefficients(self) -> tuple[Fraction, ...]:
        return self._coeffs

    @property
    def degree(self) -> int:
        """Degree of the polynomial; -1 for the zero polynomial."""
        return len(self._coeffs) - 1

    def is_zero(self) -> bool:
        return not self._coeffs

    def padded(self, length: int) -> tuple[Fraction, ...]:
        """Coefficients from degree 0 up to degree length-1, zero-filled."""
        if length < len(self._coeffs):
            raise ValueError("padded length is below the degree")
        return self._coeffs + (_F0,) * (length - len(self._coeffs))

    def __getitem__(self, m: int) -> Fraction:
        if 0 <= m < len(self._coeffs):
            return self._coeffs[m]
        return _F0

    def __eq__(self, other) -> bool:
        if isinstance(other, Poly):
            return self._coeffs == other._coeffs
        if isinstance(other, (int, Fraction)):
            if other == 0:
                return not self._coeffs
            return len(self._coeffs) == 1 and self._coeffs[0] == other
        return NotImplemented

    def __hash__(self):
        return hash(self._coeffs)

    def __bool__(self) -> bool:
        return bool(self._coeffs)

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            if not self._coeffs:
                return Poly((other,))
            return Poly((self._coeffs[0] + other,) + self._coeffs[1:])
        if not isinstance(other, Poly):
            return NotImplemented
        a, b = self._coeffs, other._coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return Poly(out)

    __radd__ = __add__

    def __neg__(self):
        return Poly(tuple(-c for c in self._coeffs))

    def __sub__(self, other):
        return self + (-other if isinstance(other, Poly) else -Fraction(other))

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            if other == 0:
                return Poly()
            return Poly(tuple(c * other for c in self._coeffs))
        if not isinstance(other, Poly):
            return NotImplemented
        a, b = self._coeffs, other._coeffs
        if not a or not b:
            return Poly()
        out = [_F0] * (len(a) + len(b) - 1)
        for i, ca in enumerate(a):
            if ca:
                for j, cb in enumerate(b):
                    if cb:
                        out[i + j] += ca * cb
        return Poly(out)

    __rmul__ = __mul__

    def __truediv__(self, scalar):
        if not isinstance(scalar, (int, Fraction)):
            return NotImplemented
        if scalar == 0:
            raise ZeroDivisionError("division of a polynomial by zero")
        inv = Fraction(1, 1) / scalar
        return Poly(tuple(c * inv for c in self._coeffs))

    def __pow__(self, exponent: int):
        if not isinstance(exponent, int) or exponent < 0:
            raise ValueError("polynomial powers need a nonnegative integer exponent")
        result = Poly((_F1,))
        base = self
        e = exponent
        while e:
            if e & 1:
                result = result * base
            base = base * base
            e >>= 1
        return result

    def times_x(self, k: int = 1) -> "Poly":
        """Multiply by x^k (degree shift)."""
        if k < 0:
            raise ValueError("degree shift must be nonnegative")
        if not self._coeffs:
            return self
        return Poly((_F0,) * k + self._coeffs)

    def __call__(self, point):
        """Horner evaluation; `point` may be a scalar or another Poly."""
        if isinstance(point, Poly):
            acc: Union[Poly, Fraction] = Poly()
        else:
            point = point if isinstance(point, Fraction) else Fraction(point)
            acc = _F0
        for c in reversed(self._coeffs):
            acc = acc * point + c
        return acc

    def __str__(self) -> str:
        if not self._coeffs:
            return "0"
        terms = []
        for m in range(len(self._coeffs) - 1, -1, -1):
            c = self._coeffs[m]
            if c == 0:
                continue
            sign = "-" if c < 0 else "+"
            mag = -c if c < 0 else c
            if m == 0:
                body = format_rational(mag)
            elif m == 1:
                body = "x" if mag == 1 else f"{format_rational(mag)}*x"
            else:
                body = f"x^{m}" if mag == 1 else f"{format_rational(mag)}*x^{m}"
            terms.append((sign, body))
        first_sign, first_body = terms[0]
        text = ("-" if first_sign == "-" else "") + first_body
        for sign, body in terms[1:]:
            text += f" {sign} {body}"
        return text

    def __repr__(self) -> str:
        return f"Poly([{', '.join(format_rational(c) for c in self._coeffs)}])"


#: The variable x, for building polynomials by arithmetic.
X = Poly((0, 1))


def _invert_constant(c):
    """Reciprocal of a series constant term; only scalars are invertible."""
    if isinstance(c, Poly):
        if c.degree > 0 or c.is_zero():
            raise ZeroDivisionError("series constant term is not an invertible scalar")
        return _F1 / c[0]
    if c == 0:
        raise ZeroDivisionError("series constant term is zero")
    return _F1 / c


class Series:
    """Power series in q truncated at a fixed order (inclusive).

    A truncation of order N stores exactly N+1 coefficients; binary
    operations on two truncations work at the minimum of the two orders.
    Coefficients are Fractions or Polys in x.
    """

    __slots__ = ("_coeffs",)

    def __init__(self, coefficients: Iterable):
        coeffs = tuple(
            c if isinstance(c, (Fraction, Poly)) else Fraction(c) for c in coefficients
        )
        if not coeffs:
            raise ValueError("a series truncation needs at least the q^0 coefficient")
        self._coeffs = coeffs

    @property
    def order(self) -> int:
        return len(self._coeffs) - 1

    @property
    def coefficients(self) -> tuple:
        return self._coeffs

    def coefficient(self, n: int):
        if not 0 <= n <= self.order:
            raise IndexError(f"coefficient index {n} outside truncation order {self.order}")
        return self._coeffs[n]

    def __eq__(self, other) -> bool:
        if not isinstance(other, Series):
            return NotImplemented
        return len(self._coeffs) == len(other._coeffs) and all(
            a == b for a, b in zip(self._coeffs, other._coeffs)
        )

    def __hash__(self):
        return hash(self._coeffs)

    def __add__(self, other):
        if not isinstance(other, Series):
            return NotImplemented
        n = min(len(self._coeffs), len(other._coeffs))
        return Series(tuple(a + b for a, b in zip(self._coeffs[:n], other._coeffs[:n])))

    def __sub__(self, other):
        if not isinstance(other, Series):
            return NotImplemented
        n = min(len(self._coeffs), len(other._coeffs))
        return Series(tuple(a - b for a, b in zip(self._coeffs[:n], other._coeffs[:n])))

    def __neg__(self):
        return Series(tuple(-c for c in self._coeffs))

    def __mul__(self, other):
        if isinstance(other, (int, Fraction, Poly)):
            return Series(tuple(c * other for c in self._coeffs))
        if not isinstance(other, Series):
            return NotImplemented
        n = min(len(self._coeffs), len(other._coeffs))
        a, b = self._coeffs, other._coeffs
        out = []
        for i in range(n):
            acc = a[0] * b[i]
            for k in range(1, i + 1):
                acc = acc + a[k] * b[i - k]
            out.append(acc)
        return Series(out)

    __rmul__ = __mul__

    def inverse(self) -> "Series":
        """Multiplicative inverse to the truncation order.

        The constant term must be an invertible scalar (nonzero rational,
        possibly packaged as a degree-0 Poly).
        """
        a = self._coeffs
        r0 = _invert_constant(a[0])
        out = [r0]
        for n in range(1, len(a)):
            acc = a[1] * out[n - 1]
            for k in range(2, n + 1):
                acc = acc + a[k] * out[n - k]
            out.append(-r0 * acc)
        return Series(out)

    def exp(self) -> "Series":
        """Exponential of a series with zero constant term.

        Uses the coefficient recurrence n*f_n = sum_k k*a_k*f_{n-k} coming
        from f' = a'*f, so only rational arithmetic is involved.
        """
        a = self._coeffs
        if not (a[0] == 0):
            raise ValueError("series exponential needs a zero constant term")
        out: list = [_F1]
        for n in range(1, len(a)):
            acc = a[1] * out[n - 1]
            for k in range(2, n + 1):
                acc = acc + (k * a[k]) * out[n - k]
            out.append(acc / n)
        return Series(out)

    def __repr__(self) -> str:
        inner = ", ".join(
            repr(c) if isinstance(c, Poly) else format_rational(c) for c in self._coeffs
        )
        return f"Series([{inner}])"
