"""Exact scalars, dense polynomials, and truncated power series.

Scalars are `fractions.Fraction` (or ints, where an interface says so),
so every computation in this package is exact and polynomial equality is
decidable.  Kernels whose inputs are integral may run in plain ints and
convert their results with `rational`; `rational`, `Poly` and `Series`
refuse floats and booleans, and strings other than "p" or "p/q".
Polynomials are dense, coefficients indexed from degree 0, and stored in
primitive-part form: int numerators over one denominator, so polynomial
arithmetic runs in ints, and an int kernel hands its result back through
`Poly.from_numerators`.  `scaled_ints` scales a table of rationals to ints
over the lcm of their denominators, which is how the int kernels take
rational inputs.  `pack_signed` and `unpack_signed` are Kronecker
substitution: an int polynomial evaluated at 2^(8w), one w-byte slot per
coefficient, and read back through its bytes; `unpack_window` reads a run
of slots out of a longer product.  `slot_width` is the one rule for w, and
`product_window`, a window of the slots of one packed product, is how the
routes multiply.  A `Series` holds the coefficients of a power series in q
truncated at a fixed order, each a rational or a `Poly` in x, and has the
two operations the generating-function oracles need: `exp` and `inverse`.
`first_failure` is the loop that counts a check's comparisons and stops
at the first failing one.
"""

from __future__ import annotations

import re
from fractions import Fraction
from itertools import repeat
from math import gcd, lcm
from operator import add, mul
from typing import Iterable, Union

Scalar = Union[int, Fraction]

_F0 = Fraction(0)
_F1 = Fraction(1)
_RATIONAL = re.compile(r"\s*[+-]?[0-9]+(/[0-9]+)?\s*")


def rational(value: Union[int, str, Fraction]) -> Fraction:
    """Coerce an int, a Fraction, or a "p/q" / "p" string to a Fraction.

    bool is refused although it is an int: a JSON `true` is not a number.
    A string must be "p" or "p/q" in ASCII digits, so that no decimal or
    exponent ("1e100000000") is built; that and "p/0" are ValueErrors."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, str) and not _RATIONAL.fullmatch(value):
        raise ValueError(f"not an integer or p/q: {value!r}")
    if isinstance(value, (int, str)) and not isinstance(value, bool):
        try:
            return Fraction(value)
        except ZeroDivisionError:
            raise ValueError(f"zero denominator in {value!r}") from None
    raise TypeError(f"cannot interpret {value!r} as an exact rational")


def scaled_ints(values: Iterable) -> tuple[list[int], int]:
    """([0, s v_1, s v_2, ...], s) for rationals v_1, v_2, ...: s is the lcm
    of their denominators (1 for none), so each s v_k is an int, at index k."""
    values = list(values)
    s = lcm(*(v.denominator for v in values))
    return [0] + [v.numerator * (s // v.denominator) for v in values], s


def pack_signed(coefficients: Iterable[int], width: int) -> int:
    """sum_j c_j 2^(8 width j) for ints c_j with -2^(8 width - 1) <= c_j <
    2^(8 width - 1): the int polynomial evaluated at 2^(8 width), one slot
    of `width` bytes per coefficient.  Built from the bytes of the biased
    slots in linear time; a coefficient out of range is an OverflowError."""
    half = 1 << (8 * width - 1)
    slots = [(c + half).to_bytes(width, "little") for c in coefficients]
    return int.from_bytes(b"".join(slots), "little") - _slot_bias(width, len(slots))


def unpack_signed(value: int, width: int, length: int) -> list[int]:
    """The `length` coefficients c_j of value = sum_j c_j 2^(8 width j), given
    that each lies in [-2^(8 width - 1), 2^(8 width - 1)): the inverse of
    `pack_signed`.  Adding 2^(8 width - 1) to every slot makes each one a
    digit in [0, 2^(8 width)), so one `to_bytes` reads them all in linear
    time, where shifting the value down slot by slot is quadratic.  A value
    with more than `length` slots is an OverflowError."""
    half = 1 << (8 * width - 1)
    data = (value + _slot_bias(width, length)).to_bytes(width * length, "little")
    return [int.from_bytes(data[i:i + width], "little") - half
            for i in range(0, width * length, width)]


def unpack_window(value: int, width: int, start: int, stop: int) -> list[int]:
    """The coefficients c_start, ..., c_(stop-1) of value = sum_j c_j 2^(8 width j),
    given that each lies in the signed slot range of `unpack_signed`, however
    many slots the value has.  Adding the slot bias to the slots below `stop`
    makes each a digit in [0, 2^(8 width)), so the sum modulo 2^(8 width stop)
    is those digits and nothing of the slots above; shifting off the low
    `start` digits and taking the bias off again leaves the window packed."""
    digits = (value + _slot_bias(width, stop)) & ((1 << 8 * width * stop) - 1)
    length = stop - start
    window = (digits >> 8 * width * start) - _slot_bias(width, length)
    return unpack_signed(window, width, length)


def slot_width(bound: int) -> int:
    """The bytes w of a slot that holds every int c with |c| <= bound: with
    bits = bound.bit_length(), |c| < 2^bits, and 8w - 1 >= bits puts c in
    [-2^(8w - 1), 2^(8w - 1)), the signed slot range of `pack_signed`."""
    return bound.bit_length() // 8 + 1


def product_window(a: list[int], b: list[int], start: int, stop: int) -> list[int]:
    """c_start, ..., c_(stop-1) of the int polynomial product c = a b, as one
    product of Kronecker-packed ints.  Each c_t = sum_i a_i b_(t-i) has at
    most min(len a, len b) terms, so |c_t| <= min(len a, len b) max|a| max|b|,
    a bound on every a_i and b_j too, and slots of its `slot_width` hold them
    all.  A square (a is b) packs once; an all-zero factor gives zeros."""
    amax, bmax = max(map(abs, a)), max(map(abs, b))
    if not (amax and bmax):
        return [0] * (stop - start)
    width = slot_width(min(len(a), len(b)) * amax * bmax)
    packed = pack_signed(a, width)
    c = packed * packed if a is b else packed * pack_signed(b, width)
    return unpack_window(c, width, start, stop)


def _slot_bias(width: int, length: int) -> int:
    """sum_j 2^(8 width - 1) 2^(8 width j) over `length` slots."""
    return int.from_bytes((bytes(width - 1) + b"\x80") * length, "little")


def format_rational(value: Union[int, Fraction]) -> str:
    """Render a rational as "p/q", or as a plain decimal string if integral."""
    return str(rational(value))


def first_failure(outcomes: Iterable) -> tuple[int, object]:
    """Run comparisons, each outcome None where one holds and otherwise
    where it failed, up to the first failure: (outcomes consumed, that
    failure or None).  Every check and scan counts its comparisons here."""
    checks = 0
    for failure in outcomes:
        checks += 1
        if failure is not None:
            return checks, failure
    return checks, None


class Poly:
    """Dense univariate polynomial over the rationals, in primitive-part form.

    Immutable.  The coefficients are int numerators over one positive int
    denominator, kept canonical: the gcd of the denominator and all
    numerators is 1, trailing zeros are stripped, and the zero polynomial
    is ``((), 1)`` with degree -1.  Arithmetic therefore runs on ints and
    reduces once per result, and equality is a tuple comparison.
    ``p[m]`` and ``coefficients`` give the coefficients as Fractions.
    Scalars (int, Fraction) mix freely in arithmetic and comparisons; a
    bool operand, or a float, is refused in arithmetic, in powers and in
    `==` (TypeError).
    """

    __slots__ = ("_nums", "_den")

    def __init__(self, coefficients: Iterable = ()):
        coeffs = [c if isinstance(c, Fraction) else rational(c) for c in coefficients]
        # over the lcm of reduced denominators the numerators are already
        # coprime to it, so only trailing zeros need removing
        den = lcm(*(c.denominator for c in coeffs))
        nums = [c.numerator * (den // c.denominator) for c in coeffs]
        while nums and not nums[-1]:
            nums.pop()
        self._nums = tuple(nums)
        self._den = den

    @classmethod
    def from_numerators(cls, numerators: Iterable[int], denominator: int) -> "Poly":
        """The polynomial with coefficients numerators[m] / denominator, for
        int numerators and a positive int denominator, reduced once."""
        nums = list(numerators)
        if (type(denominator) is not int or denominator <= 0
                or any(type(c) is not int for c in nums)):
            raise ValueError("need int numerators over a positive int denominator")
        return cls._reduced(nums, denominator, denominator)

    @classmethod
    def _reduced(cls, nums: list, den: int, modulus: int) -> "Poly":
        """nums / den (den > 0) in canonical form, given that every factor
        common to den and all of nums divides `modulus`.  The gcd reads the
        leading coefficient first: `math.gcd` stops dividing once its running
        gcd is 1, and leading coefficients are often +-1."""
        while nums and not nums[-1]:
            nums.pop()
        if not nums:
            return cls()
        if modulus != 1:
            g = gcd(modulus, *reversed(nums))
            if g != 1:
                nums = [c // g for c in nums]
                den //= g
        return cls._canonical(tuple(nums), den)

    @classmethod
    def _canonical(cls, nums: tuple, den: int) -> "Poly":
        """Wrap parts that are already in canonical form."""
        p = object.__new__(cls)
        p._nums = nums
        p._den = den
        return p

    @property
    def numerators(self) -> tuple[int, ...]:
        """The int numerators, constant term first, over `denominator`."""
        return self._nums

    @property
    def denominator(self) -> int:
        return self._den

    @property
    def coefficients(self) -> tuple[Fraction, ...]:
        d = self._den
        return tuple(Fraction(c, d) for c in self._nums)

    @property
    def degree(self) -> int:
        """Degree of the polynomial; -1 for the zero polynomial."""
        return len(self._nums) - 1

    def is_zero(self) -> bool:
        return not self._nums

    def padded(self, length: int) -> tuple[Fraction, ...]:
        """Coefficients from degree 0 up to degree length-1, zero-filled."""
        if length < len(self._nums):
            raise ValueError("padded length is below the degree")
        return self.coefficients + (_F0,) * (length - len(self._nums))

    def __getitem__(self, m: int) -> Fraction:
        if 0 <= m < len(self._nums):
            return Fraction(self._nums[m], self._den)
        return _F0

    def __eq__(self, other) -> bool:
        if isinstance(other, Poly):
            return self._den == other._den and self._nums == other._nums
        if isinstance(other, (bool, float)):
            raise TypeError(f"a polynomial does not compare with {other!r}")
        if isinstance(other, (int, Fraction)):
            if other == 0:
                return not self._nums
            return (
                len(self._nums) == 1
                and self._nums[0] == other.numerator
                and self._den == other.denominator
            )
        return NotImplemented

    def __hash__(self):
        return hash((self._nums, self._den))

    def __bool__(self) -> bool:
        return bool(self._nums)

    def __add__(self, other):
        if isinstance(other, Poly):
            b, db = other._nums, other._den
        elif isinstance(other, (int, Fraction)) and not isinstance(other, bool):
            b, db = (other.numerator,), other.denominator
        else:
            return NotImplemented
        a, da = self._nums, self._den
        # Over lcm(da, db) a prime can cancel from the sum only if it divides
        # da and db equally often, so gcd(da, db) bounds the cancellation.
        common = gcd(da, db)
        if da != db:
            sa, sb = db // common, da // common
            if sa != 1:
                a = list(map(mul, a, repeat(sa, len(a))))
                da *= sa
            if sb != 1:
                b = list(map(mul, b, repeat(sb, len(b))))
        if len(a) < len(b):
            a, b = b, a
        out = list(map(add, a, b))
        out.extend(a[len(b):])
        return Poly._reduced(out, da, common)

    __radd__ = __add__

    def __neg__(self):
        return Poly._canonical(tuple(-c for c in self._nums), self._den)

    def __sub__(self, other):
        return self + (-other if isinstance(other, Poly) else -rational(other))

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, Poly):
            b, db = other._nums, other._den
        elif isinstance(other, (int, Fraction)) and not isinstance(other, bool):
            b, db = (other.numerator,) if other else (), other.denominator
        else:
            return NotImplemented
        a, da = self._nums, self._den
        if not a or not b:
            return Poly()
        # content(a * b) = content(a) * content(b) (Gauss), and each side is
        # already coprime to its own denominator, so cancelling each
        # numerator against the other's denominator leaves a reduced product;
        # a scalar p/q is the constant polynomial (p,) over q.
        if db != 1:
            g = gcd(db, *a)
            if g != 1:
                a, db = [c // g for c in a], db // g
        if da != 1:
            g = gcd(da, *b)
            if g != 1:
                b, da = [c // g for c in b], da // g
        if len(a) < len(b):
            a, b = b, a
        out = [0] * (len(a) + len(b) - 1)
        for j, cb in enumerate(b):
            if cb:
                for i, ca in enumerate(a, j):
                    out[i] += ca * cb
        return Poly._canonical(tuple(out), da * db)

    __rmul__ = __mul__

    def __truediv__(self, scalar):
        if not isinstance(scalar, (int, Fraction)) or isinstance(scalar, bool):
            return NotImplemented
        if scalar == 0:
            raise ZeroDivisionError("division of a polynomial by zero")
        return self * (_F1 / scalar)

    def __pow__(self, exponent: int):
        if not isinstance(exponent, int) or isinstance(exponent, bool):
            raise TypeError(f"polynomial powers need an integer exponent, got {exponent!r}")
        if exponent < 0:
            raise ValueError("polynomial powers need a nonnegative exponent")
        result = Poly((1,))
        base = self
        e = exponent
        while e:
            if e & 1:
                result = result * base
            base = base * base
            e >>= 1
        return result

    def __call__(self, point):
        """Horner evaluation; `point` may be a scalar or another Poly.

        At a rational p/q the sum sum_m a_m p^m q^(deg-m) runs in ints and is
        divided by d * q^deg once; at a Poly point the numerators are
        composed first and the result divided by d."""
        if isinstance(point, Poly):
            acc = Poly()
            for c in reversed(self._nums):
                acc = acc * point + c
            return acc / self._den
        point = rational(point)
        nums = self._nums
        if not nums:
            return _F0
        p, q = point.numerator, point.denominator
        acc = nums[-1]
        scale = 1
        for c in nums[-2::-1]:
            scale *= q
            acc = acc * p + c * scale
        return Fraction(acc, self._den * scale)

    def __str__(self) -> str:
        coeffs = self.coefficients
        if not coeffs:
            return "0"
        terms = []
        for m in range(len(coeffs) - 1, -1, -1):
            c = coeffs[m]
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
        return f"Poly([{', '.join(format_rational(c) for c in self.coefficients)}])"


#: The variable x, for building polynomials by arithmetic.
X = Poly((0, 1))


class Series:
    """Power series in q truncated at a fixed order (inclusive).

    A truncation of order N stores exactly N+1 coefficients, each a
    Fraction or a Poly in x.
    """

    __slots__ = ("_coeffs",)

    def __init__(self, coefficients: Iterable):
        coeffs = tuple(
            c if isinstance(c, (Fraction, Poly)) else rational(c) for c in coefficients
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

    def inverse(self) -> "Series":
        """Multiplicative inverse to the truncation order.

        The constant term must be a nonzero rational: zero raises
        ZeroDivisionError, a Poly TypeError.  Integral coefficients with
        constant term +-1 (its own inverse) run the loop in ints.
        """
        a = self._coeffs
        if a[0] in (1, -1) and all(isinstance(c, Fraction) and c.denominator == 1 for c in a):
            a = [c.numerator for c in a]
            r0 = a[0]
        else:
            r0 = _F1 / a[0]
        out = [r0]
        for n in range(1, len(a)):
            out.append(-r0 * sum(map(mul, a[1:n + 1], out[n - 1::-1])))
        return Series(out)

    def exp(self) -> "Series":
        """Exponential of a series with zero constant term.

        Uses the coefficient recurrence n*f_n = sum_k k*a_k*f_{n-k} coming
        from f' = a'*f, so only rational arithmetic is involved.
        """
        a = self._coeffs
        if not (a[0] == 0):
            raise ValueError("series exponential needs a zero constant term")
        ka = [k * c for k, c in enumerate(a)]
        out: list = [_F1]
        for n in range(1, len(a)):
            out.append(sum(map(mul, ka[1:n + 1], out[n - 1::-1])) / n)
        return Series(out)

    def __repr__(self) -> str:
        inner = ", ".join(
            repr(c) if isinstance(c, Poly) else format_rational(c) for c in self._coeffs
        )
        return f"Series([{inner}])"
