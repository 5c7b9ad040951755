"""Exact polynomial and truncated-series arithmetic."""

import random
from fractions import Fraction
from math import gcd, isqrt

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from darcais import exact
from darcais.exact import (
    Poly,
    Series,
    X,
    format_rational,
    pack_signed,
    product_window,
    rational,
    slot_width,
    unpack_signed,
    unpack_window,
)
from oracles import poly_add, poly_eval, poly_mul, poly_trim

HALF = Fraction(1, 2)


@given(st.integers(1, 4).flatmap(lambda w: st.tuples(
    st.just(w), st.lists(st.integers(-(1 << (8 * w - 1)), (1 << (8 * w - 1)) - 1), max_size=12))))
@settings(max_examples=200, deadline=None)
def test_packed_slots_round_trip(case):
    width, coefficients = case
    packed = pack_signed(coefficients, width)
    assert packed == sum(c << (8 * width * j) for j, c in enumerate(coefficients))
    assert unpack_signed(packed, width, len(coefficients)) == coefficients
    # room to spare reads as zero slots
    assert unpack_signed(packed, width, len(coefficients) + 2) == coefficients + [0, 0]


def test_packed_slots_refuse_what_does_not_fit():
    assert pack_signed([-128, 127], 1) == -128 + (127 << 8)
    for coefficients in ([128], [0, -129]):
        with pytest.raises(OverflowError):
            pack_signed(coefficients, 1)
    with pytest.raises(OverflowError):
        unpack_signed(1 << 16, 1, 2)  # three slots read as two
    assert unpack_signed(0, 3, 0) == []


@given(st.integers(1, 4).flatmap(lambda w: st.tuples(
    st.just(w), st.lists(st.integers(-(1 << (8 * w - 1)), (1 << (8 * w - 1)) - 1), max_size=12))))
@settings(max_examples=200, deadline=None)
def test_a_window_of_packed_slots_reads_only_its_own_slots(case):
    width, coefficients = case
    packed = pack_signed(coefficients, width)
    padded = coefficients + [0, 0]
    for stop in range(len(padded) + 1):
        for start in range(stop + 1):
            assert unpack_window(packed, width, start, stop) == padded[start:stop], (start, stop)


def _padded_product(a, b):
    """The schoolbook product of a and b, padded with zeros past its degree."""
    return poly_mul(a, b) + [0] * (len(a) + len(b) + 2)


def _windows(a, b):
    """Every window of the product's slots, from past 0 to past its degree."""
    top = len(a) + len(b) + 1
    return [(start, stop) for stop in range(top + 1) for start in range(stop + 1)]


signed_ints = st.one_of(st.integers(-9, 9), st.integers(-(1 << 70), 1 << 70))


@given(st.lists(signed_ints, min_size=1, max_size=9), st.lists(signed_ints, min_size=1, max_size=13))
@settings(max_examples=200, deadline=None)
def test_product_window_matches_the_schoolbook_product(a, b):
    c, square = _padded_product(a, b), _padded_product(a, a)
    for start, stop in _windows(a, b):
        assert product_window(a, b, start, stop) == c[start:stop], (start, stop)
        assert product_window(b, a, start, stop) == c[start:stop], (start, stop)
    for start, stop in _windows(a, a):
        assert product_window(a, a, start, stop) == square[start:stop], (start, stop)
        assert product_window(a, list(a), start, stop) == square[start:stop], (start, stop)


def test_product_window_of_an_all_zero_factor_is_zeros():
    assert product_window([0, 0, 0], [5, -7], 1, 6) == [0] * 5
    assert product_window([5, -7], [0], 0, 3) == [0] * 3


@pytest.mark.parametrize("k", [1, 2, 3, 5])
@pytest.mark.parametrize("length", [1, 3, 7, 40])
@pytest.mark.parametrize("signs", [(1, 1), (1, -1), (-1, -1)])
def test_product_window_holds_slots_that_attain_the_bound(k, length, signs):
    """a = [s] * L and b = [+-s] * L with L s^2 just below 2^(8k): the middle
    slot is +-L s^2, whose bit length 8k leaves no room for the sign in k
    bytes, so the width must be k + 1."""
    s = isqrt(((1 << 8 * k) - 1) // length)
    bound = length * s * s
    assert bound.bit_length() == 8 * k
    a, b = [signs[0] * s] * length, [signs[1] * s] * length
    stop = 2 * length + 1
    assert product_window(a, b, 0, stop) == _padded_product(a, b)[:stop]
    assert product_window(a, a, 0, stop) == _padded_product(a, a)[:stop]


def test_slot_width_keeps_the_sign_bit():
    assert [slot_width(c) for c in (0, 1, 127, 128, 255, 256, (1 << 15) - 1, 1 << 15)] == \
        [1, 1, 1, 2, 2, 2, 2, 3]


def test_rational_parsing_and_formatting():
    assert rational("3/2") == Fraction(3, 2)
    assert rational("-7") == Fraction(-7)
    assert rational(5) == Fraction(5)
    assert format_rational(Fraction(6, 4)) == "3/2"
    assert format_rational(Fraction(8, 2)) == "4"
    with pytest.raises(TypeError):
        rational(1.5)
    with pytest.raises(TypeError):
        rational(True)
    with pytest.raises(ValueError):
        rational("1/0")
    assert rational(" +12/8 ") == Fraction(3, 2)


@pytest.mark.parametrize("text", ["1e5", "0.5", ".5", "1_000", "1e100000000", "10**8", "1/2/3",
                                  "1/-2", "2/+3", "x", "", " ", "\u0663", "inf", "nan", "3 / 4"])
def test_rational_reads_only_integers_and_p_over_q(text):
    with pytest.raises(ValueError, match="not an integer or p/q"):
        rational(text)


def test_format_rational_refuses_floats():
    with pytest.raises(TypeError):
        format_rational(0.1)


def test_no_float_or_bool_enters_a_poly_or_series():
    for build in (
        lambda: Poly([0.5]),
        lambda: Poly([1, True]),
        lambda: Series([0.25, 1]),
        lambda: Series([1, False]),
        lambda: Poly([1, 2])(0.5),
        lambda: Poly([1, 2]) - 0.5,
        lambda: X + True,
        lambda: True + X,
        lambda: X * True,
        lambda: X / True,
        lambda: True - X,
        lambda: X ** True,
        lambda: X ** 0.5,
        lambda: Poly((1,)) == True,
        lambda: Poly((1,)) == 1.0,
        lambda: True == Poly((1,)),
    ):
        with pytest.raises(TypeError):
            build()
    assert Poly((1,)) == 1 and Poly((1,)) == Fraction(1) and X != 1
    with pytest.raises(ValueError):
        X ** -1
    # ints, big ones included, become Fractions on the direct path; "p/q"
    # strings still go through `rational`
    series = Series([1, -7, 10**40, "3/4", Fraction(1, 3), X])
    assert list(map(type, series.coefficients)) == [Fraction] * 5 + [Poly]
    assert series.coefficients[:4] == (1, -7, 10**40, Fraction(3, 4))
    with pytest.raises(TypeError):
        Series([True])


def test_poly_add():
    assert X + (X**2 + 3 * X) == X**2 + 4 * X
    p = Poly([1, 2, 3])
    assert p + Poly() == p
    q = (X**2 + 3 * X) * HALF
    assert q + (-q) == Poly()
    assert (q + (-q)).degree == -1


def test_poly_mul():
    assert X * (X + 1) ** 2 == X**3 + 2 * X**2 + X
    p = Poly([Fraction(2, 3), 0, 5])
    assert p * Poly([1]) == p
    assert (X + 1) * (X + 2) == X**2 + 3 * X + 2


def test_poly_eval():
    p = (X**2 + 3 * X) * HALF
    assert p(1) == 2
    assert X(-24) == -24
    q = Poly([7, 1, 4])
    assert q(0) == 7
    # composition: p(x+1) shifts the argument
    assert p(X + 1) == (X**2 + 5 * X + 4) * HALF


def test_poly_accessors_and_format():
    p = Poly([0, Fraction(3, 2), HALF])
    assert p.degree == 2
    assert p[1] == Fraction(3, 2)
    assert p[17] == 0
    assert p.padded(4) == (0, Fraction(3, 2), HALF, 0)
    assert str(p) == "1/2*x^2 + 3/2*x"
    assert str(Poly()) == "0"
    assert str(X - 24) == "x - 24"


def test_poly_division_and_powers():
    assert (X**2 + 3 * X) / 2 == Poly([0, Fraction(3, 2), HALF])
    with pytest.raises(ZeroDivisionError):
        X / 0
    assert X**0 == Poly([1])
    assert (X + 1) ** 3 == X**3 + 3 * X**2 + 3 * X + 1


small_rationals = st.fractions(min_value=-4, max_value=4, max_denominator=8)
polys = st.lists(small_rationals, min_size=0, max_size=5).map(Poly)


@given(polys, polys, polys)
@settings(max_examples=60, deadline=None)
def test_poly_ring_axioms(a, b, c):
    assert a + b == b + a
    assert (a + b) + c == a + (b + c)
    assert a * b == b * a
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c


def test_series_invariants():
    s = Series([1, 2, 3])
    assert s.order == 2
    assert len(s.coefficients) == s.order + 1
    with pytest.raises(IndexError):
        s.coefficient(3)


def test_series_inverse_geometric():
    s = Series([1, -1, 0, 0])
    assert s.inverse() == Series([1, 1, 1, 1])
    with pytest.raises(ZeroDivisionError):
        Series([0, 1]).inverse()


def test_series_exp_examples():
    xq = Series([Poly(), X, Poly()])
    assert xq.exp() == Series([Poly([1]), X, X**2 * HALF])
    with pytest.raises(ValueError):
        Series([1, 1]).exp()
    # exp(x * (q + 3/2 q^2)) has q^2 coefficient (x^2 + 3x)/2, matching
    # the recursion-built polynomial for (sigma, id)
    arg = Series([Poly(), X, X * Fraction(3, 2)])
    assert arg.exp().coefficient(2) == (X**2 + 3 * X) * HALF


def assert_canonical(p):
    nums, den = p._nums, p._den
    assert all(type(c) is int for c in nums) and type(den) is int
    assert den > 0 and gcd(den, *nums) == 1
    assert not nums or nums[-1] != 0
    assert nums or den == 1


wide_rationals = st.fractions(min_value=-20, max_value=20, max_denominator=36)
scalars = st.one_of(st.integers(-12, 12), wide_rationals)
coefficient_lists = st.lists(st.one_of(st.integers(-9, 9), wide_rationals), max_size=6)


@given(coefficient_lists, coefficient_lists, scalars, st.integers(0, 3), wide_rationals)
@settings(max_examples=150, deadline=None)
def test_poly_matches_fraction_list_oracle(a, b, s, e, point):
    pa, pb = Poly(a), Poly(b)
    ta, tb = poly_trim(a), poly_trim(b)
    ts = poly_trim([s])
    power = [Fraction(1)]
    for _ in range(e):
        power = poly_mul(power, ta)
    cases = [
        (pa, ta),
        (pa + pb, poly_add(ta, tb)),
        (pa - pb, poly_add(ta, poly_mul(tb, [-1]))),
        (pa * pb, poly_mul(ta, tb)),
        (pa + s, poly_add(ta, ts)),
        (s - pa, poly_add(ts, poly_mul(ta, [-1]))),
        (pa * s, poly_mul(ta, ts)),
        (s * pa, poly_mul(ta, ts)),
        (-pa, poly_mul(ta, [-1])),
        (pa**e, power),
        (pa(pb), poly_eval(ta, tb)),
    ]
    if s != 0:
        cases.append((pa / s, poly_mul(ta, [1 / Fraction(s)])))
    for p, expected in cases:
        assert_canonical(p)
        assert list(p.coefficients) == expected
        assert p.degree == len(expected) - 1
    assert pa(point) == poly_eval(ta, point)
    assert pa(s) == poly_eval(ta, Fraction(s))
    assert (pa == s) == (ta == ts)
    assert Poly([s]) == s and (Poly([s]) == s + 1) is False
    rebuilt = (pa + pb) - pb
    assert rebuilt == pa and hash(rebuilt) == hash(pa)
    assert (pa == pb) == (ta == tb)


series_coeffs = st.lists(small_rationals, min_size=1, max_size=5)


@given(series_coeffs.filter(lambda cs: cs[0] != 0))
@settings(max_examples=60, deadline=None)
def test_series_inverse_roundtrip(coeffs):
    product = poly_mul(coeffs, Series(coeffs).inverse().coefficients)
    assert poly_trim(product[:len(coeffs)]) == [1]


@given(series_coeffs, series_coeffs)
@settings(max_examples=60, deadline=None)
def test_series_exp_additivity(a_coeffs, b_coeffs):
    # exp(a) exp(b) = exp(a + b), truncated at the smaller order
    size = 1 + min(len(a_coeffs), len(b_coeffs))
    a = [Fraction(0)] + a_coeffs[:size - 1]
    b = [Fraction(0)] + b_coeffs[:size - 1]
    total = (poly_add(a, b) + [Fraction(0)] * size)[:size]
    product = poly_mul(Series(a).exp().coefficients, Series(b).exp().coefficients)
    assert poly_trim(product[:size]) == poly_trim(Series(total).exp().coefficients)


@given(st.one_of(st.integers(-10**6, 10**6),
                 st.builds(Fraction, st.integers(-10**6, 10**6), st.integers(1, 10**6))))
@example(3)
@example(0)
@settings(max_examples=150, deadline=None)
def test_constant_polys_hash_as_their_scalars(c):
    # equal objects hash equal: a constant Poly, zero included, is its scalar
    p = Poly([c])
    assert p == c and hash(p) == hash(c) and len({p, c, Fraction(c)}) == 1
    assert Series([p, X]) == Series([c, X]) and hash(Series([p, X])) == hash(Series([c, X]))


@given(st.lists(st.integers(-10**6, 10**6), max_size=6), st.integers(1, 10**6))
@settings(max_examples=150, deadline=None)
def test_poly_from_numerators_reduces_once(numerators, denominator):
    p = Poly.from_numerators(numerators, denominator)
    assert_canonical(p)
    assert list(p.coefficients) == poly_trim(Fraction(c, denominator) for c in numerators)
    assert Poly.from_numerators(p.numerators, p.denominator) == p
    assert (p.numerators, p.denominator) == (p._nums, p._den)


def test_reduced_rows_match_the_fraction_built_poly():
    # random int rows over random denominators, each row scaled by a common
    # factor, some led by +-1, and half of them with that factor dropped from
    # the constant term alone, so that their gcd with the denominator is 1
    # only there
    rng = random.Random(23)
    for _ in range(400):
        common = rng.choice([1, 2, 6, 35, 2**40 * 3**7, 10**30 + 1])
        row = [rng.randint(-10**12, 10**12) * common for _ in range(rng.randint(1, 12))]
        row[-1] = rng.choice([1, -1, common, row[-1]])
        if rng.random() < 0.5:
            row[0] = rng.randint(-10**6, 10**6) * common + 1
        denominator = rng.randint(1, 10**9) * common
        p = Poly.from_numerators(row, denominator)
        assert p == Poly([Fraction(c, denominator) for c in row])
        assert_canonical(p)


@pytest.mark.parametrize("numerators, denominator",
                         [([1, 2], 0), ([1, 2], -3), ([1, 2], 1.0), ([1, 2], True),
                          ([1, 2.0], 3), ([True, 2], 3), ([Fraction(1, 2)], 3)])
def test_poly_from_numerators_refuses_all_but_ints_over_a_positive_int(numerators, denominator):
    with pytest.raises(ValueError):
        Poly.from_numerators(numerators, denominator)


def test_series_inverse_runs_integral_unit_series_in_ints(monkeypatch):
    operands = set()

    def spy(a, b):
        operands.update((type(a), type(b)))
        return a * b

    monkeypatch.setattr(exact, "mul", spy)
    for coeffs in ([1, 3, -2, 5], [-1, 3, -2, 5]):
        operands.clear()
        inverse = Series(coeffs).inverse()
        assert operands == {int}
        assert all(type(c) is Fraction for c in inverse.coefficients)
        product = poly_mul(coeffs, inverse.coefficients)
        assert poly_trim(product[:4]) == [1]
    # a non-unit or non-integral constant term, or a Poly coefficient, keeps
    # the Fraction loop (Poly arithmetic multiplies its int numerators itself)
    for coeffs, expected in (([2, 4, 6], {Fraction}), ([1, HALF, 3], {Fraction}),
                             ([1, X, 2], {Fraction, Poly})):
        operands.clear()
        inverse = Series(coeffs).inverse()
        assert operands == expected
        assert inverse.coefficient(0) == 1 / Fraction(coeffs[0])
    assert Series([1, X]).inverse() == Series([1, -X])
