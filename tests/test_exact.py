"""Exact polynomial and truncated-series arithmetic."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from darcais.exact import Poly, Series, X, format_rational, rational

HALF = Fraction(1, 2)


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
    # arithmetic on two truncations uses the minimum order
    t = Series([1, 1])
    assert (s * t).order == 1
    assert (s + t).order == 1


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


series_coeffs = st.lists(small_rationals, min_size=1, max_size=5)


@given(series_coeffs.filter(lambda cs: cs[0] != 0))
@settings(max_examples=60, deadline=None)
def test_series_inverse_roundtrip(coeffs):
    s = Series(coeffs)
    product = s * s.inverse()
    assert product.coefficient(0) == 1
    assert all(product.coefficient(n) == 0 for n in range(1, product.order + 1))


@given(series_coeffs, series_coeffs)
@settings(max_examples=60, deadline=None)
def test_series_exp_additivity(a_coeffs, b_coeffs):
    a = Series([Fraction(0)] + a_coeffs)
    b = Series([Fraction(0)] + b_coeffs)
    assert a.exp() * b.exp() == (a + b).exp()
