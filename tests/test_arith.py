"""Arithmetic-function registry, the tilde transform, and cumulative products."""

import json
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from darcais.arith import (
    ArithmeticFunction,
    CumulativeProduct,
    from_descriptor,
    from_table,
    identity,
    one,
    sigma,
    tilde,
)


def test_builtin_values():
    assert sigma(1)(6) == 12
    assert sigma(3)(2) == 9
    assert identity()(7) == 7
    assert one()(123) == 1
    assert sigma(0)(12) == 6  # number of divisors


def test_normalization_enforced():
    for fn in (one(), identity(), sigma(1), sigma(5)):
        assert fn(1) == 1
    with pytest.raises(ValueError):
        ArithmeticFunction("bad", lambda n: n + 1)


def test_value_at_zero_and_negatives():
    assert sigma(1)(0) == 0
    assert identity()(0) == 0
    with pytest.raises(ValueError):
        sigma(1)(-3)


def test_tilde():
    assert tilde(sigma(1))(2) == Fraction(3, 2)
    tid = tilde(identity())
    assert all(tid(n) == 1 for n in range(1, 20))
    assert tilde(one())(4) == Fraction(1, 4)
    assert tilde(sigma(1)).non_vanishing


def test_from_table():
    fn = from_table([1, 2, 100])
    assert fn(3) == 100
    assert fn.non_vanishing
    with pytest.raises(IndexError):
        from_table([1])(2)
    with pytest.raises(ValueError):
        from_table([2, 1])
    like_sigma = from_table([1, 3, 4, 7])
    s = sigma(1)
    assert all(like_sigma(n) == s(n) for n in range(1, 5))
    rational_table = from_table([1, "1/2", "2/3"])
    assert rational_table(2) == Fraction(1, 2)


def test_non_vanishing_flag_checked_on_evaluation():
    bad = ArithmeticFunction("claims-nonzero", lambda n: 1 if n < 3 else 0, non_vanishing=True)
    with pytest.raises(ArithmeticError):
        bad(3)


def test_float_evaluator_results_are_refused():
    halves = ArithmeticFunction("f", lambda n: 1 if n == 1 else 0.5, non_vanishing=True)
    with pytest.raises(TypeError):
        halves(2)
    with pytest.raises(TypeError):
        ArithmeticFunction("g", lambda n: 1.0)


def test_descriptor_grammar(tmp_path):
    assert from_descriptor("one").name == "one"
    assert from_descriptor("id")(5) == 5
    assert from_descriptor("sigma:3")(2) == 9
    assert from_descriptor("tilde:sigma:1")(2) == Fraction(3, 2)
    path = tmp_path / "table.json"
    path.write_text(json.dumps([1, "3/2", 7]))
    fn = from_descriptor(f"table:{path}")
    assert fn(2) == Fraction(3, 2)
    assert fn(3) == 7
    for bad in ("sigma", "sigma:x", "gamma", "tilde:", "id2"):
        with pytest.raises(ValueError):
            from_descriptor(bad)


def test_cumulative_product_basics():
    products = CumulativeProduct(identity())
    assert products.value(0) == 1
    assert products.value(5) == 120
    assert products.window(2, 4) == 12
    assert products.window(0, 9) == 1
    assert all(CumulativeProduct(one()).window(m, 9) == 1 for m in range(10))
    assert all(CumulativeProduct(identity()).window(1, k) == k for k in range(1, 12))
    with pytest.raises(ValueError):
        products.window(5, 4)


@given(st.integers(min_value=0, max_value=50), st.data())
@settings(max_examples=60, deadline=None)
def test_window_equals_ratio(n, data):
    m = data.draw(st.integers(min_value=0, max_value=n))
    for h in (identity(), sigma(1)):
        products = CumulativeProduct(h)
        assert products.window(m, n) == products.value(n) / products.value(n - m)


def test_sigma_multiplicative_on_coprime_pairs():
    for ell in (1, 3):
        s = sigma(ell)
        for a in range(1, 101):
            for b in range(1, 101 // a + 1):
                if a * b <= 100 and gcd(a, b) == 1:
                    assert s(a * b) == s(a) * s(b)
