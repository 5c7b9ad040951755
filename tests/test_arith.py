"""Arithmetic-function registry, the tilde transform, and table functions."""

import json
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from darcais.arith import (
    ArithmeticFunction,
    divisor_power_sum,
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


def test_from_table():
    fn = from_table([1, 2, 100])
    assert fn(3) == 100
    with pytest.raises(IndexError):
        from_table([1])(2)
    with pytest.raises(ValueError):
        from_table([2, 1])
    like_sigma = from_table([1, 3, 4, 7])
    s = sigma(1)
    assert all(like_sigma(n) == s(n) for n in range(1, 5))
    rational_table = from_table([1, "1/2", "2/3"])
    assert rational_table(2) == Fraction(1, 2)


def test_float_evaluator_results_are_refused():
    halves = ArithmeticFunction("f", lambda n: 1 if n == 1 else 0.5)
    with pytest.raises(TypeError):
        halves(2)
    with pytest.raises(TypeError):
        ArithmeticFunction("g", lambda n: 1.0)
    # an int result is stored as a Fraction at once, but a bool is no int here
    bools = ArithmeticFunction("b", lambda n: n if n < 3 else True)
    assert type(bools(2)) is Fraction
    with pytest.raises(TypeError):
        bools(3)


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


def test_sigma_multiplicative_on_coprime_pairs():
    for ell in (1, 3):
        s = sigma(ell)
        for a in range(1, 101):
            for b in range(1, 101 // a + 1):
                if a * b <= 100 and gcd(a, b) == 1:
                    assert s(a * b) == s(a) * s(b)


@given(st.integers(0, 12), st.integers(0, 300))
@settings(max_examples=150, deadline=None)
def test_sigma_values_are_the_divisor_sums_as_ints(ell, max_n):
    # one divisor sieve against trial division, n by n
    values = sigma(ell).values(max_n)
    assert values == [divisor_power_sum(n, ell) for n in range(1, max_n + 1)]
    assert all(type(v) is int for v in values)


_entries = st.builds(Fraction, st.integers(-9, 9), st.integers(1, 9)) | st.integers(-50, 50)


@given(st.lists(_entries, max_size=25), st.data())
@settings(max_examples=100, deadline=None)
def test_values_read_through_the_memoized_calls(rest, data):
    table = from_table([1, *rest])
    size = len(rest) + 1
    for fn in (one(), identity(), table, tilde(table), from_descriptor("tilde:sigma:2")):
        max_n = data.draw(st.integers(0, size), label=fn.name)
        values = list(fn.values(max_n))
        assert values == [fn(n) for n in range(1, max_n + 1)]
        assert all(type(v) is Fraction for v in values)
    for fn in (table, tilde(table)):
        with pytest.raises(IndexError):
            list(fn.values(size + 1))
