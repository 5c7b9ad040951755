"""Shape predicates, margins, counterexample search, and the exact scans."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from darcais import shapes
from darcais.arith import from_table, identity, one, sigma, tilde
from darcais.exact import Series, X
from darcais.recursion import coefficient_table, value_sequence
from darcais.shapes import (
    counterexample_search,
    delta_scan,
    hook_poly_log_concavity_scan,
    hook_poly_top_inequality_scan,
    is_log_concave,
    is_ultra_log_concave,
    is_unimodal,
    lehmer_scan,
    top_margin,
    top_margin_lower_bound,
    transfer_check,
)

from oracles import implication_chain_holds


def test_reference_quadratics():
    # x^2 + 2x + 5: unimodal, not log-concave (coefficients listed from degree 0)
    assert is_unimodal([5, 2, 1]) is None
    assert is_log_concave([5, 2, 1]) == 1
    # x^2 + 2x + 3: log-concave, not ultra-log-concave
    assert is_log_concave([3, 2, 1]) is None
    assert is_ultra_log_concave([3, 2, 1]) == 1


def test_predicate_basics():
    assert is_log_concave([1] * 8) is None
    assert is_unimodal([1, 3, 3, 2]) is None
    assert is_unimodal([2, 1, 2]) == 2
    with pytest.raises(ValueError):
        is_log_concave([1, -1, 1])
    # n is the degree, len(seq) - 1: [1, 2] / (C(1, 0), C(1, 1)) is log-concave,
    # the row C(2, k) is ultra-log-concave with equality, and [1, 1, 1] is not
    assert is_ultra_log_concave([1, 2]) is None
    assert is_ultra_log_concave([1, 2, 1]) is None
    assert is_ultra_log_concave([1, 1, 1]) == 1


def test_predicates_refuse_floats():
    with pytest.raises(TypeError):
        is_log_concave([0.5, 1, 0.25])
    # the values are compared as given, and "10" < "9" as text
    with pytest.raises(TypeError):
        is_unimodal(["1", "10", "9"])


# log-concave => unimodal needs a contiguous support (no interior zeros),
# which is how all coefficient sequences in this package look; zeros may
# only appear at the edges
supported_sequences = st.tuples(
    st.integers(min_value=0, max_value=2),
    st.lists(st.fractions(min_value="1/6", max_value=6, max_denominator=6),
             min_size=1, max_size=6),
    st.integers(min_value=0, max_value=2),
).map(lambda t: [0] * t[0] + t[1] + [0] * t[2])


@given(supported_sequences)
@settings(max_examples=120, deadline=None)
def test_implication_chain(seq):
    assert implication_chain_holds(seq)
    ultra = is_ultra_log_concave(seq)
    log = is_log_concave(seq)
    if ultra is None:
        assert log is None
    if log is None:
        assert is_unimodal(seq) is None


@given(
    st.lists(st.integers(min_value=0, max_value=50), max_size=8),
    st.fractions(min_value="1/50", max_value=50, max_denominator=50),
)
@settings(max_examples=200, deadline=None)
def test_predicates_agree_on_ints_and_their_rational_multiples(ints, scale):
    # the predicates compare the values as given, so an int sequence is
    # judged in ints; a positive rescaling changes none of the three shapes
    scaled = [Fraction(v) / scale for v in ints]
    for predicate in (is_unimodal, is_log_concave, is_ultra_log_concave):
        assert predicate(ints) == predicate(scaled)


def test_top_margin_examples():
    assert top_margin(sigma(1), identity(), 2) == 9
    assert top_margin(one(), one(), 3) == 3
    with pytest.raises(ValueError):
        top_margin(sigma(1), identity(), 1)


def test_top_margin_matches_triangle():
    for g in (one(), identity(), sigma(1)):
        for h in (one(), identity(), sigma(1)):
            table = coefficient_table(g, h, 25)
            for n in range(2, 26):
                expected = (
                    Fraction(table.entry(n, n - 1)) ** 2
                    - Fraction(table.entry(n, n - 2)) * table.entry(n, n)
                )
                assert top_margin(g, h, n) == expected


def test_top_margin_lower_bound_holds():
    for g in (one(), identity(), sigma(1)):
        for h in (one(), identity(), sigma(1)):
            for n in range(2, 51):
                assert top_margin(g, h, n) >= top_margin_lower_bound(g, h, n)


def test_delta_scan_returns_its_rows_and_first_failure():
    rows, result = delta_scan(sigma(1), identity(), 12)
    assert rows == [(n, top_margin(sigma(1), identity(), n)) for n in range(2, 13)]
    assert result == (11, None)
    # g = [1, 1, 8] fails at n = 3 and every later n; the rows go on past it
    rows, result = delta_scan(from_table([1, 1, 8]), one(), 5)
    assert rows[:2] == [(2, 1), (3, -4)] and len(rows) == 4
    assert result == (2, 3)
    with pytest.raises(ValueError):
        delta_scan(sigma(1), identity(), 1)
    with pytest.raises(IndexError):  # g(3) is past the table
        delta_scan(from_table([1, 1]), one(), 3)


def test_counterexample_search_regression():
    # frozen witnesses: g = [1, 1, 8] breaks the top inequality at n = 3
    witness = counterexample_search(one())
    assert witness is not None
    assert witness.g_values == (1, 1, 8)
    assert witness.n == 3
    assert witness.margin == -4
    witness_id = counterexample_search(identity())
    assert witness_id.g_values == (1, 1, 8)
    assert witness_id.n == 3
    assert witness_id.margin == -7
    # the stored table really does produce a negative margin
    g = from_table([1, 1, 8])
    assert top_margin(g, one(), 3) < 0
    assert top_margin(g, identity(), 3) < 0


def test_hook_poly_scans_small():
    # (comparisons made, first failing n): one per n in 1..40, then 2..60
    assert hook_poly_log_concavity_scan(40) == (40, None)
    assert hook_poly_top_inequality_scan(60) == (59, None)
    # n = 2 by hand: b = (2, 5/2, 1/2); (5/2)^2 > 2 * 1/2
    assert Fraction(5, 2) ** 2 > 1


def test_hook_log_concavity_scan_checks_each_row_once(monkeypatch):
    calls = []
    real = shapes.is_log_concave
    monkeypatch.setattr(shapes, "is_log_concave", lambda seq: calls.append(1) or real(seq))
    assert hook_poly_log_concavity_scan(30) == (30, None)
    assert len(calls) == 30


def test_hook_log_concavity_scan_fails_a_log_concave_row_that_is_not_unimodal(monkeypatch):
    # [1, 0, 0, 1] is log-concave (every a_j^2 >= a_{j-1} a_{j+1} is 0 >= 0)
    # but not unimodal, so the scan must stop at the row that holds it
    assert is_log_concave([1, 0, 0, 1]) is None and is_unimodal([1, 0, 0, 1]) == 3
    real = shapes._shifted_rows

    def rows_with_a_gap(max_n):
        rows = real(max_n)
        rows[7] = [1, 0, 0, 1]
        return rows

    monkeypatch.setattr(shapes, "_shifted_rows", rows_with_a_gap)
    assert hook_poly_log_concavity_scan(12) == (7, 7)


def test_scan_route_matches_hook_sums():
    # the integer-shift route driving the scans equals the literal
    # hook-length polynomials once the n! denominator is restored
    from math import factorial

    from darcais.recursion import shifted_coefficient_numerators
    from darcais.series import hook_length_polynomial

    table = coefficient_table(sigma(1), identity(), 10)
    for n in range(11):
        numerators = shifted_coefficient_numerators(table.row(n))
        shifted = [Fraction(c, factorial(n)) for c in numerators]
        assert shifted == list(hook_length_polynomial(n).padded(n + 1))


def test_shifted_rows_are_the_recursion_at_x_plus_1():
    # the hook scan reads its rows off prod (1 - q^k)^(-x-1); the defining
    # recursion at X + 1 gives the same reduced polynomials
    for max_n in (0, 1, 2, 17, 80):
        recursion = value_sequence(sigma(1), identity(), X + 1, max_n)
        assert shapes._shifted_rows(max_n) == [p.numerators for p in recursion]


def test_shifted_rows_are_positive_multiples_of_the_triangle_shift():
    # the triangle + binomial shift route is the oracle for the rows the
    # hook scan reads off the Euler-product power prod (1 - q^k)^(-x-1)
    from darcais.recursion import shifted_coefficient_numerators

    table = coefficient_table(sigma(1), identity(), 60)
    rows = shapes._shifted_rows(60)
    assert len(rows) == 61
    for n, row in enumerate(rows):
        expected = shifted_coefficient_numerators(table.row(n))
        ratio = Fraction(row[0], expected[0])
        assert ratio > 0 and list(row) == [ratio * c for c in expected]


def test_lehmer_scan_small():
    values, result = lehmer_scan(40)
    assert result == (40, None)
    assert values[1] == -24
    assert values[2] == 252
    with pytest.raises(ValueError):
        lehmer_scan(0)


def test_transfer_check():
    for g in (one(), identity(), sigma(1)):
        assert transfer_check(g, 15) == (15, None)
    # for g = id the h = one side is the ultra-log-concave binomial row,
    # so the premise is non-vacuous
    source = coefficient_table(tilde(identity()), one(), 15)
    assert all(
        is_ultra_log_concave(source.row(n)) is None
        for n in range(1, 16)
    )


def test_lehmer_scan_counts_a_failing_constant_term(monkeypatch):
    # the n = 0 comparison is one check made, so a failure there counts 1
    euler = shapes.euler_product_power
    monkeypatch.setattr(shapes, "euler_product_power",
                        lambda r, order: Series([2, *euler(r, order).coefficients[1:]]))
    assert lehmer_scan(5)[1] == (1, (0, "Euler-product mismatch"))
