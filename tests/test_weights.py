"""Partition weights, closed forms, and the independent coefficient routes.

The literal inductive sum for the h-weight is reimplemented here, without
memoization, as the reference against the production implementation.
"""

import gc
from fractions import Fraction
from itertools import permutations
from math import comb, factorial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from darcais import weights
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
from darcais.partitions import (
    compositions_of,
    multinomial,
    multiplicities,
    orbit_of,
    partitions_of,
)
from darcais.recursion import coefficient_table, coefficient_top_band, polynomial_sequence
from darcais.weights import (
    coefficient_composition_sum,
    coefficient_from_weights,
    coefficient_h_id,
    coefficient_h_one,
    conversion_holds,
    conversion_scan,
    g_weight,
    h_weight,
    h_weight_id,
    h_weight_one,
    orbit_reciprocal_sum,
    orbit_reciprocal_sum_direct,
    orbit_weight_sum,
    orbit_weight_sum_direct,
)


def h_weight_literal(h, mu, n):
    """Reference: the unmemoized inductive sum, peeling the last part."""
    mu = tuple(mu)
    if not mu:
        return Fraction(1)
    threshold = sum(mu) + len(mu)
    if n < threshold:
        return Fraction(0)
    last, head = mu[-1], mu[:-1]
    total = Fraction(0)
    for k in range(threshold - 1, n):
        window = Fraction(1)
        for j in range(last):
            window *= h(k - j)
        total += window * h_weight_literal(h, head, k - last)
    return total


def all_compositions_up_to(size):
    yield ()
    for d in range(1, size + 1):
        for k in range(1, d + 1):
            yield from compositions_of(d, k)


def test_g_weight():
    assert g_weight(sigma(1), (1,)) == 3
    assert g_weight(sigma(1), ()) == 1
    assert g_weight(sigma(1), (2, 1)) == 12
    for mu in partitions_of(5):
        reference = g_weight(identity(), mu)
        for lam in orbit_of(mu):
            assert g_weight(identity(), lam) == reference


def test_h_weight_itemized_values():
    h1, hid = one(), identity()
    for n in range(2, 25):
        assert h_weight(h1, (1,), n) == n - 1
        assert h_weight(hid, (1,), n) == comb(n, 2)
    for n in range(3, 25):
        assert h_weight(h1, (2,), n) == n - 2
        assert h_weight(hid, (2,), n) == 2 * comb(n, 3)
    for n in range(4, 25):
        assert h_weight(h1, (1, 1), n) == comb(n - 2, 2)
        assert h_weight(hid, (1, 1), n) == 3 * comb(n, 4)
    for n in range(5, 25):
        assert h_weight(h1, (1, 2), n) == comb(n - 3, 2)
        assert h_weight(h1, (2, 1), n) == comb(n - 3, 2)
        assert h_weight(hid, (1, 2), n) == 12 * comb(n, 5)
        assert h_weight(hid, (2, 1), n) == 8 * comb(n, 5)
    assert h_weight(hid, (1, 2), 5) == 12
    assert h_weight(hid, (2, 1), 5) == 8


def test_h_weight_vanishes_below_threshold():
    for h in (one(), identity(), sigma(1)):
        assert h_weight(h, (1,), 1) == 0
        assert h_weight(h, (3, 2), 6) == 0
        assert h_weight(h, (), 0) == 1


def test_h_weight_matches_literal_sum():
    for h in (one(), identity(), sigma(1)):
        for mu in all_compositions_up_to(5):
            for n in range(0, 13):
                assert h_weight(h, mu, n) == h_weight_literal(h, mu, n), (h.name, mu, n)


def test_h_weight_scalar_convention():
    # single-part compositions reduce to sum_{k=mu}^{n-1} h_mu(k)
    s = sigma(1)
    for part in (1, 2, 3):
        for n in range(part + 1, 12):
            expected = Fraction(0)
            for k in range(part, n):
                window = Fraction(1)
                for j in range(part):
                    window *= s(k - j)
                expected += window
            assert h_weight(s, (part,), n) == expected


def test_closed_forms_match_recursive():
    for mu in all_compositions_up_to(6):
        for n in range(0, 17):
            assert h_weight_one(mu, n) == h_weight(one(), mu, n), (mu, n)
            assert h_weight_id(mu, n) == h_weight(identity(), mu, n), (mu, n)


def test_closed_form_examples():
    assert h_weight_one((2,), 4) == 2
    assert h_weight_one((), 9) == 1
    assert h_weight_id((2,), 3) == 2
    assert h_weight_id((1, 1), 4) == 3


def test_h_weight_one_orbit_invariance():
    for mu in partitions_of(6):
        for lam in set(permutations(mu)):
            for n in (6, 9, 13):
                assert h_weight(one(), lam, n) == h_weight(one(), mu, n)


def test_orbit_weight_sum_examples():
    assert orbit_weight_sum(identity(), (2, 1), 5) == 20
    for n in range(4, 20):
        assert orbit_weight_sum(one(), (2, 1), n) == 2 * comb(n - 3, 2)
    assert orbit_weight_sum(sigma(1), (), 7) == 1


def test_orbit_weight_engine_matches_direct_sum():
    for h in (one(), identity(), sigma(1)):
        for size in range(0, 8):
            for mu in partitions_of(size):
                for n in range(0, 14):
                    assert orbit_weight_sum(h, mu, n) == orbit_weight_sum_direct(h, mu, n)


def test_orbit_weight_sum_h_one_closed_identity():
    # orbit sum for h = one collapses to multinomial(length; multiplicities) * C(n-|mu|, length)
    h1 = one()
    for size in range(0, 13):
        for mu in partitions_of(size):
            length = len(mu)
            orbit_factor = multinomial(length, list(multiplicities(mu).values()))
            for n in range(0, 18):
                expected = orbit_factor * comb(n - size, length) if n - size >= length else 0
                assert orbit_weight_sum(h1, mu, n) == expected


def test_coefficient_from_weights_examples():
    assert coefficient_from_weights(sigma(1), one(), 5, 4) == 12
    assert coefficient_from_weights(sigma(1), one(), 4, 2) == 17
    assert coefficient_from_weights(sigma(1), identity(), 2, 1) == 3
    assert coefficient_from_weights(sigma(1), sigma(1), 5, 5) == 1
    with pytest.raises(ValueError):
        coefficient_from_weights(sigma(1), identity(), 3, 0)
    with pytest.raises(ValueError):
        coefficient_from_weights(sigma(1), identity(), 3, 4)


def test_weight_route_matches_triangle():
    for g in (one(), sigma(1), tilde(sigma(1))):
        for h in (one(), identity(), sigma(1)):
            table = coefficient_table(g, h, 10)
            for n in range(1, 11):
                for m in range(1, n + 1):
                    assert coefficient_from_weights(g, h, n, m) == table.entry(n, m)


def test_coefficient_h_one_examples():
    assert coefficient_h_one(sigma(1), 5, 2) == 38
    assert coefficient_h_one(sigma(1), 4, 3) == 9
    for n in range(2, 12):
        for m in range(1, n):
            assert coefficient_h_one(one(), n, m) == comb(n - 1, m - 1)


def test_orbit_reciprocal_sum():
    assert orbit_reciprocal_sum((1,)) == Fraction(1, 2)
    assert orbit_reciprocal_sum((2, 1)) == Fraction(1, 6)
    for size in range(0, 9):
        for mu in partitions_of(size):
            assert orbit_reciprocal_sum(mu) == orbit_reciprocal_sum_direct(mu)


def test_coefficient_h_id_examples():
    assert coefficient_h_id(sigma(1), 3, 2) == 9
    assert coefficient_h_id(sigma(1), 4, 2) == 59
    assert coefficient_h_id(one(), 4, 2) == 11  # |s(4, 2)|


def test_specialized_routes_match_triangle():
    for g in (one(), identity(), sigma(1)):
        table_one = coefficient_table(g, one(), 12)
        table_id = coefficient_table(g, identity(), 12)
        for n in range(1, 13):
            for m in range(1, n + 1):
                assert coefficient_h_one(g, n, m) == table_one.entry(n, m)
                assert coefficient_h_id(g, n, m) == table_id.entry(n, m)


def test_conversion_examples():
    assert conversion_holds(sigma(1), 3, 2)
    assert coefficient_h_id(sigma(1), 3, 2) / factorial(3) == Fraction(3, 2)
    assert coefficient_h_one(tilde(sigma(1)), 3, 2) / factorial(2) == Fraction(3, 2)
    assert conversion_scan(identity(), 9) is None
    assert conversion_scan(one(), 9) is None
    # Lah specialization: A(id, id)[n][m] / n! = C(n-1, m-1) / m!
    for n in range(1, 9):
        for m in range(1, n + 1):
            lhs = coefficient_h_id(identity(), n, m) / factorial(n)
            assert lhs == Fraction(comb(n - 1, m - 1), factorial(m))


def test_composition_sum_route():
    assert coefficient_composition_sum(sigma(1), 3, 2, "one") == 6
    assert coefficient_composition_sum(sigma(1), 2, 1, "id") == 3
    for n in range(1, 9):
        for m in range(1, n + 1):
            assert coefficient_composition_sum(one(), n, m, "one") == comb(n - 1, m - 1)
            assert coefficient_composition_sum(sigma(1), n, m, "one") == coefficient_h_one(
                sigma(1), n, m
            )
            assert coefficient_composition_sum(sigma(1), n, m, "id") == coefficient_h_id(
                sigma(1), n, m
            )
    with pytest.raises(ValueError):
        coefficient_composition_sum(sigma(1), 3, 2, "sigma")


# non-vanishing rational tables: 1 at n = 1, then up to 7 entries +-p/q
_entries = st.builds(
    lambda sign, p, q: Fraction(sign * p, q),
    st.sampled_from((1, -1)), st.integers(1, 9), st.integers(1, 9),
)
_tables = st.lists(_entries, max_size=7).map(lambda rest: [1, *rest])


@given(_tables, _tables)
@settings(max_examples=200, deadline=None)
def test_routes_agree_on_random_rational_tables(g_values, h_values):
    g, h = from_table(g_values), from_table(h_values)
    max_n = min(7, len(g_values), len(h_values))
    table = coefficient_table(g, h, max_n)
    polys = polynomial_sequence(g, h, max_n)
    band = coefficient_top_band(g, h, max_n, 2)
    products = CumulativeProduct(h)
    for n in range(1, max_n + 1):
        for m in range(1, n + 1):
            entry = table.entry(n, m)
            assert polys[n][m] * products.value(n) == entry, (n, m)
            assert coefficient_from_weights(g, h, n, m) == entry, (n, m)
        for j in range(min(2, n) + 1):
            assert band[n][j] == table.entry(n, n - j), (n, j)


def test_builtin_descriptors_share_one_instance():
    assert sigma(1) is from_descriptor("sigma:1") is from_descriptor("sigma:01")
    assert one() is from_descriptor(" one")
    assert identity() is from_descriptor("id")
    assert sigma(3) is not sigma(1)
    assert tilde(sigma(1)) is not tilde(sigma(1))


def test_weight_memos_are_bounded():
    for i in range(200):
        h = from_table([1, i + 2, 3, 5, 7, 11], name="lru-probe")
        h_weight(h, (1, 2), 5)
        orbit_weight_sum(h, (2, 1), 5)
        coefficient_from_weights(sigma(1), h, 4, 2)
    del h
    gc.collect()
    alive = [
        obj for obj in gc.get_objects()
        if isinstance(obj, ArithmeticFunction) and obj.name == "lru-probe"
    ]
    assert len(alive) <= weights._ENGINES


def test_equal_names_never_share_a_memo():
    g_pair = (from_table([1, 2, 3, 4], name="t"), from_table([1, 5, 3, 4], name="t"))
    h_pair = (from_table([1, 2, 3, 4], name="t"), from_table([1, 3, 3, 4], name="t"))
    for g, h in [(g, identity()) for g in g_pair] + [(sigma(1), h) for h in h_pair]:
        assert coefficient_from_weights(g, h, 4, 2) == coefficient_table(g, h, 4).entry(4, 2)
    assert coefficient_from_weights(g_pair[0], identity(), 4, 2) != coefficient_from_weights(
        g_pair[1], identity(), 4, 2
    )
    assert coefficient_from_weights(sigma(1), h_pair[0], 4, 2) != coefficient_from_weights(
        sigma(1), h_pair[1], 4, 2
    )
