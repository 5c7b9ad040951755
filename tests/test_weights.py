"""Partition weights, closed forms, and the independent coefficient routes.

The literal inductive sum for the h-weight and the direct orbit sums come
from `oracles`, written without memoization, as the reference against the
production implementation.
"""

import gc
import random
from collections import Counter
from fractions import Fraction
from itertools import permutations
from math import comb, factorial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from darcais import partitions, weights
from darcais.arith import (
    ArithmeticFunction,
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
    partitions_of,
)
from darcais.recursion import coefficient_table, coefficient_top_band, polynomial_sequence
from darcais.series import generating_series_h_id, generating_series_h_one
from darcais.weights import (
    coefficient_composition_sum,
    coefficient_from_weights,
    coefficient_h_id,
    coefficient_h_one,
    conversion_scan,
    h_weight,
    h_weight_id,
    h_weight_one,
    orbit_weight_sum,
)

from oracles import (
    g_weight,
    h_weight_literal,
    orbit_of,
    orbit_reciprocal_sum,
    orbit_reciprocal_sum_direct,
    orbit_weight_sum_direct,
    triangle_literal,
)


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
            orbit_factor = multinomial(length, list(Counter(mu).values()))
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


def test_reciprocal_sum_is_s_factorial_times_r():
    # the memoized R'(mu) is the int s! R(mu), s = |mu| + len(mu)
    for size in range(13):
        for mu in partitions_of(size):
            scaled = weights._reciprocal_sum(mu)
            assert type(scaled) is int
            assert scaled == factorial(size + len(mu)) * orbit_reciprocal_sum_direct(mu), mu


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


# pairwise coprime denominators: G = lcm of g(2..s+1) grows with s, and the
# partitions of one s, of different lengths, take different powers of G
COPRIME_G = from_table([1, "1/2", "2/3", "-3/5", "5/7", "-1/11", "4/13", "-9/17"])
RATIONAL_H = from_table([1, "3/2", -2, "5/3", 7, "1/4", 3, "-2/9"])


def test_partition_sum_scales_g_per_partition_length():
    routes = [
        (h, lambda g, n, m, h=h: coefficient_from_weights(g, h, n, m))
        for h in (one(), identity(), sigma(1), RATIONAL_H)
    ]
    routes += [(one(), coefficient_h_one), (identity(), coefficient_h_id)]
    for h, route in routes:
        table = coefficient_table(COPRIME_G, h, 8)
        for n in range(5, 9):
            for m in range(1, n - 3):  # n - m >= 4
                assert route(COPRIME_G, n, m) == table.entry(n, m), (h.name, n, m)


def test_term_tables_are_rebuilt_after_eviction():
    # more (g, size) tables than the memo holds, read in a shuffled order by
    # all three partition routes, so tables are evicted and rebuilt between
    # the reads of one g
    max_n = 8
    fresh = [from_table([1, k + 2, "1/3", -k - 1, 5, "7/2", 2, "-4/9"], name="evict")
             for k in range(4)]
    gs = [COPRIME_G, sigma(1)] + fresh + [tilde(g) for g in (sigma(1), *fresh[:3])]
    assert len(gs) * max_n > weights._g_terms.cache_info().maxsize
    routes = [
        (RATIONAL_H, lambda g, n, m: coefficient_from_weights(g, RATIONAL_H, n, m)),
        (one(), coefficient_h_one),
        (identity(), coefficient_h_id),
    ]
    tables = {(id(g), id(h)): coefficient_table(g, h, max_n) for g in gs for h, _ in routes}
    jobs = [(g, h, route, n, m) for g in gs for h, route in routes
            for n in range(1, max_n + 1) for m in range(1, n + 1)]
    random.Random(16).shuffle(jobs)
    weights._g_terms.cache_clear()
    for g, h, route, n, m in jobs:
        assert route(g, n, m) == tables[id(g), id(h)].entry(n, m), (g.name, h.name, n, m)
    assert weights._g_terms.cache_info().misses > len(gs) * max_n  # some were rebuilt


@pytest.mark.parametrize("g, h", [
    (sigma(1), identity()),
    (one(), sigma(1)),
    (tilde(sigma(1)), one()),
    (sigma(1), tilde(identity())),
    (COPRIME_G, RATIONAL_H),
], ids=["builtins", "builtin-h", "tilde-g", "tilde-h", "rational-tables"])
def test_public_weight_routes_return_fractions(g, h):
    # an int here would turn `/` into float division in the callers
    values = [
        coefficient_from_weights(g, h, 6, 3),
        coefficient_from_weights(g, h, 4, 4),
        coefficient_h_one(g, 6, 3),
        coefficient_h_one(g, 5, 5),
        coefficient_h_id(g, 6, 3),
        coefficient_h_id(g, 5, 5),
        h_weight(h, (2, 1), 6),
        h_weight(h, (2, 1), 2),
        h_weight(h, (), 3),
        orbit_weight_sum(h, (2, 1), 6),
        orbit_weight_sum(h, (3,), 2),
        orbit_weight_sum(h, (), 0),
        h_weight_one((1, 2), 6),
        h_weight_id((1, 2), 6),
        h_weight_id((3,), 1),
    ]
    assert [type(value) for value in values] == [Fraction] * len(values)
    assert conversion_scan(g, 6) == (21, None)


def test_conversion_examples():
    assert conversion_scan(sigma(1), 3) == (6, None)
    assert coefficient_h_id(sigma(1), 3, 2) / factorial(3) == Fraction(3, 2)
    assert coefficient_h_one(tilde(sigma(1)), 3, 2) / factorial(2) == Fraction(3, 2)
    assert conversion_scan(identity(), 9) == (45, None)
    assert conversion_scan(one(), 9) == (45, None)
    # Lah specialization: A(id, id)[n][m] / n! = C(n-1, m-1) / m!
    for n in range(1, 9):
        for m in range(1, n + 1):
            lhs = coefficient_h_id(identity(), n, m) / factorial(n)
            assert lhs == Fraction(comb(n - 1, m - 1), factorial(m))


def test_conversion_scan_reports_the_first_failing_index(monkeypatch):
    h_one = weights.coefficient_h_one

    def off_at_3_2(g, n, m):
        return h_one(g, n, m) + ((n, m) == (3, 2))

    monkeypatch.setattr(weights, "coefficient_h_one", off_at_3_2)
    # (1, 1), (2, 1), (2, 2), (3, 1) hold; (3, 2) is the fifth comparison
    for g in (one(), identity(), sigma(1)):
        assert conversion_scan(g, 6) == (5, (3, 2))


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
    for n in range(1, max_n + 1):
        for m in range(1, n + 1):
            entry = table.entry(n, m)
            assert polys[n][m] * table.normalizer(n) == entry, (n, m)
            assert coefficient_from_weights(g, h, n, m) == entry, (n, m)
        for j in range(min(2, n) + 1):
            assert band[n][j] == table.entry(n, n - j), (n, j)
    # the closed forms, the composition sums and the generating series,
    # for h = one and h = id
    max_n = min(7, len(g_values))
    for h, closed_form, series in (
        (one(), coefficient_h_one, generating_series_h_one(g, max_n)),
        (identity(), coefficient_h_id, generating_series_h_id(g, max_n)),
    ):
        table = coefficient_table(g, h, max_n)
        for n in range(1, max_n + 1):
            for m in range(1, n + 1):
                entry = table.entry(n, m)
                assert closed_form(g, n, m) == entry, (h.name, n, m)
                brute = coefficient_composition_sum(g, n, m, h.name)
                assert type(brute) is Fraction and brute == entry, (h.name, n, m)
                assert series.coefficient(n)[m] * table.normalizer(n) == entry, (h.name, n, m)


# g tables with zeros, so their term tables hold zero terms: zero at g(2)
# zeroes every partition with a part 1, zero at g(3) every one with a 2
SPARSE_MAX_N = 12
SPARSE_GS = [
    from_table([1, 0, 3, "1/2", 2, -1, 4, 5, "2/3", 1, 1, 2], name="zero-at-2"),
    from_table([1, 2, 0, -3, "5/2", 0, 1, 7, 1, "1/3", 2, 1], name="zero-at-3"),
    from_table([1, 0, 0, 4, 0, "-1/2", 3, 0, 1, 2, 0, 5], name="mostly-zero"),
    from_table([1, "1/2", 3, -2, "7/3", 1, "-5/4", 2, 6, "1/9", -1, 3], name="dense"),
]
SPARSE_H = from_table([1, "3/2", -2, "5/3", 7, "1/4", 3, "-2/9", "7/5", -1, "4/3", 2])


@pytest.mark.parametrize("g", SPARSE_GS, ids=[g.name for g in SPARSE_GS])
def test_weight_routes_match_the_literal_triangle_on_g_tables_with_zeros(g):
    # every m, so both ends of the prefix cut (m = 1, n - 1, n) are read, on
    # the engine of a rational h and of two builtins and on both closed forms
    gl = [None] + [g(k) for k in range(1, SPARSE_MAX_N + 1)]
    routes = [(h, lambda g, n, m, h=h: coefficient_from_weights(g, h, n, m))
              for h in (SPARSE_H, one(), identity())]
    routes += [(one(), coefficient_h_one), (identity(), coefficient_h_id)]
    for h, route in routes:
        hl = [None] + [h(k) for k in range(1, SPARSE_MAX_N + 1)]
        literal = triangle_literal(gl, hl, SPARSE_MAX_N)
        for n in range(1, SPARSE_MAX_N + 1):
            for m in range(1, n + 1):
                assert route(g, n, m) == literal[n][m], (h.name, n, m)


def test_closed_form_h_id_reads_r_prime_for_the_prefix_only():
    # A[46][1] reads the one partition (45,) of 89,134: R' for all of them
    # took 12 s and twice the memory
    weights._reciprocal_sum.cache_clear()
    expected = coefficient_table(sigma(1), identity(), 46).entry(46, 1)
    assert coefficient_h_id(sigma(1), 46, 1) == expected
    assert weights._reciprocal_sum.cache_info().misses < 100


def test_weight_route_builds_rows_for_the_prefix_only():
    engine = weights._orbit_sum_engine(identity())
    before = len(engine._rows)
    expected = coefficient_table(sigma(1), identity(), 46).entry(46, 1)
    assert coefficient_from_weights(sigma(1), identity(), 46, 1) == expected
    assert len(engine._rows) - before < 100


@pytest.mark.parametrize("h", [identity(), tilde(sigma(1))], ids=["id", "rational"])
def test_engine_columns_stay_within_the_rows(h):
    # the columns are a plain dict beside the rows: every entry W(mu, n) of
    # a column is an entry of the row of mu, save W((), n) = 1
    max_n = 25
    engine = weights._WeightMemo(h, weights._distinct_removals)
    engine._read_h(max_n)
    for n in range(1, max_n + 1):
        for m in range(1, n + 1):
            prefix = [mu for mu in weights._by_length(n - m) if len(mu) <= m]
            assert engine.column(n - m, n, prefix) == [engine.value(mu, n) for mu in prefix], (n, m)
    size_zero = sum(size == 0 for size, _ in engine._columns)
    column_entries = sum(map(len, engine._columns.values()))
    assert column_entries <= sum(map(len, engine._rows.values())) + size_zero


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
    # every module-level memo, R(mu) included, is a bounded LRU cache, and
    # the partition helpers keep no module state at all
    containers = [
        f"{module.__name__}.{name}"
        for module in (weights, partitions)
        for name, value in vars(module).items()
        if not name.startswith("__") and isinstance(value, (dict, list, set))
    ]
    assert containers == []
    for size in range(14):
        orbit_reciprocal_sum(next(partitions_of(size)))
        coefficient_h_id(sigma(1), size + 1, 1)
    memos = [
        value for value in vars(weights).values()
        if callable(getattr(value, "cache_info", None))
    ]
    assert len(memos) >= 4
    for memo in memos:
        info = memo.cache_info()
        assert info.maxsize is not None and info.currsize <= info.maxsize


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


def test_negative_n_is_refused_by_every_h_weight():
    for h in (one(), identity(), sigma(1)):
        for mu in ((), (1,), (2, 1)):
            with pytest.raises(ValueError):
                h_weight(h, mu, -1)
            with pytest.raises(ValueError):
                orbit_weight_sum(h, mu, -1)
    for closed_form in (h_weight_one, h_weight_id):
        with pytest.raises(ValueError):
            closed_form((1,), -1)


@pytest.mark.parametrize("mu", [(2, -1), (-1,), (0,), (3, 0, 1), (True,), (2, False), (1.0,)])
def test_parts_that_are_not_ints_from_one_are_refused_by_every_h_weight(mu):
    # unchecked, such parts give wrong weights: h_weight(id, (2, -1), 5) read
    # 30 against 20/3 from the closed form, h_weight_id((-1,), n) divided by
    # zero, and True was read as 1
    h = identity()
    engines = (weights._h_engine(h), weights._orbit_sum_engine(h))
    rows = [set(engine._rows) for engine in engines]
    entries = (
        lambda mu, n: h_weight(h, mu, n),
        lambda mu, n: orbit_weight_sum(h, mu, n),
        h_weight_one,
        h_weight_id,
    )
    for entry in entries:
        for n in (3, 5, 9):
            with pytest.raises(ValueError, match="ints >= 1"):
                entry(mu, n)
    assert [set(engine._rows) for engine in engines] == rows  # no memo row was made


@pytest.mark.parametrize("order", ["descending", "ascending", "random"])
def test_memo_rows_resume_in_any_query_order(order):
    ns = list(range(0, 15))
    if order == "descending":
        ns.reverse()
    elif order == "random":
        random.Random(20).shuffle(ns)
    for h in (one(), identity(), sigma(1)):
        for mu in ((1,), (2, 1), (1, 1, 2), (3, 1, 1)):
            orbit_engine = weights._WeightMemo(h, weights._distinct_removals)
            h_engine = weights._WeightMemo(h, weights._last_part)
            orbit = list(orbit_of(mu))
            key = tuple(sorted(mu, reverse=True))
            for n in ns:
                expected = orbit_weight_sum_direct(h, mu, n)
                assert orbit_engine.value(key, n) == expected, (h.name, mu, n)
                assert sum(h_engine.value(lam, n) for lam in orbit) == expected, (h.name, mu, n)
