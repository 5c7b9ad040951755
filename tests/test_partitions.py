"""Partition/composition enumeration, orbits, hooks, and counting helpers.

Counting oracles used here (dynamic-programming partition counts, the
representation-theoretic hook identity) are independent of the generators
under test.
"""

from fractions import Fraction
from itertools import product
from math import factorial

import pytest

from darcais.exact import Poly, X
from darcais.partitions import (
    compositions_of,
    conjugate,
    hook_multiset,
    multinomial,
    partitions_of,
    stirling_rows,
)

from oracles import (
    composition_count,
    conjugate_by_counting,
    orbit_of,
    orbit_size,
    partitions_recursive,
)


def count_partitions_dp(n: int) -> int:
    """Independent oracle: classic coin-style DP over part sizes."""
    table = [1] + [0] * n
    for part in range(1, n + 1):
        for total in range(part, n + 1):
            table[total] += table[total - part]
    return table[n]


def test_partitions_of_zero_and_small():
    assert list(partitions_of(0)) == [()]
    assert list(partitions_of(1)) == [(1,)]
    assert list(partitions_of(4)) == [(4,), (3, 1), (2, 2), (2, 1, 1), (1, 1, 1, 1)]


def test_generators_are_lazy():
    from itertools import islice

    # taking a few partitions of 50 must not materialize all ~2e5 of them
    head = list(islice(partitions_of(50), 3))
    assert head == [(50,), (49, 1), (48, 2)]
    assert next(iter(orbit_of((9, 3, 3, 1)))) == (1, 3, 3, 9)


def test_partition_counts_against_dp():
    # p(4) = 5, p(10) = 42 frozen from the DP oracle
    assert count_partitions_dp(4) == 5
    assert count_partitions_dp(10) == 42
    for n in range(21):
        assert sum(1 for _ in partitions_of(n)) == count_partitions_dp(n)


def test_partitions_are_partitions_and_distinct():
    for n in range(15):
        seen = set()
        for mu in partitions_of(n):
            assert sum(mu) == n
            assert all(a >= b for a, b in zip(mu, mu[1:]))
            assert mu not in seen
            seen.add(mu)


def test_orbit_of_examples():
    assert list(orbit_of((2, 1))) == [(1, 2), (2, 1)]
    assert list(orbit_of((1, 1))) == [(1, 1)]
    assert len(list(orbit_of((3, 1, 1)))) == 3
    assert list(orbit_of(())) == [()]


def test_orbit_size_and_uniqueness():
    for n in range(9):
        for mu in partitions_of(n):
            orbit = list(orbit_of(mu))
            assert len(orbit) == orbit_size(mu)
            assert len(set(orbit)) == len(orbit)
            non_increasing = [lam for lam in orbit if all(a >= b for a, b in zip(lam, lam[1:]))]
            assert non_increasing == [mu]


def test_compositions_of():
    assert list(compositions_of(4, 2)) == [(1, 3), (2, 2), (3, 1)]
    assert composition_count(4, 2) == 3
    assert composition_count(9, 1) == 1
    assert sum(1 for _ in compositions_of(5, 3)) == 6
    for n in range(1, 7):
        for k in range(1, n + 1):
            listed = list(compositions_of(n, k))
            every = [c for c in product(range(1, n + 1), repeat=k) if sum(c) == n]
            assert listed == every  # product runs in lexicographic order
    assert list(compositions_of(2000, 2000)) == [(1,) * 2000]
    with pytest.raises(ValueError):
        list(compositions_of(3, 4))
    with pytest.raises(ValueError):
        composition_count(0, 1)


def test_orbits_tile_compositions():
    # partitions of n with k parts, expanded to orbits, give all c_k(n) compositions
    for n in range(1, 21):
        for k in range(1, n + 1):
            total = sum(orbit_size(mu) for mu in partitions_of(n) if len(mu) == k)
            assert total == composition_count(n, k)


def test_multinomial():
    assert multinomial(4, [2, 2]) == 6
    assert multinomial(9, [9]) == 1
    assert multinomial(6, [1, 2, 3]) == 60
    with pytest.raises(ValueError):
        multinomial(5, [2, 2])


def test_stirling_first_unsigned():
    # oracle: |s(n, m)| are the coefficients of x(x+1)...(x+n-1)
    rows = list(stirling_rows(8))
    assert len(rows) == 9
    assert rows[4][2] == 11 and rows[3][2] == 3 and rows[4][1] == 6
    expansion = Poly([1])
    for n, row in enumerate(rows):
        assert len(row) == n + 1 and row[n] == 1
        assert sum(row) == factorial(n)
        assert list(expansion.padded(n + 1)) == row
        expansion = expansion * (X + n)
    assert list(stirling_rows(0)) == [[1]]
    with pytest.raises(ValueError):
        list(stirling_rows(-1))


def test_conjugate():
    assert conjugate((4, 2, 1)) == (3, 2, 1, 1)
    assert conjugate(()) == ()
    for n in range(11):
        for mu in partitions_of(n):
            assert conjugate(conjugate(mu)) == mu


def test_conjugate_matches_counting_the_rows_of_each_column():
    for n in range(21):
        for mu in partitions_of(n):
            assert conjugate(mu) == conjugate_by_counting(mu), mu


def test_each_partition_or_its_conjugate_is_at_least_the_other():
    # the hook-length sum takes lam with conjugate(lam) <= lam, once or twice
    for n in range(21):
        kept = [mu for mu in partitions_of(n) if conjugate(mu) <= mu]
        covered = set(kept) | {conjugate(mu) for mu in kept}
        assert covered == set(partitions_of(n)), n


def test_self_conjugate_partitions_match_distinct_odd_parts():
    # an independent count of the terms the hook-length sum adds only once
    for n in range(21):
        distinct_odd = [1] + [0] * n  # 0/1 knapsack over the odd parts
        for part in range(1, n + 1, 2):
            for total in range(n, part - 1, -1):
                distinct_odd[total] += distinct_odd[total - part]
        self_conjugate = sum(conjugate(mu) == mu for mu in partitions_of(n))
        assert self_conjugate == distinct_odd[n], n


def test_a_first_part_below_the_length_makes_the_conjugate_larger():
    for n in range(1, 21):
        for mu in partitions_of(n):
            if mu[0] < len(mu):
                assert conjugate(mu) > mu, mu


def test_hook_multiset_examples():
    assert hook_multiset((1,)) == (1,)
    assert hook_multiset((2,)) == (1, 2)
    assert hook_multiset((1, 1)) == (1, 2)
    assert hook_multiset((2, 1)) == (1, 1, 3)
    with pytest.raises(ValueError):
        hook_multiset((1, 2))


def test_hook_count_equals_size():
    for n in range(16):
        for lam in partitions_of(n):
            assert len(hook_multiset(lam)) == n


def test_hook_lengths_sum_of_squares_identity():
    # sum over partitions of (n! / prod hooks)^2 = n!, the standard-tableaux
    # count identity; a strong independent check of the hook computation
    for n in range(1, 9):
        total = Fraction(0)
        for lam in partitions_of(n):
            product = 1
            for t in hook_multiset(lam):
                product *= t
            total += Fraction(factorial(n), product) ** 2
        assert total == factorial(n)


def test_trivial_hook_weight_counts_partitions():
    for n in range(16):
        total = 0
        for lam in partitions_of(n):
            term = 1
            for _ in hook_multiset(lam):
                term *= 1
            total += term
        assert total == count_partitions_dp(n)


def test_partitions_loop_matches_the_recursive_descent():
    for n in range(26):
        assert list(partitions_of(n)) == list(partitions_recursive(n)), n
