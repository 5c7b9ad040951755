"""The polynomial recursion, the coefficient triangle, and their agreement."""

from fractions import Fraction

import pytest

from darcais.arith import CumulativeProduct, from_table, identity, one, sigma, tilde
from darcais.exact import Poly, X
from darcais.recursion import (
    coefficient_table,
    coefficient_top_band,
    polynomial,
    polynomial_sequence,
    table_rows_from_dict,
    value_sequence,
)

HALF = Fraction(1, 2)


def test_polynomial_base_cases():
    for g in (one(), identity(), sigma(1)):
        for h in (one(), identity(), sigma(1)):
            assert polynomial(g, h, 0) == Poly([1])
            assert polynomial(g, h, 1) == X


def test_polynomial_examples():
    assert polynomial(sigma(1), identity(), 2) == (X**2 + 3 * X) * HALF
    assert polynomial(one(), one(), 3) == X * (X + 1) ** 2
    # h = id, g = 1 gives the scaled rising factorial
    p4 = polynomial(one(), identity(), 4)
    assert p4 * 24 == X * (X + 1) * (X + 2) * (X + 3)


def test_polynomial_shape():
    for g in (one(), sigma(1)):
        for h in (identity(), sigma(1)):
            polys = polynomial_sequence(g, h, 12)
            products = CumulativeProduct(h)
            for n in range(1, 13):
                assert polys[n].degree == n
                assert polys[n][0] == 0
                assert polys[n][n] * products.value(n) == 1


def test_vanishing_h_rejected():
    h = from_table([1, 0, 1])
    assert not h.non_vanishing
    with pytest.raises(ValueError):
        polynomial(sigma(1), h, 2)
    with pytest.raises(ValueError):
        coefficient_table(sigma(1), h, 2)


def test_table_examples():
    assert coefficient_table(sigma(1), identity(), 3).entry(2, 1) == 3
    assert coefficient_table(one(), identity(), 3).entry(3, 2) == 3
    assert coefficient_table(identity(), identity(), 3).entry(3, 2) == 6


def test_table_edges_and_errors():
    table = coefficient_table(sigma(1), identity(), 8)
    assert table.entry(0, 0) == 1
    for n in range(1, 9):
        assert table.entry(n, 0) == 0
        assert table.entry(n, n) == 1
    with pytest.raises(IndexError):
        table.entry(9, 1)
    with pytest.raises(IndexError):
        table.entry(3, 4)
    with pytest.raises(IndexError):
        table.scaled(3, -1)


def test_scaled_coefficients():
    table = coefficient_table(sigma(1), identity(), 6)
    assert table.scaled(2, 1) == Fraction(3, 2)
    for n in range(7):
        assert table.scaled(n, n) == Fraction(1, table.normalizer(n))
    assert coefficient_table(one(), one(), 4).scaled(3, 2) == 2


def test_table_matches_recursion():
    for g in (one(), identity(), sigma(1), tilde(sigma(1))):
        for h in (one(), identity(), sigma(1)):
            table = coefficient_table(g, h, 14)
            polys = polynomial_sequence(g, h, 14)
            for n in range(15):
                assert table.poly(n) == polys[n]


def test_integer_fast_path_and_nonnegativity():
    for g in (sigma(1), sigma(3)):
        for h in (one(), identity()):
            table = coefficient_table(g, h, 30)
            assert table.integer_entries
            for n in range(31):
                for m in range(n + 1):
                    entry = table.entry(n, m)
                    assert isinstance(entry, int)
                    assert entry >= 0
    rational_table = coefficient_table(tilde(sigma(1)), identity(), 5)
    assert not rational_table.integer_entries
    assert isinstance(rational_table.entry(3, 2), Fraction)


def test_value_sequence_matches_polynomials():
    for point in (Fraction(-24), Fraction(1), Fraction(2, 3)):
        values = value_sequence(sigma(1), identity(), point, 12)
        polys = polynomial_sequence(sigma(1), identity(), 12)
        assert values == [p(point) for p in polys]


def test_top_band_matches_table():
    cases = [(g, h, 25, 2) for g in (sigma(1), tilde(sigma(1))) for h in (one(), identity(), sigma(1))]
    table_pair = (from_table([1, "1/2", "-3/4", 2, 0, "5/3", 7]), from_table([1, "-2/5", 3, "1/7", 2, 9, "4/3"]))
    cases += [(*table_pair, 7, 2)]
    cases += [(sigma(1), identity(), 12, depth) for depth in (0, 1, 3)]
    for g, h, max_n, depth in cases:
        band = coefficient_top_band(g, h, max_n, depth=depth)
        table = coefficient_table(g, h, max_n)
        assert len(band) == max_n + 1
        for n in range(max_n + 1):
            assert len(band[n]) == min(depth, n) + 1
            for j in range(min(depth, n) + 1):
                assert band[n][j] == table.entry(n, n - j), (g.name, h.name, depth, n, j)


def test_table_dict_roundtrip():
    table = coefficient_table(sigma(1), identity(), 6)
    doc = table.to_dict()
    rows, normalizers = table_rows_from_dict(doc)
    for n in range(7):
        assert normalizers[n] == table.normalizer(n)
        for m in range(n + 1):
            assert rows[n][m] == table.entry(n, m)
    with pytest.raises(ValueError):
        table_rows_from_dict({"kind": "other"})
