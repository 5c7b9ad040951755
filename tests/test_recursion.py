"""The polynomial recursion, the coefficient triangle, and their agreement."""

import random
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from darcais.arith import from_descriptor, from_table, identity, one, sigma, tilde
from darcais.exact import Poly, X, rational, scaled_ints
from darcais.recursion import (
    _int_prefix,
    _kernel_inputs,
    _rows,
    coefficient_table,
    coefficient_top_band,
    polynomial,
    polynomial_sequence,
    value_sequence,
)
from darcais.weights import coefficient_from_weights
from oracles import (
    chebyshev_example,
    laguerre_example,
    poly_eval,
    poly_values_by_columns,
    polynomials_literal,
    triangle_literal,
    values_literal,
)

HALF = Fraction(1, 2)


def test_polynomial_base_cases():
    for g in (one(), identity(), sigma(1)):
        for h in (one(), identity(), sigma(1)):
            assert polynomial_sequence(g, h, 0)[0] == Poly([1])
            assert polynomial_sequence(g, h, 1)[1] == X


def test_polynomial_examples():
    assert polynomial_sequence(sigma(1), identity(), 2)[2] == (X**2 + 3 * X) * HALF
    assert polynomial_sequence(one(), one(), 3)[3] == X * (X + 1) ** 2
    # h = id, g = 1 gives the scaled rising factorial
    p4 = polynomial_sequence(one(), identity(), 4)[4]
    assert p4 * 24 == X * (X + 1) * (X + 2) * (X + 3)


@pytest.mark.parametrize(
    "h, closed_form", [(one(), chebyshev_example), (identity(), laguerre_example)],
    ids=["chebyshev", "laguerre"],
)
def test_abstract_examples(h, closed_form):
    # the paper's named families for g = id: Chebyshev for h = one, Laguerre for h = id
    polys = polynomial_sequence(identity(), h, 25)
    for n in range(1, 26):
        assert list(polys[n].coefficients) == closed_form(n), n


def test_polynomial_shape():
    for g in (one(), sigma(1)):
        for h in (identity(), sigma(1)):
            polys = polynomial_sequence(g, h, 12)
            hn = 1
            for n in range(1, 13):
                hn *= h(n)
                assert polys[n].degree == n
                assert polys[n][0] == 0
                assert polys[n][n] * hn == 1


def test_vanishing_h_rejected():
    h = from_table([1, 0, 1])
    with pytest.raises(ValueError):
        polynomial_sequence(sigma(1), h, 2)
    with pytest.raises(ValueError):
        coefficient_table(sigma(1), h, 2)


def test_only_the_tabulated_h_values_must_be_nonzero():
    h = from_table([1, 2, 0])
    assert value_sequence(sigma(1), h, 1, 2) == [1, 1, 2]
    assert polynomial_sequence(sigma(1), h, 2)[2] == (X**2 + 3 * X) * HALF
    table = coefficient_table(sigma(1), h, 2)
    assert Poly(table.row(2)) / table.normalizer(2) == (X**2 + 3 * X) * HALF
    assert coefficient_from_weights(sigma(1), h, 2, 1) == 3
    with pytest.raises(ValueError, match="vanishes at n = 3"):
        value_sequence(sigma(1), h, 1, 3)
    with pytest.raises(ValueError, match="vanishes at n = 3"):
        coefficient_table(sigma(1), h, 3)
    for m in (1, 3):
        with pytest.raises(ValueError, match="vanishes at n = 3"):
            coefficient_from_weights(sigma(1), h, 3, m)
    # read even where every g-weight of n - m vanishes, as the triangle reads it
    with pytest.raises(ValueError, match="vanishes at n = 3"):
        coefficient_from_weights(from_table([1, 0, 0]), h, 3, 1)


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
        table.entry(3, -1)
    for n in (-1, 9):
        with pytest.raises(IndexError):
            table.formatted_row(n)


def test_scaled_coefficients():
    # A[n][m] / H(n) is the literal coefficient of x^m in P_n
    table = coefficient_table(sigma(1), identity(), 6)
    polys = polynomial_sequence(sigma(1), identity(), 6)
    assert Fraction(table.entry(2, 1), table.normalizer(2)) == polys[2][1] == Fraction(3, 2)
    for n in range(7):
        assert Fraction(table.entry(n, n), table.normalizer(n)) == polys[n][n]
        assert polys[n][n] == Fraction(1, table.normalizer(n))
    assert coefficient_table(one(), one(), 4).entry(3, 2) == polynomial_sequence(one(), one(), 3)[3][2] == 2


def test_table_matches_recursion():
    for g in (one(), identity(), sigma(1), tilde(sigma(1))):
        for h in (one(), identity(), sigma(1)):
            table = coefficient_table(g, h, 14)
            polys = polynomial_sequence(g, h, 14)
            for n in range(15):
                assert Poly(table.row(n)) / table.normalizer(n) == polys[n]


def test_integer_fast_path_and_nonnegativity():
    for g in (sigma(1), sigma(3)):
        for h in (one(), identity()):
            table = coefficient_table(g, h, 30)
            for n in range(31):
                for m in range(n + 1):
                    entry = table.entry(n, m)
                    assert isinstance(entry, int)
                    assert entry >= 0
    rational_table = coefficient_table(tilde(sigma(1)), identity(), 5)
    assert isinstance(rational_table.entry(3, 2), Fraction)


def test_int_path_is_read_from_the_values():
    # n/n = 1 is a Fraction-valued transform with integer values
    table = coefficient_table(tilde(identity()), one(), 6)
    assert all(isinstance(a, int) for n in range(7) for a in table.row(n))
    # only the tabulated values count: g(3) = 1/2 is past max_n = 2
    g = from_table([1, 2, "1/2"])
    assert all(isinstance(a, int) for n in range(3) for a in coefficient_table(g, one(), 2).row(n))
    assert isinstance(coefficient_table(g, one(), 3).entry(3, 1), Fraction)


def test_value_sequence_matches_polynomials():
    for point in (Fraction(-24), Fraction(1), Fraction(2, 3)):
        values = value_sequence(sigma(1), identity(), point, 12)
        polys = polynomial_sequence(sigma(1), identity(), 12)
        assert values == [p(point) for p in polys]
    with pytest.raises(ValueError):
        value_sequence(sigma(1), identity(), 1, -1)


_nonzero = st.integers(-9, 9).filter(bool)
_rational = st.builds(Fraction, st.integers(-9, 9), st.integers(1, 9))
# value_sequence(g, h, point, max_n) inputs, one strategy per kind of run:
# integer tables whose h is +-1, so every division by h(n) is exact
_exact_ints = st.tuples(
    st.lists(st.integers(-9, 9), min_size=7, max_size=7),
    st.lists(st.sampled_from((1, -1)), min_size=7, max_size=7),
    st.integers(-30, 30),
)
# integer tables with h(2) = 3 and P_2(point) = point (point + g(2)) / 3
# not an integer, so the values turn into Fractions partway through
_inexact_ints = st.tuples(
    st.tuples(st.integers(-3, 3), st.lists(st.integers(-9, 9), min_size=5, max_size=5))
    .map(lambda t: [3 * t[0], *t[1]]),
    st.lists(_nonzero, min_size=5, max_size=5).map(lambda rest: [3, *rest]),
    st.integers(-10, 10).map(lambda a: 3 * a + 1),
)
# rational tables at a rational point
_rationals = st.tuples(
    st.lists(_rational, min_size=7, max_size=7),
    st.lists(_rational.filter(bool), min_size=7, max_size=7),
    _rational,
)


@given(st.one_of(_exact_ints, _inexact_ints, _rationals))
@settings(max_examples=300, deadline=None)
def test_value_sequence_matches_polynomials_on_random_tables(case):
    g_rest, h_rest, point = case
    g, h = from_table([1, *g_rest]), from_table([1, *h_rest])
    max_n = len(g_rest) + 1
    values = value_sequence(g, h, point, max_n)
    polys = polynomial_sequence(g, h, max_n)
    assert all(isinstance(v, Fraction) for v in values)
    assert values == [p(point) for p in polys]
    # the same loop in the polynomial ring, at the point X + point
    assert value_sequence(g, h, X + point, max_n) == [p(X + point) for p in polys]
    if isinstance(point, int):  # integer tables
        if h_rest[0] == 3:
            assert values[2].denominator == 3
        else:
            assert all(v.denominator == 1 for v in values)


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
                assert type(band[n][j]) is type(table.entry(n, n - j)), (g.name, h.name, n, j)


def test_table_dict_roundtrip():
    table = coefficient_table(sigma(1), identity(), 6)
    doc = table.to_dict()
    assert doc["kind"] == "coefficient-table"
    for n in range(7):
        assert rational(doc["normalizers"][n]) == table.normalizer(n)
        assert [rational(cell) for cell in doc["rows"][n]] == list(table.row(n))


# Rational tables with G, D > 1 and negative values: every route runs on
# the int tables (G g, D h) and must read back as the Fraction recursions.
_signed = st.builds(Fraction, _nonzero, st.integers(1, 9))
_mixed_table = st.lists(_signed, min_size=11, max_size=11).filter(
    lambda vs: any(v.denominator > 1 for v in vs) and any(v < 0 for v in vs)
)


@given(_mixed_table, _mixed_table, st.builds(Fraction, st.integers(-9, 9), st.integers(1, 9)))
@settings(max_examples=60, deadline=None)
def test_rescaled_routes_match_the_literal_recursions(g_rest, h_rest, point):
    max_n = 12
    gl, hl = [0, 1, *g_rest], [0, 1, *h_rest]
    g, h = from_table(gl[1:]), from_table(hl[1:])
    literal = triangle_literal(gl, hl, max_n)
    table = coefficient_table(g, h, max_n)
    normalizer = Fraction(1)
    for n in range(max_n + 1):
        normalizer *= hl[n] if n else 1
        assert table.normalizer(n) == normalizer
        assert table.row(n) == tuple(literal[n])
        assert [table.entry(n, m) for m in range(n + 1)] == literal[n]
        assert all(type(a) is Fraction for a in table.row(n))
    for depth in range(4):
        band = coefficient_top_band(g, h, max_n, depth)
        assert band == [tuple(literal[n][n - j] for j in range(min(depth, n) + 1))
                        for n in range(max_n + 1)]
    polys = polynomials_literal(gl, hl, max_n)
    assert [list(p.coefficients) for p in value_sequence(g, h, X, max_n)] == polys
    assert value_sequence(g, h, point, max_n) == [poly_eval(p, point) for p in polys]


def _seeded_pq(rng, length, denominators=range(1, 10)):
    """1 and then p/q with 0 < |p| <= 9, q drawn from `denominators`."""
    return [Fraction(1)] + [Fraction(rng.choice([v for v in range(-9, 10) if v]), rng.choice(denominators))
                            for _ in range(length - 1)]


def _large_triangle_cases():
    rng, max_n = random.Random(18), 40
    # p/q tables as the export benchmark draws them, negatives included
    yield "seeded-pq", _seeded_pq(rng, max_n), _seeded_pq(rng, max_n), Fraction
    # h(2..) all over 7 in lowest terms: Q(n-1) = 7^(n-2) exceeds D^(n-m) = 7^(n-m) for m > 2
    equal = [Fraction(1)] + [Fraction(rng.choice([-8, -5, -3, -1, 2, 4, 6, 9]), 7) for _ in range(max_n - 1)]
    assert {v.denominator for v in equal[1:]} == {7}
    yield "equal-denominators", _seeded_pq(rng, max_n), equal, Fraction
    # integral but for h(max_n), which no entry reads: the reads are Fractions all the same
    ints = [Fraction(1)] + [Fraction(rng.choice([-3, -2, -1, 1, 2, 3])) for _ in range(max_n - 1)]
    yield "last-h-fraction", ints, ints[:-1] + [Fraction(-5, 3)], Fraction
    yield "integral", ints, ints[:-1] + [Fraction(2)], int


_LARGE_TRIANGLES = list(_large_triangle_cases())


@pytest.mark.parametrize("name, g_values, h_values, read_type", _LARGE_TRIANGLES,
                         ids=[case[0] for case in _LARGE_TRIANGLES])
def test_large_triangles_match_the_literal_recursion(name, g_values, h_values, read_type):
    # n = 40 reaches scales the hypothesis test (n <= 12) does not
    max_n = len(g_values)
    g, h = from_table(g_values), from_table(h_values)
    gl, hl = [0, *g_values], [0, *h_values]
    literal = triangle_literal(gl, hl, max_n)
    table = coefficient_table(g, h, max_n)
    normalizer = Fraction(1)
    for n in range(max_n + 1):
        normalizer *= hl[n] if n else 1
        assert table.normalizer(n) == normalizer and type(table.normalizer(n)) is read_type
        row = table.row(n)
        assert row == tuple(literal[n]), (name, n)
        assert all(type(a) is read_type for a in row)
        assert [table.entry(n, m) for m in (0, n // 2, n)] == [literal[n][m] for m in (0, n // 2, n)]
    for depth in range(4):
        band = coefficient_top_band(g, h, max_n, depth)
        assert band == [tuple(literal[n][n - j] for j in range(min(depth, n) + 1))
                        for n in range(max_n + 1)], (name, depth)
        assert all(type(b) is read_type for row in band for b in row)


# Poly points of every shape the engine meets: u / d with d = 1 or d > 1,
# zero or nonzero constant term, degree 1 and degree 0, and the zero point.
_poly_points = st.sampled_from([X, -X, X + 1, X / 3 + 2, Poly([Fraction(-5, 2)]), Poly()])


@given(st.lists(_rational, min_size=11, max_size=11), _mixed_table, _poly_points,
       st.integers(0, 12))
@settings(max_examples=150, deadline=None)
def test_poly_point_values_match_the_literal_recursion(g_rest, h_rest, point, max_n):
    # h holds a negative value, so h(1) ... h(N) takes both signs across draws
    gl, hl = [0, 1, *g_rest], [0, 1, *h_rest]
    values = value_sequence(from_table(gl[1:]), from_table(hl[1:]), point, max_n)
    at = list(point.coefficients)
    assert values == [Poly(poly_eval(p, at)) for p in polynomials_literal(gl, hl, max_n)]
    for p in values:
        nums, den = p.numerators, p.denominator
        assert den > 0 and gcd(den, *nums) == 1 and (not nums or nums[-1])


# Points whose numerators u have zero, negative and non-unit entries, over
# d = 1 and d = 3, and the zero point, whose rows vanish past E_0.
_packed_points = [X, -X, X + 1, (2 * X - 1) / 3, X**2 - Fraction(1, 3), Poly()]
_signed_rationals = st.lists(_signed, min_size=11, max_size=11)


@given(_signed_rationals, _signed_rationals, st.sampled_from(_packed_points), st.integers(0, 12))
@example([Fraction(1)] * 11, [Fraction(1)] * 11, Poly(), 0)
@example([Fraction(-9)] * 11, [Fraction(1, 9)] * 11, X**2 - Fraction(1, 3), 12)
@settings(max_examples=150, deadline=None)
def test_packed_rows_match_the_column_kernel(g_rest, h_rest, point, max_n):
    g, h = from_table([1, *g_rest]), from_table([1, *h_rest])
    gv, hv, (G, D) = _kernel_inputs(g, h, max_n)
    columns = poly_values_by_columns(gv, hv, point * Fraction(D, G))
    assert value_sequence(g, h, point, max_n) == columns
    assert polynomial(g, h, max_n) == polynomial_sequence(g, h, max_n)[max_n]


@pytest.mark.parametrize("sign", [1, -1])
def test_packed_slots_hold_rows_that_attain_their_bound(sign):
    # g = (1, 0, 0, ...) makes P_n = x^n / H(n), and each E_n = T P_n one
    # monomial whose coefficient is its majorant M_n.  With
    # h = (1, s/2, s/2, ...) the int tables are g and (2, s, s, ...) at the
    # point 2X, T = 2 and E_n = s^(n-1) 2^n x^n, so the last row is the
    # widest.  At n = 7, 15, 23, 31 its coefficient is +2^n, which fills
    # all (n + 1) / 8 bytes of its bits and so reads back only with one
    # more byte for the sign; one byte fewer than the bound fails at every
    # n >= 7.
    max_n = 40
    g = from_table([1] + [0] * (max_n - 1))
    h = from_table([1] + [Fraction(sign, 2)] * (max_n - 1))
    expected = [Poly([1])] + [(2 * sign) ** (n - 1) * X**n for n in range(1, max_n + 1)]
    assert value_sequence(g, h, X, max_n) == expected
    for n in range(max_n + 1):
        assert polynomial(g, h, n) == expected[n], n


def _value_cases():
    """(name, g, h, point, max_n) for the int prefix of `value_sequence` and
    its handoff to the row loop; g and h are tables from n = 1."""
    rng = random.Random(22)
    for max_n in (5, 33, 64, 97, 150, 260):
        ints = [1] + [rng.randint(-9, 9) for _ in range(max_n - 1)]
        units = [1] + [rng.choice((1, -1)) for _ in range(max_n - 1)]
        yield f"int-exact-{max_n}", ints, units, rng.choice((-24, -7, 2, 13)), max_n
        yield f"int-zero-point-{max_n}", ints, units, 0, max_n
        yield f"int-at-fraction-{max_n}", ints, units, Fraction(-7, 3), max_n
        # h = +-1 up to some index past 32 and then small non-units, so
        # the first inexact division comes after the first block
        cut = rng.randint(33, max_n) if max_n > 33 else max_n
        late = units[:cut] + [rng.choice((2, -2, 3, -3, 5)) for _ in range(max_n - cut)]
        yield f"int-late-handoff-{max_n}", ints, late, rng.choice((-5, 7)), max_n
        g, h = _seeded_pq(rng, max_n), _seeded_pq(rng, max_n)
        yield f"rational-at-fraction-{max_n}", g, h, Fraction(rng.randint(-9, 9), 7), max_n
        # point = k G / D makes the scaled point k an int, so the int
        # prefix runs on the scaled tables until D h(n) first fails to divide
        _, _, (G, D) = _kernel_inputs(from_table(g), from_table(h), max_n)
        yield f"rational-at-int-scaled-{max_n}", g, h, Fraction(-3 * G, D), max_n
        # h over D = 2 at the point k / 2, k odd: the scaled point k D / G = k
        # is an int, but P_1 = k / 2 is not, so the int prefix stops at n = 1
        # and the row loop computes every value
        halves = [1, Fraction(-1, 2)] + [Fraction(rng.choice((-3, -1, 1, 2, 3)), 2)
                                         for _ in range(max_n - 2)]
        odd_half = Fraction(rng.choice((-7, 3)), 2)
        yield f"first-division-inexact-{max_n}", ints, halves, odd_half, max_n
        yield f"rational-at-zero-{max_n}", g, h, 0, max_n
        # every h(n) < 0 past h(1) = 1, so the sign of d^N h(1) ... h(N),
        # whose absolute value is the fixed denominator T, alternates with N
        negative = [1] + [-abs(v) for v in _seeded_pq(rng, max_n)[1:]]
        yield f"negative-h-at-fraction-{max_n}", g, negative, Fraction(5, rng.choice((2, 9))), max_n


_VALUE_CASES = list(_value_cases())


@pytest.mark.parametrize("name, g_values, h_values, point, max_n", _VALUE_CASES,
                         ids=[case[0] for case in _VALUE_CASES])
def test_values_match_the_literal_loop(name, g_values, h_values, point, max_n):
    # N = 5 is one leaf of the int prefix, 33 and 64 one split, 97 to 260
    # several levels with ragged last blocks
    g, h = from_table(g_values), from_table(h_values)
    values = value_sequence(g, h, point, max_n)
    literal = values_literal([0, *g_values], [0, *h_values], point, max_n)
    assert values == literal
    assert all(type(v) is Fraction for v in values)
    # the int prefix is the longest run of int values, which a wrong block
    # product would cut short even where the row loop mends the values
    gv, hv, (G, D) = _kernel_inputs(g, h, max_n)
    x0 = Fraction(point) * D / G
    first = next((n for n, v in enumerate(literal) if v.denominator != 1), max_n + 1)
    if x0.denominator == 1:
        prefix = _int_prefix(gv, hv, x0.numerator)
        assert prefix == literal[:first] and all(type(v) is int for v in prefix)
    if name.startswith("int-late-handoff") and max_n > 33:
        assert 32 < first <= max_n, first
    if name.startswith("first-division-inexact"):
        assert first == 1 and _int_prefix(gv, hv, x0.numerator) == [1]


@pytest.mark.parametrize("max_n, L", [(64, 32), (97, 24), (97, 48)])
@pytest.mark.parametrize("k", [1, 2, 3])
@pytest.mark.parametrize("sign", [1, -1])
def test_int_prefix_slots_hold_products_that_attain_their_bound(max_n, L, k, sign):
    # g = (1, s, s, ...) and h(n) = 1 + s (n - 1) give P_n(1) = 1 for every
    # n.  The int prefix at N = 64 multiplies blocks of L = 32 values, and at
    # N = 97 blocks of 24 and 48, each against gv[:r-l] of length 2L or
    # more, so the product's slots t > L hold L s: the bound
    # L max|a| max|b| itself.  s = +-(2^(8k) - 1) // L puts L |s| just below
    # 2^(8k), so a width without a sign bit reads those slots back wrong.
    # A wrong slot makes a value wrong or an inexact division that stops
    # the int prefix early; the row loop then mends the values, so the
    # prefix itself is checked.
    s = sign * ((256**k - 1) // L)
    g = from_table([1] + [s] * (max_n - 1))
    h = from_table([1 + s * (n - 1) for n in range(1, max_n + 1)])
    assert _int_prefix(*_kernel_inputs(g, h, max_n)[:2], 1) == [1] * (max_n + 1)
    assert value_sequence(g, h, 1, max_n) == [1] * (max_n + 1)


def test_rescaled_routes_at_max_n_zero():
    g, h = from_table([1, "-1/2"]), from_table([1, "2/3"])
    table = coefficient_table(g, h, 0)
    assert table.row(0) == (1,) and type(table.entry(0, 0)) is int
    assert table.to_dict()["rows"] == [["1"]] and table.to_dict()["normalizers"] == ["1"]
    assert coefficient_top_band(g, h, 0, 3) == [(1,)]
    assert value_sequence(g, h, X, 0) == [Poly([1])]
    assert value_sequence(g, h, Fraction(-7, 3), 0) == [Fraction(1)]


def test_rescaled_routes_stay_int_while_the_fractions_lie_past_n():
    g, h = from_table([1, -2, "1/2"]), from_table([1, 3, "-5/4"])
    table = coefficient_table(g, h, 2)
    assert table.row(2) == (0, -2, 1) and all(type(a) is int for a in table.row(2))
    assert coefficient_top_band(g, h, 2, 1) == [(1,), (1, 0), (1, -2)]
    assert all(type(b) is int for row in coefficient_top_band(g, h, 2, 1) for b in row)
    assert table.normalizer(2) == 3 and type(table.normalizer(2)) is int
    rational_table = coefficient_table(g, h, 3)
    assert rational_table.row(2) == (0, -2, 1)
    assert all(type(a) is Fraction for n in range(4) for a in rational_table.row(n))


def test_rescaled_routes_refuse_a_zero_h_by_name():
    g, h = from_table([1, "-1/2", "3/7"]), from_table([1, "2/3", 0])
    message = r"h = 'table:\[1,2/3,0\]' vanishes at n = 3"
    with pytest.raises(ValueError, match=message):
        value_sequence(g, h, X, 3)
    with pytest.raises(ValueError, match=message):
        coefficient_top_band(g, h, 3, 2)
    with pytest.raises(ValueError, match=message):
        coefficient_table(g, h, 3)
    assert coefficient_table(g, h, 2).row(2) == (0, Fraction(-1, 2), 1)


_functions = st.sampled_from(["one", "id", "sigma:0", "sigma:1", "sigma:3", "tilde:sigma:1",
                              "tilde:id", "table"])


@given(_functions, _functions, st.lists(_signed, min_size=29, max_size=29), st.integers(0, 30))
@settings(max_examples=100, deadline=None)
def test_kernel_inputs_are_the_tables_of_the_calls(g_name, h_name, rest, max_n):
    # the tabulated reads (sigma's divisor sieve, the others' memoized
    # calls) give the int tables that one call per n gave
    g, h = (from_table([1, *rest]) if name == "table" else from_descriptor(name)
            for name in (g_name, h_name))
    gv, hv, (G, D) = _kernel_inputs(g, h, max_n)
    assert (gv, G) == scaled_ints(g(n) for n in range(1, max_n + 1))
    assert (hv, D) == scaled_ints(h(n) for n in range(1, max_n + 1))
    assert all(type(v) is int for v in gv + hv)


def test_row_loop_goes_on_from_a_prefix_that_stops_short():
    # int g in [-9, 9], h = +-1 up to n = 240 and 3 after it, at the point
    # 7: the int prefix runs past n = 240 and stops at the first value that
    # 3 does not divide; the row loop goes on from T times the prefix and
    # gives the rows it gives from E_0 = T
    rng, max_n, cut = random.Random(34), 250, 240
    g_values = [1] + [rng.choice([v for v in range(-9, 10) if v]) for _ in range(max_n - 1)]
    h_values = [1] + [rng.choice((1, -1)) for _ in range(cut - 1)] + [3] * (max_n - cut)
    g, h = from_table(g_values), from_table(h_values)
    gv, hv, _ = _kernel_inputs(g, h, max_n)
    prefix = _int_prefix(gv, hv, 7)
    assert cut < len(prefix) <= max_n
    rows = _rows(gv, hv, [(7, 0)], 1)
    assert _rows(gv, hv, [(7, 0)], 1, prefix) == rows
    assert rows[:len(prefix)] == [rows[0] * v for v in prefix]
    values = value_sequence(g, h, 7, max_n)
    assert values == values_literal([0, *g_values], [0, *h_values], 7, max_n)
    assert all(type(v) is Fraction for v in values)
