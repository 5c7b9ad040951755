"""Shape predicates, margins, counterexample search, and the exact scans."""

from fractions import Fraction
from math import comb, factorial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from darcais import series, shapes
from darcais.arith import from_table, identity, one, sigma, tilde
from darcais.exact import X, first_failure
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

from oracles import (
    columns_of,
    hook_rows,
    implication_chain_holds,
    ramanujan_691_failures,
    ultra_log_concave_by_binomials,
)


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


@given(st.lists(st.one_of(st.integers(min_value=0, max_value=40),
                          st.fractions(min_value=0, max_value=40, max_denominator=12),
                          st.just(0)),
                max_size=12))
@settings(max_examples=200, deadline=None)
def test_ultra_log_concavity_matches_the_binomial_cross_multiplication(seq):
    # log-concavity of a_k k! (n - k)! against that of a_k / C(n, k) with
    # the binomials cross-multiplied: the same first failing index
    assert is_ultra_log_concave(seq) == ultra_log_concave_by_binomials(seq)


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


def counted_columns(monkeypatch, rows=None):
    """Patch the scan's column source to yield the columns of `rows` (the
    hook columns when None) and count the columns it pulls."""
    pulled = []
    real = shapes.euler_product_columns

    def source(exponent, order):
        assert exponent == -X - 1
        for column in real(exponent, order) if rows is None else columns_of(rows):
            pulled.append(1)
            yield column

    monkeypatch.setattr(shapes, "euler_product_columns", source)
    return pulled


def feed_triangle(monkeypatch, rows):
    """Feed the scan any triangle: its columns, and values P_n(1) that
    agree with its constant terms over the scan's one scale N!,
    N = len(rows) - 1, so that only the shape bookkeeping judges it."""
    scale = factorial(len(rows) - 1)
    monkeypatch.setattr(shapes, "value_sequence", lambda g, h, point, max_n: [
        Fraction(row[0], scale) for row in rows])
    counted_columns(monkeypatch, rows)


def test_hook_log_concavity_scan_checks_each_row_once(monkeypatch):
    # one comparison per row, made column by column: no row is handed to
    # the row predicates, and each column is pulled once
    for name in ("is_log_concave", "is_unimodal"):
        monkeypatch.setattr(shapes, name, None)  # any call would be a TypeError
    pulled = counted_columns(monkeypatch)
    assert hook_poly_log_concavity_scan(30) == (30, None)
    assert len(pulled) == 31


def test_hook_log_concavity_scan_fails_a_log_concave_row_that_is_not_unimodal(monkeypatch):
    # [a, 0, ..., 0, 1] is log-concave (every a_j^2 >= a_{j-1} a_{j+1} is
    # 0 >= 0) but not unimodal; its zeros fail it, so the scan must stop at
    # the row that holds it, once its last column has come
    rows = hook_rows(12)
    gap = [rows[7][0]] + [0] * 6 + [1]  # Q_7(0) = p(7) kept
    assert is_log_concave(gap) is None and is_unimodal(gap) == 7
    rows[7] = gap
    pulled = counted_columns(monkeypatch, rows)
    assert hook_poly_log_concavity_scan(12) == (7, 7)
    assert len(pulled) == 8


@pytest.mark.parametrize("i", [5, 7, 12, 26])
def test_a_flipped_pentagonal_sign_fails_the_hook_scan_at_its_row(monkeypatch, i):
    # mutation: Miller's kernel reads e_i with the wrong sign, so row i is
    # the first one it gets wrong; the scan's p(n) comes from the defining
    # recursion, which does not read `_pentagonal`, so row i fails
    real = series._pentagonal
    monkeypatch.setattr(series, "_pentagonal",
                        lambda order: [(k, -e if k == i else e) for k, e in real(order)])
    assert hook_poly_log_concavity_scan(40) == (i, i)


@pytest.mark.parametrize("n, j", [(81, 40), (97, 1), (97, 96), (97, 97), (120, 60), (85, 0)])
def test_one_changed_column_entry_is_reported_at_its_row(monkeypatch, n, j):
    # an entry of row n > 80 zeroed, then negated, is an entry <= 0 there
    # and nowhere earlier: at x^n it is the leading coefficient, N! / n! on
    # the scan's one scale N! by the hook length formula, and at x^0 it
    # breaks Q_n(0) = p(n) too
    rows = hook_rows(120)
    counted_columns(monkeypatch, rows)  # the columns are taken when the scan runs
    entry = rows[n][j]
    for changed in (0, -entry):
        rows[n][j] = changed
        assert hook_poly_log_concavity_scan(120) == (n, n)


@pytest.mark.parametrize("n", [40, 39])
def test_a_lowered_constant_term_in_the_last_two_rows_fails_the_hook_scan(monkeypatch, n):
    # Q_n(0) one below N! p(n) keeps row n positive and log-concave, so only
    # the p(n) check catches it; a p(n) list cut short skips that
    # check on the last rows
    rows = hook_rows(40)
    counted_columns(monkeypatch, rows)
    rows[n][0] -= 1
    assert is_log_concave(rows[n]) is None and min(rows[n]) > 0
    assert hook_poly_log_concavity_scan(40) == (n, n)


# Row scales for the planted tents: small ones, where the scan's top-bits
# certificate shifts nothing, and wide ones, where it keeps the top
# shapes._TOP_BITS bits of a row.
SCALES = (1, 2, 3, 2**64 + 1, 3**130, 2**(2 * shapes._TOP_BITS) + 1)


def planted_triangle(draw, max_n):
    """Rows n = 0..max_n of n + 1 entries: log-concave tents of positive
    ints, each times a scale of SCALES, some with a dip, a plateau, a zero,
    a run of zeros at the head, at the tail or inside, or a negative entry
    planted.  A run of zeros at either end keeps a tent log-concave, so that
    positivity alone fails it."""
    rows = []
    for n in range(max_n + 1):
        cap, scale = draw(st.integers(1, n + 1)), draw(st.sampled_from(SCALES))
        row = [scale * (1 + min(j, n - j, cap)) for j in range(n + 1)]
        plant = draw(st.sampled_from(
            ["none"] * 4 + ["dip", "plateau", "zero", "head", "tail", "gap", "negative"]))
        j = draw(st.integers(0, n))
        if plant in ("head", "tail", "gap"):
            start, end = {"head": (0, j), "tail": (j, n + 1),
                          "gap": (j, draw(st.integers(j, n + 1)))}[plant]
            row[start:end] = [0] * (end - start)
        elif plant != "none":
            row[j] = {"dip": row[j] // 3, "plateau": row[j - 1], "zero": 0, "negative": -1}[plant]
        rows.append(row)
    return rows


def row_passes(row):
    """The hook scan's verdict on one row: every entry positive, and the
    row log-concave, which makes it unimodal as well."""
    passes = all(c > 0 for c in row) and is_log_concave(row) is None
    assert not passes or is_unimodal(row) is None
    return passes


def scan_by_rows(rows):
    """The hook scan's verdict on a triangle, as the row predicates give it."""
    return first_failure(None if row_passes(rows[n]) else n for n in range(1, len(rows)))


@given(st.data())
@settings(max_examples=300, deadline=None)
def test_column_bookkeeping_matches_the_row_predicates(data):
    # the scan's three-column log-concavity test and its entries <= 0
    # against positivity and is_log_concave, row by row; every row that
    # passes is unimodal too; triangles reach past three rebases of the
    # certificate's shifts, at columns 2, 2 + R, 2 + 2R and 2 + 3R
    max_n = data.draw(st.integers(0, 3 * shapes._REBASE + 4))
    rows = planted_triangle(data.draw, max_n)
    for row in rows[1:]:
        row_passes(row)
    with pytest.MonkeyPatch.context() as patch:
        feed_triangle(patch, rows)
        found = hook_poly_log_concavity_scan(max_n)
    assert found == scan_by_rows(rows)


def fibonacci(k):
    a, b = 0, 1
    for _ in range(k):
        a, b = b, a + b
    return a


def planted_row(n, j, triple):
    """Row n of n + 1 positive entries with (a_{j-2}, a_{j-1}, a_j) = triple,
    which alone may break log-concavity: each entry outside it is the floor
    of its inner neighbour squared over the next one in, so every other
    three consecutive entries hold."""
    row = [0] * (n + 1)
    row[j - 2:j + 1] = triple
    for k in range(j + 1, n + 1):
        row[k] = row[k - 1] ** 2 // row[k - 2]
    for k in range(j - 3, -1, -1):
        row[k] = row[k + 1] ** 2 // row[k + 2]
    return row


def proved_by_top_bits(row, j):
    """The scan's certificate b~^2 >= (a~ + 1)(c~ + 1) on the triple
    (a, b, c) = row[j - 2:j + 1], with the row's one shift: rebased at the
    columns 2, 2 + R, ..., R = shapes._REBASE, to keep shapes._TOP_BITS
    bits of the row's entry in the column before, and carried in between."""
    rebased = j - (j - 2) % shapes._REBASE
    s = max(0, row[rebased - 1].bit_length() - shapes._TOP_BITS)
    a, b, c = (x >> s for x in row[j - 2:j + 1])
    return b * b >= (a + 1) * (c + 1)


REBASE = shapes._REBASE
WIDE = 2 ** (shapes._TOP_BITS + 80)  # shifted by 81 bits or more
CASSINI = (fibonacci(299), fibonacci(300), fibonacci(301))  # b^2 = a c - 1


@pytest.mark.parametrize("triple, found", [
    # b^2 = a c exactly: the tops tie, and the full products pass the row
    ((9 << 200, 6 << 200, 4 << 200), (6, None)),
    # Cassini's identity F_299 F_301 - F_300^2 = 1
    (CASSINI, (4, 4)),
    # a = c = WIDE + 2^40 and b = WIDE + 2^39 have the same top bits
    ((WIDE + 2**40, WIDE + 2**39, WIDE + 2**40), (4, 4)),
], ids=["equal", "one-below", "tied-tops"])
def test_rows_the_top_bits_leave_open_are_decided_exactly(monkeypatch, triple, found):
    # every other row is 2^200 C(n, j), which the top bits prove; row 4
    # holds the triple at x^1..x^3, entries of 200 bits or more, where only
    # the exact products b b < a c decide
    rows = [[comb(n, j) << 200 for j in range(n + 1)] for n in range(7)]
    rows[4] = planted_row(4, 3, triple)
    assert not proved_by_top_bits(rows[4], 3)
    assert min(rows[4]).bit_length() > 200
    assert is_log_concave(rows[4]) == (None if found[1] is None else 2)
    feed_triangle(monkeypatch, rows)
    assert hook_poly_log_concavity_scan(6) == found


@pytest.mark.parametrize("n, j", [
    (5, 2), (2 + REBASE, 2 + REBASE), (3 + REBASE, 1 + REBASE),
    (4 + 2 * REBASE, 2 + 2 * REBASE), (2 + 2 * REBASE, 1 + 2 * REBASE),
    (3 * REBASE, 3 + REBASE),
])
def test_a_dip_next_to_a_rebase_is_reported_at_its_row(monkeypatch, n, j):
    # Cassini's triple b^2 = a c - 1 planted at x^(j-2)..x^j of row n, in
    # the first column of a shift period (j = 2 mod R) or its last one
    # (j = 1 mod R), or inside one; every other row is 2^200 C(n, j)
    max_n = 3 * REBASE + 2
    rows = [[comb(m, k) << 200 for k in range(m + 1)] for m in range(max_n + 1)]
    rows[n] = planted_row(n, j, CASSINI)
    assert is_log_concave(rows[n]) == j - 1 and min(rows[n]) > 0
    assert not proved_by_top_bits(rows[n], j)
    feed_triangle(monkeypatch, rows)
    assert hook_poly_log_concavity_scan(max_n) == (n, n)


def test_a_few_kept_bits_leave_most_triples_to_the_exact_products(monkeypatch):
    # with 3 bits kept, the certificate proves few hook triples, and the
    # exact products alone must pass the hook rows and catch a dip
    monkeypatch.setattr(shapes, "_TOP_BITS", 3)
    rows = hook_rows(120)
    triples = [(row, j) for row in rows for j in range(2, len(row))]
    assert 2 * sum(proved_by_top_bits(row, j) for row, j in triples) < len(triples)
    assert hook_poly_log_concavity_scan(120) == (120, None)
    rows[97][50] //= 2  # b^2 / 4 < a c at x^49..x^51 of row 97
    assert is_log_concave(rows[97]) == 50 and min(rows[97]) > 0
    counted_columns(monkeypatch, rows)
    assert hook_poly_log_concavity_scan(120) == (97, 97)


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
    # the hook scan reads its rows off prod (1 - q^k)^(-x-1), one column at
    # a time, over the one scale N!; the defining recursion at X + 1 gives
    # the same polynomials, times N!
    for max_n in (0, 1, 2, 17, 80):
        recursion = value_sequence(sigma(1), identity(), X + 1, max_n)
        scale = factorial(max_n)
        assert hook_rows(max_n) == [[scale * c for c in p.padded(n + 1)]
                                    for n, p in enumerate(recursion)]


def test_shifted_rows_are_positive_multiples_of_the_triangle_shift():
    # the triangle + binomial shift route is the oracle for the rows the
    # hook scan reads off the Euler-product power prod (1 - q^k)^(-x-1)
    from darcais.recursion import shifted_coefficient_numerators

    table = coefficient_table(sigma(1), identity(), 60)
    rows = hook_rows(60)
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


def test_lehmer_scan_values_keep_ramanujans_congruence():
    # P_n(-24) = tau(n + 1), so values[n - 1] = tau(n) for n = 1..10001
    values, (checks, failure) = lehmer_scan(10**4)
    assert (checks, failure) == (10**4, None)
    assert ramanujan_691_failures(values) == []
    changed = list(values)
    changed[4999] += 1  # tau(5000) off by one
    assert ramanujan_691_failures(changed) == [5000]
    changed[4999] = values[4999] + Fraction(691, 2)  # off by a non-integer multiple of 691
    assert ramanujan_691_failures(changed) == [5000]


def test_lehmer_scan_counts_a_failing_constant_term(monkeypatch):
    # the n = 0 comparison is one check made, so a failure there counts 1
    euler = shapes.euler_product_ints
    monkeypatch.setattr(shapes, "euler_product_ints", lambda r, order: [2, *euler(r, order)[1:]])
    assert lehmer_scan(5)[1] == (1, (0, "Euler-product mismatch"))
