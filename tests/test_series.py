"""Generating-function, Euler-product, Eisenstein, and hook-length oracles."""

import hashlib
import random
from fractions import Fraction
from math import factorial, gcd, isqrt

import pytest

import darcais.series

from darcais.arith import identity, one, sigma
from darcais.exact import Poly, X
from darcais.recursion import polynomial_sequence, value_sequence
from darcais.series import (
    closed_family_check,
    euler_product_columns,
    euler_product_ints,
    euler_product_power,
    generating_series_h_id,
    generating_series_h_one,
    hook_length_polynomial,
    inverse_eisenstein,
)

from oracles import (
    count_partitions_dp,
    euler_power_by_binomials,
    euler_power_by_rows,
    euler_product_by_factors,
    hook_length_polynomial_by_terms,
    miller_rows,
    pentagonal_coefficient,
    poly_mul,
    poly_trim,
    ramanujan_691_failures,
    triangular_coefficient,
)
from test_exact import assert_canonical

HALF = Fraction(1, 2)


def test_series_h_id_examples():
    series = generating_series_h_id(sigma(1), 4)
    assert series.coefficient(0) == 1
    assert series.coefficient(2) == (X**2 + 3 * X) * HALF
    series_one_g = generating_series_h_id(one(), 6)
    for n in range(7):
        rising = Poly([1])
        for k in range(n):
            rising = rising * (X + k)
        assert series_one_g.coefficient(n) * factorial(n) == rising


def test_series_h_one_examples():
    series = generating_series_h_one(one(), 6)
    for n in range(1, 7):
        assert series.coefficient(n) == X * (X + 1) ** (n - 1)
    assert generating_series_h_one(sigma(3), 1).coefficient(1)(-240) == -240
    assert generating_series_h_one(sigma(5), 1).coefficient(1)(504) == 504


def test_series_match_recursion():
    for g in (one(), identity(), sigma(1)):
        polys_id = polynomial_sequence(g, identity(), 14)
        polys_one = polynomial_sequence(g, one(), 14)
        series_id = generating_series_h_id(g, 14)
        series_one = generating_series_h_one(g, 14)
        for n in range(15):
            assert series_id.coefficient(n) == polys_id[n]
            assert series_one.coefficient(n) == polys_one[n]


def test_euler_product_small_powers():
    eta = euler_product_power(1, 30)
    for n in range(31):
        assert eta.coefficient(n) == pentagonal_coefficient(n)
    cube = euler_product_power(3, 30)
    for n in range(31):
        assert cube.coefficient(n) == triangular_coefficient(n)
    reciprocal = euler_product_power(-1, 25)
    for n in range(26):
        assert reciprocal.coefficient(n) == count_partitions_dp(n)


def test_euler_product_24():
    expansion = euler_product_power(24, 10)
    assert expansion.coefficient(0) == 1
    assert expansion.coefficient(1) == -24
    assert expansion.coefficient(2) == 252
    values = value_sequence(sigma(1), identity(), Fraction(-24), 10)
    for n in range(11):
        assert expansion.coefficient(n) == values[n]


def assert_tau_identities(values):
    # tau(n) for n = 1..len(values) is values[n - 1], checked against four
    # classical facts that share nothing with the routes but divisor sums
    top = len(values)
    tau = [None, *values]
    assert all(t.denominator == 1 for t in tau[1:])
    tau = [None, *(int(t) for t in tau[1:])]
    assert tau[1:6] == [1, -24, 252, -1472, 4830]
    # Ramanujan's congruence modulo 691
    assert ramanujan_691_failures(tau[1:]) == []
    # multiplicativity on coprime pairs
    for m in range(2, top + 1):
        for n in range(m + 1, top // m + 1):
            if gcd(m, n) == 1:
                assert tau[m * n] == tau[m] * tau[n], (m, n)
    primes = [p for p in range(2, top + 1) if all(p % d for d in range(2, isqrt(p) + 1))]
    for p in primes:
        # Deligne's bound |tau(p)| <= 2 p^(11/2), squared so it stays in ints
        assert tau[p] ** 2 <= 4 * p**11, p
        # the Hecke recursion tau(p^(k+1)) = tau(p) tau(p^k) - p^11 tau(p^(k-1))
        k = 1
        while p ** (k + 1) <= top:
            assert tau[p ** (k + 1)] == tau[p] * tau[p**k] - p**11 * tau[p ** (k - 1)], (p, k)
            k += 1


def test_tau_identities_hold_on_the_recursion_values():
    # tau(n) = P_{n-1}(-24) for (sigma, id)
    assert_tau_identities(value_sequence(sigma(1), identity(), Fraction(-24), 1999))


def test_tau_identities_hold_on_the_product_route():
    # tau(n) = [q^(n-1)] prod (1 - q^k)^24, by three squarings of Jacobi's cube
    assert_tau_identities(euler_product_ints(24, 1999))


@pytest.mark.parametrize("r", [0, 1, 2, 3, 4, 5, 6, 8, 9, 10, 11, 15, 21, 24, 25, 26, 27, 30])
def test_nonnegative_integer_powers_match_the_binomial_product(r):
    # both routes against the factors (1 - q^n)^r multiplied out by binomial
    # coefficients, well past the order 40 of the factor-by-factor test:
    # the product route, J^t E^s by packed squarings, in ints, as the Lehmer
    # scan reads it, and Miller's recurrence on the constant (r,), as Fractions;
    # t = r // 3 is 3, 5, 7, 9 or 10 for r = 9, ..., 30, so the binary
    # powering also takes its multiply by J after a 1 bit
    order = 300
    expected = euler_power_by_binomials(r, order)
    ints = euler_product_ints(r, order)
    assert ints == expected and all(type(c) is int for c in ints)
    coefficients = euler_product_power(r, order).coefficients
    assert coefficients == tuple(expected)
    assert all(type(c) is Fraction for c in coefficients)
    assert euler_product_power(Fraction(r), order) == euler_product_power(r, order)


def test_product_route_matches_the_factor_by_factor_product():
    # J^t E^s against the product multiplied out factor by factor, for every
    # r = 3 t + s <= 30 and every truncation to order 40
    for r in range(31):
        slow_top = euler_product_by_factors(r, 40).coefficients
        for order in range(41):
            ints = euler_product_ints(r, order)
            assert ints == list(slow_top[:order + 1]), (r, order)
            assert all(type(c) is int for c in ints), (r, order)


@pytest.mark.parametrize("r", [0, 1, 3, 24, Fraction(7)], ids=repr)
def test_euler_product_power_never_takes_the_product_route(monkeypatch, r):
    # the power runs Miller's recurrence for every exponent, so a test of it
    # checks that route and no other
    def refuse(*args):
        raise AssertionError("euler_product_power took the product route")

    monkeypatch.setattr(darcais.series, "euler_product_ints", refuse)
    assert euler_product_power(r, 40).coefficients == tuple(euler_power_by_binomials(int(r), 40))


def test_euler_product_integer_exponents_match_recursion_values():
    # prod (1-q^n)^r has q^n coefficient P_n(-r) for (sigma, id); the int
    # expansion also equals the symbolic one evaluated at x = r
    symbolic = euler_product_power(X, 40)
    for r in range(-6, 31):
        direct = euler_product_power(r, 40).coefficients
        assert euler_product_power(Poly((r,)), 40).coefficients == direct, r
        values = value_sequence(sigma(1), identity(), -r, 40)
        assert len(direct) == len(values) == 41
        for n in range(41):
            assert isinstance(direct[n], Fraction) and isinstance(values[n], Fraction)
            at_r = symbolic.coefficient(n)
            at_r = at_r(r) if isinstance(at_r, Poly) else at_r
            assert direct[n] == at_r == values[n], (r, n)


EXPONENTS = [
    *range(-6, 31), HALF, Fraction(-5, 3), X, -X, -X - 1, 2 * X / 3 + 1, X**2, Poly(),
    (X**2 - 3 * X) / 5 + HALF,  # d = 10 and deg u = 2
]


@pytest.mark.parametrize("exponent", EXPONENTS, ids=[repr(r) for r in EXPONENTS])
def test_euler_product_power_matches_the_factor_by_factor_product(exponent):
    # the pentagonal recurrence against the product multiplied out factor
    # by factor, coefficient by coefficient and type by type; each
    # truncation is a prefix of the longest one, of order 80 for the hook
    # scan's exponent and 40 for the others
    top = 80 if exponent == -X - 1 else 40
    slow_top = euler_product_by_factors(exponent, top).coefficients
    for order in range(top + 1):
        fast = euler_product_power(exponent, order).coefficients
        slow = slow_top[:order + 1]
        assert fast == slow, (exponent, order)
        assert list(map(type, fast)) == list(map(type, slow)), (exponent, order)
        for c in fast:
            if isinstance(c, Poly):
                assert_canonical(c)


def test_hook_rows_lead_with_the_scale_over_n_factorial():
    # for r = -x - 1 column j lists c_{n,j} = [x^j] N! G_n for n = j..N,
    # N = 200: the leading entry c_{n,n} is N! / n!, since [x^n] n! G_n = 1,
    # and every entry is positive, as the hook length formula makes it
    order = 200
    columns = list(euler_product_columns(-X - 1, order))
    assert [len(column) for column in columns] == list(range(order + 1, 0, -1))
    assert [column[0] for column in columns] == [
        factorial(order) // factorial(n) for n in range(order + 1)]
    assert all(c > 0 for column in columns for c in column)


def assert_columns_match_rows(exponent, order):
    """The columns, transposed by `euler_product_power`, against the row
    kernel of `oracles`: value and type, order by order."""
    columns = euler_product_power(exponent, order).coefficients
    rows = euler_power_by_rows(exponent, order).coefficients
    assert columns == rows, exponent
    assert list(map(type, columns)) == list(map(type, rows)), exponent


def seeded_exponents(count, seed=31):
    """Poly exponents u / d with deg u <= 3, d <= 6 and orders <= 40."""
    rng = random.Random(seed)
    for _ in range(count):
        u = [rng.randint(-6, 6) for _ in range(rng.randint(1, 4))]
        exponent = Poly(u) / rng.randint(1, 6)
        if exponent:
            yield exponent, rng.randint(0, 40)


@pytest.mark.parametrize(
    "exponent, order",
    [(-X - 1, 200), (X, 40), (Poly((-1,)), 40), (Poly((HALF,)), 40), *seeded_exponents(30)],
    ids=lambda value: repr(value),
)
def test_columns_transposed_are_the_row_kernel(exponent, order):
    assert_columns_match_rows(exponent, order)


@pytest.mark.parametrize(
    "exponent, order",
    [*seeded_exponents(30), (X, 0), (-X - 1, 0), (Poly((Fraction(-7, 3),)), 0),
     (Poly((HALF,)), 40), (Poly((Fraction(-7, 3),)), 30), (X * X - 1, 80),
     (Poly((1, -2, 3)) / 5, 60), (-X - 1, 60), (X - 1, 40), (X, 40), (1 - X, 40),
     (-X * X, 40), (2 * X - 3, 40)],
    ids=lambda value: repr(value),
)
def test_columns_are_the_row_kernel_over_one_scale(exponent, order):
    # column j lists c_{n,j} = [x^j] F_n d^(N-n) N! / n!, N = order, for
    # n = ceil(j / D)..N (every n for D = 0), where F_n = d^n n! G_n are the
    # row kernel's unreduced rows: every row over the one scale d^N N!; the
    # degree-2 exponents carry S1 from two columns back past order 40.  The
    # carried coefficients v = u + d take each case of the kernel: v_0 = 0
    # with v_1 = -1 (-x - 1) or +1 (x - 1), v_1 = 0 and v_2 = +1 (x^2 - 1);
    # v_0 != 0 with v_1 = +1 (x), -1 (1 - x) or 2 (2x - 3), and v_1 = 0,
    # v_2 = -1 (-x^2); v = (6, -2, 3) for (1 - 2x + 3x^2) / 5
    d, degree = exponent.denominator, len(exponent.numerators) - 1
    rows = miller_rows(exponent, order)
    expected = []
    for j in range(order * degree + 1):
        first = -(-j // degree) if degree else 0
        expected.append([rows[n][j] * d ** (order - n) * factorial(order) // factorial(n)
                         for n in range(first, order + 1)])
    assert list(euler_product_columns(exponent, order)) == expected


def test_the_zero_exponent_yields_the_series_one():
    # the zero Poly has no numerators: one column, the scale 5! and zeros
    for zero in (Poly(), Poly((0,))):
        assert list(euler_product_columns(zero, 5)) == [[factorial(5), 0, 0, 0, 0, 0]]


def test_a_flipped_pentagonal_sign_fails_the_row_kernel_comparison(monkeypatch):
    # mutation: the kernel reads e_5 = -1 where Euler's theorem has +1;
    # the row kernel takes its signs from its own pentagonal_pairs
    real = darcais.series._pentagonal
    monkeypatch.setattr(darcais.series, "_pentagonal",
                        lambda order: [(i, -e if i == 5 else e) for i, e in real(order)])
    for exponent, order in ((-X - 1, 30), (X, 12)):
        with pytest.raises(AssertionError):
            assert_columns_match_rows(exponent, order)


def test_hook_columns_are_the_partition_series_times_powers_of_L():
    # Q_n(y) = P_n(y + 1) has generating function exp((y + 1) L) = P(q) exp(y L),
    # with P = sum p(n) q^n and L = sum sigma(m) q^m / m, so column j of the
    # hook rows N! Q_n, N = order, is N! [q^n] P L^j / j!: each column
    # series is the previous one times L / j, in Fractions, sharing nothing
    # with Miller's recurrence
    order = 30
    partitions = [Fraction(count_partitions_dp(n)) for n in range(order + 1)]
    log_series = [Fraction(0)] + [
        Fraction(sum(k for k in range(1, m + 1) if m % k == 0), m) for m in range(1, order + 1)]
    series = partitions
    for j, column in enumerate(euler_product_columns(-X - 1, order)):
        if j:
            series = [c / j for c in poly_mul(series, log_series)[:order + 1]]
            series += [Fraction(0)] * (order + 1 - len(series))
        assert series[:j] == [0] * j
        assert column == [factorial(order) * series[n] for n in range(j, order + 1)], j


def test_pentagonal_pairs_are_euler_coefficients():
    for order in (0, 1, 2, 7, 40, 300):
        pairs = darcais.series._pentagonal(order)
        assert [i for i, _ in pairs] == sorted({i for i, _ in pairs})
        expected = {n: pentagonal_coefficient(n) for n in range(1, order + 1)}
        assert dict(pairs) == {n: e for n, e in expected.items() if e}, order


def test_euler_product_exponent_types():
    half = euler_product_power(HALF, 6)
    assert euler_product_power(Poly((HALF,)), 6).coefficients == half.coefficients
    square = poly_mul(half.coefficients, half.coefficients)[:7]
    assert poly_trim(square) == poly_trim(euler_product_power(1, 6).coefficients)
    assert all(isinstance(c, Fraction) for c in half.coefficients)
    with pytest.raises(TypeError):
        euler_product_power(True, 4)
    with pytest.raises(TypeError):
        euler_product_power(0.5, 4)
    for bad, error in ((-1, ValueError), (True, TypeError), (Fraction(2), TypeError)):
        with pytest.raises(error):
            euler_product_ints(bad, 4)


def test_euler_product_symbolic_exponent():
    expansion = euler_product_power(X, 10)
    polys = polynomial_sequence(sigma(1), identity(), 10)
    negate = Poly([0, -1])
    for n in range(11):
        coeff = expansion.coefficient(n)
        assert isinstance(coeff, Poly) or n == 0
        if isinstance(coeff, Poly):
            assert coeff.degree <= n
        assert coeff == polys[n](negate)


def test_euler_product_negative_symbolic_relation():
    # substituting a concrete integer into the symbolic expansion matches
    # the directly expanded product
    symbolic = euler_product_power(X, 8)
    for r in (-2, 1, 5):
        direct = euler_product_power(r, 8)
        for n in range(9):
            coeff = symbolic.coefficient(n)
            value = coeff(Fraction(r)) if isinstance(coeff, Poly) else coeff
            assert value == direct.coefficient(n)


def test_inverse_eisenstein_values():
    a4 = inverse_eisenstein(4, 6)
    assert a4[0] == 1
    assert a4[1] == -240
    a6 = inverse_eisenstein(6, 6)
    assert a6[0] == 1
    assert a6[1] == 504
    # two independent routes for a6(2): series inversion vs 504*(504 + sigma5(2))
    assert a6[2] == 504 * (504 + 33) == 270648
    with pytest.raises(ValueError):
        inverse_eisenstein(8, 3)


def test_inverse_eisenstein_matches_recursion_values():
    a4 = inverse_eisenstein(4, 20)
    v4 = value_sequence(sigma(3), one(), Fraction(-240), 20)
    assert a4 == v4
    a6 = inverse_eisenstein(6, 20)
    v6 = value_sequence(sigma(5), one(), Fraction(504), 20)
    assert a6 == v6
    assert all(isinstance(c, Fraction) for c in a4 + a6 + v4 + v6)


def test_hook_length_polynomial_examples():
    assert hook_length_polynomial(0) == Poly([1])
    assert hook_length_polynomial(1) == 1 + X
    assert hook_length_polynomial(2) == Poly([2, Fraction(5, 2), HALF])
    for n in range(11):
        q = hook_length_polynomial(n)
        assert q.degree == n
        assert q(0) == count_partitions_dp(n)
        assert all(c > 0 for c in q.coefficients)


def test_hook_length_polynomial_counts_a_conjugate_pair_twice_and_a_self_conjugate_once():
    # n = 4: (3, 1) and (2, 1, 1) form a pair, (2, 2) is its own conjugate
    assert hook_length_polynomial(4) == Poly(
        [5, Fraction(109, 12), Fraction(119, 24), Fraction(11, 12), Fraction(1, 24)])


def test_hook_length_polynomial_matches_the_sum_of_its_terms():
    # one reduction over n!^2 gives the polynomial that reducing after
    # every partition's term gives, up to n = 22, where the packed sum's
    # slots are 172 bits wide and its coefficients reach 154 bits
    for n in range(23):
        q = hook_length_polynomial(n)
        assert q == hook_length_polynomial_by_terms(n), n
        assert_canonical(q)


def test_hook_length_polynomial_shift_identity():
    polys = polynomial_sequence(sigma(1), identity(), 10)
    shift = X + 1
    for n in range(11):
        assert hook_length_polynomial(n) == polys[n](shift)


def test_closed_family_checks_pass():
    hs = [one(), identity(), sigma(1)]
    for family in ("pochhammer", "stirling", "lah", "chebyshev3term", "symmetric_product"):
        checks, failure = closed_family_check(family, 10, hs)
        assert failure is None, (family, failure)
        assert checks > 0
    with pytest.raises(ValueError):
        closed_family_check("legendre", 5, hs)


def _stirling_off_at_2_1(stirling_rows):
    def broken(max_n):
        rows = [list(row) for row in stirling_rows(max_n)]
        rows[2][1] += 1
        return rows
    return broken


@pytest.mark.parametrize(
    "family, name, breaker, expected",
    [
        ("pochhammer", "polynomial_sequence", lambda _: lambda g, h, n: [Poly()] * (n + 1),
         (1, ("pochhammer", 1))),
        ("stirling", "stirling_rows", _stirling_off_at_2_1, (5, ("stirling", 2, 1))),
        ("lah", "comb", lambda comb: lambda n, k: comb(n, k) + (n == 2), (4, ("lah", 3, 1))),
        ("chebyshev3term", "polynomial_sequence", lambda _: lambda g, h, n: [X] * (n + 1),
         (1, ("chebyshev3term", "one", 0))),
        ("symmetric_product", "polynomial_sequence",
         lambda _: lambda g, h, n: [Poly()] * (n + 1), (1, ("symmetric_product", "one", 1))),
    ],
)
def test_closed_family_check_reports_the_first_failure(monkeypatch, family, name, breaker,
                                                       expected):
    monkeypatch.setattr(darcais.series, name, breaker(getattr(darcais.series, name)))
    assert closed_family_check(family, 4, [one(), identity()]) == expected


def test_chebyshev_three_term_instance():
    # g = id, h = one, n = 0: h(0) P0 + (-2 - x) P1 + P2 must vanish (h(0) = 0)
    polys = polynomial_sequence(identity(), one(), 2)
    assert polys[2] == X**2 + 2 * X
    relation = Poly() * polys[0] + (Poly([-2]) - X) * polys[1] + polys[2]
    assert not relation


def test_symmetric_product_example():
    p3 = polynomial_sequence(one(), identity(), 3)[3]
    assert p3 * 6 == X * (X + 1) * (X + 2)


# sha256 of repr(inverse_eisenstein(weight, 400)) from the Fraction loop of
# Series.inverse: the int loop it now takes must give the same Fractions
INVERSE_EISENSTEIN_400 = {
    4: "a10eb19a7259238b708d886a315fea24b7165de4e0b6bf4f6618c2f80955de30",
    6: "9207f455a5ddc4dd1fc80e1bcdea586331bf79e7916bbba33bfc1458e18ff60f",
}


@pytest.mark.parametrize("weight", [4, 6])
def test_inverse_eisenstein_to_400_is_unchanged(weight):
    values = inverse_eisenstein(weight, 400)
    assert all(type(c) is Fraction for c in values)
    assert hashlib.sha256(repr(values).encode()).hexdigest() == INVERSE_EISENSTEIN_400[weight]
