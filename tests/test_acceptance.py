"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.  Everything is exact arithmetic; the stated bounds are the desk-scale
bounds, with the long hook-polynomial sweep (n <= 1500) available as an
opt-in run via DARCAIS_LONG_SCANS=1.
"""

import os
from fractions import Fraction
from math import comb

import pytest

from darcais.arith import from_table, identity, one, sigma
from darcais.checks import (
    closed_families,
    conversion,
    h_weight_forms,
    hook_length_identity,
    hook_log_concavity,
    hook_top_inequality,
    inverse_eisenstein_values,
    lehmer_nonvanishing,
    reference_quadratics,
    route_equivalence,
    series_oracles,
    symbolic_euler_product,
    top_margins,
)
from darcais.partitions import compositions_of
from darcais.recursion import coefficient_table, polynomial_sequence
from darcais.series import euler_product_power, hook_length_polynomial
from darcais.shapes import counterexample_search, top_margin
from darcais.weights import coefficient_h_id, coefficient_h_one, h_weight

from oracles import (
    count_partitions_dp,
    implication_chain_holds,
    pentagonal_coefficient,
    triangular_coefficient,
)

G_BUILTINS = [one(), identity(), sigma(1), sigma(3), sigma(5)]
H_BUILTINS = [one(), identity(), sigma(1)]


def report(number: int, title: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"[acceptance] criterion {number:02d} {title}: {status}{suffix}")
    assert ok, f"criterion {number} failed{suffix}"


def test_criterion_01_route_equivalence():
    """Weight formula == triangle recursion == polynomial recursion, n <= 20."""
    bound = 20
    checks, failure = route_equivalence(G_BUILTINS, H_BUILTINS, bound)
    report(1, "route equivalence", failure is None, failure or f"{checks} exact comparisons")
    # two comparisons per (g, h, n, m) with 1 <= m <= n <= 20: 6,300
    assert checks == 2 * len(G_BUILTINS) * len(H_BUILTINS) * sum(range(1, bound + 1))


def _bullet_values_h_one(g, n):
    return {
        n - 1: g(2) * (n - 1),
        n - 2: g(2) ** 2 * comb(n - 2, 2) + g(3) * (n - 2),
        n - 3: g(2) ** 3 * comb(n - 3, 3) + 2 * g(2) * g(3) * comb(n - 3, 2) + g(4) * (n - 3),
    }


def _bullet_values_h_id(g, n):
    return {
        n - 1: g(2) * comb(n, 2),
        n - 2: 3 * g(2) ** 2 * comb(n, 4) + 2 * g(3) * comb(n, 3),
        n - 3: 15 * g(2) ** 3 * comb(n, 6)
        + 20 * g(2) * g(3) * comb(n, 5)
        + 6 * g(4) * comb(n, 4),
    }


def test_criterion_02_closed_form_routes():
    """Closed h=one / h=id routes match the defining recursion (n <= 30);
    top-coefficient formulas hold as identities in g (all builtins plus
    generic rational tables) for n in 4..10."""
    bound = 30
    failure = None
    for g in G_BUILTINS:
        for h, route in ((one(), coefficient_h_one), (identity(), coefficient_h_id)):
            polys = polynomial_sequence(g, h, bound)
            hn = 1  # H(n) = h(1) ... h(n), and h(1) = 1
            for n in range(2, bound + 1):
                hn *= h(n)
                for m in range(1, n):
                    if route(g, n, m) != polys[n][m] * hn:
                        failure = f"h={h.name} route at g={g.name}, ({n},{m})"
                        break
                if failure:
                    break
            if failure:
                break
        if failure:
            break

    if failure is None:
        generic_a = from_table([1, "2/3", "5/7", "11/13", "17/5", "1/2", "7/11", "19/23", "29/31", "3/8"])
        generic_b = from_table([1, 5, "13/2", "3/4", "23/7", 2, "31/9", "37/11", "41/13", "43/17"])
        test_gs = G_BUILTINS + [generic_a, generic_b]
        for g in test_gs:
            t_one = coefficient_table(g, one(), 10)
            t_id = coefficient_table(g, identity(), 10)
            for n in range(4, 11):
                for m, expected in _bullet_values_h_one(g, n).items():
                    if t_one.entry(n, m) != expected:
                        failure = f"h=one bullet at g={g.name}, (n={n}, m={m})"
                        break
                for m, expected in _bullet_values_h_id(g, n).items():
                    if t_id.entry(n, m) != expected:
                        failure = f"h=id bullet at g={g.name}, (n={n}, m={m})"
                        break
                if failure:
                    break
            if failure:
                break
    report(2, "closed coefficient formulas", failure is None)


def test_criterion_03_h_weight_identities():
    """Inductive h-weight equals both closed forms for |mu|+len(mu) <= 14,
    n <= 30, plus the itemized reference values."""
    h1, hid = one(), identity()
    compositions: list[tuple[int, ...]] = [()]
    for size in range(1, 14):
        for length in range(1, min(size, 14 - size) + 1):
            compositions.extend(compositions_of(size, length))
    checked, failure = h_weight_forms(compositions, 30)

    if failure is None:
        for n in range(2, 31):
            ok = (
                h_weight(h1, (1,), n) == n - 1
                and h_weight(hid, (1,), n) == comb(n, 2)
                and (n < 3 or h_weight(h1, (2,), n) == n - 2)
                and (n < 3 or h_weight(hid, (2,), n) == 2 * comb(n, 3))
                and (n < 4 or h_weight(h1, (1, 1), n) == comb(n - 2, 2))
                and (n < 4 or h_weight(hid, (1, 1), n) == 3 * comb(n, 4))
                and (n < 4 or h_weight(h1, (1, 1, 1), n) == comb(n - 3, 3))
                and (n < 5 or h_weight(h1, (1, 2), n) == comb(n - 3, 2))
                and (n < 5 or h_weight(h1, (2, 1), n) == comb(n - 3, 2))
                and (n < 5 or h_weight(hid, (1, 2), n) == 12 * comb(n, 5))
                and (n < 5 or h_weight(hid, (2, 1), n) == 8 * comb(n, 5))
            )
            if not ok:
                failure = f"itemized value at n={n}"
                break
    report(3, "h-weight identities", failure is None, failure or f"{checked} weight comparisons")
    # two comparisons per (mu, n) with 0 <= n <= 30
    assert checked == 2 * len(compositions) * 31


def test_criterion_04_generating_function_oracles():
    """Series coefficients equal the recursion polynomials (n <= 30), and the
    symbolic Euler-product expansion equals P_n composed with -x."""
    bound = 30
    checks, failure = series_oracles(G_BUILTINS, bound)
    if failure is None:
        symbolic, failure = symbolic_euler_product(bound)
        checks += symbolic
    report(4, "generating-function oracles", failure is None, failure or f"{checks} coefficients")
    # one comparison per (g, h in {id, one}, n) and per n for the Euler product
    assert checks == (2 * len(G_BUILTINS) + 1) * (bound + 1)


def test_criterion_05_special_values():
    """Pentagonal signs (r=1), triangular support (r=3), partition numbers
    (r=-1), and the two inverse-Eisenstein identities, all to n <= 50."""
    bound = 50
    failure = None
    eta = euler_product_power(1, bound)
    cube = euler_product_power(3, bound)
    reciprocal = euler_product_power(-1, bound)
    for n in range(bound + 1):
        if eta.coefficient(n) != pentagonal_coefficient(n):
            failure = f"pentagonal pattern at n={n}"
            break
        if cube.coefficient(n) != triangular_coefficient(n):
            failure = f"triangular pattern at n={n}"
            break
        if reciprocal.coefficient(n) != count_partitions_dp(n):
            failure = f"partition numbers at n={n}"
            break
    checks, eisenstein_failure = inverse_eisenstein_values(bound)
    failure = failure or eisenstein_failure
    report(5, "special value identities", failure is None, failure or "")
    # one comparison per n for each of 1/E4 and 1/E6
    assert checks == 2 * (bound + 1)


def test_criterion_06_hook_length_identity():
    """Hook-length polynomials equal the shifted recursion polynomials for
    n <= 18 (corrected shift), and their value at 0 is p(n)."""
    bound = 18
    checks, failure = hook_length_identity(bound)
    if failure is None:
        # against the dynamic-programming count, which enumerates no partitions
        for n in range(bound + 1):
            if hook_length_polynomial(n)(0) != count_partitions_dp(n):
                failure = f"value at 0 differs from p(n) at n={n}"
                break
    report(6, "hook-length identity (corrected shift)", failure is None, failure or "")
    # the shift identity and Q_n(0) = p(n) for each 0 <= n <= 18
    assert checks == 2 * (bound + 1)


def test_criterion_07_conversion_formula():
    """A[n][m](g, id)/n! == A[n][m](g~, one)/m! for n <= 25, independent routes."""
    bound = 25
    gs = (one(), identity(), sigma(1), sigma(3))
    checks, failure = conversion(gs, bound)
    report(7, "conversion formula", failure is None, failure or "")
    # one comparison per (g, n, m) with 1 <= m <= n <= 25
    assert checks == len(gs) * bound * (bound + 1) // 2


def test_criterion_08_closed_families():
    """Pochhammer, Stirling, Lah, symmetric-product, and the g=id three-term
    relation for h in {one, id, sigma}, all n <= 30."""
    bound = 30
    checks, failure = closed_families(H_BUILTINS, bound)
    report(8, "closed families", failure is None, failure or "")
    # Pochhammer 1 <= n <= 30; Stirling 0 <= m <= n <= 30; Lah 1 <= m <= n <= 30;
    # per h, the three-term relation at 0 <= n <= 30 and the product at 1 <= n <= 30
    assert checks == (
        bound + (bound + 1) * (bound + 2) // 2 + bound * (bound + 1) // 2
        + len(H_BUILTINS) * (2 * bound + 1)
    )


def test_criterion_09_shape_scans():
    """Hook polynomials: exact log-concavity to n <= 100, strict top
    inequality to n <= 200, the implication chain on every sequence, and the
    two reference quadratics."""
    checks, failure = hook_log_concavity(100)
    if failure is None:
        top, failure = hook_top_inequality(200)
        checks += top
    if failure is None:
        classified, failure = reference_quadratics()
        checks += classified
    if failure is None:
        unimodal_not_lc = [Fraction(5), Fraction(2), Fraction(1)]
        lc_not_ultra = [Fraction(3), Fraction(2), Fraction(1)]
        if not (implication_chain_holds(unimodal_not_lc) and implication_chain_holds(lc_not_ultra)):
            failure = "reference quadratics break the implication chain"
    report(9, "shape scans", failure is None, failure or "")
    # log-concavity for n <= 100, the top inequality for 2 <= n <= 200, and
    # four classifications of the reference quadratics
    assert checks == 100 + 199 + 4


@pytest.mark.skipif(
    os.environ.get("DARCAIS_LONG_SCANS") != "1",
    reason="a 1 minute sweep (45 s, 56 MiB); set DARCAIS_LONG_SCANS=1 to run the n <= 1500 scan",
)
def test_criterion_09_long_hook_scan():
    _, failure = hook_log_concavity(1500)
    report(9, "shape scans (long run, n <= 1500)", failure is None, failure or "")


def test_criterion_10_top_margin():
    """Positive top margin for g = sigma (both h), the exact displayed lower
    bound, and the concrete counterexample fixture."""
    checks, failure = top_margins((one(), identity()), 100, search_n=50)
    if failure is None:
        # regression fixture: g = table[1, 1, 8] fails at n = 3 for both h
        for h, expected_margin in ((one(), -4), (identity(), -7)):
            witness = counterexample_search(h, max_n=50)
            if witness is None or witness.g_values != (1, 1, 8) or witness.n != 3:
                failure = f"unexpected counterexample witness for h={h.name}: {witness}"
                break
            if witness.margin != expected_margin:
                failure = f"unexpected witness margin for h={h.name}: {witness.margin}"
                break
            g_bad = from_table(list(witness.g_values))
            if top_margin(g_bad, h, witness.n) >= 0:
                failure = f"stored fixture no longer negative for h={h.name}"
                break
    report(10, "top-margin positivity and counterexample", failure is None, failure or "")
    # per h: the margin and its bound for 2 <= n <= 100, plus the witness search
    assert checks == 2 * (2 * 99 + 1)


def test_criterion_11_lehmer_scan():
    """P_n(-24) != 0 for (sigma, id), n <= 300, cross-checked against the
    24th Euler-product power."""
    checks, failure = lehmer_nonvanishing(300)
    report(11, "Lehmer-type non-vanishing scan", failure is None,
           failure or f"{checks} values, two routes")
    assert checks == 300
