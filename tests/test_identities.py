from __future__ import annotations

import functools
import json
import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fraction_poly
import scv.identities as identities
from certificates import monomials_degrees, nonzero_points
from conftest import run_cli
from fraction_poly import as_unipoly
from oracles import (
    bb2_weight,
    bb4_side_oracle,
    cc1_weight,
    check_bb2_oracle,
    check_bb4_recurrence_oracle,
    check_cc1_oracle,
    check_telescope_oracle,
    coefficients_oracle,
    corrupted_recurrence_tables,
    d_val,
    f_poly_oracle,
    recurrence_coefficient,
    s_val,
)
from scv import poly
from scv.exact_arith import coefficients_str
from scv.identities import (
    SIDES,
    check_bb2,
    check_bb4_direct,
    check_bb4_initial,
    check_bb4_recurrence,
    check_cc1,
    check_cc4,
    check_liu26,
    check_telescope,
    eval_bb4_side,
    recurrence_coefficients,
    recurrence_residual,
)
from scv.sweeps import BB4_N_MAX, IDENTITIES, SWEEPS, run_tasks


def test_cc1_examples():
    assert check_cc1(0, 0).passed
    for n in range(5):
        assert check_cc1(0, n).passed
    assert check_cc1(1, 1).passed
    for j in range(5):
        for k in range(5):
            assert check_cc1(j, k).passed


def test_cc1_is_polynomial_equality():
    r = check_cc1(1, 1)
    # both witnesses are the full coefficient lists of a degree-4 polynomial
    assert r.lhs_witness == r.rhs_witness
    assert r.lhs_witness.count(",") == 4


def test_cc4_examples():
    assert check_cc4(1, 1).passed
    assert check_cc4(1, 1).lhs_witness == "4"
    assert check_cc4(0, 0).passed
    assert check_cc4(2, 3).passed
    with pytest.raises(ValueError):
        check_cc4(2, 5)


def test_liu26_examples():
    assert check_liu26(0).lhs_witness == "1"
    assert check_liu26(2).passed
    r = check_liu26(7)
    assert r.passed and r.rhs_witness == "-1"
    for s in range(20):
        assert check_liu26(s).passed


def test_telescope_examples():
    r = check_telescope(1)
    assert r.passed
    assert check_telescope(2).passed
    assert check_telescope(6).passed
    with pytest.raises(ValueError):
        check_telescope(0)


def test_telescope_degree_12_case():
    cleared = as_unipoly(poly.pair_binomial_poly(6)).scale(6 * (-1) ** 7)
    assert cleared.degree == 12
    assert check_telescope(6).passed


def test_bb2_examples():
    assert check_bb2(0).passed
    r = check_bb2(1)
    assert r.passed
    # (1+2x)(1+x+x^2) = 1+3x+3x^2+2x^3
    assert r.lhs_witness == "[1, 3, 3, 2]"
    assert check_bb2(5).passed


def test_eval_bb4_side_values():
    assert eval_bb4_side("lhs", 0, 0) == 1
    assert eval_bb4_side("lhs", 1, 1) == eval_bb4_side("rhs", 1, 1) == 9
    # the double-sum side factors through the polynomial families
    for m in range(6):
        for n in range(6):
            assert eval_bb4_side("lhs", m, n) == d_val(n, m) * s_val(n, m)
    with pytest.raises(ValueError):
        eval_bb4_side("middle", 1, 1)


def test_bb4_direct_small_grid():
    for m in range(8):
        for n in range(8):
            assert check_bb4_direct(m, n).passed


def test_bb4_sides_are_nonnegative_integers():
    for side in ("lhs", "rhs"):
        for m in range(6):
            for n in range(6):
                v = eval_bb4_side(side, m, n)
                assert isinstance(v, int) and v >= 0


# The recurrence coefficients in factored form. As polynomials, c0 and c4 have
# degree 6 in m and 0 in n, c1 and c3 degree 4 and 2, and c2 degree 6 and 2:
# no more than the tables' (6, 2).
def c0(m, n):
    return (m + 1) ** 3 * (m + 2) * (3 * m * m + 18 * m + 26)


def c1(m, n):
    return -2 * (m + 2) * (
        12 * m**3 * n**2 + 12 * m**3 * n + 90 * m**2 * n**2 + 3 * m**3
        + 90 * m**2 * n + 212 * m * n**2 + 23 * m**2 + 212 * m * n
        + 156 * n**2 + 55 * m + 156 * n + 41
    )


def c2(m, n):
    return -2 * (
        3 * m**6 + 30 * m**4 * n**2 + 45 * m**5 + 30 * m**4 * n
        + 300 * m**3 * n**2 + 287 * m**4 + 300 * m**3 * n
        + 1094 * m**2 * n**2 + 995 * m**3 + 1094 * m**2 * n
        + 1720 * m * n**2 + 1964 * m**2 + 1720 * m * n + 978 * n**2
        + 2070 * m + 978 * n + 898
    )


def c3(m, n):
    return -2 * (m + 3) * (
        12 * m**3 * n**2 + 12 * m**3 * n + 90 * m**2 * n**2 + 3 * m**3
        + 90 * m**2 * n + 212 * m * n**2 + 22 * m**2 + 212 * m * n
        + 154 * n**2 + 50 * m + 154 * n + 34
    )


def c4(m, n):
    return (m + 3) * (m + 4) ** 3 * (3 * m * m + 12 * m + 11)


FACTORED = (c0, c1, c2, c3, c4)


def _factored_failures(tables) -> list[tuple[int, tuple[int, ...]]]:
    """(index, point) wherever a table differs from its factored form on the full degree grid."""
    degrees = monomials_degrees(tables)
    failures = []
    for index, (table, factored) in enumerate(zip(tables, FACTORED)):
        def difference(m, n, table=table, factored=factored):
            return recurrence_coefficient(table, m, n) - factored(m, n)

        failures += [(index, point) for point in nonzero_points(difference, degrees)]
    return failures


def _residual_failures() -> list[tuple[str, int, int]]:
    """(side, m, n) wherever a residual is not zero on its window m = 0..3n+6, n <= BB4_N_MAX.

    At fixed n each side has degree 3n in m and each coefficient degree <= 6
    (the tables' m-degree), so the residual has degree <= 3n + 6: a window
    with no failure proves the recurrence at that n for every m >= 0.
    """
    m_degree = monomials_degrees(identities._RECURRENCE_TRIPLES)[0]
    return [
        (side, m, n)
        for n in range(BB4_N_MAX + 1)
        for side in SIDES
        for (m,) in nonzero_points(lambda m: recurrence_residual(side, m, n), (3 * n + m_degree,))
    ]


def _differences(values: list[int], order: int) -> list[int]:
    for _ in range(order):
        values = [b - a for a, b in zip(values, values[1:])]
    return values


def test_recurrence_table_matches_factored_forms():
    # proof (i): each table equals its factored form on the 7 x 3 grid, so everywhere;
    # c4's factors are then positive at every m >= 0
    assert monomials_degrees(identities._RECURRENCE_TRIPLES) == (6, 2)
    assert _factored_failures(identities._RECURRENCE_TRIPLES) == []


def test_recurrence_annihilates_both_sides_on_its_degree_window():
    # proof (ii): the residual of each side vanishes at m = 0..3n+6 for every n <= BB4_N_MAX
    assert _residual_failures() == []


@pytest.mark.parametrize("side", SIDES)
def test_bb4_sides_have_degree_3n_in_m(side):
    # the degree bound behind proof (ii): at n <= 5 the (3n+1)-th forward difference
    # in m is 0 and the 3n-th a non-zero constant, from each of the starts m = 0..4
    for n in range(6):
        values = [eval_bb4_side(side, m, n) for m in range(3 * n + 6)]
        top = _differences(values, 3 * n)
        assert len(set(top)) == 1 and top[0] != 0, n
        assert _differences(values, 3 * n + 1) == [0] * 5, n


@pytest.mark.parametrize("tables", [
    identities._RECURRENCE_TRIPLES,
    # n-exponents up to 3, a missing constant term and a zero coefficient
    (((0, 3, 2), (5, 1, -1)), ((2, 0, 7),), ((0, 0, 0),), ((1, 2, -3), (1, 2, 4)), ((3, 0, 1),)),
])
def test_coefficients_per_m_match_tables_as_written(recurrence_tables, tables):
    recurrence_tables(tables)
    for m in range(81):
        for n in range(26):
            expected = tuple(recurrence_coefficient(table, m, n) for table in tables)
            assert recurrence_coefficients(m, n) == expected, (m, n)


def test_recurrence_leading_coefficient_nonzero():
    for m in range(201):
        assert recurrence_coefficients(m, 0)[4] > 0
        assert recurrence_coefficients(m, 17)[4] > 0


def test_each_side_check_computes_one_residual(monkeypatch):
    residuals = []
    residual = identities.recurrence_residual
    monkeypatch.setattr(
        identities, "recurrence_residual",
        lambda side, m, n: residuals.append((side, m, n)) or residual(side, m, n),
    )
    for side in SIDES:
        residuals.clear()
        assert check_bb4_recurrence(side, 5, 7).passed
        assert residuals == [(side, 5, 7)]


def test_corrupted_tables_fail_both_proofs_and_both_sides(recurrence_tables):
    corrupted = corrupted_recurrence_tables()
    # the miswritten m^6 term of c2 is wrong at every grid point but m = 0
    assert _factored_failures(corrupted) == [(2, (m, n)) for m in range(1, 7) for n in range(3)]
    recurrence_tables(corrupted)
    assert _residual_failures()
    for m in range(8):
        for n in range(26):
            verdicts = {side: check_bb4_recurrence(side, m, n).passed for side in SIDES}
            assert verdicts == {"lhs": m == 0, "rhs": m == 0}, (m, n)


def test_corrupted_table_fails_the_cli_run_at_both_sides(recurrence_tables):
    recurrence_tables(corrupted_recurrence_tables())
    res = run_cli(
        "verify", "identity", "--name", "bb4-recurrence", "--max", "2", "--format", "json"
    )
    assert res.exit_code == 1
    records = [c for c in json.loads(res.output)["checks"] if c["check_name"] == "bb4-recurrence"]
    by_side = {side: {} for side in SIDES}
    for c in records:
        params = c["parameters"]
        by_side[params["side"]][params["m"], params["n"]] = c
    failed = {
        side: {point for point, c in checks.items() if not c["pass"] and c["modulus"] == "exact"}
        for side, checks in by_side.items()
    }
    assert len(by_side["lhs"]) == len(by_side["rhs"]) == 78
    # the miswritten m^6 term vanishes at m = 0, so those 26 points pass on both sides
    assert failed["lhs"] == failed["rhs"] == {(m, n) for m in (1, 2) for n in range(26)}
    assert all(c["pass"] for side in SIDES for point, c in by_side[side].items()
               if point not in failed[side])


def test_bb4_recurrence_examples():
    assert check_bb4_recurrence("lhs", 0, 0).passed
    r = check_bb4_recurrence("rhs", 5, 7)
    assert r.passed and r.lhs_witness == "0"
    with pytest.raises(ValueError, match="side must be one of"):
        check_bb4_recurrence("middle", 1, 1)


def test_bb4_initial_values():
    for m in range(4):
        for n in range(10):
            assert check_bb4_initial(m, n).passed
    with pytest.raises(ValueError):
        check_bb4_initial(4, 0)


def test_identity_checks_expose_exact_modulus():
    for r in [check_cc1(1, 2), check_cc4(2, 1), check_liu26(3), check_bb2(2)]:
        assert r.modulus == "exact"
        assert r.passed == (r.lhs_witness == r.rhs_witness)


def test_bb4_sides_match_as_written_oracle():
    # every point the default identity grids reach
    for m in range(45):
        for n in range(26):
            for side in SIDES:
                assert eval_bb4_side(side, m, n) == bb4_side_oracle(side, m, n), (side, m, n)


@settings(deadline=None)  # what is checked is the string, not its time
@given(
    st.lists(st.one_of(st.integers(-60, 60), st.integers()), max_size=10),
    st.integers(0, 3),
    st.one_of(
        st.integers(1, 60),
        st.integers(min_value=1),
        st.sampled_from([math.factorial(n) ** 2 for n in range(12)]),
    ),
)
def test_coefficients_print_as_their_fraction_oracle(nums, trailing_zeros, den):
    # negative, zero and trailing-zero numerators over any denominator >= 1
    p = ((*nums, *[0] * trailing_zeros), den)
    assert coefficients_str(*p) == coefficients_oracle(p)
    assert coefficients_str([0] * len(nums), den) == "[]"


def test_f_poly_matches_as_written_oracle():
    for k in range(15):
        assert as_unipoly(poly.f_poly(k)) == f_poly_oracle(k), k


def test_cc1_matches_unipoly_oracle():
    for j in range(9):
        for k in range(9):
            assert check_cc1(j, k) == check_cc1_oracle(j, k), (j, k)


def test_cc1_violations_match_unipoly_oracle(monkeypatch):
    # a perturbed weight breaks the identity; both routes must give the same witnesses
    perturbed = lambda j, k, s: cc1_weight(j, k, s) + (s == j + k - 1)  # noqa: E731
    monkeypatch.setattr(identities, "_cc1_weight", perturbed)
    failed = []
    for j in range(5):
        for k in range(5):
            r = check_cc1(j, k)
            assert r == check_cc1_oracle(j, k, weight=perturbed), (j, k)
            if not r.passed:
                failed.append(r)
    assert len(failed) == 24
    assert any("/" in r.rhs_witness for r in failed)


def test_bb2_and_telescope_match_unipoly_oracle():
    for n in range(26):
        assert check_bb2(n) == check_bb2_oracle(n), n
    for n in range(1, 21):
        assert check_telescope(n) == check_telescope_oracle(n), n


def test_bb2_violations_match_unipoly_oracle(monkeypatch):
    # one perturbed Schmidt weight breaks the identity for every n >= 2
    perturbed = lambda n, k: bb2_weight(n, k) + (k == 2)  # noqa: E731
    monkeypatch.setattr(identities, "schmidt_coefficient", perturbed)
    failed = []
    for n in range(8):
        r = check_bb2(n)
        assert r == check_bb2_oracle(n, weight=perturbed), n
        if not r.passed:
            failed.append(r)
    assert len(failed) == 6
    assert any("/" in r.rhs_witness for r in failed)


@pytest.mark.parametrize("shift", [1, Fraction(1, 3)])
def test_telescope_violations_match_unipoly_oracle(monkeypatch, shift):
    # C(x,3)C(x+3,3) + shift breaks the partial sums for n > 3 and the closed form at n = 3
    def perturbed(s):
        return fraction_poly.pair_binomial_poly(s) + (shift if s == 3 else 0)

    pair_binomial_poly = poly.pair_binomial_poly

    def perturbed_int(s):
        # over the same s!^2, so the library's denominators still clear every term
        p = pair_binomial_poly(s)
        return poly.poly_sum([(1, p), (shift if s == 3 else 0, ((1,), 1))], p[1])

    # check_telescope imports its builders from scv.poly when it runs
    monkeypatch.setattr(poly, "pair_binomial_poly", perturbed_int)
    failed = []
    for n in range(1, 9):
        r = check_telescope(n)
        assert r == check_telescope_oracle(n, pair=perturbed), n
        if not r.passed:
            failed.append(r)
    assert [r.parameters["n"] for r in failed] == [3, 4, 5, 6, 7, 8]
    assert any("/" in r.lhs_witness for r in failed)


def test_bb4_recurrence_holds_to_m_80():
    results = run_tasks(SWEEPS["identity"].grid("bb4-recurrence", 80))
    assert len(results) == 4316
    assert all(r.passed for r in results)


def test_bb4_recurrence_matches_as_written_residual():
    for top in (IDENTITIES["bb4-recurrence"].default_max, 80):
        for kind, kv in SWEEPS["identity"].grid("bb4-recurrence", top):
            if kind == "bb4-recurrence":
                params = dict(kv)
                assert check_bb4_recurrence(**params) == check_bb4_recurrence_oracle(**params)


def test_recurrence_tables_collapsed_once_per_m(monkeypatch):
    collapsed = []
    collapse = identities._coefficients_in_n.__wrapped__
    # a fresh cache, with nothing collapsed
    monkeypatch.setattr(identities, "_coefficients_in_n", functools.lru_cache(maxsize=None)(
        lambda m: collapsed.append(m) or collapse(m)
    ))
    identities.recurrence_coefficients.cache_clear()
    results = run_tasks(SWEEPS["identity"].grid("bb4-recurrence", 40))
    assert all(r.passed for r in results)
    # both sides at every n share one collapse per m, and the two sides of one (m, n),
    # adjacent in the grid, one evaluation of its coefficients
    assert sorted(collapsed) == list(range(41))
    info = identities.recurrence_coefficients.cache_info()
    assert (info.hits, info.misses) == (41 * 26, 41 * 26)
