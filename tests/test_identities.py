from __future__ import annotations

import functools
import json
import random
from fractions import Fraction

import pytest

import fraction_poly
import scv.identities as identities
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
    corrupted_recurrence_tables,
    d_val,
    f_poly_oracle,
    recurrence_coefficient,
    s_val,
)
from scv import poly
from scv.identities import (
    SIDES,
    CoefficientError,
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
from scv.sweeps import IDENTITIES, SWEEPS, run_tasks


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


def test_recurrence_table_matches_factored_forms():
    # The stored triples must reproduce the factored coefficient polynomials.

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

    factored = [c0, c1, c2, c3, c4]
    rng = random.Random(99)
    for _ in range(40):
        m, n = rng.randrange(0, 60), rng.randrange(0, 60)
        for i in range(5):
            assert recurrence_coefficients(m, n)[i] == factored[i](m, n)


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


def test_transcription_self_test_runs_before_rhs_certification(monkeypatch):
    # the rhs at (m, n) is certified by the coefficients that annihilate the lhs there
    residuals = []
    residual = identities.recurrence_residual
    monkeypatch.setattr(
        identities, "recurrence_residual",
        lambda coeffs, side, m, n: residuals.append((coeffs, side)) or residual(coeffs, side, m, n),
    )
    assert check_bb4_recurrence("rhs", 5, 7).passed
    coeffs = recurrence_coefficients(5, 7)
    assert residuals == [(coeffs, "lhs"), (coeffs, "rhs")]
    residuals.clear()
    assert check_bb4_recurrence("lhs", 5, 7).passed
    assert residuals == [(coeffs, "lhs")]


def test_transcription_self_test_catches_corruption(recurrence_tables):
    stored = identities._RECURRENCE_TRIPLES
    recurrence_tables(corrupted_recurrence_tables())
    caught = 0
    for m in range(8):
        for n in range(26):
            true = tuple(recurrence_coefficient(table, m, n) for table in stored)
            if recurrence_coefficients(m, n) == true:
                assert check_bb4_recurrence("rhs", m, n).passed, (m, n)
                continue
            # every point where the corrupted coefficients differ refuses to certify the rhs
            assert not check_bb4_recurrence("lhs", m, n).passed, (m, n)
            with pytest.raises(CoefficientError, match="transcription self-test failed"):
                check_bb4_recurrence("rhs", m, n)
            caught += 1
    assert caught == 7 * 26  # the miswritten m^6 term vanishes only at m = 0


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
    failed_lhs = {point for point, c in by_side["lhs"].items() if not c["pass"]}
    errored_rhs = {
        point for point, c in by_side["rhs"].items()
        if c["modulus"] == "error" and c["lhs_witness"].startswith("error: CoefficientError: ")
    }
    assert len(by_side["lhs"]) == len(by_side["rhs"]) == 78
    # the miswritten m^6 term vanishes at m = 0, so those 26 points pass on both sides
    assert failed_lhs == errored_rhs == {(m, n) for m in (1, 2) for n in range(26)}
    assert all(c["pass"] for point, c in by_side["rhs"].items() if point not in errored_rhs)


def test_vanishing_leading_coefficient_is_an_error(recurrence_tables):
    recurrence_tables((((0, 0, 1),), ((0, 0, 1),), ((0, 0, 1),), ((0, 0, 1),), ((0, 0, 0),)))
    with pytest.raises(CoefficientError):
        recurrence_residual(recurrence_coefficients(1, 1), "lhs", 1, 1)
    with pytest.raises(CoefficientError, match="leading coefficient vanishes"):
        check_bb4_recurrence("rhs", 1, 1)


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
    # every point the default identity grids and the transcription self-test reach
    for m in range(45):
        for n in range(26):
            for side in SIDES:
                assert eval_bb4_side(side, m, n) == bb4_side_oracle(side, m, n), (side, m, n)


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

    def perturbed_int(s):
        # over the same s!^2, so the library's denominators still clear every term
        p = poly.pair_binomial_poly(s)
        return poly.poly_sum([(1, p), (shift if s == 3 else 0, ((1,), 1))], p[1])

    monkeypatch.setattr(identities, "pair_binomial_poly", perturbed_int)
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
    results = run_tasks(SWEEPS["identity"].grid("bb4-recurrence", 40))
    assert all(r.passed for r in results)
    # both sides at every n, and the rhs's lhs self-test, share one collapse per m
    assert sorted(collapsed) == list(range(41))
