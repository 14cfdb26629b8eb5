from __future__ import annotations

from collections import Counter
from fractions import Fraction

import pytest

import fraction_poly
from fraction_poly import MultiPoly, UniPoly, is_integer_valued
from oracles import (
    crosscheck_specialization,
    integer_valued_oracle,
    integer_window_oracle,
    schmidt_divisibility_oracle,
    schmidt_power_sum,
    sun_guo_expr,
)
from scv import integrality
from scv.integrality import (
    TermLimitExceeded,
    verify_integer_valued,
    verify_schmidt_divisibility,
)


def test_params_validation():
    # both verifiers refuse a point off the grid and print the point they are given
    for verify in (verify_integer_valued, verify_schmidt_divisibility):
        with pytest.raises(ValueError, match="n and m must be >= 1, got n=0, m=1"):
            verify(0, 1, 1)
        with pytest.raises(ValueError, match="n and m must be >= 1, got n=1, m=0"):
            verify(1, 0, 1)
        with pytest.raises(ValueError, match="epsilon must be \\+1 or -1, got 2"):
            verify(1, 1, 2)
        assert verify(3, 2, -1).parameters == {"n": 3, "m": 2, "eps": -1}


def test_sun_guo_expr_examples():
    assert sun_guo_expr(1, 1, 1) == UniPoly.one()
    assert sun_guo_expr(1, 4, -1) == UniPoly.one()
    plus = sun_guo_expr(2, 1, 1)
    assert plus == UniPoly([2, Fraction(9, 2), Fraction(9, 2), 3])
    minus = sun_guo_expr(2, 1, -1)
    assert minus == UniPoly([-1, Fraction(-9, 2), Fraction(-9, 2), -3])


def test_sun_guo_degree_law():
    for n in range(2, 6):
        for m in range(1, 4):
            for eps in (1, -1):
                expr = sun_guo_expr(n, m, eps)
                assert expr.degree == 3 * (n - 1) * m


def test_verify_integer_valued_examples():
    r = verify_integer_valued(2, 1, 1)
    assert r.passed
    assert r.lhs_witness == "[2, 12, 27, 18]"
    for m in (1, 2, 3):
        for eps in (1, -1):
            assert verify_integer_valued(1, m, eps).passed
    assert verify_integer_valued(3, 2, -1).passed


def test_schmidt_power_sum_examples():
    assert schmidt_power_sum(2, 1, 1) == MultiPoly(2, {(1, 0): 4, (0, 1): 6})
    assert schmidt_power_sum(2, 2, -1) == MultiPoly(
        2, {(2, 0): -2, (1, 1): -12, (0, 2): -12}
    )
    for m in (1, 2, 3):
        assert schmidt_power_sum(1, m, 1) == MultiPoly(1, {(m,): 1})


def test_verify_schmidt_divisibility_examples():
    assert verify_schmidt_divisibility(2, 1, 1).passed
    assert verify_schmidt_divisibility(2, 2, -1).passed
    for m in (1, 2, 3):
        for eps in (1, -1):
            assert verify_schmidt_divisibility(1, m, eps).passed


def test_crosscheck_specialization():
    r = crosscheck_specialization(2, 1, 1, points=(0,))
    assert r.passed
    assert r.lhs_witness == "[4]" and r.rhs_witness == "[4]"
    assert crosscheck_specialization(1, 1, 1).passed
    assert crosscheck_specialization(3, 2, -1).passed
    for n in range(1, 6):
        for m in (1, 2):
            for eps in (1, -1):
                assert crosscheck_specialization(n, m, eps).passed


def test_window_oracle_agrees_with_newton_route():
    for n in range(1, 5):
        for m in (1, 2):
            for eps in (1, -1):
                assert verify_integer_valued(n, m, eps).passed == integer_window_oracle(n, m, eps)


def test_window_oracle_rejects_non_integer_valued():
    # 1/2 + x has Newton coefficients [1/2, 1]; both routes must reject it
    assert not is_integer_valued(UniPoly([Fraction(1, 2), 1]))


def test_integer_valued_matches_newton_oracle():
    # the benchmark's integrality grid
    for n in range(1, 15):
        for m in range(1, 4):
            for eps in (1, -1):
                assert verify_integer_valued(n, m, eps) == integer_valued_oracle(n, m, eps)


def test_schmidt_divisibility_matches_multipoly_oracle():
    # the benchmark's Schmidt grid
    for n in range(1, 9):
        for m in range(1, 5):
            for eps in (1, -1):
                assert verify_schmidt_divisibility(n, m, eps) == schmidt_divisibility_oracle(
                    n, m, eps
                )


def test_schmidt_violations_match_multipoly_oracle(monkeypatch):
    # perturbed weights make some coefficients indivisible; both routes must name the same monomial
    real = integrality.schmidt_coefficient
    perturbed = lambda n, k: real(n, k) + (n == 2 and k == 1)  # noqa: E731
    monkeypatch.setattr(fraction_poly, "schmidt_coefficient", perturbed)
    monkeypatch.setattr(integrality, "schmidt_coefficient", perturbed)
    failed = 0
    for n in range(1, 6):
        for m in range(1, 4):
            for eps in (1, -1):
                r = verify_schmidt_divisibility(n, m, eps)
                assert r == schmidt_divisibility_oracle(n, m, eps)
                failed += not r.passed
    assert failed > 0


def test_integer_valued_degree_check_raises(monkeypatch):
    monkeypatch.setattr(integrality, "degree_bound", lambda n, m: 3 * (n - 1) * m - 1)
    with pytest.raises(ArithmeticError, match="above its bound"):
        verify_integer_valued(2, 1, 1)


def test_integer_valued_rejects_non_integral_coefficients(monkeypatch):
    # V + 1 changes only the constant difference, which becomes odd at n = 2
    real = integrality._v_values
    monkeypatch.setattr(
        integrality, "_v_values", lambda *args: [v + 1 for v in real(*args)]
    )
    r = verify_integer_valued(2, 1, 1)
    assert not r.passed
    assert r.lhs_witness == "[5/2, 12, 27, 18]"


def test_schmidt_term_limit_raises_before_expanding(monkeypatch):
    def expand(n, m, eps):
        raise AssertionError("expanded")

    monkeypatch.setattr(integrality, "_schmidt_coefficients", expand)
    with pytest.raises(TermLimitExceeded):
        verify_schmidt_divisibility(40, 5, 1)


def test_integer_valued_holds_to_n_20():
    from scv.sweeps import SWEEPS, run_tasks

    results = run_tasks(SWEEPS["integrality"].grid(20, 3, "both"))
    assert len(results) == 120
    assert all(r.passed for r in results)


def test_schmidt_holds_to_n_12_m_4():
    from scv.sweeps import SWEEPS, run_tasks

    results = run_tasks(SWEEPS["schmidt"].grid(12, 4, "both"))
    assert len(results) == 96
    assert all(r.passed for r in results)


def test_integrality_grid_builds_each_s_column_once(monkeypatch):
    from scv.sweeps import SWEEPS, run_tasks

    runs = []  # [t, terms read] for each run of the s_n recurrence
    real = integrality.s_series

    def counting(t):
        run = [t, 0]
        runs.append(run)
        for s in real(t):
            run[1] += 1
            yield s

    monkeypatch.setattr(integrality, "s_series", counting)
    for f in vars(integrality).values():
        if hasattr(f, "cache_clear"):
            f.cache_clear()
    results = run_tasks(SWEEPS["integrality"].grid(14, 3, "both"))
    assert len(results) == 84 and all(r.passed for r in results)
    calls = Counter((t, read - 1) for t, read in runs)  # (t, kmax) of each column built
    # n = 14 reads t = 0..3*13*3+1 for m = 3, which covers m = 1, 2 and both eps
    assert sum(c for (t, kmax), c in calls.items() if kmax == 13) == 119
    assert set(calls.values()) == {1}


def test_s_column_refuses_a_term_that_k_factorial_squared_does_not_divide(monkeypatch):
    integrality._s_column.cache_clear()
    monkeypatch.setattr(integrality, "s_series", lambda t: iter([1, 2, 3]))  # S_2 = 3, 2!^2 = 4
    with pytest.raises(ArithmeticError, match=r"s_2\(5\) is not an integer"):
        integrality._s_column(5, 2)
