from __future__ import annotations

from fractions import Fraction

import pytest

from oracles import integer_window_oracle
from scv.integrality import (
    IntegralityParams,
    crosscheck_specialization,
    schmidt_power_sum,
    sun_guo_expr,
    verify_integer_valued,
    verify_schmidt_divisibility,
)
from scv.poly import MultiPoly, UniPoly


def test_params_validation():
    with pytest.raises(ValueError):
        IntegralityParams(0, 1, 1)
    with pytest.raises(ValueError):
        IntegralityParams(1, 0, 1)
    with pytest.raises(ValueError):
        IntegralityParams(1, 1, 2)
    assert IntegralityParams(3, 2, -1).as_parameters() == {"n": 3, "m": 2, "eps": -1}


def test_sun_guo_expr_examples():
    assert sun_guo_expr(IntegralityParams(1, 1, 1)) == UniPoly.one()
    assert sun_guo_expr(IntegralityParams(1, 4, -1)) == UniPoly.one()
    plus = sun_guo_expr(IntegralityParams(2, 1, 1))
    assert plus == UniPoly([2, Fraction(9, 2), Fraction(9, 2), 3])
    minus = sun_guo_expr(IntegralityParams(2, 1, -1))
    assert minus == UniPoly([-1, Fraction(-9, 2), Fraction(-9, 2), -3])


def test_sun_guo_degree_law():
    for n in range(2, 6):
        for m in range(1, 4):
            for eps in (1, -1):
                expr = sun_guo_expr(IntegralityParams(n, m, eps))
                assert expr.degree == 3 * (n - 1) * m


def test_verify_integer_valued_examples():
    r = verify_integer_valued(IntegralityParams(2, 1, 1))
    assert r.passed
    assert r.lhs_witness == "[2, 12, 27, 18]"
    for m in (1, 2, 3):
        for eps in (1, -1):
            assert verify_integer_valued(IntegralityParams(1, m, eps)).passed
    assert verify_integer_valued(IntegralityParams(3, 2, -1)).passed


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
                params = IntegralityParams(n, m, eps)
                assert verify_integer_valued(params).passed == integer_window_oracle(params)


def test_window_oracle_rejects_non_integer_valued():
    # 1/2 + x has Newton coefficients [1/2, 1]; both routes must reject it
    from scv.poly import is_integer_valued

    assert not is_integer_valued(UniPoly([Fraction(1, 2), 1]))
