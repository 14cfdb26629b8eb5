from __future__ import annotations

import math
import random
from fractions import Fraction

import pytest

import fraction_poly
from fraction_poly import MultiPoly, UniPoly, as_unipoly, is_integer_valued, schmidt_linear_form
from oracles import (
    FAMILY_CONSTANTS,
    d_val,
    delannoy_oracle,
    fraction_column,
    gen_binomial,
    int_central_binomial_values,
    int_pair_binomial_values,
    pochhammer,
    rv_term,
    s_series_column,
    s_val,
    signed_jacobi_term,
)
from scv import poly
from scv.sequences import RV_FAMILIES, rv_walk


# The library's integer polynomial families, as UniPolys.


def d_poly(n: int) -> UniPoly:
    return as_unipoly(poly.d_poly(n))


def s_poly(n: int) -> UniPoly:
    return as_unipoly(poly.s_poly(n))


def f_poly(k: int) -> UniPoly:
    return as_unipoly(poly.f_poly(k))


def pair_binomial_poly(s: int) -> UniPoly:
    return as_unipoly(poly.pair_binomial_poly(s))


def test_pochhammer_examples():
    assert pochhammer(Fraction(1, 2), 2) == Fraction(3, 4)
    assert pochhammer(Fraction(22, 7), 0) == 1
    for k in range(8):
        assert pochhammer(1, k) == math.factorial(k)
    with pytest.raises(ValueError):
        pochhammer(1, -1)


def test_gen_binomial_examples():
    assert gen_binomial(Fraction(-1, 2), 1) == Fraction(-1, 2)
    assert gen_binomial(Fraction(-1, 2), 2) == Fraction(3, 8)
    assert gen_binomial(5, 2) == 10
    for n in range(10):
        for k in range(10):
            assert gen_binomial(n, k) == math.comb(n, k)
    with pytest.raises(ValueError):
        gen_binomial(Fraction(1, 2), -1)


def test_d_family():
    assert d_poly(0) == UniPoly.one()
    assert d_poly(1) == UniPoly([1, 2])
    assert d_val(2, 2) == 13
    assert d_poly(5).degree == 5
    rng = random.Random(3)
    for _ in range(20):
        n = rng.randint(0, 8)
        x = Fraction(rng.randint(-9, 9), rng.randint(1, 4))
        assert d_poly(n).eval(x) == d_val(n, x)


def test_s_family():
    assert s_poly(0) == UniPoly.one()
    assert s_poly(1) == UniPoly([1, 1, 1])
    assert s_val(1, Fraction(-1, 2)) == Fraction(3, 4)
    for n in range(9):
        assert s_poly(n).degree == 2 * n
    rng = random.Random(4)
    for _ in range(20):
        n = rng.randint(0, 8)
        x = Fraction(rng.randint(-9, 9), rng.randint(1, 4))
        assert s_poly(n).eval(x) == s_val(n, x)


def test_s_series_matches_single_evaluations():
    x = Fraction(-1, 3)
    col = s_series_column(x, 12)
    assert col == [s_val(k, x) for k in range(13)]


def test_delannoy_oracle():
    assert delannoy_oracle(1, 1) == 3
    for n in range(9):
        assert delannoy_oracle(0, n) == 1
    assert delannoy_oracle(2, 2) == 13
    for m in range(9):
        for n in range(9):
            assert delannoy_oracle(m, n) == delannoy_oracle(n, m)
            assert d_val(n, m) == delannoy_oracle(m, n)


def test_pair_and_central_binomial_columns():
    x = Fraction(-1, 6)
    u = fraction_column(int_pair_binomial_values(x, 10))
    w = fraction_column(int_central_binomial_values(x, 10))
    for s in range(11):
        assert u[s] == gen_binomial(x, s) * gen_binomial(x + s, s)
        assert w[s] == gen_binomial(x + s, 2 * s)
    assert pair_binomial_poly(3).eval(x) == u[3]


def test_schmidt_linear_form():
    assert schmidt_linear_form(0) == MultiPoly(1, {(1,): 1})
    assert schmidt_linear_form(1) == MultiPoly(2, {(1, 0): 1, (0, 1): 2})
    assert schmidt_linear_form(2) == MultiPoly(3, {(1, 0, 0): 1, (0, 1, 0): 6, (0, 0, 1): 6})
    wide = schmidt_linear_form(1, arity=4)
    assert wide.arity == 4 and wide.coefficient((0, 1, 0, 0)) == 2
    with pytest.raises(ValueError):
        schmidt_linear_form(2, arity=2)


def test_f_poly():
    assert f_poly(0) == UniPoly.one()
    assert f_poly(1) == UniPoly([0, Fraction(3, 2), Fraction(3, 2), 1])
    assert f_poly(1).eval(0) == 0
    for k in range(11):
        assert is_integer_valued(f_poly(k))


def test_f_poly_interpolates_d_times_s():
    for n in range(4):
        rhs = UniPoly.zero()
        for k in range(n + 1):
            rhs = rhs + f_poly(k).scale(math.comb(n + k, 2 * k) * math.comb(2 * k, k))
        assert rhs == d_poly(n) * s_poly(n)


def test_rv_term_examples():
    assert rv_term(Fraction(1, 2), 1) == Fraction(1, 4)
    assert rv_term(Fraction(1, 4), 0) == 1
    assert rv_term(Fraction(1, 3), 1) == Fraction(2, 9)
    for fam in RV_FAMILIES.values():
        walk = rv_walk(fam.a)
        for n in range(25):
            assert Fraction(*walk.prefix(n)) == sum(rv_term(Fraction(*fam.a), k) for k in range(n))


def test_signed_jacobi_term():
    for s in range(21):
        assert signed_jacobi_term(Fraction(-1, 2), s) == rv_term(Fraction(1, 2), s)
    assert signed_jacobi_term(Fraction(5, 3), 0) == 1
    assert signed_jacobi_term(Fraction(-1, 3), 1) == Fraction(2, 9)


def test_signed_jacobi_polynomial_identity():
    # (-x)_s (1+x)_s / s!^2 and (-1)^s C(x,s) C(x+s,s) agree as polynomials.
    for s in range(16):
        rising = UniPoly.one()
        for i in range(s):
            rising = rising * UniPoly([i, -1])  # (i - x)
        for i in range(s):
            rising = rising * UniPoly([1 + i, 1])  # (x + 1 + i)
        lhs = rising.scale(Fraction(1, math.factorial(s) ** 2))
        rhs = pair_binomial_poly(s).scale((-1) ** s)
        assert lhs == rhs


def test_rv_family_table():
    assert list(RV_FAMILIES) == ["1/2", "1/3", "1/4", "1/6"]
    for label, fam in RV_FAMILIES.items():
        assert Fraction(*fam.a) == Fraction(label)  # each family is keyed by its a
        c = FAMILY_CONSTANTS[label]
        assert c.sun_x == -Fraction(*fam.a)
        assert 2 - c.lemma2_constant == c.sun_constant
    assert FAMILY_CONSTANTS["1/4"].discriminant == -2
    with pytest.raises(KeyError):
        RV_FAMILIES["1/5"]


def test_pair_binomial_poly_matches_product_oracle():
    for s in range(17):
        assert pair_binomial_poly(s) == fraction_poly.pair_binomial_poly(s), s
        assert poly.pair_binomial_poly(s)[1] == math.factorial(s) ** 2
    with pytest.raises(ValueError):
        poly.pair_binomial_poly(-1)
