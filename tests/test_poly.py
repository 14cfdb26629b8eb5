from __future__ import annotations

import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fraction_poly
from fraction_poly import (
    ArityError,
    MultiPoly,
    UniPoly,
    as_unipoly,
    binomial_poly,
    is_integer_valued,
    newton_coefficients,
    shifted_binomial_poly,
)
from scv import poly
from scv.integrality import TermLimitExceeded

coeff = st.fractions(min_value=-20, max_value=20, max_denominator=12)
unipolys = st.lists(coeff, max_size=8).map(UniPoly)


def test_unipoly_arithmetic():
    p = UniPoly([1, 2])
    q = UniPoly([1, 1, 1])
    assert p * q == UniPoly([1, 3, 3, 2])
    assert p.eval(1) == 3
    assert UniPoly.zero() * p == UniPoly.zero()
    assert p + q - q == p
    assert (p - p).is_zero()
    assert -p == UniPoly([-1, -2])
    assert p**3 == p * p * p
    assert p**0 == UniPoly.one()
    assert p.scale(Fraction(1, 2)) == UniPoly([Fraction(1, 2), 1])


def test_unipoly_canonical():
    assert UniPoly([1, 2, 0, 0]).coeffs == (1, 2)
    assert UniPoly([0, 0]).degree == -1
    assert UniPoly([5]).degree == 0
    assert UniPoly([0, 0, Fraction(1, 3)]).degree == 2
    assert UniPoly([1, 2]) == UniPoly([1, 2, 0])
    assert UniPoly([3]) == 3


def test_unipoly_immutable():
    p = UniPoly([1, 2])
    with pytest.raises(AttributeError):
        p.coeffs = (5,)


def test_eval_is_homomorphism_random():
    rng = random.Random(7)
    for _ in range(50):
        p = UniPoly([Fraction(rng.randint(-9, 9), rng.randint(1, 5)) for _ in range(rng.randint(0, 6))])
        q = UniPoly([Fraction(rng.randint(-9, 9), rng.randint(1, 5)) for _ in range(rng.randint(0, 6))])
        t = Fraction(rng.randint(-12, 12), rng.randint(1, 7))
        assert (p * q).eval(t) == p.eval(t) * q.eval(t)
        assert (p + q).eval(t) == p.eval(t) + q.eval(t)


def test_deflate():
    p = UniPoly([-1, 0, 1])  # x^2 - 1
    assert p.deflate(1) == UniPoly([1, 1])
    assert p.deflate(-1) == UniPoly([-1, 1])
    with pytest.raises(ValueError):
        p.deflate(2)


def test_binomial_poly_examples():
    assert binomial_poly(0) == UniPoly.one()
    assert binomial_poly(2) == UniPoly([0, Fraction(-1, 2), Fraction(1, 2)])
    assert binomial_poly(3).eval(Fraction(-1, 2)) == Fraction(-5, 16)
    assert shifted_binomial_poly(2, 2) == UniPoly([1, Fraction(3, 2), Fraction(1, 2)])


def test_shifted_binomial_poly_matches_product_oracle():
    # covers every C(x+j, k+j) of f_k for k <= 14 and both factors of the pair binomials
    for shift in range(-3, 16):
        for s in range(29):
            p = poly.shifted_binomial_poly(shift, s)
            assert p[1] == math.factorial(s)
            assert as_unipoly(p) == shifted_binomial_poly(shift, s), (shift, s)


def test_int_families_match_fraction_oracle():
    for n in range(21):
        assert poly.d_poly(n)[1] == math.factorial(n)
        assert as_unipoly(poly.d_poly(n)) == fraction_poly.d_poly(n), n
        assert poly.s_poly(n)[1] == math.factorial(n) ** 2
        assert as_unipoly(poly.s_poly(n)) == fraction_poly.s_poly(n), n
    for k in range(16):
        assert as_unipoly(poly.f_poly(k)) == fraction_poly.f_poly(k), k
    for bad in (poly.d_poly, poly.s_poly, poly.f_poly, poly.pair_binomial_poly):
        with pytest.raises(ValueError):
            bad(-1)


def test_int_poly_arithmetic_matches_unipoly():
    rng = random.Random(5)
    for _ in range(50):
        p = (tuple(rng.randint(-9, 9) for _ in range(rng.randint(1, 6))), rng.randint(1, 12))
        q = (tuple(rng.randint(-9, 9) for _ in range(rng.randint(1, 6))), rng.randint(1, 12))
        w = Fraction(rng.randint(-5, 5), rng.randint(1, 3))
        assert as_unipoly(poly.poly_mul(p, q)) == as_unipoly(p) * as_unipoly(q)
        den = p[1] * q[1] * w.denominator
        total = poly.poly_sum([(w, p), (1, q)], den)
        assert total[1] == den
        assert as_unipoly(total) == as_unipoly(p).scale(w) + as_unipoly(q)


def test_poly_sum_rejects_a_denominator_that_does_not_clear():
    # 1/3 * (x / 2) over 2 leaves a remainder; no silent truncation
    with pytest.raises(ArithmeticError, match="not a common denominator"):
        poly.poly_sum([(Fraction(1, 3), ((0, 1), 2))], 2)


def test_newton_coefficients_examples():
    assert newton_coefficients(UniPoly([0, 0, 1])).coefficients == (0, 1, 2)
    assert newton_coefficients(binomial_poly(3)).coefficients == (0, 0, 0, 1)
    p = UniPoly([2, Fraction(9, 2), Fraction(9, 2), 3])
    assert newton_coefficients(p).coefficients == (2, 12, 27, 18)
    assert newton_coefficients(UniPoly.zero()).coefficients == ()


def test_is_integer_valued_examples():
    assert is_integer_valued(UniPoly([0, Fraction(1, 2), Fraction(1, 2)]))  # x(x+1)/2
    assert not is_integer_valued(UniPoly([0, Fraction(1, 2)]))  # x/2
    assert is_integer_valued(UniPoly([4, -7, 3, 11]))


@settings(max_examples=60)
@given(st.lists(coeff, max_size=31).map(UniPoly))
def test_newton_round_trip(p):
    exp = newton_coefficients(p)
    assert len(exp.coefficients) == p.degree + 1
    assert exp.to_poly() == p


@settings(max_examples=60)
@given(st.lists(coeff, max_size=10).map(UniPoly))
def test_integer_valued_agrees_with_consecutive_points(p):
    direct = all(p.eval(t).denominator == 1 for t in range(p.degree + 1))
    assert is_integer_valued(p) == direct


def test_multipoly_basics():
    x0 = MultiPoly.variable(2, 0)
    x1 = MultiPoly.variable(2, 1)
    p = x0 + x1.scale(2)
    assert p.coefficient((0, 1)) == 2
    assert (p - p).is_zero()
    assert p**2 == MultiPoly(2, {(2, 0): 1, (1, 1): 4, (0, 2): 4})
    assert p.eval([1, Fraction(1, 2)]) == 2
    assert MultiPoly.constant(2, 0).term_count() == 0


def test_multipoly_commutes_and_distributes():
    rng = random.Random(11)
    for _ in range(30):
        arity = rng.randint(1, 3)

        def rand_poly():
            terms = {}
            for _ in range(rng.randint(0, 4)):
                e = tuple(rng.randint(0, 2) for _ in range(arity))
                terms[e] = Fraction(rng.randint(-5, 5), rng.randint(1, 3))
            return MultiPoly(arity, terms)

        a, b, c = rand_poly(), rand_poly(), rand_poly()
        assert a * b == b * a
        assert a * (b + c) == a * b + a * c


def test_multipoly_eval_homomorphism():
    rng = random.Random(13)
    for _ in range(20):
        terms_a = {(rng.randint(0, 2), rng.randint(0, 2)): rng.randint(-4, 4) for _ in range(3)}
        terms_b = {(rng.randint(0, 2), rng.randint(0, 2)): rng.randint(-4, 4) for _ in range(3)}
        a, b = MultiPoly(2, terms_a), MultiPoly(2, terms_b)
        pt = [Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(2)]
        assert (a * b).eval(pt) == a.eval(pt) * b.eval(pt)


def test_multipoly_arity_errors():
    a = MultiPoly.variable(2, 0)
    b = MultiPoly.variable(3, 0)
    with pytest.raises(ArityError):
        a + b
    with pytest.raises(ArityError):
        a * b
    with pytest.raises(ArityError):
        a.eval([1])
    with pytest.raises(ArityError):
        MultiPoly(2, {(1, 0, 0): 1})
    with pytest.raises(ArityError):
        b.extended(1)


def test_multipoly_extended():
    p = MultiPoly.variable(1, 0) ** 3
    q = p.extended(3)
    assert q.arity == 3
    assert q.coefficient((3, 0, 0)) == 1


def test_term_limit_guard(monkeypatch):
    monkeypatch.setattr(fraction_poly, "TERM_LIMIT", 4)
    dense = MultiPoly(1, {(i,): 1 for i in range(3)})
    with pytest.raises(TermLimitExceeded):
        dense * dense
