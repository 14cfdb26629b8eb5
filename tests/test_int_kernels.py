"""The int column kernels and the verifiers built on them, against the Fraction oracles.

Every prime p <= 100; every RV family, every cc x, every default guo-bb1
point and one point of each height class the benchmark draws guo-bb1 points
from.
"""

from __future__ import annotations

from fractions import Fraction

import pytest

import oracles
from oracles import (
    fraction_column,
    int_central_binomial_values,
    int_pair_binomial_values,
    int_rv_terms,
    ratio_column,
    s_series_column,
)
import scv.congruences as congruences
from scv.exact_arith import primes_in_range
from scv.sequences import RV_FAMILIES
from scv.sweeps import DEFAULT_BB1_X

PRIMES = primes_in_range(3, 100)
CC_X = tuple(Fraction(x) for x in congruences.SUPPORTED_X)
HEIGHT_X = (Fraction(-1, 5), Fraction(-8, 11), Fraction(-16, 19))
BB1_X = tuple(dict.fromkeys((*map(Fraction, DEFAULT_BB1_X), *CC_X, *HEIGHT_X)))


@pytest.mark.parametrize("x", BB1_X, ids=str)
def test_columns_match_fraction_oracle(x):
    for p in PRIMES:
        pairs = int_pair_binomial_values(x, 2 * p - 1)
        assert fraction_column(pairs) == oracles.pair_binomial_values(x, 2 * p - 1)
        central = int_central_binomial_values(x, p - 1)
        assert fraction_column(central) == oracles.central_binomial_values(x, p - 1)
        assert s_series_column(x, p - 1) == oracles.s_values(x, p - 1)


def test_rv_columns_match_fraction_oracle():
    for fam in RV_FAMILIES.values():
        for p in PRIMES:
            for count in (p, 2 * p):
                assert fraction_column(int_rv_terms(fam.a, count)) == oracles.rv_terms(fam.a, count)
    assert int_rv_terms(Fraction(1, 2), 0) == ([], 1)


def _spy(monkeypatch, name: str) -> list[tuple]:
    """Record the arguments of every call to the pair decision function `congruences.<name>`."""
    seen = []
    real = getattr(congruences, name)

    def spy(*args):
        seen.append(args)
        return real(*args)

    monkeypatch.setattr(congruences, name, spy)
    return seen


def _denominator(point) -> int:
    return RV_FAMILIES[point].a.denominator if isinstance(point, str) else point.denominator


# check -> (verifier, oracle, points, least p, decision function given the sides)
_CHECKS = {
    "rv": (congruences.verify_rv, oracles.rv_sides, RV_FAMILIES, 5, "pair_congruent"),
    "lemma2p": (congruences.verify_lemma_2p, oracles.lemma2p_sides, RV_FAMILIES, 5, "pair_congruent"),
    "sun-p4": (congruences.verify_sun_p4, oracles.sun_p4_sides, RV_FAMILIES, 5, "pair_congruent"),
    "guo-bb1": (congruences.verify_guo_bb1, oracles.guo_bb1_sides, BB1_X, 3, "pair_congruent"),
    "cc5": (congruences.verify_cc5, oracles.cc5_sides, CC_X, 5, "pair_congruent"),
    "cc8": (congruences.verify_cc8_fact, oracles.cc8_value, CC_X, 5, "pair_valuation"),
    "cc9": (congruences.verify_cc9, oracles.cc9_value, CC_X, 5, "pair_valuation"),
    "cc10": (congruences.verify_cc10, oracles.cc10_sides, CC_X, 5, "pair_congruent"),
}


@pytest.mark.parametrize("check", _CHECKS)
def test_verifier_sides_match_fraction_oracle(monkeypatch, check):
    verify, oracle, points, least, decision = _CHECKS[check]
    seen = _spy(monkeypatch, decision)
    for point in points:
        for p in PRIMES:
            if p < least or _denominator(point) % p == 0:
                continue
            seen.clear()
            assert verify(point, p).passed
            (args,) = seen
            if decision == "pair_congruent":
                *sides, _ = args
                assert all(type(n) is int for side in sides for n in side)
                assert tuple(Fraction(*side) for side in sides) == oracle(point, p)
            else:
                num, den, ctx = args  # the check's context: its prime is tested once
                assert type(num) is int and type(den) is int
                assert (Fraction(num, den), ctx.p) == (oracle(point, p), p)


def test_cc7_sides_match_fraction_oracle(monkeypatch):
    seen = _spy(monkeypatch, "pair_congruent")
    for p in primes_in_range(5, 100):
        for s in range(p, 2 * p - 1):
            seen.clear()
            assert congruences.verify_cc7(s, p).passed
            sides = [(Fraction(*lhs), Fraction(*rhs)) for lhs, rhs, _ in seen]
            assert sides == [oracles.cc7_sides(s, p)]


def test_wrong_denominator_raises():
    x = Fraction(-1, 6)
    a, b = x.numerator, x.denominator
    steps = [((a - (s - 1) * b) * (a + s * b), (s * b) ** 2) for s in range(1, 11)]
    nums, den = int_pair_binomial_values(x, 10)
    assert ratio_column(den, steps) == nums
    with pytest.raises(ArithmeticError, match="not a common denominator"):
        ratio_column(den // b, steps)
