"""The walked congruence verifiers against the per-check column oracles.

Each walked verifier must return the same CheckResult as its oracle, the
verifier body that builds every column from k = 0, whether the primes come
ascending (the walk only advances), descending or in a seeded shuffle (the
walk restarts whenever a prime is below its frontier).
"""

from __future__ import annotations

import functools
import math
import operator
import random
from collections import Counter
from fractions import Fraction
from itertools import islice

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
import scv.congruences as congruences
import scv.sequences as sequences
from scv.exact_arith import primes_in_range
from scv.sequences import RV_FAMILIES, PrefixWalk
from scv.sweeps import DEFAULT_BB1_X
from test_int_kernels import BB1_X, _spy

WALKS = (sequences.rv_walk, sequences.rv_divided_walk, sequences.s_square_walk,
         sequences.bb1_walk)


def _clear() -> None:
    for walk in WALKS:
        walk.cache_clear()
    congruences._cc_rows.cache_clear()


CC_X = tuple(map(Fraction, congruences.SUPPORTED_X))

# check -> (walked verifier, oracle, points, largest p); the points of cc7 are its s
_CHECKS = {
    "rv": (congruences.verify_rv, oracles.verify_rv_oracle, RV_FAMILIES, 200),
    "lemma2p": (congruences.verify_lemma_2p, oracles.verify_lemma_2p_oracle, RV_FAMILIES, 200),
    "sun-p4": (congruences.verify_sun_p4, oracles.verify_sun_p4_oracle, RV_FAMILIES, 200),
    "guo-bb1": (congruences.verify_guo_bb1, oracles.verify_guo_bb1_oracle, BB1_X, 100),
    "cc5": (congruences.verify_cc5, oracles.verify_cc5_oracle, CC_X, 100),
    "cc7": (congruences.verify_cc7, oracles.verify_cc7_oracle, None, 100),
    "cc9": (congruences.verify_cc9, oracles.verify_cc9_oracle, CC_X, 150),
    "cc10": (congruences.verify_cc10, oracles.verify_cc10_oracle, CC_X, 150),
}


def _tasks(check: str) -> list[tuple[object, int]]:
    """The check's tasks p by p, as its sweep asks for them: every walk only moves forward."""
    _, _, points, pmax = _CHECKS[check]
    least = 3 if check == "guo-bb1" else 5
    return [
        (point, p)
        for p in primes_in_range(least, pmax)
        for point in (range(p, 2 * p - 1) if points is None else points)
        if not isinstance(point, Fraction) or point.denominator % p
    ]


@pytest.mark.parametrize("check", _CHECKS)
def test_walked_verifier_matches_column_oracle(monkeypatch, check):
    verify, oracle, _, _ = _CHECKS[check]
    tasks = _tasks(check)
    expected = {task: oracle(*task) for task in tasks}
    shuffled = list(tasks)
    random.Random(9).shuffle(shuffled)
    starts = Counter()  # keyed by the walk itself, which keeps evicted walks apart
    restart = PrefixWalk._restart

    def counting(walk):
        starts[walk] += 1
        restart(walk)

    monkeypatch.setattr(PrefixWalk, "_restart", counting)
    for order, restarted in ((tasks, False), (tasks[::-1], True), (shuffled, True)):
        _clear()
        starts.clear()
        for task in order:
            assert verify(*task) == expected[task], task
        assert (max(starts.values()) > 1) == restarted  # ascending p never restarts a walk
    _clear()


def test_walk_restarts_below_its_frontier():
    walk = PrefixWalk(lambda: sequences.rv_series(Fraction(1, 3)))
    column, den = oracles.int_rv_terms(Fraction(1, 3), 30)
    sums = [Fraction(sum(column[:n]), den) for n in range(31)]
    for n in (0, 4, 4, 17, 30, 29, 3, 0, 29, 1):
        assert Fraction(*walk.prefix(n)) == sums[n]
    assert walk.starts == 5  # the first start, then one restart each for 29, 3, 0 and 1
    with pytest.raises(ValueError):
        walk.prefix(-1)
    assert Fraction(*walk.prefix(2)) == sums[2]


class _InterruptedTerms:
    """The rv terms at 1/3, with KeyboardInterrupt raised once in place of term 5.

    After the raise the terms go on from term 5, as an iterator may (`resumes`),
    or have ended, as a generator that raised has.
    """

    def __init__(self, resumes: bool) -> None:
        self._terms, self._before_raise = sequences.rv_series(Fraction(1, 3)), 5
        self._resumes = resumes

    def __iter__(self):
        return self

    def __next__(self):
        if self._before_raise == 0:
            self._before_raise = -1
            if not self._resumes:
                self._terms = iter(())
            raise KeyboardInterrupt
        self._before_raise -= 1
        return next(self._terms)


@pytest.mark.parametrize("resumes", [True, False], ids=["iterator-resumes", "generator-ends"])
def test_walk_restarts_after_an_interrupted_advance(resumes):
    # the series has run past the frontier the walk stored, so the next prefix starts it again
    runs = [_InterruptedTerms(resumes), sequences.rv_series(Fraction(1, 3))]
    walk = PrefixWalk(lambda: runs.pop(0))
    with pytest.raises(KeyboardInterrupt):
        walk.prefix(10)
    column, den = oracles.int_rv_terms(Fraction(1, 3), 10)
    assert Fraction(*walk.prefix(10)) == Fraction(sum(column), den)
    assert walk.starts == 2


def test_walks_match_fraction_series():
    for x in BB1_X:
        s_walk, bb1_walk = sequences.s_square_walk(x), sequences.bb1_walk(x)
        u = oracles.pair_binomial_values(x, 24)
        w = oracles.central_binomial_values(x, 24)
        sv = oracles.s_values(x, 24)
        s_sum = bb1_sum = Fraction(0)
        for k in range(25):
            assert Fraction(*s_walk.prefix(k)) == s_sum
            assert Fraction(*bb1_walk.prefix(k)) == bb1_sum
            s_sum += (2 * k + 1) * sv[k] ** 2
            inner = sum(u[j] * math.comb(2 * k, j + k) for j in range(k + 1))
            bb1_sum += Fraction((-1) ** k, k + 1) * w[k] * inner
    _clear()


def test_cc5_and_cc10_sums_equal_the_bb1_and_rv_walks(monkeypatch):
    # the cc5 rhs pass and the cc10 window pass equal prefixes of walks that guo-bb1 and rv take
    seen = _spy(monkeypatch, "pair_congruent")
    for x in map(Fraction, congruences.SUPPORTED_X):
        rv = sequences.rv_walk(-x)
        for p in primes_in_range(5, 59):
            seen.clear()
            assert congruences.verify_cc5(x, p).passed and congruences.verify_cc10(x, p).passed
            (_, cc5, _), (_, cc10, _) = seen
            assert Fraction(*cc5) == p * p * Fraction(*sequences.bb1_walk(x).prefix(p)), (x, p)
            windows = 2 * Fraction(*rv.prefix(p)) - Fraction(*rv.prefix(2 * p))
            assert Fraction(*cc10) == p * p * windows, (x, p)
    _clear()


@given(
    st.fractions(min_value=-3, max_value=3, max_denominator=12),
    st.lists(st.one_of(st.integers(-3, 3), st.integers(-(10**40), 10**40)), max_size=30),
)
def test_weighted_sum_matches_fraction_sum(a, weights):
    n = len(weights)
    terms = oracles.rv_terms(a, n + 1)
    series = sequences.rv_series(a)
    total, den = sequences.weighted_sum(weights, series)
    assert Fraction(total, den) == sum(map(operator.mul, weights, terms), Fraction(0))
    # exactly n terms were taken, and den is D_{n-1}: the next pair is term n over D_n
    r, m = next(series)
    assert Fraction(m, den * r) == terms[n]
    assert sequences.weighted_sum([], sequences.rv_series(a)) == (0, 1)


@settings(max_examples=25, deadline=None)
@given(st.integers(-60, 60), st.integers(1, 30), st.integers(0, 250))
def test_walks_sum_as_the_k_factorial_series(numerator, denominator, n):
    # over their terms' own denominators the walks give the same rationals as with a spare k!
    x = Fraction(numerator, denominator)
    for series, oracle in ((sequences.rv_divided_series, oracles.rv_divided_series_oracle),
                           (sequences.bb1_series, oracles.bb1_series_oracle)):
        total, den = PrefixWalk(functools.partial(series, x)).prefix(n)
        want, want_den = PrefixWalk(functools.partial(oracle, x)).prefix(n)
        assert total * want_den == want * den, (series.__name__, x, n)


@given(st.integers(-60, 60), st.integers(1, 30))
def test_rv_series_keeps_its_int_pairs(numerator, denominator):
    # at b = 1 the steps (k+1)(k+b) q^2 are the ((k+1)q)^2 the rv pairs always had
    a = Fraction(numerator, denominator)
    assert list(islice(sequences.rv_series(a), 400)) == list(islice(oracles.rv_series_oracle(a), 400))


def test_walk_denominators_are_their_terms_own():
    # the sum to N is over D_{N-1}: q^{2k} k! (k+1)! for t_k/(k+1) and (k+1) E_k D_k for bb1
    f = math.factorial
    _clear()
    for n in range(1, 61):
        for a in RV_FAMILIES.values():
            assert sequences.rv_divided_walk(a).prefix(n)[1] == a[1] ** (2 * n - 2) * f(n - 1) * f(n)
        for x in DEFAULT_BB1_X:
            b = Fraction(x).denominator
            den = n * b ** (4 * n - 4) * f(2 * n - 2) * f(n - 1) ** 2
            assert sequences.bb1_walk(x).prefix(n)[1] == den, (x, n)
    _clear()


@pytest.mark.parametrize("walk", WALKS, ids=lambda walk: walk.__name__)
def test_every_form_of_a_point_shares_one_cursor(walk):
    # a Fraction, a text and a pair for 1/3 are one point, so one cursor serves them all
    _clear()
    cursor = walk(Fraction(1, 3))
    for same in ("1/3", (1, 3), (-2, -6), "2/6", "-1/-3"):
        assert walk(same) is cursor, same
    assert walk.cache_info().currsize == 1
    assert walk(Fraction(-1, 3)) is not cursor
    _clear()
