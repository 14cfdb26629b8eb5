from __future__ import annotations

import json
import math
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from scv.congruences import residue_witness
from scv.exact_arith import (
    INFINITY,
    InvalidPrime,
    PAdicContext,
    is_prime,
    legendre,
    pair_congruent,
    pair_residue,
    pair_valuation,
    primes_in_range,
    rat_str,
)
from scv.sweeps import UsageError, _validate_rationals

SMALL_PRIMES = [2, 3, 5, 7, 11, 13, 17, 19, 23]

rationals = st.fractions(min_value=-50, max_value=50, max_denominator=60)


def test_padic_valuation_examples():
    assert pair_valuation(50, 3, 5) == 2
    assert pair_valuation(0, 1, 7) == INFINITY
    assert pair_valuation(3, 125, 5) == -3
    assert pair_valuation(7, 1, 7) == 1
    assert pair_valuation(10, 250, 5) == -2  # 1/25, unreduced
    with pytest.raises(InvalidPrime):  # the prime is validated where its context is built
        PAdicContext(6, 1)
    with pytest.raises(InvalidPrime):  # v_4(4) would read 1, yet v_4(2 * 2) != v_4(2) + v_4(2)
        pair_valuation(4, 1, 4)


def test_mod_reduce_examples():
    assert pair_residue(1, 3, PAdicContext(5, 2)) == 17
    assert pair_residue(7, 1, PAdicContext(5, 2)) == 7
    assert pair_residue(5, 15, PAdicContext(5, 2)) == 17  # 1/3, unreduced
    assert pair_residue(1, 5, PAdicContext(5, 1)) is None


def test_congruent_examples():
    assert pair_congruent((26, 1), (1, 1), PAdicContext(5, 2))
    assert pair_congruent((1, 2), (13, 1), PAdicContext(5, 2))
    assert not pair_congruent((1, 5), (0, 1), PAdicContext(5, 1))


def test_congruent_does_not_test_the_prime_again(monkeypatch):
    import scv.exact_arith as exact_arith

    contexts = [PAdicContext(5, 2), PAdicContext(5, 1), PAdicContext(7, 4)]
    calls = []
    monkeypatch.setattr(exact_arith, "is_prime", lambda n: calls.append(n) or True)
    assert pair_congruent((26, 1), (1, 1), contexts[0])
    assert not pair_congruent((1, 5), (0, 1), contexts[1])
    assert pair_congruent((147, 4), (147 + 4 * 7**4, 4), contexts[2])
    assert pair_residue(1, 3, contexts[0]) == 17
    assert pair_valuation(50, 3, contexts[0]) == 2
    assert calls == []


# without their guards these loop forever in _int_valuation: 0 % p == 0 and n % 1 == 0 always hold
_REFUSED_CALLS = """
import json, time
from scv.exact_arith import PAdicContext, pair_congruent, pair_residue, pair_valuation
ctx = PAdicContext(5, 2)
calls = [
    lambda: pair_valuation(1, 0, 5),
    lambda: pair_valuation(0, 0, 5),
    lambda: pair_valuation(5, 1, 1),
    lambda: pair_valuation(5, 1, -1),
    lambda: pair_residue(1, 0, ctx),
    lambda: pair_congruent((1, 0), (1, 1), ctx),
    lambda: pair_congruent((1, 1), (1, 0), ctx),
]
out = []
for call in calls:
    start = time.perf_counter()
    try:
        call()
        out.append(["returned", 0.0])
    except Exception as exc:
        out.append([type(exc).__name__, time.perf_counter() - start])
print(json.dumps(out))
"""


def test_pair_routines_refuse_a_zero_denominator_and_p_below_2():
    # in a child process, so a routine that hangs fails this test instead of the run
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parent.parent / "src")}
    proc = subprocess.run(
        [sys.executable, "-c", _REFUSED_CALLS],
        env=env, capture_output=True, text=True, check=True, timeout=10,
    )
    out = json.loads(proc.stdout)
    names = [name for name, _ in out]
    assert names == ["ZeroDivisionError", "ZeroDivisionError", "InvalidPrime", "InvalidPrime",
                     "ZeroDivisionError", "ZeroDivisionError", "ZeroDivisionError"]
    assert all(seconds < 1.0 for _, seconds in out)


def test_legendre_examples():
    assert legendre(-1, 5) == 1
    assert legendre(-2, 5) == -1
    assert legendre(-3, 7) == 1
    assert legendre(10, 5) == 0
    for p in [2, 9, 1]:
        with pytest.raises(InvalidPrime):
            legendre(3, p)


def test_legendre_matches_enumeration():
    # brute-force quadratic residues
    for p in [5, 7, 11, 13]:
        squares = {(i * i) % p for i in range(1, p)}
        for a in range(-p, 2 * p):
            expected = 0 if a % p == 0 else (1 if a % p in squares else -1)
            assert legendre(a, p) == expected


def test_primality_examples():
    assert not is_prime(1)
    assert is_prime(97)
    assert is_prime(2)
    assert not is_prime(-7)
    assert primes_in_range(5, 20) == [5, 7, 11, 13, 17, 19]
    assert primes_in_range(5, 200)[-1] == 199
    assert len(primes_in_range(5, 200)) == 44
    with pytest.raises(ValueError):
        primes_in_range(10, 5)


def test_primes_in_range_matches_trial_division():
    assert primes_in_range(0, 300) == [n for n in range(300 + 1) if is_prime(n)]


def test_padic_context_validation():
    with pytest.raises(InvalidPrime):
        PAdicContext(4, 2)
    with pytest.raises(ValueError):
        PAdicContext(5, 0)
    assert PAdicContext(5, 3).modulus == 125
    assert str(PAdicContext(7, 4)) == "7^4"


def test_rat_parsing():
    # `--x` and config `x=` values: a or a/b, each part read with int()
    assert _validate_rationals(("3/4", "-1/2", "7", "3/6", "2/4")) == (
        "3/4", "-1/2", "7", "1/2",
    )
    assert rat_str(Fraction(-1, 2)) == "-1/2"
    assert rat_str(Fraction(8, 4)) == "2"
    for bad in ("x", "1.5", "1e3", "1/0", "1/2/3", "", "1" + "0" * 4300):
        with pytest.raises(UsageError):
            _validate_rationals((bad,))


def _digits(n: int) -> str:
    """The decimal digits of n, nine at a time from the low end, with no big int-to-str."""
    sign, n, chunks = "-" if n < 0 else "", abs(n), []
    while n >= 10**9:
        n, r = divmod(n, 10**9)
        chunks.append(f"{r:09d}")
    return sign + str(n) + "".join(reversed(chunks))


def test_rat_str_is_exact_above_the_int_str_limit():
    big = 10**5000 + 1  # more digits than str() renders by default
    assert residue_witness((big, 49), PAdicContext(7, 2)) == "1" + "0" * 4999 + "1/49"
    for q in (Fraction(-big, 7**6000), Fraction(3**20000, 2), Fraction(1 - 10**4300)):
        expected = _digits(q.numerator)
        if q.denominator != 1:
            expected += "/" + _digits(q.denominator)
        assert rat_str(q) == expected
    q = Fraction(-(10**4299) - 7, 3)  # below the limit the rendering is str()'s
    assert rat_str(q) == str(q)


@given(rationals)
def test_rat_canonical_form(q):
    assert q.denominator >= 1
    assert math.gcd(abs(q.numerator), q.denominator) == 1


def _product(a: Fraction, b: Fraction) -> tuple[int, int]:
    # the unreduced pair of a * b
    return a.numerator * b.numerator, a.denominator * b.denominator


def _sum(a: Fraction, b: Fraction) -> tuple[int, int]:
    # the unreduced pair of a + b over the product of the denominators
    return a.numerator * b.denominator + b.numerator * a.denominator, a.denominator * b.denominator


def _v(a: Fraction, p: int) -> int | float:
    return pair_valuation(a.numerator, a.denominator, p)


@given(rationals, rationals, st.sampled_from(SMALL_PRIMES))
def test_valuation_additivity(a, b, p):
    assume(a != 0 and b != 0)
    assert pair_valuation(*_product(a, b), p) == _v(a, p) + _v(b, p)


@given(rationals, rationals, st.sampled_from(SMALL_PRIMES))
def test_valuation_ultrametric(a, b, p):
    va, vb = _v(a, p), _v(b, p)
    vs = pair_valuation(*_sum(a, b), p)
    assert vs >= min(va, vb)
    if va != vb:
        assert vs == min(va, vb)


padic_pairs = st.tuples(
    st.sampled_from([5, 7, 13]), rationals, rationals
).filter(lambda t: t[1].denominator % t[0] != 0 and t[2].denominator % t[0] != 0)


@given(padic_pairs, st.integers(min_value=1, max_value=4))
def test_mod_reduce_is_ring_homomorphism(triple, k):
    p, a, b = triple
    ctx = PAdicContext(p, k)
    m = ctx.modulus
    ra, rb = (pair_residue(*q.as_integer_ratio(), ctx) for q in (a, b))
    assert pair_residue(*_sum(a, b), ctx) == (ra + rb) % m
    assert pair_residue(*_product(a, b), ctx) == ra * rb % m


@given(st.integers(-200, 200), st.integers(-200, 200), st.sampled_from([3, 5, 7, 11, 13]))
def test_legendre_multiplicativity(a, b, p):
    assume(a % p != 0 and b % p != 0)
    assert legendre(a * b, p) == legendre(a, p) * legendre(b, p)


@given(padic_pairs, st.integers(min_value=1, max_value=3))
def test_congruent_agrees_with_residues(triple, k):
    p, a, b = triple
    ctx = PAdicContext(p, k)
    lhs, rhs = a.as_integer_ratio(), b.as_integer_ratio()
    assert pair_congruent(lhs, rhs, ctx) == (pair_residue(*lhs, ctx) == pair_residue(*rhs, ctx))
