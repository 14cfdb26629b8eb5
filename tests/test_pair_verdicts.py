"""Verdicts on unreduced int pairs against the Fraction verdict route of tests/oracles.py.

The library decides every congruence and valuation on the (numerator,
denominator) pairs its builders make, with no gcd. Every CheckResult of the
congruence grids must equal the one the oracle route gives on the same
sides as reduced Fractions: pass flag, both witnesses and modulus. The
pair functions are property-tested against the oracle on pairs that carry
p in both the numerator and the denominator.
"""

from __future__ import annotations

import math
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

import oracles
import scv.congruences as congruences
from scv.exact_arith import (
    PAdicContext,
    pair_congruent,
    pair_residue,
    pair_valuation,
)
from scv.report import CheckResult
from scv.sweeps import DEFAULT_BB1_X, SWEEPS, run_tasks

# the guo-bb1 points the benchmark draws at seeds 1 and 7
SEEDED_BB1_X = ("-1/5", "-8/11", "-16/19", "-2/7", "5/11", "15/19")

# sweep -> grid arguments: the benchmark grids, then sun-p4, rv and lemma2p past them
GRIDS = {
    "sun-p4 110": ("sun-p4", (110,)),
    "lemma2p 200": ("lemma2p", (200,)),
    "cc all 40": ("cc", ("all", 40)),
    "cc7 100": ("cc", ("cc7", 100)),
    "guo-bb1 50": ("guo-bb1", (50, (*DEFAULT_BB1_X, *SEEDED_BB1_X))),
    "sun-p4 400": ("sun-p4", (400,)),
    "rv 2000": ("rv", (2000,)),
    "lemma2p 1000": ("lemma2p", (1000,)),
}


@pytest.mark.parametrize("grid", GRIDS)
def test_grid_matches_fraction_verdict_route(monkeypatch, grid):
    sweep, args = GRIDS[grid]
    compared, mismatches = [], []
    congruence, valuation = congruences._congruence_result, congruences._valuation_result

    def compare(result: CheckResult, expected: CheckResult) -> CheckResult:
        compared.append(result)
        if result != expected:
            mismatches.append((result, expected))
        return result

    def congruence_checked(name, params, lhs, rhs, ctx):
        return compare(
            congruence(name, params, lhs, rhs, ctx),
            oracles.congruence_result(name, params, Fraction(*lhs), Fraction(*rhs), ctx),
        )

    def valuation_checked(name, params, q, ctx):
        return compare(
            valuation(name, params, q, ctx),
            oracles.valuation_result(name, params, Fraction(*q), ctx.p, ctx.k),
        )

    monkeypatch.setattr(congruences, "_congruence_result", congruence_checked)
    monkeypatch.setattr(congruences, "_valuation_result", valuation_checked)
    results = list(run_tasks(SWEEPS[sweep].grid(*args)))
    decided = [r for r in results if not r.skipped]
    assert decided and all(r.passed for r in decided)
    assert mismatches == []
    assert compared == decided


@pytest.mark.parametrize("sweep", ["rv", "lemma2p"])
def test_sweep_to_pmax_5000_passes(sweep):
    results = list(run_tasks(SWEEPS[sweep].grid(5000)))
    assert len(results) == 4 * 667  # four families at the 667 primes 5 <= p <= 5000
    assert not [r for r in results if r.lhs_witness.startswith("error:")]
    assert all(r.passed for r in results)


def test_sun_p4_sweep_to_pmax_2000_passes():
    results = list(run_tasks(SWEEPS["sun-p4"].grid(2000)))
    assert len(results) == 4 * 301  # four families at the 301 primes 5 <= p <= 2000
    assert not [r for r in results if r.lhs_witness.startswith("error:")]
    assert all(r.passed for r in results)


PRIMES = st.sampled_from([2, 3, 5, 7, 13])
rationals = st.fractions(min_value=-50, max_value=50, max_denominator=60)


@st.composite
def pairs(draw, p):
    """An unreduced pair for a drawn rational: num and den scaled by p^i times a p-free g."""
    q = draw(rationals)
    free = draw(st.sampled_from([1, 2, 3, 10, 77]).filter(lambda g: g % p))
    scale = p ** draw(st.integers(0, 4)) * free * draw(st.sampled_from([1, -1]))
    return q.numerator * scale, q.denominator * scale


@st.composite
def prime_and_pairs(draw, count=2):
    p = draw(PRIMES)
    return (p, *(draw(pairs(p)) for _ in range(count)))


@given(prime_and_pairs(), st.integers(min_value=1, max_value=4))
def test_pair_functions_match_fraction_oracle(drawn, k):
    p, lhs, rhs = drawn
    ctx = PAdicContext(p, k)
    a, b = Fraction(*lhs), Fraction(*rhs)
    assert pair_congruent(lhs, rhs, ctx) == (oracles.rat_valuation(a - b, p) >= k)
    assert pair_valuation(*lhs, p) == oracles.rat_valuation(a, p)
    residue = pair_residue(*lhs, ctx)
    witness = oracles.residue_witness(a, ctx)
    assert (a.denominator % p == 0) == (residue is None)
    assert witness == (str(a) if residue is None else str(residue))
    result = congruences._congruence_result("t", {}, lhs, rhs, ctx)
    assert result == oracles.congruence_result("t", {}, a, b, ctx)


def test_pair_functions_on_zero_and_ints():
    ctx = PAdicContext(5, 2)
    assert pair_valuation(0, 5**3, 5) == pair_valuation(0, 1, 5) == math.inf
    assert pair_residue(0, 5**3, ctx) == 0
    assert pair_congruent((0, 5), (25, 1), ctx)
    assert not pair_congruent((1, 5), (0, 1), PAdicContext(5, 1))
    assert pair_residue(1, 5, ctx) is None
    assert pair_residue(50, 125, ctx) is None  # 2/5
    assert pair_residue(75, -25, ctx) == pair_residue(-3, 1, ctx) == 22
