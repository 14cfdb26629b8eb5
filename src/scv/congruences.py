"""Congruence verifiers for the hypergeometric and binomial-sum families.

Every check computes both sides as exact rationals (no intermediate
truncation). The terms are int numerators over one known common
denominator, so each side is summed in int arithmetic to an unreduced
(numerator, denominator) int pair, and the verdict and its witnesses are
read off those pairs (exact_arith.pair_congruent, pair_residue and
pair_valuation) with no gcd; sums whose individual terms are not p-adic
integers (the 1/(k+1) weights at k = p-1, the s = 2p-1 tail terms) are
handled correctly, since only the valuation of the difference counts.
Each verdict shape (mod p^k, v_p >= k, exact equality) has one builder here.

The sides that are partial sums of a p-independent series read their
prefix off the per-point walks of scv.sequences: rv (N = p) and lemma2p
(N = 2p) off the rv terms at a, the lhs of sun-p4, guo-bb1, cc5 and cc10
off the weighted s_k^2 sum at x, and the guo-bb1 rhs off its own walk. So
a sweep walks each series once per point instead of once per prime. The
cc5 rows, cc7 and the cc8-cc10 windows depend on p through the k < p cut:
the rows are built once per p and shared by cc5 and cc7, and one
pair-binomial column per (x, p) is shared by cc5 and cc8-cc10. cc5 and
cc10 at one (x, p) read the same walk frontier, which costs nothing.
"""

from __future__ import annotations

import functools
import math
import operator
from fractions import Fraction
from itertools import chain
from typing import NamedTuple

from .exact_arith import (
    InvalidPrime,
    PAdicContext,
    Pair,
    Rat,
    _int_str,
    _legendre,
    pair_congruent,
    pair_residue,
    pair_valuation,
    rat_str,
)
from .sequences import RV_FAMILIES, bb1_walk, pair_binomial_values, rv_walk, s_square_walk


class OutOfRange(ValueError):
    """Raised when a sweep parameter is outside its documented range."""


class CheckResult(NamedTuple):
    """Outcome of one verification, with enough data to reproduce it."""

    check_name: str
    parameters: dict[str, object]
    passed: bool
    lhs_witness: str
    rhs_witness: str
    modulus: str
    skipped: bool = False

    def to_dict(self) -> dict[str, object]:
        return {
            "check_name": self.check_name,
            "parameters": dict(self.parameters),
            "pass": self.passed,
            "skipped": self.skipped,
            "lhs_witness": self.lhs_witness,
            "rhs_witness": self.rhs_witness,
            "modulus": self.modulus,
        }


def skipped_result(check_name: str, parameters: dict[str, object], reason: str) -> CheckResult:
    """A Skipped record for sweep points whose preconditions do not apply."""
    return CheckResult(
        check_name=check_name,
        parameters=parameters,
        passed=False,
        lhs_witness=reason,
        rhs_witness="",
        modulus="",
        skipped=True,
    )


def residue_witness(side: Pair, ctx: PAdicContext) -> str:
    """Residue string when the side is a p-adic integer, its reduced a/b otherwise."""
    residue = pair_residue(*side, ctx)
    return rat_str(*side) if residue is None else str(residue)


def exact_result(
    check_name: str, parameters: dict[str, object], lhs: int | str, rhs: int | str
) -> CheckResult:
    """An exact equality of two ints or two canonical strings; _int_str passes a string on."""
    return CheckResult(
        check_name=check_name,
        parameters=parameters,
        passed=lhs == rhs,
        lhs_witness=_int_str(lhs),
        rhs_witness=_int_str(rhs),
        modulus="exact",
    )


def _valuation_result(
    check_name: str, parameters: dict[str, object], q: Pair, ctx: PAdicContext
) -> CheckResult:
    """The fact v_p(q) >= k, witnessed by v_p(q) ("inf" when q = 0) against k."""
    v = pair_valuation(*q, ctx)
    return CheckResult(
        check_name=check_name,
        parameters=parameters,
        passed=v >= ctx.k,
        lhs_witness="inf" if v == math.inf else str(v),
        rhs_witness=str(ctx.k),
        modulus=str(ctx),
    )


def _congruence_result(
    check_name: str,
    parameters: dict[str, object],
    lhs: Pair,
    rhs: Pair,
    ctx: PAdicContext,
) -> CheckResult:
    return CheckResult(
        check_name=check_name,
        parameters=parameters,
        passed=pair_congruent(lhs, rhs, ctx),
        lhs_witness=residue_witness(lhs, ctx),
        rhs_witness=residue_witness(rhs, ctx),
        modulus=str(ctx),
    )


def _require_prime(p: int, minimum: int, k: int = 1) -> PAdicContext:
    """The check's PAdicContext(p, k); building it is the one primality test of p."""
    ctx = PAdicContext(p, k)
    if p < minimum:
        raise OutOfRange(f"p = {p} is below the minimum prime {minimum}")
    return ctx


# the x of the cc checks, as written in their report parameters
SUPPORTED_X = ("-1/2", "-1/3", "-1/4", "-1/6")


def _require_supported_x(x: Rat) -> Fraction:
    x = Fraction(x)
    if rat_str(x) not in SUPPORTED_X:
        raise OutOfRange(f"x = {rat_str(x)} is not one of {', '.join(SUPPORTED_X)}")
    return x


def verify_rv(family: str, p: int) -> CheckResult:
    """sum_{k<p} (a)_k (1-a)_k / (1)_k^2 against the Legendre symbol, mod p^2."""
    ctx = _require_prime(p, 5, 2)
    fam = RV_FAMILIES[family]
    lhs = rv_walk(fam.a).prefix(p)
    rhs = (_legendre(fam.discriminant, p), 1)
    return _congruence_result("rv", {"family": family, "p": p}, lhs, rhs, ctx)


def verify_lemma_2p(family: str, p: int) -> CheckResult:
    """The same hypergeometric sum taken to 2p-1 terms, against its 5/4-style constant."""
    ctx = _require_prime(p, 5, 2)
    fam = RV_FAMILIES[family]
    lhs = rv_walk(fam.a).prefix(2 * p)
    c, d = fam.lemma2_constant.as_integer_ratio()
    rhs = (c * _legendre(fam.discriminant, p), d)
    return _congruence_result("lemma2p", {"family": family, "p": p}, lhs, rhs, ctx)


@functools.lru_cache(maxsize=2)
def _cc_row_sums(p: int) -> tuple[tuple[int, ...], int]:
    """Numerators of sum_{k<p} (-1)^k/(k+1) C(2k,s) C(s,k) for s = 0..2p-2, over p!.

    They depend on (s, p) only, so cc5 shares them across its x values and
    cc7 across its s values; the cc grid runs p by p, so two held suffice.
    Since C(2k,s) C(s,k) = C(2k,k) C(k,s-k), row s is the coefficient of t^s
    in sum_{k<p} w_k C(2k,k) u^k with u = t + t^2 and w_k = (-1)^k p!/(k+1);
    Horner's rule in u gives every row with O(p^2) additions and p binomials.
    """
    den = math.factorial(p)
    coeffs = [(-1) ** k * (den // (k + 1)) * math.comb(2 * k, k) for k in range(p)]
    rows = [coeffs.pop()]
    for a in reversed(coeffs):  # rows <- a + (t + t^2) * rows
        rows = [a, *map(operator.add, chain(rows, (0,)), chain((0,), rows))]
    return tuple(rows), den


@functools.lru_cache(maxsize=2)
def _pair_column(x: Fraction, p: int) -> tuple[list[int], int]:
    """C(x,s) C(x+s,s) for s = 0..2p-1 over one denominator; cc5 and cc8-cc10 share it.

    The cc grid asks for it point by point, so two columns held build each once.
    """
    return pair_binomial_values(x, 2 * p - 1)


def verify_sun_p4(family: str, p: int) -> CheckResult:
    """sum_{k<p} (2k+1) s_k(x)^2 against constant * Legendre * p^2, mod p^4."""
    ctx = _require_prime(p, 5, 4)
    fam = RV_FAMILIES[family]
    lhs = s_square_walk(fam.sun_x).prefix(p)
    c, d = fam.sun_constant.as_integer_ratio()
    rhs = (c * _legendre(fam.discriminant, p) * p * p, d)
    return _congruence_result("sun-p4", {"family": family, "p": p}, lhs, rhs, ctx)


def verify_guo_bb1(x: Rat, p: int) -> CheckResult:
    """The mod-p^4 reduction of the weighted s_k^2 sum to a double binomial sum.

    Checks sum_{k<p} (2k+1) s_k(x)^2 ==
    p^2 * sum_{k<p} sum_{j<=k} (-1)^k/(k+1) C(x+k,2k) C(x,j) C(x+j,j) C(2k,j+k)
    modulo p^4, for any odd prime p and p-adic integer x.  The k = p-1 weight
    has valuation -1, so the comparison must stay valuation-aware. p is
    validated first; an x that is not a p-adic integer is a skipped record.
    """
    if p == 2:
        raise InvalidPrime(f"p = {p} is not an odd prime")
    ctx = _require_prime(p, 3, 4)
    x = Fraction(x)
    parameters = {"x": rat_str(x), "p": p}
    if x.denominator % p == 0:
        reason = f"x = {parameters['x']} is not a p-adic integer for p = {p}"
        return skipped_result("guo-bb1", parameters, reason)
    lhs = s_square_walk(x).prefix(p)
    total, den = bb1_walk(x).prefix(p)
    rhs = (p * p * total, den)
    return _congruence_result("guo-bb1", parameters, lhs, rhs, ctx)


def verify_cc5(x: Rat, p: int) -> CheckResult:
    """The summation-order-exchanged form of the same mod-p^4 reduction.

    Checks sum_{k<p} (2k+1) s_k(x)^2 ==
    p^2 * sum_{s<=2p-2} sum_{k<p} (-1)^k/(k+1) C(2k,s) C(s,k) C(x,s) C(x+s,s)
    modulo p^4.
    """
    ctx = _require_prime(p, 5, 4)
    x = _require_supported_x(x)
    lhs = s_square_walk(x).prefix(p)
    u, d = _pair_column(x, p)
    rows, weight = _cc_row_sums(p)
    rhs = (p * p * sum(map(operator.mul, rows, u)), weight * d)  # s <= 2p-2
    return _congruence_result("cc5", {"x": rat_str(x), "p": p}, lhs, rhs, ctx)


def verify_cc7(s: int, p: int) -> CheckResult:
    """Partial rows of the alternating 1/(k+1) binomial sum, mod p^2.

    For p <= s <= 2p-2:
    sum_{k<p} (-1)^k/(k+1) C(2k,s) C(s,k) == (-1)^s (-1 + 2p/(s+1)).
    """
    ctx = _require_prime(p, 5, 2)
    if not p <= s <= 2 * p - 2:
        raise OutOfRange(f"s = {s} outside [p, 2p-2] = [{p}, {2 * p - 2}]")
    rows, weight = _cc_row_sums(p)
    lhs = (rows[s], weight)
    rhs = ((-1) ** s * (2 * p - s - 1), s + 1)
    return _congruence_result("cc7", {"s": s, "p": p}, lhs, rhs, ctx)


def verify_cc8_fact(x: Rat, p: int) -> CheckResult:
    """v_p( C(x, 2p-1) * C(x+2p-1, 2p-1) ) >= 2 for the four supported x."""
    ctx = _require_prime(p, 5, 2)
    x = _require_supported_x(x)
    u, d = _pair_column(x, p)
    return _valuation_result("cc8-fact", {"x": rat_str(x), "p": p}, (u[-1], d), ctx)


def verify_cc9(x: Rat, p: int) -> CheckResult:
    """v_p( sum_{s=p}^{2p-1} (-1)^s/(s+1) C(x,s) C(x+s,s) ) >= 1.

    The s = 2p-1 term alone has a p in its 1/(s+1) weight, so only the
    valuation form of this statement is meaningful.
    """
    ctx = _require_prime(p, 5)
    x = _require_supported_x(x)
    u, d = _pair_column(x, p)
    weight = math.factorial(2 * p)  # 1/(s+1) = ((2p)!/(s+1)) / (2p)! for s < 2p
    tail = sum((-1) ** s * (weight // (s + 1)) * u[s] for s in range(p, 2 * p))
    return _valuation_result("cc9", {"x": rat_str(x), "p": p}, (tail, weight * d), ctx)


def verify_cc10(x: Rat, p: int) -> CheckResult:
    """The collapsed two-window form of the weighted s_k^2 congruence.

    Checks sum_{k<p} (2k+1) s_k(x)^2 ==
    p^2 * ( 2 sum_{s<p} (-1)^s C(x,s) C(x+s,s) - sum_{s<2p} (-1)^s C(x,s) C(x+s,s) )
    modulo p^4.
    """
    ctx = _require_prime(p, 5, 4)
    x = _require_supported_x(x)
    lhs = s_square_walk(x).prefix(p)
    u, d = _pair_column(x, p)
    head = sum((-1) ** s * u[s] for s in range(p))
    full = sum((-1) ** s * u[s] for s in range(2 * p))
    rhs = (p * p * (2 * head - full), d)
    return _congruence_result("cc10", {"x": rat_str(x), "p": p}, lhs, rhs, ctx)
