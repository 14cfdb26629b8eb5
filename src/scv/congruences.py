"""Congruence verifiers for the hypergeometric and binomial-sum families.

Every check computes both sides as exact rationals (no intermediate
truncation) at an x that exact_arith.ratio reads as a reduced int pair;
the rv, lemma2p and sun-p4 rhs are one rule each in (x, p), read at x = -a
for a family's a. The terms are int numerators over one known common
denominator, so each side is summed in int arithmetic to an unreduced
(numerator, denominator) int pair, and the verdict and its witnesses are
read off those pairs (pair_congruent, pair_residue and pair_valuation) with
no gcd; sums whose individual terms are not p-adic integers (the 1/(k+1)
weights at k = p-1, the s = 2p-1 tail terms) are handled correctly, since
only the valuation of the difference counts. The verdict shapes mod p^k and
v_p >= k have one builder each.

The sides that are partial sums of a p-independent series read their
prefix off the per-point walks of scv.sequences: rv (N = p) and lemma2p
(N = 2p) off the rv terms at a, the lhs of sun-p4, guo-bb1, cc5 and cc10
off the weighted s_k^2 sum at x, and the guo-bb1 rhs off its own walk. So
a sweep walks each series once per point instead of once per prime. The
cc rows are int prefixes over k too, since C(2k,s) C(s,k)/(k+1) =
Cat_k C(k,s-k): cc7 and the cc5 rhs read them off one RowWalk. The cc9 and
cc10 windows are differences of two prefixes, at N = 2p and N = p, of the
rv terms t_s at a = -x, a family's a (C(x,s) C(x+s,s) = (-1)^s t_s), and of
t_s/(s+1); each N has its own cursor per x. Only the cc5 rhs, whose weights
are the p-dependent rows, and the single cc8-fact term are one
sequences.weighted_sum pass over the rv terms at each (p, x).
"""

from __future__ import annotations

import functools
import math
from itertools import chain, repeat

from .exact_arith import (
    InvalidPrime,
    PAdicContext,
    Pair,
    Point,
    pair_congruent,
    pair_residue,
    pair_valuation,
    rat_str,
    ratio,
)
from .report import CheckResult, skipped_result
from .sequences import (
    RV_FAMILIES,
    RowWalk,
    bb1_walk,
    catalan_rows,
    rv_divided_walk,
    rv_series,
    rv_walk,
    s_square_walk,
    weighted_sum,
)


class OutOfRange(ValueError):
    """Raised when a sweep parameter is outside its documented range."""


def residue_witness(side: Pair, ctx: PAdicContext) -> str:
    """Residue string when the side is a p-adic integer, its reduced a/b otherwise."""
    residue = pair_residue(*side, ctx)
    return rat_str(*side) if residue is None else str(residue)


def _valuation_result(
    check_name: str, parameters: dict[str, object], q: Pair, ctx: PAdicContext
) -> CheckResult:
    """The fact v_p(q) >= k, witnessed by v_p(q) ("inf" when q = 0) against k."""
    v = pair_valuation(*q, ctx)
    witness = "inf" if v == math.inf else str(v)
    return CheckResult(check_name, parameters, v >= ctx.k, witness, str(ctx.k), str(ctx))


def _congruence_result(
    check_name: str,
    parameters: dict[str, object],
    lhs: Pair,
    rhs: Pair,
    ctx: PAdicContext,
) -> CheckResult:
    return CheckResult(
        check_name, parameters, pair_congruent(lhs, rhs, ctx),
        residue_witness(lhs, ctx), residue_witness(rhs, ctx), str(ctx),
    )


def _require_prime(p: int, minimum: int, k: int = 1) -> PAdicContext:
    """The check's PAdicContext(p, k); building it is the one primality test of p."""
    ctx = PAdicContext(p, k)
    if p < minimum:
        raise OutOfRange(f"p = {p} is below the minimum prime {minimum}")
    return ctx


# the x of the cc checks, as written in their report parameters: each -x is a family's a,
# which _require_supported_x returns, so the cc windows pass over that family's rv terms
SUPPORTED_X = tuple(rat_str(-a, b) for a, b in RV_FAMILIES.values())


def _require_supported_x(x: Point) -> tuple[Pair, str]:
    a, b = ratio(x)
    if (text := rat_str(a, b)) not in SUPPORTED_X:
        raise OutOfRange(f"x = {text} is not one of {', '.join(SUPPORTED_X)}")
    return (-a, b), text


def _require_family(family: str) -> tuple[Pair, Pair]:
    if family not in RV_FAMILIES:
        raise OutOfRange(f"family = {family} is not one of {', '.join(RV_FAMILIES)}")
    a, b = RV_FAMILIES[family]
    return (a, b), (-a, b)  # a and the point x = -a, where the family's rhs is read


def _point_class(x: Pair, p: int) -> tuple[int, int, int]:
    """(sign, u, b): (-1)^r and x' = u/b = (x - r)/p, for x = u'/b and r = <x>_p = u'/b mod p.

    At a family's x = -1/q, q in {2, 3, 4, 6}, r = (jp - 1)/q with j = 1/p mod q, 1 or q-1,
    so x' = -j/q is x or -1-x; and r is even iff (disc/p) = 1, case by case over p mod 4q:
    q = 2, disc -1, r = (p-1)/2 (Euler); q = 3, disc -3, iff p = 1 mod 3; q = 4, disc -2,
    iff p = 1, 3 mod 8; q = 6, disc -1, iff p = 1, 5 mod 12.
    """
    u, b = x
    r = u * pow(b, -1, p) % p
    return (-1) ** r, (u - r * b) // p, b


def verify_rv(family: str, p: int) -> CheckResult:
    """sum_{k<p} (a)_k (1-a)_k / (1)_k^2 against (-1)^r, r = <-a>_p, mod p^2."""
    ctx = _require_prime(p, 5, 2)
    a, x = _require_family(family)
    lhs = rv_walk(a).prefix(p)
    rhs = (_point_class(x, p)[0], 1)
    return _congruence_result("rv", {"family": family, "p": p}, lhs, rhs, ctx)


def verify_lemma_2p(family: str, p: int) -> CheckResult:
    """The same hypergeometric sum taken to 2p-1 terms, against (-1)^r (1 - x'(1+x')) at x = -a."""
    ctx = _require_prime(p, 5, 2)
    a, x = _require_family(family)
    lhs = rv_walk(a).prefix(2 * p)
    sign, u, b = _point_class(x, p)
    rhs = (sign * (b * b - u * (b + u)), b * b)
    return _congruence_result("lemma2p", {"family": family, "p": p}, lhs, rhs, ctx)


@functools.cache
def _cc_rows() -> RowWalk:
    """The one cursor over the cc rows: prefix(p)[s] = sum_{k<p} (-1)^k/(k+1) C(2k,s) C(s,k).

    That is the int sum_{k<p} (-1)^k Cat_k C(k,s-k), for s = 0..2p-2. cc5 and
    cc7 each read it p upward, so each kind walks it once, and it holds only
    the rows of its frontier.
    """
    return RowWalk(catalan_rows)


def _difference(lhs: Pair, rhs: Pair) -> Pair:
    """a/b - c/d as the unreduced pair (a d - c b, b d)."""
    (a, b), (c, d) = lhs, rhs
    return a * d - c * b, b * d


def verify_sun_p4(family: str, p: int) -> CheckResult:
    """sum_{k<p} (2k+1) s_k(x)^2 against (-1)^r p^2 (1 + x'(1+x')) at x = -a, mod p^4."""
    ctx = _require_prime(p, 5, 4)
    _, x = _require_family(family)
    lhs = s_square_walk(x).prefix(p)
    sign, u, b = _point_class(x, p)
    rhs = (sign * p * p * (b * b + u * (b + u)), b * b)
    return _congruence_result("sun-p4", {"family": family, "p": p}, lhs, rhs, ctx)


def verify_guo_bb1(x: Point, p: int) -> CheckResult:
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
    x = ratio(x)
    parameters = {"x": rat_str(*x), "p": p}
    if x[1] % p == 0:
        reason = f"x = {parameters['x']} is not a p-adic integer for p = {p}"
        return skipped_result("guo-bb1", parameters, reason)
    lhs = s_square_walk(x).prefix(p)
    total, den = bb1_walk(x).prefix(p)
    rhs = (p * p * total, den)
    return _congruence_result("guo-bb1", parameters, lhs, rhs, ctx)


def verify_cc5(x: Point, p: int) -> CheckResult:
    """The summation-order-exchanged form of the same mod-p^4 reduction.

    Checks sum_{k<p} (2k+1) s_k(x)^2 ==
    p^2 * sum_{s<=2p-2} sum_{k<p} (-1)^k/(k+1) C(2k,s) C(s,k) C(x,s) C(x+s,s)
    modulo p^4.
    """
    ctx = _require_prime(p, 5, 4)
    a, text = _require_supported_x(x)
    lhs = s_square_walk(x).prefix(p)
    rows = _cc_rows().prefix(p)
    # C(x,s) C(x+s,s) = (-1)^s t_s, with t_s the rv term at a = -x
    total, d = weighted_sum(((-1) ** s * row for s, row in enumerate(rows)), rv_series(a))
    rhs = (p * p * total, d)
    return _congruence_result("cc5", {"x": text, "p": p}, lhs, rhs, ctx)


def verify_cc7(s: int, p: int) -> CheckResult:
    """Partial rows of the alternating 1/(k+1) binomial sum, mod p^2.

    For p <= s <= 2p-2:
    sum_{k<p} (-1)^k/(k+1) C(2k,s) C(s,k) == (-1)^s (-1 + 2p/(s+1)).
    """
    ctx = _require_prime(p, 5, 2)
    if not p <= s <= 2 * p - 2:
        raise OutOfRange(f"s = {s} outside [p, 2p-2] = [{p}, {2 * p - 2}]")
    lhs = (_cc_rows().prefix(p)[s], 1)
    rhs = ((-1) ** s * (2 * p - s - 1), s + 1)
    return _congruence_result("cc7", {"s": s, "p": p}, lhs, rhs, ctx)


def verify_cc8_fact(x: Point, p: int) -> CheckResult:
    """v_p( C(x, 2p-1) * C(x+2p-1, 2p-1) ) >= 2 for the four supported x."""
    ctx = _require_prime(p, 5, 2)
    a, text = _require_supported_x(x)
    # the s = 2p-1 term alone, (-1)^{2p-1} t_{2p-1}
    term = weighted_sum(chain(repeat(0, 2 * p - 1), (-1,)), rv_series(a))
    return _valuation_result("cc8-fact", {"x": text, "p": p}, term, ctx)


def verify_cc9(x: Point, p: int) -> CheckResult:
    """v_p( sum_{s=p}^{2p-1} (-1)^s/(s+1) C(x,s) C(x+s,s) ) >= 1.

    The s = 2p-1 term alone has a p in its 1/(s+1) weight, so only the
    valuation form of this statement is meaningful.
    """
    ctx = _require_prime(p, 5)
    a, text = _require_supported_x(x)
    # (-1)^s C(x,s) C(x+s,s)/(s+1) = t_s/(s+1), with t_s the rv term at a = -x
    tail = _difference(rv_divided_walk(a, 1).prefix(2 * p), rv_divided_walk(a).prefix(p))
    return _valuation_result("cc9", {"x": text, "p": p}, tail, ctx)


def verify_cc10(x: Point, p: int) -> CheckResult:
    """The collapsed two-window form of the weighted s_k^2 congruence.

    Checks sum_{k<p} (2k+1) s_k(x)^2 ==
    p^2 * ( 2 sum_{s<p} (-1)^s C(x,s) C(x+s,s) - sum_{s<2p} (-1)^s C(x,s) C(x+s,s) )
    modulo p^4.
    """
    ctx = _require_prime(p, 5, 4)
    a, text = _require_supported_x(x)
    lhs = s_square_walk(x).prefix(p)
    # 2 head - full over the terms (-1)^s C(x,s) C(x+s,s) = t_s, the rv terms at a = -x
    head, den = rv_walk(a).prefix(p)
    total, d = _difference((2 * head, den), rv_walk(a, 1).prefix(2 * p))
    rhs = (p * p * total, d)
    return _congruence_result("cc10", {"x": text, "p": p}, lhs, rhs, ctx)
