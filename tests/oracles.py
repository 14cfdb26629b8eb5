"""Slow, independent Fraction oracles for the tests.

The library evaluates its columns as int numerators over one known
denominator. The builders here accumulate one reduced Fraction per term,
the plain way, and the *_sides functions compute each congruence check's
two sides (or its valued quantity) with them, so the tests can require the
fast path to equal this one element by element.

The rv, lemma2p, sun-p4, guo-bb1, cc5, cc7, cc9 and cc10 verifiers read
their sums off prefix walks; the *_oracle verifiers here build each int
column from k = 0 for every prime instead, so the tests can require the
same CheckResult from both routes. The cc ones are the per-prime routes the
walks replaced: Horner rows over p! (cc_rows_horner) and one weighted_sum
pass per cc9 or cc10 window. Their s_k come from int_s_values, the binomial transform of
the pair-binomial column, not from the s_n recurrence of the library. The
int columns divide each term out of one common denominator (ratio_column);
int_pair_binomial_values builds the C(x,s) C(x+s,s) column that the
library reads off the rv terms at a = -x. The rhs of the family checks come
from FAMILY_CONSTANTS, the published constants and Legendre symbols, where
the library reads one rule in (x, p) at x = -a.

The integrality checks tabulate integers and expand Schmidt powers by the
multinomial theorem; here the averaged d^m s^m sum is a Fraction UniPoly
whose Newton coefficients are taken, and the Schmidt power sum is built by
repeated MultiPoly products, each turned into the same CheckResult.
integer_valued_triangle_oracle is the integer route the library replaced:
for every check it tabulates V itself at t = 0..D+1 (the Delannoy table and
one s column per (t, n)) and takes the whole difference triangle, where the
library sums cached per-term differences. integer_valued_sum_oracle sums
those cached differences over every k < n for each check, where the library
keeps a running sum per (m, eps).

The identity checks factor their sums and work over one known denominator;
here the double/triple sums of bb4 are evaluated as written, f_k repeats its
inner Delannoy sum for every j, cc1, telescope and bb2 multiply and add the
Fraction UniPolys of fraction_poly (telescope also checks the roots 0 and -1
and divides them out), and the bb4 recurrence residual evaluates its five
coefficients anew for each side, each from its table of monomials as written.
int_f_poly_oracle is the integer f_k the library replaced, each C(x+j, k+j)
a new product of all its linear factors where the library adds one per j.

The cc rows are summed over k as written, one C(2k,s) C(s,k) product per
term, and the json report is the whole-report json.dumps that write_report's
json must equal byte for byte. A polynomial side prints through one Fraction per
coefficient, and the report's sort key takes one helper call per parameter.

The command line is read by scv.cli's own parser off the sweep table;
argparse_parse is the argparse parser it replaced, built from the same table,
with the value after each flag joined to it as --flag=value so a value may
start with "-".

The library decides each congruence and valuation on unreduced int pairs;
congruence_result and valuation_result here are the Fraction verdict route
it replaced: every side a reduced Fraction, congruence by the valuation of
the difference, the residue by the inverse of the reduced denominator. They
use no scv.exact_arith valuation or residue function.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import operator
import sys
from collections.abc import Iterable, Iterator
from fractions import Fraction
from fractions import Fraction as Rat
from itertools import chain, islice, repeat
from typing import NamedTuple

from fraction_poly import (
    MultiPoly,
    UniPoly,
    d_poly,
    f_poly,
    newton_coefficients,
    pair_binomial_poly,
    s_poly,
    schmidt_linear_form,
    shifted_binomial_poly,
)

from scv import UsageError, __version__, congruences, integrality, poly, sequences, sweeps
from scv.exact_arith import (
    InvalidPrime,
    PAdicContext,
    coefficients_str,
    is_prime,
    rat_str,
)
from scv.identities import _RECURRENCE_TRIPLES, eval_bb4_side
from scv.report import CheckResult, RunReport


def pochhammer(x: Rat | int, k: int) -> Rat:
    """Rising factorial (x)_k; (x)_0 = 1."""
    if k < 0:
        raise ValueError("k must be >= 0")
    out = Fraction(1)
    x = Fraction(x)
    for i in range(k):
        out *= x + i
    return out


def gen_binomial(x: Rat | int, k: int) -> Rat:
    """Generalized binomial C(x, k) for rational x and integer k >= 0."""
    if k < 0:
        raise ValueError("k must be >= 0")
    out = Fraction(1)
    x = Fraction(x)
    for i in range(k):
        out = out * (x - i) / (i + 1)
    return out


def d_val(n: int, x: Rat | int) -> Rat:
    """d_n(x) by direct summation with incremental C(x, k)."""
    if n < 0:
        raise ValueError("n must be >= 0")
    x = Fraction(x)
    b = Fraction(1)  # C(x, k)
    acc = Fraction(0)
    for k in range(n + 1):
        if k:
            b = b * (x - k + 1) / k
        acc += math.comb(n, k) * b * 2**k
    return acc


def s_val(n: int, x: Rat | int) -> Rat:
    """s_n(x) by direct summation with incremental binomial products."""
    if n < 0:
        raise ValueError("n must be >= 0")
    u = pair_binomial_values(x, n)
    return sum((math.comb(n, k) * u[k] for k in range(n + 1)), Fraction(0))


def s_values(x: Rat | int, kmax: int) -> list[Rat]:
    """[s_0(x), ..., s_kmax(x)] in O(kmax^2) rational operations."""
    u = pair_binomial_values(x, kmax)
    out: list[Fraction] = []
    row = [1]  # binomial row C(k, 0..k)
    for k in range(kmax + 1):
        out.append(sum((row[j] * u[j] for j in range(k + 1)), Fraction(0)))
        row = [1] + [row[j] + row[j + 1] for j in range(k)] + [1]
    return out


def pair_binomial_values(x: Rat | int, smax: int) -> list[Rat]:
    """[C(x,s) * C(x+s,s) for s = 0..smax], built incrementally."""
    x = Fraction(x)
    out = [Fraction(1)]
    b = Fraction(1)  # C(x, s)
    c = Fraction(1)  # C(x+s, s)
    for s in range(1, smax + 1):
        b = b * (x - s + 1) / s
        c = c * (x + s) / s
        out.append(b * c)
    return out


def central_binomial_values(x: Rat | int, kmax: int) -> list[Rat]:
    """[C(x+k, 2k) for k = 0..kmax], built incrementally."""
    x = Fraction(x)
    out = [Fraction(1)]
    w = Fraction(1)
    for k in range(1, kmax + 1):
        w = w * (x + k) * (x - k + 1) / ((2 * k) * (2 * k - 1))
        out.append(w)
    return out


def rv_term(a: Rat, k: int) -> Rat:
    """Hypergeometric summand (a)_k (1-a)_k / (1)_k^2."""
    num = pochhammer(a, k) * pochhammer(1 - Fraction(a), k)
    return num / pochhammer(1, k) ** 2


def rv_terms(a: Rat, count: int) -> list[Rat]:
    """First `count` values of rv_term(a, .), by incremental products."""
    a = Fraction(a)
    out: list[Fraction] = []
    t = Fraction(1)
    for k in range(count):
        out.append(t)
        t = t * (a + k) * (1 - a + k) / (k + 1) ** 2
    return out


def signed_jacobi_term(x: Rat, s: int) -> Rat:
    """(-x)_s (1+x)_s / (1)_s^2, equal to (-1)^s C(x,s) C(x+s,s)."""
    x = Fraction(x)
    return pochhammer(-x, s) * pochhammer(1 + x, s) / pochhammer(1, s) ** 2


def delannoy_oracle(m: int, n: int) -> int:
    """Lattice-path count from (0,0) to (m,n) with east, north and diagonal steps.

    Plain dynamic programming D(i,j) = D(i-1,j) + D(i,j-1) + D(i-1,j-1);
    independent oracle for d_val(n, m).
    """
    if m < 0 or n < 0:
        raise ValueError("m, n must be >= 0")
    row = [1] * (n + 1)
    for _ in range(m):
        new = [1] * (n + 1)
        for j in range(1, n + 1):
            new[j] = row[j] + new[j - 1] + row[j - 1]
        row = new
    return row[n]


@functools.lru_cache(maxsize=None)
def _ds_power(k: int, m: int) -> UniPoly:
    # (d_k * s_k)^m, degree 3km
    return (d_poly(k) * s_poly(k)) ** m


def sun_guo_expr(n: int, m: int, eps: int) -> UniPoly:
    """(1/n) sum_{k<n} eps^k (2k+1) (d_k s_k)^m; degree 3(n-1)m for n >= 2."""
    acc = UniPoly.zero()
    for k in range(n):
        acc = acc + _ds_power(k, m).scale(eps**k * (2 * k + 1))
    return acc.scale(Fraction(1, n))


def integer_valued_oracle(n: int, m: int, eps: int) -> CheckResult:
    """verify_integer_valued through the Newton coefficients of sun_guo_expr."""
    expansion = newton_coefficients(sun_guo_expr(n, m, eps))
    coeffs = expansion.coefficients
    return CheckResult(
        check_name="integer-valued",
        parameters={"n": n, "m": m, "eps": eps},
        passed=expansion.all_integers(),
        lhs_witness="[" + ", ".join(
            str(c.numerator) if c.denominator == 1 else str(c) for c in coeffs
        ) + "]",
        rhs_witness="all integers",
        modulus="exact",
    )


@functools.lru_cache(maxsize=None)
def int_s_column(t: int, kmax: int) -> tuple[int, ...]:
    """[s_0(t), ..., s_kmax(t)] at an integer t: each S_k of s_series over k!^2, exactly."""
    out = []
    for k, sk in enumerate(islice(sequences.s_series(t), kmax + 1)):
        s, r = divmod(sk, math.factorial(k) ** 2)
        if r:
            raise ArithmeticError(f"s_{k}({t}) is not an integer")
        out.append(s)
    return tuple(out)


def v_values(n: int, m: int, eps: int, tmax: int) -> list[int]:
    """V(t) = sum_{k<n} eps^k (2k+1) (d_k(t) s_k(t))^m for t = 0..tmax."""
    columns = [int_s_column(t, n - 1) for t in range(tmax + 1)]
    out = [0] * (tmax + 1)
    d = [1] * (tmax + 1)  # d_0(t)
    for k in range(n):
        if k:  # the Delannoy table: d_k(t) = d_{k-1}(t) + d_k(t-1) + d_{k-1}(t-1)
            prev, d = d, [1] * (tmax + 1)
            for t in range(1, tmax + 1):
                d[t] = prev[t] + d[t - 1] + prev[t - 1]
        weight = eps**k * (2 * k + 1)
        for t, s in enumerate(columns):
            out[t] += weight * (d[t] * s[k]) ** m
    return out


def integer_valued_triangle_oracle(n: int, m: int, eps: int) -> CheckResult:
    """verify_integer_valued by V's own values at t = 0..D+1 and their whole difference triangle."""
    bound = 3 * (n - 1) * m
    vals = v_values(n, m, eps, bound + 1)
    diffs = []
    while vals:
        diffs.append(vals[0])
        vals = [b - a for a, b in zip(vals, vals[1:])]
    if diffs.pop():
        raise ArithmeticError(f"V has degree above its bound {bound}")
    return CheckResult(
        check_name="integer-valued",
        parameters={"n": n, "m": m, "eps": eps},
        passed=all(c % n == 0 for c in diffs),
        lhs_witness=coefficients_str(diffs, n),
        rhs_witness="all integers",
        modulus="exact",
    )


def integer_valued_sum_oracle(n: int, m: int, eps: int) -> CheckResult:
    """verify_integer_valued by its n (D+1) multiply-adds over the cached R_{k,m}, per check."""
    coefficients = [0] * (integrality.degree_bound(n, m) + 1)
    for k in range(n):
        weight = eps**k * (2 * k + 1)
        for j, r in enumerate(integrality._term_differences(k, m)):
            coefficients[j] += weight * r
    return CheckResult(
        check_name="integer-valued",
        parameters={"n": n, "m": m, "eps": eps},
        passed=all(c % n == 0 for c in coefficients),
        lhs_witness=coefficients_str(coefficients, n),
        rhs_witness="all integers",
        modulus="exact",
    )


def schmidt_power_sum(n: int, m: int, eps: int) -> MultiPoly:
    """sum_{k<n} eps^k (2k+1) S_k(x_0..x_k)^m in the n variables x_0..x_{n-1}."""
    acc = MultiPoly.zero(n)
    for k in range(n):
        form = schmidt_linear_form(k, arity=n)
        acc = acc + (form**m).scale(eps**k * (2 * k + 1))
    return acc


def schmidt_divisibility_oracle(n: int, m: int, eps: int) -> CheckResult:
    """verify_schmidt_divisibility through repeated MultiPoly products."""
    poly = schmidt_power_sum(n, m, eps)
    violating: tuple[tuple[int, ...], Fraction] | None = None
    for expo, c in poly.terms():
        if c.denominator != 1 or c.numerator % n != 0:
            if violating is None or expo < violating[0]:
                violating = (expo, c)
    if violating is None:
        lhs = f"all {poly.term_count()} coefficients divisible"
    else:
        lhs = f"monomial {violating[0]} has coefficient {violating[1]}"
    return CheckResult(
        check_name="schmidt-divisibility",
        parameters={"n": n, "m": m, "eps": eps},
        passed=violating is None,
        lhs_witness=lhs,
        rhs_witness=f"multiples of {n}",
        modulus=f"{n}",
    )


def crosscheck_specialization(
    n: int, m: int, eps: int, points: tuple[int, ...] = (-3, -2, -1, 0, 1, 2, 3)
) -> CheckResult:
    """Substituting x_k = f_k(t) into the Schmidt power sum recovers n * sun_guo_expr(t).

    Exercises the deduction chain from coefficient divisibility to
    integer-valuedness at small integer points t.
    """
    power_sum = schmidt_power_sum(n, m, eps)
    averaged = sun_guo_expr(n, m, eps)
    f_at: list[UniPoly] = [f_poly(k) for k in range(n)]
    lhs_vals: list[Rat] = []
    rhs_vals: list[Rat] = []
    for t in points:
        lhs_vals.append(power_sum.eval([fk.eval(t) for fk in f_at]))
        rhs_vals.append(n * averaged.eval(t))
    return CheckResult(
        check_name="integrality-crosscheck",
        parameters={"n": n, "m": m, "eps": eps, "t": ",".join(str(t) for t in points)},
        passed=lhs_vals == rhs_vals,
        lhs_witness="[" + ", ".join(str(v) for v in lhs_vals) + "]",
        rhs_witness="[" + ", ".join(str(v) for v in rhs_vals) + "]",
        modulus="exact",
    )


def integer_window_oracle(n: int, m: int, eps: int) -> bool:
    """Brute-force integrality of sun_guo_expr over one full degree window.

    Tests every integer in [-(D+1), D+1] where D is the polynomial degree;
    independent of the binomial-basis route.
    """
    expr = sun_guo_expr(n, m, eps)
    d = max(expr.degree, 0)
    return all(expr.eval(t).denominator == 1 for t in range(-(d + 1), d + 2))


def fraction_column(column: tuple[list[int], int]) -> list[Rat]:
    """A library column (int numerators, int denominator) as Fractions."""
    nums, den = column
    assert all(type(n) is int for n in nums) and type(den) is int
    return [Fraction(n, den) for n in nums]


# The Fraction verdict route: each side a reduced Fraction.


def int_valuation(n: int, p: int) -> int:
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v


def rat_valuation(q: Rat, p: int) -> int | float:
    """v_p(q) of a reduced Fraction; +infinity for q = 0."""
    if q == 0:
        return math.inf
    return int_valuation(abs(q.numerator), p) - int_valuation(q.denominator, p)


def residue_witness(q: Rat, ctx: PAdicContext) -> str:
    """q mod p^k when its reduced denominator is p-free, its exact a/b otherwise."""
    if q.denominator % ctx.p == 0:
        return rat_str(q)
    m = ctx.modulus
    return str(q.numerator * pow(q.denominator, -1, m) % m)


def congruence_result(
    check_name: str, parameters: dict[str, object], lhs: Rat, rhs: Rat, ctx: PAdicContext
) -> CheckResult:
    return CheckResult(
        check_name=check_name,
        parameters=parameters,
        passed=rat_valuation(Fraction(lhs) - Fraction(rhs), ctx.p) >= ctx.k,
        lhs_witness=residue_witness(Fraction(lhs), ctx),
        rhs_witness=residue_witness(Fraction(rhs), ctx),
        modulus=str(ctx),
    )


def valuation_result(
    check_name: str, parameters: dict[str, object], q: Rat, p: int, k: int
) -> CheckResult:
    v = rat_valuation(Fraction(q), p)
    return CheckResult(
        check_name=check_name,
        parameters=parameters,
        passed=v >= k,
        lhs_witness="inf" if v == math.inf else str(v),
        rhs_witness=str(k),
        modulus=f"{p}^{k}",
    )


def legendre(a: int, p: int) -> int:
    """Legendre symbol (a/p) via Euler's criterion a^((p-1)/2) mod p.

    Returns 0 if p | a, +1 for a nonzero quadratic residue, -1 otherwise.
    Negative a is reduced mod p first; p must be an odd prime.
    """
    if p == 2 or not is_prime(p):
        raise InvalidPrime(f"p = {p} is not an odd prime")
    a %= p
    if a == 0:
        return 0
    r = pow(a, (p - 1) // 2, p)
    return -1 if r == p - 1 else r


class FamilyConstants(NamedTuple):
    """An RV family's published constants, with (d/p) the Legendre symbol of its discriminant d.

    The rhs are (d/p) for rv, lemma2_constant (d/p) for lemma2p, and
    sun_constant (d/p) p^2 for sun-p4 at sun_x = -a.
    """

    discriminant: int
    lemma2_constant: Rat
    sun_x: Rat
    sun_constant: Rat


# keyed by the family label of scv.sequences.RV_FAMILIES
FAMILY_CONSTANTS = {
    "1/2": FamilyConstants(-1, Fraction(5, 4), Fraction(-1, 2), Fraction(3, 4)),
    "1/3": FamilyConstants(-3, Fraction(11, 9), Fraction(-1, 3), Fraction(7, 9)),
    "1/4": FamilyConstants(-2, Fraction(19, 16), Fraction(-1, 4), Fraction(13, 16)),
    "1/6": FamilyConstants(-1, Fraction(41, 36), Fraction(-1, 6), Fraction(31, 36)),
}


# Each check's sides, term by term in Fraction arithmetic.


def rv_sides(family: str, p: int) -> tuple[Rat, Rat]:
    c = FAMILY_CONSTANTS[family]
    lhs = sum(rv_terms(-c.sun_x, p), Fraction(0))
    return lhs, Fraction(legendre(c.discriminant, p))


def lemma2p_sides(family: str, p: int) -> tuple[Rat, Rat]:
    c = FAMILY_CONSTANTS[family]
    lhs = sum(rv_terms(-c.sun_x, 2 * p), Fraction(0))
    return lhs, c.lemma2_constant * legendre(c.discriminant, p)


@functools.lru_cache(maxsize=None)
def weighted_s_square_sum(x: Rat, p: int) -> Rat:
    # sum_{k<p} (2k+1) s_k(x)^2
    sv = s_values(x, p - 1)
    return sum(((2 * k + 1) * sv[k] * sv[k] for k in range(p)), Fraction(0))


def sun_p4_sides(family: str, p: int) -> tuple[Rat, Rat]:
    c = FAMILY_CONSTANTS[family]
    rhs = c.sun_constant * legendre(c.discriminant, p) * p * p
    return weighted_s_square_sum(c.sun_x, p), rhs


def guo_bb1_sides(x: Rat, p: int) -> tuple[Rat, Rat]:
    w = central_binomial_values(x, p - 1)
    u = pair_binomial_values(x, p - 1)
    total = Fraction(0)
    for k in range(p):
        inner = sum((u[j] * math.comb(2 * k, j + k) for j in range(k + 1)), Fraction(0))
        total += Fraction((-1) ** k, k + 1) * w[k] * inner
    return weighted_s_square_sum(x, p), p * p * total


@functools.lru_cache(maxsize=None)
def cc_row_sum(s: int, p: int) -> Rat:
    # sum_{k<p} (-1)^k/(k+1) C(2k,s) C(s,k)
    return sum(
        (
            Fraction((-1) ** k * math.comb(2 * k, s) * math.comb(s, k), k + 1)
            for k in range(p)
        ),
        Fraction(0),
    )


def cc_row_sums(pmax: int) -> Iterator[tuple[int, tuple[tuple[int, ...], int]]]:
    """(p, cc_rows_horner(p)) for p = 1..pmax, by the sum over k as written.

    Row s is sum_{k<p} (-1)^k/(k+1) C(2k,s) C(s,k) for s = 0..2p-2, and
    C(s,k) vanishes for s < k, C(2k,s) for s > 2k. The sums grow one k at a
    time over the common denominator pmax!, and each p reads its rows off
    them over p!.
    """
    big = math.factorial(pmax)
    sums = [0] * (2 * pmax - 1)
    for p in range(1, pmax + 1):
        k = p - 1
        weight = (-1) ** k * (big // (k + 1))
        for s in range(k, 2 * k + 1):
            sums[s] += weight * math.comb(2 * k, s) * math.comb(s, k)
        den = math.factorial(p)
        rows = []
        for total in sums[: 2 * p - 1]:
            row, rem = divmod(total * den, big)
            assert rem == 0, f"p! does not clear row sum at p = {p}"
            rows.append(row)
        yield p, (tuple(rows), den)


def cc5_sides(x: Rat, p: int) -> tuple[Rat, Rat]:
    u = pair_binomial_values(x, 2 * p - 2)
    total = sum((cc_row_sum(s, p) * u[s] for s in range(2 * p - 1)), Fraction(0))
    return weighted_s_square_sum(x, p), p * p * total


def cc7_sides(s: int, p: int) -> tuple[Rat, Rat]:
    return cc_row_sum(s, p), (-1) ** s * (Fraction(2 * p, s + 1) - 1)


def cc8_value(x: Rat, p: int) -> Rat:
    return pair_binomial_values(x, 2 * p - 1)[2 * p - 1]


def cc9_value(x: Rat, p: int) -> Rat:
    u = pair_binomial_values(x, 2 * p - 1)
    return sum((Fraction((-1) ** s, s + 1) * u[s] for s in range(p, 2 * p)), Fraction(0))


def cc10_sides(x: Rat, p: int) -> tuple[Rat, Rat]:
    u = pair_binomial_values(x, 2 * p - 1)
    head = sum(((-1) ** s * u[s] for s in range(p)), Fraction(0))
    full = sum(((-1) ** s * u[s] for s in range(2 * p)), Fraction(0))
    return weighted_s_square_sum(x, p), p * p * (2 * head - full)


# The cc verifiers by the per-prime routes the walks replaced: each p's rows
# by Horner's rule over p!, and the cc9 and cc10 windows as one weighted_sum
# pass over the rv terms from s = 0.


@functools.lru_cache(maxsize=None)
def cc_rows_horner(p: int) -> tuple[tuple[int, ...], int]:
    """Numerators of sum_{k<p} (-1)^k/(k+1) C(2k,s) C(s,k) for s = 0..2p-2, over p!.

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


def verify_cc5_oracle(x: Rat, p: int) -> CheckResult:
    ctx = congruences._require_prime(p, 5, 4)
    a, text = congruences._require_supported_x(x)
    rows, weight = cc_rows_horner(p)
    signed = ((-1) ** s * row for s, row in enumerate(rows))
    total, d = sequences.weighted_sum(signed, sequences.rv_series(a))
    rhs = Fraction(p * p * total, weight * d)
    lhs = int_weighted_s_square_sum(Fraction(x), p)
    return congruence_result("cc5", {"x": text, "p": p}, lhs, rhs, ctx)


def verify_cc7_oracle(s: int, p: int) -> CheckResult:
    ctx = congruences._require_prime(p, 5, 2)
    rows, weight = cc_rows_horner(p)
    rhs = Fraction((-1) ** s * (2 * p - s - 1), s + 1)
    return congruence_result("cc7", {"s": s, "p": p}, Fraction(rows[s], weight), rhs, ctx)


def verify_cc9_oracle(x: Rat, p: int) -> CheckResult:
    ctx = congruences._require_prime(p, 5)
    a, text = congruences._require_supported_x(x)
    weight = math.factorial(2 * p)  # 1/(s+1) = ((2p)!/(s+1)) / (2p)! for s < 2p
    weights = chain(repeat(0, p), (weight // (s + 1) for s in range(p, 2 * p)))
    tail, d = sequences.weighted_sum(weights, sequences.rv_series(a))
    return valuation_result("cc9", {"x": text, "p": p}, Fraction(tail, weight * d), ctx.p, ctx.k)


def verify_cc10_oracle(x: Rat, p: int) -> CheckResult:
    ctx = congruences._require_prime(p, 5, 4)
    a, text = congruences._require_supported_x(x)
    # 2 head - full weighs the terms (-1)^s C(x,s) C(x+s,s) = t_s by +1 for s < p, -1 after
    total, d = sequences.weighted_sum(chain(repeat(1, p), repeat(-1, p)), sequences.rv_series(a))
    lhs = int_weighted_s_square_sum(Fraction(x), p)
    return congruence_result("cc10", {"x": text, "p": p}, lhs, Fraction(p * p * total, d), ctx)


# The walked congruence verifiers by the per-check route: every check builds
# its int columns from k = 0, and guo-bb1 takes each inner sum anew for
# every (k, p).


def ratio_column(den: int, steps: Iterable[tuple[int, int]]) -> list[int]:
    """[den * r_0, den * r_1, ...] for r_0 = 1 and r_s = r_{s-1} * m_s / d_s.

    `steps` yields the integer pairs (m_s, d_s). Every division must be exact,
    which holds when den is a common denominator of the whole column; a
    remainder means a wrong den and raises ArithmeticError instead of
    truncating.
    """
    out = [den]
    for s, (m, d) in enumerate(steps, 1):
        q, r = divmod(out[-1] * m, d)
        if r:
            raise ArithmeticError(f"den is not a common denominator: step {s} leaves a remainder")
        out.append(q)
    return out


def int_pair_binomial_values(x: Rat | int, smax: int) -> tuple[list[int], int]:
    """Numerators of [C(x,s) * C(x+s,s) for s = 0..smax] over one denominator.

    At x = a/b, C(x,s) C(x+s,s) = N_s / (b^{2s} s!^2) with N_s an integer, so
    D = b^{2 smax} smax!^2 is a common denominator; the ratio of consecutive
    terms is (a-(s-1)b)(a+sb) / (sb)^2. The library reads these terms off the
    rv series at a = -x instead, as (-1)^s times the rv terms.
    """
    x = Fraction(x)
    a, b = x.numerator, x.denominator
    den = b ** (2 * smax) * math.factorial(smax) ** 2
    steps = (((a - (s - 1) * b) * (a + s * b), (s * b) ** 2) for s in range(1, smax + 1))
    return ratio_column(den, steps), den


def int_rv_terms(a: Rat, count: int) -> tuple[list[int], int]:
    """Numerators of the first `count` terms (a)_k (1-a)_k / (1)_k^2 over one denominator.

    At a = n/q the terms up to K = count-1 share D = q^{2K} K!^2; the ratio
    of consecutive terms is (n+kq)(q-n+kq) / ((k+1)q)^2.
    """
    a = Fraction(a)
    n, q = a.numerator, a.denominator
    top = max(count - 1, 0)
    den = q ** (2 * top) * math.factorial(top) ** 2
    steps = (((n + k * q) * (q - n + k * q), ((k + 1) * q) ** 2) for k in range(top))
    return ratio_column(den, steps)[:count], den


def int_central_binomial_values(x: Rat | int, kmax: int) -> tuple[list[int], int]:
    """Numerators of [C(x+k, 2k) for k = 0..kmax] over E = b^{2 kmax} (2 kmax)!."""
    x = Fraction(x)
    a, b = x.numerator, x.denominator
    den = b ** (2 * kmax) * math.factorial(2 * kmax)
    steps = (
        ((a + k * b) * (a - (k - 1) * b), 2 * k * (2 * k - 1) * b * b)
        for k in range(1, kmax + 1)
    )
    return ratio_column(den, steps), den


def int_s_values(x: Rat | int, kmax: int) -> tuple[list[int], int]:
    """Numerators of [s_0(x), ..., s_kmax(x)] over the pair-binomial denominator.

    S_k = sum_j C(k,j) U_j is the binomial transform of the pair-binomial
    numerators U, read off the first entry of repeated pairwise sums of the
    U row: additions only, O(kmax^2) of them, and no use of the s_n
    recurrence that sequences.s_series runs.
    """
    row, den = int_pair_binomial_values(x, kmax)
    out = []
    while row:
        out.append(row[0])
        row = [u + v for u, v in zip(row, row[1:])]
    return out, den


def s_series_column(x: Rat | int, kmax: int) -> list[Rat]:
    """[s_0(x), ..., s_kmax(x)] from the S_k of sequences.s_series over b^{2k} k!^2."""
    b = Fraction(x).denominator
    out, den = [], 1
    for k, s in enumerate(islice(sequences.s_series(x), kmax + 1)):
        if k:
            den *= (k * b) ** 2
        out.append(Fraction(s, den))
    return out


def int_weighted_s_square_sum(x: Rat, p: int) -> Rat:
    sv, den = int_s_values(x, p - 1)
    return Fraction(sum((2 * k + 1) * s * s for k, s in enumerate(sv)), den * den)


def verify_rv_oracle(family: str, p: int) -> CheckResult:
    ctx = congruences._require_prime(p, 5, 2)
    c = FAMILY_CONSTANTS[family]
    terms, den = int_rv_terms(-c.sun_x, p)
    lhs = Fraction(sum(terms), den)
    rhs = Fraction(legendre(c.discriminant, p))
    return congruence_result("rv", {"family": family, "p": p}, lhs, rhs, ctx)


def verify_lemma_2p_oracle(family: str, p: int) -> CheckResult:
    ctx = congruences._require_prime(p, 5, 2)
    c = FAMILY_CONSTANTS[family]
    terms, den = int_rv_terms(-c.sun_x, 2 * p)
    lhs = Fraction(sum(terms), den)
    rhs = c.lemma2_constant * legendre(c.discriminant, p)
    return congruence_result("lemma2p", {"family": family, "p": p}, lhs, rhs, ctx)


def verify_sun_p4_oracle(family: str, p: int) -> CheckResult:
    ctx = congruences._require_prime(p, 5, 4)
    c = FAMILY_CONSTANTS[family]
    lhs = int_weighted_s_square_sum(c.sun_x, p)
    rhs = c.sun_constant * legendre(c.discriminant, p) * p * p
    return congruence_result("sun-p4", {"family": family, "p": p}, lhs, rhs, ctx)


def verify_guo_bb1_oracle(x: Rat, p: int) -> CheckResult:
    ctx = congruences._require_prime(p, 3, 4)
    x = Fraction(x)
    lhs = int_weighted_s_square_sum(x, p)
    w, e = int_central_binomial_values(x, p - 1)
    u, d = int_pair_binomial_values(x, p - 1)
    weight = math.factorial(p)  # 1/(k+1) = (p!/(k+1)) / p! for k < p
    total = 0
    for k in range(p):
        inner = sum(u[j] * math.comb(2 * k, j + k) for j in range(k + 1))
        total += (-1) ** k * (weight // (k + 1)) * w[k] * inner
    rhs = Fraction(p * p * total, weight * e * d)
    return congruence_result("guo-bb1", {"x": rat_str(x), "p": p}, lhs, rhs, ctx)


# The identity checks' sums as written.


def bb4_side_oracle(side: str, m: int, n: int) -> int:
    """One side of the double/triple binomial sum identity, as written.

    lhs: sum_{i,j<=m} C(n,i) C(m,i) C(n,j) C(m,j) C(m+j,j) 2^i
    rhs: sum_{k,j,i<=m} C(n+k,2k) C(2k,k) C(m+j,k+j) C(m,i) C(k,j) C(j,i) 2^i
    """
    if side == "lhs":
        total = 0
        for i in range(m + 1):
            wi = math.comb(n, i) * math.comb(m, i) * 2**i
            if wi == 0:
                continue
            for j in range(m + 1):
                wj = math.comb(n, j) * math.comb(m, j)
                if wj:
                    total += wi * wj * math.comb(m + j, j)
        return total
    total = 0
    for k in range(min(m, n) + 1):
        wk = math.comb(n + k, 2 * k) * math.comb(2 * k, k)
        for j in range(k + 1):
            wj = wk * math.comb(m + j, k + j) * math.comb(k, j)
            if wj == 0:
                continue
            total += wj * sum(
                math.comb(m, i) * math.comb(j, i) * 2**i for i in range(j + 1)
            )
    return total


def f_poly_oracle(k: int) -> UniPoly:
    """f_k(x) = sum_{j<=k} sum_{i<=j} C(x+j, k+j) C(x,i) C(k,j) C(j,i) 2^i, as written."""
    acc = UniPoly.zero()
    for j in range(k + 1):
        outer = shifted_binomial_poly(j, k + j).scale(math.comb(k, j))
        inner = UniPoly.zero()
        for i in range(j + 1):
            inner = inner + shifted_binomial_poly(0, i).scale(math.comb(j, i) * 2**i)
        acc = acc + outer * inner
    return acc


def int_f_poly_oracle(k: int) -> tuple[tuple[int, ...], int]:
    """poly.f_poly with each C(x+j, k+j) built anew as a product of its k+j linear factors."""
    terms = (
        (math.comb(k, j), poly.poly_mul(poly.shifted_binomial_poly(j, k + j), poly.d_poly(j)))
        for j in range(k + 1)
    )
    return poly.poly_sum(terms, math.factorial(2 * k) * math.factorial(k))


def coefficients_oracle(p: tuple[tuple[int, ...], int]) -> str:
    """exact_arith.coefficients_str through Fractions: one reduced Fraction per coefficient."""
    nums, den = p
    out = [Fraction(c, den) for c in nums]
    while out and out[-1] == 0:
        out.pop()
    return "[" + ", ".join(map(str, out)) + "]"


def _poly_witness(p: UniPoly) -> str:
    return "[" + ", ".join(
        str(c) if c.denominator > 1 else str(c.numerator) for c in p.coeffs
    ) + "]"


def _identity_oracle(name: str, parameters: dict, lhs: UniPoly, rhs: UniPoly) -> CheckResult:
    return CheckResult(
        check_name=name,
        parameters=parameters,
        passed=lhs == rhs,
        lhs_witness=_poly_witness(lhs),
        rhs_witness=_poly_witness(rhs),
        modulus="exact",
    )


def cc1_weight(j: int, k: int, s: int) -> int:
    return math.comb(j + k, s) * math.comb(s, j) * math.comb(s, k)


def bb2_weight(n: int, k: int) -> int:
    return math.comb(n + k, 2 * k) * math.comb(2 * k, k)


def check_cc1_oracle(j: int, k: int, weight=cc1_weight) -> CheckResult:
    """check_cc1 by Fraction UniPoly products of the pair binomials."""
    lhs = pair_binomial_poly(k) * pair_binomial_poly(j)
    rhs = UniPoly.zero()
    for s in range(j + k + 1):
        w = weight(j, k, s)
        if w:
            rhs = rhs + pair_binomial_poly(s).scale(w)
    return _identity_oracle("cc1", {"j": j, "k": k}, lhs, rhs)


def check_telescope_oracle(n: int, pair=pair_binomial_poly) -> CheckResult:
    """check_telescope on UniPolys, with root checks at 0 and -1 and synthetic division."""
    partial = UniPoly.zero()
    for s in range(n):
        partial = partial + pair(s).scale(Fraction((-1) ** s, s + 1))
    x_poly = UniPoly.x()
    lhs = x_poly * (x_poly + 1) * partial
    rhs = pair(n).scale(n * (-1) ** (n + 1))
    if rhs.eval(0) != 0 or rhs.eval(-1) != 0:
        return CheckResult(
            check_name="telescope",
            parameters={"n": n},
            passed=False,
            lhs_witness=_poly_witness(lhs),
            rhs_witness=_poly_witness(rhs),
            modulus="exact",
        )
    rhs.deflate(0).deflate(-1)  # divisibility by x(x+1) must be exact
    return _identity_oracle("telescope", {"n": n}, lhs, rhs)


def check_bb2_oracle(n: int, weight=bb2_weight) -> CheckResult:
    """check_bb2 by UniPoly products and sums of the Fraction d_n, s_n and f_k."""
    lhs = d_poly(n) * s_poly(n)
    rhs = UniPoly.zero()
    for k in range(n + 1):
        rhs = rhs + f_poly(k).scale(weight(n, k))
    return _identity_oracle("bb2", {"n": n}, lhs, rhs)


def recurrence_coefficient(table: tuple[tuple[int, int, int], ...], m: int, n: int) -> int:
    """One recurrence coefficient at (m, n): its monomials c m^a n^b summed as written."""
    return sum(c * m**em * n**en for em, en, c in table)


def corrupted_recurrence_tables() -> tuple[tuple[tuple[int, int, int], ...], ...]:
    """The stored tables with c2's m^6 monomial miswritten (-7 for -6): wrong at every m >= 1."""
    return tuple(
        table if i != 2 else table[:-1] + ((6, 0, -7),)
        for i, table in enumerate(_RECURRENCE_TRIPLES)
    )


def recurrence_residual_oracle(side: str, m: int, n: int) -> int:
    """identities.recurrence_residual as written: each coefficient summed from its monomials."""
    return sum(
        recurrence_coefficient(table, m, n) * eval_bb4_side(side, m + i, n)
        for i, table in enumerate(_RECURRENCE_TRIPLES)
    )


def check_bb4_recurrence_oracle(side: str, m: int, n: int) -> CheckResult:
    """check_bb4_recurrence on the as-written residual."""
    r = recurrence_residual_oracle(side, m, n)
    return CheckResult(
        check_name="bb4-recurrence",
        parameters={"side": side, "m": m, "n": n},
        passed=r == 0,
        lhs_witness=str(r),
        rhs_witness="0",
        modulus="exact",
    )


def render_json_oracle(report: RunReport) -> str:
    """The json report by the stdlib: the whole report dict through json.dumps, with the
    summary counted from the report's list of checks."""
    checks = [c.to_dict() for c in report.checks]
    passed = sum(1 for c in checks if c["pass"] and not c["skipped"])
    skipped = sum(1 for c in checks if c["skipped"])
    whole = {
        "version": report.tool_version,
        "invocation": dict(report.invocation),
        "checks": checks,
        "summary": {"pass": passed, "fail": len(checks) - passed - skipped, "skipped": skipped},
        "elapsed_seconds": report.elapsed_seconds,
    }
    return json.dumps(whole, sort_keys=True, indent=2) + "\n"


def _param_sort_token(value: object) -> tuple:
    if isinstance(value, int):
        return (0, value)
    return (1, str(value))


def check_sort_key_oracle(check: CheckResult) -> tuple:
    """report.check_sort_key with one helper call per parameter value."""
    params = tuple(
        (k, _param_sort_token(v)) for k, v in sorted(check.parameters.items())
    )
    return (check.check_name, params)


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):
        self.print_usage(sys.stderr)
        raise UsageError(message)


def _parser(prog: str, only: str | None) -> argparse.ArgumentParser:
    """Every sweep's subcommand, with the flags of the sweep `only` alone."""
    parser = _Parser(prog=prog, description="Exact-arithmetic verification of binomial-sum"
                     " congruences and integrality claims.")
    parser.add_argument("--version", action="version", version=f"%(prog)s, version {__version__}")
    verify = parser.add_subparsers(dest="command", required=True).add_parser(
        "verify", help="Run one verification sweep and report every check."
    )
    subcommands = verify.add_subparsers(dest="sweep", required=True)
    for name, sweep in sweeps.SWEEPS.items():
        # only the flags given land in the namespace; a config file and the defaults fill the rest
        sub = subcommands.add_parser(name, help=sweep.help, description=sweep.help,
                                     allow_abbrev=False, argument_default=argparse.SUPPRESS)
        if name != only:  # argparse reads a sweep's flags only when that sweep is named
            continue
        sub.add_argument("--config", help="key=value file supplying defaults; explicit flags win.")
        for option in (*sweep.options, *sweeps.COMMON_OPTIONS):
            sub.add_argument(f"--{option.name}", help=option.help,
                             action="append" if option.repeatable else "store")
    return parser


def join_values(argv: list[str]) -> list[str]:
    """--x -1/5 as --x=-1/5: every flag but --help takes one value, which may start with "-"."""
    flags = {"--config", *(f"--{o.name}" for s in sweeps.SWEEPS.values() for o in s.options),
             *(f"--{o.name}" for o in sweeps.COMMON_OPTIONS)}
    joined: list[str] = []
    for arg in argv:
        if joined and joined[-1] in flags:
            joined[-1] += f"={arg}"
        else:
            joined.append(arg)
    return joined


def argparse_parse(argv: list[str], prog: str = "scv") -> tuple[str, dict[str, object]]:
    """The sweep argv names and the texts of its flags (a list for --x), read by argparse.

    Help and --version print and raise SystemExit(0); any other refusal prints
    the usage line and raises UsageError.
    """
    argv = join_values(argv)
    named = argv[1] if argv[:1] == ["verify"] and len(argv) > 1 else None
    given = vars(_parser(prog, named).parse_args(argv))
    del given["command"]
    return given.pop("sweep"), given
