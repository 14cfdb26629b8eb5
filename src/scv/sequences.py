"""Number families used by the verifiers, evaluated at one rational point.

Definitions (all exact over Rat):

    d_n(x)          sum_k C(n,k) C(x,k) 2^k          (degree n)
    s_n(x)          sum_k C(n,k) C(x,k) C(x+k,k)     (degree 2n)
    S_n(x_0..x_n)   sum_k C(n+k,2k) C(2k,k) x_k      (linear form)
    t_k(a)          (a)_k (1-a)_k / (1)_k^2          (the rv terms)

The *_values and rv_terms column builders evaluate a whole column at a
rational point in plain int arithmetic: each returns (numerators,
denominator), with one known common denominator for the column, so a
congruence check builds a single Fraction per side at the end instead of
reducing one per term. The same families as polynomials in x are in
scv.poly, which the congruence checks never load.
"""

from __future__ import annotations

import math
from collections.abc import Iterable
from dataclasses import dataclass
from fractions import Fraction

from .exact_arith import Rat


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


def pair_binomial_values(x: Rat | int, smax: int) -> tuple[list[int], int]:
    """Numerators of [C(x,s) * C(x+s,s) for s = 0..smax] over one denominator.

    At x = a/b, C(x,s) C(x+s,s) = N_s / (b^{2s} s!^2) with N_s an integer, so
    D = b^{2 smax} smax!^2 is a common denominator; the ratio of consecutive
    terms is (a-(s-1)b)(a+sb) / (sb)^2.
    """
    x = Fraction(x)
    a, b = x.numerator, x.denominator
    den = b ** (2 * smax) * math.factorial(smax) ** 2
    steps = (((a - (s - 1) * b) * (a + s * b), (s * b) ** 2) for s in range(1, smax + 1))
    return ratio_column(den, steps), den


def central_binomial_values(x: Rat | int, kmax: int) -> tuple[list[int], int]:
    """Numerators of [C(x+k, 2k) for k = 0..kmax] over E = b^{2 kmax} (2 kmax)!."""
    x = Fraction(x)
    a, b = x.numerator, x.denominator
    den = b ** (2 * kmax) * math.factorial(2 * kmax)
    steps = (
        ((a + k * b) * (a - (k - 1) * b), 2 * k * (2 * k - 1) * b * b)
        for k in range(1, kmax + 1)
    )
    return ratio_column(den, steps), den


def s_values(x: Rat | int, kmax: int) -> tuple[list[int], int]:
    """Numerators of [s_0(x), ..., s_kmax(x)] over the pair-binomial denominator.

    S_k = sum_j C(k,j) U_j is the binomial transform of the pair-binomial
    numerators U, read off the first entry of repeated pairwise sums of the
    U row: additions only, O(kmax^2) of them.
    """
    row, den = pair_binomial_values(x, kmax)
    out = []
    while row:
        out.append(row[0])
        row = [u + v for u, v in zip(row, row[1:])]
    return out, den


def rv_terms(a: Rat, count: int) -> tuple[list[int], int]:
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


def schmidt_coefficient(n: int, k: int) -> int:
    """Weight C(n+k, 2k) * C(2k, k) of x_k in the linear Schmidt form."""
    return math.comb(n + k, 2 * k) * math.comb(2 * k, k)


@dataclass(frozen=True)
class RVFamily:
    """One of the four hypergeometric families with its sweep constants.

    a is the hypergeometric parameter, discriminant the Legendre-symbol
    argument, lemma2_constant the mod-p^2 constant for sums to 2p-1, sun_x
    the evaluation point for the weighted s_k^2 sums and sun_constant their
    mod-p^4 constant (times the Legendre symbol times p^2).
    """

    label: str
    a: Fraction
    discriminant: int
    lemma2_constant: Fraction
    sun_x: Fraction
    sun_constant: Fraction


RV_FAMILIES: tuple[RVFamily, ...] = (
    RVFamily("1/2", Fraction(1, 2), -1, Fraction(5, 4), Fraction(-1, 2), Fraction(3, 4)),
    RVFamily("1/3", Fraction(1, 3), -3, Fraction(11, 9), Fraction(-1, 3), Fraction(7, 9)),
    RVFamily("1/4", Fraction(1, 4), -2, Fraction(19, 16), Fraction(-1, 4), Fraction(13, 16)),
    RVFamily("1/6", Fraction(1, 6), -1, Fraction(41, 36), Fraction(-1, 6), Fraction(31, 36)),
)


def family_by_label(label: str) -> RVFamily:
    for fam in RV_FAMILIES:
        if fam.label == label:
            return fam
    raise KeyError(f"unknown family {label!r}")
