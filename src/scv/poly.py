"""Polynomials in x as integer numerators over one known denominator.

A polynomial is an IntPoly: a tuple of int numerators (index = degree of x)
and one int denominator, so products and sums run in plain int arithmetic
and a caller builds one Fraction per coefficient only when it compares or
prints a finished polynomial. The families (all cached):

    C(x+shift, s)   prod_{i<s} (x+shift-i)               over s!
    C(x,s) C(x+s,s) prod_{i<s} (x-i)(x+s-i)              over s!^2
    d_n(x)          sum_k C(n,k) C(x,k) 2^k              over n!
    s_n(x)          sum_k C(n,k) C(x,k) C(x+k,k)         over n!^2
    f_k(x)          sum_{j<=k} C(k,j) C(x+j,k+j) d_j(x)  over (2k)! k!

tests/fraction_poly.py keeps the Fraction polynomial rings these replaced,
as the differential oracle.
"""

from __future__ import annotations

import functools
import math
from collections.abc import Iterable, Sequence
from fractions import Fraction

from .exact_arith import Rat

IntPoly = tuple[tuple[int, ...], int]


def int_poly_mul(a: Sequence[int], b: Sequence[int]) -> list[int]:
    """Product of two integer coefficient lists (index = degree of x)."""
    out = [0] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        for j, cb in enumerate(b):
            out[i + j] += ca * cb
    return out


def poly_mul(p: IntPoly, q: IntPoly) -> IntPoly:
    return tuple(int_poly_mul(p[0], q[0])), p[1] * q[1]


def poly_sum(terms: Iterable[tuple[Rat | int, IntPoly]], den: int) -> IntPoly:
    """sum_i w_i p_i as numerators over den.

    den must clear every term: w_i * den / (denominator of p_i) has to be an
    integer, or ArithmeticError is raised instead of truncating.
    """
    out: list[int] = []
    for w, (nums, d) in terms:
        if not w:
            continue
        scale = Fraction(w) * den / d
        if scale.denominator != 1:
            raise ArithmeticError(f"{den} is not a common denominator")
        out.extend([0] * (len(nums) - len(out)))
        for i, c in enumerate(nums):
            out[i] += scale.numerator * c
    return tuple(out), den


def _linear_product(factors: Iterable[Sequence[int]]) -> tuple[int, ...]:
    out = [1]
    for f in factors:
        out = int_poly_mul(out, f)
    return tuple(out)


@functools.lru_cache(maxsize=None)
def shifted_binomial_poly(shift: int, s: int) -> IntPoly:
    """C(x + shift, s) = (x+shift)(x+shift-1)...(x+shift-s+1) / s!."""
    if s < 0:
        raise ValueError("s must be >= 0")
    return _linear_product((shift - i, 1) for i in range(s)), math.factorial(s)


@functools.lru_cache(maxsize=None)
def pair_binomial_poly(s: int) -> IntPoly:
    """C(x, s) * C(x+s, s), the building block of s_n, cc1 and the telescoping sum."""
    if s < 0:
        raise ValueError("s must be >= 0")
    factors = ((-i * (s - i), s - 2 * i, 1) for i in range(s))
    return _linear_product(factors), math.factorial(s) ** 2


@functools.lru_cache(maxsize=None)
def d_poly(n: int) -> IntPoly:
    """d_n as a polynomial in x (degree n)."""
    if n < 0:
        raise ValueError("n must be >= 0")
    terms = ((math.comb(n, k) * 2**k, shifted_binomial_poly(0, k)) for k in range(n + 1))
    return poly_sum(terms, math.factorial(n))


@functools.lru_cache(maxsize=None)
def s_poly(n: int) -> IntPoly:
    """s_n as a polynomial in x (degree 2n)."""
    if n < 0:
        raise ValueError("n must be >= 0")
    terms = ((math.comb(n, k), pair_binomial_poly(k)) for k in range(n + 1))
    return poly_sum(terms, math.factorial(n) ** 2)


@functools.lru_cache(maxsize=None)
def f_poly(k: int) -> IntPoly:
    """f_k(x) = sum_{j<=k} sum_{i<=j} C(x+j, k+j) C(x,i) C(k,j) C(j,i) 2^i.

    The sum over i is d_j(x). Integer-valued for every k; these interpolate
    d_n * s_n against the Schmidt weights: sum_k C(n+k,2k) C(2k,k) f_k = d_n * s_n.
    """
    if k < 0:
        raise ValueError("k must be >= 0")
    terms = (
        (math.comb(k, j), poly_mul(shifted_binomial_poly(j, k + j), d_poly(j)))
        for j in range(k + 1)
    )
    return poly_sum(terms, math.factorial(2 * k) * math.factorial(k))
