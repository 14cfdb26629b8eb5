"""Number families used by the verifiers, evaluated at one rational point.

Definitions (all exact over Rat):

    d_n(x)          sum_k C(n,k) C(x,k) 2^k          (degree n)
    s_n(x)          sum_k C(n,k) C(x,k) C(x+k,k)     (degree 2n)
    S_n(x_0..x_n)   sum_k C(n+k,2k) C(2k,k) x_k      (linear form)
    t_k(a)          (a)_k (1-a)_k / (1)_k^2          (the rv terms)

s_series, the one s_n kernel, runs the certified three-term recurrence of
s_n at O(1) int operations per step.

Most congruence sides are partial sums sum_{k<N} of a series that does not
depend on p. A PrefixWalk walks such a series forward once per point and
gives each exact prefix sum as (numerator, denominator) ints: term k is an
int over D_k, with D_k = r_k D_{k-1} for an integer r_k known in advance,
so no term is ever reduced to a Fraction, and a check decides on that
unreduced pair as it is. rv_walk, s_square_walk and bb1_walk are the
cached per-point walks; cache_clear() on them drops every cursor. A side
whose terms carry p-dependent weights is one weighted_sum pass over the
same series, on the same unreduced pairs. The same families as
polynomials in x are in scv.poly, which the congruence checks never load.
"""

from __future__ import annotations

import functools
import math
from collections.abc import Callable, Iterable, Iterator
from fractions import Fraction
from itertools import count
from typing import NamedTuple

from .exact_arith import Rat


class PrefixWalk:
    """A cursor over the exact prefix sums of one p-independent series.

    `series()` yields the pairs (r_k, m_k) for k = 0, 1, ...: term k is
    m_k / D_k with D_k = r_k D_{k-1} and D_{-1} = 1. The cursor keeps only
    the frontier: the running generator, the sum to N over D_{N-1} and N.
    prefix(n) advances to n; an n below the frontier restarts the series
    from k = 0, so a value never depends on the order of the requests.
    `starts` counts the times the series began.
    """

    def __init__(self, series: Callable[[], Iterator[tuple[int, int]]]) -> None:
        self._series = series
        self.starts = 0
        self._restart()

    def _restart(self) -> None:
        self._terms = self._series()
        self._n, self._total, self._den = 0, 0, 1
        self.starts += 1

    def prefix(self, n: int) -> tuple[int, int]:
        """(numerator, denominator) of the sum of the first n terms."""
        if n < 0:
            raise ValueError(f"n = {n} is negative")
        if n < self._n:
            self._restart()
        total, den = self._total, self._den
        for _ in range(n - self._n):
            r, m = next(self._terms)
            total, den = total * r + m, den * r
        self._n, self._total, self._den = n, total, den
        return total, den


def weighted_sum(weights: Iterable[int], series: Iterator[tuple[int, int]]) -> tuple[int, int]:
    """(numerator, denominator) of sum_k w_k m_k / D_k over D_{n-1}, n = len(weights).

    `series` yields the pairs (r_k, m_k) of a PrefixWalk series; exactly one
    is taken per weight, and no weights give (0, 1). This is one pass for a
    window whose weights depend on p, where a walk's prefix cannot serve.
    """
    total, den = 0, 1
    for w, (r, m) in zip(weights, series):
        total, den = total * r + w * m, den * r
    return total, den


def rv_series(a: Rat) -> Iterator[tuple[int, int]]:
    """The terms (a)_k (1-a)_k / (1)_k^2 at a = n/q, over D_k = q^{2k} k!^2.

    The numerator of term k+1 is that of term k times (n+kq)(q-n+kq).
    """
    a = Fraction(a)
    n, q = a.numerator, a.denominator
    yield 1, 1
    m = 1
    for k in count():
        m *= (n + k * q) * (q - n + k * q)
        yield ((k + 1) * q) ** 2, m


def s_series(x: Rat | int) -> Iterator[int]:
    """The integers S_k = s_k(x) b^{2k} k!^2 at x = a/b, for k = 0, 1, ...

    (k+1)^2 s_{k+1} = A(k) s_k - k^2 s_{k-1} with A(k) = 2k^2 + 2k + 1 + x(x+1),
    a recurrence whose certificate tests/test_s_recurrence.py checks.
    """
    x = Fraction(x)
    a, b = x.numerator, x.denominator
    prev, cur, c, b2 = 0, 1, a * (a + b), b * b
    for k in count():
        yield cur
        prev, cur = cur, (b2 * (2 * k * k + 2 * k + 1) + c) * cur - (k * b) ** 4 * prev


def s_square_series(x: Rat) -> Iterator[tuple[int, int]]:
    """The terms (2k+1) s_k(x)^2 over D_k^2, D_k = b^{2k} k!^2 at x = a/b: s_k D_k is S_k."""
    b = Fraction(x).denominator
    for k, s in enumerate(s_series(x)):
        yield (k * b) ** 4 if k else 1, (2 * k + 1) * s * s


def bb1_series(x: Rat) -> Iterator[tuple[int, int]]:
    """The terms (-1)^k/(k+1) C(x+k,2k) sum_{j<=k} C(x,j) C(x+j,j) C(2k,j+k) at x = a/b.

    The pair binomials C(x,j) C(x+j,j) are numerators U_j over D_k =
    b^{2k} k!^2, the row rescaled each step, and C(x+k,2k) = U_k / E_k with
    E_k = b^{2k} (2k)!, so term k is over (k+1)! E_k D_k and each inner sum
    is taken once.
    """
    x = Fraction(x)
    a, b = x.numerator, x.denominator
    u, fact, row, r = 1, 1, [], 1
    for k in count():
        if k:
            s = (k * b) ** 2
            row = [v * s for v in row]
            u *= (a - (k - 1) * b) * (a + k * b)
            fact *= k
            r = (k + 1) * 2 * k * (2 * k - 1) * b * b * s
        row.append(u)
        inner = sum(v * math.comb(2 * k, j + k) for j, v in enumerate(row))
        yield r, (-1) ** k * fact * u * inner


# A grid reads at most four points in turn (cc interleaves its x values), so
# eight cursors per series keep every walk a grid needs; an evicted point
# only restarts, and the frontiers held stay bounded however many --x points.
@functools.lru_cache(maxsize=8)
def rv_walk(a: Rat) -> PrefixWalk:
    return PrefixWalk(functools.partial(rv_series, a))


@functools.lru_cache(maxsize=8)
def s_square_walk(x: Rat) -> PrefixWalk:
    return PrefixWalk(functools.partial(s_square_series, x))


@functools.lru_cache(maxsize=8)
def bb1_walk(x: Rat) -> PrefixWalk:
    return PrefixWalk(functools.partial(bb1_series, x))


def schmidt_coefficient(n: int, k: int) -> int:
    """Weight C(n+k, 2k) * C(2k, k) of x_k in the linear Schmidt form."""
    return math.comb(n + k, 2 * k) * math.comb(2 * k, k)


class RVFamily(NamedTuple):
    """One of the four hypergeometric families with its sweep constants.

    a is the hypergeometric parameter, discriminant the Legendre-symbol
    argument, lemma2_constant the mod-p^2 constant for sums to 2p-1, sun_x
    the evaluation point for the weighted s_k^2 sums and sun_constant their
    mod-p^4 constant (times the Legendre symbol times p^2).
    """

    a: Fraction
    discriminant: int
    lemma2_constant: Fraction
    sun_x: Fraction
    sun_constant: Fraction


# keyed by the family label that the sweep tasks and the reports print
RV_FAMILIES: dict[str, RVFamily] = {
    "1/2": RVFamily(Fraction(1, 2), -1, Fraction(5, 4), Fraction(-1, 2), Fraction(3, 4)),
    "1/3": RVFamily(Fraction(1, 3), -3, Fraction(11, 9), Fraction(-1, 3), Fraction(7, 9)),
    "1/4": RVFamily(Fraction(1, 4), -2, Fraction(19, 16), Fraction(-1, 4), Fraction(13, 16)),
    "1/6": RVFamily(Fraction(1, 6), -1, Fraction(41, 36), Fraction(-1, 6), Fraction(31, 36)),
}
