"""Number families used by the verifiers, evaluated at one rational point.

Definitions (exact at a point that exact_arith.ratio reads as an int pair):

    d_n(x)          sum_k C(n,k) C(x,k) 2^k          (degree n)
    s_n(x)          sum_k C(n,k) C(x,k) C(x+k,k)     (degree 2n)
    S_n(x_0..x_n)   sum_k C(n+k,2k) C(2k,k) x_k      (linear form)
    t_k(a)          (a)_k (1-a)_k / (1)_k^2          (the rv terms)

s_series, the one s_n kernel, runs the certified three-term recurrence of
s_n at O(1) int operations per step. column_reader caches the exact integer
rows per key, grown as far as any caller has read: ds_pairs, the pairs
(d_k(t), s_k(t)) at an integer t by that recurrence and the Delannoy
recurrence in k, and over it ds_products (the bb4 lhs and the integrality
terms), the bb4 f rows and the bb4 rhs.

Most congruence sides are partial sums sum_{k<N} of a series that does not
depend on p. A PrefixWalk walks such a series forward once per point and
gives each exact prefix sum as (numerator, denominator) ints: term k is an
int over its own denominator D_k = r_k D_{k-1}, for an integer r_k known in
advance (q^{2k} k! (b)_k for the terms of rv_series(a, b)), so no term is
ever reduced, and a check decides on that unreduced pair as it is. rv_walk,
rv_divided_walk (b = 2), s_square_walk and bb1_walk are the cached
per-point walks; cache_clear() on them drops every cursor. A RowWalk sums a
series of int rows under the same rule, as the cc rows sum catalan_rows. A
side whose terms carry p-dependent weights is one weighted_sum pass over the
same series, on the same unreduced pairs. The same families as polynomials
in x are in scv.poly, which the congruence checks never load.
"""

from __future__ import annotations

import functools
import math
from collections.abc import Callable, Iterable, Iterator
from itertools import chain, count, repeat
from operator import add

from .exact_arith import Pair, Point, ratio


class PrefixWalk:
    """A cursor over the exact prefix sums of one p-independent series.

    `series()` yields the pairs (r_k, m_k) for k = 0, 1, ...: term k is
    m_k / D_k with D_k = r_k D_{k-1} and D_{-1} = 1. The cursor keeps only
    the frontier: the running generator, the sum to N over D_{N-1} and N.
    prefix(n) advances to n; the first n, an n below the frontier and any n
    after an advance that raised start the series from k = 0, so a value
    never depends on the order of the requests. `starts` counts the times
    the series began. A subclass with its own `_empty` sum and `_add` step
    sums another kind of term under the same rule.
    """

    _empty: tuple = (0, 1)

    def __init__(self, series: Callable[[], Iterator]) -> None:
        self._series, self.starts, self._n = series, 0, math.inf  # no frontier yet

    def _restart(self) -> None:
        self._terms, self._n, self._sum = self._series(), 0, self._empty
        self.starts += 1

    def _add(self, pair: tuple[int, int], n: int) -> tuple[int, int]:
        """The sum to n from the sum `pair` to the frontier."""
        total, den = pair
        terms = self._terms
        for _ in range(n - self._n):
            r, m = next(terms)
            total, den = total * r + m, den * r
        return total, den

    def prefix(self, n: int) -> tuple:
        """The sum of the first n terms: here (numerator, denominator)."""
        if n < 0:
            raise ValueError(f"n = {n} is negative")
        if n < self._n:
            self._restart()
        try:
            total = self._add(self._sum, n)
        except BaseException:
            self._n = math.inf  # the series is past the stored sum, so the next call restarts
            raise
        self._n, self._sum = n, total
        return total


class RowWalk(PrefixWalk):
    """A PrefixWalk whose term k is a tuple of ints added entry by entry from entry 0.

    The sum to N is a tuple of ints; each term must be at least as long as
    the sum before it.
    """

    _empty = ()

    def _add(self, rows: tuple[int, ...], n: int) -> tuple[int, ...]:
        terms = self._terms
        for _ in range(n - self._n):
            rows = tuple(map(add, chain(rows, repeat(0)), next(terms)))
        return rows


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


def rv_series(a: Point, b: int = 1) -> Iterator[tuple[int, int]]:
    """The terms (a)_k (1-a)_k / ((1)_k (b)_k) at a = n/q, over D_k = q^{2k} k! (b)_k.

    The numerator of term k+1 is that of term k times (n+kq)(q-n+kq), and
    D_k steps by (k+1)(k+b) q^2: at b = 1 these are the rv terms t_k(a).
    """
    n, q = ratio(a)
    yield 1, 1
    m, q2 = 1, q * q
    for k in count():
        m *= (n + k * q) * (q - n + k * q)
        yield (k + 1) * (k + b) * q2, m


def rv_divided_series(a: Point) -> Iterator[tuple[int, int]]:
    """The rv terms divided by k+1, t_k(a)/(k+1), over q^{2k} k! (k+1)!: rv_series at b = 2."""
    return rv_series(a, 2)


def catalan_rows() -> Iterator[tuple[int, ...]]:
    """k zeros, then (-1)^k Cat_k C(k, j) for j = 0..k, for k = 0, 1, ..., Cat_k = C(2k,k)/(k+1).

    Term k holds its row at entries k..2k, so a RowWalk's sum to N has entry s
    equal to sum_{k<N} (-1)^k Cat_k C(k, s-k), for s = 0..2N-2.
    """
    pascal = (1,)
    for k in count():
        catalan = (-1) ** k * (math.comb(2 * k, k) // (k + 1))
        yield (0,) * k + tuple(catalan * c for c in pascal)
        pascal = (1, *map(add, pascal, pascal[1:]), 1)


def s_series(x: Point) -> Iterator[int]:
    """The integers S_k = s_k(x) b^{2k} k!^2 at x = a/b, for k = 0, 1, ...

    (k+1)^2 s_{k+1} = A(k) s_k - k^2 s_{k-1} with A(k) = 2k^2 + 2k + 1 + x(x+1),
    a recurrence whose certificate tests/test_s_recurrence.py checks.
    """
    a, b = ratio(x)
    prev, cur, c, b2 = 0, 1, a * (a + b), b * b
    for k in count():
        yield cur
        prev, cur = cur, (b2 * (2 * k * k + 2 * k + 1) + c) * cur - (k * b) ** 4 * prev


def column_reader(series: Callable[[object], Iterator]) -> Callable[[object, int], list]:
    """Cache series per key: read(key, n) returns its values, a list grown to at least n.

    The list and the series that extends it are kept per key, so each value
    is formed once. A list grows in place, like a PrefixWalk, so two threads
    must not extend one at the same time. A series that raises is finished,
    so every list is dropped with it: the next read builds its list anew and
    raises the same error. read takes the series' name and doc, with the
    series as __wrapped__; cache_clear() drops every list, cache_info() counts reads.
    """
    cached = functools.lru_cache(maxsize=None)(lambda key: ([], series(key)))

    def read(key: object, n: int) -> list:
        values, rest = cached(key)
        try:
            while len(values) < n:
                values.append(next(rest))
        except BaseException:
            cached.cache_clear()
            raise
        return values

    functools.update_wrapper(read, series, ("__module__", "__name__", "__qualname__", "__doc__"))
    read.cache_clear, read.cache_info = cached.cache_clear, cached.cache_info
    return read


@column_reader
def ds_pairs(t: int) -> Iterator[tuple[int, int]]:
    """(d_k(t), s_k(t)) for k = 0, 1, ... at an integer t, exactly.

    s_k(t) is S_k of s_series over k!^2, and d_k(t) runs the Delannoy
    recurrence (k+1) d_{k+1} = (2t+1) d_k + k d_{k-1} from d_0 = 1.
    """
    square, before, d = 1, 0, 1
    for k, sk in enumerate(s_series(t)):
        if k:
            square *= k * k
            step, r = divmod((2 * t + 1) * d + (k - 1) * before, k)
            if r:
                raise ArithmeticError(f"d_{k}({t}) is not an integer")
            before, d = d, step
        s, r = divmod(sk, square)
        if r:
            raise ArithmeticError(f"s_{k}({t}) is not an integer")
        yield d, s


def ds_value(t: int, k: int) -> tuple[int, int]:
    """(d_k(t), s_k(t)) at integers t, k >= 0, off the ds_pairs list of t."""
    if k < 0:
        raise ValueError(f"k = {k} is negative")
    return ds_pairs(t, k + 1)[k]


@column_reader
def ds_products(k: int) -> Iterator[int]:
    """d_k(t) s_k(t) for t = 0, 1, ..., each the product of the pair ds_value(t, k)."""
    return map(math.prod, map(ds_value, count(), repeat(k)))


def s_square_series(x: Point) -> Iterator[tuple[int, int]]:
    """The terms (2k+1) s_k(x)^2 over D_k^2, D_k = b^{2k} k!^2 at x = a/b: s_k D_k is S_k."""
    b = ratio(x)[1]
    for k, s in enumerate(s_series(x)):
        yield (k * b) ** 4 if k else 1, (2 * k + 1) * s * s


def bb1_series(x: Point) -> Iterator[tuple[int, int]]:
    """The terms (-1)^k/(k+1) C(x+k,2k) sum_{j<=k} C(x,j) C(x+j,j) C(2k,j+k) at x = a/b.

    The pair binomials C(x,j) C(x+j,j) are numerators U_j over D_k =
    b^{2k} k!^2, the row rescaled each step, and C(x+k,2k) = U_k / E_k with
    E_k = b^{2k} (2k)!, so term k is over (k+1) E_k D_k and each inner sum
    is taken once.
    """
    a, b = ratio(x)
    u, row, r = 1, [], 1
    for k in count():
        if k:
            s = (k * b) ** 2
            row = [v * s for v in row]
            u *= (a - (k - 1) * b) * (a + k * b)
            r = 2 * (2 * k - 1) * (k + 1) * b * b * s
        row.append(u)
        inner = sum(v * math.comb(2 * k, j + k) for j, v in enumerate(row))
        yield r, (-1) ** k * u * inner


# One cursor per reduced pair, which every form of a point shares, kept until the run empties
# its caches: guo-bb1 goes p by p and reads every --x point at each p, so each point's walk
# starts once and only moves forward, and the frontiers held grow with the number of points.
# A check that reads a point at N = p and at N = 2p (cc9, cc10) takes a cursor for each,
# walk(x) and walk(x, 1), so that both only move forward as p rises.
def _point_walks(series: Callable[[Pair], Iterator[tuple[int, int]]]) -> Callable:
    cached = functools.lru_cache(maxsize=None)(
        lambda x, cursor: PrefixWalk(functools.partial(series, x)))

    def walk(x: Point, cursor: int = 0) -> PrefixWalk:
        return cached(ratio(x), cursor)

    walk.__qualname__ = walk.__name__ = series.__name__.replace("series", "walk")
    walk.cache_clear, walk.cache_info = cached.cache_clear, cached.cache_info
    return walk


rv_walk, rv_divided_walk, s_square_walk, bb1_walk = map(
    _point_walks, (rv_series, rv_divided_series, s_square_series, bb1_series))


def schmidt_coefficient(n: int, k: int) -> int:
    """Weight C(n+k, 2k) * C(2k, k) of x_k in the linear Schmidt form."""
    return math.comb(n + k, 2 * k) * math.comb(2 * k, k)


# a family's label, which the sweep tasks and the reports print, to its a: the label read by ratio
RV_FAMILIES: dict[str, Pair] = {s: ratio(s) for s in ("1/2", "1/3", "1/4", "1/6")}
