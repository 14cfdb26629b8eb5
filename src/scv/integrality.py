"""Integer-valuedness of the averaged d^m s^m sums and Schmidt-power divisibility.

V(t) = sum_{k<n} eps^k (2k+1) (d_k(t) s_k(t))^m is linear in its terms, so
its forward differences at 0, its binomial-basis coefficients, are
sum_{k<n} eps^k (2k+1) R_{k,m}, with R_{k,m} the forward differences at 0 of
(d_k s_k)^m over t = 0..3km+1 (3km being the degree of d_k s_k times m).
R_{k,m} is cached per (k, m), and the coefficients are the prefix to n of a
sequences.RowWalk over the rows eps^k (2k+1) R_{k,m}, kept per (m, eps),
which the grid asks for at n = 1, 2, ... in turn, so a check adds one
weighted R_{n-1,m}, D+1 multiply-adds with D = 3(n-1)m. V/n is
integer-valued iff each coefficient is divisible by n; a nonzero
(3km+1)-th difference would mean the bound is wrong and raises.
Each value d_k(t) s_k(t) is read off sequences.ds_products, the column of k
over t that the bb4 lhs reads too, so each m only raises it to its power.

The Schmidt power sum sum_{k<n} eps^k (2k+1) S_k(x_0..x_k)^m is checked over
indeterminates, which is stronger than any specialization: each coefficient
comes from the multinomial theorem, and the monomial count C(n+m-1, m) is
checked against TERM_LIMIT before any is computed.
"""

from __future__ import annotations

import functools
import math
from collections.abc import Iterator
from itertools import combinations_with_replacement, count

from .exact_arith import _int_str, coefficients_str
from .report import CheckResult
from .sequences import RowWalk, ds_products, schmidt_coefficient

# Sparse expansions are refused beyond this many monomials to keep desk-scale runs interactive.
TERM_LIMIT = 10**6


class TermLimitExceeded(RuntimeError):
    """Raised when an expansion would exceed TERM_LIMIT monomials."""


def _require_point(n: int, m: int, eps: int) -> None:
    """A grid point has n, m >= 1 and eps = +-1."""
    if n < 1 or m < 1:
        raise ValueError(f"n and m must be >= 1, got n={n}, m={m}")
    if eps not in (1, -1):
        raise ValueError(f"epsilon must be +1 or -1, got {eps}")


def degree_bound(n: int, m: int) -> int:
    """3(n-1)m: d_k s_k has degree 3k, so each term of V has degree <= 3km."""
    return 3 * (n - 1) * m


@functools.lru_cache(maxsize=None)
def _term_differences(k: int, m: int) -> tuple[int, ...]:
    """R_{k,m}: the forward differences at 0 of (d_k s_k)^m over t = 0..B+1, B = 3km.

    B is the bound of V at n = k+1, and the (B+1)-th difference must be 0.
    """
    bound = degree_bound(k + 1, m)
    vals = [v**m for v in ds_products(k, bound + 2)[: bound + 2]]
    diffs = []
    while vals:
        diffs.append(vals[0])
        vals = [b - a for a, b in zip(vals, vals[1:])]
    if diffs.pop():
        raise ArithmeticError(f"V has degree above its bound {bound}")
    return tuple(diffs)


def _weighted_differences(m: int, eps: int) -> Iterator[tuple[int, ...]]:
    """The rows eps^k (2k+1) R_{k,m} for k = 0, 1, ..., each longer than the one before."""
    for k in count():
        weight = eps**k * (2 * k + 1)
        yield tuple(weight * r for r in _term_differences(k, m))


# The grid asks for every n of one (m, eps) before the next (m, eps), so one
# walk is in use at a time; an evicted one only restarts.
@functools.lru_cache(maxsize=1)
def _coefficient_walk(m: int, eps: int) -> RowWalk:
    """The walk whose prefix(n) is sum_{k<n} eps^k (2k+1) R_{k,m}."""
    return RowWalk(functools.partial(_weighted_differences, m, eps))


def verify_integer_valued(n: int, m: int, eps: int) -> CheckResult:
    """Binomial-basis criterion on V/n; witness is the coefficient list."""
    _require_point(n, m, eps)
    coefficients = _coefficient_walk(m, eps).prefix(n)
    return CheckResult(
        check_name="integer-valued",
        parameters={"n": n, "m": m, "eps": eps},
        passed=all(c % n == 0 for c in coefficients),
        lhs_witness=coefficients_str(coefficients, n),
        rhs_witness="all integers",
        modulus="exact",
    )


def schmidt_term_count(n: int, m: int) -> int:
    """Monomials of degree m in n variables, C(n+m-1, m); raises above TERM_LIMIT."""
    count = math.comb(n + m - 1, m)
    if count > TERM_LIMIT:
        raise TermLimitExceeded(
            f"the Schmidt power sum at n={n}, m={m} has {count} monomials, above {TERM_LIMIT}"
        )
    return count


def _schmidt_coefficients(n: int, m: int, eps: int) -> Iterator[tuple[tuple[int, ...], int]]:
    """(exponent, coefficient) of each degree-m monomial of sum_{k<n} eps^k (2k+1) S_k^m.

    By the multinomial theorem the coefficient of x^e in S_k^m is
    m!/prod(e_i!) * prod(c_{k,i}^e_i), and S_k involves x_0..x_k only.
    """
    weights = [eps**k * (2 * k + 1) for k in range(n)]
    c = [[schmidt_coefficient(k, i) for i in range(k + 1)] for k in range(n)]
    fact = [math.factorial(j) for j in range(m + 1)]
    for idx in combinations_with_replacement(range(n), m):
        expo = [0] * n
        for i in idx:
            expo[i] += 1
        multinomial = fact[m]
        for e in expo:
            multinomial //= fact[e]
        total = 0
        for k in range(idx[-1], n):
            term = weights[k]
            for i in idx:
                term *= c[k][i]
            total += term
        yield tuple(expo), multinomial * total


def verify_schmidt_divisibility(n: int, m: int, eps: int) -> CheckResult:
    """Every coefficient of the Schmidt power sum is an integer multiple of n."""
    _require_point(n, m, eps)
    schmidt_term_count(n, m)
    count = 0
    violating: tuple[tuple[int, ...], int] | None = None
    for expo, c in _schmidt_coefficients(n, m, eps):
        if c:
            count += 1
            if c % n and (violating is None or expo < violating[0]):
                violating = (expo, c)
    if violating is None:
        lhs = f"all {count} coefficients divisible"
    else:
        lhs = f"monomial {violating[0]} has coefficient {_int_str(violating[1])}"
    return CheckResult(
        check_name="schmidt-divisibility",
        parameters={"n": n, "m": m, "eps": eps},
        passed=violating is None,
        lhs_witness=lhs,
        rhs_witness=f"multiples of {n}",
        modulus=f"{n}",
    )
