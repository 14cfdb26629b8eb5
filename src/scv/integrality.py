"""Integer-valuedness of the averaged d^m s^m sums and Schmidt-power divisibility.

For integer t, d_k(t) and s_k(t) are integers, so the sum
V(t) = sum_{k<n} eps^k (2k+1) (d_k(t) s_k(t))^m is tabulated in plain int
arithmetic at t = 0..D+1, D = 3(n-1)m being its degree bound; the integer
column s_0(t)..s_{n-1}(t), read off the recurrence of sequences.s_series, is
cached per (t, n), so a grid builds it once for all its m and eps. The
forward differences of V at 0 are its binomial-basis coefficients, and V/n
is integer-valued iff each of them is divisible by n; a nonzero (D+1)-th
difference would mean the bound is wrong and raises.

The Schmidt power sum sum_{k<n} eps^k (2k+1) S_k(x_0..x_k)^m is checked over
indeterminates, which is stronger than any specialization: each coefficient
comes from the multinomial theorem, and the monomial count C(n+m-1, m) is
checked against TERM_LIMIT before any is computed.
"""

from __future__ import annotations

import functools
import math
from itertools import combinations_with_replacement, islice
from typing import Iterator

from .congruences import CheckResult
from .exact_arith import _int_str, coefficients_str
from .sequences import s_series, schmidt_coefficient

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
def _s_column(t: int, kmax: int) -> tuple[int, ...]:
    """[s_0(t), ..., s_kmax(t)] at an integer t: each S_k of s_series over k!^2, exactly."""
    out = []
    for k, sk in enumerate(islice(s_series(t), kmax + 1)):
        s, r = divmod(sk, math.factorial(k) ** 2)
        if r:
            raise ArithmeticError(f"s_{k}({t}) is not an integer")
        out.append(s)
    return tuple(out)


def _v_values(n: int, m: int, eps: int, tmax: int) -> list[int]:
    """V(t) = sum_{k<n} eps^k (2k+1) (d_k(t) s_k(t))^m for t = 0..tmax."""
    columns = [_s_column(t, n - 1) for t in range(tmax + 1)]
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


def verify_integer_valued(n: int, m: int, eps: int) -> CheckResult:
    """Binomial-basis criterion on V/n; witness is the coefficient list."""
    _require_point(n, m, eps)
    bound = degree_bound(n, m)
    vals = _v_values(n, m, eps, bound + 1)
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
