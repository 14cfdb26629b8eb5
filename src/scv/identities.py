"""Exact polynomial and integer identities behind the congruence chain.

Polynomial identities (cc1, telescope, bb2) are decided by canonical
coefficient equality, never by sampling: each side is an integer coefficient
list over one known denominator (scv.poly, which only these three checks
load), printed by exact_arith.coefficients_str as its reduced coefficients.
Reduced fractions print canonically, so the two printed sides are equal iff
the polynomials are.

The two sides of the double/triple-sum identity (bb4) are exact integers
from factored forms: the double sum is d_n(m) s_n(m), and the triple sum is
sum_k C(n+k,2k) C(2k,k) f_k(m). The pairs (d_j(m), s_j(m)) come from
sequences.ds_pairs, one cached column per m shared with the integer-valued
checks, and the rest from integer rows cached once per index:

    C(n, .)           the binomial row of n
    Schmidt row of n  C(n+k,2k) C(2k,k) for k = 0..n
    f row of m        f_0(m), f_1(m), ... from the Delannoy values d_j(m), a
                      sequences.column_reader column read to k <= min(m, n)

so the lhs is the product of the pair at (m, n) and the rhs is the Schmidt
row of n dotted with the f row of m. Each side at one n is a column in m,
so a recurrence residual reads five consecutive values of it. The order-4
recurrence certifying both sides is stored as data (per-coefficient tables
of (m-exponent, n-exponent, integer) triples), proved once by the tests
rather than at every run:
tests/test_identities.py shows on full degree grids (tests/certificates.py)
that each table equals its factored form, and that for every
n <= sweeps.BB4_N_MAX each side's residual, of degree <= 3n + 6 in m,
vanishes at m = 0..3n+6 and so at every m >= 0.
"""

from __future__ import annotations

import functools
import math
from collections.abc import Iterator
from itertools import count, repeat
from operator import itemgetter, mul

from .exact_arith import coefficients_str, rat_str
from .report import CheckResult, exact_result
from .sequences import column_reader, ds_pairs, ds_value, schmidt_coefficient


def _cc1_weight(j: int, k: int, s: int) -> int:
    return math.comb(j + k, s) * math.comb(s, j) * math.comb(s, k)


def check_cc1(j: int, k: int) -> CheckResult:
    """C(x,k)C(x+k,k) C(x,j)C(x+j,j) == sum_s C(j+k,s) C(s,j) C(s,k) C(x,s)C(x+s,s).

    An exact identity of degree-2(j+k) polynomials in x; the rhs is built
    over ((j+k)!)^2, which clears every C(x,s)C(x+s,s) with s <= j+k.
    """
    if j < 0 or k < 0:
        raise ValueError("j, k must be >= 0")
    from .poly import pair_binomial_poly, poly_mul, poly_sum
    top = j + k
    lhs = poly_mul(pair_binomial_poly(k), pair_binomial_poly(j))
    rhs = poly_sum(
        ((_cc1_weight(j, k, s), pair_binomial_poly(s)) for s in range(top + 1)),
        math.factorial(top) ** 2,
    )
    return exact_result("cc1", {"j": j, "k": k}, coefficients_str(*lhs), coefficients_str(*rhs))


def check_cc4(k: int, s: int) -> CheckResult:
    """sum_{j<=k} C(2k,j+k) C(j+k,s) C(s,j) == C(2k,s) C(2k,k), by Chu-Vandermonde."""
    if k < 0 or not 0 <= s <= 2 * k:
        raise ValueError(f"need 0 <= s <= 2k, got k={k}, s={s}")
    lhs = sum(
        math.comb(2 * k, j + k) * math.comb(j + k, s) * math.comb(s, j)
        for j in range(k + 1)
    )
    rhs = math.comb(2 * k, s) * math.comb(2 * k, k)
    return exact_result("cc4", {"k": k, "s": s}, lhs, rhs)


def check_liu26(s: int) -> CheckResult:
    """sum_{k<=s} (-1)^k/(k+1) C(2k,s) C(s,k) == (-1)^s, exactly, over (s+1)!."""
    if s < 0:
        raise ValueError("s must be >= 0")
    den = math.factorial(s + 1)  # 1/(k+1) = ((s+1)!/(k+1)) / (s+1)! for k <= s
    total = sum(
        (-1) ** k * (den // (k + 1)) * math.comb(2 * k, s) * math.comb(s, k)
        for k in range(s + 1)
    )
    return exact_result("liu26", {"s": s}, rat_str(total, den), str((-1) ** s))


def check_telescope(n: int) -> CheckResult:
    """Closed form of the alternating partial sums of C(x,s)C(x+s,s)/(s+1).

    Verifies the denominator-cleared identity
        x(x+1) * sum_{s<n} (-1)^s/(s+1) C(x,s) C(x+s,s)
            == n (-1)^(n+1) C(x,n) C(x+n,n)
    by coefficient equality; the partial sum is built over n! (n-1)! with int
    weights (-1)^s n!/(s+1), n! times too large, so the lhs factor is x(x+1)/n!.
    It carries x(x+1), so equality also shows that the rhs is divisible by it.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    from .poly import pair_binomial_poly, poly_mul, poly_sum
    partial = poly_sum(
        (((-1) ** s * math.factorial(n) // (s + 1), pair_binomial_poly(s)) for s in range(n)),
        math.factorial(n) * math.factorial(n - 1),
    )
    lhs = poly_mul(((0, 1, 1), math.factorial(n)), partial)
    rhs = poly_sum([(n * (-1) ** (n + 1), pair_binomial_poly(n))], math.factorial(n) ** 2)
    return exact_result("telescope", {"n": n}, coefficients_str(*lhs), coefficients_str(*rhs))


def check_bb2(n: int) -> CheckResult:
    """d_n * s_n == sum_{k<=n} C(n+k,2k) C(2k,k) f_k as degree-3n polynomials.

    The lhs is over n!^3 and the rhs over (2n)! n!, which clears every f_k
    with k <= n.
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    from .poly import d_poly, f_poly, poly_mul, poly_sum, s_poly
    lhs = poly_mul(d_poly(n), s_poly(n))
    rhs = poly_sum(
        ((schmidt_coefficient(n, k), f_poly(k)) for k in range(n + 1)),
        math.factorial(2 * n) * math.factorial(n),
    )
    return exact_result("bb2", {"n": n}, coefficients_str(*lhs), coefficients_str(*rhs))


SIDES = ("lhs", "rhs")


@functools.lru_cache(maxsize=None)
def _binomial_row(n: int) -> tuple[int, ...]:
    """C(n, 0), ..., C(n, n)."""
    return tuple(map(math.comb, repeat(n), range(n + 1)))


@functools.lru_cache(maxsize=None)
def _schmidt_row(n: int) -> tuple[int, ...]:
    """The Schmidt weights C(n+k,2k) C(2k,k) for k = 0..n."""
    return tuple(map(schmidt_coefficient, repeat(n), range(n + 1)))


@column_reader
def _f_values(m: int) -> Iterator[int]:
    """f_k(m) = sum_{j<=k} C(m+j,k+j) C(k,j) d_j(m) for k = 0, 1, ...

    The Delannoy values d_j(m) are read off sequences.ds_pairs at m; f_k(m) = 0
    for k > m, since C(m+j,k+j) vanishes.
    """
    for k in count():
        delannoy = map(itemgetter(0), ds_pairs(m, k + 1))
        yield sum(map(mul, map(mul, _binomial_row(k), delannoy),
                      map(math.comb, range(m, m + k + 1), range(k, 2 * k + 1))))


def _side_value(side: str, m: int, n: int) -> int:
    if side == "lhs":
        return math.prod(ds_value(m, n))
    return sum(map(mul, _schmidt_row(n), _f_values(m, min(m, n) + 1)))


def eval_bb4_side(side: str, m: int, n: int) -> int:
    """One side of the double/triple binomial sum identity.

    lhs: sum_{i,j<=m} C(n,i) C(m,i) C(n,j) C(m,j) C(m+j,j) 2^i
    rhs: sum_{k,j,i<=m} C(n+k,2k) C(2k,k) C(m+j,k+j) C(m,i) C(k,j) C(j,i) 2^i

    Both are evaluated in factored form (see the module docstring). The lhs
    separates into the product d_n(m) s_n(m) of two single sums over
    i, j <= min(m, n), read off the column of sequences.ds_value at m. In
    the rhs the sum over i is the Delannoy number d_j(m) and the sum over j
    is f_k(m), so rhs = sum_{k<=min(m,n)} C(n+k,2k) C(2k,k) f_k(m), a dot
    product that stops at the shorter row, where the terms beyond it vanish.
    Only the one point is evaluated and no side value is kept; the checks
    read the sides through _side_values instead. tests/oracles.py evaluates
    the sums as written, and the tests require equal values.
    """
    if side not in SIDES:
        raise ValueError(f"side must be one of {SIDES}")
    if m < 0 or n < 0:
        raise ValueError("m, n must be >= 0")
    return _side_value(side, m, n)


@column_reader
def _side_values(key: tuple[str, int]) -> Iterator[int]:
    """One side of bb4 at one n, at m = 0, 1, ...: the column the checks read."""
    side, n = key
    return map(_side_value, repeat(side), count(), repeat(n))


def _side_column(side: str, m: int, n: int, width: int) -> list[int]:
    """The column of one side at n, read to at least m + width values."""
    if side not in SIDES:
        raise ValueError(f"side must be one of {SIDES}")
    if m < 0 or n < 0:
        raise ValueError("m, n must be >= 0")
    return _side_values((side, n), m + width)


def _bb4_sides_equal(name: str, m: int, n: int) -> CheckResult:
    return exact_result(name, {"m": m, "n": n}, _side_column("lhs", m, n, 1)[m],
                        _side_column("rhs", m, n, 1)[m])


def check_bb4_direct(m: int, n: int) -> CheckResult:
    """Direct integer equality of the two sides at one (m, n)."""
    return _bb4_sides_equal("bb4-direct", m, n)


# Expanded coefficient tables of the shared order-4 recurrence
#   c0 A_m + c1 A_{m+1} + c2 A_{m+2} + c3 A_{m+3} + c4 A_{m+4} = 0,
# one (m-exponent, n-exponent, coefficient) triple per monomial.  In factored
# form: c0 = (m+1)^3 (m+2)(3m^2+18m+26), c4 = (m+3)(m+4)^3 (3m^2+12m+11), and
# c1/c2/c3 are the long middle coefficients, quadratic in n.
_RECURRENCE_TRIPLES: tuple[tuple[tuple[int, int, int], ...], ...] = (
    (
        (0, 0, 52), (1, 0, 218), (2, 0, 366), (3, 0, 313), (4, 0, 143),
        (5, 0, 33), (6, 0, 3),
    ),
    (
        (0, 0, -164), (0, 1, -624), (0, 2, -624), (1, 0, -302), (1, 1, -1160),
        (1, 2, -1160), (2, 0, -202), (2, 1, -784), (2, 2, -784), (3, 0, -58),
        (3, 1, -228), (3, 2, -228), (4, 0, -6), (4, 1, -24), (4, 2, -24),
    ),
    (
        (0, 0, -1796), (0, 1, -1956), (0, 2, -1956), (1, 0, -4140),
        (1, 1, -3440), (1, 2, -3440), (2, 0, -3928), (2, 1, -2188),
        (2, 2, -2188), (3, 0, -1990), (3, 1, -600), (3, 2, -600),
        (4, 0, -574), (4, 1, -60), (4, 2, -60), (5, 0, -90), (6, 0, -6),
    ),
    (
        (0, 0, -204), (0, 1, -924), (0, 2, -924), (1, 0, -368), (1, 1, -1580),
        (1, 2, -1580), (2, 0, -232), (2, 1, -964), (2, 2, -964), (3, 0, -62),
        (3, 1, -252), (3, 2, -252), (4, 0, -6), (4, 1, -24), (4, 2, -24),
    ),
    (
        (0, 0, 2112), (1, 0, 4592), (2, 0, 3996), (3, 0, 1797), (4, 0, 443),
        (5, 0, 57), (6, 0, 3),
    ),
)


@functools.lru_cache(maxsize=None)
def _coefficients_in_n(m: int) -> tuple[tuple[int, ...], ...]:
    """Each coefficient at m as its coefficients in n: sum_e c m^e for each n-exponent.

    The tables stay the only data; they collapse once per m, so each (m, n)
    then takes five Horner evaluations in n.
    """
    out = []
    for table in _RECURRENCE_TRIPLES:
        in_n = [0] * (1 + max(en for _, en, _ in table))
        for em, en, c in table:
            in_n[en] += c * m**em
        out.append(tuple(in_n))
    return tuple(out)


@functools.lru_cache(maxsize=1)  # the grid checks both sides of one (m, n) in turn
def recurrence_coefficients(m: int, n: int) -> tuple[int, ...]:
    """(c0, ..., c4) at (m, n)."""
    out = []
    for in_n in _coefficients_in_n(m):
        value = 0
        for a in reversed(in_n):
            value = value * n + a
        out.append(value)
    return tuple(out)


def recurrence_residual(side: str, m: int, n: int) -> int:
    """c0 A_m + c1 A_{m+1} + c2 A_{m+2} + c3 A_{m+3} + c4 A_{m+4} on one side at (m, n)."""
    return sum(map(mul, recurrence_coefficients(m, n), _side_column(side, m, n, 5)[m:m + 5]))


def check_bb4_recurrence(side: str, m: int, n: int) -> CheckResult:
    """Residual of the order-4 recurrence on one side at (m, n); must be exactly 0.

    Each side is a polynomial of degree 3n in m and each coefficient one of
    degree <= 6, so at fixed n the residual has degree <= 3n + 6 in m.
    tests/test_identities.py proves it zero at m = 0..3n+6, hence at every
    m >= 0, for each n <= sweeps.BB4_N_MAX, and proves that the leading
    coefficient c4 = (m+3)(m+4)^3 (3m^2+12m+11) is positive there.
    """
    return exact_result("bb4-recurrence", {"side": side, "m": m, "n": n},
                        recurrence_residual(side, m, n), 0)


def check_bb4_initial(m: int, n: int) -> CheckResult:
    """Agreement of the two sides at a small m, seeding the recurrence argument."""
    if not 0 <= m <= 3:
        raise ValueError("initial values are the rows m = 0..3")
    return _bb4_sides_equal("bb4-initial", m, n)
