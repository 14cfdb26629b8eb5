"""Integer-valuedness of the averaged d^m s^m sums and Schmidt-power divisibility.

The averaged expression (1/n) sum_{k<n} eps^k (2k+1) d_k(x)^m s_k(x)^m is
decided integer-valued through the binomial-basis criterion; divisibility of
the Schmidt power sums is checked over indeterminates, which is stronger than
any specialization.  A cross check specializes x_k to f_k(t) and confirms the
two computations agree at small integer points.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from fractions import Fraction

from .congruences import CheckResult
from .exact_arith import Rat
from .poly import MultiPoly, UniPoly, is_integer_valued, newton_coefficients
from .sequences import d_poly, f_poly, s_poly, schmidt_linear_form


@dataclass(frozen=True)
class IntegralityParams:
    """Grid point (n, m, epsilon) with n, m >= 1 and epsilon = +-1."""

    n: int
    m: int
    epsilon: int

    def __post_init__(self) -> None:
        if self.n < 1 or self.m < 1:
            raise ValueError(f"n and m must be >= 1, got n={self.n}, m={self.m}")
        if self.epsilon not in (1, -1):
            raise ValueError(f"epsilon must be +1 or -1, got {self.epsilon}")

    def as_parameters(self) -> dict[str, object]:
        return {"n": self.n, "m": self.m, "eps": self.epsilon}


@functools.lru_cache(maxsize=None)
def _ds_power(k: int, m: int) -> UniPoly:
    # (d_k * s_k)^m, degree 3km
    return (d_poly(k) * s_poly(k)) ** m


def sun_guo_expr(params: IntegralityParams) -> UniPoly:
    """(1/n) sum_{k<n} eps^k (2k+1) (d_k s_k)^m; degree 3(n-1)m for n >= 2."""
    acc = UniPoly.zero()
    for k in range(params.n):
        acc = acc + _ds_power(k, params.m).scale(params.epsilon**k * (2 * k + 1))
    return acc.scale(Fraction(1, params.n))


def verify_integer_valued(params: IntegralityParams) -> CheckResult:
    """Binomial-basis criterion on sun_guo_expr; witness is the coefficient list."""
    expansion = newton_coefficients(sun_guo_expr(params))
    coeffs = expansion.coefficients
    return CheckResult(
        check_name="integer-valued",
        parameters=params.as_parameters(),
        passed=expansion.all_integers(),
        lhs_witness="[" + ", ".join(
            str(c.numerator) if c.denominator == 1 else str(c) for c in coeffs
        ) + "]",
        rhs_witness="all integers",
        modulus="exact",
    )


def schmidt_power_sum(n: int, m: int, epsilon: int) -> MultiPoly:
    """sum_{k<n} eps^k (2k+1) S_k(x_0..x_k)^m in the n variables x_0..x_{n-1}."""
    params = IntegralityParams(n, m, epsilon)
    acc = MultiPoly.zero(n)
    for k in range(params.n):
        form = schmidt_linear_form(k, arity=n)
        acc = acc + (form**m).scale(params.epsilon**k * (2 * k + 1))
    return acc


def verify_schmidt_divisibility(n: int, m: int, epsilon: int) -> CheckResult:
    """Every coefficient of the Schmidt power sum is an integer multiple of n."""
    poly = schmidt_power_sum(n, m, epsilon)
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
        parameters=IntegralityParams(n, m, epsilon).as_parameters(),
        passed=violating is None,
        lhs_witness=lhs,
        rhs_witness=f"multiples of {n}",
        modulus=f"{n}",
    )


def crosscheck_specialization(
    n: int, m: int, epsilon: int, points: tuple[int, ...] = (-3, -2, -1, 0, 1, 2, 3)
) -> CheckResult:
    """Substituting x_k = f_k(t) into the Schmidt power sum recovers n * sun_guo_expr(t).

    Exercises the deduction chain from coefficient divisibility to
    integer-valuedness at small integer points t.
    """
    params = IntegralityParams(n, m, epsilon)
    power_sum = schmidt_power_sum(n, m, epsilon)
    averaged = sun_guo_expr(params)
    f_at: list[UniPoly] = [f_poly(k) for k in range(n)]
    lhs_vals: list[Rat] = []
    rhs_vals: list[Rat] = []
    for t in points:
        lhs_vals.append(power_sum.eval([fk.eval(t) for fk in f_at]))
        rhs_vals.append(n * averaged.eval(t))
    return CheckResult(
        check_name="integrality-crosscheck",
        parameters={**params.as_parameters(), "t": ",".join(str(t) for t in points)},
        passed=lhs_vals == rhs_vals,
        lhs_witness="[" + ", ".join(str(v) for v in lhs_vals) + "]",
        rhs_witness="[" + ", ".join(str(v) for v in rhs_vals) + "]",
        modulus="exact",
    )
