"""Exact rationals as int pairs, p-adic valuation and congruence, primes.

ratio, the one parser, makes a rational point its reduced int pair. The
verifiers build every side as an int or an unreduced (numerator,
denominator) int pair, and pair_valuation, pair_congruent and pair_residue
decide and witness on those pairs directly, with no gcd. Congruence is
valuation-based so it stays meaningful for rationals whose individual terms
are not p-adic integers. rat_str and coefficients_str are the one place where
an exact value becomes text, exact whatever the int-string digit limit.
"""

from __future__ import annotations

import math
from collections.abc import Sequence

# A congruence side: the unreduced (numerator, denominator) ints of a rational.
Pair = tuple[int, int]
# A rational point as ratio reads it: an int, an (a, b) pair or "a"/"a/b" text.
Point = int | Pair | str


class InvalidPrime(ValueError):
    """Raised when an argument required to be (an odd) prime is not."""


def _int_str(n: int | str) -> str:
    try:  # str() refuses an int of more than sys.get_int_max_str_digits() digits
        return str(n)
    except ValueError:  # split near half its digits: log10(2) > 0.3, so 10^k < |n|
        hi, lo = divmod(abs(n), 10 ** (k := n.bit_length() * 3 // 20))
        return "-" * (n < 0) + _int_str(hi) + _int_str(lo).zfill(k)


def ratio(x: Point) -> Pair:
    """The reduced (num, den), den > 0, of an int, (a, b) or "a"/"a/b" text.

    Any other x is read off its .numerator and .denominator, so a Fraction works too.
    """
    if isinstance(x, str):  # each part read by int()
        x = tuple(map(int, x.split("/", 1))) if "/" in x else (int(x), 1)
    num, den = x if isinstance(x, tuple) else (x.numerator, x.denominator)
    if not den:
        raise ZeroDivisionError("zero denominator")
    g = math.gcd(num, den) if den > 0 else -math.gcd(num, den)
    return num // g, den // g


def rat_str(num: int, den: int = 1) -> str:
    """The reduced 'a/b' (or plain 'a') of an int or Fraction num over den, exact at any size."""
    num, den = ratio((num.numerator, num.denominator * den))
    return _int_str(num) if den == 1 else f"{_int_str(num)}/{_int_str(den)}"


def coefficients_str(nums: Sequence[int], den: int) -> str:
    """The list "[c0, c1, ...]" of each int nums[i] over the int den > 0 as rat_str prints it,
    reduced by one gcd, trailing zeros dropped."""
    top = len(nums)
    while top and not nums[top - 1]:
        top -= 1
    items = []
    for c in nums[:top]:
        g = math.gcd(c, den)
        items.append(_int_str(c // g) + ("" if g == den else "/" + _int_str(den // g)))
    return "[" + ", ".join(items) + "]"


def is_prime(n: int) -> bool:
    """Deterministic primality by trial division; intended for desk scale (n <= scv.PRIME_LIMIT)."""
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    d = 3
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
    return True


def primes_in_range(lo: int, hi: int) -> list[int]:
    """Ascending primes p with lo <= p <= hi."""
    if lo > hi:
        raise ValueError(f"empty range: lo={lo} > hi={hi}")
    if hi < 2:
        return []
    sieve = bytearray([1]) * (hi + 1)
    sieve[0:2] = b"\x00\x00"
    for p in range(2, math.isqrt(hi) + 1):
        if sieve[p]:
            sieve[p * p :: p] = b"\x00" * ((hi - p * p) // p + 1)
    return [n for n in range(max(lo, 2), hi + 1) if sieve[n]]


def _int_valuation(n: int, p: int) -> int:
    # v_p(n) for n != 0 and p >= 2; n = 0 is always a pair's denominator here
    if n == 0:
        raise ZeroDivisionError("the denominator of a pair is 0")
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v


class PAdicContext:
    """A prime p together with an exponent k, defining congruence mod p^k."""

    __slots__ = ("p", "k")

    def __init__(self, p: int, k: int) -> None:
        if not is_prime(p):
            raise InvalidPrime(f"p = {p} is not prime")
        if k < 1:
            raise ValueError(f"exponent k must be >= 1, got {k}")
        self.p, self.k = p, k

    @property
    def modulus(self) -> int:
        return self.p**self.k

    def __str__(self) -> str:
        return f"{self.p}^{self.k}"


def pair_valuation(num: int, den: int, p: int | PAdicContext) -> int | float:
    """v_p(num/den) = v_p(num) - v_p(den) for an unreduced pair; +infinity for num = 0.

    p is a prime, which is tested, or the PAdicContext of a prime already tested.
    """
    p = (p if isinstance(p, PAdicContext) else PAdicContext(p, 1)).p
    v = _int_valuation(den, p)
    return math.inf if num == 0 else _int_valuation(num, p) - v


def pair_residue(num: int, den: int, ctx: PAdicContext) -> int | None:
    """num/den mod p^k in [0, p^k) for an unreduced pair; None if it is not a p-adic integer.

    p^{v_p(den)} is stripped from both num and den, and the p-free den is
    inverted mod p^k; a num that does not take that power leaves a p in
    the reduced denominator.
    """
    strip = ctx.p ** _int_valuation(den, ctx.p)
    num, rem = divmod(num, strip)
    if rem:
        return None
    m = ctx.modulus
    return num % m * pow(den // strip, -1, m) % m


def pair_congruent(lhs: Pair, rhs: Pair, ctx: PAdicContext) -> bool:
    """True iff v_p(a/b - c/d) >= k for the unreduced pairs (a, b) and (c, d).

    That is p^{k + v_p(b d)} | a d - c b: one remainder, no valuation of the
    difference.
    """
    (a, b), (c, d) = lhs, rhs
    p = ctx.p
    return (a * d - c * b) % p ** (ctx.k + _int_valuation(b, p) + _int_valuation(d, p)) == 0

