"""The Fraction polynomial rings, kept as the differential oracle.

The library represents a polynomial in x as integer numerators over one
known denominator (scv.poly). Here the same families are dense UniPoly
values over Fraction, built the plain way: C(x+shift, s) as the product of
its linear factors, d_n, s_n and f_k as sums of scaled UniPolys. MultiPoly
is a sparse multivariate ring for the Schmidt linear forms and their powers,
and the Newton helpers give binomial-basis coefficients. Both rings are
immutable and canonical (no trailing zero coefficients, no stored zero
terms), so equality is plain coefficient comparison.
"""

from __future__ import annotations

import functools
import math
from collections.abc import Iterable, Iterator, Mapping, Sequence
from dataclasses import dataclass
from fractions import Fraction
from fractions import Fraction as Rat

from scv.integrality import TERM_LIMIT, TermLimitExceeded
from scv.sequences import schmidt_coefficient


class ArityError(ValueError):
    """Raised when MultiPoly operands disagree on the number of variables."""


class UniPoly:
    """Dense univariate polynomial over Rat; index = degree of x."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable[Rat | int] = ()) -> None:
        cs = [Fraction(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        object.__setattr__(self, "coeffs", tuple(cs))

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError("UniPoly is immutable")

    @classmethod
    def constant(cls, c: Rat | int) -> UniPoly:
        return cls((c,))

    @classmethod
    def zero(cls) -> UniPoly:
        return cls(())

    @classmethod
    def one(cls) -> UniPoly:
        return cls((1,))

    @classmethod
    def x(cls) -> UniPoly:
        return cls((0, 1))

    @property
    def degree(self) -> int:
        """Degree; -1 for the zero polynomial."""
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def __eq__(self, other: object) -> bool:
        if isinstance(other, UniPoly):
            return self.coeffs == other.coeffs
        if isinstance(other, (int, Fraction)):
            return self == UniPoly.constant(other)
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self.coeffs)

    def __add__(self, other: UniPoly | Rat | int) -> UniPoly:
        other = _as_unipoly(other)
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return UniPoly(out)

    __radd__ = __add__

    def __neg__(self) -> UniPoly:
        return UniPoly(-c for c in self.coeffs)

    def __sub__(self, other: UniPoly | Rat | int) -> UniPoly:
        return self + (-_as_unipoly(other))

    def __rsub__(self, other: UniPoly | Rat | int) -> UniPoly:
        return _as_unipoly(other) + (-self)

    def __mul__(self, other: UniPoly | Rat | int) -> UniPoly:
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        a, b = self.coeffs, other.coeffs
        if not a or not b:
            return UniPoly.zero()
        out = [Fraction(0)] * (len(a) + len(b) - 1)
        for i, ca in enumerate(a):
            if ca == 0:
                continue
            for j, cb in enumerate(b):
                out[i + j] += ca * cb
        return UniPoly(out)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> UniPoly:
        if n < 0:
            raise ValueError("negative polynomial power")
        out = UniPoly.one()
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base if n > 1 else base
            n >>= 1
        return out

    def scale(self, c: Rat | int) -> UniPoly:
        c = Fraction(c)
        if c == 0:
            return UniPoly.zero()
        return UniPoly(a * c for a in self.coeffs)

    def eval(self, point: Rat | int) -> Rat:
        """Horner evaluation at an exact rational point."""
        acc = Fraction(0)
        for c in reversed(self.coeffs):
            acc = acc * point + c
        return acc

    __call__ = eval

    def deflate(self, root: Rat | int) -> UniPoly:
        """Exact synthetic division by (x - root); the remainder must vanish."""
        root = Fraction(root)
        out: list[Fraction] = []
        acc = Fraction(0)
        for c in reversed(self.coeffs):
            acc = acc * root + c
            out.append(acc)
        rem = out.pop() if out else Fraction(0)
        if rem != 0:
            raise ValueError(f"{root} is not a root (remainder {rem})")
        # out currently holds quotient coefficients from high degree down,
        # shifted by one: quotient has degree deg - 1.
        return UniPoly(reversed(out))

    def __repr__(self) -> str:
        if not self.coeffs:
            return "UniPoly(0)"
        parts = []
        for i, c in enumerate(self.coeffs):
            if c == 0:
                continue
            if i == 0:
                parts.append(str(c))
            elif i == 1:
                parts.append(f"{c}*x" if c != 1 else "x")
            else:
                parts.append(f"{c}*x^{i}" if c != 1 else f"x^{i}")
        return "UniPoly(" + " + ".join(parts) + ")"


def _as_unipoly(v: UniPoly | Rat | int) -> UniPoly:
    if isinstance(v, UniPoly):
        return v
    return UniPoly.constant(v)


def as_unipoly(p: tuple[Sequence[int], int]) -> UniPoly:
    """A library polynomial (integer numerators, denominator) as a UniPoly."""
    nums, den = p
    return UniPoly(Fraction(c, den) for c in nums)


@functools.lru_cache(maxsize=None)
def shifted_binomial_poly(shift: int, s: int) -> UniPoly:
    """C(x + shift, s) by UniPoly products of the linear factors (x + shift - i)."""
    if s < 0:
        raise ValueError("s must be >= 0")
    p = UniPoly.one()
    for i in range(s):
        p = p * UniPoly((shift - i, 1))
    return p.scale(Fraction(1, math.factorial(s)))


def binomial_poly(s: int) -> UniPoly:
    """The binomial-basis polynomial C(x, s) = x(x-1)...(x-s+1)/s!."""
    return shifted_binomial_poly(0, s)


@functools.lru_cache(maxsize=None)
def pair_binomial_poly(s: int) -> UniPoly:
    """C(x, s) * C(x+s, s) as the product of its two binomial polynomials."""
    return shifted_binomial_poly(0, s) * shifted_binomial_poly(s, s)


@functools.lru_cache(maxsize=None)
def d_poly(n: int) -> UniPoly:
    """d_n as a polynomial in x (degree n)."""
    if n < 0:
        raise ValueError("n must be >= 0")
    acc = UniPoly.zero()
    for k in range(n + 1):
        acc = acc + shifted_binomial_poly(0, k).scale(math.comb(n, k) * 2**k)
    return acc


@functools.lru_cache(maxsize=None)
def s_poly(n: int) -> UniPoly:
    """s_n as a polynomial in x (degree 2n)."""
    if n < 0:
        raise ValueError("n must be >= 0")
    acc = UniPoly.zero()
    for k in range(n + 1):
        acc = acc + pair_binomial_poly(k).scale(math.comb(n, k))
    return acc


@functools.lru_cache(maxsize=None)
def f_poly(k: int) -> UniPoly:
    """f_k(x) = sum_{j<=k} sum_{i<=j} C(x+j, k+j) C(x,i) C(k,j) C(j,i) 2^i.

    The sum over i is d_j(x), so this is sum_{j<=k} C(k,j) C(x+j, k+j) d_j(x)
    with the cached d_poly. Integer-valued for every k; these interpolate
    d_n * s_n against the Schmidt weights: sum_k C(n+k,2k) C(2k,k) f_k = d_n * s_n.
    """
    if k < 0:
        raise ValueError("k must be >= 0")
    acc = UniPoly.zero()
    for j in range(k + 1):
        acc = acc + shifted_binomial_poly(j, k + j).scale(math.comb(k, j)) * d_poly(j)
    return acc


@dataclass(frozen=True)
class NewtonExpansion:
    """Coefficients c_j of a polynomial written as sum_j c_j * C(x, j)."""

    coefficients: tuple[Fraction, ...]

    def all_integers(self) -> bool:
        return all(c.denominator == 1 for c in self.coefficients)

    def to_poly(self) -> UniPoly:
        acc = UniPoly.zero()
        for j, c in enumerate(self.coefficients):
            acc = acc + binomial_poly(j).scale(c)
        return acc


def newton_coefficients(p: UniPoly) -> NewtonExpansion:
    """Binomial-basis coefficients c_j = (forward difference)^j p(0).

    Computed by an in-place difference table on the values p(0..deg), which
    is exact and O(deg^2).
    """
    d = p.degree
    vals = [p.eval(i) for i in range(d + 1)]
    out: list[Fraction] = []
    for _ in range(d + 1):
        out.append(vals[0])
        vals = [vals[i + 1] - vals[i] for i in range(len(vals) - 1)]
    return NewtonExpansion(tuple(out))


def is_integer_valued(p: UniPoly) -> bool:
    """True iff p maps every integer to an integer (all Newton coefficients integral)."""
    return newton_coefficients(p).all_integers()


class MultiPoly:
    """Sparse multivariate polynomial over Rat in variables x_0..x_{arity-1}.

    Terms map exponent tuples (one entry per variable) to nonzero coefficients.
    """

    __slots__ = ("arity", "_terms")

    def __init__(
        self, arity: int, terms: Mapping[tuple[int, ...], Rat | int] | None = None
    ) -> None:
        if arity < 0:
            raise ArityError(f"arity must be >= 0, got {arity}")
        clean: dict[tuple[int, ...], Fraction] = {}
        for expo, c in (terms or {}).items():
            expo = tuple(expo)
            if len(expo) != arity:
                raise ArityError(f"exponent {expo} has arity {len(expo)}, expected {arity}")
            if any(e < 0 for e in expo):
                raise ValueError(f"negative exponent in {expo}")
            c = Fraction(c)
            if c != 0:
                clean[expo] = c
        object.__setattr__(self, "arity", arity)
        object.__setattr__(self, "_terms", clean)

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError("MultiPoly is immutable")

    @classmethod
    def zero(cls, arity: int) -> MultiPoly:
        return cls(arity)

    @classmethod
    def constant(cls, arity: int, c: Rat | int) -> MultiPoly:
        return cls(arity, {(0,) * arity: c})

    @classmethod
    def variable(cls, arity: int, index: int) -> MultiPoly:
        if not 0 <= index < arity:
            raise ArityError(f"variable index {index} out of range for arity {arity}")
        expo = tuple(1 if i == index else 0 for i in range(arity))
        return cls(arity, {expo: 1})

    def terms(self) -> Iterator[tuple[tuple[int, ...], Fraction]]:
        return iter(self._terms.items())

    def coefficient(self, expo: Sequence[int]) -> Fraction:
        return self._terms.get(tuple(expo), Fraction(0))

    def term_count(self) -> int:
        return len(self._terms)

    def is_zero(self) -> bool:
        return not self._terms

    def _check_arity(self, other: MultiPoly) -> None:
        if self.arity != other.arity:
            raise ArityError(f"arity mismatch: {self.arity} vs {other.arity}")

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, MultiPoly):
            return NotImplemented
        return self.arity == other.arity and self._terms == other._terms

    def __hash__(self) -> int:
        return hash((self.arity, frozenset(self._terms.items())))

    def __add__(self, other: MultiPoly) -> MultiPoly:
        self._check_arity(other)
        out = dict(self._terms)
        for expo, c in other._terms.items():
            out[expo] = out.get(expo, Fraction(0)) + c
        return MultiPoly(self.arity, out)

    def __neg__(self) -> MultiPoly:
        return MultiPoly(self.arity, {e: -c for e, c in self._terms.items()})

    def __sub__(self, other: MultiPoly) -> MultiPoly:
        return self + (-other)

    def __mul__(self, other: MultiPoly) -> MultiPoly:
        self._check_arity(other)
        if len(self._terms) * len(other._terms) > TERM_LIMIT:
            raise TermLimitExceeded(
                f"product of {len(self._terms)} x {len(other._terms)} terms exceeds {TERM_LIMIT}"
            )
        out: dict[tuple[int, ...], Fraction] = {}
        for e1, c1 in self._terms.items():
            for e2, c2 in other._terms.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                out[e] = out.get(e, Fraction(0)) + c1 * c2
        if len(out) > TERM_LIMIT:
            raise TermLimitExceeded(f"{len(out)} terms exceeds {TERM_LIMIT}")
        return MultiPoly(self.arity, out)

    def scale(self, c: Rat | int) -> MultiPoly:
        c = Fraction(c)
        return MultiPoly(self.arity, {e: v * c for e, v in self._terms.items()})

    def __pow__(self, n: int) -> MultiPoly:
        if n < 0:
            raise ValueError("negative polynomial power")
        out = MultiPoly.constant(self.arity, 1)
        for _ in range(n):
            out = out * self
        return out

    def extended(self, arity: int) -> MultiPoly:
        """Embed into a ring with more variables (pad exponents with zeros)."""
        if arity < self.arity:
            raise ArityError(f"cannot shrink arity {self.arity} to {arity}")
        pad = (0,) * (arity - self.arity)
        return MultiPoly(arity, {e + pad: c for e, c in self._terms.items()})

    def eval(self, points: Sequence[Rat | int]) -> Rat:
        if len(points) != self.arity:
            raise ArityError(f"{len(points)} points for arity {self.arity}")
        pts = [Fraction(q) for q in points]
        acc = Fraction(0)
        for expo, c in self._terms.items():
            term = c
            for q, e in zip(pts, expo):
                if e:
                    term *= q**e
            acc += term
        return acc

    def __repr__(self) -> str:
        if not self._terms:
            return "MultiPoly(0)"
        parts = []
        for expo, c in sorted(self._terms.items()):
            mono = "*".join(
                f"x{i}^{e}" if e > 1 else f"x{i}" for i, e in enumerate(expo) if e
            )
            parts.append(f"{c}*{mono}" if mono else str(c))
        return "MultiPoly(" + " + ".join(parts) + ")"


def schmidt_linear_form(n: int, arity: int | None = None) -> MultiPoly:
    """S_n = sum_{k<=n} C(n+k,2k) C(2k,k) x_k as a linear MultiPoly.

    The natural arity is n+1 (variables x_0..x_n); a larger arity embeds the
    same form in a bigger ring.
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    if arity is None:
        arity = n + 1
    if arity < n + 1:
        raise ValueError(f"arity {arity} too small for S_{n}")
    terms = {}
    for k in range(n + 1):
        expo = tuple(1 if i == k else 0 for i in range(arity))
        terms[expo] = schmidt_coefficient(n, k)
    return MultiPoly(arity, terms)
