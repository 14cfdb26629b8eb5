"""The three-term recurrence behind sequences.s_series, proved by its certificate.

s_n(x) = sum_k F(n,k) with F(n,k) = C(n,k) C(x,k) C(x+k,k) satisfies

    (n+2)^2 s_{n+2} = A(n+1) s_{n+1} - (n+1)^2 s_n,  A(m) = 2m^2 + 2m + 1 + x(x+1).

Creative telescoping (Petkovsek, Wilf and Zeilberger, A = B, 1996, ch. 6)
gives the certificate G(n,k) = -(n+1) k^3 n! C(x,k) C(x+k,k) / (k! (n+2-k)!),
zero for k > n+2, with L F(n,k) = G(n,k+1) - G(n,k) for every k >= 0, where
L F(n,k) = (n+2)^2 F(n+2,k) - A(n+1) F(n+1,k) + (n+1)^2 F(n,k). Summed over
k = 0..n+2 the right side telescopes to G(n,n+3) - G(n,0) = 0, which is the
recurrence for every n.

Divided by H(n,k) = n! C(x,k) C(x+k,k) / (k! (n+2-k)!), the telescoping
relation is a polynomial identity in (n, k, x):

    (n+1)(n+2)^3 - A(n+1)(n+1)(n+2-k) + (n+1)^2 (n+2-k)(n+1-k)
        = (n+1) k^3 - (n+1)(x-k)(x+k+1)(n+2-k).

IDENTITY holds its two sides, moved to one, as a signed sum of products of
linear forms, so its degree in each variable is the largest count of factors
that involve it, and the check of it on its full degree grid
(tests/certificates.py) is a proof. G is written over 1/(n+2-k)!, not as R(n,k)
F(n,k) with a rational R: R has poles at k = n+1 and n+2, where F(n,k) = 0
but G does not vanish.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import islice

import pytest

import oracles
from certificates import form_value, nonzero_points, products_degrees, products_value
from scv import sequences
from scv.congruences import SUPPORTED_X
from scv.sequences import s_series

VARIABLES = ("n", "k", "x")


def _lin(n: int = 0, k: int = 0, x: int = 0, c: int = 0) -> tuple[int, int, int, int]:
    """The linear form n*N + k*K + x*X + c, as its coefficients."""
    return (n, k, x, c)


N1, N2 = _lin(n=1, c=1), _lin(n=1, c=2)  # n+1, n+2
K = _lin(k=1)
M2, M1 = _lin(n=1, k=-1, c=2), _lin(n=1, k=-1, c=1)  # n+2-k, n+1-k
X, X1 = _lin(x=1), _lin(x=1, c=1)  # x, x+1
XK, XK1 = _lin(k=-1, x=1), _lin(k=1, x=1, c=1)  # x-k, x+k+1

# A(n+1) = 2(n+1)^2 + 2(n+1) + 1 + x(x+1), each term (coefficient, factors)
A_TERMS = ((2, (N1, N1)), (2, (N1,)), (1, ()), (1, (X, X1)))

# the two sides of the identity, and their difference
LHS = (
    (1, (N1, N2, N2, N2)),
    *((-c, (*factors, N1, M2)) for c, factors in A_TERMS),
    (1, (N1, N1, M2, M1)),
)
RHS = ((1, (N1, K, K, K)), (-1, (N1, XK, XK1, M2)))
IDENTITY = (*LHS, *((-c, factors) for c, factors in RHS))

# the nine points at which the recurrence was first compared with the binomial transform
POINTS = (*map(Fraction, SUPPORTED_X), *map(Fraction, ("2/5", "7/3", "-5", "0", "3")))


def a_coefficient(m: int, x: Fraction) -> Fraction:
    """A(m) = 2m^2 + 2m + 1 + x(x+1), read from A_TERMS at n = m-1."""
    return products_value(A_TERMS, (m - 1, 0, x))


def _grid_failures(identity) -> list[tuple[int, ...]]:
    degrees = products_degrees(identity, len(VARIABLES))
    return nonzero_points(lambda *point: products_value(identity, point), degrees)


def test_identity_vanishes_on_its_full_degree_grid():
    assert products_degrees(IDENTITY, len(VARIABLES)) == (4, 3, 2)
    assert _grid_failures(IDENTITY) == []


@pytest.mark.parametrize("index", range(len(IDENTITY)))
def test_corrupted_identity_term_fails_its_grid(index):
    # a term with its coefficient off by one no longer cancels, on the grid it is read for
    c, factors = IDENTITY[index]
    corrupted = (*IDENTITY[:index], (c + 1, factors), *IDENTITY[index + 1:])
    assert _grid_failures(corrupted)


def test_certificate_telescopes_pointwise():
    # L F(n,k) = G(n,k+1) - G(n,k) with F and G as written, for n < 30 and k <= n+3;
    # divided by H, the two sides are LHS and RHS
    fact = [math.factorial(i) for i in range(40)]
    for x in map(Fraction, ("-1/2", "2/5", "-17/23", "3", "-5", "7/3")):
        pair = oracles.pair_binomial_values(x, 34)  # C(x,k) C(x+k,k)

        def f(n: int, k: int) -> Fraction:
            return math.comb(n, k) * pair[k]

        def over_h(n: int, k: int) -> Fraction:
            # n! C(x,k) C(x+k,k) / (k! (n+2-k)!), zero for k > n+2
            if k > n + 2:
                return Fraction(0)
            return Fraction(fact[n], fact[k] * fact[n + 2 - k]) * pair[k]

        def g(n: int, k: int) -> Fraction:
            return -(n + 1) * k**3 * over_h(n, k)

        for n in range(30):
            a = a_coefficient(n + 1, x)
            for k in range(n + 4):
                lf = (n + 2) ** 2 * f(n + 2, k) - a * f(n + 1, k) + (n + 1) ** 2 * f(n, k)
                dg = g(n, k + 1) - g(n, k)
                assert lf == dg, (x, n, k)
                h = over_h(n, k)
                point = (n, k, x)
                assert (lf, dg) == (h * products_value(LHS, point), h * products_value(RHS, point))
            assert sum(f(n + 2, k) for k in range(n + 3)) == oracles.s_val(n + 2, x)


def test_identity_expands_to_zero_with_sympy():
    sympy = pytest.importorskip("sympy")
    n, k, x = symbols = sympy.symbols(VARIABLES)
    a = 2 * (n + 1) ** 2 + 2 * (n + 1) + 1 + x * (x + 1)
    as_written = (
        (n + 1) * (n + 2) ** 3
        - a * (n + 1) * (n + 2 - k)
        + (n + 1) ** 2 * (n + 2 - k) * (n + 1 - k)
        - (n + 1) * k**3
        + (n + 1) * (x - k) * (x + k + 1) * (n + 2 - k)
    )
    as_data = sum(
        c * sympy.prod([form_value(f, symbols) for f in factors]) for c, factors in IDENTITY
    )
    assert sympy.expand(as_written) == 0
    assert sympy.expand(as_data - as_written) == 0


@pytest.mark.parametrize("x", POINTS, ids=str)
def test_s_series_runs_the_certified_recurrence(x):
    b = x.denominator
    terms = list(islice(s_series(x), 400))
    assert terms[:2] == [1, b * b * a_coefficient(0, x)]
    for k in range(1, 399):
        assert terms[k + 1] == b * b * a_coefficient(k, x) * terms[k] - (k * b) ** 4 * terms[k - 1]


@pytest.mark.parametrize("x", POINTS, ids=str)
def test_s_series_matches_the_binomial_transform(x):
    assert oracles.s_series_column(x, 399) == oracles.s_values(x, 399)


def test_integer_columns_match_the_binomial_transform():
    # the shared columns (d_k(t), s_k(t)), each against its own oracle: Delannoy
    # path counts, and the binomial transform; ds_value reads the same pairs
    for t in range(41):
        pairs = list(islice(sequences._ds_series(t), 41))
        assert [d for d, _ in pairs] == [oracles.delannoy_oracle(k, t) for k in range(41)], t
        assert [s for _, s in pairs] == oracles.s_values(t, 40), t
        assert [sequences.ds_value(t, k) for k in reversed(range(41))] == pairs[::-1], t
