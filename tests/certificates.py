"""One checker for polynomial identities proved on their full degree grid.

The lemma: a polynomial of degree at most d_v in each variable v that
vanishes on d_v + 1 integer points per variable is zero. In one variable a
non-zero polynomial of degree <= d has at most d roots; in more, write the
polynomial as one in the last variable whose coefficients are polynomials
in the others, and each coefficient vanishes on the smaller grid, by
induction. So evaluating exactly on product(range(d_v + 1)) is a proof, the
method of Petkovsek, Wilf and Zeilberger, A = B (1996), ch. 6.

The degree bounds are read off the data that defines the polynomial, in one
of two shapes:

    products   terms (c, (form, ...)), each form the coefficients
               (a_1, ..., a_k, c) of a_1 v_1 + ... + a_k v_k + c; a term's
               degree in v is at most the number of its forms that involve v
    monomials  tables of entries (e_1, ..., e_k, c), each c v_1^e_1 ... v_k^e_k
"""

from __future__ import annotations

import math
from collections.abc import Callable
from itertools import product
from operator import mul


def nonzero_points(
    evaluate: Callable[..., object], degrees: tuple[int, ...]
) -> list[tuple[int, ...]]:
    """The points of the grid range(d_v + 1) per variable where evaluate(*point) is not zero.

    An empty list proves that the polynomial which evaluate computes exactly,
    of degree at most d_v in each variable v, is zero.
    """
    return [point for point in product(*(range(d + 1) for d in degrees)) if evaluate(*point)]


def form_value(form, point):
    """The linear form at a point: sum a_v v + c."""
    return sum(map(mul, form, point)) + form[-1]


def products_value(terms, point):
    """The sum of c times its forms' product, over the terms, at a point."""
    return sum(c * math.prod(form_value(form, point) for form in factors) for c, factors in terms)


def products_degrees(terms, variables: int) -> tuple[int, ...]:
    """Per variable, the most forms of one term that involve it."""
    return tuple(
        max(sum(1 for form in factors if form[v]) for _, factors in terms)
        for v in range(variables)
    )


def monomials_degrees(tables) -> tuple[int, ...]:
    """Per variable, its largest exponent over every entry of every table."""
    return tuple(map(max, zip(*(entry[:-1] for table in tables for entry in table))))
