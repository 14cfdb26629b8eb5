"""scv: exact-arithmetic verification of binomial-sum supercongruences,
combinatorial identities, and integer-valued polynomial families.

Everything is computed over arbitrary-precision rationals; congruences are
decided by p-adic valuation, identities by canonical coefficient equality.
"""

from .exact_arith import (
    InvalidPrime,
    NotPAdicInteger,
    PAdicContext,
    Rat,
    congruent,
    is_prime,
    legendre,
    mod_reduce,
    padic_valuation,
    primes_in_range,
    rat,
)
from .congruences import CheckResult, OutOfRange
from .sequences import RV_FAMILIES, RVFamily

__version__ = "0.1.0"

# served from scv.poly on first access (PEP 562), so `import scv` does not load it
_POLY_EXPORTS = frozenset((
    "ArityError", "MultiPoly", "NewtonExpansion", "TermLimitExceeded",
    "UniPoly", "binomial_poly", "is_integer_valued", "newton_coefficients",
))


def __getattr__(name: str) -> object:
    if name in _POLY_EXPORTS:
        from . import poly

        return getattr(poly, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "ArityError",
    "CheckResult",
    "InvalidPrime",
    "MultiPoly",
    "NewtonExpansion",
    "NotPAdicInteger",
    "OutOfRange",
    "PAdicContext",
    "Rat",
    "RVFamily",
    "RV_FAMILIES",
    "TermLimitExceeded",
    "UniPoly",
    "binomial_poly",
    "congruent",
    "is_integer_valued",
    "is_prime",
    "legendre",
    "mod_reduce",
    "newton_coefficients",
    "padic_valuation",
    "primes_in_range",
    "rat",
    "__version__",
]
