"""scv: exact-arithmetic verification of binomial-sum supercongruences,
combinatorial identities, and integer-valued polynomial families.

Everything is computed over arbitrary-precision rationals; congruences are
decided by p-adic valuation, identities by canonical coefficient equality.
"""

from .exact_arith import (
    InvalidPrime,
    PAdicContext,
    Rat,
    is_prime,
    legendre,
    primes_in_range,
)
from .congruences import CheckResult, OutOfRange
from .sequences import RV_FAMILIES, RVFamily

__version__ = "0.1.0"

__all__ = [
    "CheckResult",
    "InvalidPrime",
    "OutOfRange",
    "PAdicContext",
    "Rat",
    "RVFamily",
    "RV_FAMILIES",
    "is_prime",
    "legendre",
    "primes_in_range",
    "__version__",
]
