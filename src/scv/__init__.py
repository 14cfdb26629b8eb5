"""scv: exact-arithmetic verification of binomial-sum supercongruences,
combinatorial identities, and integer-valued polynomial families.

Everything is computed over arbitrary-precision rationals; congruences are
decided by p-adic valuation, identities by canonical coefficient equality.

The names below are resolved on first access (PEP 562), so importing the
package, as `scv verify` does, loads none of the modules they come from.
"""

__version__ = "0.1.0"

# the desk scale of exact_arith's is_prime and primes_in_range, and the largest
# --pmax of a sweep: defined here, so the sweep table needs no arithmetic module
PRIME_LIMIT = 10**6


# here, so the sweep table raises the class that the CLI, run as __main__ by python -m, catches
class UsageError(ValueError):
    """A bad flag, option value or bound: refused before any check runs (exit 2)."""


# each public name -> the submodule that defines it
_EXPORTS = {
    "CheckResult": "report",
    "InvalidPrime": "exact_arith",
    "OutOfRange": "congruences",
    "PAdicContext": "exact_arith",
    "RV_FAMILIES": "sequences",
    "is_prime": "exact_arith",
    "primes_in_range": "exact_arith",
}

__all__ = [*_EXPORTS, "UsageError", "__version__"]


def __getattr__(name: str) -> object:
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    value = getattr(import_module(f".{_EXPORTS[name]}", __name__), name)
    globals()[name] = value  # later lookups find it without this call
    return value
