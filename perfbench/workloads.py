"""The benchmark's workloads: seeded `scv verify` invocations and their known sizes.

Each workload is a list of CLI invocations. Every invocation carries the
number of checks its grid must produce and how many of them must be
skipped, computed here from the grid definition with an independent prime
sieve, so a report that drops or duplicates checks is caught.

Why each workload exists:

* congruence -- exact Fraction congruence columns. Most time goes to
  Fraction arithmetic in the `sequences` column builders and the
  `exact_arith` scalars; `poly` is not used. Integer kernels for the
  columns should show here.
* polynomial -- polynomial-ring integrality and identity checks:
  UniPoly/MultiPoly products, Newton coefficients and the cached d/s/f
  polynomials. No congruence column is built.
* many-small -- thousands of cheap checks, so process start, `sweeps`
  dispatch, CheckResult construction and `report` sort/render dominate.
  It renders json, text and csv.
* parallel -- the congruence invocations with --jobs 2, the only use of the
  process pool in `sweeps.run_tasks`. Its reports must equal those of
  congruence.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction

RV_FAMILY_COUNT = 4  # families 1/2, 1/3, 1/4, 1/6
SUPPORTED_X_COUNT = 4  # x = -1/2, -1/3, -1/4, -1/6 of the cc checks
IDENTITY_ALL_CHECKS = 3244  # cc1 81, cc4 169, liu26 61, telescope 12, bb2 9, bb4-direct 676, bb4-recurrence 2236

# Height classes of the seeded guo-bb1 points: (denominators, |numerator| range).
# Every denominator is a prime below the sweep's pmax, so each point is skipped
# at exactly one prime and the grid size and cost do not depend on the seed.
BB1_HEIGHT_CLASSES = (
    ((5, 7), (1, 4)),
    ((11, 13), (5, 10)),
    ((17, 19, 23), (11, 16)),
)

WORKLOAD_NAMES = ("congruence", "polynomial", "many-small", "parallel")
# parallel repeats the congruence grid, so the traced run leaves it out
TRACED_WORKLOADS = ("congruence", "polynomial", "many-small")


@dataclass(frozen=True)
class Invocation:
    """One `scv verify` call: its arguments, report format and expected grid."""

    args: tuple[str, ...]
    fmt: str
    checks: int
    skipped: int = 0

    def argv(self, out: str) -> list[str]:
        return ["verify", *self.args, "--format", self.fmt, "--out", out]


def primes(lo: int, hi: int) -> list[int]:
    """Primes lo <= p <= hi by a plain sieve, independent of scv."""
    sieve = [True] * (hi + 1)
    for i in range(2, int(hi**0.5) + 1):
        if sieve[i]:
            sieve[i * i :: i] = [False] * len(range(i * i, hi + 1, i))
    return [n for n in range(max(lo, 2), hi + 1) if sieve[n]]


def bb1_points(seed: int) -> tuple[str, ...]:
    """Three rationals a/b, one per height class, drawn from the seed."""
    rng = random.Random(seed)
    points = []
    for dens, (lo, hi) in BB1_HEIGHT_CLASSES:
        den = rng.choice(dens)
        num = rng.randint(lo, hi) * rng.choice((1, -1))
        points.append(str(Fraction(num, den)))
    return tuple(points)


def _per_family(sub: str, pmax: int) -> Invocation:
    return Invocation((sub, "--pmax", str(pmax)), "json", RV_FAMILY_COUNT * len(primes(5, pmax)))


def _cc(which: str, pmax: int, fmt: str = "json") -> Invocation:
    ps = primes(5, pmax)
    per_x = SUPPORTED_X_COUNT * len(ps)
    cc7 = sum(p - 1 for p in ps)  # s runs over p..2p-2
    checks = {"cc7": cc7, "all": 4 * per_x + cc7}.get(which, per_x)
    return Invocation(("cc", "--which", which, "--pmax", str(pmax)), fmt, checks)


def _guo_bb1(pmax: int, xs: tuple[str, ...]) -> Invocation:
    ps = primes(3, pmax)
    skipped = sum(1 for x in xs for p in ps if Fraction(x).denominator % p == 0)
    args = ("guo-bb1", "--pmax", str(pmax), *(a for x in xs for a in ("--x", x)))
    return Invocation(args, "json", len(xs) * len(ps), skipped)


def _grid(sub: str, nmax: int, mmax: int) -> Invocation:
    args = (sub, "--nmax", str(nmax), "--mmax", str(mmax), "--eps", "both")
    return Invocation(args, "json", nmax * mmax * 2)


def _with_jobs(inv: Invocation, jobs: int) -> Invocation:
    return Invocation((*inv.args, "--jobs", str(jobs)), inv.fmt, inv.checks, inv.skipped)


def invocations(name: str, seed: int, tiny: bool = False) -> list[Invocation]:
    """The workload's invocations for this seed (only guo-bb1 uses it).

    `tiny` gives the same invocations on grids small enough for the
    self-test.
    """

    def size(full: int, small: int) -> int:
        return small if tiny else full

    if name == "congruence":
        return [
            _per_family("sun-p4", size(110, 13)),
            _per_family("lemma2p", size(200, 13)),
            _cc("all", size(40, 11)),
            _guo_bb1(size(50, 23), bb1_points(seed)),
        ]
    if name == "polynomial":
        bb2 = size(14, 4)
        return [
            _grid("integrality", size(14, 3), size(3, 2)),
            _grid("schmidt", size(8, 3), size(4, 2)),
            Invocation(("identity", "--name", "bb2", "--max", str(bb2)), "json", bb2 + 1),
        ]
    if name == "many-small":
        rv = _per_family("rv", size(250, 13))
        identity = (
            Invocation(("identity", "--name", "cc1", "--max", "2"), "json", 9)
            if tiny
            else Invocation(("identity", "--name", "all"), "json", IDENTITY_ALL_CHECKS)
        )
        return [identity, _cc("cc7", size(100, 11), fmt="text"), Invocation(rv.args, "csv", rv.checks)]
    if name == "parallel":
        return [_with_jobs(inv, 2) for inv in invocations("congruence", seed, tiny)]
    raise KeyError(f"unknown workload {name!r}; choose from {', '.join(WORKLOAD_NAMES)}")


def traced_invocations(seed: int, tiny: bool = False) -> list[Invocation]:
    """Every distinct grid of the benchmark, in the order the traced run uses."""
    return [inv for name in TRACED_WORKLOADS for inv in invocations(name, seed, tiny)]
