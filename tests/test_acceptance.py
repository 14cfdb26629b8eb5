"""Acceptance suite: every criterion at its stated (exact) tolerance.

Each test prints one [ACCEPTANCE nn] PASS/FAIL line; run with `pytest -s`
to see them all.  All comparisons are exact, so the only tolerances are the
stated runtime budgets for the big sweeps.
"""

from __future__ import annotations

import random
import time
from fractions import Fraction

import scv.identities as identities
from fraction_poly import UniPoly, newton_coefficients
from oracles import corrupted_recurrence_tables, d_val, delannoy_oracle, integer_window_oracle
from scv.integrality import verify_integer_valued
from scv.sweeps import BB4_N_MAX, DEFAULT_BB1_X, SWEEPS, run_tasks


def _criterion(num: int, name: str, ok: bool, detail: str) -> None:
    line = f"[ACCEPTANCE {num:02d}] {name}: {'PASS' if ok else 'FAIL'} ({detail})"
    print(line)
    assert ok, line


def _run(tasks):
    start = time.perf_counter()
    results = run_tasks(tasks)
    return results, time.perf_counter() - start


def _all_pass(results) -> bool:
    return all(r.passed for r in results if not r.skipped)


def test_criterion_01_rv_sweep():
    results, elapsed = _run(SWEEPS["rv"].grid(200))
    ok = len(results) == 176 and _all_pass(results) and elapsed < 10
    _criterion(1, "rv families mod p^2, p <= 200", ok,
               f"{len(results)} checks, {elapsed:.2f}s, budget 10s")


def test_criterion_02_lemma2p_sweep():
    results, elapsed = _run(SWEEPS["lemma2p"].grid(200))
    ok = len(results) == 176 and _all_pass(results) and elapsed < 20
    _criterion(2, "2p-term sums mod p^2, p <= 200", ok,
               f"{len(results)} checks, {elapsed:.2f}s, budget 20s")


def test_criterion_03_sun_p4_sweep():
    results, elapsed = _run(SWEEPS["sun-p4"].grid(100))
    ok = len(results) == 92 and _all_pass(results) and elapsed < 60
    _criterion(3, "weighted s_k^2 sums mod p^4, p <= 100", ok,
               f"{len(results)} checks, {elapsed:.2f}s, budget 60s")


def test_criterion_04_guo_bb1_sweep():
    results, elapsed = _run(SWEEPS["guo-bb1"].grid(50, DEFAULT_BB1_X))
    skipped = sum(1 for r in results if r.skipped)
    passed = sum(1 for r in results if r.passed and not r.skipped)
    ok = (
        passed == 95 and skipped == 3 and len(results) == 98
        and _all_pass(results) and elapsed < 120
    )
    _criterion(4, "double-sum reduction mod p^4, 3 <= p <= 50", ok,
               f"{passed} pass + {skipped} skipped, {elapsed:.2f}s, budget 120s")


def test_criterion_05_cc_chain():
    results, elapsed = _run(SWEEPS["cc"].grid("all", 50))
    by_name = {}
    for r in results:
        by_name.setdefault(r.check_name, []).append(r)
    counts = {k: len(v) for k, v in sorted(by_name.items())}
    expected = {"cc5": 52, "cc7": 310, "cc8-fact": 52, "cc9": 52, "cc10": 52}
    ok = counts == expected and _all_pass(results)
    _criterion(5, "summation chain cc5/cc7/cc8/cc9/cc10, p <= 50", ok,
               f"{counts}, {elapsed:.2f}s")


def test_criterion_06_identity_suite():
    parts = {
        "cc1": SWEEPS["identity"].grid("cc1", 8),
        "cc4": SWEEPS["identity"].grid("cc4", 12),
        "liu26": SWEEPS["identity"].grid("liu26", 60),
        "telescope": SWEEPS["identity"].grid("telescope", 12),
        "bb2": SWEEPS["identity"].grid("bb2", 8),
    }
    counts = {}
    ok = True
    for name, tasks in parts.items():
        results, _ = _run(tasks)
        counts[name] = len(results)
        ok = ok and _all_pass(results)
    ok = ok and counts == {"cc1": 81, "cc4": 169, "liu26": 61, "telescope": 12, "bb2": 9}
    _criterion(6, "exact identity suite", ok, f"{counts}")


def test_criterion_07_bb4_direct_and_recurrence():
    direct, e1 = _run(SWEEPS["identity"].grid("bb4-direct", 25))
    rec, e2 = _run(SWEEPS["identity"].grid("bb4-recurrence", 40))
    residuals = [r for r in rec if r.check_name == "bb4-recurrence"]
    initials = [r for r in rec if r.check_name == "bb4-initial"]
    # induction closure: residuals zero + equal initial rows imply equality
    # over the whole certified window m <= 44; cross-check it directly
    closure = all(
        identities.eval_bb4_side("lhs", m, n) == identities.eval_bb4_side("rhs", m, n)
        for m in range(45)
        for n in range(26)
    )
    ok = (
        len(direct) == 26 * 26 and _all_pass(direct)
        and len(residuals) == 2 * 41 * 26 and _all_pass(residuals)
        and len(initials) == 4 * 26 and _all_pass(initials)
        and closure
    )
    _criterion(7, "product identity: direct m,n <= 25; order-4 residuals m <= 40", ok,
               f"{len(direct)} direct, {len(residuals)} residuals, "
               f"{len(initials)} initial, closure to m=44, {e1 + e2:.2f}s")


def test_criterion_08_integer_valuedness():
    results, elapsed = _run(SWEEPS["integrality"].grid(10, 3, "both"))
    ok = len(results) == 60 and _all_pass(results)
    oracle_ok = True
    for n in range(1, 6):
        for m in (1, 2):
            for eps in (1, -1):
                newton_route = verify_integer_valued(n, m, eps).passed
                window_route = integer_window_oracle(n, m, eps)
                oracle_ok = oracle_ok and newton_route and window_route
    ok = ok and oracle_ok
    _criterion(8, "averaged d^m s^m sums integer-valued, n <= 10, m <= 3", ok,
               f"{len(results)} checks + point-sampling cross-check, {elapsed:.2f}s")


def test_criterion_09_schmidt_divisibility():
    results, elapsed = _run(SWEEPS["schmidt"].grid(6, 3, "both"))
    ok = len(results) == 36 and _all_pass(results)
    _criterion(9, "Schmidt power-sum coefficients divisible by n, n <= 6, m <= 3", ok,
               f"{len(results)} checks, {elapsed:.2f}s")


def test_criterion_10_oracles(recurrence_tables):
    lattice_ok = all(
        d_val(n, m) == delannoy_oracle(m, n) for m in range(9) for n in range(9)
    )

    rng = random.Random(20240805)
    round_trip_ok = True
    for _ in range(25):
        degree = rng.randint(0, 30)
        p = UniPoly(
            [Fraction(rng.randint(-40, 40), rng.randint(1, 12)) for _ in range(degree + 1)]
        )
        round_trip_ok = round_trip_ok and newton_coefficients(p).to_poly() == p

    # the stored recurrence annihilates the independently computed lhs at each point
    # of the default recurrence grid, and a corrupted table fails there
    points = [(m, n) for m in range(41) for n in range(BB4_N_MAX + 1)]
    lhs_ok = all(identities.recurrence_residual("lhs", m, n) == 0 for m, n in points)
    recurrence_tables(corrupted_recurrence_tables())
    corruption_caught = not identities.check_bb4_recurrence("lhs", 2, 3).passed

    ok = lattice_ok and round_trip_ok and lhs_ok and corruption_caught
    _criterion(10, "independent oracles (lattice paths, Newton round-trip, "
                   "recurrence transcription)", ok,
               f"81 lattice pairs, 25 round-trips, lhs residual at {len(points)} points")
