from __future__ import annotations

import os
import re
import subprocess
import sys
from fractions import Fraction
from itertools import islice, product
from pathlib import Path

import pytest

import fraction_poly
import oracles
from fraction_poly import MultiPoly, UniPoly, is_integer_valued
from oracles import (
    crosscheck_specialization,
    integer_valued_oracle,
    integer_valued_sum_oracle,
    integer_window_oracle,
    schmidt_divisibility_oracle,
    schmidt_power_sum,
    sun_guo_expr,
)
from scv import identities, integrality, sequences, sweeps
from scv.integrality import (
    TermLimitExceeded,
    verify_integer_valued,
    verify_schmidt_divisibility,
)


def test_params_validation():
    # both verifiers refuse a point off the grid and print the point they are given
    for verify in (verify_integer_valued, verify_schmidt_divisibility):
        with pytest.raises(ValueError, match="n and m must be >= 1, got n=0, m=1"):
            verify(0, 1, 1)
        with pytest.raises(ValueError, match="n and m must be >= 1, got n=1, m=0"):
            verify(1, 0, 1)
        with pytest.raises(ValueError, match="epsilon must be \\+1 or -1, got 2"):
            verify(1, 1, 2)
        assert verify(3, 2, -1).parameters == {"n": 3, "m": 2, "eps": -1}


def test_sun_guo_expr_examples():
    assert sun_guo_expr(1, 1, 1) == UniPoly.one()
    assert sun_guo_expr(1, 4, -1) == UniPoly.one()
    plus = sun_guo_expr(2, 1, 1)
    assert plus == UniPoly([2, Fraction(9, 2), Fraction(9, 2), 3])
    minus = sun_guo_expr(2, 1, -1)
    assert minus == UniPoly([-1, Fraction(-9, 2), Fraction(-9, 2), -3])


def test_sun_guo_degree_law():
    for n in range(2, 6):
        for m in range(1, 4):
            for eps in (1, -1):
                expr = sun_guo_expr(n, m, eps)
                assert expr.degree == 3 * (n - 1) * m


def test_verify_integer_valued_examples():
    r = verify_integer_valued(2, 1, 1)
    assert r.passed
    assert r.lhs_witness == "[2, 12, 27, 18]"
    for m in (1, 2, 3):
        for eps in (1, -1):
            assert verify_integer_valued(1, m, eps).passed
    assert verify_integer_valued(3, 2, -1).passed


def test_schmidt_power_sum_examples():
    assert schmidt_power_sum(2, 1, 1) == MultiPoly(2, {(1, 0): 4, (0, 1): 6})
    assert schmidt_power_sum(2, 2, -1) == MultiPoly(
        2, {(2, 0): -2, (1, 1): -12, (0, 2): -12}
    )
    for m in (1, 2, 3):
        assert schmidt_power_sum(1, m, 1) == MultiPoly(1, {(m,): 1})


def test_verify_schmidt_divisibility_examples():
    assert verify_schmidt_divisibility(2, 1, 1).passed
    assert verify_schmidt_divisibility(2, 2, -1).passed
    for m in (1, 2, 3):
        for eps in (1, -1):
            assert verify_schmidt_divisibility(1, m, eps).passed


def test_crosscheck_specialization():
    r = crosscheck_specialization(2, 1, 1, points=(0,))
    assert r.passed
    assert r.lhs_witness == "[4]" and r.rhs_witness == "[4]"
    assert crosscheck_specialization(1, 1, 1).passed
    assert crosscheck_specialization(3, 2, -1).passed
    for n in range(1, 6):
        for m in (1, 2):
            for eps in (1, -1):
                assert crosscheck_specialization(n, m, eps).passed


def test_window_oracle_agrees_with_newton_route():
    for n in range(1, 5):
        for m in (1, 2):
            for eps in (1, -1):
                assert verify_integer_valued(n, m, eps).passed == integer_window_oracle(n, m, eps)


def test_window_oracle_rejects_non_integer_valued():
    # 1/2 + x has Newton coefficients [1/2, 1]; both routes must reject it
    assert not is_integer_valued(UniPoly([Fraction(1, 2), 1]))


def test_integer_valued_matches_newton_oracle():
    # the benchmark's integrality grid
    for n in range(1, 15):
        for m in range(1, 4):
            for eps in (1, -1):
                assert verify_integer_valued(n, m, eps) == integer_valued_oracle(n, m, eps)


def test_schmidt_divisibility_matches_multipoly_oracle():
    # the benchmark's Schmidt grid
    for n in range(1, 9):
        for m in range(1, 5):
            for eps in (1, -1):
                assert verify_schmidt_divisibility(n, m, eps) == schmidt_divisibility_oracle(
                    n, m, eps
                )


def test_schmidt_violations_match_multipoly_oracle(monkeypatch):
    # perturbed weights make some coefficients indivisible; both routes must name the same monomial
    real = integrality.schmidt_coefficient
    perturbed = lambda n, k: real(n, k) + (n == 2 and k == 1)  # noqa: E731
    monkeypatch.setattr(fraction_poly, "schmidt_coefficient", perturbed)
    monkeypatch.setattr(integrality, "schmidt_coefficient", perturbed)
    failed = 0
    for n in range(1, 6):
        for m in range(1, 4):
            for eps in (1, -1):
                r = verify_schmidt_divisibility(n, m, eps)
                assert r == schmidt_divisibility_oracle(n, m, eps)
                failed += not r.passed
    assert failed > 0


def test_integrality_sweep_passes_under_a_low_int_str_limit():
    # its largest binomial-basis coefficients have more than 640 digits
    proc = subprocess.run(
        [sys.executable, "-X", "int_max_str_digits=640", "-m", "scv.cli", "verify",
         "integrality", "--nmax", "2", "--mmax", "120", "--eps", "+1"],
        env={**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parent.parent / "src")},
        capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr
    assert "240 passed, 0 failed" in proc.stdout


@pytest.fixture
def fresh_caches():
    """Every cache a CLI run clears (the columns, the differences, the running sums and every
    other cache of a loaded scv module), empty before and after."""
    sweeps.clear_caches()
    yield sweeps.clear_caches
    sweeps.clear_caches()


def test_integer_valued_degree_check_raises(monkeypatch, fresh_caches):
    # the differences are cached per (k, m) and summed per (m, eps): build them under the bound
    monkeypatch.setattr(integrality, "degree_bound", lambda n, m: 3 * (n - 1) * m - 1)
    with pytest.raises(ArithmeticError, match="above its bound"):
        verify_integer_valued(2, 1, 1)


def test_integer_valued_rejects_non_integral_coefficients(monkeypatch, fresh_caches):
    # V + 1 changes only the constant difference, which becomes odd at n = 2;
    # the k = 0 term (weight 1) carries it
    real = integrality._term_differences
    monkeypatch.setattr(
        integrality, "_term_differences", lambda k, m: (real(k, m)[0] + (k == 0), *real(k, m)[1:])
    )
    r = verify_integer_valued(2, 1, 1)
    assert not r.passed
    assert r.lhs_witness == "[5/2, 12, 27, 18]"


def test_schmidt_term_limit_raises_before_expanding(monkeypatch):
    def expand(n, m, eps):
        raise AssertionError("expanded")

    monkeypatch.setattr(integrality, "_schmidt_coefficients", expand)
    with pytest.raises(TermLimitExceeded):
        verify_schmidt_divisibility(40, 5, 1)


def test_integer_valued_holds_to_n_20():
    from scv.sweeps import SWEEPS, run_tasks

    results = run_tasks(SWEEPS["integrality"].grid(20, 3, "both"))
    assert len(results) == 120
    assert all(r.passed for r in results)


def test_schmidt_holds_to_n_12_m_4():
    from scv.sweeps import SWEEPS, run_tasks

    results = run_tasks(SWEEPS["schmidt"].grid(12, 4, "both"))
    assert len(results) == 96
    assert all(r.passed for r in results)


def test_integrality_grid_builds_each_s_column_once(monkeypatch):
    from scv.sweeps import SWEEPS, run_tasks

    runs = []  # [t, terms read] for each run of the s_n recurrence
    real = sequences.s_series

    def counting(t):
        run = [t, 0]
        runs.append(run)
        for s in real(t):
            run[1] += 1
            yield s

    monkeypatch.setattr(sequences, "s_series", counting)
    sweeps.clear_caches()
    # bb4-direct reads the columns t = m <= 25 to k = 25, and the 14x3
    # integrality grid then reads t = 0..3*13*3+1 to k = 13, which covers
    # m = 1, 2 and both eps: one column per t serves both grids
    bb4 = run_tasks(SWEEPS["identity"].grid("bb4-direct", None))
    results = run_tasks(SWEEPS["integrality"].grid(14, 3, "both"))
    assert len(bb4) == 676 and all(r.passed for r in bb4)
    assert len(results) == 84 and all(r.passed for r in results)
    # (t, kmax) of each run: one run per t, and bb4's reach where it read first
    assert sorted((t, read - 1) for t, read in runs) == [
        (t, 25 if t <= 25 else 13) for t in range(119)
    ]


def test_s_column_refuses_a_term_that_k_factorial_squared_does_not_divide(monkeypatch):
    monkeypatch.setattr(sequences, "s_series", lambda t: iter([1, 2, 3]))  # S_2 = 3, 2!^2 = 4
    with pytest.raises(ArithmeticError, match=r"s_2\(5\) is not an integer"):
        list(islice(sequences.ds_pairs.__wrapped__(5), 3))


# each column user, with the pair its first read refuses: the f row of m = 5 reads the
# Delannoy values d_j(5) off the pairs at t = 5, the rhs column of bb4 at n = 2 reads the
# f rows of m = 0, 1, ... in turn, the first to reach s_2 at m = 2, and the products at
# k = 2 start at t = 0
COLUMN_USERS = {
    "ds pairs": (lambda: sequences.ds_value(5, 2), "s_2(5)"),
    "f rows": (lambda: identities.eval_bb4_side("rhs", 5, 2), "s_2(5)"),
    "bb4 sides": (lambda: identities._side_values(("rhs", 2), 6)[5], "s_2(2)"),
    "products": (lambda: integrality._term_differences(2, 1), "s_2(0)"),
}


@pytest.mark.parametrize("read, refused", COLUMN_USERS.values(), ids=COLUMN_USERS)
def test_a_column_whose_series_raised_raises_the_same_error_again(
    read, refused, monkeypatch, fresh_caches
):
    expected = read()
    fresh_caches()
    monkeypatch.setattr(sequences, "s_series", lambda t: iter([1, 2, 3, 4]))  # S_2 = 3, 2!^2 = 4
    for _ in range(2):  # the first read finishes the series; the second must not see it finished
        with pytest.raises(ArithmeticError, match=re.escape(f"{refused} is not an integer")):
            read()
    monkeypatch.undo()
    assert read() == expected  # nothing the raising series read is kept


def test_a_negative_k_is_refused_before_the_column_is_read(fresh_caches):
    # a list index below 0 would read from the end of the pairs read so far
    with pytest.raises(ValueError, match=r"k = -1 is negative"):
        sequences.ds_value(3, -1)  # on a fresh column
    assert sequences.ds_value(3, 5) == (231, 561)
    for k in (-1, -6):
        with pytest.raises(ValueError, match=rf"k = {k} is negative"):
            sequences.ds_value(3, k)
    assert sequences.ds_value(3, 0) == (1, 1)


ORDERS = {
    "ascending": lambda points: sorted(points),
    "descending n": lambda points: sorted(points, key=lambda p: (-p[0], p[1:])),
    "shuffled": lambda points: sorted(points, key=lambda p: hash((p, 7)) % 1009),
    "each twice": lambda points: [p for p in sorted(points) for _ in range(2)],
}


@pytest.mark.parametrize("mmax", [3, 9], ids=["6 sums", "18 sums"])  # 16 sums are kept
@pytest.mark.parametrize("order", ORDERS.values(), ids=ORDERS)
def test_running_sums_equal_the_per_check_sum_in_any_order(order, mmax, fresh_caches):
    points = list(product(range(1, 9), range(1, mmax + 1), (1, -1)))
    for n, m, eps in order(points):
        assert verify_integer_valued(n, m, eps) == integer_valued_sum_oracle(n, m, eps)


@pytest.mark.parametrize("jobs", [1, 2])
def test_integrality_slices_equal_the_per_check_sum(jobs, monkeypatch, fresh_caches):
    # two usable CPUs, so jobs=2 forks one worker, whose slice starts at eps = 1
    monkeypatch.setattr(sweeps.os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    results = sweeps.run_tasks(sweeps.SWEEPS["integrality"].grid(14, 3, "both"), jobs=jobs)
    grid = product((-1, 1), range(1, 4), range(1, 15))
    assert results == [integer_valued_sum_oracle(n, m, eps) for eps, m, n in grid]


def test_the_grid_advances_each_running_sum_through_every_n(fresh_caches):
    # --mmax 9 with both signs is 18 running sums: the grid takes each through n = 1..6 before
    # the next, so each is made once and found again at every later n, however large --mmax is
    sweeps.run_tasks(sweeps.SWEEPS["integrality"].grid(6, 9, "both"))
    info = integrality._frontier.cache_info()
    assert (info.hits, info.misses) == (18 * 5, 18)


@pytest.mark.parametrize("jobs", [1, 2])
def test_integer_valued_matches_the_full_triangle_route(jobs):
    from scv.sweeps import SWEEPS, run_tasks

    results = run_tasks(SWEEPS["integrality"].grid(20, 4, "both"), jobs=jobs)
    grid = product((-1, 1), range(1, 5), range(1, 21))
    assert results == [oracles.integer_valued_triangle_oracle(n, m, eps) for eps, m, n in grid]
