from __future__ import annotations

import json
from fractions import Fraction

import pytest
from conftest import run_cli
from oracles import FAMILY_CONSTANTS, cc_row_sums, cc_rows_horner, legendre

import scv.congruences as congruences
import scv.sequences as sequences
from scv.congruences import (
    SUPPORTED_X,
    OutOfRange,
    verify_cc5,
    verify_cc7,
    verify_cc8_fact,
    verify_cc9,
    verify_cc10,
    verify_guo_bb1,
    verify_lemma_2p,
    verify_rv,
    verify_sun_p4,
)
from scv.exact_arith import InvalidPrime, PAdicContext, primes_in_range
from scv.report import CheckResult, skipped_result
from scv.sequences import RV_FAMILIES
from scv.sweeps import DEFAULT_BB1_X, SWEEPS, execute_task, run_tasks

HALF, THIRD, QUARTER, SIXTH = "1/2", "1/3", "1/4", "1/6"


def test_verify_rv_examples():
    r = verify_rv(HALF, 5)
    assert r.passed and r.lhs_witness == "1" and r.rhs_witness == "1"
    assert r.modulus == "5^2"
    assert verify_rv(HALF, 13).passed and legendre(-1, 13) == 1
    r = verify_rv(SIXTH, 7)
    assert r.passed and legendre(-1, 7) == -1
    assert r.rhs_witness == "48"  # -1 mod 49


def test_verify_rv_errors():
    with pytest.raises(OutOfRange):
        verify_rv(HALF, 3)
    with pytest.raises(InvalidPrime):
        verify_rv(HALF, 15)


def test_verify_lemma_2p_examples():
    assert verify_lemma_2p(HALF, 5).passed
    assert verify_lemma_2p(THIRD, 7).passed
    r = verify_lemma_2p(QUARTER, 5)
    assert r.passed
    assert legendre(-2, 5) == -1
    assert r.rhs_witness == "16"  # -19/16 mod 25


def test_verify_sun_p4_examples():
    r = verify_sun_p4(HALF, 5)
    assert r.passed and r.modulus == "5^4"
    assert r.lhs_witness == r.rhs_witness == "175"  # 3/4 * 25 mod 625
    assert verify_sun_p4(SIXTH, 7).passed
    assert verify_sun_p4(QUARTER, 11).passed


def test_verify_guo_bb1_examples():
    r = verify_guo_bb1(Fraction(0), 3)
    assert r.passed
    assert r.lhs_witness == "9"  # sum of 2k+1 over k < 3 is exactly p^2
    assert verify_guo_bb1(Fraction(-1, 2), 5).passed
    assert verify_guo_bb1(Fraction(2), 7).passed
    assert verify_guo_bb1(Fraction(2, 5), 7).passed


def test_verify_guo_bb1_errors():
    # an x that is not a p-adic integer is the verifier's own skip record
    r = verify_guo_bb1(Fraction(2, 10), 5)
    assert r.to_dict() == {
        "check_name": "guo-bb1",
        "parameters": {"x": "1/5", "p": 5},
        "pass": False,
        "skipped": True,
        "lhs_witness": "x = 1/5 is not a p-adic integer for p = 5",
        "rhs_witness": "",
        "modulus": "",
    }
    assert list(r.parameters) == ["x", "p"]
    # p is validated before x: a non-prime p is an error even where p | den(x)
    for x, p in ((Fraction(1), 2), (Fraction(1, 2), 2), (Fraction(1), 9), (Fraction(1, 9), 9)):
        with pytest.raises(InvalidPrime):
            verify_guo_bb1(x, p)


def test_verify_cc5_examples():
    assert verify_cc5(Fraction(-1, 2), 5).passed
    assert verify_cc5(Fraction(-1, 3), 7).passed
    assert verify_cc5(Fraction(-1, 6), 5).passed
    with pytest.raises(OutOfRange):
        verify_cc5(Fraction(1, 5), 7)


def test_verify_cc7_examples():
    r = verify_cc7(5, 5)
    assert r.passed
    assert r.lhs_witness == r.rhs_witness == "16"  # -2/3 mod 25
    assert verify_cc7(8, 5).passed  # s = 2p-2
    with pytest.raises(OutOfRange):
        verify_cc7(4, 5)  # s = p-1
    with pytest.raises(OutOfRange):
        verify_cc7(9, 5)  # s = 2p-1


def test_verify_cc8_fact_examples():
    r = verify_cc8_fact(Fraction(-1, 2), 5)
    assert r.passed and int(r.lhs_witness) >= 2
    assert verify_cc8_fact(Fraction(-1, 4), 7).passed
    assert verify_cc8_fact(Fraction(-1, 6), 11).passed


def test_verify_cc9_examples():
    r = verify_cc9(Fraction(-1, 2), 5)
    assert r.passed and int(r.lhs_witness) >= 1
    assert verify_cc9(Fraction(-1, 3), 5).passed
    assert verify_cc9(Fraction(-1, 6), 7).passed


def test_verify_cc10_examples():
    assert verify_cc10(Fraction(-1, 2), 5).passed
    assert verify_cc10(Fraction(-1, 4), 7).passed


def test_cc10_constants_recombine():
    # the two-window residues recombine to the mod-p^4 constants:
    # 2 * 1 - lemma2_constant == sun_constant for each family
    for c in FAMILY_CONSTANTS.values():
        assert 2 * Fraction(1) - c.lemma2_constant == c.sun_constant


def test_point_class_reads_the_published_rhs_at_every_prime_below_5000():
    # the one rule (-1)^r (1 -+ x'(1+x')) at x = -a against the Legendre route, on far more
    # primes than the verdict-level differential tests reach
    for label, c in FAMILY_CONSTANTS.items():
        x = c.sun_x
        for p in primes_in_range(5, 4999):
            sign, u, b = congruences._point_class((x.numerator, x.denominator), p)
            xp = Fraction(u, b)
            r = x - p * xp  # x = r + p x' with r = <x>_p
            assert r.denominator == 1 and 0 <= r < p and sign == (-1) ** int(r), (label, p)
            assert xp in (x, -1 - x), (label, p)
            symbol = legendre(c.discriminant, p)
            assert sign == symbol, (label, p)
            assert sign * (1 - xp * (1 + xp)) == c.lemma2_constant * symbol, (label, p)
            assert sign * (1 + xp * (1 + xp)) == c.sun_constant * symbol, (label, p)


@pytest.mark.parametrize("sweep", ["rv", "lemma2p", "sun-p4"])
def test_family_sweep_fails_every_record_with_its_sign_flipped(monkeypatch, sweep):
    # no sweep passes vacuously: the sign of _point_class decides every family verdict
    def verdicts():
        res = run_cli("verify", sweep, "--pmax", "30", "--format", "json")
        checks = json.loads(res.output)["checks"]
        assert len(checks) == 4 * 8 and all(c["modulus"] != "error" for c in checks)
        return res.exit_code, {c["pass"] for c in checks}

    assert verdicts() == (0, {True})
    point_class = congruences._point_class

    def flipped(x, p):
        sign, u, b = point_class(x, p)
        return -sign, u, b

    monkeypatch.setattr(congruences, "_point_class", flipped)
    assert verdicts() == (1, {False})


@pytest.mark.parametrize("kind", ["rv", "lemma2p", "sun-p4"])
def test_unknown_family_is_an_out_of_range_record(kind):
    r = execute_task((kind, (("family", "1/5"), ("p", 7))))
    assert not r.passed and r.modulus == "error"
    assert r.lhs_witness == "error: OutOfRange: family = 1/5 is not one of 1/2, 1/3, 1/4, 1/6"


def test_parameters_reproduce_check():
    r1 = verify_sun_p4(THIRD, 7)
    assert r1.parameters == {"family": THIRD, "p": 7}
    assert verify_sun_p4(**r1.parameters) == r1


def test_congruence_witness_relation():
    # for residue-witnessed checks, pass is literally witness equality
    for r in [verify_rv(HALF, 5), verify_sun_p4(SIXTH, 7), verify_cc7(6, 5)]:
        assert r.passed == (r.lhs_witness == r.rhs_witness)


def test_cc_chain_holds_to_p_100():
    # module invariant: the whole chain extends to 5 <= p <= 100
    from scv.sweeps import SWEEPS, run_tasks

    results = run_tasks(SWEEPS["cc"].grid("all", 100))
    assert len(results) == 1400
    assert all(r.passed for r in results)


def test_sun_p4_holds_to_p_200():
    from scv.sweeps import SWEEPS, run_tasks

    results = run_tasks(SWEEPS["sun-p4"].grid(200))
    assert len(results) == 176
    assert all(r.passed for r in results)


def test_lemma2p_holds_to_p_400():
    from scv.sweeps import SWEEPS, run_tasks

    results = run_tasks(SWEEPS["lemma2p"].grid(400))
    assert len(results) == 304
    assert all(r.passed for r in results)


# The prefix walks take each sweep to O(p^2): these grids reach past the defaults.
@pytest.mark.parametrize(
    "sweep, args, checks",
    [
        ("rv", (2000,), 1204),
        ("lemma2p", (1000,), 664),
        ("sun-p4", (400,), 304),
        ("guo-bb1", (150, DEFAULT_BB1_X), 238),
    ],
    ids=["rv-2000", "lemma2p-1000", "sun-p4-400", "guo-bb1-150"],
)
def test_walked_sweep_holds(sweep, args, checks):
    results = run_tasks(SWEEPS[sweep].grid(*args))
    assert len(results) == checks
    assert sum(r.skipped for r in results) == (3 if sweep == "guo-bb1" else 0)
    assert all(r.passed for r in results if not r.skipped)


def test_skipped_result_shape():
    r = skipped_result("guo-bb1", {"x": "1/3", "p": 3}, "not a p-adic integer")
    assert r.skipped and not r.passed
    assert isinstance(r, CheckResult)
    d = r.to_dict()
    assert d["skipped"] is True and d["pass"] is False


@pytest.mark.parametrize(
    "verify, args",
    [
        (verify_rv, (HALF, 13)),
        (verify_lemma_2p, (THIRD, 13)),
        (verify_sun_p4, (QUARTER, 13)),
        (verify_guo_bb1, (Fraction(2, 5), 13)),
        (verify_cc5, (Fraction(-1, 2), 13)),
        (verify_cc7, (15, 13)),
        (verify_cc8_fact, (Fraction(-1, 3), 13)),
        (verify_cc9, (Fraction(-1, 4), 13)),
        (verify_cc10, (Fraction(-1, 6), 13)),
    ],
    ids=["rv", "lemma2p", "sun-p4", "guo-bb1", "cc5", "cc7", "cc8", "cc9", "cc10"],
)
def test_each_verifier_tests_the_prime_once(monkeypatch, verify, args):
    import scv.congruences as congruences
    import scv.exact_arith as exact_arith

    calls = []
    real = exact_arith.is_prime
    counting = lambda n: calls.append(n) or real(n)  # noqa: E731
    monkeypatch.setattr(exact_arith, "is_prime", counting)
    # also where a verifier might import it directly
    monkeypatch.setattr(congruences, "is_prime", counting, raising=False)
    assert verify(*args).passed
    assert calls == [13]


def test_public_prime_checks_still_validate():
    with pytest.raises(InvalidPrime):
        legendre(-1, 9)
    with pytest.raises(InvalidPrime):
        PAdicContext(9, 2)
    with pytest.raises(InvalidPrime):
        verify_guo_bb1(Fraction(1), 9)


def _walks_started(walk, points, grid) -> dict:
    """How often `grid` starts the cached `walk` at each point it walks."""
    walk.cache_clear()
    results = run_tasks(grid)
    assert results and all(r.passed for r in results)
    assert walk.cache_info().currsize == len(points)
    started = {point: walk(point).starts for point in points}
    walk.cache_clear()
    return started


def test_cc_grid_walks_weighted_s_squares_once_per_point():
    # cc5 and cc10 read sum_{k<p} (2k+1) s_k(x)^2 off one walk per x, for every p
    xs = [Fraction(x) for x in SUPPORTED_X]
    for which in ("cc5", "cc10"):
        started = _walks_started(sequences.s_square_walk, xs, SWEEPS["cc"].grid(which, 40))
        assert started == {x: 1 for x in xs}, which
    # the whole chain runs kind by kind, so each x's walk starts once for cc10, once for cc5
    started = _walks_started(sequences.s_square_walk, xs, SWEEPS["cc"].grid("all", 40))
    assert started == {x: 2 for x in xs}


def test_lemma2p_grid_walks_rv_terms_once_per_family():
    points = list(RV_FAMILIES.values())
    started = _walks_started(sequences.rv_walk, points, SWEEPS["lemma2p"].grid(200))
    assert started == {a: 1 for a in points}


def test_cc_rows_match_comb_sums_as_written():
    # every p, not only primes: the int rows of one walk over k, over p!, against the Horner
    # rows in u = t + t^2 and the sum over k as written
    walk = congruences._cc_rows.__wrapped__()
    for p, (rows, den) in cc_row_sums(300):
        assert cc_rows_horner(p) == (rows, den), p
        assert tuple(row * den for row in walk.prefix(p)) == rows, p
    assert walk.starts == 1
    cc_rows_horner.cache_clear()
