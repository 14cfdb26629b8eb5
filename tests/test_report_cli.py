from __future__ import annotations

import contextlib
import csv
import gc
import importlib
import io
import json
import os
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path

import jsonschema
import pytest
from conftest import render, run_cli
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import check_sort_key_oracle

import scv.cli as cli
import scv.report
import scv.sweeps as sweeps
from scv import PRIME_LIMIT, UsageError, __version__, exact_arith
from scv import congruences, identities, integrality
from scv.cli import main
from scv.report import (
    CheckResult,
    REPORT_SCHEMA,
    RunReport,
    check_sort_key,
    exact_result,
)


def _check(name, params, passed=True, skipped=False):
    return CheckResult(
        check_name=name,
        parameters=params,
        passed=passed,
        lhs_witness="1",
        rhs_witness="1" if passed else "2",
        modulus="exact",
        skipped=skipped,
    )


def test_summary_partitions_checks():
    checks = [
        _check("a", {"p": 5}),
        _check("a", {"p": 7}, passed=False),
        _check("a", {"p": 11}, passed=False, skipped=True),
    ]
    report = RunReport("0", {}, checks)
    assert report.summary is None  # counted as the records are written
    render(report, "text")
    assert report.summary == {"pass": 1, "fail": 1, "skipped": 1}
    assert sum(report.summary.values()) == len(checks)


def test_check_sort_key_is_canonical_and_numeric():
    checks = [
        _check("b", {"p": 5}),
        _check("a", {"p": 101}),
        _check("a", {"p": 7}),
        _check("a", {"p": 11}),
        _check("a", {"p": 11, "x": "-1/2"}),
        _check("a", {"p": 11, "x": "-1/3"}),
    ]
    ordered = sorted(checks, key=check_sort_key)
    assert [(c.check_name, c.parameters) for c in ordered] == [
        ("a", {"p": 7}),
        ("a", {"p": 11}),
        ("a", {"p": 11, "x": "-1/2"}),
        ("a", {"p": 11, "x": "-1/3"}),
        ("a", {"p": 101}),
        ("b", {"p": 5}),
    ]
    import random

    shuffled = checks[:]
    random.Random(5).shuffle(shuffled)
    assert sorted(shuffled, key=check_sort_key) == ordered


@settings(deadline=None)  # what is checked is the string, not its time
@given(st.lists(st.tuples(
    st.sampled_from(["a", "b"]),
    st.dictionaries(
        st.sampled_from(["m", "n", "p", "side", "x"]),
        st.one_of(st.integers(), st.booleans(), st.text(max_size=3)),
    ),
)))
def test_sort_key_matches_its_oracle(records):
    # the flat key and the oracle's nested one differ in shape, so what must agree is the
    # order each induces: every pair compares the same way, and so the sorts agree
    checks = [_check(name, params) for name, params in records]
    keys = [check_sort_key(c) for c in checks]
    oracle = [check_sort_key_oracle(c) for c in checks]
    assert [[(a < b, a == b) for b in keys] for a in keys] == [
        [(a < b, a == b) for b in oracle] for a in oracle
    ]
    order = sorted(range(len(checks)), key=keys.__getitem__)
    assert order == sorted(range(len(checks)), key=oracle.__getitem__)


def test_render_json_deterministic_and_schema_valid():
    checks = [_check("a", {"p": 5}), _check("b", {"x": "-1/2"}, skipped=True, passed=False)]
    reordered = sorted(reversed(checks), key=check_sort_key_oracle)  # the report's order
    r1 = RunReport(__version__, {"subcommand": "verify rv"}, checks, 1.25)
    r2 = RunReport(__version__, {"subcommand": "verify rv"}, reordered, 1.25)
    text = render(r1, "json")
    assert text == render(r2, "json")
    jsonschema.validate(json.loads(text), REPORT_SCHEMA)


def test_render_csv_and_text():
    checks = [_check("a", {"p": 5}), _check("a", {"p": 7}, passed=False)]
    rows = list(csv.reader(io.StringIO(render(RunReport(__version__, {}, checks, 0.5), "csv"))))
    assert rows[0][0] == "check_name"
    assert len(rows) == 3
    assert rows[1][2] == "true" and rows[2][2] == "false"
    text = render(RunReport(__version__, {}, checks, 0.5), "text")
    assert "PASS a p=5" in text
    assert "FAIL a p=7" in text
    assert "1 passed, 1 failed, 0 skipped" in text


def test_cli_rv_small_sweep():
    res = run_cli("verify", "rv", "--pmax", "30")
    assert res.exit_code == 0
    assert "32 passed, 0 failed, 0 skipped" in res.output


def test_cli_json_schema_all_subcommands():
    invocations = [
        ("verify", "rv", "--pmax", "11"),
        ("verify", "lemma2p", "--pmax", "7"),
        ("verify", "sun-p4", "--pmax", "7"),
        ("verify", "guo-bb1", "--pmax", "5", "--x", "1/3", "--x", "0"),
        ("verify", "cc", "--which", "cc7", "--pmax", "7"),
        ("verify", "identity", "--name", "liu26", "--max", "4"),
        ("verify", "integrality", "--nmax", "2", "--mmax", "1"),
        ("verify", "schmidt", "--nmax", "2", "--mmax", "2"),
    ]
    for args in invocations:
        res = run_cli(*args, "--format", "json")
        assert res.exit_code == 0, res.output
        payload = json.loads(res.output)
        jsonschema.validate(payload, REPORT_SCHEMA)
        assert payload["version"] == __version__
        assert payload["summary"]["fail"] == 0


def test_cli_guo_bb1_skips_non_padic_points():
    res = run_cli(
        "verify", "guo-bb1", "--pmax", "5", "--x", "1/3", "--x", "0",
        "--format", "json",
    )
    assert res.exit_code == 0
    payload = json.loads(res.output)
    assert payload["summary"] == {"pass": 3, "fail": 0, "skipped": 1}
    skipped = [c for c in payload["checks"] if c["skipped"]]
    assert skipped[0]["parameters"] == {"p": 3, "x": "1/3"}


def test_cli_all_skipped_run_is_a_usage_error(tmp_path):
    # 1/3 is not a 3-adic integer, so p = 3 alone would pass having decided nothing
    out = tmp_path / "x.json"
    res = run_cli("verify", "guo-bb1", "--pmax", "3", "--x", "1/3", "--out", str(out))
    assert res.exit_code == 2, res.output
    assert isinstance(res.exception, SystemExit)  # a usage error, no traceback
    assert "every check these bounds select is skipped" in res.output
    assert not out.exists()
    res = run_cli("verify", "guo-bb1", "--pmax", "5", "--x", "1/3", "--out", str(out))
    assert res.exit_code == 0, res.output
    assert "1 passed, 0 failed, 1 skipped" in res.output


def test_cli_guo_bb1_names_each_point_canonically():
    res = run_cli("verify", "guo-bb1", "--pmax", "7", "--x", "2/6", "--format", "json")
    assert res.exit_code == 0, res.output
    payload = json.loads(res.output)
    assert payload["invocation"]["x"] == ["1/3"]
    assert payload["summary"] == {"pass": 2, "fail": 0, "skipped": 1}
    assert {c["parameters"]["x"] for c in payload["checks"]} == {"1/3"}
    # a repeat of the same point, in any spelling, runs no check twice
    again = run_cli(
        "verify", "guo-bb1", "--pmax", "7", "--x", "2/6", "--x", "1/3", "--format", "json"
    )
    assert _stripped(json.loads(again.output)) == _stripped(payload)


def test_cli_x_is_read_as_ints_a_and_b():
    # 10^4300 has 4301 digits, past int()'s limit: a usage error, not a failed record
    res = run_cli("verify", "guo-bb1", "--pmax", "3", "--x", "1e4300")
    assert res.exit_code == 2, res.output
    assert isinstance(res.exception, SystemExit)  # a usage error, no traceback
    for decimal in ("1.5", "1e3"):
        assert run_cli("verify", "guo-bb1", "--x", decimal).exit_code == 2
    # a 4300-digit numerator parses, and its canonical form parses again in the task
    big = "1" + "0" * 4299
    res = run_cli("verify", "guo-bb1", "--pmax", "5", "--x", f"{big}/7", "--format", "json")
    assert res.exit_code == 0, res.output
    payload = json.loads(res.output)
    assert payload["summary"] == {"pass": 2, "fail": 0, "skipped": 0}
    assert {c["parameters"]["x"] for c in payload["checks"]} == {f"{big}/7"}


def test_cli_integrality_single_point():
    res = run_cli("verify", "integrality", "--nmax", "1", "--mmax", "1", "--format", "json")
    assert res.exit_code == 0
    payload = json.loads(res.output)
    assert len(payload["checks"]) == 2  # eps = +1 and -1
    assert payload["summary"]["pass"] == 2


def test_cli_identity_counts():
    res = run_cli("verify", "identity", "--name", "liu26", "--max", "60", "--format", "json")
    assert res.exit_code == 0
    payload = json.loads(res.output)
    assert len(payload["checks"]) == 61
    assert payload["summary"]["pass"] == 61


def test_cli_exit_code_on_failure(monkeypatch):
    monkeypatch.setattr(
        identities, "check_liu26", lambda s: _check("liu26", {"s": s}, passed=False)
    )
    res = run_cli("verify", "identity", "--name", "liu26", "--max", "2")
    assert res.exit_code == 1
    assert "0 passed, 3 failed" in res.output


def test_cli_usage_errors():
    assert run_cli("verify", "nonsense").exit_code == 2
    assert run_cli("verify", "rv", "--bogus").exit_code == 2
    assert run_cli("verify", "cc", "--which", "cc99").exit_code == 2
    assert run_cli("verify", "guo-bb1", "--x", "abc").exit_code == 2


@pytest.mark.parametrize(
    "args,config,code",
    [
        (("rv", "--pmax", "4"), None, 2),
        (("guo-bb1", "--pmax", "2"), None, 2),
        (("integrality", "--nmax", "0"), None, 2),
        (("schmidt", "--mmax", "0"), None, 2),
        (("identity", "--max", "-3"), None, 2),
        (("identity", "--name", "telescope", "--max", "0"), None, 2),
        (("identity", "--name", "cc1", "--max", "0"), None, 0),
        (("rv",), "pmax=abc\n", 2),
        (("rv", "--pmax", "11"), "jobs=0\n", 2),
        (("guo-bb1", "--pmax", "5"), "x=1/3, 1e3\n", 2),
        (("guo-bb1", "--pmax", "3"), "x=4/2\n", 0),
    ],
)
def test_cli_bounds_checked_before_work(tmp_path, args, config, code):
    argv = ["verify", *args, "--format", "json"]
    if config is not None:
        (tmp_path / "scv.cfg").write_text(config)
        argv += ["--config", str(tmp_path / "scv.cfg")]
    res = run_cli(*argv)
    assert res.exit_code == code, res.output
    if code == 2:
        assert isinstance(res.exception, SystemExit)  # a usage error, no traceback
        assert "Error:" in res.output
    else:
        assert len(json.loads(res.output)["checks"]) == 1


@pytest.mark.parametrize("sweep", ["rv", "lemma2p", "sun-p4", "guo-bb1", "cc"])
def test_cli_oversized_pmax_is_usage_error_before_any_work(monkeypatch, sweep):
    # a PMAX past the desk scale would first allocate its whole prime sieve
    ran = []

    def no_sieve(lo, hi):
        raise AssertionError(f"a sieve to {hi} was built")

    for kind in ("rv", "lemma2p", "sun-p4", "guo-bb1", "cc5", "cc7"):
        monkeypatch.setattr(congruences, sweeps.KINDS[kind][1], lambda **p: ran.append(p))
    monkeypatch.setattr(exact_arith, "primes_in_range", no_sieve)  # where each grid imports it
    res = run_cli("verify", sweep, "--pmax", str(PRIME_LIMIT + 1))
    assert res.exit_code == 2, res.output
    assert isinstance(res.exception, SystemExit)  # a usage error, no MemoryError traceback
    assert f"{PRIME_LIMIT + 1} is not in the range" in res.output
    assert ran == []
    assert run_cli("verify", sweep, "--pmax", str(10**11)).exit_code == 2
    assert ran == []


@pytest.mark.parametrize("error", [ValueError, RuntimeError])
def test_cli_raising_check_is_reported_failure(monkeypatch, error):
    def boom(s):
        raise error(f"boom at s={s}")

    monkeypatch.setattr(identities, "check_liu26", boom)
    res = run_cli("verify", "identity", "--name", "liu26", "--max", "1", "--format", "json")
    assert res.exit_code == 1, res.output
    payload = json.loads(res.output)
    jsonschema.validate(payload, REPORT_SCHEMA)
    assert payload["summary"] == {"pass": 0, "fail": 2, "skipped": 0}
    first = payload["checks"][0]
    assert first["parameters"] == {"s": 0} and first["pass"] is False
    assert first["lhs_witness"] == f"error: {error.__name__}: boom at s=0"
    assert first["modulus"] == "error"


# one small point per sweep; together their grids reach every task kind
_SMALL_GRIDS = {
    "rv": {"pmax": 5},
    "lemma2p": {"pmax": 5},
    "sun-p4": {"pmax": 5},
    "guo-bb1": {"pmax": 5, "x": ("1/3",)},
    "cc": {"which": "all", "pmax": 5},
    "identity": {"name": "all", "max": 1},
    "integrality": {"nmax": 1, "mmax": 1, "eps": "+1"},
    "schmidt": {"nmax": 1, "mmax": 1, "eps": "+1"},
}


def _first_task_of_each_kind() -> dict:
    # the first task of each kind whose check runs: a guo-bb1 point may be a skip
    first = {}
    for name, sweep in sweeps.SWEEPS.items():
        for task in sweep.grid(**_SMALL_GRIDS[name]):
            if task[0] not in first and not sweeps.execute_task(task).skipped:
                first[task[0]] = task
    return first


def test_every_kind_is_the_check_name_of_its_records():
    # every verifier takes its task's parameters as they are and prints them unchanged
    assert set(_first_task_of_each_kind()) == set(sweeps.KINDS)
    for name, sweep in sweeps.SWEEPS.items():
        for task in sweep.grid(**_SMALL_GRIDS[name]):
            record = sweeps.execute_task(task)
            assert record.modulus != "error", (task, record.lhs_witness)
            assert record.check_name == task[0], task
            assert record.parameters == dict(task[1]), task
    skip = sweeps.execute_task(("guo-bb1", (("p", 3), ("x", "1/3"))))
    assert skip.skipped and skip.check_name == "guo-bb1"
    assert skip.lhs_witness == "x = 1/3 is not a p-adic integer for p = 3"


def test_every_kind_names_a_verifier_and_every_kind_a_grid_yields_has_one():
    for kind, (module, verifier) in sweeps.KINDS.items():
        assert callable(getattr(importlib.import_module(f"scv.{module}"), verifier)), kind
    for name, sweep in sweeps.SWEEPS.items():
        assert {kind for kind, _ in sweep.grid(**_SMALL_GRIDS[name])} <= set(sweeps.KINDS), name


# the nine congruence kinds, each with a point whose denominator p = 4 divides
_CONGRUENCE_POINTS = {
    "rv": {"family": "1/4"},
    "lemma2p": {"family": "1/4"},
    "sun-p4": {"family": "1/4"},
    "guo-bb1": {"x": "1/4"},
    "cc5": {"x": "-1/4"},
    "cc7": {"s": 4},
    "cc8-fact": {"x": "-1/4"},
    "cc9": {"x": "-1/4"},
    "cc10": {"x": "-1/4"},
}


@pytest.mark.parametrize("p", [4, 1])
@pytest.mark.parametrize("kind", _CONGRUENCE_POINTS)
def test_non_prime_p_is_an_error_for_every_congruence_kind(kind, p):
    params = {**_CONGRUENCE_POINTS[kind], "p": p}
    record = sweeps.execute_task(sweeps._task(kind, **params))
    assert record.check_name == kind and record.parameters == params
    assert not record.skipped and not record.passed
    assert record.lhs_witness.startswith(f"error: InvalidPrime: p = {p} ")
    assert record.modulus == "error"


@pytest.mark.parametrize("kind", sorted(sweeps.KINDS))
def test_error_record_is_filed_under_its_check_name(monkeypatch, kind):
    task = _first_task_of_each_kind()[kind]
    passing = sweeps.execute_task(task)
    assert passing.passed

    def boom(**params):
        raise RuntimeError("boom")

    module, verifier = sweeps.KINDS[kind]
    monkeypatch.setattr(importlib.import_module(f"scv.{module}"), verifier, boom)
    error = sweeps.execute_task(task)
    assert error.modulus == "error" and not error.passed
    assert error.check_name == passing.check_name


def test_run_tasks_caps_workers(monkeypatch):
    forks = []
    fork = sweeps.os.fork

    def counting_fork():
        forks.append(1)
        return fork()

    monkeypatch.setattr(sweeps.os, "fork", counting_fork)
    monkeypatch.setattr(sweeps.os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    monkeypatch.setattr(sweeps.os, "cpu_count", lambda: 2)
    tasks = list(sweeps.SWEEPS["identity"].grid("liu26", 4))
    assert sweeps.run_tasks(tasks, jobs=64) == sweeps.run_tasks(tasks)
    assert len(forks) == 1  # two workers: one forked, and this process
    sweeps.run_tasks(tasks[:1], jobs=64)
    assert len(forks) == 1  # one task runs in this process


def test_run_tasks_counts_only_the_cpus_it_may_use(monkeypatch):
    def no_fork():
        raise AssertionError("a worker was forked")

    monkeypatch.setattr(sweeps.os, "fork", no_fork)
    # pinned to one CPU of a larger host, as under `taskset -c 0`
    monkeypatch.setattr(sweeps.os, "sched_getaffinity", lambda pid: {0}, raising=False)
    monkeypatch.setattr(sweeps.os, "cpu_count", lambda: 64)
    tasks = list(sweeps.SWEEPS["identity"].grid("liu26", 4))
    assert sweeps.run_tasks(tasks, jobs=2) == [sweeps.execute_task(t) for t in tasks]


def test_cli_out_file(tmp_path):
    out = tmp_path / "report.json"
    res = run_cli("verify", "rv", "--pmax", "11", "--out", str(out), "--format", "json")
    assert res.exit_code == 0
    assert "wrote" in res.output
    payload = json.loads(out.read_text())
    jsonschema.validate(payload, REPORT_SCHEMA)
    assert payload["summary"]["pass"] == 12  # primes 5, 7, 11 x four families


def test_cli_out_with_no_directory_part_goes_into_the_working_directory(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    asked = []
    access = sweeps.os.access
    monkeypatch.setattr(
        sweeps.os, "access", lambda path, mode: asked.append((path, mode)) or access(path, mode)
    )
    res = run_cli("verify", "rv", "--pmax", "11", "--out", "report.json", "--format", "json")
    assert res.exit_code == 0, res.output
    assert res.output == "wrote report.json: 12 passed, 0 failed, 0 skipped\n"
    assert asked == [(".", sweeps.os.W_OK | sweeps.os.X_OK)]  # the working directory, asked once
    assert json.loads((tmp_path / "report.json").read_text())["invocation"]["out"] == "report.json"


def test_cli_out_in_missing_directory_rejected_before_work(tmp_path, monkeypatch):
    calls = []
    rv = congruences.verify_rv
    monkeypatch.setattr(congruences, "verify_rv", lambda **kw: calls.append(kw) or rv(**kw))
    res = run_cli("verify", "rv", "--pmax", "7", "--out", str(tmp_path / "missing" / "x.json"))
    assert res.exit_code == 2, res.output
    assert isinstance(res.exception, SystemExit)  # a usage error, no traceback
    assert "does not exist" in res.output
    res = run_cli("verify", "rv", "--pmax", "7", "--out", str(tmp_path))
    assert res.exit_code == 2, res.output
    assert isinstance(res.exception, SystemExit)  # a usage error, no IsADirectoryError traceback
    assert "is a directory" in res.output
    assert calls == []
    assert run_cli("verify", "rv", "--pmax", "7", "--out", str(tmp_path / "x.json")).exit_code == 0
    assert len(calls) == 8


def test_cli_out_in_unwritable_directory_rejected_before_work(tmp_path, monkeypatch):
    # as a user without write permission sees it: os.access denies what root would pass
    calls, asked = [], []
    rv = congruences.verify_rv
    monkeypatch.setattr(congruences, "verify_rv", lambda **kw: calls.append(kw) or rv(**kw))
    monkeypatch.setattr(sweeps.os, "access", lambda path, mode: asked.append((path, mode)) or False)
    res = run_cli("verify", "rv", "--pmax", "7", "--out", str(tmp_path / "new.json"))
    assert res.exit_code == 2, res.output
    assert isinstance(res.exception, SystemExit)  # a usage error, no PermissionError traceback
    assert "is not writable" in res.output
    # the directory the file goes in, as the text --out gives it
    assert asked == [(str(tmp_path), sweeps.os.W_OK | sweeps.os.X_OK)]
    assert calls == [] and not (tmp_path / "new.json").exists()


@pytest.mark.parametrize("argv,message", [
    (["--out", ""], "'' names no file"),
    (["--out="], "'' names no file"),
    (["--config", "out.cfg"], "'' names no file"),  # its one line: out=
    (["--out", "no such dir/r.json"], "directory 'no such dir' does not exist"),
    (["--out", "."], "'.' is a directory or is not writable"),
], ids=["empty", "empty-after-equals", "empty-in-config", "missing-directory", "directory"])
def test_cli_out_that_names_no_writable_file_is_refused_with_its_path_quoted(
    tmp_path, monkeypatch, argv, message
):
    calls = []
    rv = congruences.verify_rv
    monkeypatch.setattr(congruences, "verify_rv", lambda **kw: calls.append(kw) or rv(**kw))
    monkeypatch.chdir(tmp_path)
    (tmp_path / "out.cfg").write_text("out=\n")
    res = run_cli("verify", "rv", "--pmax", "7", *argv)
    assert res.exit_code == 2, res.output
    assert isinstance(res.exception, SystemExit)  # a usage error, no traceback
    assert res.output == f"Error: Invalid value for '--out': {message}\n"
    assert calls == []


def _cache_sizes():
    """The number of entries of every cache of every loaded scv module, by its full name."""
    return {
        f"{name}.{key}": value.cache_info().currsize
        for name, module in list(sys.modules.items()) if name.partition(".")[0] == "scv"
        for key, value in vars(module).items() if hasattr(value, "cache_clear")
    }


@pytest.mark.parametrize("jobs", [2])  # on one worker a run holds no records, so keeps its caches
def test_a_cli_sweep_empties_every_cache_before_its_report_is_built(tmp_path, monkeypatch, jobs):
    swept, reported = {}, {}
    run_tasks, run_report = sweeps.run_tasks, scv.report.RunReport

    def spy_run_tasks(*args, **kwargs):
        checks = run_tasks(*args, **kwargs)
        swept.update(_cache_sizes())
        return checks

    def spy_run_report(*args, **kwargs):
        reported.update(_cache_sizes())
        return run_report(*args, **kwargs)

    monkeypatch.setattr(sweeps, "run_tasks", spy_run_tasks)
    monkeypatch.setattr(scv.report, "RunReport", spy_run_report)
    # the records a run on more than one worker holds; run_tasks keeps what it filled in this
    # process, the last slice (cc's runs cc7, cc8-fact and cc9)
    names = ("identities._side_values", "identities._f_values", "sequences.ds_pairs")
    runs = [(["cc", "--which", "all", "--pmax", "13"], ("congruences._cc_rows",), 96),
            (["identity", "--name", "all"], names, 3244)]
    for args, names, checks in runs:
        swept.clear()
        reported.clear()
        out = tmp_path / "r.json"
        argv = ["verify", *args, "--jobs", str(jobs), "--format", "json", "--out", str(out)]
        assert main(argv, standalone_mode=False) == 0
        for name in (*names, "sweeps._load"):
            assert swept[f"scv.{name}"] > 0, name
        assert reported.keys() == swept.keys()
        assert {name for name, size in reported.items() if size} == set()
        assert json.loads(out.read_text())["summary"] == {"pass": checks, "fail": 0, "skipped": 0}


def test_equal_sides_share_one_witness():
    joined = "".join(["[1, ", "2]"])  # equal to "[1, 2]", but another object
    for lhs, rhs in [(10**40, 10**40), ("[1, 2]", joined)]:
        r = exact_result("x", {}, lhs, rhs)
        assert r.passed and r.lhs_witness == str(lhs) and r.lhs_witness is r.rhs_witness
    r = identities.check_bb4_direct(7, 9)
    assert r.passed and r.lhs_witness is r.rhs_witness
    for lhs, rhs in [(10**40, 10**40 + 1), ("[1, 2]", "[1, 3]"), (3, "3")]:
        r = exact_result("x", {}, lhs, rhs)
        assert not r.passed and (r.lhs_witness, r.rhs_witness) == (str(lhs), str(rhs))


def test_cli_report_that_cannot_be_written_is_one_error_line(tmp_path, monkeypatch):
    out = tmp_path / "r.txt"

    class Full(io.StringIO):  # the --out file, whose first write finds the device full
        def write(self, text):
            raise OSError(28, "No space left on device")

    opened = []

    def open_full(path, mode):
        opened.append((path, mode))
        return Full()

    monkeypatch.setattr(cli, "open", open_full, raising=False)  # shadows the builtin in scv.cli
    res = run_cli("verify", "rv", "--pmax", "7", "--out", str(out))
    assert res.exit_code == 1, res.output
    assert isinstance(res.exception, SystemExit)  # no OSError traceback
    assert res.output == f"Error: could not write to {out}: [Errno 28] No space left on device\n"
    assert opened == [(str(out), "w")]


@pytest.mark.parametrize("to", ["out", "stdout"])
@pytest.mark.parametrize("format", ["json", "text", "csv"])
def test_cli_writes_the_bytes_render_gives(tmp_path, monkeypatch, format, to):
    guo_bb1 = congruences.verify_guo_bb1

    def check(x, p):
        if (x, p) == ("-1/2", 5):
            raise ValueError("no \u00e9t\u00e9 at \u03c0")
        return guo_bb1(x=x, p=p)

    monkeypatch.setattr(congruences, "verify_guo_bb1", check)
    written, kept = [], []
    write = scv.report.write_report

    def keep(report, format, out):
        kept.extend(report.checks)  # the run's records, kept to write again
        report.checks = iter(kept)
        written.append(report)
        write(report, format, out)

    monkeypatch.setattr(scv.report, "write_report", keep)
    out = tmp_path / f"report.{format}"
    argv = ["verify", "guo-bb1", "--pmax", "7", "--x", "1/3", "--x", "-1/2", "--format", format]
    stdout = io.TextIOWrapper(io.BytesIO(), encoding="utf-8")
    with contextlib.redirect_stdout(stdout):
        code = main([*argv, "--out", str(out)] if to == "out" else argv, standalone_mode=False)
    assert code == 1
    (run_report,) = written
    assert run_report.summary == {"pass": 4, "fail": 1, "skipped": 1}  # 1/3 at p = 3 skips
    again = RunReport(run_report.tool_version, run_report.invocation, kept,
                      run_report.elapsed_seconds)
    text = io.StringIO()
    write(again, format, text)  # write_report itself, not the spy
    rendered = text.getvalue()
    assert "error: ValueError: no" in rendered
    if to == "stdout":
        assert stdout.buffer.getvalue() == rendered.encode("utf-8")
    else:  # as Path.write_text writes the whole text
        (tmp_path / "rendered").write_text(rendered)
        assert out.read_bytes() == (tmp_path / "rendered").read_bytes()


def _large_report_checks(name):
    if name == "identity-all":  # the many-small benchmark's json report
        return sweeps.run_tasks(sweeps.SWEEPS["identity"].grid("all", None))
    # short records in each format: the lines, not the witnesses, make the text long
    return [
        _check("a", {"n": n, "x": f"{n}/7"}, passed=n % 3 > 0, skipped=n % 5 == 0)
        for n in range(20000)
    ]


@pytest.mark.parametrize("name, format", [
    ("identity-all", "json"), ("records", "json"), ("records", "text"), ("records", "csv"),
])
def test_writing_a_report_holds_no_copy_of_its_text(name, format):
    checks = _large_report_checks(name)
    size = len(render(RunReport(__version__, {"subcommand": f"verify {name}"}, checks, 0.5), format))
    run_report = RunReport(__version__, {"subcommand": f"verify {name}"}, checks, 0.5)
    with open(os.devnull, "w") as sink:
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            scv.report.write_report(run_report, format, sink)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert peak < size / 4, (peak, size)


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs a device that refuses writes")
@pytest.mark.parametrize("argv, target", [
    (["verify", "rv", "--pmax", "7", "--out", "/dev/full"], "/dev/full"),
    (["verify", "rv", "--pmax", "7", "--format", "json"], "stdout"),
    (["verify", "rv", "--pmax", "7"], "stdout"),
    (["--version"], "stdout"),
], ids=["out", "json", "text", "version"])
def test_program_output_to_a_full_device_is_one_error_line(argv, target):
    # stdout too is the full device; a short write fails in the flush, not at the interpreter's exit
    src = Path(__file__).resolve().parent.parent / "src"
    with open("/dev/full", "w") as full:
        proc = subprocess.run(
            [sys.executable, "-m", "scv.cli", *argv], stdout=full, stderr=subprocess.PIPE,
            env={**os.environ, "PYTHONPATH": str(src)}, text=True, timeout=60,
        )
    assert proc.returncode == 1
    assert proc.stderr == f"Error: could not write to {target}: [Errno 28] No space left on device\n"


def test_cli_schmidt_over_term_limit_rejected_before_work(monkeypatch):
    calls = []
    kind = integrality.verify_schmidt_divisibility

    def counting(**kw):
        calls.append(kw)
        # a stand-in beyond n = 2, so a grid that is wrongly not refused still ends fast
        return kind(**kw) if kw["n"] <= 2 else _check("schmidt-divisibility", kw)

    monkeypatch.setattr(integrality, "verify_schmidt_divisibility", counting)
    res = run_cli("verify", "schmidt", "--nmax", "40", "--mmax", "5")
    assert res.exit_code == 2, res.output
    assert isinstance(res.exception, SystemExit)  # a usage error, no traceback
    assert "1086008 monomials" in res.output
    assert calls == []
    assert run_cli("verify", "schmidt", "--nmax", "2", "--mmax", "2").exit_code == 0
    assert len(calls) == 8


def _stripped(payload: dict) -> dict:
    payload = dict(payload)
    payload.pop("elapsed_seconds")
    return payload


def test_cli_reruns_identical_modulo_elapsed():
    first = run_cli("verify", "sun-p4", "--pmax", "13", "--format", "json")
    second = run_cli("verify", "sun-p4", "--pmax", "13", "--format", "json")
    assert _stripped(json.loads(first.output)) == _stripped(json.loads(second.output))


def test_cli_jobs_parallel_matches_sequential():
    seq = run_cli("verify", "cc", "--which", "cc8", "--pmax", "20", "--format", "json")
    par = run_cli(
        "verify", "cc", "--which", "cc8", "--pmax", "20", "--format", "json",
        "--jobs", "2",
    )
    assert seq.exit_code == par.exit_code == 0
    seq_payload, par_payload = json.loads(seq.output), json.loads(par.output)
    # scheduler-independent: identical checks in identical order
    assert seq_payload["checks"] == par_payload["checks"]
    assert seq_payload["summary"] == par_payload["summary"]


def test_cli_config_file(tmp_path):
    cfg = tmp_path / "scv.cfg"
    cfg.write_text("# defaults\npmax=11\nformat=json\n")
    res = run_cli("verify", "rv", "--config", str(cfg))
    assert res.exit_code == 0
    payload = json.loads(res.output)
    assert payload["invocation"]["pmax"] == 11
    # explicit flags beat config values
    res = run_cli("verify", "rv", "--config", str(cfg), "--pmax", "7", "--format", "json")
    payload = json.loads(res.output)
    assert payload["invocation"]["pmax"] == 7
    assert len(payload["checks"]) == 8


def test_cli_config_rejects_bad_lines(tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("pmax 11\n")
    assert run_cli("verify", "rv", "--config", str(cfg)).exit_code == 2


@pytest.mark.parametrize("line", ["pmx=11", "which=cc5"])
def test_cli_config_unknown_key_is_usage_error(tmp_path, monkeypatch, line):
    # a misspelt flag, and a flag of another subcommand (cc), are not options of rv
    def no_run(*args, **kwargs):
        raise AssertionError("a check ran")

    monkeypatch.setattr(sweeps, "run_tasks", no_run)
    cfg = tmp_path / "scv.cfg"
    cfg.write_text(f"# defaults\nformat=json\n{line}\n")
    res = run_cli("verify", "rv", "--config", str(cfg))
    assert res.exit_code == 2, res.output
    key = line.split("=")[0]
    assert f"{cfg}:3: '{key}' is not an option of rv" in res.output


def test_cli_config_flag_beats_config_max(tmp_path):
    cfg = tmp_path / "scv.cfg"
    cfg.write_text("max=60\n")
    res = run_cli(
        "verify", "identity", "--name", "liu26", "--max", "2",
        "--config", str(cfg), "--format", "json",
    )
    assert res.exit_code == 0
    assert len(json.loads(res.output)["checks"]) == 3


def test_cli_config_not_utf8_is_usage_error(tmp_path):
    cfg = tmp_path / "scv.cfg"
    cfg.write_bytes(b"pmax=\xff7\n")
    res = run_cli("verify", "rv", "--config", str(cfg))
    assert res.exit_code == 2, res.output
    error = f"Error: Invalid value for '--config': cannot read {str(cfg)!r}: 'utf-8' codec"
    assert error in res.output


def test_cli_config_directory_is_usage_error(tmp_path):
    res = run_cli("verify", "rv", "--config", str(tmp_path))
    assert res.exit_code == 2, res.output
    error = f"Error: Invalid value for '--config': cannot read {str(tmp_path)!r}: Is a directory"
    assert error in res.output


@pytest.mark.skipif(not os.path.isdir("/dev/fd"), reason="no /dev/fd to name a pipe by")
def test_cli_config_read_from_a_pipe():
    # as `--config <(echo pmax=7)` passes it
    read, write = os.pipe()
    os.write(write, b"pmax=7\nformat=json\n")
    os.close(write)
    try:
        res = run_cli("verify", "rv", "--config", f"/dev/fd/{read}")
    finally:
        os.close(read)
    assert res.exit_code == 0, res.output
    assert json.loads(res.output)["invocation"]["pmax"] == 7


def test_cli_config_bad_enum_is_usage_error(tmp_path):
    cfg = tmp_path / "scv.cfg"
    cfg.write_text("eps=sometimes\n")
    res = run_cli("verify", "schmidt", "--nmax", "1", "--config", str(cfg))
    assert res.exit_code == 2


def test_cli_main_main_returns_the_exit_code(tmp_path, monkeypatch):
    # the in-process form of `scv verify ...`: main.main(argv, prog_name, standalone_mode=False)
    argv = ["verify", "rv", "--pmax", "7", "--format", "json", "--out", str(tmp_path / "r.json")]
    with contextlib.redirect_stdout(io.StringIO()):
        passed = main.main(argv, prog_name="scv", standalone_mode=False)
        monkeypatch.setattr(congruences, "verify_rv", lambda **kw: _check("rv", kw, passed=False))
        failed = main.main(argv, prog_name="scv", standalone_mode=False)
    assert (type(passed), passed, type(failed), failed) == (int, 0, int, 1)
    with pytest.raises(UsageError, match="is not in the range"):
        main.main(["verify", "rv", "--pmax", "4"], prog_name="scv", standalone_mode=False)


def test_in_process_runs_leave_the_collector_unfrozen(tmp_path):
    # only the program's own exit freezes; a caller of main(argv) keeps its collector
    assert gc.get_freeze_count() == 0
    assert run_cli("verify", "identity", "--name", "cc4", "--max", "2").exit_code == 0
    assert run_cli("--version").exit_code == 0
    assert run_cli("verify", "rv", "--pmax", "4").exit_code == 2
    assert gc.get_freeze_count() == 0
    argv = ["verify", "rv", "--pmax", "7", "--out", str(tmp_path / "r.txt")]
    with contextlib.redirect_stdout(io.StringIO()):
        assert main.main(argv, prog_name="scv", standalone_mode=False) == 0
    assert gc.get_freeze_count() == 0


def test_cli_negative_x_needs_no_equals_sign():
    # a value that starts with "-" is still the value of the flag before it
    def report(*xs):
        res = run_cli("verify", "guo-bb1", "--pmax", "11", *xs, "--format", "json")
        assert res.exit_code == 0, res.output
        return re.sub(r'^  "elapsed_seconds": .*\n', "", res.output, flags=re.M)

    spaced = report("--x", "-1/5", "--x", "-8/11")
    assert spaced == report("--x=-1/5", "--x=-8/11")
    assert json.loads(spaced)["invocation"]["x"] == ["-1/5", "-8/11"]


def test_cli_help_lists_every_flag_with_default_and_range():
    def help_text(name):
        res = run_cli("verify", name, "--help")
        assert res.exit_code == 0, res.output
        return " ".join(res.output.split())

    for name, sweep in sweeps.SWEEPS.items():
        text = help_text(name)
        for flag in (*[o.name for o in sweep.options], "config", "jobs", "format", "out"):
            assert f"--{flag}" in text, (name, flag)
        assert "[default: 1; x>=1]" in text and "[default: text; json|csv|text]" in text
    assert "[default: 1200; 5<=x<=1000000]" in help_text("sun-p4")
    assert "[default: both; +1|-1|both]" in help_text("schmidt")


def test_cli_version():
    res = run_cli("--version")
    assert res.exit_code == 0 and __version__ in res.output
