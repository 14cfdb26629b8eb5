"""Every sweep's grid yields the report's order, so a run writes each record as its check returns.

A run on one worker holds none of its records: `scv.cli` writes each one as
it comes, and `report.write_report` checks that it sorts after the one
before it. These tests pin that every grid yields the canonical order, that
the caches the cc and guo-bb1 orders read build each value once, that a
record out of order ends the run as an error, and that the usage errors for
an empty or all-skipped grid still come before --out is opened.
"""

from __future__ import annotations

import contextlib
import io
import json

import pytest
from conftest import render, run_cli
from oracles import check_sort_key_oracle

import scv.sweeps as sweeps
from scv import congruences, sequences
from scv.cli import main
from scv.report import RunReport, skipped_result

# twelve guo-bb1 points out of text order: 2/6 is 1/3 written another way, and each point
# with an odd prime in its denominator is skipped at that prime
BB1_POINTS = ["5/7", "-2/3", "2/6", "0", "-5/11", "3/4", "7", "-1/2", "1/5", "-3/13", "2/9", "-4"]

# each sweep at small bounds, once per value of its choice options
ORDERED_RUNS = {
    "rv": [["--pmax", "40"]],
    "lemma2p": [["--pmax", "40"]],
    "sun-p4": [["--pmax", "40"]],
    "identity": [["--name", name, "--max", "3"] for name in [*sweeps.IDENTITIES, "all"]],
    "integrality": [["--nmax", "4", "--mmax", "2", "--eps", e] for e in ("+1", "-1", "both")],
    "schmidt": [["--nmax", "3", "--mmax", "2", "--eps", e] for e in ("+1", "-1", "both")],
    "cc": [["--which", which, "--pmax", "40"] for which in [*sweeps.CC_KINDS, "all"]],
    "guo-bb1": [["--pmax", "40"], ["--pmax", "30", *(a for x in BB1_POINTS for a in ("--x", x))]],
}


def test_every_ordered_sweep_is_covered():
    assert set(ORDERED_RUNS) == set(sweeps.SWEEPS)


@pytest.mark.parametrize("jobs", [1, 2])
@pytest.mark.parametrize("sweep, args", [
    (sweep, args) for sweep, runs in ORDERED_RUNS.items() for args in runs
], ids=lambda value: " ".join(value) if isinstance(value, list) else value)
def test_an_ordered_sweep_writes_its_records_in_report_order(tmp_path, sweep, args, jobs):
    tasks = list(sweeps.SWEEPS[sweep].grid(**_values(sweep, args)))
    out = tmp_path / "r.json"
    argv = ["verify", sweep, *args, "--jobs", str(jobs), "--format", "json", "--out", str(out)]
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(argv, standalone_mode=False) == 0
    checks = json.loads(out.read_text())["checks"]
    assert [(c["check_name"], sorted(c["parameters"].items())) for c in checks] == [
        (kind, sorted(kv)) for kind, kv in tasks
    ]  # the records are the grid's tasks, in the grid's order ...
    keys = [check_sort_key_oracle(_record(c)) for c in checks]
    assert keys == sorted(keys)  # ... which is the report's


def _values(sweep, args):
    """The option values of `args`, as scv.cli converts them: a repeatable flag collects."""
    options = {o.name: o for o in sweeps.SWEEPS[sweep].options}
    texts = {}
    for flag, text in zip(args[::2], args[1::2]):
        if options[flag[2:]].repeatable:
            texts.setdefault(flag[2:], []).append(text)
        else:
            texts[flag[2:]] = text
    return {name: o.convert(texts[name]) if name in texts else o.default
            for name, o in options.items()}


def test_cc_row_walk_starts_once_per_kind_that_reads_it():
    # cc5 and cc7 each read the rows p upward, so the one cursor restarts only when cc7 begins
    sweeps.clear_caches()
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["verify", "cc", "--which", "all", "--pmax", "40"],
                    standalone_mode=False) == 0
    assert congruences._cc_rows.cache_info().misses == 1
    assert congruences._cc_rows().starts == 2
    sweeps.clear_caches()


def test_guo_bb1_starts_each_points_walks_once():
    # p by p over twelve points: each point's two walks must stay cached from one p to the next
    sweeps.clear_caches()
    argv = ["verify", "guo-bb1", "--pmax", "40", *(a for x in BB1_POINTS for a in ("--x", x))]
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(argv, standalone_mode=False) == 0
    for walk in (sequences.s_square_walk, sequences.bb1_walk):
        assert walk.cache_info().misses == len(BB1_POINTS), walk.__name__
        assert [walk(x).starts for x in BB1_POINTS] == [1] * len(BB1_POINTS), walk.__name__
    sweeps.clear_caches()


def _record(check):
    return skipped_result(check["check_name"], check["parameters"], "")


def _swap_first_two(monkeypatch, sweep):
    grid = sweeps.SWEEPS[sweep].grid

    def swapped(**values):
        tasks = list(grid(**values))
        tasks[:2] = tasks[1::-1]
        return iter(tasks)

    monkeypatch.setitem(sweeps.SWEEPS, sweep, sweeps.SWEEPS[sweep]._replace(grid=swapped))


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_a_record_out_of_report_order_ends_the_run_with_an_error(tmp_path, monkeypatch, jobs):
    _swap_first_two(monkeypatch, "rv")
    res = run_cli("verify", "rv", "--pmax", "11", "--jobs", jobs)
    assert res.exit_code == 1, res.output
    assert isinstance(res.exception, SystemExit)  # no traceback
    error = "Error: the sweep gave rv family=1/2;p=5 after a record that sorts later\n"
    assert res.output == "PASS rv family=1/2;p=7\n" + error
    # with --out, the records before it stay written: a truncated report, never a wrong one
    out = tmp_path / "r.json"
    res = run_cli("verify", "rv", "--pmax", "11", "--jobs", jobs, "--format", "json",
                  "--out", str(out))
    assert (res.exit_code, res.output) == (1, error)
    assert out.read_text().count('"check_name"') == 1


def test_an_ordered_sweep_that_selects_no_checks_is_a_usage_error(tmp_path):
    out = tmp_path / "r.json"
    res = run_cli("verify", "identity", "--name", "telescope", "--max", "0", "--out", str(out))
    assert res.exit_code == 2, res.output
    assert res.output == "Error: these bounds select no checks\n"
    assert not out.exists()


def _skip_rv_below(monkeypatch, bound):
    verify_rv = congruences.verify_rv

    def check(family, p):
        if p < bound:
            return skipped_result("rv", {"family": family, "p": p}, "below the bound")
        return verify_rv(family=family, p=p)

    monkeypatch.setattr(congruences, "verify_rv", check)


def test_an_ordered_sweep_whose_checks_all_skip_is_a_usage_error(tmp_path, monkeypatch):
    _skip_rv_below(monkeypatch, 100)
    out = tmp_path / "r.json"
    res = run_cli("verify", "rv", "--pmax", "11", "--out", str(out))
    assert res.exit_code == 2, res.output
    assert res.output == "Error: every check these bounds select is skipped\n"
    assert not out.exists()


def test_skipped_records_held_before_the_first_decided_one_are_written(monkeypatch):
    _skip_rv_below(monkeypatch, 7)  # p = 5 skips in every family; only 1/2's comes first
    res = run_cli("verify", "rv", "--pmax", "7")
    assert res.exit_code == 0, res.output
    assert res.output.splitlines()[:3] == [
        "SKIP rv family=1/2;p=5 (below the bound)", "PASS rv family=1/2;p=7",
        "SKIP rv family=1/3;p=5 (below the bound)",
    ]
    assert res.output.splitlines()[-1].startswith("4 passed, 0 failed, 4 skipped in ")


def test_live_records_are_written_once():
    checks = sweeps.run_tasks(sweeps.SWEEPS["rv"].grid(pmax=11))
    for given in (iter(checks), checks):  # a list too is read once
        report = RunReport("0", {}, given)
        assert render(report, "text").startswith("PASS rv family=1/2;p=5\n")
        assert report.summary == {"pass": 12, "fail": 0, "skipped": 0}
        with pytest.raises(TypeError):  # not a report of no checks under the first one's summary
            render(report, "text")


@pytest.mark.parametrize("argv, count", [
    (["identity", "--name", "all"], 3244),
    (["cc", "--which", "all", "--pmax", "40"], 342),  # cc7 182, the other four kinds 40 each
    (["guo-bb1", "--pmax", "40"], 77),  # 11 odd primes, 7 points; 3 skipped
], ids=["identity", "cc", "guo-bb1"])
def test_a_streamed_run_writes_each_record_before_the_next_check(monkeypatch, argv, count):
    execute_task = sweeps.execute_task
    checked, written, most = [0], [0], [0]

    def spy(task):
        result = execute_task(task)
        checked[0] += 1
        most[0] = max(most[0], checked[0] - written[0])
        return result

    class Lines(io.StringIO):  # stdout, counting the report's lines as they are written
        def write(self, text):
            written[0] += text.count("\n")
            return super().write(text)

    monkeypatch.setattr(sweeps, "execute_task", spy)
    stdout = Lines()
    with contextlib.redirect_stdout(stdout):
        assert main(["verify", *argv, "--jobs", "1"], standalone_mode=False) == 0
    assert checked[0] == count and written[0] == count + 1  # each record's line, then the summary
    assert most[0] == 1  # no more than one record checked and not yet written, at any point
