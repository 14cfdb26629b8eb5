"""`run_tasks` on forked workers: the same results as in process, and no worker left behind."""

from __future__ import annotations

import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import scv.sweeps as sweeps
from scv.sweeps import SWEEPS, run_tasks


@pytest.fixture(autouse=True)
def two_cpus(monkeypatch):
    # two usable CPUs whatever the host has, so jobs=2 forks one worker and runs a slice itself
    monkeypatch.setattr(sweeps.os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)


GRIDS = {
    "rv": ("rv", 60),
    "lemma2p": ("lemma2p", 60),
    "sun-p4": ("sun-p4", 60),
    "guo-bb1 with a skipped x": ("guo-bb1", 30, ("-1/5", "1/3", "2/7")),
    "cc all": ("cc", "all", 30),
    "three tasks": ("identity", "liu26", 2),
}


@pytest.mark.parametrize("grid", GRIDS.values(), ids=GRIDS)
def test_forked_slices_equal_the_in_process_run(grid, monkeypatch):
    tasks = list(SWEEPS[grid[0]].grid(*grid[1:]))
    # jobs=3 first: each run's last slice fills this process's caches, which later workers inherit
    monkeypatch.setattr(sweeps.os, "sched_getaffinity", lambda pid: {0, 1, 2}, raising=False)
    forked = run_tasks(tasks, jobs=3)
    assert run_tasks(tasks, jobs=2) == forked == run_tasks(tasks)
    assert [(r.check_name, r.parameters) for r in forked] == [
        (kind, dict(kv)) for kind, kv in tasks
    ]


def test_a_check_raising_in_this_process_slice_is_the_same_error_record(monkeypatch):
    liu26 = sweeps.KINDS["liu26"]

    def check(s):
        if s in (1, 8):  # one in the forked slice, one in the slice this process runs
            raise ValueError("refused")
        return liu26(s=s)

    monkeypatch.setitem(sweeps.KINDS, "liu26", check)
    tasks = list(SWEEPS["identity"].grid("liu26", 9))
    forked = run_tasks(tasks, jobs=2)
    assert forked == run_tasks(tasks)
    assert [r.lhs_witness for r in forked if not r.passed] == ["error: ValueError: refused"] * 2


def test_a_raising_check_prints_a_fraction_parameter_as_the_verifiers_do(monkeypatch):
    def check(x, p):
        raise ValueError("refused")

    monkeypatch.setitem(sweeps.KINDS, "cc5", check)
    tasks = [("cc5", (("x", Fraction(-1, 5)), ("p", p))) for p in (7, 11)]
    forked = run_tasks(tasks, jobs=2)
    assert forked == run_tasks(tasks)
    assert [r.parameters for r in forked] == [{"x": "-1/5", "p": 7}, {"x": "-1/5", "p": 11}]


@pytest.mark.parametrize("fork", [True, False], ids=["jobs-1", "jobs-2-without-fork"])
def test_one_worker_runs_each_task_as_the_grid_yields_it(monkeypatch, fork):
    yielded, ran = [], []

    def grid():
        for s in range(3):
            yielded.append(s)
            yield ("liu26", (("s", s),))

    execute = sweeps.execute_task
    monkeypatch.setattr(
        sweeps, "execute_task", lambda task: ran.append((task, len(yielded))) or execute(task)
    )
    if not fork:
        monkeypatch.delattr(sweeps.os, "fork")
    results = run_tasks(grid(), jobs=1 if fork else 2)
    # task s ran when the grid had yielded s + 1 tasks: task 0 before task 1 was made
    assert [(dict(kv)["s"], seen) for (_, kv), seen in ran] == [(0, 1), (1, 2), (2, 3)]
    assert results == [execute(task) for task, _ in ran]


def test_grids_reach_the_cases_they_are_named_for():
    def tasks(name):
        return list(SWEEPS[GRIDS[name][0]].grid(*GRIDS[name][1:]))

    cc = tasks("cc all")
    cut = len(cc) // 2
    assert dict(cc[cut - 1][1])["p"] == dict(cc[cut][1])["p"]  # the slices split one p
    assert any(r.skipped for r in run_tasks(tasks("guo-bb1 with a skipped x")))
    assert len(tasks("three tasks")) == 3


_LARGE_SLICES = """
import json, marshal, os
import scv.sweeps as sweeps

os.sched_getaffinity = lambda pid: {0, 1}
tasks = list(sweeps.SWEEPS["identity"].grid("all", None))
forked = sweeps.run_tasks(tasks, jobs=2)
cut = len(tasks) // 2
sizes = [len(marshal.dumps([tuple(r) for r in part])) for part in (forked[:cut], forked[cut:])]
print(json.dumps([len(tasks), forked == sweeps.run_tasks(tasks), sizes]))
"""


def _fresh(code, *args):
    # in a child process, so a run that hangs fails its test instead of the whole run
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parent.parent / "src")}
    proc = subprocess.run(
        [sys.executable, "-c", code, *args],
        env=env, capture_output=True, text=True, check=True, timeout=30,
    )
    return json.loads(proc.stdout)


def test_slices_larger_than_a_pipe_buffer_do_not_deadlock():
    count, equal, sizes = _fresh(_LARGE_SLICES)
    assert count == 3244 and equal
    # the forked worker's slice exceeds a 64 KiB pipe buffer, so it blocks until
    # the parent has run its own slice and reads the pipe
    assert sizes[0] > 65536


_FAILING_WORKER = """
import json, marshal, os, sys, time
import pytest
import scv.sweeps as sweeps

mode, jobs = sys.argv[1], int(sys.argv[2])
tasks = list(sweeps.SWEEPS["identity"].grid("liu26", 9))
liu26 = sweeps.KINDS["liu26"]


def short_dump(value, file):  # only workers dump: each one's result arrives cut short
    file.write(marshal.dumps(value)[:-1])


def check(s):
    # with 10 tasks, jobs=2 forks a worker on s = 0..4, and jobs=3 one on 0..2 and one on 3..5;
    # this process runs the last slice
    if mode == "exit-first" and s == 1 or mode == "exit-second" and s == 4:
        os._exit(3)
    if mode == "interrupt" and s == 1:  # the worker is still running when the parent stops
        time.sleep(60)
    if mode == "interrupt" and s == 9:
        raise KeyboardInterrupt
    return liu26(s=s)


real_fork = os.fork
forks = []


def fork():
    forks.append(1)
    if mode == "fork-fails" and len(forks) == 2:
        raise BlockingIOError("no more processes")
    return real_fork()


with pytest.MonkeyPatch.context() as mp:
    mp.setattr(sweeps.os, "sched_getaffinity", lambda pid: set(range(jobs)), raising=False)
    mp.setattr(sweeps.os, "fork", fork)
    mp.setitem(sweeps.KINDS, "liu26", check)
    if mode == "decode":
        mp.setattr(marshal, "dump", short_dump)
    if sys.argv[3:]:  # the same tasks through `scv verify ...`, which exits here
        import scv.cli

        scv.cli.main(sys.argv[3:])
    try:
        outcome = ["returned", len(sweeps.run_tasks(tasks, jobs=jobs))]
    except (Exception, KeyboardInterrupt) as exc:
        outcome = [type(exc).__name__, str(exc)]
try:
    left = os.waitpid(-1, os.WNOHANG)
except ChildProcessError:
    left = None
print(json.dumps([outcome, left, len(forks)]))
"""


_FAILURES = [
    ("exit-first", "RuntimeError", "the worker on tasks 0..4 of 10 exited with status 3"),
    ("exit-second", "RuntimeError", "the worker on tasks 3..5 of 10 exited with status 3"),
    ("decode", "RuntimeError", "the worker on tasks 0..4 of 10 sent a result that does not"
                               " decode: EOFError('EOF read where object expected')"),
    ("fork-fails", "BlockingIOError", "no more processes"),
]
# a second forked worker needs three workers, as the parent runs the last slice
_JOBS = {"exit-second": 3, "fork-fails": 3}


@pytest.mark.parametrize("mode, error, message", _FAILURES)
def test_a_failing_worker_raises_and_leaves_no_child(mode, error, message):
    jobs = _JOBS.get(mode, 2)
    outcome, left, forks = _fresh(_FAILING_WORKER, mode, str(jobs))
    assert outcome == [error, message]  # raised, so no partial list came back
    assert left is None  # every worker was reaped
    assert forks == jobs - 1  # the parent runs the last slice itself


def test_an_interrupt_in_this_process_slice_stops_the_worker():
    # the worker sleeps for a minute, so only a kill lets the run end within the timeout
    outcome, left, forks = _fresh(_FAILING_WORKER, "interrupt", "2")
    assert outcome == ["KeyboardInterrupt", ""]
    assert left is None
    assert forks == 1


@pytest.mark.parametrize("mode, error, message", _FAILURES)
def test_a_failing_worker_ends_the_cli_run_with_an_error_line(mode, error, message):
    jobs = _JOBS.get(mode, 2)
    proc = subprocess.run(
        [sys.executable, "-c", _FAILING_WORKER, mode, str(jobs),
         "verify", "identity", "--name", "liu26", "--max", "9", "--jobs", str(jobs)],
        env={**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parent.parent / "src")},
        capture_output=True, text=True, timeout=30,
    )
    # no traceback: one line on stderr, no report, exit 1
    assert (proc.returncode, proc.stdout, proc.stderr) == (
        1, "", f"Error: --jobs {jobs}: {message}\n"
    )
