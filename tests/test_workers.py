"""`run_tasks` on forked workers: the same results as in process, and no worker left behind."""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import scv.sweeps as sweeps
from scv.sweeps import SWEEPS, run_tasks


@pytest.fixture(autouse=True)
def two_cpus(monkeypatch):
    # two usable CPUs whatever the host has, so jobs=2 forks two workers
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
def test_forked_slices_equal_the_in_process_run(grid):
    tasks = list(SWEEPS[grid[0]].grid(*grid[1:]))
    # forked first, so the in-process run has not filled the caches the workers start from
    forked = run_tasks(tasks, jobs=2)
    assert forked == run_tasks(tasks)
    assert [(r.check_name, r.parameters) for r in forked] == [
        (kind, dict(kv)) for kind, kv in tasks
    ]


def test_grids_reach_the_cases_they_are_named_for():
    def tasks(name):
        return list(SWEEPS[GRIDS[name][0]].grid(*GRIDS[name][1:]))

    cc = tasks("cc all")
    cut = len(cc) // 2
    assert dict(cc[cut - 1][1])["p"] == dict(cc[cut][1])["p"]  # the slices split one p
    assert any(r.skipped for r in run_tasks(tasks("guo-bb1 with a skipped x")))
    assert len(tasks("three tasks")) == 3


_LARGE_SLICES = """
import json, os, pickle
import scv.sweeps as sweeps

os.sched_getaffinity = lambda pid: {0, 1}
tasks = list(sweeps.SWEEPS["identity"].grid("all", None))
forked = sweeps.run_tasks(tasks, jobs=2)
cut = len(tasks) // 2
sizes = [len(pickle.dumps(forked[:cut])), len(pickle.dumps(forked[cut:]))]
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
    # a worker whose slice exceeds a 64 KiB pipe buffer blocks until the parent reads it
    assert max(sizes) > 65536


_FAILING_WORKER = """
import json, os, sys
import pytest
import scv.sweeps as sweeps

mode = sys.argv[1]
tasks = list(sweeps.SWEEPS["identity"].grid("liu26", 9))
liu26 = sweeps.KINDS["liu26"]


def refuse():
    raise ValueError("refused")


class Unpicklable:
    def __reduce__(self):
        return (refuse, ())


def check(s):
    if mode == "exit-first" and s == 1 or mode == "exit-second" and s == 7:
        os._exit(3)
    record = liu26(s=s)
    return record._replace(modulus=Unpicklable()) if mode == "unpickle" and s == 8 else record


real_fork = os.fork
forks = []


def fork():
    forks.append(1)
    if mode == "fork-fails" and len(forks) == 2:
        raise BlockingIOError("no more processes")
    return real_fork()


with pytest.MonkeyPatch.context() as mp:
    mp.setattr(sweeps.os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    mp.setattr(sweeps.os, "fork", fork)
    mp.setitem(sweeps.KINDS, "liu26", check)
    if sys.argv[2:]:  # the same tasks through `scv verify ...`, which exits here
        import scv.cli

        scv.cli.main(sys.argv[2:])
    try:
        outcome = ["returned", len(sweeps.run_tasks(tasks, jobs=2))]
    except Exception as exc:
        outcome = [type(exc).__name__, str(exc)]
try:
    left = os.waitpid(-1, os.WNOHANG)
except ChildProcessError:
    left = None
print(json.dumps([outcome, left, len(forks)]))
"""


_FAILURES = [
    ("exit-first", "RuntimeError", "the worker on tasks 0..4 of 10 exited with status 3"),
    ("exit-second", "RuntimeError", "the worker on tasks 5..9 of 10 exited with status 3"),
    ("unpickle", "RuntimeError", "the worker on tasks 5..9 of 10 sent a result that does not"
                                 " unpickle: ValueError('refused')"),
    ("fork-fails", "BlockingIOError", "no more processes"),
]


@pytest.mark.parametrize("mode, error, message", _FAILURES)
def test_a_failing_worker_raises_and_leaves_no_child(mode, error, message):
    outcome, left, forks = _fresh(_FAILING_WORKER, mode)
    assert outcome == [error, message]  # raised, so no partial list came back
    assert left is None  # every worker was reaped
    assert forks == 2


@pytest.mark.parametrize("mode, error, message", _FAILURES)
def test_a_failing_worker_ends_the_cli_run_with_an_error_line(mode, error, message):
    proc = subprocess.run(
        [sys.executable, "-c", _FAILING_WORKER, mode,
         "verify", "identity", "--name", "liu26", "--max", "9", "--jobs", "2"],
        env={**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parent.parent / "src")},
        capture_output=True, text=True, timeout=30,
    )
    # no traceback: one line on stderr, no report, exit 1
    assert (proc.returncode, proc.stdout, proc.stderr) == (1, "", f"Error: --jobs 2: {message}\n")
