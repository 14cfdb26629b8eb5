"""What a fresh interpreter loads: `scv verify` imports only the code its checks run.

Each test starts its own `python` with PYTHONPATH=src, because the test
session itself has already imported every scv module.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"

POOL = ("concurrent.futures", "multiprocessing")
LAZY_SCV = ("scv.identities", "scv.integrality", "scv.poly")


def _fresh(code: str) -> object:
    """Run `code` in a new interpreter; it must print one JSON value last."""
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    return json.loads(proc.stdout.splitlines()[-1])


def _loaded_after(code: str, watched: tuple[str, ...] = (*POOL, *LAZY_SCV)) -> list[str]:
    return _fresh(
        f"import json, sys\n{code}\n"
        f"print(json.dumps([m for m in {json.dumps(watched)} if m in sys.modules]))"
    )


def test_cli_import_loads_no_pool_and_no_polynomial_code():
    assert _loaded_after("import scv.cli") == []


def test_cli_import_loads_no_click_and_no_dataclasses():
    assert _loaded_after("import scv.cli", ("click", "dataclasses", "inspect")) == []


def test_cli_runs_without_site_packages():
    # -S: no site-packages on the path, so the run needs nothing but the standard library
    proc = subprocess.run(
        [sys.executable, "-S", "-m", "scv.cli", "verify", "guo-bb1", "--pmax", "7",
         "--x", "-1/5", "--x", "2/3", "--format", "json"],
        env={**os.environ, "PYTHONPATH": str(SRC)}, capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["invocation"]["x"] == ["-1/5", "2/3"]


def test_program_report_into_a_pipe_is_whole():
    # stdout is a pipe, not a file, and the program exits with its collector frozen
    proc = subprocess.run(
        [sys.executable, "-m", "scv.cli", "verify", "identity", "--name", "all",
         "--format", "json"],
        env={**os.environ, "PYTHONPATH": str(SRC)}, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert len(json.loads(proc.stdout)["checks"]) == 3244


@pytest.mark.parametrize("argv, code", [
    (["verify", "rv", "--pmax", "7"], 0),
    (["verify", "rv", "--pmax", "4"], 2),
    (["--version"], 0),
], ids=["passing-run", "usage-error", "version"])
def test_program_exit_freezes_the_collector_before_atexit(argv, code):
    # as `python -m scv.cli`: main() with no argv, then the interpreter's exit
    proc = subprocess.run(
        [sys.executable, "-c",
         "import atexit, gc, runpy, sys\n"
         "atexit.register(lambda: print('frozen', gc.get_freeze_count() > 0))\n"
         f"sys.argv = ['scv', *{argv!r}]\n"
         "runpy.run_module('scv.cli', run_name='__main__')"],
        env={**os.environ, "PYTHONPATH": str(SRC)}, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == code, proc.stderr
    assert proc.stdout.splitlines()[-1] == "frozen True"


# what a run of scv has no use for: the parser and the json writer need neither
UNUSED_STDLIB = ("argparse", "gettext", "locale", "json")
SCRIPT = "import scv.cli\nscv.cli.main()"  # as the `scv` script: main() with no argv
AS_MODULE = "import runpy\nrunpy.run_module('scv.cli', run_name='__main__')"  # python -m scv.cli


def _program(argv: list[str], launch: str = SCRIPT, flags: tuple[str, ...] = ()) -> tuple:
    """Run scv on argv as a program, by default as the `scv` script does: main() with no argv.

    Returns the process, its stdout and stderr together, and the modules it loaded after the
    interpreter's start, each mapped to the module whose code imported it first, printed by
    an exit handler whose probe imports no json itself. `flags` go to the interpreter.
    """
    proc = subprocess.run(
        [sys.executable, *flags, "-c",
         "import atexit, sys\n"
         "before, importers = set(sys.modules), {}\n"
         "class Importers:  # finds nothing: it notes the module whose code asks\n"
         "    def find_spec(name, path=None, target=None):\n"
         "        frame = sys._getframe(1)\n"
         "        while frame.f_globals['__name__'].startswith('importlib'):\n"
         "            frame = frame.f_back\n"
         "        importers.setdefault(name, frame.f_globals['__name__'])\n"
         "sys.meta_path.insert(0, Importers)\n"
         "atexit.register(lambda: print('loaded', *(\n"
         "    f'{m}<{importers.get(m)}' for m in sorted(set(sys.modules) - before))))\n"
         f"sys.argv = ['scv', *{argv!r}]\n"
         f"{launch}"],
        env={**os.environ, "PYTHONPATH": str(SRC)}, capture_output=True, text=True, timeout=60,
    )
    output, loaded = proc.stdout.rsplit("loaded", 1)
    return proc, output + proc.stderr, dict(m.split("<", 1) for m in loaded.split())


# what the interpreter's core does not load and no json or text run needs: site loads them
# on some hosts, so only a run under -S shows that scv does not
HEAVY_STDLIB = ("typing", "pathlib", "re")


@pytest.mark.parametrize("argv, code, shown, table", [
    (["--version"], 0, "scv, version 0.1.0\n", False),
    (["--help"], 0, "usage: scv [-h] [--version] verify ...\n", False),
    (["verify", "cc", "--help"], 0, "usage: scv verify cc ", True),
    (["verify", "sun-p4", "--pmax", "3"], 2,
     "Error: Invalid value for '--pmax': 3 is not in the range 5<=x<=1000000\n", True),
], ids=["version", "top-help", "help", "usage-error"])
def test_runs_that_check_nothing_load_no_arithmetic(argv, code, shown, table):
    # as the scv script does, and as python -m scv.cli (which runs the CLI as __main__) with and
    # without site: only argv that names verify loads the sweep table
    launches = [(SCRIPT, (), ["scv.cli"]), (AS_MODULE, (), []), (AS_MODULE, ("-S",), [])]
    for launch, flags, cli in launches:
        proc, output, loaded = _program(argv, launch, flags)
        assert proc.returncode == code, proc.stderr
        assert shown in output
        assert [m for m in loaded if m == "scv" or m.startswith("scv.")] == [
            "scv", *cli, *["scv.sweeps"] * table
        ]
        unused = ("fractions", "decimal", *UNUSED_STDLIB, *HEAVY_STDLIB)
        assert [m for m in unused if m in loaded] == [], (launch, flags)


def test_json_run_loads_no_argparse_and_no_json_package():
    # as `python -m scv.cli`: the report's strings are escaped by _json, the C part json binds
    proc, output, loaded = _program(
        ["verify", "sun-p4", "--pmax", "7", "--format", "json"], AS_MODULE
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(output)["summary"] == {"fail": 0, "pass": 8, "skipped": 0}
    assert "scv.report" in loaded
    assert [m for m in UNUSED_STDLIB if m in loaded] == []


# what no verify run needs: rationals are int pairs, so neither fractions nor what it loads
RATIONAL_STDLIB = ("fractions", "decimal", "_decimal", "_pydecimal", "numbers")


@pytest.mark.parametrize("flags", [(), ("-S",)], ids=["site", "no-site"])
@pytest.mark.parametrize("argv", [
    ["rv", "--pmax", "7", "--format", "json"],
    ["lemma2p", "--pmax", "7", "--format", "json"],
    ["sun-p4", "--pmax", "7", "--format", "json"],
    ["guo-bb1", "--pmax", "7", "--x", "-1/5", "--x", "2/-6", "--x", "3", "--format", "json"],
    ["cc", "--pmax", "11", "--format", "json"],
    ["identity", "--name", "all", "--max", "2", "--format", "json"],
    ["integrality", "--nmax", "2", "--mmax", "2", "--format", "json"],
    ["schmidt", "--nmax", "2", "--mmax", "2", "--format", "json"],
    ["guo-bb1", "--pmax", "7", "--format", "text"],
    ["cc", "--pmax", "7", "--format", "csv"],
    ["rv", "--pmax", "7", "--format", "text"],
    ["lemma2p", "--pmax", "7", "--format", "text"],
    ["sun-p4", "--pmax", "7", "--format", "text"],
    ["cc", "--pmax", "11", "--format", "text"],
    ["identity", "--name", "all", "--max", "2", "--format", "text"],
    ["integrality", "--nmax", "2", "--mmax", "2", "--format", "text"],
    ["schmidt", "--nmax", "2", "--mmax", "2", "--format", "text"],
], ids=lambda argv: f"{argv[0]}-{argv[-1]}")
def test_verify_runs_load_no_fractions(argv, flags):
    # nor, but for the re that the csv writer's csv imports, typing, pathlib or re
    proc, output, loaded = _program(["verify", *argv], AS_MODULE, flags)
    assert proc.returncode == 0, output  # every check passed, and at least one ran
    assert [m for m in RATIONAL_STDLIB if m in loaded] == []
    heavy = {m: loaded[m] for m in HEAVY_STDLIB if m in loaded}
    assert heavy.items() <= ({"re": "csv"} if argv[-1] == "csv" else {}).items()


def test_library_modules_import_no_fractions():
    result = _fresh(
        "import json, sys\n"
        "import scv.cli, scv.congruences, scv.identities, scv.integrality, scv.poly\n"
        "import scv.report, scv.sequences\n"
        "print(json.dumps([m for m in ('fractions', 'decimal', 'numbers') if m in sys.modules]))"
    )
    assert result == []


def test_congruence_sweep_loads_no_polynomial_code():
    loaded = _loaded_after(
        "import contextlib, io, scv.cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    rc = scv.cli.main(['verify', 'rv', '--pmax', '7'], standalone_mode=False)\n"
        "assert rc == 0, rc"
    )
    assert [m for m in loaded if m in LAZY_SCV] == []


@pytest.mark.parametrize("name", ["cc4", "bb4-direct"])
def test_integer_identities_load_no_polynomial_code(name):
    loaded = _loaded_after(
        "import contextlib, io, scv.cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    rc = scv.cli.main(\n"
        f"        ['verify', 'identity', '--name', {name!r}, '--max', '2'], standalone_mode=False\n"
        "    )\n"
        "assert rc == 0, rc"
    )
    assert [m for m in loaded if m in LAZY_SCV] == ["scv.identities"]


def test_parallel_sweep_forks_without_a_pool_module():
    # two usable CPUs whatever the host has, so --jobs 2 forks one worker and runs a slice itself
    loaded = _loaded_after(
        "import contextlib, io, os, scv.cli\n"
        "os.sched_getaffinity = lambda pid: {0, 1}\n"
        "fork, forks = os.fork, []\n"
        "os.fork = lambda: forks.append(1) or fork()\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    rc = scv.cli.main(\n"
        "        ['verify', 'sun-p4', '--pmax', '13', '--jobs', '2'], standalone_mode=False\n"
        "    )\n"
        "assert rc == 0, rc\n"
        "assert forks == [1], forks",
        (*POOL, "pickle"),
    )
    assert loaded == []  # the worker's results came back as marshal data, through no pool


def test_schmidt_sweep_loads_no_polynomial_code():
    loaded = _loaded_after(
        "import contextlib, io, scv.cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    rc = scv.cli.main(\n"
        "        ['verify', 'schmidt', '--nmax', '2', '--mmax', '2'], standalone_mode=False\n"
        "    )\n"
        "assert rc == 0, rc"
    )
    assert [m for m in loaded if m in LAZY_SCV] == ["scv.integrality"]


@pytest.mark.parametrize("argv", [
    ["--version"],
    ["verify", "integrality", "--nmax", "2", "--mmax", "2"],
    ["verify", "schmidt", "--nmax", "2", "--mmax", "2"],
    ["verify", "identity", "--name", "all", "--max", "2"],
], ids=["version", "integrality", "schmidt", "identity"])
def test_runs_without_congruence_checks_load_no_congruence_code(argv):
    loaded = _loaded_after(
        "import contextlib, io, scv.cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    rc = scv.cli.main({argv!r}, standalone_mode=False)  # --version returns 0\n"
        "assert rc == 0, rc",
        ("scv.congruences",),
    )
    assert loaded == []


@pytest.mark.parametrize("argv, module", [
    (["sun-p4", "--pmax", "13"], "scv.congruences"),
    (["identity", "--name", "liu26", "--max", "8"], "scv.identities"),
    (["integrality", "--nmax", "2", "--mmax", "2"], "scv.integrality"),
], ids=["sun-p4", "identity", "integrality"])
def test_parallel_sweep_loads_its_verifier_module_before_forking(argv, module):
    # loaded while the grid is read, so the forked worker inherits it instead of importing it
    seen = _fresh(
        "import contextlib, io, json, os, sys, scv.cli\n"
        "os.sched_getaffinity = lambda pid: {0, 1}\n"
        "fork, seen = os.fork, []\n"
        f"os.fork = lambda: seen.append({module!r} in sys.modules) or fork()\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    rc = scv.cli.main(['verify', *{argv!r}, '--jobs', '2'], standalone_mode=False)\n"
        "assert rc == 0, rc\n"
        "print(json.dumps(seen))"
    )
    assert seen == [True]


def test_verifiers_are_looked_up_by_name_in_their_module_at_each_task():
    before, witnesses = _fresh(
        "import json, os, sys\n"
        "import scv.sweeps as sweeps\n"
        "before = [m for m in ('scv.congruences', *LAZY) if m in sys.modules]\n"
        "os.sched_getaffinity = lambda pid: {0, 1}\n"
        "grid = sweeps.SWEEPS['identity'].grid\n"
        "tasks = [*grid('liu26', 1), *grid('cc4', 1)]  # a --jobs 2 worker runs both liu26 tasks\n"
        "first = list(sweeps.run_tasks(tasks))\n"
        "from scv import identities\n"
        "liu26, pid = identities.check_liu26, os.getpid()\n"
        "where = lambda: 'this process' if os.getpid() == pid else 'a worker'\n"
        "identities.check_liu26 = lambda s: liu26(s=s)._replace(lhs_witness=where())\n"
        "runs = [first, list(sweeps.run_tasks(tasks)), list(sweeps.run_tasks(tasks, jobs=2))]\n"
        "print(json.dumps([before, [[r.lhs_witness for r in run[:3]] for run in runs]]))"
        .replace("LAZY", repr(LAZY_SCV))
    )
    assert before == []  # importing the table loads no verifier module
    # the verifier replaced in its module runs from the next task on, also in a forked worker
    assert witnesses == [
        ["1", "-1", "1"], ["this process", "this process", "1"], ["a worker", "a worker", "1"]
    ]


def test_public_api_resolves_after_lazy_import():
    result = _fresh(
        "import json, sys\n"
        "import scv\n"
        "before = 'scv.poly' in sys.modules\n"
        "unresolved = [n for n in scv.__all__ if getattr(scv, n, None) is None]\n"
        "namespace = {}\n"
        "exec('from scv import *', namespace)\n"
        "missing = sorted(set(scv.__all__) - set(namespace))\n"
        "try:\n"
        "    scv.no_such_name\n"
        "    unknown = 'resolved'\n"
        "except AttributeError as exc:\n"
        "    unknown = str(exc)\n"
        "print(json.dumps([before, unresolved, missing, unknown]))"
    )
    before, unresolved, missing, unknown = result
    assert before is False  # importing the package does not load scv.poly
    assert unresolved == [] and missing == []
    assert unknown == "module 'scv' has no attribute 'no_such_name'"
