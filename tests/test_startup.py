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

SRC = Path(__file__).resolve().parent.parent / "src"

POOL = "concurrent.futures.process"
LAZY_SCV = ("scv.identities", "scv.integrality", "scv.poly")


def _fresh(code: str) -> object:
    """Run `code` in a new interpreter; it must print one JSON value last."""
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    return json.loads(proc.stdout.splitlines()[-1])


def _loaded_after(code: str, watched: tuple[str, ...] = (POOL, *LAZY_SCV)) -> list[str]:
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


def test_congruence_sweep_loads_no_polynomial_code():
    loaded = _loaded_after(
        "import contextlib, io, scv.cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    rc = scv.cli.main(['verify', 'rv', '--pmax', '7'], standalone_mode=False)\n"
        "assert rc == 0, rc"
    )
    assert [m for m in loaded if m in LAZY_SCV] == []


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
