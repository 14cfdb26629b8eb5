#!/usr/bin/env python3
"""Quick self-test of the benchmark on tiny grids (about a minute).

    python3 perfbench/selftest.py

It checks that:

* BENCHMARK.json names exactly the metrics run.py reports, with the same
  units and directions;
* every workload, run end to end on tiny grids, passes its correctness
  checks and prints every end-to-end metric with its unit, and the traced
  run prints every per-layer metric with its unit;
* `judge` counts each kind of violation: bad exit code, wrong check count,
  wrong skip count, failed check, report unlike its reference;
* the max RSS of a measured process does not include the benchmark's own;
* a deliberately broken copy of the program, whose sweeps drop one check,
  drives fail_ratio above 0. The copy lives in a temporary directory
  outside the checkout and is removed afterwards.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import run
import workloads
from reports import judge

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

_failures: list[str] = []


def expect(ok: bool, what: str) -> None:
    print(f"{'ok  ' if ok else 'FAIL'} {what}")
    if not ok:
        _failures.append(what)


def bench(root: Path, *args: str) -> dict:
    """Run the benchmark of the checkout at `root` on tiny grids; its last line."""
    cmd = [sys.executable, str(root / "perfbench" / "run.py"), "--seed", "7", "--seconds", "0", "--tiny", *args]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=300, cwd=root)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr[-3000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def check_declared_metrics() -> None:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for key, table in (("end_to_end", run.END_TO_END), ("per_layer", run.PER_LAYER)):
        declared = {m["name"]: (m["unit"], m["better"]) for m in spec[key]}
        expect(declared == table, f"BENCHMARK.json {key} matches run.py ({len(table)} metrics)")
    expect([w["name"] for w in spec["workloads"]] == list(workloads.WORKLOAD_NAMES),
           "BENCHMARK.json workloads match workloads.py")


def check_metrics_printed() -> None:
    for name in workloads.WORKLOAD_NAMES:
        out = bench(ROOT, "--workload", name, "--trace", "0")
        units = {k: v["unit"] for k, v in out["metrics"].items()}
        expect(units == {k: u for k, (u, _) in run.END_TO_END.items()},
               f"{name}: every end-to-end metric printed with its unit")
        expect(out["correct"] and out["failed"] == 0 and out["attempted"] > 0,
               f"{name}: {out['attempted']} checks attempted, none failed")
    out = bench(ROOT, "--workload", "congruence", "--trace", "1")
    units = {k: v["unit"] for k, v in out["metrics"].items()}
    expect(units == {k: u for k, (u, _) in run.PER_LAYER.items()},
           "traced run: every per-layer metric printed with its unit")
    expect(out["correct"] and out["failed"] == 0, "traced run: verdicts agree and counts repeat")


def check_judge() -> None:
    inv = workloads.Invocation(("rv", "--pmax", "13"), "csv", checks=3, skipped=0)
    header = "check_name,parameters,pass,skipped,lhs_witness,rhs_witness,modulus\n"
    row = "rv,family=1/2;p={p},{ok},{skip},1,1,{p}^2\n"
    good = header + "".join(row.format(p=p, ok="true", skip="false") for p in (5, 7, 11))
    ref = judge(inv, 0, good, None)[0].digest
    cases = {
        "clean report": (0, good, 0),
        "exit code 1": (1, good, 1),
        "missing check": (0, header + row.format(p=5, ok="true", skip="false") * 2, 2),
        "failed check": (0, good.replace("true,false,1,1,11", "false,false,1,1,11"), 2),
        "unexpected skip": (0, good.replace("true,false,1,1,11", "false,true,1,1,11"), 2),
        "no report": (0, None, 1),
    }
    for label, (rc, text, want) in cases.items():
        _, bad, problems = judge(inv, rc, text, ref)
        expect(bad == want, f"judge, {label}: {bad} failed operations ({'; '.join(problems) or 'none'})")


def check_rss_is_the_childs() -> None:
    ballast = bytearray(64 * 2**20)  # this process's peak RSS now exceeds 64 MB
    run.check_checkout()
    launcher = run.Launcher()
    try:
        proc = launcher.spawn(["-c", "pass"], run.WORK / "selftest.stderr")
    finally:
        launcher.close()
    expect(proc.rss_mb < 48, f"a bare interpreter's max RSS is its own ({proc.rss_mb:.1f} MB < 48 MB)")
    del ballast


def check_broken_program() -> None:
    with tempfile.TemporaryDirectory(prefix="perfbench-selftest-") as tmp:
        copy = Path(tmp)
        shutil.copytree(ROOT / "src", copy / "src", ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copytree(HERE, copy / "perfbench", ignore=shutil.ignore_patterns("__pycache__", "results"))
        sweeps = copy / "src" / "scv" / "sweeps.py"
        text = sweeps.read_text()
        needle = "return sort_checks(results)"
        if needle not in text:
            expect(False, f"broken copy: {needle!r} not found in sweeps.py, cannot break it")
            return
        sweeps.write_text(text.replace(needle, needle + "[:-1]"))
        out = bench(copy, "--workload", "many-small", "--trace", "0")
        ratio = out["failed"] / out["attempted"]
        expect(not out["correct"] and ratio > 0,
               f"broken copy that drops a check: fail_ratio {ratio:.4g} > 0")


def main() -> int:
    check_declared_metrics()
    check_judge()
    check_rss_is_the_childs()
    check_metrics_printed()
    check_broken_program()
    print(f"{len(_failures)} self-test failures")
    return 1 if _failures else 0


if __name__ == "__main__":
    sys.exit(main())
