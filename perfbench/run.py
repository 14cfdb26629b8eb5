#!/usr/bin/env python3
"""Benchmark of `scv verify`, end to end and per layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --all [--seed N] [--seconds S] [--save FILE]

Run from anywhere; the program is `src/scv` of the checkout that holds this
file, run as `python -m scv.cli` with PYTHONPATH pointing there.

--trace 0 runs the workload's invocations as CLI subprocesses, pass after
pass, for S seconds (at least MIN_PASSES passes) and prints the end-to-end
metrics as medians over the passes. Every pass is checked: exit code 0, the
grid's known check count, no failed check, the expected skip count, and a
report digest equal to the first pass (for `parallel`, to a `congruence`
pass with the same seed).

--trace 1 runs the traced in-process pass (tracer.py) over the congruence,
polynomial and many-small grids twice, an untraced reference pass, and one
subprocess pass, and prints the per-layer metrics. Verdicts of all of them
must agree and the counts of the two traced passes must repeat exactly.

--all runs every workload both ways and prints one table; --save writes it
as a results file.

The last line of output is one JSON object: correct, attempted, failed and
metrics. Everything before it is for people.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from time import perf_counter

import workloads
from reports import judge

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
TRACER = Path(__file__).resolve().parent / "tracer.py"
LAUNCH = Path(__file__).resolve().parent / "launch.py"

SETUP_SAMPLES = 15
IMPORT_SAMPLES = 9
MIN_PASSES = 3
CALIB_TERMS = 3000
CALIB_REPEATS = 3
CALIB_REF_S = 0.012  # the loop's time on a fast phase of a 2-CPU Xeon VM

JOBS = {"parallel": 2}  # processes a workload's program runs at once

END_TO_END = {
    "wall_s": ("s", "lower"),
    "cpu_s": ("s", "lower"),
    "checks_per_s": ("1/s", "higher"),
    "setup_s": ("s", "lower"),
    "peak_rss_mb": ("MB", "lower"),
}


def _layer_units() -> dict[str, tuple[str, str]]:
    units: dict[str, tuple[str, str]] = {}

    def add(name: str, unit: str, better: str = "lower") -> None:
        units[name] = (unit, better)

    for f in ("padic_valuation", "congruent", "mod_reduce", "is_prime"):
        add(f"exact_arith.{f}.calls", "count")
    add("exact_arith.padic_valuation.self_s", "s")
    add("sequences.columns.calls", "count")
    add("sequences.columns.self_s", "s")
    add("sequences.columns.useful_ratio", "ratio", "higher")
    add("sequences.polys.self_s", "s")
    for kind in ("UniPoly", "MultiPoly"):
        add(f"poly.{kind}.mul.calls", "count")
        add(f"poly.{kind}.mul.self_s", "s")
    add("poly.newton_coefficients.self_s", "s")
    add("poly.MultiPoly.terms_max", "count")
    for c in ("rv", "lemma2p", "sun-p4", "guo-bb1", "cc5", "cc7", "cc8", "cc9", "cc10"):
        add(f"congruences.verify.{c}.calls", "count")
        add(f"congruences.verify.{c}.self_s", "s")
    add("identities.check.calls", "count")
    add("identities.check.self_s", "s")
    add("identities.eval_bb4_side.calls", "count")
    add("integrality.verify_integer_valued.self_s", "s")
    add("integrality.verify_schmidt_divisibility.self_s", "s")
    for cache in ("sequences.pair_binomial_poly", "identities.eval_bb4_side", "integrality._ds_power"):
        add(f"{cache}.hits", "count", "higher")
        add(f"{cache}.misses", "count")
        add(f"{cache}.hit_ratio", "ratio", "higher")
    add("sweeps.run_tasks.s", "s")
    add("sweeps.dispatch_overhead_s", "s")
    add("sweeps.jobs2_efficiency", "ratio", "higher")
    add("report.sort_checks.s", "s")
    for f in ("json", "text", "csv"):
        add(f"report.render_{f}.s", "s")
    add("report.render_json.bytes", "bytes")
    add("cli.import_s", "s")
    add("cli.overhead_s", "s")
    add("trace.overhead_s", "s")
    add("host.calib_s", "s")
    return units


PER_LAYER = _layer_units()


@dataclass
class Proc:
    rc: int
    wall: float
    cpu: float
    rss_mb: float


@dataclass
class Tally:
    """Checks attempted and operations failed; each problem is printed as it is found."""

    attempted: int = 0
    failed: int = 0

    def add(self, attempted: int, failed: int, problems: list[str]) -> None:
        self.attempted += attempted
        self.failed += failed
        for p in problems:
            print(f"FAIL {p}", flush=True)


class Launcher:
    """The launch.py process through which every measured process starts.

    Measured processes are started from that small process, not from this
    one, so their max RSS is not raised to this process's peak.
    """

    def __init__(self) -> None:
        env = {**os.environ, "PYTHONPATH": str(SRC)}
        self.proc = subprocess.Popen(
            [sys.executable, str(LAUNCH)],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True, env=env, cwd=ROOT,
        )

    def spawn(self, argv: list[str], stderr_path: Path) -> Proc:
        """Run `python argv` against the checkout's src and reap it with wait4.

        wait4 returns the child's rusage, which includes the pool workers it
        reaped, so cpu and max RSS cover the whole process tree.
        """
        request = {"argv": [sys.executable, *argv], "stderr": str(stderr_path)}
        self.proc.stdin.write(json.dumps(request) + "\n")
        self.proc.stdin.flush()
        reply = self.proc.stdout.readline()
        if not reply:
            raise SystemExit(f"the process launcher exited with code {self.proc.wait()}")
        return Proc(*json.loads(reply))

    def close(self) -> None:
        self.proc.stdin.close()
        self.proc.wait()


_launcher: Launcher | None = None  # started and closed by main()


def spawn(argv: list[str], stderr_path: Path) -> Proc:
    return _launcher.spawn(argv, stderr_path)


def _calib_loop() -> float:
    best = float("inf")
    for _ in range(CALIB_REPEATS):
        start = perf_counter()
        acc = Fraction(0)
        for k in range(1, CALIB_TERMS):
            acc += Fraction(1, k)
        best = min(best, perf_counter() - start)
    return best


def calibrate(procs: int) -> float:
    """Time a fixed pure-Python Fraction loop in `procs` processes at once.

    Returns the mean of their best-of-CALIB_REPEATS times. Loading as many
    CPUs as the measured program uses makes the reading follow the speed
    of those CPUs.
    """
    helpers = []
    for _ in range(procs - 1):
        r, w = os.pipe()
        pid = os.fork()
        if pid == 0:
            try:
                os.close(r)
                os.write(w, repr(_calib_loop()).encode())
            finally:
                os._exit(0)
        os.close(w)
        helpers.append((pid, r))
    times = [_calib_loop()]
    for pid, r in helpers:
        with os.fdopen(r) as pipe:
            times.append(float(pipe.read()))
        os.waitpid(pid, 0)
    return statistics.fmean(times)


class Clock:
    """Scales measured times to the reference host speed.

    A shared host's speed can swing by half within seconds. The calibration
    loop is timed before and after every measured process, and the
    process's times are multiplied by CALIB_REF_S over the mean of the two,
    which reads about the same on a fast and a slow phase. The loop runs in
    the benchmark's own processes, never in the program, so a change to the
    program cannot move the scale.
    """

    def __init__(self, procs: int) -> None:
        self.procs = procs
        self.last = calibrate(procs)
        self.samples = [self.last]

    def scale(self) -> float:
        """Calibrate again; the factor for what ran since the last call."""
        now = calibrate(self.procs)
        self.samples.append(now)
        factor = CALIB_REF_S / ((self.last + now) / 2)
        self.last = now
        return factor


@dataclass
class Pass:
    wall: float  # at reference speed, summed over the invocations
    cpu: float  # at reference speed
    raw_wall: float
    rss_mb: float
    checks: int
    digests: list[str | None]


def run_pass(
    invs: list[workloads.Invocation], refs: list[str | None], tally: Tally, clock: Clock
) -> Pass:
    """Run the invocations one after another; judge the reports after the clock stops."""
    procs, scales = [], []
    for i, inv in enumerate(invs):
        out = WORK / f"{i}.{inv.fmt}"
        out.unlink(missing_ok=True)
        procs.append(spawn(["-m", "scv.cli", *inv.argv(str(out))], WORK / f"{i}.stderr"))
        scales.append(clock.scale())
    digests, checks = [], 0
    for i, (inv, proc) in enumerate(zip(invs, procs)):
        out = WORK / f"{i}.{inv.fmt}"
        parsed, bad, problems = judge(inv, proc.rc, out.read_text() if out.exists() else None, refs[i])
        if proc.rc != 0:
            problems.append((WORK / f"{i}.stderr").read_text()[-2000:])
        tally.add(inv.checks, bad, problems)
        digests.append(parsed.digest if parsed else None)
        checks += parsed.checks if parsed else 0
    return Pass(
        wall=sum(p.wall * f for p, f in zip(procs, scales)),
        cpu=sum(p.cpu * f for p, f in zip(procs, scales)),
        raw_wall=sum(p.wall for p in procs),
        rss_mb=max(p.rss_mb for p in procs),
        checks=checks,
        digests=digests,
    )


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def check_checkout() -> None:
    if not (SRC / "scv" / "cli.py").is_file():
        raise SystemExit(f"no scv program at {SRC / 'scv'}; run from a checkout of the repository")
    WORK.mkdir(exist_ok=True)


def setup_times(tally: Tally, clock: Clock, samples: int) -> tuple[list[float], list[float]]:
    """(scaled, raw) wall times of `scv --version`."""
    scaled, raw = [], []
    for _ in range(samples):
        proc = spawn(["-m", "scv.cli", "--version"], WORK / "version.stderr")
        if proc.rc != 0:
            tally.add(0, 1, [f"scv --version: exit code {proc.rc}"])
        scaled.append(proc.wall * clock.scale())
        raw.append(proc.wall)
    return scaled, raw


def end_to_end(name: str, seed: int, seconds: float, tiny: bool = False) -> dict:
    invs = workloads.invocations(name, seed, tiny)
    tally = Tally()
    spawn(["-m", "scv.cli", "--version"], WORK / "version.stderr")  # writes the bytecode caches
    setup, raw_setup = setup_times(tally, Clock(1), SETUP_SAMPLES)
    clock = Clock(JOBS.get(name, 1))
    refs: list[str | None] = [None] * len(invs)
    if name == "parallel":
        refs = run_pass(workloads.invocations("congruence", seed, tiny), refs, tally, clock).digests
    passes: list[Pass] = []
    deadline = perf_counter() + seconds
    while len(passes) < MIN_PASSES or perf_counter() < deadline:
        p = run_pass(invs, refs, tally, clock)
        if refs[0] is None:
            refs = p.digests
        passes.append(p)
    series = {
        "wall_s": [p.wall for p in passes],
        "cpu_s": [p.cpu for p in passes],
        "checks_per_s": [p.checks / p.wall for p in passes],
        "setup_s": setup,
        "peak_rss_mb": [p.rss_mb for p in passes],
    }
    stats = {k: quartiles(v) for k, v in series.items()}
    return {
        "workload": name,
        "tally": tally,
        "metrics": {k: s[1] for k, s in stats.items()},
        "context": {
            "seed": seed,
            "seconds": seconds,
            "passes": len(passes),
            "setup_samples": len(setup),
            "quartiles": {k: [s[0], s[2]] for k, s in stats.items()},
            "raw_wall_s": quartiles([p.raw_wall for p in passes]),
            "raw_setup_s": quartiles(raw_setup),
            "host.calib_s": quartiles(clock.samples),
            "calib_ref_s": CALIB_REF_S,
            "invocations": [" ".join(["scv", *inv.argv("REPORT")]) for inv in invs],
        },
    }


def _tracer(mode: str, seed: int, tiny: bool, tally: Tally) -> dict:
    out = WORK / f"tracer-{mode}.json"
    out.unlink(missing_ok=True)
    argv = [str(TRACER), "--mode", mode, "--seed", str(seed), "--out", str(out)]
    proc = spawn(argv + ["--tiny"] * tiny, WORK / f"tracer-{mode}.stderr")
    if proc.rc != 0 or not out.exists():
        err = (WORK / f"tracer-{mode}.stderr").read_text()[-2000:]
        raise SystemExit(f"traced run ({mode}) failed with exit code {proc.rc}:\n{err}")
    result = json.loads(out.read_text())
    tally.add(result["attempted"], result["failed"], result["problems"])
    return result


def traced(seed: int, tiny: bool = False) -> dict:
    tally = Tally()
    spawn(["-m", "scv.cli", "--version"], WORK / "version.stderr")  # writes the bytecode caches
    clock = Clock(1)
    bare, imported = [], []
    for _ in range(IMPORT_SAMPLES):
        bare.append(spawn(["-c", "pass"], WORK / "bare.stderr").wall)
        imported.append(spawn(["-c", "import scv.cli"], WORK / "import.stderr").wall)
    clock.scale()
    light = _tracer("light", seed, tiny, tally)
    clock.scale()
    full = [_tracer("full", seed, tiny, tally), _tracer("full", seed, tiny, tally)]
    clock.scale()
    invs = workloads.traced_invocations(seed, tiny)
    sub = run_pass(invs, light["digests"], tally, clock)

    agree = [
        ("traced", full[0]["digests"]), ("traced again", full[1]["digests"]),
        ("jobs=2", light["jobs2_digests"]),
    ]
    for label, digests in agree:
        bad = [" ".join(invs[i].args) for i, (a, b) in enumerate(zip(digests, light["digests"])) if a != b]
        tally.add(0, len(bad), [f"{label} run: report differs from the untraced run for verify {b}" for b in bad])
    m0, m1 = full[0]["metrics"], full[1]["metrics"]
    for k, unit in PER_LAYER.items():
        if unit[0] in ("count", "bytes") and m0.get(k) != m1.get(k):
            tally.add(0, 1, [f"count {k} did not repeat: {m0.get(k)} then {m1.get(k)}"])
    for target in full[0]["missing"]:
        print(f"note: trace target {target} not found; its metrics read 0")

    metrics = {k: statistics.median([m0[k], m1[k]]) for k in m0}
    metrics["sweeps.jobs2_efficiency"] = light["jobs2_efficiency"]
    metrics["cli.import_s"] = statistics.median(imported) - statistics.median(bare)
    metrics["cli.overhead_s"] = sub.raw_wall - sum(light["served_s"])
    metrics["trace.overhead_s"] = statistics.median([f["wall_s"] for f in full]) - light["wall_s"]
    metrics["host.calib_s"] = statistics.median(clock.samples)
    return {
        "workload": "traced",
        "tally": tally,
        "metrics": {k: metrics[k] for k in PER_LAYER},
        "context": {
            "seed": seed,
            "traced_wall_s": [f["wall_s"] for f in full],
            "untraced_wall_s": light["wall_s"],
            "subprocess_wall_s": sub.raw_wall,
            "missing_targets": full[0]["missing"],
            "spans_file": str((WORK / "spans.json").relative_to(ROOT)),
        },
    }


def host_context() -> dict:
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
    }


def print_metrics(result: dict, units: dict[str, tuple[str, str]]) -> None:
    ctx = result["context"]
    print(f"== {result['workload']} (seed {ctx['seed']})")
    for name, value in result["metrics"].items():
        line = f"  {name:48s} {value:14.6g} {units[name][0]}"
        if name in ctx.get("quartiles", {}):
            q1, q3 = ctx["quartiles"][name]
            n = ctx["setup_samples"] if name == "setup_s" else ctx["passes"]
            line += f"   median of {n}, quartiles {q1:.6g} .. {q3:.6g}"
        print(line)
    t = result["tally"]
    print(f"  {'fail_ratio':48s} {t.failed / max(t.attempted, 1):14.6g} ratio   ({t.failed} of {t.attempted} checks)")


def final_line(result: dict, units: dict[str, tuple[str, str]]) -> str:
    t = result["tally"]
    return json.dumps({
        "correct": t.failed == 0,
        "attempted": max(t.attempted, 1),
        "failed": t.failed,
        "metrics": {k: {"value": v, "unit": units[k][0]} for k, v in result["metrics"].items()},
    })


def run_all(seed: int, seconds: float, tiny: bool, save: str | None) -> int:
    results = [end_to_end(w, seed, seconds, tiny) for w in workloads.WORKLOAD_NAMES]
    results.append(traced(seed, tiny))
    print(f"host {json.dumps(host_context())}")
    for r in results:
        print_metrics(r, PER_LAYER if r["workload"] == "traced" else END_TO_END)
    header = f"{'workload':12s}" + "".join(f"{k:>16s}" for k in END_TO_END) + f"{'fail_ratio':>12s}"
    print(header)
    print(f"{'':12s}" + "".join(f"{END_TO_END[k][0]:>16s}" for k in END_TO_END) + f"{'ratio':>12s}")
    for r in results[:-1]:
        t = r["tally"]
        cells = "".join(f"{r['metrics'][k]:16.6g}" for k in END_TO_END)
        print(f"{r['workload']:12s}{cells}{t.failed / max(t.attempted, 1):12.6g}")
    failed = sum(r["tally"].failed for r in results)
    if save:
        doc = {
            "host": host_context(),
            "seed": seed,
            "seconds": seconds,
            "results": {
                r["workload"]: {
                    "metrics": {k: {"value": v, "unit": (PER_LAYER if r["workload"] == "traced" else END_TO_END)[k][0]}
                                for k, v in r["metrics"].items()},
                    "fail_ratio": r["tally"].failed / max(r["tally"].attempted, 1),
                    "attempted": r["tally"].attempted,
                    "context": r["context"],
                }
                for r in results
            },
        }
        Path(save).parent.mkdir(parents=True, exist_ok=True)
        Path(save).write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    print(json.dumps({"correct": failed == 0, "attempted": sum(max(r["tally"].attempted, 1) for r in results),
                      "failed": failed, "metrics": {}}))
    return 0


def main() -> int:
    ap = argparse.ArgumentParser(description="Benchmark of scv verify, end to end and per layer.")
    ap.add_argument("--workload", choices=workloads.WORKLOAD_NAMES)
    ap.add_argument("--all", action="store_true", help="run every workload both ways and print a table")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--save", help="with --all: write the results to this JSON file")
    ap.add_argument("--tiny", action="store_true", help="tiny grids, for the self-test")
    args = ap.parse_args()
    if not args.all and not args.workload:
        ap.error("give --workload NAME or --all")
    check_checkout()
    global _launcher
    _launcher = Launcher()
    try:
        return measure(args)
    finally:
        _launcher.close()


def measure(args: argparse.Namespace) -> int:
    if args.all:
        return run_all(args.seed, args.seconds, args.tiny, args.save)
    if args.trace:
        result = traced(args.seed, args.tiny)
        result["workload"] = f"{args.workload} traced"
        units = PER_LAYER
    else:
        result = end_to_end(args.workload, args.seed, args.seconds, args.tiny)
        units = END_TO_END
    print(f"host {json.dumps(host_context())}")
    print(f"context {json.dumps(result['context'])}")
    print_metrics(result, units)
    print(final_line(result, units))
    return 0


if __name__ == "__main__":
    sys.exit(main())
