"""In-process traced run of the benchmark grid, one layer span per public call.

Run as a child of run.py:

    python3 perfbench/tracer.py --mode full|light --seed N --out RESULT.json

It imports `scv` from the checkout's `src/`, wraps the public functions of
each module in a span recorder, runs the congruence, polynomial and
many-small invocations through `scv.cli.main` (jobs=1), and writes counts,
per-layer times and report digests to RESULT.json. `full` mode also writes
every span to `.perfbench_work/spans.json`.

A wrapper is bound at every name its callers resolve: each `scv.*` module
global, each module-level dict entry (such as the CLI's renderer table) and
each class attribute that holds the original function is replaced, so
`scv.congruences.s_values` is traced as well as `scv.sequences.s_values`,
and `UniPoly.__rmul__` as well as `UniPoly.__mul__`. A target the program no
longer has is skipped and listed under "missing", so its counts read 0.

`light` mode wraps only `sweeps.run_tasks` and the renderers: it is the
untraced reference for verdicts and for the tracing overhead, and it times
the parallel grid with jobs=1 and jobs=2.

lru caches are read and cleared after every invocation, so each invocation
starts cold as it does in its own CLI process.
"""

from __future__ import annotations

import argparse
import collections
import contextlib
import functools
import importlib
import io
import json
import re
import sys
from pathlib import Path
from time import perf_counter

import workloads
from reports import judge

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"

_CHECKS = {
    "rv": "verify_rv", "lemma2p": "verify_lemma_2p", "sun-p4": "verify_sun_p4",
    "guo-bb1": "verify_guo_bb1", "cc5": "verify_cc5", "cc7": "verify_cc7",
    "cc8": "verify_cc8_fact", "cc9": "verify_cc9", "cc10": "verify_cc10",
}
_IDENTITY_CHECKS = (
    "check_cc1", "check_cc4", "check_liu26", "check_telescope", "check_bb2",
    "check_bb4_direct", "check_bb4_recurrence", "check_bb4_initial",
)
COLUMNS = ("s_values", "pair_binomial_values", "central_binomial_values", "rv_terms")
POLYS = ("d_poly", "s_poly", "f_poly", "pair_binomial_poly")

# (span name, module, attribute path); the span name is the metric prefix.
TARGETS: tuple[tuple[str, str, str], ...] = (
    *((f"exact_arith.{f}", "scv.exact_arith", f)
      for f in ("padic_valuation", "congruent", "mod_reduce", "is_prime")),
    *((f"sequences.{f}", "scv.sequences", f) for f in COLUMNS + POLYS),
    ("poly.UniPoly.mul", "scv.poly", "UniPoly.__mul__"),
    ("poly.newton_coefficients", "scv.poly", "newton_coefficients"),
    ("poly.MultiPoly.mul", "scv.poly", "MultiPoly.__mul__"),
    *((f"congruences.verify.{c}", "scv.congruences", f) for c, f in _CHECKS.items()),
    *((f"identities.{f}", "scv.identities", f) for f in _IDENTITY_CHECKS),
    ("identities.eval_bb4_side", "scv.identities", "eval_bb4_side"),
    ("integrality.verify_integer_valued", "scv.integrality", "verify_integer_valued"),
    ("integrality.verify_schmidt_divisibility", "scv.integrality", "verify_schmidt_divisibility"),
    ("sweeps.run_tasks", "scv.sweeps", "run_tasks"),
    ("report.sort_checks", "scv.report", "sort_checks"),
    *((f"report.render_{f}", "scv.report", f"render_{f}") for f in ("json", "text", "csv")),
)
LIGHT_TARGETS = {"sweeps.run_tasks", "report.render_json", "report.render_text", "report.render_csv"}
CACHES = ("sequences.pair_binomial_poly", "identities.eval_bb4_side", "integrality._ds_power")


class Recorder:
    """Spans in memory: [name id, parent span index, request id, start, end]."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.request = -1
        self.keys: dict[str, set] = collections.defaultdict(set)
        self.observed: dict[str, float] = collections.defaultdict(float)

    def wrap(self, name: str, fn, *, key: bool = False, observe=None):
        nid = len(self.names)
        self.names.append(name)
        spans, stack = self.spans, self.stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = [nid, stack[-1] if stack else -1, self.request, 0.0, 0.0]
            stack.append(len(spans))
            spans.append(rec)
            if key:
                self.keys[name].add((args, tuple(sorted(kwargs.items()))))
            rec[3] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[4] = perf_counter()
                stack.pop()
            if observe is not None:
                observe(self.observed, result)
            return result

        return traced

    def totals(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, summed duration and self time.

        Self time is a span's duration minus the time its direct children
        cover; calls run on one thread, so children never overlap.
        """
        child = [0.0] * len(self.spans)
        for _, parent, _, start, end in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = {n: {"calls": 0, "s": 0.0, "self_s": 0.0} for n in self.names}
        for i, (nid, _, _, start, end) in enumerate(self.spans):
            agg = out[self.names[nid]]
            agg["calls"] += 1
            agg["s"] += end - start
            agg["self_s"] += end - start - child[i]
        return out

    def verifier_time_under(self, parent_name: str, prefixes: tuple[str, ...]) -> float:
        """Summed duration of spans named with one of `prefixes` directly under `parent_name`."""
        pid = {i for i, n in enumerate(self.names) if n == parent_name}
        vid = {i for i, n in enumerate(self.names) if n.startswith(prefixes)}
        return sum(
            end - start
            for nid, parent, _, start, end in self.spans
            if nid in vid and parent >= 0 and self.spans[parent][0] in pid
        )


def _scv_namespaces() -> list[dict]:
    """Every dict through which scv code looks a function up."""
    spaces = []
    for name, mod in list(sys.modules.items()):
        if name == "scv" or name.startswith("scv."):
            ns = vars(mod)
            spaces.append(ns)
            spaces.extend(v for k, v in ns.items() if type(v) is dict and not k.startswith("__"))
    return spaces


def _resolve(module: str, path: str):
    obj = importlib.import_module(module)
    owner = None
    for part in path.split("."):
        owner = obj
        obj = vars(obj).get(part) if isinstance(obj, type) else getattr(obj, part, None)
        if obj is None:
            return None, None
    return owner, obj


def _rebind(original, wrapper, owner) -> None:
    spaces = _scv_namespaces()
    if isinstance(owner, type):
        for attr, value in list(vars(owner).items()):
            if value is original:
                setattr(owner, attr, wrapper)
    for ns in spaces:
        for k, v in list(ns.items()):
            if v is original:
                ns[k] = wrapper


def _terms_max(observed, result) -> None:
    observed["poly.MultiPoly.terms_max"] = max(
        observed["poly.MultiPoly.terms_max"], result.term_count()
    )


_ELAPSED = re.compile(r'"elapsed_seconds": [^,\n}]*')


def _json_bytes(observed, result) -> None:
    # without the elapsed_seconds value, whose digit count varies run to run
    observed["report.render_json.bytes"] += len(_ELAPSED.sub("", result).encode())


def instrument(rec: Recorder, mode: str) -> list[str]:
    """Wrap the targets of `mode`; returns the targets the program lacks."""
    missing = []
    for name, module, path in TARGETS:
        if mode == "light" and name not in LIGHT_TARGETS:
            continue
        owner, original = _resolve(module, path)
        if original is None:
            missing.append(f"{module}:{path}")
            continue
        observe = {"poly.MultiPoly.mul": _terms_max, "report.render_json": _json_bytes}.get(name)
        key = name.removeprefix("sequences.") in COLUMNS
        _rebind(original, rec.wrap(name, original, key=key, observe=observe), owner)
    return missing


def _caches() -> dict[str, object]:
    found = {}
    for ns in _scv_namespaces():
        for v in ns.values():
            if hasattr(v, "cache_info") and hasattr(v, "cache_clear"):
                found[f"{v.__module__}.{v.__qualname__}".removeprefix("scv.")] = v
    return found


def run_invocations(rec: Recorder, invs, tag: str, caches: dict) -> dict:
    import scv.cli

    cache_counts = {name: [0, 0] for name in caches}
    digests, problems, failed, checks = [], [], 0, 0
    start = perf_counter()
    for i, inv in enumerate(invs):
        rec.request += 1
        out = WORK / f"{tag}-{i}.{inv.fmt}"
        out.unlink(missing_ok=True)
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                rc = scv.cli.main.main(inv.argv(str(out)), prog_name="scv", standalone_mode=False)
        except Exception as exc:  # a crash is one failed operation, not the end of the run
            problems.append(f"verify {' '.join(inv.args)}: raised {exc!r}")
            rc = 1
        for name, fn in caches.items():
            info = fn.cache_info()
            cache_counts[name][0] += info.hits
            cache_counts[name][1] += info.misses
            fn.cache_clear()
        parsed, bad, msgs = judge(inv, rc or 0, out.read_text() if out.exists() else None, None)
        digests.append(parsed.digest if parsed else None)
        problems += msgs
        failed += bad
        checks += inv.checks
    return {
        "wall_s": perf_counter() - start, "digests": digests,
        "problems": problems, "failed": failed, "attempted": checks, "caches": cache_counts,
    }


def layer_metrics(rec: Recorder, caches: dict[str, list[int]]) -> dict[str, float]:
    t = rec.totals()
    zero = {"calls": 0, "s": 0.0, "self_s": 0.0}

    def get(name: str) -> dict:
        return t.get(name, zero)

    def total(names, field: str) -> float:
        return sum(get(n)[field] for n in names)

    m: dict[str, float] = {}
    for f in ("padic_valuation", "congruent", "mod_reduce", "is_prime"):
        m[f"exact_arith.{f}.calls"] = get(f"exact_arith.{f}")["calls"]
    m["exact_arith.padic_valuation.self_s"] = get("exact_arith.padic_valuation")["self_s"]
    cols = [f"sequences.{f}" for f in COLUMNS]
    m["sequences.columns.calls"] = total(cols, "calls")
    m["sequences.columns.self_s"] = total(cols, "self_s")
    distinct = sum(len(rec.keys[c]) for c in cols)
    m["sequences.columns.useful_ratio"] = distinct / m["sequences.columns.calls"] if distinct else 0.0
    m["sequences.polys.self_s"] = total([f"sequences.{f}" for f in POLYS], "self_s")
    for kind in ("UniPoly", "MultiPoly"):
        m[f"poly.{kind}.mul.calls"] = get(f"poly.{kind}.mul")["calls"]
        m[f"poly.{kind}.mul.self_s"] = get(f"poly.{kind}.mul")["self_s"]
    m["poly.newton_coefficients.self_s"] = get("poly.newton_coefficients")["self_s"]
    m["poly.MultiPoly.terms_max"] = rec.observed["poly.MultiPoly.terms_max"]
    for c in _CHECKS:
        m[f"congruences.verify.{c}.calls"] = get(f"congruences.verify.{c}")["calls"]
        m[f"congruences.verify.{c}.self_s"] = get(f"congruences.verify.{c}")["self_s"]
    ids = [f"identities.{f}" for f in _IDENTITY_CHECKS]
    m["identities.check.calls"] = total(ids, "calls")
    m["identities.check.self_s"] = total(ids, "self_s")
    m["identities.eval_bb4_side.calls"] = get("identities.eval_bb4_side")["calls"]
    for f in ("verify_integer_valued", "verify_schmidt_divisibility"):
        m[f"integrality.{f}.self_s"] = get(f"integrality.{f}")["self_s"]
    for name in CACHES:
        hits, misses = caches.get(name, (0, 0))
        m[f"{name}.hits"] = hits
        m[f"{name}.misses"] = misses
        m[f"{name}.hit_ratio"] = hits / (hits + misses) if hits + misses else 0.0
    m["sweeps.run_tasks.s"] = get("sweeps.run_tasks")["s"]
    verifiers = rec.verifier_time_under(
        "sweeps.run_tasks", ("congruences.verify.", "identities.check_", "integrality.verify_")
    )
    m["sweeps.dispatch_overhead_s"] = m["sweeps.run_tasks.s"] - verifiers
    m["report.sort_checks.s"] = get("report.sort_checks")["s"]
    for f in ("json", "text", "csv"):
        m[f"report.render_{f}.s"] = get(f"report.render_{f}")["s"]
    m["report.render_json.bytes"] = rec.observed["report.render_json.bytes"]
    return m


def per_request(rec: Recorder, names: set[str]) -> list[float]:
    """Summed duration of the spans named in `names`, per request id."""
    out = [0.0] * (rec.request + 1)
    for nid, _, req, start, end in rec.spans:
        if rec.names[nid] in names:
            out[req] += end - start
    return out


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--mode", choices=("full", "light"), required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--out", required=True)
    ap.add_argument("--tiny", action="store_true", help="tiny grids, for the self-test")
    args = ap.parse_args()

    sys.path.insert(0, str(SRC))
    import scv.cli  # noqa: F401  (loads every scv module before wrapping)

    if not Path(sys.modules["scv"].__file__).resolve().is_relative_to(SRC):
        raise SystemExit(f"scv was imported from outside {SRC}")
    WORK.mkdir(exist_ok=True)
    rec = Recorder()
    caches = _caches()  # before wrapping, which hides the cache objects
    missing = instrument(rec, args.mode)
    invs = workloads.traced_invocations(args.seed, args.tiny)
    result = run_invocations(rec, invs, args.mode, caches)
    result["missing"] = missing
    cache_counts = result.pop("caches")
    if args.mode == "full":
        result["metrics"] = layer_metrics(rec, cache_counts)
        (WORK / "spans.json").write_text(json.dumps({"names": rec.names, "spans": rec.spans}))
    else:
        result["served_s"] = per_request(rec, LIGHT_TARGETS)
        # the congruence invocations come first in the traced run
        ncong = len(workloads.invocations("congruence", args.seed, args.tiny))
        jobs1 = sum(per_request(rec, {"sweeps.run_tasks"})[:ncong])
        par = run_invocations(rec, workloads.invocations("parallel", args.seed, args.tiny), "jobs2", caches)
        jobs2 = sum(per_request(rec, {"sweeps.run_tasks"})[len(invs):])
        result["jobs2_efficiency"] = jobs1 / (2 * jobs2)
        result["jobs2_digests"] = par["digests"]
        for key in ("problems", "failed", "attempted"):
            result[key] += par[key]
    Path(args.out).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
