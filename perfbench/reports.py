"""Reading scv reports back and judging them against the expected grid.

A report is reduced to its check count, its pass/fail/skip counts and a
digest. The digest leaves out what may differ between correct runs:
`elapsed_seconds` (and the "in X.XXs" tail of a text report), and the
invocation's `jobs` and `out` fields, so a --jobs 2 report can be compared
byte for byte with its --jobs 1 twin and reports written to different files
can be compared at all.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import re
from dataclasses import dataclass

from workloads import Invocation

_TEXT_SUMMARY = re.compile(r"^(\d+) passed, (\d+) failed, (\d+) skipped in [0-9.]+s$")


@dataclass(frozen=True)
class Parsed:
    checks: int
    passed: int
    failed: int
    skipped: int
    digest: str


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _parse_json(text: str) -> Parsed:
    doc = json.loads(text)
    doc.pop("elapsed_seconds", None)
    for key in ("jobs", "out"):
        doc.get("invocation", {}).pop(key, None)
    checks = doc["checks"]
    skipped = sum(1 for c in checks if c["skipped"])
    passed = sum(1 for c in checks if c["pass"] and not c["skipped"])
    counts = {"pass": passed, "fail": len(checks) - passed - skipped, "skipped": skipped}
    if doc["summary"] != counts:
        raise ValueError(f"summary {doc['summary']} disagrees with the checks {counts}")
    return Parsed(len(checks), passed, counts["fail"], skipped, _sha(json.dumps(doc, sort_keys=True)))


def _parse_csv(text: str) -> Parsed:
    rows = list(csv.DictReader(io.StringIO(text)))
    skipped = sum(1 for r in rows if r["skipped"] == "true")
    passed = sum(1 for r in rows if r["pass"] == "true" and r["skipped"] != "true")
    return Parsed(len(rows), passed, len(rows) - passed - skipped, skipped, _sha(text))


def _parse_text(text: str) -> Parsed:
    lines = text.rstrip("\n").split("\n")
    m = _TEXT_SUMMARY.match(lines[-1])
    if not m:
        raise ValueError(f"no summary line in text report: {lines[-1]!r}")
    body = lines[:-1]
    status = [line.split(" ", 1)[0] for line in body]
    counts = (status.count("PASS"), status.count("FAIL"), status.count("SKIP"))
    if counts != tuple(int(g) for g in m.groups()) or sum(counts) != len(body):
        raise ValueError(f"text summary {m.groups()} disagrees with its {len(body)} lines")
    return Parsed(len(body), *counts, _sha("\n".join(body)))


PARSERS = {"json": _parse_json, "csv": _parse_csv, "text": _parse_text}


def judge(
    inv: Invocation, rc: int, text: str | None, reference: str | None
) -> tuple[Parsed | None, int, list[str]]:
    """(parsed report, failed-operation count, one message per violation).

    The count is the number of failed checks plus one for each of: a bad
    exit code, a wrong check count, a wrong skip count, a digest unlike the
    reference, an unreadable report.
    """
    label = "verify " + " ".join(inv.args)
    problems: list[str] = []
    if rc != 0:
        problems.append(f"{label}: exit code {rc}")
    try:
        parsed = PARSERS[inv.fmt](text) if text is not None else None
    except (ValueError, KeyError, TypeError) as exc:
        parsed = None
        problems.append(f"{label}: unreadable report: {exc}")
    if parsed is None:
        if text is None:
            problems.append(f"{label}: no report written")
        return None, len(problems), problems
    if parsed.checks != inv.checks:
        problems.append(f"{label}: {parsed.checks} checks, expected {inv.checks}")
    if parsed.skipped != inv.skipped:
        problems.append(f"{label}: {parsed.skipped} skipped, expected {inv.skipped}")
    if reference is not None and parsed.digest != reference:
        problems.append(f"{label}: report differs from the reference run")
    violations = len(problems)
    if parsed.failed:
        problems.append(f"{label}: {parsed.failed} failed checks")
    return parsed, violations + parsed.failed, problems
