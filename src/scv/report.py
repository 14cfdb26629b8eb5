"""Run reports: canonical ordering, summaries, and json/csv/text rendering.

Reports are deterministic byte-for-byte for identical inputs, except for the
elapsed_seconds field: checks are stably sorted by check name and then by
parameters, and all serialization uses sorted keys.  Witnesses are decimal
strings, never truncated.

The json report is the bytes json.dumps(..., sort_keys=True, indent=2) writes
for the whole report as one dict: version, invocation, the checks as their
CheckResult.to_dict(), summary and elapsed_seconds. REPORT_SCHEMA fixes
every record's shape (seven keys, a flat parameters map), so render_json
writes each record from one template, with strings escaped by the encoder
json.dumps itself uses, and leaves only the small envelope to json.dumps;
no per-record dict is built.
"""

from __future__ import annotations

import csv
import io
import json
from collections.abc import Iterable
from json.encoder import encode_basestring_ascii as _json_str

from .congruences import CheckResult, skipped_result

REPORT_SCHEMA: dict = {
    "$schema": "http://json-schema.org/draft-07/schema#",
    "type": "object",
    "required": ["version", "invocation", "checks", "summary", "elapsed_seconds"],
    "additionalProperties": False,
    "properties": {
        "version": {"type": "string"},
        "invocation": {"type": "object"},
        "checks": {
            "type": "array",
            "items": {
                "type": "object",
                "required": [
                    "check_name",
                    "parameters",
                    "pass",
                    "skipped",
                    "lhs_witness",
                    "rhs_witness",
                    "modulus",
                ],
                "additionalProperties": False,
                "properties": {
                    "check_name": {"type": "string"},
                    "parameters": {
                        "type": "object",
                        "additionalProperties": {"type": ["integer", "string"]},
                    },
                    "pass": {"type": "boolean"},
                    "skipped": {"type": "boolean"},
                    "lhs_witness": {"type": "string"},
                    "rhs_witness": {"type": "string"},
                    "modulus": {"type": "string"},
                },
            },
        },
        "summary": {
            "type": "object",
            "required": ["pass", "fail", "skipped"],
            "additionalProperties": False,
            "properties": {
                "pass": {"type": "integer"},
                "fail": {"type": "integer"},
                "skipped": {"type": "integer"},
            },
        },
        "elapsed_seconds": {"type": "number"},
    },
}


def _param_sort_token(value: object) -> tuple:
    if isinstance(value, int):
        return (0, value)
    return (1, str(value))


def check_sort_key(check: CheckResult) -> tuple:
    params = tuple(
        (k, _param_sort_token(v)) for k, v in sorted(check.parameters.items())
    )
    return (check.check_name, params)


def sort_checks(checks: list[CheckResult]) -> list[CheckResult]:
    return sorted(checks, key=check_sort_key)


class RunReport:
    """One CLI invocation's worth of checks, kept in canonical order, plus bookkeeping."""

    def __init__(
        self, tool_version: str, invocation: dict[str, object],
        checks: Iterable[CheckResult] = (), elapsed_seconds: float = 0.0,
    ) -> None:
        self.tool_version, self.invocation, self.checks = tool_version, invocation, checks
        self.elapsed_seconds = elapsed_seconds
        self.checks = sort_checks(self.checks)

    @property
    def summary(self) -> dict[str, int]:
        passed = sum(1 for c in self.checks if c.passed and not c.skipped)
        skipped = sum(1 for c in self.checks if c.skipped)
        return {
            "pass": passed,
            "fail": len(self.checks) - passed - skipped,
            "skipped": skipped,
        }

    @property
    def failures(self) -> int:
        return self.summary["fail"]


# one record as json.dumps(..., sort_keys=True, indent=2) writes it in the list
_RECORD = """    {
      "check_name": %s,
      "lhs_witness": %s,
      "modulus": %s,
      "parameters": %s,
      "pass": %s,
      "rhs_witness": %s,
      "skipped": %s
    }"""
_BOOL = {True: "true", False: "false"}


def _json_value(value: object) -> str:
    if type(value) is str:
        return _json_str(value)
    if type(value) is int:
        return str(value)
    raise TypeError(f"a report parameter is a str or an int, not a {type(value).__name__}")


def _json_parameters(parameters: dict[str, object]) -> str:
    if not parameters:
        return "{}"
    items = ",\n        ".join(
        [f"{_json_str(k)}: {_json_value(v)}" for k, v in sorted(parameters.items())]
    )
    return "{\n        " + items + "\n      }"


def render_json(report: RunReport) -> str:
    """json.dumps(report dict, sort_keys=True, indent=2) + newline, byte for byte."""
    records = ",\n".join([
        _RECORD % (
            _json_str(c.check_name), _json_str(c.lhs_witness), _json_str(c.modulus),
            _json_parameters(c.parameters), _BOOL[c.passed], _json_str(c.rhs_witness),
            _BOOL[c.skipped],
        )
        for c in report.checks
    ])
    checks = f"[\n{records}\n  ]" if records else "[]"
    envelope = json.dumps(
        {
            "version": report.tool_version,
            "invocation": dict(report.invocation),
            "summary": report.summary,
            "elapsed_seconds": report.elapsed_seconds,
        },
        sort_keys=True,
        indent=2,
    )
    # "checks" sorts before every envelope key, so it opens the object
    return f'{{\n  "checks": {checks},\n{envelope[2:]}\n'


def _params_compact(parameters: dict[str, object]) -> str:
    return ";".join(f"{k}={v}" for k, v in sorted(parameters.items()))


def _csv_cell(value: object) -> object:
    if isinstance(value, dict):
        return _params_compact(value)
    return str(value).lower() if isinstance(value, bool) else value


def render_csv(report: RunReport) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(list(skipped_result("", {}, "").to_dict()))
    for c in report.checks:
        writer.writerow([_csv_cell(v) for v in c.to_dict().values()])
    return buf.getvalue()


_WITNESS_PREVIEW = 48


def _shorten(s: str) -> str:
    if len(s) <= _WITNESS_PREVIEW:
        return s
    return s[: _WITNESS_PREVIEW - 3] + "..."


def render_text(report: RunReport) -> str:
    lines = []
    for c in report.checks:
        status = "SKIP" if c.skipped else ("PASS" if c.passed else "FAIL")
        detail = _params_compact(c.parameters)
        if c.skipped:
            lines.append(f"{status} {c.check_name} {detail} ({c.lhs_witness})")
        elif c.passed:
            lines.append(f"{status} {c.check_name} {detail}")
        else:
            lines.append(
                f"{status} {c.check_name} {detail} "
                f"lhs={_shorten(c.lhs_witness)} rhs={_shorten(c.rhs_witness)} mod {c.modulus}"
            )
    s = report.summary
    lines.append(
        f"{s['pass']} passed, {s['fail']} failed, {s['skipped']} skipped "
        f"in {report.elapsed_seconds:.2f}s"
    )
    return "\n".join(lines) + "\n"
