"""Check records and run reports: canonical ordering, summaries, and json/csv/text rendering.

CheckResult is the record every verifier returns; exact_result and
skipped_result are the builders shared by more than one verifier module.
They live here, not in scv.congruences (which imports them back), so a
sweep that runs no congruence check does not load the congruence code.

Reports are deterministic byte-for-byte for identical inputs, except for the
elapsed_seconds field: checks are stably sorted by check name and then by
parameters, and all serialization uses sorted keys.  Witnesses are decimal
strings, never truncated.

The json report is the bytes json.dumps(..., sort_keys=True, indent=2) writes
for the whole report as one dict: version, invocation, the checks as their
CheckResult.to_dict(), summary and elapsed_seconds. REPORT_SCHEMA fixes
every record's shape (seven keys, a flat parameters map), and scv.cli fixes
the envelope's (an invocation of str, int, None and tuple-of-str values), so
render_json writes each record and the envelope from a template, with
strings escaped by the C encoder json.dumps itself uses, taken from _json:
no per-record dict is built and the json package is not loaded.
"""

from __future__ import annotations

import io
from collections.abc import Iterable
from typing import NamedTuple

from .exact_arith import _int_str


class CheckResult(NamedTuple):
    """Outcome of one verification, with enough data to reproduce it."""

    check_name: str
    parameters: dict[str, object]
    passed: bool
    lhs_witness: str
    rhs_witness: str
    modulus: str
    skipped: bool = False

    def to_dict(self) -> dict[str, object]:
        return {
            "check_name": self.check_name,
            "parameters": dict(self.parameters),
            "pass": self.passed,
            "skipped": self.skipped,
            "lhs_witness": self.lhs_witness,
            "rhs_witness": self.rhs_witness,
            "modulus": self.modulus,
        }


def skipped_result(check_name: str, parameters: dict[str, object], reason: str) -> CheckResult:
    """A Skipped record for sweep points whose preconditions do not apply."""
    return CheckResult(
        check_name=check_name,
        parameters=parameters,
        passed=False,
        lhs_witness=reason,
        rhs_witness="",
        modulus="",
        skipped=True,
    )


def exact_result(
    check_name: str, parameters: dict[str, object], lhs: int | str, rhs: int | str
) -> CheckResult:
    """An exact equality of two ints or two canonical strings; _int_str passes a string on."""
    return CheckResult(
        check_name=check_name,
        parameters=parameters,
        passed=lhs == rhs,
        lhs_witness=_int_str(lhs),
        rhs_witness=_int_str(rhs),
        modulus="exact",
    )


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


def check_sort_key(check: CheckResult) -> tuple:
    """The check name, then each parameter by name: ints by value, before other values as text."""
    return (check.check_name, tuple([
        (k, (0, v) if isinstance(v, int) else (1, str(v)))
        for k, v in sorted(check.parameters.items())
    ]))


def sort_checks(checks: list[CheckResult]) -> list[CheckResult]:
    return sorted(checks, key=check_sort_key)


class RunReport:
    """One CLI invocation's worth of checks, kept in canonical order, plus bookkeeping."""

    def __init__(
        self, tool_version: str, invocation: dict[str, object],
        checks: Iterable[CheckResult] = (), elapsed_seconds: float = 0.0,
    ) -> None:
        self.tool_version, self.invocation = tool_version, invocation
        self.checks, self.elapsed_seconds = sort_checks(checks), elapsed_seconds

    @property
    def summary(self) -> dict[str, int]:
        passed = sum(1 for c in self.checks if c.passed and not c.skipped)
        skipped = sum(1 for c in self.checks if c.skipped)
        return {
            "pass": passed,
            "fail": len(self.checks) - passed - skipped,
            "skipped": skipped,
        }


# one record, and the envelope after the records, as json.dumps(..., sort_keys=True, indent=2)
# writes them; "checks" sorts before every envelope key, so the records open the object
_RECORD = """    {
      "check_name": %s,
      "lhs_witness": %s,
      "modulus": %s,
      "parameters": %s,
      "pass": %s,
      "rhs_witness": %s,
      "skipped": %s
    }"""
_ENVELOPE = """,
  "elapsed_seconds": %s,
  "invocation": %s,
  "summary": {
    "fail": %d,
    "pass": %d,
    "skipped": %d
  },
  "version": %s
}
"""
_BOOL = {True: "true", False: "false"}


def render_json(report: RunReport) -> str:
    """json.dumps(report dict, sort_keys=True, indent=2) + newline, byte for byte."""
    try:  # the C escaper json.encoder binds, without loading the json package
        from _json import encode_basestring_ascii as json_str
    except ImportError:  # an interpreter built without _json
        from json.encoder import encode_basestring_ascii as json_str

    def json_value(value: object) -> str:
        if type(value) is str:
            return json_str(value)
        if type(value) is int:
            return str(value)
        raise TypeError(f"a report value is a str or an int, not a {type(value).__name__}")

    def json_parameters(parameters: dict[str, object]) -> str:
        if not parameters:
            return "{}"
        items = ",\n        ".join(
            [f"{json_str(k)}: {json_value(v)}" for k, v in sorted(parameters.items())]
        )
        return "{\n        " + items + "\n      }"

    def flag_value(value: object) -> str:
        # an invocation value: None for a flag left unset, a tuple of texts for --x
        if value is None:
            return "null"
        if type(value) in (tuple, list):
            items = ",\n      ".join([json_value(v) for v in value])
            return "[\n      " + items + "\n    ]" if value else "[]"
        return json_value(value)

    records = ",\n".join([
        _RECORD % (
            json_str(c.check_name), json_str(c.lhs_witness), json_str(c.modulus),
            json_parameters(c.parameters), _BOOL[c.passed], json_str(c.rhs_witness),
            _BOOL[c.skipped],
        )
        for c in report.checks
    ])
    invocation = ",\n    ".join(
        [f"{json_str(k)}: {flag_value(v)}" for k, v in sorted(report.invocation.items())]
    )
    s = report.summary
    envelope = _ENVELOPE % (
        repr(report.elapsed_seconds), "{\n    " + invocation + "\n  }" if invocation else "{}",
        s["fail"], s["pass"], s["skipped"], json_str(report.tool_version),
    )
    # the records are copied once, by this join
    checks = ("[\n", records, "\n  ]") if records else ("[]",)
    return "".join(('{\n  "checks": ', *checks, envelope))


def _params_compact(parameters: dict[str, object]) -> str:
    return ";".join(f"{k}={v}" for k, v in sorted(parameters.items()))


def _csv_cell(value: object) -> object:
    if isinstance(value, dict):
        return _params_compact(value)
    return str(value).lower() if isinstance(value, bool) else value


def render_csv(report: RunReport) -> str:
    import csv  # here, so a json or text run does not load it

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
