"""Check records and run reports: canonical ordering, summaries, and json/csv/text rendering.

CheckResult is the record every verifier returns; exact_result and
skipped_result are the builders shared by more than one verifier module.
They live here, not in scv.congruences (which imports them back), so a
sweep that runs no congruence check does not load the congruence code.
exact_result gives two equal sides one witness string, so a passing record
holds its value once.

Reports are deterministic byte-for-byte for identical inputs, except for the
elapsed_seconds field: checks are stably sorted by check name and then by
parameters, and all serialization uses sorted keys.  Witnesses are decimal
strings, never truncated.

Each format is one generator of pieces: a record's (or a line's) text at a
time, between a head and a tail. write_report writes the pieces to a stream
as they are made, so a run never holds its report's text; render_json,
render_csv and render_text join the same pieces into one string.

The json report is the bytes json.dumps(..., sort_keys=True, indent=2) writes
for the whole report as one dict: version, invocation, the checks as their
CheckResult.to_dict(), summary and elapsed_seconds. REPORT_SCHEMA fixes
every record's shape (seven keys, a flat parameters map), and scv.cli fixes
the envelope's (an invocation of str, int, None and tuple-of-str values), so
each record and the envelope are written from a template, with
strings escaped by the C encoder json.dumps itself uses, taken from _json:
no per-record dict is built and the json package is not loaded.
"""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Iterable, Iterator
from io import TextIOBase

from .exact_arith import _int_str


class CheckResult(namedtuple("CheckResult", "check_name parameters passed lhs_witness"
                             " rhs_witness modulus skipped", defaults=(False,))):
    """Outcome of one verification, with enough data to reproduce it: parameters is a
    dict[str, object], passed and skipped are bools, and the other fields are strs."""

    __slots__ = ()  # no __dict__ per record

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
    """An exact equality of two ints or two canonical strings; _int_str passes a string on.
    Equal sides share one witness string."""
    passed, lhs_witness = lhs == rhs, _int_str(lhs)
    return CheckResult(
        check_name=check_name,
        parameters=parameters,
        passed=passed,
        lhs_witness=lhs_witness,
        rhs_witness=lhs_witness if passed else _int_str(rhs),
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
    """The check name, then each parameter by name: ints by value, before other values as text,
    as one flat tuple (name, k1, t1, v1, k2, ...) with t = 0 before an int v, 1 before a text v."""
    key = [check.check_name]
    for k, v in sorted(check.parameters.items()):
        key += (k, 0, v) if isinstance(v, int) else (k, 1, str(v))
    return tuple(key)


def sort_checks(checks: list[CheckResult]) -> list[CheckResult]:
    return sorted(checks, key=check_sort_key)


class RunReport:
    """One CLI invocation's worth of checks, kept in canonical order, plus bookkeeping;
    the summary is counted once, as the checks are sorted."""

    def __init__(
        self, tool_version: str, invocation: dict[str, object],
        checks: Iterable[CheckResult] = (), elapsed_seconds: float = 0.0,
    ) -> None:
        self.tool_version, self.invocation = tool_version, invocation
        self.checks, self.elapsed_seconds = sort_checks(checks), elapsed_seconds
        passed = sum(1 for c in self.checks if c.passed and not c.skipped)
        skipped = sum(1 for c in self.checks if c.skipped)
        self.summary = {"pass": passed, "fail": len(self.checks) - passed - skipped,
                        "skipped": skipped}


# one record, after its separator from the one before, and the envelope after the records
# with the close of the checks list, as json.dumps(..., sort_keys=True, indent=2) writes them;
# "checks" sorts before every envelope key, so the records open the object
_RECORD = """%s    {
      "check_name": %s,
      "lhs_witness": %s,
      "modulus": %s,
      "parameters": %s,
      "pass": %s,
      "rhs_witness": %s,
      "skipped": %s
    }"""
_ENVELOPE = """%s,
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


def _json_pieces(report: RunReport) -> Iterator[str]:
    """The json report's head, each record and then the envelope."""
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

    yield '{\n  "checks": [\n' if report.checks else '{\n  "checks": []'
    separator = ""
    for c in report.checks:
        yield _RECORD % (
            separator, json_str(c.check_name), json_str(c.lhs_witness), json_str(c.modulus),
            json_parameters(c.parameters), _BOOL[c.passed], json_str(c.rhs_witness),
            _BOOL[c.skipped],
        )
        separator = ",\n"
    invocation = ",\n    ".join(
        [f"{json_str(k)}: {flag_value(v)}" for k, v in sorted(report.invocation.items())]
    )
    s = report.summary
    yield _ENVELOPE % (
        "\n  ]" if report.checks else "", repr(report.elapsed_seconds),
        "{\n    " + invocation + "\n  }" if invocation else "{}",
        s["fail"], s["pass"], s["skipped"], json_str(report.tool_version),
    )


def _params_compact(parameters: dict[str, object]) -> str:
    return ";".join(f"{k}={v}" for k, v in sorted(parameters.items()))


class _Line:
    """The file a csv.writer writes rows to: writerow returns what write returns, the row's line."""

    write = str


def _csv_pieces(report: RunReport) -> Iterator[str]:
    """The header line, the keys of CheckResult.to_dict, then one line of its values per check."""
    import csv  # here, so a json or text run does not load it

    line = csv.writer(_Line(), lineterminator="\n").writerow
    yield line(skipped_result("", {}, "").to_dict())
    for c in report.checks:
        yield line((
            c.check_name, _params_compact(c.parameters), _BOOL[c.passed], _BOOL[c.skipped],
            c.lhs_witness, c.rhs_witness, c.modulus,
        ))


_WITNESS_PREVIEW = 48


def _shorten(s: str) -> str:
    if len(s) <= _WITNESS_PREVIEW:
        return s
    return s[: _WITNESS_PREVIEW - 3] + "..."


def _text_pieces(report: RunReport) -> Iterator[str]:
    """One line per check, then the summary line."""
    for c in report.checks:
        detail = _params_compact(c.parameters)
        if c.skipped:
            yield f"SKIP {c.check_name} {detail} ({c.lhs_witness})\n"
        elif c.passed:
            yield f"PASS {c.check_name} {detail}\n"
        else:
            yield (
                f"FAIL {c.check_name} {detail} "
                f"lhs={_shorten(c.lhs_witness)} rhs={_shorten(c.rhs_witness)} mod {c.modulus}\n"
            )
    s = report.summary
    yield (
        f"{s['pass']} passed, {s['fail']} failed, {s['skipped']} skipped "
        f"in {report.elapsed_seconds:.2f}s\n"
    )


_PIECES = {"json": _json_pieces, "csv": _csv_pieces, "text": _text_pieces}


def write_report(report: RunReport, format: str, out: TextIOBase) -> None:
    """Write the report as json, csv or text to out a piece at a time, so its text is never held."""
    out.writelines(_PIECES[format](report))


def render_json(report: RunReport) -> str:
    """json.dumps(report dict, sort_keys=True, indent=2) + newline, byte for byte."""
    return "".join(_json_pieces(report))


def render_csv(report: RunReport) -> str:
    return "".join(_csv_pieces(report))


def render_text(report: RunReport) -> str:
    return "".join(_text_pieces(report))
