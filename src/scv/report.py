"""Check records and run reports: canonical order, summaries, and json/csv/text writing.

CheckResult is the record every verifier returns; exact_result and
skipped_result are the builders shared by more than one verifier module.
They are defined here, not in scv.congruences (which imports them back), so a
sweep that runs no congruence check does not load the congruence code.
exact_result gives two equal sides one witness string, so a passing record
holds its value once.

Reports are deterministic byte-for-byte for identical inputs, except for the
elapsed_seconds field: checks come in canonical order, by check name and then
by parameters, which is checked as they are written, and all serialization
uses sorted keys.  Witnesses are decimal strings, never truncated.

Each format is a head, the text of one record and a tail. write_report
writes them to a stream in one loop over the records, so a run never holds
its report's text.

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
from collections.abc import Callable, Iterable
from io import TextIOBase
from time import perf_counter

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
    return CheckResult(check_name, parameters, False, reason, "", "", True)


def exact_result(
    check_name: str, parameters: dict[str, object], lhs: int | str, rhs: int | str
) -> CheckResult:
    """An exact equality of two ints or two canonical strings; _int_str passes a string on.
    Equal sides share one witness string."""
    passed, lhs_witness = lhs == rhs, _int_str(lhs)
    rhs_witness = lhs_witness if passed else _int_str(rhs)
    return CheckResult(check_name, parameters, passed, lhs_witness, rhs_witness, "exact")


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
    return _sort_key(check.check_name, sorted(check.parameters.items()))


def _sort_key(name: str, items: list[tuple[str, object]]) -> tuple:
    key = [name]
    for k, v in items:
        key += (k, 0, v) if isinstance(v, int) else (k, 1, str(v))
    return tuple(key)


class RunReport:
    """One CLI invocation's worth of checks, in canonical order, plus bookkeeping.

    The checks, records in canonical order (check_sort_key), are read once: write_report
    checks the order and counts the summary as it writes each one, so none is held, and a
    report is written once. With started, the time.perf_counter() at which the run began,
    elapsed_seconds is taken as the last record is written.
    """

    def __init__(
        self, tool_version: str, invocation: dict[str, object],
        checks: Iterable[CheckResult] = (), elapsed_seconds: float = 0.0,
        started: float | None = None,
    ) -> None:
        self.tool_version, self.invocation = tool_version, invocation
        self.elapsed_seconds, self.started = elapsed_seconds, started
        self.checks, self.summary = checks, None  # the summary, once the checks are written


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
# a format's head, the text of one record, and its tail, made once every record is written
_Format = tuple[str, Callable[[CheckResult, list], str], Callable[[], str]]


def _json_format(report: RunReport) -> _Format:
    """The json report's head, the text of a record and the envelope."""
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

    def json_parameters(items: list[tuple[str, object]]) -> str:
        if not items:
            return "{}"
        return "{\n        " + ",\n        ".join(
            [f"{json_str(k)}: {json_value(v)}" for k, v in items]
        ) + "\n      }"

    def flag_value(value: object) -> str:
        # an invocation value: None for a flag left unset, a tuple of texts for --x
        if value is None:
            return "null"
        if type(value) in (tuple, list):
            items = ",\n      ".join([json_value(v) for v in value])
            return "[\n      " + items + "\n    ]" if value else "[]"
        return json_value(value)

    separator = "\n"

    def record(c: CheckResult, items: list[tuple[str, object]]) -> str:
        nonlocal separator
        text = _RECORD % (
            separator, json_str(c.check_name), json_str(c.lhs_witness), json_str(c.modulus),
            json_parameters(items), _BOOL[c.passed], json_str(c.rhs_witness),
            _BOOL[c.skipped],
        )
        separator = ",\n"
        return text

    def envelope() -> str:
        invocation = ",\n    ".join(
            [f"{json_str(k)}: {flag_value(v)}" for k, v in sorted(report.invocation.items())]
        )
        s = report.summary
        return _ENVELOPE % (
            "]" if separator == "\n" else "\n  ]", repr(report.elapsed_seconds),
            "{\n    " + invocation + "\n  }" if invocation else "{}",
            s["fail"], s["pass"], s["skipped"], json_str(report.tool_version),
        )

    return '{\n  "checks": [', record, envelope


def _params_compact(items: list[tuple[str, object]]) -> str:
    return ";".join([f"{k}={v}" for k, v in items])


class _Line:
    """The file a csv.writer writes rows to: writerow returns what write returns, the row's line."""

    write = str


def _csv_format(report: RunReport) -> _Format:
    """The header line, the keys of CheckResult.to_dict, then one line of its values per check."""
    import csv  # here, so a json or text run does not load it

    line = csv.writer(_Line(), lineterminator="\n").writerow

    def record(c: CheckResult, items: list[tuple[str, object]]) -> str:
        return line((
            c.check_name, _params_compact(items), _BOOL[c.passed], _BOOL[c.skipped],
            c.lhs_witness, c.rhs_witness, c.modulus,
        ))

    return line(skipped_result("", {}, "").to_dict()), record, lambda: ""


_WITNESS_PREVIEW = 48


def _shorten(s: str) -> str:
    if len(s) <= _WITNESS_PREVIEW:
        return s
    return s[: _WITNESS_PREVIEW - 3] + "..."


def _text_record(c: CheckResult, items: list[tuple[str, object]]) -> str:
    detail = _params_compact(items)
    if c.skipped:
        return f"SKIP {c.check_name} {detail} ({c.lhs_witness})\n"
    if c.passed:
        return f"PASS {c.check_name} {detail}\n"
    return (
        f"FAIL {c.check_name} {detail} "
        f"lhs={_shorten(c.lhs_witness)} rhs={_shorten(c.rhs_witness)} mod {c.modulus}\n"
    )


def _text_format(report: RunReport) -> _Format:
    """One line per check, then the summary line."""

    def summary() -> str:
        s = report.summary
        return (
            f"{s['pass']} passed, {s['fail']} failed, {s['skipped']} skipped "
            f"in {report.elapsed_seconds:.2f}s\n"
        )

    return "", _text_record, summary


_FORMATS = {"json": _json_format, "csv": _csv_format, "text": _text_format}


def write_report(report: RunReport, format: str, out: TextIOBase) -> None:
    """Write the report as json, csv or text to out a record at a time, so its text is never held.

    The json is json.dumps(report dict, sort_keys=True, indent=2) + newline, byte for byte.
    A record that sorts before the one written before it raises RuntimeError, leaving out
    with the records before it.
    """
    head, record, tail = _FORMATS[format](report)
    write = out.write
    write(head)
    last, passed, failed, skipped = (), 0, 0, 0
    for c in report.checks:
        items = sorted(c.parameters.items())  # one sort of each record's parameters serves all
        if (key := _sort_key(c.check_name, items)) < last:
            raise RuntimeError(
                f"the sweep gave {c.check_name} {_params_compact(items)}"
                " after a record that sorts later"
            )
        last = key
        if c.skipped:
            skipped += 1
        elif c.passed:
            passed += 1
        else:
            failed += 1
        write(record(c, items))
    # the records are gone, so a second write raises rather than write none
    report.summary, report.checks = {"pass": passed, "fail": failed, "skipped": skipped}, None
    if report.started is not None:
        report.elapsed_seconds = round(perf_counter() - report.started, 6)
    write(tail())
