"""write_report's json writes each record from a template; it must equal json.dumps byte for byte.

A report reads its records once and checks their order, so a list of records
given here is put in the report's order by the oracle's sort key first.
"""

from __future__ import annotations

import json

import pytest
from conftest import render, run_cli
from oracles import check_sort_key_oracle, render_json_oracle
from test_report_golden import CASES

import scv.report
import scv.sweeps
from scv import __version__, identities
from scv.report import CheckResult, RunReport, skipped_result
from scv.sweeps import SWEEPS, execute_task, run_tasks

ODD_TEXT = (
    'quote " backslash \\ slash / newline \n tab \t nul \x00 bell \x07 del \x7f '
    "e-acute \u00e9 pi \u03c0 line-sep \u2028 bom \ufeff astral \U0001d53d"
)


def _record(name, params, witness="1", passed=True, skipped=False, modulus="exact"):
    return CheckResult(name, params, passed, witness, witness[::-1], modulus, skipped)


def _in_report_order(checks):
    return sorted(checks, key=check_sort_key_oracle)


def _same(report: RunReport) -> str:
    """The json the report writes, once it has been checked against the oracle's."""
    want = render_json_oracle(report)  # before the write, which reads the records once
    got = render(report, "json")
    if got != want:  # not an assert: pytest would diff the megabyte strings
        at = next((i for i, pair in enumerate(zip(got, want)) if pair[0] != pair[1]), None)
        at = min(len(got), len(want)) if at is None else at
        pytest.fail(f"first difference at {at}: {got[at - 40:at + 40]!r} != {want[at - 40:at + 40]!r}")
    return got


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_cases_render_as_json_dumps(monkeypatch, name):
    seen, kept = [], []
    write = scv.report.write_report

    def keep(report, format, out):
        kept.extend(report.checks)  # a run's live records, kept for the oracle
        report.checks = iter(kept)
        seen.append(report)
        write(report, format, out)

    monkeypatch.setattr(scv.report, "write_report", keep)
    res = run_cli("verify", *CASES[name], "--format", "json")
    assert res.exit_code == 0, res.output
    (report,) = seen
    assert kept
    report.checks = kept
    assert res.output == render_json_oracle(report)  # what the run wrote, as json.dumps writes it


@pytest.mark.parametrize("sweep,options", [
    ("identity", {"name": "all", "max": None}),
    ("cc", {"which": "all", "pmax": 40}),
])
def test_benchmark_grids_render_as_json_dumps(sweep, options):
    checks = list(run_tasks(SWEEPS[sweep].grid(**options)))
    _same(RunReport(__version__, {"subcommand": f"verify {sweep}", **options}, checks, 0.125))


def test_escaped_witnesses_and_error_messages_render_as_json_dumps(monkeypatch):
    def raises(**params):
        raise ValueError(ODD_TEXT)

    checks = [
        _record("plain", {"p": 5}, witness=ODD_TEXT),
        _record(ODD_TEXT, {ODD_TEXT: ODD_TEXT, "p": -7}, passed=False, modulus=ODD_TEXT),
        skipped_result("skip", {"x": "-1/2", "p": 3}, ODD_TEXT),
        _record("", {"": ""}, witness=""),
    ]
    monkeypatch.setitem(scv.sweeps.KINDS, "odd", ("identities", "odd"))
    monkeypatch.setattr(identities, "odd", raises, raising=False)
    checks.append(execute_task(("odd", (("n", 10**40), ("x", "\u00e9")))))
    assert checks[-1].lhs_witness.startswith("error: ValueError: quote")
    checks = _in_report_order(checks)
    report = RunReport(__version__, {"subcommand": ODD_TEXT, "x": [ODD_TEXT]}, checks, 0.5)
    (odd,) = [c for c in json.loads(_same(report))["checks"] if c["check_name"] == "odd"]
    assert odd["lhs_witness"].endswith("\U0001d53d")


def test_parameter_shapes_and_empty_reports_render_as_json_dumps():
    checks = _in_report_order([
        _record("a", {}),
        _record("a", {"s": "text"}),
        _record("a", {"n": 0, "m": 12, "side": "lhs"}, passed=False),
        _record("b", {"eps": -1, "n": 3, "m": 1}, skipped=True, passed=False),
    ])
    _same(RunReport(__version__, {"subcommand": "verify identity", "max": None}, checks, 1.5))
    _same(RunReport(__version__, {}, [], 0.0))
    _same(RunReport(__version__, {"out": None, "jobs": 2}, checks[:1], 3.25))
    # the envelope as scv.cli fills it: x a tuple, unset flags None, --out any path
    odd_path = 'reports/r\u00e9sum\u00e9 "quoted" back\\slash.json'
    invocations = [
        {"subcommand": "verify guo-bb1", "pmax": 7, "x": (), "jobs": 1, "format": "json",
         "out": None},
        {"subcommand": "verify guo-bb1", "pmax": 7, "x": ("-1/5", "2/3"), "jobs": 2,
         "format": "json", "out": odd_path},
        {"subcommand": "verify identity", "name": "all", "max": None, "out": odd_path},
    ]
    for invocation in invocations:
        for elapsed in (0.0, 1e-06, 12345.678901):
            _same(RunReport(__version__, invocation, checks, elapsed))
            _same(RunReport(__version__, invocation, [], elapsed))


@pytest.mark.parametrize("value", [[1, 2], {"a": 1}, 1.5, True, None])
def test_parameters_other_than_str_or_int_are_refused(value):
    with pytest.raises(TypeError):
        render(RunReport(__version__, {}, [_record("a", {"x": value})]), "json")
