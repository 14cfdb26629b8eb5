"""Fixtures and helpers shared by the test modules."""

from __future__ import annotations

import contextlib
import functools
import io
from typing import NamedTuple

import pytest


class CliResult(NamedTuple):
    exit_code: int
    output: str  # stdout and stderr, interleaved as written
    exception: BaseException | None  # the SystemExit of a non-zero exit, or what was raised


def run_cli(*args: str) -> CliResult:
    """Run `scv *args` in this process, as from a shell: main() in standalone mode."""
    from scv.cli import main

    output = io.StringIO()
    code, exception = 0, None
    with contextlib.redirect_stdout(output), contextlib.redirect_stderr(output):
        try:
            main(list(args))
        except SystemExit as exc:
            code = exc.code or 0
            exception = exc if code else None
        except Exception as exc:
            code, exception = 1, exc
    return CliResult(code, output.getvalue(), exception)


def render(report, format: str) -> str:
    """The text scv.report.write_report writes for the report, as one string."""
    from scv.report import write_report

    out = io.StringIO()
    write_report(report, format, out)
    return out.getvalue()


@pytest.fixture
def recurrence_tables(monkeypatch):
    """Swap the stored bb4 recurrence tables of scv.identities for one test.

    Each call installs the tables with a fresh per-m cache of their collapses
    and empties the cache of the last (m, n)'s coefficients; the test's end
    restores the tables and empties both, so no value of a swapped table
    outlives it.
    """
    import scv.identities as identities

    def use(tables):
        monkeypatch.setattr(identities, "_RECURRENCE_TRIPLES", tables)
        collapse = identities._coefficients_in_n.__wrapped__
        monkeypatch.setattr(
            identities, "_coefficients_in_n", functools.lru_cache(maxsize=None)(collapse)
        )
        identities.recurrence_coefficients.cache_clear()

    yield use
    identities.recurrence_coefficients.cache_clear()
