"""Command-line driver: scv verify <sweep> [flags], on the standard library's argparse.

The eight `verify` subcommands are built from `sweeps.SWEEPS`. Importing this
module loads no scv module but `scv` and `scv.sweeps`, so `--version`, `--help`
and a usage error load no arithmetic; a run loads `scv.report` once its sweep
has run.

Exit codes: 0 when no check fails and at least one runs (skips allowed),
1 on any failure, including a --jobs worker that dies, 2 on usage errors,
which include bounds that select no checks or only skipped ones.
"""

from __future__ import annotations

import argparse
import gc
import os
import sys
import time
from pathlib import Path
from typing import TYPE_CHECKING, Callable

from . import __version__, sweeps
from .sweeps import Option, UsageError, choice_option, int_option

if TYPE_CHECKING:
    from .report import RunReport


def _renderer(format: str) -> Callable[[RunReport], str]:
    def render(run_report: RunReport) -> str:
        from . import report  # looked up per call: the parser needs only the format names

        return getattr(report, f"render_{format}")(run_report)

    return render


_RENDERERS = {format: _renderer(format) for format in ("json", "csv", "text")}


def _writable(path: str) -> str:
    """Refuse an --out FILE that could not be written, before the sweep runs.

    A FILE that does not exist yet is made in its directory, which must then
    be writable and searchable.
    """
    target = Path(path)
    if not target.parent.is_dir():
        raise UsageError(f"directory {target.parent} does not exist")
    if target.exists():
        writable = not target.is_dir() and os.access(target, os.W_OK)
    else:
        writable = os.access(target.parent, os.W_OK | os.X_OK)
    if not writable:
        raise UsageError(f"{path} is a directory or is not writable")
    return path


_COMMON_OPTIONS = (
    int_option("jobs", 1, 1, help="Worker processes for the sweep grid."),
    choice_option("format", _RENDERERS, "text", "Report format."),
    Option("out", None, _writable, "Write the report to FILE instead of stdout."),
)


def _load_config(path: str, command: str, options: tuple[Option, ...]) -> dict[str, object]:
    """Read key=value lines as the texts of the command's flags; x is comma-separated."""
    if not Path(path).is_file():
        raise UsageError(f"Invalid value for '--config': file {path!r} does not exist")
    keys = {option.name for option in options}
    values: dict[str, object] = {}
    for lineno, line in enumerate(Path(path).read_text().splitlines(), 1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise UsageError(f"{path}:{lineno}: expected key=value, got {line!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in keys:
            raise UsageError(
                f"{path}:{lineno}: {key!r} is not an option of {command}"
                f" (keys: {', '.join(sorted(keys))})"
            )
        values[key] = [x.strip() for x in value.split(",") if x.strip()] if key == "x" else value
    return values


class WorkerFailure(RuntimeError):
    """The sweep's workers could not deliver its results (exit 1)."""


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):
        self.print_usage(sys.stderr)
        raise UsageError(message)


def _parser(prog: str, only: str | None) -> argparse.ArgumentParser:
    """Every sweep's subcommand, with the flags of the sweep `only` alone."""
    parser = _Parser(prog=prog, description="Exact-arithmetic verification of binomial-sum"
                     " congruences and integrality claims.")
    parser.add_argument("--version", action="version", version=f"%(prog)s, version {__version__}")
    verify = parser.add_subparsers(dest="command", required=True).add_parser(
        "verify", help="Run one verification sweep and report every check."
    )
    subcommands = verify.add_subparsers(dest="sweep", required=True)
    for name, sweep in sweeps.SWEEPS.items():
        # only the flags given land in the namespace; a config file and the defaults fill the rest
        sub = subcommands.add_parser(name, help=sweep.help, description=sweep.help,
                                     allow_abbrev=False, argument_default=argparse.SUPPRESS)
        if name != only:  # argparse reads a sweep's flags only when that sweep is named
            continue
        sub.add_argument("--config", help="key=value file supplying defaults; explicit flags win.")
        for option in (*sweep.options, *_COMMON_OPTIONS):
            sub.add_argument(f"--{option.name}", help=option.help,
                             action="append" if option.repeatable else "store")
    return parser


def _join_values(argv: list[str]) -> list[str]:
    """--x -1/5 as --x=-1/5: every flag but --help takes one value, which may start with "-"."""
    flags = {"--config", *(f"--{o.name}" for s in sweeps.SWEEPS.values() for o in s.options),
             *(f"--{o.name}" for o in _COMMON_OPTIONS)}
    joined: list[str] = []
    for arg in argv:
        if joined and joined[-1] in flags:
            joined[-1] += f"={arg}"
        else:
            joined.append(arg)
    return joined


def _run(argv: list[str], prog: str) -> int:
    argv = _join_values(argv)
    named = argv[1] if argv[:1] == ["verify"] and len(argv) > 1 else None
    given = vars(_parser(prog, named).parse_args(argv))
    name = given["sweep"]
    sweep = sweeps.SWEEPS[name]
    options = (*sweep.options, *_COMMON_OPTIONS)
    texts = _load_config(given["config"], name, options) if "config" in given else {}
    texts.update(given)
    values = {}
    for o in options:
        try:
            values[o.name] = o.convert(texts[o.name]) if o.name in texts else o.default
        except ValueError as exc:
            raise UsageError(f"Invalid value for '--{o.name}': {exc}") from None
    jobs, format, out = values.pop("jobs"), values.pop("format"), values.pop("out")
    start = time.perf_counter()
    try:
        checks = sweeps.run_tasks(sweep.grid(**values), jobs=jobs)
    except (OSError, RuntimeError) as exc:
        # a worker that exits non-zero or sends a result that does not decode, or a failed fork
        raise WorkerFailure(f"--jobs {jobs}: {exc}") from exc
    elapsed = time.perf_counter() - start
    from .report import RunReport

    # an empty or all-skipped grid would pass without deciding anything
    if all(check.skipped for check in checks):
        raise UsageError(
            "every check these bounds select is skipped" if checks
            else "these bounds select no checks"
        )
    report = RunReport(
        tool_version=__version__,
        invocation=dict(subcommand=f"verify {name}", **values, jobs=jobs, format=format, out=out),
        checks=checks,
        elapsed_seconds=round(elapsed, 6),
    )
    rendered = _RENDERERS[format](report)
    if out:
        Path(out).write_text(rendered)
        s = report.summary
        print(f"wrote {out}: {s['pass']} passed, {s['fail']} failed, {s['skipped']} skipped")
    else:
        sys.stdout.write(rendered)
    return 0 if report.failures == 0 else 1


def main(
    argv: list[str] | None = None, prog_name: str = "scv", standalone_mode: bool = True
) -> int:
    """Run `scv` on argv (default sys.argv[1:]) and exit with its code.

    With standalone_mode=False the code is returned, and a UsageError or
    WorkerFailure propagates. Called with no argv in standalone mode, as the
    program is, main freezes the collector's objects as it exits, so the
    interpreter's shutdown skips collecting every module's cyclic objects;
    stdout, stderr and atexit are still handled as usual.
    """
    try:
        code = _run(sys.argv[1:] if argv is None else argv, prog_name)
    except (UsageError, WorkerFailure) as exc:
        if not standalone_mode:
            raise
        print(f"Error: {exc}", file=sys.stderr)
        code = 2 if isinstance(exc, UsageError) else 1
    finally:
        if argv is None and standalone_mode:
            gc.freeze()
    if standalone_mode:
        sys.exit(code)
    return code


main.main = main  # so scv.cli.main.main(argv, prog_name="scv", standalone_mode=False) works too

if __name__ == "__main__":
    main()
