"""Command-line entry point: scv verify <sweep> [flags], read off the sweep table.

The eight `verify` subcommands, their flags and their help texts come from
`sweeps.SWEEPS`, and one small parser reads argv against that table, so no
run loads argparse (with gettext and locale). argv is one of

    scv [-h | --help | --version]
    scv verify [-h | --help]
    scv verify SWEEP [-h | --help | --FLAG VALUE | --FLAG=VALUE] ...

where FLAG is one of SWEEP's options, a common option or config, VALUE may
start with "-" (--x -1/5), a flag given twice keeps its last value and only
--x collects every value. Anything else is a usage error, refused at its
first token that does not fit. Importing this module loads no scv module but
`scv`; argv that names verify loads the table, `scv.sweeps`, and a run loads
`scv.report` once its grid is built. Every grid yields the report's order, so
a run on one worker writes each record as its check returns and holds none;
a run on more workers holds the records they send back, empties every cache
of the loaded scv modules (sweeps.clear_caches), which the report never
reads, and writes them in the order they came. No scv module imports this one.

Exit codes: 0 when no check fails and at least one runs (skips allowed),
1 on any failure, including a --jobs worker that dies and a report that
cannot be written, 2 on usage errors, which include bounds that select no
checks or only skipped ones.
"""

from __future__ import annotations

import gc
import sys
import time
from itertools import chain

from . import UsageError, __version__


class RunFailure(RuntimeError):
    """The sweep's workers failed, or its report or help could not be written (exit 1)."""


def _print(text: str) -> None:
    """Write text to stdout now, so a write that fails is this run's error, not the shutdown's."""
    try:
        sys.stdout.write(text)
        sys.stdout.flush()
    except OSError as exc:
        raise RunFailure(f"could not write to stdout: {exc}") from exc


_HELP = ("-h", "--help")
_HELP_ROW = ("-h, --help", "Show this help and exit.")
_VERIFY = "Run one verification sweep and report every check."


def _help(usage: str, about: str, sections: dict[str, list[tuple[str, str]]]) -> str:
    width = max(len(left) for rows in sections.values() for left, _ in rows) + 2
    lines = [f"usage: {usage}", "", about]
    for heading, rows in sections.items():
        lines += ["", f"{heading}:", *(f"  {left:<{width}}{right}" for left, right in rows)]
    return "\n".join(lines) + "\n"


def _refuse(usage: str, message: str) -> UsageError:
    print(f"usage: {usage}", file=sys.stderr)
    return UsageError(message)


def _parse(argv: list[str], prog: str) -> tuple[str, dict[str, object]] | str:
    """The sweep argv names and the texts of the flags it gives, a list of them for --x;
    or the help or version text that argv asks for."""
    if argv[:1] == ["--version"]:
        return f"{prog}, version {__version__}\n"
    if argv[:1] == ["verify"]:
        from . import sweeps  # the sweep table, loaded once argv names verify
        if argv[1:2] and argv[1] in sweeps.SWEEPS:
            return _parse_flags(argv[1], argv[2:], f"{prog} verify {argv[1]}")
        args, usage = argv[1:], f"{prog} verify [-h] {{{','.join(sweeps.SWEEPS)}}} ..."
        about, wanted = _VERIFY, f"a sweep, one of {', '.join(sweeps.SWEEPS)}"
        sections = {"sweeps": [(name, sweep.help) for name, sweep in sweeps.SWEEPS.items()],
                    "options": [_HELP_ROW]}
    else:
        args, usage, wanted = argv, f"{prog} [-h] [--version] verify ...", "the command verify"
        about = "Exact-arithmetic verification of binomial-sum congruences and integrality claims."
        sections = {"commands": [("verify", _VERIFY)],
                    "options": [_HELP_ROW, ("--version", "Show the version and exit.")]}
    if args and args[0] in _HELP:
        return _help(usage, about, sections)
    raise _refuse(usage, f"expected {wanted}, got {args[0]!r}" if args else f"expected {wanted}")


def _parse_flags(name: str, args: list[str], command: str) -> tuple[str, dict[str, object]] | str:
    from . import sweeps
    sweep = sweeps.SWEEPS[name]
    flags = {o.name: o for o in (sweeps.CONFIG, *sweep.options, *sweeps.COMMON_OPTIONS)}
    usage = f"{command} [-h] " + " ".join(f"[--{flag} {flag.upper()}]" for flag in flags)
    given: dict[str, object] = {}
    rest = iter(args)
    for arg in rest:
        if arg in _HELP:
            rows = [_HELP_ROW, *((f"--{o.name} {o.name.upper()}", o.help) for o in flags.values())]
            return _help(usage, sweep.help, {"options": rows})
        flag, equals, text = arg.partition("=")
        option = flags.get(flag[2:]) if flag.startswith("--") else None
        if option is None:
            raise _refuse(usage, f"unrecognized argument: {arg}")
        if not equals and (text := next(rest, None)) is None:
            raise _refuse(usage, f"argument {flag}: expected one argument")
        if option.repeatable:
            given.setdefault(option.name, []).append(text)
        else:
            given[option.name] = text
    return name, given


def _run(argv: list[str], prog: str) -> int:
    parsed = _parse(argv, prog)
    if isinstance(parsed, str):
        _print(parsed)
        return 0
    name, given = parsed
    from . import sweeps
    sweep = sweeps.SWEEPS[name]
    options = (*sweep.options, *sweeps.COMMON_OPTIONS)
    texts = sweeps.load_config(given.pop("config"), name, options) if "config" in given else {}
    texts.update(given)
    values = {}
    for o in options:
        try:
            values[o.name] = o.convert(texts[o.name]) if o.name in texts else o.default
        except ValueError as exc:
            raise UsageError(f"Invalid value for '--{o.name}': {exc}") from None
    jobs, format, out = values.pop("jobs"), values.pop("format"), values.pop("out")
    start = time.perf_counter()
    tasks = sweep.grid(**values)
    if jobs == 1:  # each record is written as its check returns
        checks = map(sweeps.execute_task, tasks)
    else:
        try:
            checks = iter(sweeps.run_tasks(tasks, jobs=jobs))  # in task order, the report's
        except (OSError, RuntimeError) as exc:
            # a worker that exits non-zero or sends a result that does not decode, or a failed fork
            raise RunFailure(f"--jobs {jobs}: {exc}") from exc
        sweeps.clear_caches()  # the report reads none
    from . import report

    # an empty or all-skipped grid would pass without deciding anything: the records are
    # held until one is not skipped, so that is known before --out is opened
    held = []
    for check in checks:
        held.append(check)
        if not check.skipped:
            break
    else:
        raise UsageError(
            "every check these bounds select is skipped" if held
            else "these bounds select no checks"
        )
    run_report = report.RunReport(
        tool_version=__version__,
        invocation=dict(subcommand=f"verify {name}", **values, jobs=jobs, format=format, out=out),
        checks=chain(held, checks),
        started=start,
    )
    # each record is written as it is made, so the run never holds the report's text
    try:
        if out:
            with open(out, "w") as f:  # the encoding and newlines Path.write_text would use
                report.write_report(run_report, format, f)
        else:
            report.write_report(run_report, format, sys.stdout)
            sys.stdout.flush()
    except OSError as exc:
        raise RunFailure(f"could not write to {out or 'stdout'}: {exc}") from exc
    except RuntimeError as exc:  # a record out of report order
        raise RunFailure(str(exc)) from exc
    s = run_report.summary
    if out:
        _print(f"wrote {out}: {s['pass']} passed, {s['fail']} failed, {s['skipped']} skipped\n")
    return 0 if s["fail"] == 0 else 1


def main(
    argv: list[str] | None = None, prog_name: str = "scv", standalone_mode: bool = True
) -> int:
    """Run `scv` on argv (default sys.argv[1:]) and exit with its code.

    With standalone_mode=False the code is returned, and a UsageError or
    RunFailure propagates. Called with no argv in standalone mode, as the
    program is, main freezes the collector's objects as it exits, so the
    interpreter's shutdown skips collecting every module's cyclic objects;
    stdout, stderr and atexit are still handled as usual.
    """
    try:
        code = _run(sys.argv[1:] if argv is None else argv, prog_name)
    except (UsageError, RunFailure) as exc:
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
