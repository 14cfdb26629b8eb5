"""Command-line driver: scv verify <sweep> [flags].

The eight `verify` subcommands are built from `sweeps.SWEEPS`.

Exit codes: 0 when no check fails and at least one runs (skips allowed),
1 on any failure, 2 on usage errors, which include bounds that select no
checks or only skipped ones.
"""

from __future__ import annotations

import time
from functools import partial
from pathlib import Path

import click

from . import __version__, sweeps
from .report import RunReport, render_csv, render_json, render_text

_RENDERERS = {"json": render_json, "csv": render_csv, "text": render_text}


def _load_config(ctx: click.Context, param: click.Parameter, path: str | None) -> None:
    """Read key=value lines into the command's defaults; keys are flag names."""
    if path is None:
        return
    keys = {p.name for p in ctx.command.params if p.expose_value}
    values: dict[str, object] = {}
    for lineno, line in enumerate(Path(path).read_text().splitlines(), 1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise click.UsageError(f"{path}:{lineno}: expected key=value, got {line!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in keys:
            raise click.UsageError(
                f"{path}:{lineno}: {key!r} is not an option of {ctx.command.name}"
                f" (keys: {', '.join(sorted(keys))})"
            )
        values[key] = [x.strip() for x in value.split(",") if x.strip()] if key == "x" else value
    ctx.default_map = values


def _out_dir_exists(ctx: click.Context, param: click.Parameter, path: str | None) -> str | None:
    """Reject an --out FILE in a missing directory before the sweep runs."""
    if path is not None and not Path(path).parent.is_dir():
        raise click.BadParameter(f"directory {Path(path).parent} does not exist")
    return path


_COMMON_OPTIONS = (
    click.Option(
        ["--config"], type=click.Path(exists=True, dir_okay=False), default=None,
        is_eager=True, expose_value=False, callback=_load_config,
        help="key=value file supplying defaults; explicit flags win.",
    ),
    click.Option(
        ["--jobs"], type=click.IntRange(min=1), default=1, show_default=True,
        help="Worker processes for the sweep grid.",
    ),
    click.Option(
        ["--format"], type=click.Choice(list(_RENDERERS)), default="text", show_default=True,
        help="Report format.",
    ),
    click.Option(
        ["--out"], type=click.Path(dir_okay=False, writable=True), default=None,
        callback=_out_dir_exists, help="Write the report to FILE instead of stdout.",
    ),
)


def _execute(
    subcommand: str, grid: sweeps.Grid, jobs: int, format: str, out: str | None, **options
) -> None:
    start = time.perf_counter()
    checks = sweeps.run_tasks(grid(**options), jobs=jobs)
    elapsed = time.perf_counter() - start
    # an empty or all-skipped grid would pass without deciding anything
    if all(check.skipped for check in checks):
        raise click.UsageError(
            "every check these bounds select is skipped" if checks
            else "these bounds select no checks"
        )
    report = RunReport(
        tool_version=__version__,
        invocation=dict(subcommand=subcommand, **options, jobs=jobs, format=format, out=out),
        checks=checks,
        elapsed_seconds=round(elapsed, 6),
    )
    rendered = _RENDERERS[format](report)
    if out:
        Path(out).write_text(rendered)
        s = report.summary
        click.echo(
            f"wrote {out}: {s['pass']} passed, {s['fail']} failed, {s['skipped']} skipped"
        )
    else:
        click.echo(rendered, nl=False)
    click.get_current_context().exit(0 if report.failures == 0 else 1)


@click.group(context_settings={"help_option_names": ["-h", "--help"]})
@click.version_option(version=__version__, prog_name="scv")
def main() -> None:
    """Exact-arithmetic verification of binomial-sum congruences and integrality claims."""


@main.group()
def verify() -> None:
    """Run one verification sweep and report every check."""


for _name, _sweep in sweeps.SWEEPS.items():
    verify.add_command(click.Command(
        _name, callback=partial(_execute, f"verify {_name}", _sweep.grid),
        params=[*_sweep.options, *_COMMON_OPTIONS], help=_sweep.help,
    ))


if __name__ == "__main__":
    main()
