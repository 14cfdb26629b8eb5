"""scv.cli reads argv off the sweep table; it must read what the argparse parser it replaced read."""

from __future__ import annotations

import contextlib
import io

from hypothesis import example, given, settings
from hypothesis import strategies as st
from oracles import argparse_parse, join_values

import scv.cli as cli
from scv import UsageError
from scv.sweeps import COMMON_OPTIONS, SWEEPS

# texts for every flag: valid ones, ones that start with "-", and ones no flag takes
VALUES = ["7", "11", "2", "0", "-3", "-1/5", "-8/11", "2/3", "-1", "+1", "both", "cc5", "all",
          "liu26", "json", "csv", "text", "report.json", "", "-h", "--pmax", "x=1"]
HELP = ["-h", "--help", "--version"]
ABBREVIATED = ["--h", "--he", "--hel", "--v", "--vers", "--pm", "--conf"]
STRAY = ["--bogus", "extra", "-5", "--", "-", "verify", "rv"]


def _valid(option, text: str) -> bool:
    try:
        option.convert((text,) if option.repeatable else text)
    except ValueError:
        return False
    return True


def _pieces(texts: dict[str, list[str]]):
    """One flag and its text, as two arguments or joined by "=", or one argument that is no pair."""
    pair = st.sampled_from(sorted(texts)).flatmap(
        lambda flag: st.tuples(st.just(flag), st.sampled_from(texts[flag])))
    single = [*HELP, *ABBREVIATED, *STRAY, *(f"--{flag}" for flag in texts)]
    return st.one_of(
        pair.map(lambda fv: [f"--{fv[0]}", fv[1]]),
        pair.map(lambda fv: [f"--{fv[0]}={fv[1]}"]),
        st.sampled_from(single).map(lambda arg: [arg]),
    )


FLAGS = {"config", *(o.name for s in SWEEPS.values() for o in (*s.options, *COMMON_OPTIONS))}
ANY_FLAG = _pieces({flag: VALUES for flag in FLAGS})


def _sweep_argv(name: str):
    # mostly the sweep's own flags with valid texts; sometimes any flag with any text
    own = {o.name: [v for v in VALUES if _valid(o, v)] for o in (*SWEEPS[name].options,
                                                                    *COMMON_OPTIONS)}
    pieces = st.lists(st.one_of(_pieces({"config": ["scv.cfg"], **own}), ANY_FLAG), max_size=6)
    return pieces.map(lambda ps: ["verify", name, *(arg for piece in ps for arg in piece)])


ARGV = st.one_of(
    st.sampled_from([[], ["verify"]]).flatmap(lambda head: st.lists(ANY_FLAG, max_size=4).map(
        lambda ps: [*head, *(arg for piece in ps for arg in piece)])),
    *(_sweep_argv(name) for name in SWEEPS),
)


def _outcome(parse, argv: list[str]) -> tuple:
    """("ok", sweep, texts), ("help", the level its usage line names), ("version",) or ("refused",)."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        try:
            parsed = parse(argv)
        except UsageError:
            return ("refused",)
        except SystemExit as exc:  # argparse's help and version
            assert exc.code == 0, argv
            parsed = None
    if isinstance(parsed, tuple):
        return ("ok", *parsed)
    printed = parsed or out.getvalue()  # the table parser returns the text it would print
    if printed.startswith("scv, version "):
        return ("version",)
    return ("help", printed.split(" [-h]", 1)[0])


def _table(argv: list[str]):
    return cli._parse(argv, "scv")


def _argparse(argv: list[str]):
    # argparse drops a value "--" (--pmax -- or --pmax=--) and passes an empty list on, which
    # scv could not convert (a TypeError traceback); the table parser passes the text on
    name, texts = argparse_parse(argv)
    text = lambda value: "--" if value == [] else value  # noqa: E731
    return name, {k: [*map(text, v)] if k == "x" else text(v) for k, v in texts.items()}


def _abbreviates_help(arg: str) -> bool:
    return len(arg) > 2 and arg not in HELP and any(full.startswith(arg) for full in HELP)


@settings(max_examples=400, deadline=None)
@given(ARGV)
@example(["verify", "guo-bb1", "--x", "-1/5", "--x=-8/11", "--x", "-2", "--pmax", "7"])
@example(["verify", "rv", "--pmax", "7", "--pmax", "11", "--config", "scv.cfg", "--jobs=-3"])
@example(["verify", "cc", "--which"])
@example(["verify", "sun-p4", "extra"])
@example(["verify", "rv", "--x", "1/3"])
@example(["verify", "guo-bb1", "--pmax", "--", "--x=--"])
@example(["--vers"])
@example(["verify", "--he", "rv"])
@example(["verify", "rv", "--bogus", "--help"])
@example(["verify", "rv", "--config", "-h", "--pm", "-h"])
@example(["verify", "-h"])
@example(["-h", "verify", "rv"])
@example(["verify", "integrality", "--pmax", "7", "-h"])
def test_table_parser_reads_what_argparse_read(argv):
    new, old = _outcome(_table, argv), _outcome(_argparse, argv)
    if new != old:
        # the named differences: argparse took abbreviations of --help and --version, and a
        # help request after a token it refused only once the whole level was read; the table
        # parser refuses both, and it refuses nothing argparse would take without the request
        assert new == ("refused",) and old[0] in ("help", "version"), (argv, new, old)
        if not any(_abbreviates_help(arg) for arg in argv):
            # the request taken out where argparse read it as one, not as a flag's value
            asked = HELP if old == ("version",) else ("-h", "--help")
            stripped = [arg for arg in join_values(argv) if arg not in asked]
            assert _outcome(_argparse, stripped) == ("refused",), (argv, new, old)


def test_help_at_each_level_names_that_level():
    assert _outcome(_table, ["--help"]) == ("help", "usage: scv")
    assert _outcome(_table, ["verify", "-h"]) == ("help", "usage: scv verify")
    for name in SWEEPS:
        assert _outcome(_table, ["verify", name, "--jobs=2", "--help"]) == (
            "help", f"usage: scv verify {name}")
    assert _outcome(_table, ["--version", "verify"]) == ("version",)
