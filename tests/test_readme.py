"""README's `>>>` examples run as a doctest, so the documented API cannot go stale."""

from __future__ import annotations

import doctest
import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_examples_run():
    blocks = re.findall(r"^```python\n(>>> .*?)^```", README.read_text(), re.M | re.S)
    assert blocks
    parser, runner = doctest.DocTestParser(), doctest.DocTestRunner()
    for i, block in enumerate(blocks):
        runner.run(parser.get_doctest(block, {}, f"README.md block {i}", str(README), 0))
    results = runner.summarize(verbose=False)
    assert results.attempted >= 6 and results.failed == 0


def test_readme_usage_block_shows_each_sweeps_default_bounds():
    # a raised --pmax, --nmax or --mmax default must not leave the usage block stale
    from scv.sweeps import SWEEPS

    usage = re.search(r"^## Command line\n.*?^```\n(.*?)^```", README.read_text(), re.M | re.S)
    lines = usage.group(1).splitlines()
    assert [line.split()[2] for line in lines] == list(SWEEPS)
    shown = 0
    for line in lines:
        defaults = {option.name: option.default for option in SWEEPS[line.split()[2]].options}
        for name, value in re.findall(r"--(pmax|nmax|mmax) (\d+)", line):
            assert int(value) == defaults[name], line
            shown += 1
    assert shown == 9  # --pmax of the five congruence sweeps, --nmax and --mmax of two grids
