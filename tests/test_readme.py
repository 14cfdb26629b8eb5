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
