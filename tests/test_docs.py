"""The README's code examples run as written."""

import doctest
import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"
PYTHON_BLOCK = re.compile(r"^```python\n(.*?)^```", re.MULTILINE | re.DOTALL)


def test_readme_python_blocks_are_passing_doctests():
    # The blocks run in order in one namespace, as a reader would type them.
    source = "\n".join(PYTHON_BLOCK.findall(README.read_text()))
    test = doctest.DocTestParser().get_doctest(source, {}, "README.md", str(README), 0)
    runner = doctest.DocTestRunner()
    runner.run(test)
    assert test.examples
    assert runner.failures == 0
