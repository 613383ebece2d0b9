"""The ```python blocks of README.md, run in order as one doctest."""

import doctest
import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_python_examples():
    text = README.read_text(encoding="utf-8")
    # a fence line would otherwise be read as the expected output of the
    # example above it, so only the code between the fences is kept
    blocks = re.findall(r"^```python\n(.*?)^```$", text, re.M | re.S)
    test = doctest.DocTestParser().get_doctest(
        "\n".join(blocks), {}, README.name, str(README), 0)
    report = []
    runner = doctest.DocTestRunner()
    runner.run(test, out=report.append)
    assert runner.tries > 0
    assert runner.failures == 0, "".join(report)
