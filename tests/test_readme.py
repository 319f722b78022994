"""The README's library example runs against the package as it is."""

import os
import re

README = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "README.md")


def python_blocks():
    with open(README, encoding="utf-8") as fh:
        return re.findall(r"^```python\n(.*?)^```$", fh.read(), re.M | re.S)


def test_library_example_runs():
    blocks = python_blocks()
    assert len(blocks) == 1 and "from delpezzo." in blocks[0]
    exec(compile(blocks[0], README, "exec"), {})
