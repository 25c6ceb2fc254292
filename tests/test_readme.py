"""The README's Python examples run as written against the current API."""
import os
import re

import pytest

README = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")

with open(README, encoding="utf-8") as fh:
    _BLOCKS = re.findall(r"^```python\n(.*?)^```", fh.read(), re.M | re.S)


def test_readme_has_python_examples():
    assert _BLOCKS


@pytest.mark.parametrize("index", range(len(_BLOCKS)))
def test_readme_python_block_runs(index):
    exec(compile(_BLOCKS[index], f"README.md python block {index}", "exec"), {})
