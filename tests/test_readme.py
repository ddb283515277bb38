"""The README's Python tour runs against the package as it is.

Every fenced python block of README.md is executed in turn, so a tour
that uses a removed or renamed name fails here.
"""

import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def python_blocks() -> list[str]:
    text = README.read_text(encoding="utf-8")
    return re.findall(r"^```python\n(.*?)^```", text, re.S | re.M)


def test_readme_python_blocks_run():
    blocks = python_blocks()
    assert blocks, "README.md holds no python block"
    for block in blocks:
        exec(compile(block, str(README), "exec"), {"__name__": "readme"})
