"""The library example of README.md runs as written."""

import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def library_example() -> str:
    """The one `python` block of the README's "Library example" section."""
    section = README.read_text().split("\n## Library example\n", 1)[1].split("\n## ", 1)[0]
    blocks = re.findall(r"```python\n(.*?)```", section, re.S)
    assert len(blocks) == 1
    return blocks[0]


def test_readme_library_example_runs():
    exec(compile(library_example(), str(README), "exec"), {})
