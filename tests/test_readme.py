"""README's code runs as printed: a removed or renamed API fails here, not in a reader's hands."""

import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_quick_tour_runs():
    text = README.read_text()
    (block,) = re.findall(r"## Library quick tour\n\n```python\n(.*?)```", text, re.S)
    exec(compile(block, "README.md quick tour", "exec"), {})
