"""Every ```python block in the README runs, so a renamed or deleted public
name fails here instead of leaving the README stale."""

import re
import warnings
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"
BLOCK = re.compile(r"^```python\n(.*?)^```$", re.MULTILINE | re.DOTALL)


def test_readme_python_blocks_run():
    """Each block runs in a fresh namespace with RuntimeWarning as an error;
    a traceback names the README line it failed on."""
    text = README.read_text(encoding="utf-8")
    blocks = list(BLOCK.finditer(text))
    assert blocks
    for block in blocks:
        lead = "\n" * text.count("\n", 0, block.start(1))  # line numbers as in the README
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            exec(compile(lead + block.group(1), str(README), "exec"), {})
