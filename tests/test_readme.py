"""The README's Python API example runs as written."""

from __future__ import annotations

import contextlib
import io
import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_python_example_runs():
    blocks = re.findall(r"^```python\n(.*?)^```$", README.read_text(),
                        re.MULTILINE | re.DOTALL)
    assert len(blocks) == 1
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(blocks[0], str(README), "exec"), {})
    lines = out.getvalue().splitlines()
    assert len(lines) == 3
    assert all(re.fullmatch(r"-?[\d.]+ in \[-?[\d.]+, -?[\d.]+\]", line)
               for line in lines)
