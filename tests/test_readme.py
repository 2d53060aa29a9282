"""The README's Python API example runs and its CLI commands parse."""

from __future__ import annotations

import contextlib
import io
import re
import shlex
from pathlib import Path

import pytest

from it2anfis.cli import build_parser

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


def _quick_start_commands() -> list[list[str]]:
    """The ``it2anfis`` lines of the Quick start block, as argv lists."""
    section = README.read_text().split("## Quick start", 1)[1]
    block = re.search(r"^```\n(.*?)^```$", section,
                      re.MULTILINE | re.DOTALL).group(1)
    lines = block.replace("\\\n", " ").splitlines()
    return [shlex.split(line)[1:] for line in lines
            if line.startswith("it2anfis ")]


def test_quick_start_commands_parse(capsys):
    commands = _quick_start_commands()
    assert [argv[0] for argv in commands] == [
        "synth", "train", "predict", "evaluate", "explain", "sweep"]
    for argv in commands:
        try:
            build_parser().parse_args(argv)
        except SystemExit:
            pytest.fail(f"README command does not parse: it2anfis "
                        f"{shlex.join(argv)}: {capsys.readouterr().err}")
