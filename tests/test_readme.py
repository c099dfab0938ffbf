"""The README's examples give what the README shows.

The library quick start is a doctest.  Each console example that shows
output runs as ``python -m cyclehull`` in a fresh interpreter, and its
stdout must match the lines shown, in order; a shown line that starts
and ends with ``...`` stands for any run of lines.
"""

import doctest
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

from cyclehull.spaces import model_matrix

ROOT = Path(__file__).resolve().parent.parent
README = ROOT / "README.md"


def console_examples():
    text = README.read_text().split("## Command line", 1)[1]
    block = text.split("```", 2)[1]
    examples = []
    for command in block.split("\n$ ")[1:]:
        line, *shown = command.strip().splitlines()
        if shown:
            examples.append((line, shown))
    return examples


EXAMPLES = console_examples()


def test_library_quick_start():
    result = doctest.testfile(str(README), module_relative=False)
    assert result.attempted and not result.failed


def test_console_examples_are_found():
    assert [line.split()[:2] for line, _ in EXAMPLES] == [
        ["cyclehull", "census"], ["cyclehull", "fold"],
        ["cyclehull", "fibre"], ["cyclehull", "oracle"],
    ]


@pytest.mark.parametrize("line, shown", EXAMPLES, ids=[line for line, _ in EXAMPLES])
def test_console_example(line, shown, tmp_path):
    rows = [" ".join(map(str, row)) for row in model_matrix("cycle", 5)]
    (tmp_path / "c5.txt").write_text("\n".join(["5", *rows]) + "\n")
    argv = shlex.split(line)[1:]
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, "-m", "cyclehull", *argv],
        capture_output=True, text=True, cwd=tmp_path, env=env,
    )
    assert proc.returncode == 0, proc.stderr
    pattern = "".join(
        r"(?:.*\n)*?" if shown_line.startswith("...") and shown_line.endswith("...")
        else re.escape(shown_line) + r"\n"
        for shown_line in shown
    )
    assert re.fullmatch(pattern, proc.stdout), (line, proc.stdout[:2000])
