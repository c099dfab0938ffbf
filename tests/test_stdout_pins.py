"""The stdout of one job per subcommand, pinned by its sha256.

Each line of stdout_pins.txt holds the sha256 of a job's stdout and the
job's arguments to ``python -m cyclehull``; ``{cycle7}`` stands for a
file holding the distance matrix of C_7, and ``{triangle}`` for one of
the uniform triangle at distance 1, whose span has the half-integral
centre (1/2, 1/2, 1/2).  Light jobs run through
``cli.main`` with stdout captured.  The hull exports at N >= 13, whose
output is large, run in a fresh interpreter, as a user runs them.  The CI
workflow reads the same file and runs every job in a fresh interpreter,
once with a buffered and once with an unbuffered stdout.
"""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

from cyclehull.cli import main
from cyclehull.partitions import model_matrix

HERE = Path(__file__).resolve().parent
PINS = [
    line.split(None, 1)
    for line in (HERE / "stdout_pins.txt").read_text().splitlines()
    if line and not line.startswith("#")
]


def runs_fresh(argv):
    return argv[0] in ("skeleton", "vertices") and int(argv[argv.index("--n") + 1]) >= 13


@pytest.fixture(scope="module")
def cycle7(tmp_path_factory):
    path = tmp_path_factory.mktemp("pins") / "cycle7.txt"
    rows = [" ".join(map(str, row)) for row in model_matrix("cycle", 7)]
    path.write_text("\n".join(["7", *rows]) + "\n")
    return str(path)


@pytest.fixture(scope="module")
def triangle(tmp_path_factory):
    path = tmp_path_factory.mktemp("pins") / "triangle.txt"
    path.write_text("3\n0 1 1\n1 0 1\n1 1 0\n")
    return str(path)


def test_pins_cover_every_subcommand():
    commands = {job.split()[0] for _, job in PINS}
    assert len(PINS) == 32 and commands == {
        "census", "vertices", "skeleton", "fold", "fibre", "embed", "counts", "oracle"
    }


@pytest.mark.parametrize("want, job", PINS, ids=[job for _, job in PINS])
def test_stdout_is_pinned(want, job, cycle7, triangle, capsys):
    files = {"{cycle7}": cycle7, "{triangle}": triangle}
    argv = [files.get(arg, arg) for arg in job.split()]
    if runs_fresh(argv):
        env = dict(
            os.environ,
            PYTHONPATH=str(HERE.parent / "src"),
            PYTHONDONTWRITEBYTECODE="1",
        )
        proc = subprocess.run(
            [sys.executable, "-m", "cyclehull", *argv], capture_output=True, env=env
        )
        code, out = proc.returncode, proc.stdout
    else:
        code = main(argv)
        out = capsys.readouterr().out.encode()
    assert code == 0, job
    assert hashlib.sha256(out).hexdigest() == want, job
