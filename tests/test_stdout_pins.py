"""The stdout of one job per subcommand, pinned by its sha256.

Each line of stdout_pins.txt holds the sha256 of a job's stdout and the
job's arguments to ``python -m cyclehull``; ``{cycle7}`` stands for a
file holding the distance matrix of C_7, and ``{triangle}`` for one of
the uniform triangle at distance 1, whose span has the half-integral
centre (1/2, 1/2, 1/2).  Every job runs as a user runs it, in a fresh
interpreter with no bytecode cache, twice: once through a buffered
stdout (``PYTHONUNBUFFERED`` empty) and once through an unbuffered one
(``PYTHONUNBUFFERED=1``), each set for the job alone, with ``COLUMNS``
unset, so that argparse wraps the two ``--help`` jobs at 80 columns and
the result does not depend on the caller's environment.  A case's id is
the job, led by ``PYTHONUNBUFFERED=1`` in the unbuffered mode.
"""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

from cyclehull.partitions import model_matrix

HERE = Path(__file__).resolve().parent
PINS = [
    line.split(None, 1)
    for line in (HERE / "stdout_pins.txt").read_text().splitlines()
    if line and not line.startswith("#")
]
MODES = {"": "", "1": "PYTHONUNBUFFERED=1 "}


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
    commands = {job.split()[0] for _, job in PINS} - {"--help"}
    assert len(PINS) == 34 and commands == {
        "census", "vertices", "skeleton", "fold", "fibre", "embed", "counts", "oracle"
    }


@pytest.mark.parametrize("want, job, unbuffered", [
    pytest.param(want, job, unbuffered, id=prefix + job)
    for unbuffered, prefix in MODES.items()
    for want, job in PINS
])
def test_stdout_is_pinned(want, job, unbuffered, cycle7, triangle):
    files = {"{cycle7}": cycle7, "{triangle}": triangle}
    argv = [files.get(arg, arg) for arg in job.split()]
    env = dict(
        os.environ,
        PYTHONPATH=str(HERE.parent / "src"),
        PYTHONDONTWRITEBYTECODE="1",
        PYTHONUNBUFFERED=unbuffered,
    )
    env.pop("COLUMNS", None)  # argparse's help wraps at 80 columns
    proc = subprocess.run(
        [sys.executable, "-m", "cyclehull", *argv], capture_output=True, env=env
    )
    case = f"PYTHONUNBUFFERED={unbuffered!r} {job}"
    assert proc.returncode == 0, f"{case}: exit {proc.returncode}\n{proc.stderr.decode()}"
    assert hashlib.sha256(proc.stdout).hexdigest() == want, f"{case}: stdout changed"
