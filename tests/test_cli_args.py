"""How the command line is read: well-formed argvs straight from
``cli._COMMANDS``, every other one by argparse, built from the same table.

Both readings are held to a parser with every command's flags, which is
what argparse gives when it is the only reader.
"""

import contextlib
import io
from pathlib import Path

import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from cyclehull import cli

PINS = Path(__file__).resolve().parent / "stdout_pins.txt"
FULL = cli._parser(cli._COMMANDS)


def outcome(parse, argv):
    """The fields of parse(argv), or its exit code, with stdout and stderr."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            result = vars(parse(argv))
        except SystemExit as exc:
            result = exc.code
    return result, out.getvalue(), err.getvalue()


BAD = (
    ["nonsense"],
    [],
    ["census"],
    ["census", "--n", "x"],
    ["vertices", "--n", "5", "--space", "torus"],
    ["fold", "--n", "9", "--part", "3,2,1"],
    ["census", "--n=7"],
    ["census", "--n", "7", "--n", "8"],
    ["--foo", "census", "--n", "7"],
    ["census", "--n", "7", "8"],
)


@pytest.mark.parametrize(
    "argv",
    [["--help"], *([name, "--help"] for name in cli._COMMANDS), *BAD],
    ids=lambda argv: " ".join(argv) or "(empty)",
)
def test_fallback_prints_what_a_full_parser_prints(argv):
    # the fallback adds flags to the first command named only, and the
    # help, the errors and the exit codes stay those of the full parser
    assert outcome(cli._args, argv) == outcome(FULL.parse_args, argv)


VALID = {
    int: ["7", "0", "13", " 7", "1_0", "٣"],
    str: ["3,2,1", "()", "census"],
    bool: ["7", "x"],  # a switch takes no value: these are extra tokens
}
TRICKY = ["-5", "-", "-h", "", "x", "--n", "cycle", "xn", "dot", "json"]
STRAYS = ["-h", "--", "--n=5", "--part", "--help"]


@st.composite
def argvs(draw):
    """A command, some of its flags with values, and stray tokens."""
    name = draw(st.sampled_from(list(cli._COMMANDS)))
    flags = cli._COMMANDS[name][1]
    order = draw(st.permutations(list(flags)))
    chosen = order[:draw(st.integers(0, len(order)) | st.just(len(order)))]
    if draw(st.integers(0, 3)) == 0:
        chosen.append(draw(st.sampled_from(order)))  # a repeat, or a late one
    argv = [name]
    for flag in chosen:
        argv.append(flag)
        kind = flags[flag][0]
        if kind is not bool or draw(st.integers(0, 4)) == 0:
            tricky = draw(st.integers(0, 3)) == 0
            argv.append(draw(st.sampled_from(
                TRICKY if tricky else VALID.get(kind, kind)
            )))
    if draw(st.integers(0, 2)) == 0:
        stray = draw(st.sampled_from(STRAYS))
        argv.insert(draw(st.integers(0, len(argv))), stray)
    return argv


@settings(max_examples=500, deadline=None)
@given(argvs())
def test_direct_reading_is_argparse_or_declines(argv):
    got = cli._read(argv)
    want = outcome(FULL.parse_args, argv)[0]
    if isinstance(want, dict):
        assert got in (None, want), argv
    else:  # argparse printed help or refused the argv
        assert got is None, argv


def test_pinned_jobs_are_read_directly():
    # the pinned jobs have the shapes the benchmark runs; a file
    # placeholder such as {cycle7} is a value like any other
    jobs = [
        line.split()[1:]
        for line in PINS.read_text().splitlines()
        if line and not line.startswith("#")
    ]
    direct = [argv for argv in jobs if "--help" not in argv]
    assert len(direct) == 32
    for argv in direct:
        assert cli._read(argv) == outcome(FULL.parse_args, argv)[0], argv
