"""Command-line surface for the hull constructions.

Every subcommand is deterministic given its flags.  Its handler yields
its text and returns its exit status; `main` passes it to `_write_blocks`,
the one writer of command text, which writes blocks of about 64 KiB, so
text appears as a block fills or the command ends (`counts` prints its
two lines together).  A refusal raises before any text; a failed
invariant that a command can only check as it goes (a fibre's member
count, an export's tau orbit) raises after the text made before it,
which is written first.  Exit codes: 0
success, 1 comparison mismatch, 2 usage or validation error, 141
(128 + SIGPIPE) when the reader closes stdout early, as in
`skeleton ... | head -1`; that one prints nothing on stderr.  `main`
flushes stdout before it returns, so a reader that closed early is
caught there even when the text is still in the buffer, however short.
Run as the program (no `argv`: `python -m cyclehull` and the `cyclehull`
script), `main` then freezes the heap with `gc.freeze()`, so the
collections of interpreter shutdown skip every object the process made
(6 to 10 ms of a 70 ms command); shutdown still runs `atexit` handlers
and flushes, where `os._exit` would not.  Called with an `argv`, as in
tests, `main` leaves the collector alone.  No configuration files or
environment variables.  Each subcommand imports the modules it runs,
and no more, so `--help` loads none of them.

Each subcommand is stated once, in `_COMMANDS`.  A well-formed command
line is read straight from that table, so it never loads `argparse`
(nor its `gettext` and `locale`).  `--help` and every other command line
go to argparse, built from the same table, so help, errors and exit
codes are argparse's.  `main` lifts Python's 4,300-digit limit on
converting between `int` and `str` for its process, since exact answers
pass it (the census of `C_15001`).
"""

from __future__ import annotations

import gc
import os
import sys
from types import SimpleNamespace

from . import _BLOCK


def _write_blocks(text) -> int:
    """Write a handler's text in blocks of about 64 KiB; return its exit status."""
    block, size = [], 0
    while True:
        try:
            chunk = next(text)
        except StopIteration as stop:
            if block:
                sys.stdout.write("".join(block))
            return stop.value or 0
        except ValueError:
            if block:  # the text made before a failure goes out before it
                sys.stdout.write("".join(block))
            raise
        block.append(chunk)
        size += len(chunk)
        if size >= _BLOCK:
            sys.stdout.write("".join(block))
            block, size = [], 0


def _cmd_census(args):
    from .census import face_count, face_polynomial

    n, v = args.n, args.v
    yield str(face_polynomial(n) if v is None else face_count(n, v))
    yield "\n"  # a chunk of its own: the census text is not copied


def _cmd_vertices(args):
    from .export import json_chunks, vertex_lines

    if args.json:
        yield from json_chunks(args.space, args.n, faces=False)
        yield "\n"
    else:
        yield from vertex_lines(args.space, args.n)


def _cmd_skeleton(args):
    from .export import dot_chunks, json_chunks

    if args.format == "dot":
        yield from dot_chunks(args.space, args.n)
    else:
        yield from json_chunks(args.space, args.n)
        yield "\n"


def _cmd_fold(args):
    from .moebius import fold_trace, site_str
    from .partitions import format_partition, parse_partition

    folded, trace = fold_trace(parse_partition(args.partition), args.n)
    yield f"{format_partition(folded) or '()'}\n"
    for part, site in trace:
        yield f"{part} {site_str(site)}\n"


def _cmd_fibre(args):
    from .moebius import fibre_factorization, fibre_walk, fold_fibre_size
    from .partitions import format_partition, parse_partition

    # each member printed as walked, the size read off the Catalan word:
    # fresh on a 2-vCPU VM, N = 25's C_12*C_0^13 (208,012 members) and
    # N = 27's C_13*C_0^14 (742,900) peak at 14.2 MB, about what `fold`
    # takes, where the held fibre took 41.1 MB at N = 25; refused past
    # moebius.FIBRE_BUDGET before the first member
    lam = parse_partition(args.partition)
    for member in fibre_walk(lam, args.n):
        yield f"{format_partition(member) or '()'}\n"
    yield f"{fibre_factorization(lam, args.n)} = {fold_fibre_size(lam, args.n)}\n"


def _cmd_oracle(args):
    from .oracle import FiniteMetric, doubled_span, span_lines

    metric = FiniteMetric.from_file(args.metric)
    if args.compare is not None:
        # checked before the walk, which can take long at any size
        kind, _, tail = args.compare.partition(":")
        if kind not in ("cycle", "xn") or not tail.isdigit():
            raise ValueError(f"bad --compare value {args.compare!r}")
        if int(tail) != metric.n:
            raise ValueError(
                f"--compare {args.compare} has N = {int(tail)} points,"
                f" the metric has {metric.n}"
            )
    verts, edges = doubled_span(metric)  # 2f per vertex: no Fraction
    if args.compare is None:
        yield from span_lines(verts, edges)
        return
    from .hullwalk import doubled_hull

    want_v, want_e = doubled_hull(kind, metric.n)
    if verts == want_v and edges == want_e:
        yield f"MATCH: {len(verts)} vertices, {len(edges)} edges\n"
        return
    yield (
        f"MISMATCH: oracle {len(verts)} vertices / {len(edges)} edges,"
        f" construction {len(want_v)} vertices / {len(want_e)} edges,"
        f" shared {len(verts & want_v)} vertices / {len(edges & want_e)} edges\n"
    )
    return 1


def _cmd_counts(args):
    from .census import count_band
    from .partitions import band_limits, band_rows
    from .walks import row_count

    # the row count runs first, so that its refusal, or the row table's,
    # comes before any text and count_band runs only within ROW_BUDGET
    rows = band_rows(args.n, *band_limits(args.n, args.m))
    enumeration = row_count(args.n, rows)
    yield f"trace: {count_band(args.n, args.m)}\n"
    yield f"enumeration: {enumeration}\n"


def _cmd_embed(args):
    from .moebius import double_embed
    from .partitions import format_partition, parse_partition

    lam = parse_partition(args.partition)
    yield f"{format_partition(double_embed(lam, args.n)) or '()'}\n"


# name -> (help, {flag: (kind, required, help)}, handler); a kind is int,
# str, a tuple of choices, or bool for a switch that takes no value
_COMMANDS = {
    "census": ("face polynomial or one face count", {
        "--n": (int, True, None),
        "--v": (int, False, "face dimension"),
    }, _cmd_census),
    "vertices": ("hull vertex functions", {
        "--n": (int, True, None),
        "--space": (("cycle", "xn"), True, None),
        "--json": (bool, False, None),
    }, _cmd_vertices),
    "skeleton": ("1-skeleton export", {
        "--n": (int, True, None),
        "--space": (("cycle", "xn"), True, None),
        "--format": (("dot", "json"), True, None),
    }, _cmd_skeleton),
    "fold": ("fold a partition into the band", {
        "--n": (int, True, None),
        "--partition": (str, True, 'e.g. "5,4,2,1"'),
    }, _cmd_fold),
    "fibre": ("fold fibre and Catalan factorization", {
        "--n": (int, True, None),
        "--partition": (str, True, None),
    }, _cmd_fibre),
    "oracle": ("tight span of a metric", {
        "--metric": (str, True, "matrix file"),
        "--compare": (str, False, "cycle:N or xn:N"),
    }, _cmd_oracle),
    "counts": ("band count, closed form vs enumeration", {
        "--n": (int, True, None),
        "--m": (int, True, None),
    }, _cmd_counts),
    "embed": ("doubling map into Y_2N", {
        "--n": (int, True, None),
        "--partition": (str, True, None),
    }, _cmd_embed),
}


def _read(argv):
    """The fields argparse would give `argv`, read directly, or None.

    Only the plain form is read: a command, then its own flags spelled
    out, each at most once, each but a switch followed by a value that
    does not start with "-".  Everything else, help included, is left
    to argparse.
    """
    if not argv or argv[0] not in _COMMANDS:
        return None
    _, flags, handler = _COMMANDS[argv[0]]
    fields = {"command": argv[0], "func": handler}
    for flag, (kind, _, _) in flags.items():
        fields[flag[2:]] = False if kind is bool else None
    seen = set()
    tokens = iter(argv[1:])
    for flag in tokens:
        if flag not in flags or flag in seen:
            return None
        seen.add(flag)
        kind = flags[flag][0]
        if kind is bool:
            fields[flag[2:]] = True
            continue
        value = next(tokens, "-")  # a missing value reads as "-"
        if value.startswith("-"):
            return None
        if kind is int:
            try:
                value = int(value)
            except ValueError:
                return None
        elif kind is not str and value not in kind:
            return None
        fields[flag[2:]] = value
    if any(spec[1] and flag not in seen for flag, spec in flags.items()):
        return None
    return fields


def _parser(flagged):
    """argparse's parser: every command, with flags for those in `flagged`."""
    import argparse

    parser = argparse.ArgumentParser(
        prog="cyclehull",
        description="Injective hulls of cycles via partition combinatorics.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (text, flags, handler) in _COMMANDS.items():
        # argparse reaches only the named command's parser; the others
        # lend the top-level usage their names and help, and no -h
        p = sub.add_parser(name, help=text, add_help=name in flagged)
        p.set_defaults(func=handler)
        if name not in flagged:
            continue
        for flag, (kind, required, text) in flags.items():
            if kind is bool:
                p.add_argument(flag, action="store_true", help=text)
                continue
            typed = {"type": kind} if kind in (int, str) else {"choices": kind}
            p.add_argument(flag, required=required, help=text, **typed)
    return parser


def _args(argv):
    """The command's arguments; argparse prints help and errors, and exits."""
    fields = _read(argv)
    if fields is None:
        # argparse reaches the subparser of the first command named, if any
        chosen = [arg for arg in argv if arg in _COMMANDS][:1]
        fields = vars(_parser(chosen).parse_args(argv))
    return SimpleNamespace(**fields)


def _run(argv) -> int:
    """Run the command `argv` names; return its exit status."""
    try:
        args = _args(argv)
    except SystemExit as exc:  # argparse printed help or a usage error
        return int(exc.code or 0)
    try:
        return _write_blocks(args.func(args))
    except BrokenPipeError:
        raise  # main's, as is one at its final flush
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main(argv=None) -> int:
    if hasattr(sys, "set_int_max_str_digits"):  # 3.10.7 and later
        sys.set_int_max_str_digits(0)  # exact answers pass 4,300 digits
    program = argv is None
    try:
        code = _run(sys.argv[1:] if program else list(argv))
        if sys.stdout is not None:  # None when started with fd 1 closed
            sys.stdout.flush()  # so a closed reader raises here, not at exit
    except BrokenPipeError:
        # stdout's reader is gone: point it at the null device, so that the
        # final flush cannot raise, and stop as SIGPIPE would
        null = os.open(os.devnull, os.O_WRONLY)
        os.dup2(null, sys.stdout.fileno())
        os.close(null)
        code = 141
    if program:
        # the process ends next: shutdown's collections skip a frozen heap
        gc.freeze()
    return code


if __name__ == "__main__":
    sys.exit(main())
