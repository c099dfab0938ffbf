"""Command-line surface for the hull constructions.

Every subcommand is deterministic given its flags and prints to stdout.
Exit codes: 0 success, 1 comparison mismatch, 2 usage or validation
error, 141 (128 + SIGPIPE) when the reader closes stdout early, as in
`skeleton ... | head -1`; that one prints nothing on stderr.  No
configuration files or environment variables.  Each subcommand imports
the modules it runs, and no more, so `--help` loads none of them.
"""

from __future__ import annotations

import argparse
import os
import sys

_BLOCK = 1 << 16  # characters gathered for each write of a hull export


def _write_blocks(chunks) -> None:
    # an export is thousands of small chunks, and an unbuffered stdout
    # (PYTHONUNBUFFERED=1) makes each write one system call
    block, size = [], 0
    for chunk in chunks:
        block.append(chunk)
        size += len(chunk)
        if size >= _BLOCK:
            sys.stdout.write("".join(block))
            block, size = [], 0
    sys.stdout.write("".join(block))


def _cmd_census(args) -> int:
    from .census import face_count, face_polynomial

    if args.v is not None:
        print(face_count(args.n, args.v))
    else:
        print(face_polynomial(args.n))
    return 0


def _cmd_vertices(args) -> int:
    from .export import json_chunks, vertex_lines

    if args.json:
        _write_blocks(json_chunks(args.space, args.n, faces=False))
        print()
        return 0
    _write_blocks(vertex_lines(args.space, args.n))
    return 0


def _cmd_skeleton(args) -> int:
    if args.format == "json":
        from .export import json_chunks

        _write_blocks(json_chunks(args.space, args.n))
        print()
        return 0
    from .hull import build_hull, skeleton, to_dot

    sys.stdout.write(to_dot(skeleton(build_hull(args.space, args.n))))
    return 0


def _cmd_fold(args) -> int:
    from .moebius import fold_trace, site_str
    from .partitions import format_partition, parse_partition

    lam = parse_partition(args.partition)
    folded, trace = fold_trace(lam, args.n)
    print(format_partition(folded) or "()")
    for part, site in trace:
        print(f"{part} {site_str(site)}")
    return 0


def _cmd_fibre(args) -> int:
    from .moebius import fibre_factorization, fold_fibre
    from .partitions import format_partition, parse_partition

    lam = parse_partition(args.partition)
    members = fold_fibre(lam, args.n)  # refused past moebius.FIBRE_BUDGET
    for member in members:
        print(format_partition(member) or "()")
    print(f"{fibre_factorization(lam, args.n)} = {len(members)}")
    return 0


def _cmd_oracle(args) -> int:
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
        _write_blocks(span_lines(verts, edges))
        return 0
    from .hullwalk import doubled_hull

    want_v, want_e = doubled_hull(kind, metric.n)
    if verts == want_v and edges == want_e:
        print(f"MATCH: {len(verts)} vertices, {len(edges)} edges")
        return 0
    print(
        f"MISMATCH: oracle {len(verts)} vertices / {len(edges)} edges,"
        f" construction {len(want_v)} vertices / {len(want_e)} edges"
    )
    return 1


def _cmd_counts(args) -> int:
    from .census import count_band
    from .partitions import band_limits, band_rows, corner_walk

    print(f"trace: {count_band(args.n, args.m)}")
    rows = band_rows(args.n, *band_limits(args.n, args.m))
    print(f"enumeration: {sum(1 for _ in corner_walk(args.n, rows))}")
    return 0


def _cmd_embed(args) -> int:
    from .moebius import double_embed
    from .partitions import format_partition, parse_partition

    lam = parse_partition(args.partition)
    print(format_partition(double_embed(lam, args.n)) or "()")
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cyclehull",
        description="Injective hulls of cycles via partition combinatorics.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("census", help="face polynomial or one face count")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--v", type=int, default=None, help="face dimension")
    p.set_defaults(func=_cmd_census)

    p = sub.add_parser("vertices", help="hull vertex functions")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--space", choices=("cycle", "xn"), required=True)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_vertices)

    p = sub.add_parser("skeleton", help="1-skeleton export")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--space", choices=("cycle", "xn"), required=True)
    p.add_argument("--format", choices=("dot", "json"), required=True)
    p.set_defaults(func=_cmd_skeleton)

    p = sub.add_parser("fold", help="fold a partition into the band")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--partition", required=True, help='e.g. "5,4,2,1"')
    p.set_defaults(func=_cmd_fold)

    p = sub.add_parser("fibre", help="fold fibre and Catalan factorization")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--partition", required=True)
    p.set_defaults(func=_cmd_fibre)

    p = sub.add_parser("oracle", help="tight span of a metric")
    p.add_argument("--metric", required=True, help="matrix file")
    p.add_argument("--compare", default=None, help="cycle:N or xn:N")
    p.set_defaults(func=_cmd_oracle)

    p = sub.add_parser("counts", help="band count, closed form vs enumeration")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    p.set_defaults(func=_cmd_counts)

    p = sub.add_parser("embed", help="doubling map into Y_2N")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--partition", required=True)
    p.set_defaults(func=_cmd_embed)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except BrokenPipeError:
        # stdout's reader is gone: point it at the null device, so that the
        # final flush cannot raise, and stop as SIGPIPE would
        null = os.open(os.devnull, os.O_WRONLY)
        os.dup2(null, sys.stdout.fileno())
        os.close(null)
        return 141
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
