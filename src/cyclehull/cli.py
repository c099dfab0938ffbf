"""Command-line surface for the hull constructions.

Every subcommand is deterministic given its flags and prints to stdout.
Exit codes: 0 success, 1 comparison mismatch, 2 usage or validation
error.  No configuration files or environment variables.
"""

from __future__ import annotations

import argparse
import sys
from fractions import Fraction

from .census import count_band, face_count, face_polynomial
from .hull import (
    build_hull,
    json_chunks,
    max_cube_decomposition,
    skeleton,
    to_dot,
)
from .moebius import (
    _FIBRE_CAP,
    double_embed,
    enumerate_band_partitions,
    fibre_factorization,
    fold_fibre,
    fold_fibre_size,
    fold_trace,
    site_str,
)
from .oracle import FiniteMetric, tight_span
from .partitions import format_partition, parse_partition


def _cmd_census(args) -> int:
    if args.v is not None:
        print(face_count(args.n, args.v))
    else:
        print(face_polynomial(args.n))
    return 0


def _cmd_vertices(args) -> int:
    hull = build_hull(args.space, args.n)
    if args.json:
        sys.stdout.writelines(json_chunks(hull, faces=False))
        print()
        return 0
    for name, vals in sorted(
        (format_partition(lam), vals) for lam, vals in hull.vertices.items()
    ):
        print(f"{name or '()'}: {' '.join(str(v) for v in vals)}")
    return 0


def _cmd_skeleton(args) -> int:
    hull = build_hull(args.space, args.n)
    if args.format == "json":
        sys.stdout.writelines(json_chunks(hull))
        print()
        return 0
    roles = None
    if args.space == "cycle" and args.n % 2 == 1 and args.n >= 3:
        cubes, _ = max_cube_decomposition(args.n)
        incident = frozenset().union(*(c.members() for c in cubes))
        roles = {
            format_partition(lam): (
                "cube-member" if lam in incident else "extra"
            )
            for lam in hull.vertices
        }
    sys.stdout.write(to_dot(skeleton(hull), roles))
    return 0


def _cmd_fold(args) -> int:
    lam = parse_partition(args.partition)
    folded, trace = fold_trace(lam, args.n)
    print(format_partition(folded))
    for part, site in trace:
        print(f"{part} {site_str(site)}")
    return 0


def _cmd_fibre(args) -> int:
    lam = parse_partition(args.partition)
    word = fibre_factorization(lam, args.n)
    size = fold_fibre_size(lam, args.n)
    if args.n <= _FIBRE_CAP:
        for member in fold_fibre(lam, args.n):
            print(format_partition(member))
    print(f"{word} = {size}")
    return 0


def _cmd_oracle(args) -> int:
    metric = FiniteMetric.from_file(args.metric)
    verts, norm_edges = tight_span(metric, cap=args.cap)
    if args.compare is None:
        print(f"vertices: {len(verts)}")
        for f in sorted(verts):
            print(" ".join(str(x) for x in f))
        print(f"edges: {len(norm_edges)}")
        for u, v in sorted(norm_edges):
            left = " ".join(str(x) for x in u)
            right = " ".join(str(x) for x in v)
            print(f"{left} ; {right}")
        return 0
    kind, _, tail = args.compare.partition(":")
    if kind not in ("cycle", "xn") or not tail.isdigit():
        raise ValueError(f"bad --compare value {args.compare!r}")
    hull = build_hull(kind, int(tail))
    want_v = frozenset(
        tuple(Fraction(x) for x in vals) for vals in hull.vertices.values()
    )
    want_e = set()
    for a, b in hull.edges():
        fa = tuple(Fraction(x) for x in hull.vertices[a])
        fb = tuple(Fraction(x) for x in hull.vertices[b])
        want_e.add((min(fa, fb), max(fa, fb)))
    if verts == want_v and norm_edges == frozenset(want_e):
        print(f"MATCH: {len(verts)} vertices, {len(norm_edges)} edges")
        return 0
    print(
        f"MISMATCH: oracle {len(verts)} vertices / {len(norm_edges)} edges,"
        f" construction {len(want_v)} vertices / {len(want_e)} edges"
    )
    return 1


def _cmd_counts(args) -> int:
    print(f"trace: {count_band(args.n, args.m)}")
    print(f"enumeration: {len(enumerate_band_partitions(args.n, args.m))}")
    return 0


def _cmd_embed(args) -> int:
    lam = parse_partition(args.partition)
    print(format_partition(double_embed(lam, args.n)))
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
    p.add_argument("--cap", type=int, default=7)
    p.add_argument("--compare", default=None, help="cycle:N or xn:N")
    p.set_defaults(func=_cmd_oracle)

    p = sub.add_parser("counts", help="band census, trace vs enumeration")
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
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
