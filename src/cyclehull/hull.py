"""Explicit polyhedral models of the two injective hulls.

Vertices of the hull of X_N are indexed by all of Y_N, vertices of the
hull of C_N by the band partitions Y_N°; in both cases the vertex at lam
is the function j -> |tau^j(lam)| (shifted down by the constant
o = k(k-1)/2 in the cycle case).  A v-face is the cube (top, removed):
the partitions obtained from top by deleting any subset of v corner
boxes.  Faces stay implicit in each vertex's corner rows: the f-vector
and edges are read off the rows, and faces are made on demand or
streamed straight into the JSON export.  Vertices come from a rim walk
whose cost follows their number, not the 2^(N-1) of Y_N.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations
from math import comb
from operator import itemgetter
from typing import Iterable, Iterator

from .census import BadParity
from .partitions import (
    ModelSpace,
    Partition,
    corners,
    enumerate_YN,
    format_partition,
    make_partition,
    require_YN,
    size,
    tau,
    tau_orbit,
)
from .moebius import (
    circ_inner_corners,
    enumerate_circ,
    fold,
    outer_rim,
    require_circ,
)

VertexFunction = tuple[int, ...]


def f_vertex(lam: Partition, n: int) -> VertexFunction:
    """Vertex of the hull of X_N at lam: values[j] = |tau^j(lam)|."""
    require_YN(lam, n)
    return tuple(size(mu) for mu in tau_orbit(lam, n))


def g_vertex(lam: Partition, n: int) -> VertexFunction:
    """Vertex of the hull of C_N at lam: the f-values minus o = k(k-1)/2."""
    require_circ(lam, n)
    k = n // 2
    o = k * (k - 1) // 2
    return tuple(v - o for v in f_vertex(lam, n))


def _remove_boxes(top: Partition, rows: Iterable[int]) -> Partition:
    mu = list(top)
    for r in rows:
        mu[r - 1] -= 1
    return make_partition(mu)


@dataclass(frozen=True)
class Face:
    """Combinatorial cube face: top partition and removed corner rows."""

    top: Partition
    removed: frozenset[int]

    @property
    def dim(self) -> int:
        return len(self.removed)

    @property
    def bottom(self) -> Partition:
        return _remove_boxes(self.top, self.removed)

    def members(self) -> frozenset[Partition]:
        """The 2^dim vertex partitions of the face."""
        rows = tuple(self.removed)
        return frozenset(
            _remove_boxes(self.top, sub)
            for t in range(len(rows) + 1) for sub in combinations(rows, t)
        )

    def sort_key(self):
        return (self.dim, self.top, tuple(sorted(self.removed)))


@dataclass
class Faces:
    """The faces of a hull, kept as the sorted corner rows of each vertex.

    Every subset of a vertex's corner rows spans one cube face with that
    vertex on top; faces are made on demand, in Face.sort_key order.
    """

    corner_rows: dict[Partition, tuple[int, ...]]

    def __len__(self) -> int:
        return sum(1 << len(rows) for rows in self.corner_rows.values())

    def __iter__(self) -> Iterator[Face]:
        return (Face(t, frozenset(r)) for t, r in self.keys())

    def keys(self) -> Iterator[tuple[Partition, tuple[int, ...]]]:
        """(top, sorted removed rows) of every face, in iteration order."""
        items = sorted(self.corner_rows.items())
        for v in range(max(map(len, self.corner_rows.values()), default=-1) + 1):
            for top, rows in items:
                yield from ((top, sub) for sub in combinations(rows, v))


@dataclass
class HullComplex:
    """Vertex functions and the implicit faces of one hull."""

    space: ModelSpace
    vertices: dict[Partition, VertexFunction]
    faces: Faces

    def f_vector(self) -> tuple[int, ...]:
        """Coefficients of the sum over vertices of (1 + t)^(corner count)."""
        counts = Counter(map(len, self.faces.corner_rows.values()))
        return tuple(
            sum(c * comb(s, v) for s, c in counts.items())
            for v in range(max(counts, default=0) + 1)
        )

    def edges(self) -> tuple[tuple[Partition, Partition], ...]:
        # removing a box gives a lexicographically smaller partition
        return tuple(sorted(
            (_remove_boxes(lam, (r,)), lam)
            for lam, rows in self.faces.corner_rows.items()
            for r in rows
        ))


def build_hull(kind: str, n: int) -> HullComplex:
    """Assemble the hull complex of X_N ('xn') or C_N ('cycle').

    Faces with top lam are in bijection with subsets of lam's inner
    corners (X_N) or of its removable-in-band corners (C_N); the even
    cycle runs through the identical band machinery and comes out a cube.
    """
    space = ModelSpace(kind, n)
    if kind == "xn":
        pool, vertex = enumerate_YN(n), f_vertex
        rows = {lam: corners(lam, n).inner for lam in pool}
    else:
        pool, vertex = enumerate_circ(n), g_vertex
        rows = {lam: circ_inner_corners(lam, n) for lam in pool}
    return HullComplex(
        space,
        {lam: vertex(lam, n) for lam in pool},
        Faces({lam: tuple(sorted(r)) for lam, r in rows.items()}),
    )


def retract_face(face: Face, n: int) -> Face:
    """Image of a face of the X_N hull under the folding retraction.

    The top vertex folds; a removed direction survives only when the very
    corner box it deletes is still present in the fold (the row kept its
    length) and is still removable inside the band.  The face collapses
    along all other directions: fold(top minus W) equals the fold of top
    minus (W intersect surviving rows), box by box.
    """
    top0 = fold(face.top, n)
    pad = list(top0) + [0] * (len(face.top) - len(top0))
    circ = circ_inner_corners(top0, n)
    keep = frozenset(
        r
        for r in face.removed
        if face.top[r - 1] == pad[r - 1] and r in circ
    )
    return Face(top0, keep)


@dataclass
class Graph:
    """1-skeleton with nodes named by partition strings."""

    nodes: tuple[str, ...]
    edges: tuple[tuple[str, str], ...]
    labels: dict[str, VertexFunction]


def skeleton(complex_: HullComplex) -> Graph:
    names = sorted(format_partition(lam) for lam in complex_.vertices)
    labels = {
        format_partition(lam): vals for lam, vals in complex_.vertices.items()
    }
    edges = sorted(
        tuple(sorted((format_partition(a), format_partition(b))))
        for a, b in complex_.edges()
    )
    return Graph(tuple(names), tuple(edges), labels)


def to_dot(graph: Graph, roles: dict[str, str] | None = None) -> str:
    """Deterministic DOT text; nodes in lexicographic label order."""
    ident = {name: f"n{i}" for i, name in enumerate(graph.nodes)}
    lines = ["graph hull {"]
    for name in graph.nodes:
        vals = " ".join(str(v) for v in graph.labels[name])
        attrs = [f'label="{name}"', f'values="{vals}"']
        if roles and name in roles:
            attrs.append(f'role="{roles[name]}"')
        lines.append(f'  {ident[name]} [{", ".join(attrs)}];')
    for a, b in graph.edges:
        lines.append(f"  {ident[a]} -- {ident[b]};")
    lines.append("}")
    return "\n".join(lines) + "\n"


def _json_list(values, depth: int) -> str:
    # json.dumps(list(values), indent=1) as it prints nested depth deep
    items = ",\n".join(f"{' ' * (depth + 1)}{v}" for v in values)
    return f"[\n{items}\n{' ' * depth}]" if items else "[]"


def json_chunks(complex_: HullComplex, faces: bool = True) -> Iterator[str]:
    """The JSON export in pieces, made as they are written.

    Joined, the pieces are json.dumps(doc, sort_keys=True, indent=1) of
    {"faces": [{"removed": [...], "top": name}, ...], "n": N,
    "space": kind, "vertices": {name: values}}, faces in Face.sort_key
    order; faces=False leaves the "faces" key out.  Partition names are
    digits and commas, so nothing needs escaping.
    """
    names = {lam: format_partition(lam) for lam in complex_.vertices}
    yield "{\n"
    if faces:
        sep = ' "faces": [\n'
        for top, removed in complex_.faces.keys():
            rows = _json_list(removed, 3)
            yield f'{sep}  {{\n   "removed": {rows},\n   "top": "{names[top]}"\n  }}'
            sep = ",\n"
        yield "\n ],\n"
    n, kind = complex_.space.n, complex_.space.kind
    yield f' "n": {n},\n "space": "{kind}",\n "vertices": {{'
    sep = "\n"
    for lam, name in sorted(names.items(), key=itemgetter(1)):
        yield f'{sep}  "{name}": {_json_list(complex_.vertices[lam], 2)}'
        sep = ",\n"
    yield "\n }\n}"


def to_json(complex_: HullComplex) -> str:
    return "".join(json_chunks(complex_))


class CubeCoverFailure(ValueError):
    """A shifted base cube is not a hull face, or the cubes miscover."""


@lru_cache(maxsize=None)
def max_cube_decomposition(n: int) -> tuple[tuple[Face, ...], tuple[Partition, ...]]:
    """The N maximal k-cubes of the odd cycle hull, plus leftover vertices.

    The base cube is the interval between the staircases (k-1, .., 1) and
    (k, .., 1); the others are its translates under the shift.  Returns
    (cubes, extras) where extras are the hull vertices on no maximal cube.
    """
    if n % 2 == 0 or n < 3:
        raise BadParity(f"maximal cubes need odd N >= 3, got {n}")
    k = n // 2
    staircase = tuple(range(k, 0, -1))
    base = Face(staircase, frozenset(range(1, k + 1)))
    if not base.removed <= circ_inner_corners(staircase, n):
        raise CubeCoverFailure(f"base cube of C_{n} is not a hull face")
    cubes = []
    current = base.members()
    for j in range(n):
        if j:
            current = frozenset(tau(v, n) for v in current)
        top = max(current, key=size)
        bottom = min(current, key=size)
        pad = list(bottom) + [0] * (len(top) - len(bottom))
        rows = frozenset(
            r for r in range(1, len(top) + 1) if top[r - 1] != pad[r - 1]
        )
        face = Face(top, rows)
        if face.members() != current or not rows <= circ_inner_corners(top, n):
            raise CubeCoverFailure(f"shift {j} of the C_{n} base cube")
        cubes.append(face)
    incident = frozenset().union(*(c.members() for c in cubes))
    if len(set(cubes)) != n or len(incident) != 1 + n * 2 ** (k - 1):
        raise CubeCoverFailure(f"C_{n} cubes cover {len(incident)} vertices")
    extras = tuple(sorted(set(enumerate_circ(n)) - incident))
    return tuple(cubes), extras
