"""Explicit polyhedral models of the two injective hulls.

A hull is plain data: its kind ('xn' or 'cycle'), N, and per vertex its
function, name and corner rows.  Vertices of the hull of X_N are indexed
by all of Y_N, those of C_N by the band partitions Y_N°; the vertex at
lam is the function j -> |tau^j(lam)| (less o = k(k-1)/2 for the cycle),
which is j -> d(lam, R_j) - o, the Young-lattice distance to the
rectangle R_j = (j^(N-j)).  A v-face is the cube (top, removed): the
partitions obtained from top by deleting any subset of v corner boxes.
build_hull keeps all that one hullwalk.name_walk over the pool's row
ranges (hullwalk.hull_pool) yields, in name order, at a cost that
follows the number of vertices, not the 2^(N-1) of Y_N; f_vertex and
g_vertex walk one vertex's tau orbit and stay the independent reference.
Faces stay implicit in the corner rows: the f-vector and edges are read
off them, faces are made on demand, and the N maximal k-cubes of the odd
cycle hull have the vertices with k corner rows on top (Faces.max_cubes,
the odd cycle DOT export's one use of this module).  to_json and to_dot
import export, which prints from walks, as retract_face imports moebius.
"""

from __future__ import annotations

from collections import Counter
from itertools import combinations
from math import comb
from typing import Iterable, Iterator, NamedTuple

from .hullwalk import hull_pool, name_walk
from .partitions import (
    Partition,
    circ_rows,
    corner_walk,
    make_partition,
    one_box_less,
    require_circ,
    require_YN,
    size,
    tau_orbit,
)

VertexFunction = tuple[int, ...]


def f_vertex(lam: Partition, n: int) -> VertexFunction:
    """Vertex of the hull of X_N at lam: values[j] = |tau^j(lam)|."""
    require_YN(lam, n)
    return tuple(size(mu) for mu in tau_orbit(lam, n))


def g_vertex(lam: Partition, n: int) -> VertexFunction:
    """Vertex of the hull of C_N at lam: the f-values minus o = k(k-1)/2."""
    require_circ(lam, n)
    o = hull_pool("cycle", n)[1]
    return tuple(v - o for v in f_vertex(lam, n))


def _remove_boxes(top: Partition, rows: Iterable[int]) -> Partition:
    mu = list(top)
    for r in rows:
        mu[r - 1] -= 1
    return make_partition(mu)


class Face(NamedTuple):
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


class CubeCoverFailure(ValueError):
    """The odd cycle hull's maximal cubes miss their count, base or cover."""


class Faces:
    """The faces of a hull, kept as the sorted corner rows of each vertex.

    Every subset of a vertex's corner rows spans one cube face with that
    vertex on top; faces are made on demand, in Face.sort_key order.
    """

    __slots__ = ("corner_rows",)

    def __init__(self, corner_rows: dict[Partition, tuple[int, ...]]):
        self.corner_rows = corner_rows

    def __len__(self) -> int:
        return sum(1 << len(rows) for rows in self.corner_rows.values())

    def __iter__(self) -> Iterator[Face]:
        # the v-faces with this top remove the subsets combinations(rows, v),
        # already in order, and none when it has fewer than v corner rows
        items = sorted(self.corner_rows.items())
        for v in range(max(map(len, self.corner_rows.values()), default=-1) + 1):
            for top, rows in items:
                for sub in combinations(rows, v):
                    yield Face(top, frozenset(sub))

    def max_cubes(self, n: int) -> tuple[tuple[Face, ...], tuple[Partition, ...]]:
        """The N maximal k-cubes of C_N, N = 2k + 1, and the vertices on
        none of them, both sorted by top.

        No vertex of Y_N° has more than k corner rows and exactly N have
        k (the top coefficient N/(N-k)·C(N-k, k) of the corner
        enumerator); each spans one maximal cube, the base cube between
        the staircases (k-1, .., 1) and (k, .., 1) among them, and the
        others are its shifts.  Faces of another hull miss the count,
        the base cube or the cover 1 + N·2^(k-1): CubeCoverFailure.
        """
        k = n // 2
        rows = self.corner_rows
        tops = sorted(top for top, r in rows.items() if len(r) >= k)
        cubes = tuple(Face(top, frozenset(rows[top])) for top in tops)
        if len(cubes) != n:
            raise CubeCoverFailure(f"C_{n} has {len(cubes)} maximal cubes, not {n}")
        if Face(tuple(range(k, 0, -1)), frozenset(range(1, k + 1))) not in cubes:
            raise CubeCoverFailure(f"base cube of C_{n} is not a hull face")
        incident = frozenset().union(*(c.members() for c in cubes))
        if len(incident) != 1 + n * 2 ** (k - 1):
            raise CubeCoverFailure(f"C_{n} cubes cover {len(incident)} vertices")
        return cubes, tuple(sorted(lam for lam in rows if lam not in incident))


class HullComplex(NamedTuple):
    """Vertex functions, vertex names and the implicit faces of one hull;
    vertices and names list the vertices in name order."""

    kind: str
    n: int
    vertices: dict[Partition, VertexFunction]
    names: dict[Partition, str]
    faces: Faces

    def f_vector(self) -> tuple[int, ...]:
        """Coefficients of the sum over vertices of (1 + t)^(corner count)."""
        counts = Counter(map(len, self.faces.corner_rows.values()))
        return tuple(
            sum(c * comb(s, v) for s, c in counts.items())
            for v in range(max(counts, default=0) + 1)
        )

    def edges(self) -> tuple[tuple[Partition, Partition], ...]:
        # (lam less one corner box, lam): the smaller partition first
        return tuple(sorted(
            (mu, lam) for lam, rows in self.faces.corner_rows.items()
            for mu in one_box_less(lam, rows)
        ))


def build_hull(kind: str, n: int) -> HullComplex:
    """Assemble the hull complex of X_N ('xn') or C_N ('cycle').

    Both spaces take one path: one hullwalk.name_walk over the row
    ranges of the pool (hull_pool: all of Y_N, or Y_N°) yields each
    vertex in name order with its name, its function and its removable
    rows; faces with top lam are in bijection with subsets of those
    rows.  The walk raises OrbitLeavesPool for a pool that tau does not
    map into itself.  The even cycle comes out a cube.
    """
    vertices, names, rows = {}, {}, {}
    for lam, name, f, corners in name_walk(kind, n):
        vertices[lam] = f
        names[lam] = name
        rows[lam] = corners
    return HullComplex(kind, n, vertices, names, Faces(rows))


def retract_face(face: Face, n: int) -> Face:
    """Image of a face of the X_N hull under the folding retraction.

    The top vertex folds; a removed direction survives exactly when
    deleting its box alone changes the fold of the top.  The face
    collapses along all other directions: fold(top minus W) equals the
    fold of top minus (W intersect surviving rows), box by box.
    """
    from .moebius import fold

    top0 = fold(face.top, n)
    keep = frozenset(
        r for r in face.removed if fold(_remove_boxes(face.top, (r,)), n) != top0
    )
    return Face(top0, keep)


def skeleton(complex_: HullComplex) -> HullComplex:
    """The hull itself: its 1-skeleton is its vertices and edges()."""
    return complex_


def to_dot(complex_: HullComplex) -> str:
    """`skeleton --format dot` of the hull's kind and N: export.dot_chunks
    prints it from one walk, not from complex_, which only names the hull."""
    from .export import dot_chunks

    return "".join(dot_chunks(complex_.kind, complex_.n))


def to_json(complex_: HullComplex) -> str:
    """`skeleton --format json` of the hull's kind and N: export.json_chunks
    streams it from walks, not from complex_, which only names the hull."""
    from .export import json_chunks

    return "".join(json_chunks(complex_.kind, complex_.n))


def max_cube_decomposition(n: int) -> tuple[tuple[Face, ...], tuple[Partition, ...]]:
    """The N maximal k-cubes of the odd cycle hull, plus leftover vertices:
    Faces.max_cubes on the corner rows of one corner_walk over circ_rows."""
    if n % 2 == 0 or n < 3:
        from .census import BadParity  # only this error needs the census

        raise BadParity(f"maximal cubes need odd N >= 3, got {n}")
    return Faces(dict(corner_walk(n, circ_rows(n)))).max_cubes(n)
