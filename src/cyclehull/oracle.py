"""Tight spans of small finite integer metric spaces, by an edge walk.

Independent of the rest of the package, of which it imports only the
error class TooLarge: the hull constructions are validated against this
module, which computes tight spans straight from the definition.  A
function f on the points is feasible when
f(i) + f(j) >= d(i, j) for all pairs (the diagonal case i = j reads
f(i) >= 0) and extremal when additionally every coordinate is tight
against some other one, i.e. f(i) = max_j (d(i,j) - f(j)).

The tight span is the bounded complex of the polyhedron P(d) of feasible
functions (Develin-Sturmfels 2004), and it is connected (Dress 1984).
`tight_span` walks it in the style of reverse search (Avis-Fukuda 1992):
from the distance row of point 0 it follows every extreme ray of the
cone of tight constraints that stays bounded, steps exactly to the next
tight constraint, and so meets every vertex and every 1-face.  The cost
grows with the size of the answer, not with the C(n(n-1)/2, n) subsets
of pairs that could pin a vertex.

The walk is reduced by the metric's own isometry group, found from d
alone by a backtracking search (_symmetries), so it shares nothing with
the constructions it checks.  Rays are computed at one vertex per orbit,
and every vertex or edge met adds its whole orbit (Bremner, Dutour
Sikiric, Schurmann, Polyhedral representation conversion up to
symmetries, 2009); for C_N and X_N the group is dihedral of order 2N.
Tight graphs and the minus and plus sets of rays are int bitmasks.

Vertices are half-integral, so the walk runs on doubled integers 2f,
and doubled_span returns its sets as they are.  The oracle command
prints them (span_lines writes x/2 for an odd x) and compares them with
the construction's, doubled too, so it never loads fractions;
tight_span halves them into ints and Fractions for the library.
"""

from __future__ import annotations

import math
from operator import itemgetter
from pathlib import Path
from typing import Iterator

from . import TooLarge


class DimensionMismatch(ValueError):
    """Function length does not match the metric's point count."""


# tight-graph tests (_bipartite_components calls) one walk may make: C_21's
# makes 1,248,486 (12 s on a 2-vCPU VM), C_19's 324,351, C_17's 85,611
WALK_BUDGET = 4_000_000

# triangle tests (n^3) the check of a metric makes: in process on a
# 2-vCPU VM, 200 points take 0.38-0.62 s and 250 points 0.70 s
METRIC_BUDGET = 15_625_000


def _require_checkable(n: int) -> None:
    """TooLarge if the n^3 triangle tests of n points pass METRIC_BUDGET."""
    if n**3 > METRIC_BUDGET:
        raise TooLarge(f"the metric of {n} points", n**3, METRIC_BUDGET,
                       "triangle tests")


class FiniteMetric:
    """Symmetric integer metric with positive off-diagonal distances:
    n points, distance matrix d.  TooLarge before its n^3 triangle
    tests past METRIC_BUDGET."""

    __slots__ = ("n", "d")

    def __init__(self, n: int, d: tuple[tuple[int, ...], ...]):
        if len(d) != n or any(len(r) != n for r in d):
            raise DimensionMismatch(f"matrix is not {n}x{n}")
        _require_checkable(n)
        for i in range(n):
            if d[i][i] != 0:
                raise ValueError(f"nonzero diagonal at {i}")
            for j in range(n):
                if d[i][j] != d[j][i]:
                    raise ValueError(f"not symmetric at ({i},{j})")
                if i != j and d[i][j] <= 0:
                    raise ValueError(f"nonpositive distance at ({i},{j})")
                for l in range(n):
                    if d[i][j] > d[i][l] + d[l][j]:
                        raise ValueError(
                            f"triangle inequality fails at ({i},{l},{j})"
                        )
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "d", d)

    def __setattr__(self, *a):
        raise AttributeError("FiniteMetric is immutable")

    @classmethod
    def from_rows(cls, rows) -> "FiniteMetric":
        t = tuple(tuple(int(x) for x in r) for r in rows)
        return cls(len(t), t)

    @classmethod
    def from_text(cls, text: str) -> "FiniteMetric":
        """Parse 'n' on the first line, then n whitespace-split int rows;
        TooLarge on n, before the rows are parsed."""
        lines = [ln for ln in text.splitlines() if ln.strip()]
        if not lines:
            raise DimensionMismatch("metric text is empty")
        n = int(lines[0])
        _require_checkable(n)  # before a row is split
        rows = [[int(x) for x in ln.split()] for ln in lines[1:]]
        if len(rows) != n:
            raise DimensionMismatch(f"expected {n} rows, got {len(rows)}")
        return cls.from_rows(rows)

    @classmethod
    def from_file(cls, path) -> "FiniteMetric":
        return cls.from_text(Path(path).read_text())


def is_feasible(f, metric: FiniteMetric) -> bool:
    if len(f) != metric.n:
        raise DimensionMismatch(f"{len(f)} values for {metric.n} points")
    d = metric.d
    for i in range(metric.n):
        if f[i] < 0:
            return False
        for j in range(i + 1, metric.n):
            if f[i] + f[j] < d[i][j]:
                return False
    return True


def is_extremal(f, metric: FiniteMetric) -> bool:
    """Feasible, and f(i) = max_j (d(i,j) - f(j)) in every coordinate.

    A zero coordinate witnesses its own maximum (j = i); a positive one
    needs a tight distinct pair.
    """
    if not is_feasible(f, metric):
        return False
    d = metric.d
    for i in range(metric.n):
        if f[i] == 0:
            continue
        if not any(
            f[i] + f[j] == d[i][j] for j in range(metric.n) if j != i
        ):
            return False
    return True


class NotExtremal(ValueError):
    """A point the walk reached is not an extremal vertex of P(d)."""


def _bits(mask: int) -> list[int]:
    """The points of a bitmask, lowest first."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


def _reach(adj: list[int], mask: int) -> int:
    """The neighbours of the points of a bitmask, as a bitmask."""
    out = 0
    while mask:
        low = mask & -mask
        out |= adj[low.bit_length() - 1]
        mask ^= low
    return out


def _bipartite_components(adj: list[int], skip: int = 0, loops: int = 0) -> int:
    """Components off `skip` with no odd cycle and no loop.

    adj[i] is the bitmask of the neighbours of point i; skip and loops are
    bitmasks.  The system f_i + f_j = d_ij over the edges (f_i = 0 at a
    loop) has one free parameter per such component.  Edges into `skip`
    are ignored.  Each component is 2-coloured one breadth-first layer at
    a time: a layer whose neighbours meet its own colour closes an odd
    cycle.
    """
    alive = ((1 << len(adj)) - 1) & ~skip
    count = 0
    while alive:
        layer = alive & -alive
        comp = same = layer  # same: the points coloured like this layer
        other = 0
        free = True
        while layer:
            reach = _reach(adj, layer) & alive
            if reach & same:
                free = False
            layer = reach & ~comp
            same, other = other | layer, same
            comp |= layer
        if free and not comp & loops:
            count += 1
        alive &= ~comp
    return count


def _tight_graph(f2, d2, n: int) -> tuple[list[int], int]:
    """Tight pairs and zero coordinates of the doubled point f2 = 2f, as
    bitmasks: adj[i] holds the points tight with i, loops the zeros.

    Raises NotExtremal unless f is a vertex of P(d): feasible, and pinned
    by its tight equations, i.e. every component of the tight graph holds
    an odd cycle or a zero coordinate.  Vertices of P(d) are extremal, so
    this certifies every vertex the walk emits.
    """
    adj = [0] * n
    loops = 0
    for i in range(n):
        fi = f2[i]
        if fi < 0:
            raise NotExtremal(f"coordinate {i} of {f2}/2 is negative")
        if fi == 0:
            loops |= 1 << i
        row = d2[i]
        for j in range(i + 1, n):
            slack = fi + f2[j] - row[j]
            if slack < 0:
                raise NotExtremal(f"pair ({i},{j}) is violated by {f2}/2")
            if slack == 0:
                adj[i] |= 1 << j
                adj[j] |= 1 << i
    if _bipartite_components(adj, 0, loops):
        raise NotExtremal(f"{f2}/2 is not pinned by its tight pairs")
    return adj, loops


def _bounded_rays(n: int, adj: list[int], loops: int, work: int) -> tuple[list, int]:
    """Extreme rays of the tight cone at a vertex that end in a vertex, as
    (minus, plus) bitmasks, and the walk's work so far: `work` plus one
    test per minus set tried.  TooLarge once that passes WALK_BUDGET.

    The cone is {x : x_i + x_j >= 0 on tight pairs, x_i >= 0 at zeros}.
    An extreme ray is -1 on a minus set M, +1 on P = N(M) and 0 on the
    rest, where M holds no zero and no tight pair, M + P is connected
    through M-P pairs, and every component of the tight graph on the
    rest holds an odd cycle or a zero.  An empty M gives the unit rays,
    which lie in the recession cone and are unbounded; every other ray
    lowers a coordinate toward 0 and is bounded.  M grows by depth-first
    search through shared neighbours, so it is never guessed, and each
    M is pushed once.
    """
    out = []
    two = [_reach(adj, a) for a in adj]  # two tight pairs away
    stack = [(1 << m, adj[m], two[m]) for m in range(n) if not loops >> m & 1]
    seen = {minus for minus, _, _ in stack}
    while stack:
        work += 1
        if work > WALK_BUDGET:
            raise TooLarge(f"the tight-span walk of {n} points", work,
                           WALK_BUDGET, "tight-graph tests")
        minus, plus, grow = stack.pop()
        if not _bipartite_components(adj, minus | plus, loops):
            out.append((minus, plus))
        for m in _bits(grow & ~(minus | plus | loops)):
            bigger = minus | 1 << m
            if bigger not in seen:
                seen.add(bigger)
                stack.append((bigger, plus | adj[m], grow | two[m]))
    return out, work


def _extend(d, rows, p: list[int], n: int) -> tuple[int, ...] | None:
    # a distance-preserving permutation that begins with p, by backtracking
    k = len(p)
    if k == n:
        return tuple(p)
    dk = d[k]
    for t in range(n):
        if t in p or rows[t] != rows[k]:
            continue
        dt = d[t]
        if all(dt[p[j]] == dk[j] for j in range(k)):
            p.append(t)
            found = _extend(d, rows, p, n)
            if found is not None:
                return found
            p.pop()
    return None


def _symmetries(d, n: int) -> list[tuple[int, ...]]:
    """Generators of the isometry group of the metric d, from d alone.

    For each point i and each point c > i, one permutation p with
    d[p[a]][p[b]] == d[a][b] that fixes 0..i-1 and sends i to c, if any
    exists (a backtracking search, pruned by each point's sorted
    distances).  These are the transversals of the stabiliser chain of
    0, 1, ..., so they generate the whole group without listing it.
    """
    rows = [sorted(r) for r in d]
    gens = []
    for i in range(n):
        for c in range(i + 1, n):
            if rows[c] == rows[i]:
                p = _extend(d, rows, [*range(i), c], n)
                if p is not None:
                    gens.append(p)
    return gens


def _close(item, found: set, images) -> None:
    """Add the orbit of item to found, by closure under images(x)."""
    found.add(item)
    todo = [item]
    while todo:
        for y in images(todo.pop()):
            if y not in found:
                found.add(y)
                todo.append(y)


def _span(metric: FiniteMetric, gens) -> tuple[frozenset, frozenset]:
    """doubled_span's walk, computing rays at one vertex per orbit of the
    group generated by the permutations gens; with none, every vertex."""
    n = metric.n
    d2 = [[2 * x for x in row] for row in metric.d]
    moves = [itemgetter(*p) for p in gens]

    def vertex_images(f2):
        return (g(f2) for g in moves)

    def edge_images(edge):
        for g in moves:
            u, v = g(edge[0]), g(edge[1])
            yield (u, v) if u < v else (v, u)

    start = tuple(d2[0]) if n else ()
    seen: set = set()
    edges: set = set()
    _close(start, seen, vertex_images)
    stack = [start]
    work = 0  # tight-graph tests, one per _bipartite_components call
    while stack:
        f2 = stack.pop()
        adj, loops = _tight_graph(f2, d2, n)
        rays, work = _bounded_rays(n, adj, loops, work + 1)
        for minus, plus in rays:
            # twice the step to the first constraint that turns tight;
            # x_i + x_j is -2 on pairs inside M, -1 from M to the rest
            ms = _bits(minus)
            rest = _bits(((1 << n) - 1) & ~(minus | plus))
            twice = min(2 * f2[i] for i in ms)
            for i in ms:
                fi, row = f2[i], d2[i]
                for j in ms:
                    if j != i:
                        twice = min(twice, fi + f2[j] - row[j])
                for j in rest:
                    twice = min(twice, 2 * (fi + f2[j] - row[j]))
            step, odd = divmod(twice, 2)
            if odd:
                raise NotExtremal(f"the edge from {f2}/2 ends off the lattice")
            g2 = tuple(
                x - step if minus >> i & 1 else x + step if plus >> i & 1 else x
                for i, x in enumerate(f2)
            )
            edge = (f2, g2) if f2 < g2 else (g2, f2)
            if edge not in edges:
                _close(edge, edges, edge_images)
            if g2 not in seen:
                _close(g2, seen, vertex_images)
                stack.append(g2)

    return frozenset(seen), frozenset(edges)


def doubled_span(metric: FiniteMetric) -> tuple[frozenset, frozenset]:
    """tight_span's vertices and edges, doubled: 2f for each vertex f, as
    a tuple of ints, and each edge as a pair (u, v) with u < v.

    These are the sets the walk computes.  The oracle command prints and
    compares them as they are, so it needs no Fraction.
    """
    return _span(metric, _symmetries(metric.d, metric.n))


def tight_span(metric: FiniteMetric) -> tuple[frozenset, frozenset]:
    """Vertices and edges of the tight span, as tuples of exact numbers:
    int where a coordinate is integral, Fraction where it is a half.

    Walks the vertices of P(d) = {f : f_i + f_j >= d_ij, f_i >= 0} along
    its bounded edges, from the distance row of point 0.  The vertices
    are half-integral, since the tight graph pinning one has an odd
    cycle or a zero in every component; the walk therefore runs on
    doubled integers (doubled_span) and every step is an exact integer.
    It computes rays only at one vertex per orbit of the metric's
    isometry group (_symmetries) and adds the images of every vertex and
    edge it meets.  Edges are pairs (u, v) with u < v.  The tuples
    compare and hash equal to the same values as Fractions or ints.
    TooLarge if the walk needs more than WALK_BUDGET tight-graph tests.
    """
    seen, edges = doubled_span(metric)
    # each distinct doubled value is halved once: int when even, Fraction
    # when odd (imported only then: the model metrics' spans have none)
    half = {x: x // 2 for f2 in seen for x in f2}
    odd = [x for x in half if x % 2]
    if odd:
        from fractions import Fraction

        half.update((x, Fraction(x, 2)) for x in odd)
    halved = {f2: tuple(map(half.__getitem__, f2)) for f2 in seen}
    return (
        frozenset(halved.values()),
        frozenset((halved[u], halved[v]) for u, v in edges),
    )


def span_lines(vertices, edges) -> Iterator[str]:
    """The oracle command's listing of doubled_span's sets, line by line:
    the vertex count, the vertices, the edge count and the edges as
    "u ; v", each coordinate printed as its half, as str prints the int
    or Fraction that tight_span gives: x // 2 when x is even, "x/2" when
    it is odd.  Sorting the doubled tuples gives the order of the halved
    ones, and each distinct value's text, and each vertex's, is made once.
    """
    values = {x for f2 in vertices for x in f2}
    text = {x: f"{x}/2" if x % 2 else str(x // 2) for x in values}
    line = {f2: " ".join(map(text.__getitem__, f2)) for f2 in vertices}
    yield f"vertices: {len(vertices)}\n"
    for f2 in sorted(vertices):
        yield line[f2] + "\n"
    yield f"edges: {len(edges)}\n"
    for u, v in sorted(edges):
        yield f"{line[u]} ; {line[v]}\n"


def tight_span_vertices(metric: FiniteMetric) -> frozenset:
    """All 0-faces of the tight span, as tuples of exact numbers."""
    return tight_span(metric)[0]


def tight_span_edges(vertices, metric: FiniteMetric) -> frozenset:
    """Unordered vertex pairs whose midpoint lies on a 1-face.

    Vertices are tuples of ints and Fractions, as tight_span gives them.
    The midpoint must be extremal and its tight-pair graph must leave
    exactly one degree of freedom; the solution space of the tight system
    has dimension equal to the number of bipartite components of that
    graph, so the test is one bipartite component exactly.
    """
    n = metric.n
    vs = sorted(vertices)
    # with s clearing every denominator, u + v is 2s times the midpoint
    s = math.lcm(*(x.denominator for f in vs for x in f))
    ints = [tuple(int(x * s) for x in f) for f in vs]
    scaled = FiniteMetric.from_rows([[2 * s * x for x in r] for r in metric.d])
    d = scaled.d
    out = set()
    for a in range(len(vs)):
        for b in range(a + 1, len(vs)):
            mid = tuple(x + y for x, y in zip(ints[a], ints[b]))
            if not is_extremal(mid, scaled):
                continue
            adj = [0] * n
            for i in range(n):
                for j in range(i + 1, n):
                    if mid[i] + mid[j] == d[i][j]:
                        adj[i] |= 1 << j
                        adj[j] |= 1 << i
            if _bipartite_components(adj) == 1:
                out.add((vs[a], vs[b]))
    return frozenset(out)
