"""Tight spans of small finite integer metric spaces, by an edge walk.

Independent of the rest of the package: the hull constructions are
validated against this module, which computes tight spans straight from
the definition.  A function f on the points is feasible when
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
"""

from __future__ import annotations

import math
from fractions import Fraction
from pathlib import Path


class DimensionMismatch(ValueError):
    """Function length does not match the metric's point count."""


class TooLarge(ValueError):
    """Point count exceeds the requested cap."""


class FiniteMetric:
    """Symmetric integer metric with positive off-diagonal distances:
    n points, distance matrix d."""

    __slots__ = ("n", "d")

    def __init__(self, n: int, d: tuple[tuple[int, ...], ...]):
        if len(d) != n or any(len(r) != n for r in d):
            raise DimensionMismatch(f"matrix is not {n}x{n}")
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
        """Parse 'n' on the first line, then n whitespace-split int rows."""
        lines = [ln for ln in text.splitlines() if ln.strip()]
        if not lines:
            raise DimensionMismatch("metric text is empty")
        n = int(lines[0])
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


def _bipartite_components(adj: list[list[int]], skip=(), loops=()) -> int:
    """Components off `skip` with no odd cycle and no loop.

    The system f_i + f_j = d_ij over the edges (f_i = 0 at a loop) has
    one free parameter per such component.  Edges into `skip` are
    ignored.
    """
    n = len(adj)
    color = [2 if i in skip else -1 for i in range(n)]
    count = 0
    for root in range(n):
        if color[root] >= 0:
            continue
        color[root] = 0
        stack = [root]
        free = True
        while stack:
            u = stack.pop()
            if u in loops:
                free = False
            for v in adj[u]:
                if color[v] < 0:
                    color[v] = color[u] ^ 1
                    stack.append(v)
                elif color[v] == color[u]:
                    free = False
        count += free
    return count


def _tight_graph(f2, d2, n: int) -> tuple[list[list[int]], frozenset]:
    """Tight pairs and zero coordinates of the doubled point f2 = 2f.

    Raises NotExtremal unless f is a vertex of P(d): feasible, and pinned
    by its tight equations, i.e. every component of the tight graph holds
    an odd cycle or a zero coordinate.  Vertices of P(d) are extremal, so
    this certifies every vertex the walk emits.
    """
    adj: list[list[int]] = [[] for _ in range(n)]
    for i in range(n):
        if f2[i] < 0:
            raise NotExtremal(f"coordinate {i} of {f2}/2 is negative")
        for j in range(i + 1, n):
            slack = f2[i] + f2[j] - d2[i][j]
            if slack < 0:
                raise NotExtremal(f"pair ({i},{j}) is violated by {f2}/2")
            if slack == 0:
                adj[i].append(j)
                adj[j].append(i)
    loops = frozenset(i for i in range(n) if f2[i] == 0)
    if _bipartite_components(adj, loops=loops):
        raise NotExtremal(f"{f2}/2 is not pinned by its tight pairs")
    return adj, loops


def _bounded_rays(n: int, adj, loops) -> list[tuple[frozenset, frozenset]]:
    """Extreme rays of the tight cone at a vertex that end in a vertex.

    The cone is {x : x_i + x_j >= 0 on tight pairs, x_i >= 0 at zeros}.
    An extreme ray is -1 on a minus set M, +1 on P = N(M) and 0 on the
    rest, where M holds no zero and no tight pair, M + P is connected
    through M-P pairs, and every component of the tight graph on the
    rest holds an odd cycle or a zero.  An empty M gives the unit rays,
    which lie in the recession cone and are unbounded; every other ray
    lowers a coordinate toward 0 and is bounded.  M grows by depth-first
    search through shared neighbours, so it is never guessed.
    """
    out = []
    seen = set()
    stack = [frozenset((m,)) for m in range(n) if m not in loops]
    while stack:
        minus = stack.pop()
        if minus in seen:
            continue
        seen.add(minus)
        plus = frozenset(q for m in minus for q in adj[m])
        if not _bipartite_components(adj, minus | plus, loops):
            out.append((minus, plus))
        for q in plus:
            for m in adj[q]:
                if m not in minus and m not in plus and m not in loops:
                    stack.append(minus | {m})
    return out


def tight_span(metric: FiniteMetric, cap: int = 7) -> tuple[frozenset, frozenset]:
    """Vertices and edges of the tight span, as tuples of Fractions.

    Walks the vertices of P(d) = {f : f_i + f_j >= d_ij, f_i >= 0} along
    its bounded edges, from the distance row of point 0.  The vertices
    are half-integral, since the tight graph pinning one has an odd
    cycle or a zero in every component; the walk therefore runs on
    doubled integers and every step is an exact integer.  Edges are
    pairs (u, v) with u < v.
    """
    n = metric.n
    if n > cap:
        raise TooLarge(f"{n} points exceeds the cap {cap}")
    d2 = [[2 * x for x in row] for row in metric.d]
    start = tuple(d2[0]) if n else ()
    seen = {start}
    stack = [start]
    edges = set()
    while stack:
        f2 = stack.pop()
        adj, loops = _tight_graph(f2, d2, n)
        for minus, plus in _bounded_rays(n, adj, loops):
            # twice the step to the first constraint that turns tight;
            # x_i + x_j is -2 on pairs inside M, -1 from M to the rest
            twice = min(2 * f2[i] for i in minus)
            for i in minus:
                for j in range(n):
                    if j != i and j not in plus:
                        slack = f2[i] + f2[j] - d2[i][j]
                        twice = min(twice, slack if j in minus else 2 * slack)
            step, odd = divmod(twice, 2)
            if odd:
                raise NotExtremal(f"the edge from {f2}/2 ends off the lattice")
            g2 = tuple(
                x - step if i in minus else x + step if i in plus else x
                for i, x in enumerate(f2)
            )
            edges.add((min(f2, g2), max(f2, g2)))
            if g2 not in seen:
                seen.add(g2)
                stack.append(g2)

    def half(f2):
        return tuple(Fraction(x, 2) for x in f2)

    return (
        frozenset(half(f2) for f2 in seen),
        frozenset((half(u), half(v)) for u, v in edges),
    )


def tight_span_vertices(metric: FiniteMetric, cap: int = 7) -> frozenset:
    """All 0-faces of the tight span, as tuples of Fractions."""
    return tight_span(metric, cap)[0]


def tight_span_edges(vertices, metric: FiniteMetric) -> frozenset:
    """Unordered vertex pairs whose midpoint lies on a 1-face.

    The midpoint must be extremal and its tight-pair graph must leave
    exactly one degree of freedom; the solution space of the tight system
    has dimension equal to the number of bipartite components of that
    graph, so the test is one bipartite component exactly.
    """
    n = metric.n
    vs = sorted(vertices)
    # with s clearing every denominator, u + v is 2s times the midpoint
    s = math.lcm(*(Fraction(x).denominator for f in vs for x in f))
    ints = [tuple(int(Fraction(x) * s) for x in f) for f in vs]
    scaled = FiniteMetric.from_rows([[2 * s * x for x in r] for r in metric.d])
    d = scaled.d
    out = set()
    for a in range(len(vs)):
        for b in range(a + 1, len(vs)):
            mid = tuple(x + y for x, y in zip(ints[a], ints[b]))
            if not is_extremal(mid, scaled):
                continue
            adj: list[list[int]] = [[] for _ in range(n)]
            for i in range(n):
                for j in range(i + 1, n):
                    if mid[i] + mid[j] == d[i][j]:
                        adj[i].append(j)
                        adj[j].append(i)
            if _bipartite_components(adj) == 1:
                out.add((vs[a], vs[b]))
    return frozenset(out)
