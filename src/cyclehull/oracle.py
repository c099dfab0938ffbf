"""Brute-force tight spans of small finite integer metric spaces.

Independent of the rest of the package: the hull constructions are
validated against this module, which enumerates tight-span vertices
straight from the definition.  A function f on the points is feasible
when f(i) + f(j) >= d(i, j) for all pairs (the diagonal case i = j reads
f(i) >= 0) and extremal when additionally every coordinate is tight
against some other one, i.e. f(i) = max_j (d(i,j) - f(j)).

Vertices of the tight span are the extremal functions pinned by n
linearly independent tight equations.  Any extremal function with a zero
coordinate is a whole distance row (Kuratowski point), and those are
always vertices; every other vertex is the unique solution of the
tightness system of some n-subset of distinct-point pairs, which is what
the search enumerates: C(n(n-1)/2, n) exact linear solves.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from pathlib import Path


class DimensionMismatch(ValueError):
    """Function length does not match the metric's point count."""


class TooLarge(ValueError):
    """Point count exceeds the exhaustive-search cap."""


@dataclass(frozen=True)
class FiniteMetric:
    """Symmetric integer metric with positive off-diagonal distances."""

    n: int
    d: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        if len(self.d) != self.n or any(len(r) != self.n for r in self.d):
            raise DimensionMismatch(f"matrix is not {self.n}x{self.n}")
        for i in range(self.n):
            if self.d[i][i] != 0:
                raise ValueError(f"nonzero diagonal at {i}")
            for j in range(self.n):
                if self.d[i][j] != self.d[j][i]:
                    raise ValueError(f"not symmetric at ({i},{j})")
                if i != j and self.d[i][j] <= 0:
                    raise ValueError(f"nonpositive distance at ({i},{j})")
                for l in range(self.n):
                    if self.d[i][j] > self.d[i][l] + self.d[l][j]:
                        raise ValueError(
                            f"triangle inequality fails at ({i},{l},{j})"
                        )

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
        rows = [[int(x) for x in ln.split()] for ln in lines[1 : n + 1]]
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


def tight_span_vertices(metric: FiniteMetric, cap: int = 7) -> frozenset:
    """All 0-faces of the tight span, as tuples of Fractions.

    Enumerates every n-subset of distinct-point pairs, solves its
    tightness system by sign-propagation over the subset's graph (unique
    solution iff every connected component carries an odd cycle), and
    keeps the feasible extremal solutions.  The distance rows are always
    vertices and are added directly; for two points no pair subsets exist
    at all and the rows are the whole answer.
    """
    n = metric.n
    if n > cap:
        raise TooLarge(f"{n} points exceeds the cap {cap}")
    d = metric.d
    verts = set()
    for i in range(n):
        row = tuple(Fraction(x) for x in d[i])
        assert is_extremal(row, metric)
        verts.add(row)
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    if len(pairs) < n:
        return frozenset(verts)
    for combo in combinations(pairs, n):
        adj: list[list[int]] = [[] for _ in range(n)]
        for i, j in combo:
            adj[i].append(j)
            adj[j].append(i)
        # propagate f = c + s*x per component, in doubled integers
        comp = [-1] * n
        c = [0] * n
        s = [0] * n
        ncomp = 0
        for root in range(n):
            if comp[root] >= 0:
                continue
            comp[root] = ncomp
            c[root] = 0
            s[root] = 1
            stack = [root]
            while stack:
                u = stack.pop()
                for v in adj[u]:
                    if comp[v] < 0:
                        comp[v] = ncomp
                        c[v] = d[u][v] - c[u]
                        s[v] = -s[u]
                        stack.append(v)
            ncomp += 1
        x2 = [None] * ncomp  # doubled pinned value per component
        ok = True
        for i, j in combo:
            rhs = d[i][j] - c[i] - c[j]
            sv = s[i] + s[j]
            if sv == 0:
                if rhs != 0:
                    ok = False
                    break
            else:
                val = 2 * rhs // sv  # sv is +-2, exact
                if x2[comp[i]] is None:
                    x2[comp[i]] = val
                elif x2[comp[i]] != val:
                    ok = False
                    break
        if not ok or any(v is None for v in x2):
            continue
        f = tuple(
            Fraction(2 * c[i] + s[i] * x2[comp[i]], 2) for i in range(n)
        )
        if is_extremal(f, metric):
            verts.add(f)
    return frozenset(verts)


def _bipartite_components(adj: list[list[int]]) -> int:
    n = len(adj)
    color = [-1] * n
    count = 0
    for root in range(n):
        if color[root] >= 0:
            continue
        color[root] = 0
        stack = [root]
        bip = True
        while stack:
            u = stack.pop()
            for v in adj[u]:
                if color[v] < 0:
                    color[v] = color[u] ^ 1
                    stack.append(v)
                elif color[v] == color[u]:
                    bip = False
        if bip:
            count += 1
    return count


def tight_span_edges(vertices, metric: FiniteMetric) -> frozenset:
    """Unordered vertex pairs whose midpoint lies on a 1-face.

    The midpoint must be extremal and its tight-pair graph must leave
    exactly one degree of freedom; the solution space of the tight system
    has dimension equal to the number of bipartite components of that
    graph, so the test is one bipartite component exactly.
    """
    d = metric.d
    n = metric.n
    vs = sorted(vertices)
    out = set()
    for a in range(len(vs)):
        for b in range(a + 1, len(vs)):
            u, v = vs[a], vs[b]
            mid = tuple(
                (Fraction(x) + Fraction(y)) / 2 for x, y in zip(u, v)
            )
            if not is_extremal(mid, metric):
                continue
            adj: list[list[int]] = [[] for _ in range(n)]
            for i in range(n):
                for j in range(i + 1, n):
                    if mid[i] + mid[j] == d[i][j]:
                        adj[i].append(j)
                        adj[j].append(i)
            if _bipartite_components(adj) == 1:
                out.add((u, v))
    return frozenset(out)
