import random
import time
from fractions import Fraction
from itertools import combinations

import pytest

from cyclehull import oracle
from cyclehull.hull import g_vertex
from cyclehull.moebius import enumerate_circ
from cyclehull.oracle import (
    DimensionMismatch,
    FiniteMetric,
    NotExtremal,
    TooLarge,
    _span,
    _symmetries,
    _tight_graph,
    doubled_span,
    is_extremal,
    is_feasible,
    tight_span,
    tight_span_edges,
    tight_span_vertices,
)
from cyclehull.partitions import model_matrix


def fr(values):
    return tuple(Fraction(x) for x in values)


def metric_for(kind, n):
    return FiniteMetric.from_rows(model_matrix(kind, n))


def brute_force_vertices(metric):
    """Reference: solve every n-subset of distinct-point pairs.

    Each subset's tightness system is solved by sign propagation over its
    graph (a unique solution iff every component carries an odd cycle),
    and the feasible extremal solutions are kept, with the distance rows
    added directly: C(n(n-1)/2, n) systems in all.
    """
    n = metric.n
    d = metric.d
    verts = {fr(row) for row in d}
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    if len(pairs) < n:
        return frozenset(verts)
    for combo in combinations(pairs, n):
        adj = [[] for _ in range(n)]
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


def random_metrics(seed, count, max_n=6):
    """Seeded metrics: generic distances, and shortest paths of random
    small-weight graphs, whose many ties give degenerate vertices."""
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        n = rng.randint(2, max_n)
        d = [[0] * n for _ in range(n)]
        if len(out) % 2:
            for i, j in combinations(range(n), 2):
                d[i][j] = d[j][i] = rng.randint(5, 9)
        else:
            far = 10 * n
            wmax = rng.randint(1, 3)
            p = rng.choice((0.3, 0.5, 0.8))
            for i, j in combinations(range(n), 2):
                w = rng.randint(1, wmax) if rng.random() < p else far
                d[i][j] = d[j][i] = w
            for k in range(n):
                for i in range(n):
                    for j in range(n):
                        d[i][j] = min(d[i][j], d[i][k] + d[k][j])
            if any(far in row for row in d):
                continue  # disconnected graph
        out.append(FiniteMetric.from_rows(d))
    return out


def test_validation():
    with pytest.raises(ValueError, match="symmetric"):
        FiniteMetric.from_rows([[0, 1], [2, 0]])
    with pytest.raises(ValueError, match="diagonal"):
        FiniteMetric.from_rows([[1, 1], [1, 0]])
    with pytest.raises(ValueError, match="triangle"):
        FiniteMetric.from_rows([[0, 1, 5], [1, 0, 1], [5, 1, 0]])
    with pytest.raises(ValueError, match="nonpositive"):
        FiniteMetric.from_rows([[0, 0], [0, 0]])
    with pytest.raises(DimensionMismatch):
        FiniteMetric(3, ((0, 1), (1, 0)))


def test_from_text():
    m = FiniteMetric.from_text("2\n0 3\n3 0\n")
    assert m.n == 2
    assert m.d == ((0, 3), (3, 0))
    with pytest.raises(DimensionMismatch):
        FiniteMetric.from_text("3\n0 1\n1 0\n")
    with pytest.raises(DimensionMismatch, match="expected 2 rows, got 3"):
        FiniteMetric.from_text("2\n0 1\n1 0\n7 7\n")


def test_two_point_span():
    m = FiniteMetric.from_rows([[0, 3], [3, 0]])
    verts = tight_span_vertices(m)
    assert verts == {fr((0, 3)), fr((3, 0))}
    assert len(tight_span_edges(verts, m)) == 1


def test_feasible_and_extremal():
    m = metric_for("cycle", 5)
    row = fr(m.d[0])
    assert is_feasible(row, m)
    assert is_extremal(row, m)
    assert not is_feasible(fr((0,) * 5), m)
    shifted = tuple(x + 1 for x in row)
    assert is_feasible(shifted, m)
    assert not is_extremal(shifted, m)
    with pytest.raises(DimensionMismatch):
        is_feasible(fr((1, 2)), m)


def test_cycle5_vertices_are_g_functions():
    m = metric_for("cycle", 5)
    got = tight_span_vertices(m)
    want = {fr(g_vertex(lam, 5)) for lam in enumerate_circ(5)}
    assert got == want


def test_cycle6_span_is_three_cube():
    m = metric_for("cycle", 6)
    verts = tight_span_vertices(m)
    assert len(verts) == 8
    edges = tight_span_edges(verts, m)
    assert len(edges) == 12
    deg = {v: 0 for v in verts}
    for u, v in edges:
        deg[u] += 1
        deg[v] += 1
    assert set(deg.values()) == {3}


def test_relabeling_invariance():
    m = metric_for("cycle", 5)
    perm = (2, 0, 4, 1, 3)
    rows = [[m.d[perm[i]][perm[j]] for j in range(5)] for i in range(5)]
    shuffled = FiniteMetric.from_rows(rows)
    got = tight_span_vertices(shuffled)
    want = {tuple(f[perm[i]] for i in range(5))
            for f in tight_span_vertices(m)}
    assert got == want


def test_walk_budget(monkeypatch):
    # no point count is refused; a walk that needs more tight-graph tests
    # than the budget is
    assert len(tight_span_vertices(metric_for("cycle", 8))) == 16
    monkeypatch.setattr(oracle, "WALK_BUDGET", 1000)
    with pytest.raises(TooLarge, match="1,000 tight-graph tests"):
        tight_span(metric_for("cycle", 13))
    with pytest.raises(TooLarge):
        _span(metric_for("cycle", 13), ())
    # C_7's walk makes 131 tests: one per vertex it computes rays at and
    # one per minus set it tries
    monkeypatch.setattr(oracle, "WALK_BUDGET", 131)
    assert len(tight_span_vertices(metric_for("cycle", 7))) == 29
    monkeypatch.setattr(oracle, "WALK_BUDGET", 130)
    with pytest.raises(TooLarge):
        tight_span(metric_for("cycle", 7))


def test_kuratowski_rows_always_present():
    for kind, n in (("xn", 4), ("cycle", 6)):
        m = metric_for(kind, n)
        verts = tight_span_vertices(m)
        for i in range(n):
            assert fr(m.d[i]) in verts


def test_walk_matches_brute_force_on_random_metrics():
    for metric in random_metrics(2013, 200):
        verts, edges = tight_span(metric)
        assert verts == brute_force_vertices(metric), metric.d
        assert edges == tight_span_edges(verts, metric), metric.d


def test_walk_is_invariant_under_relabelling():
    rng = random.Random(5)
    for metric in random_metrics(84, 60, max_n=7):
        n = metric.n
        perm = list(range(n))
        rng.shuffle(perm)
        rows = [[metric.d[perm[i]][perm[j]] for j in range(n)]
                for i in range(n)]
        verts, edges = tight_span(FiniteMetric.from_rows(rows))

        def back(f):
            return tuple(f[perm[i]] for i in range(n))

        want_v, want_e = tight_span(metric)
        assert verts == {back(f) for f in want_v}
        assert edges == {
            (min(back(u), back(v)), max(back(u), back(v)))
            for u, v in want_e
        }


def test_walk_reaches_past_seven_points():
    for kind, n, nv, ne in (("cycle", 9, 76, 189), ("xn", 9, 256, 576),
                            ("cycle", 11, 199, 605)):
        verts, edges = tight_span(metric_for(kind, n))
        assert (len(verts), len(edges)) == (nv, ne)


def test_tight_graph_rejects_non_vertices():
    d2 = [[0, 2], [2, 0]]  # two points at distance 1, doubled
    adj, loops = _tight_graph((0, 2), d2, 2)
    assert adj == [0b10, 0b01] and loops == 0b01
    with pytest.raises(NotExtremal, match="violated"):
        _tight_graph((0, 1), d2, 2)
    with pytest.raises(NotExtremal, match="negative"):
        _tight_graph((-1, 4), d2, 2)
    with pytest.raises(NotExtremal, match="not pinned"):
        _tight_graph((2, 2), d2, 2)


def graph_metric(n, pairs):
    """Shortest-path metric of a connected graph on n points."""
    d = [[0 if i == j else n for j in range(n)] for i in range(n)]
    for i, j in pairs:
        d[i][j] = d[j][i] = 1
    for k in range(n):
        for i in range(n):
            for j in range(n):
                d[i][j] = min(d[i][j], d[i][k] + d[k][j])
    return FiniteMetric.from_rows(d)


def symmetric_metrics():
    """Metrics with large isometry groups: uniform metrics, K_{3,3}, the
    3-cube Q_3, the Petersen graph and seeded circulant graphs."""
    out = [
        FiniteMetric.from_rows(
            [[0 if i == j else w for j in range(n)] for i in range(n)]
        )
        for n in range(1, 10) for w in (1, 2)
    ]
    out.append(graph_metric(6, [(i, 3 + j) for i in range(3) for j in range(3)]))
    out.append(graph_metric(
        8, [(i, i ^ b) for i in range(8) for b in (1, 2, 4) if i < i ^ b]
    ))
    out.append(graph_metric(
        10,
        [(i, (i + 1) % 5) for i in range(5)]
        + [(i, i + 5) for i in range(5)]
        + [(5 + i, 5 + (i + 2) % 5) for i in range(5)],
    ))
    rng = random.Random(22)
    for _ in range(12):
        n = rng.randint(5, 9)
        jumps = {1} | {s for s in range(2, n // 2 + 1) if rng.random() < 0.4}
        out.append(graph_metric(
            n, [(i, (i + s) % n) for i in range(n) for s in jumps]
        ))
    return out


def test_orbit_walk_equals_blind_walk():
    metrics = random_metrics(2013, 200) + symmetric_metrics()
    for metric in metrics:
        assert doubled_span(metric) == _span(metric, ()), metric.d


def test_tight_span_halves_the_doubled_span():
    # the walk's own sets are int tuples 2f, edges ordered; tight_span
    # halves each value, to an int where it is even
    for metric in random_metrics(2013, 60) + symmetric_metrics():
        verts2, edges2 = doubled_span(metric)
        assert all(type(x) is int for f2 in verts2 for x in f2), metric.d
        assert all(u < v for u, v in edges2), metric.d

        def half(f2):
            return tuple(Fraction(x, 2) for x in f2)

        verts, edges = tight_span(metric)
        assert verts == {half(f2) for f2 in verts2}, metric.d
        assert edges == {(half(u), half(v)) for u, v in edges2}, metric.d
        assert all(
            (type(x) is int) == (x.denominator == 1) for f in verts for x in f
        ), metric.d


def test_symmetries_preserve_the_metric():
    for metric in random_metrics(2013, 60) + symmetric_metrics():
        n, d = metric.n, metric.d
        for p in _symmetries(d, n):
            assert sorted(p) == list(range(n))
            assert all(d[p[a]][p[b]] == d[a][b]
                       for a in range(n) for b in range(n))


def group_order(gens, n):
    """Order of the permutation group generated by gens, by closure."""
    group = {tuple(range(n))}
    todo = list(group)
    while todo:
        g = todo.pop()
        for p in gens:
            h = tuple(p[x] for x in g)
            if h not in group:
                group.add(h)
                todo.append(h)
    return len(group)


def test_symmetries_of_the_models_are_dihedral():
    for kind in ("cycle", "xn"):
        for n in range(3, 12):
            gens = _symmetries(model_matrix(kind, n), n)
            assert group_order(gens, n) == 2 * n, (kind, n)


def test_symmetries_of_a_uniform_metric_are_fast():
    n = 20
    d = [[0 if i == j else 1 for j in range(n)] for i in range(n)]
    t0 = time.perf_counter()
    gens = _symmetries(d, n)
    assert time.perf_counter() - t0 < 1.0
    assert len(gens) == n * (n - 1) // 2
