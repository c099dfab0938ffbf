"""The hull walk: the vertices of a hull with their names, functions
and corner rows, in name order.

A hull's pool is a tuple of row ranges (hull_pool: all of Y_N for X_N,
Y_N° for C_N) and the offset o that its vertex functions sit below
X_N's.  name_walk walks the pool depth first, as walks.corner_walk
does, but steps each row in the order of its parts' decimal text, so
the names come out sorted, and adds one N-tuple per step to the parent's
vertex function.  build_hull keeps all that it yields, the exports
print from it, and doubled_hull reads the hull as the oracle's doubled sets
for `oracle --compare`.  Every walk of a hull's vertices takes its rows
from hull_pool and names "vertices": name_walk here, and
hull.max_cube_decomposition, moebius.enumerate_circ and
partitions.enumerate_YN.  hull_pool refuses, before any walk, a hull
whose vertices, edges or faces, counted in closed form by hull_counts,
pass their budgets, checking only the units its caller names.  Only the
hull commands load this module: fold and embed need partitions alone,
and fibre and counts add walks.
"""

from __future__ import annotations

from operator import add
from typing import Iterator

from . import TooLarge
from .partitions import (
    OrbitLeavesPool,
    Partition,
    band_rows,
    circ_rows,
    one_box_less,
    require_space,
)
from .walks import fewest_parts


# one line of N values per vertex: fresh on a 2-vCPU VM, the vertices of
# C_29 (1,149,851) take 4.0-5.1 s and X_21's (1,048,576) 3.2-3.4 s, in 14 MB
VERTEX_BUDGET = 1_200_000
# DOT holds every edge until its walk ends: C_23's 407,353 take 1.1-1.7 s
# and 69 MB, X_17's 278,528 0.7-1.0 s and 54 MB
EDGE_BUDGET = 500_000
# JSON prints its faces as made: C_23's 8,388,607 (802 MB of text) take
# 1.4 s and 22 MB, X_19's 9,369,319 2.1 s and 40 MB
FACE_BUDGET = 10_000_000


def hull_counts(kind: str, n: int) -> dict[str, int]:
    """The vertices, edges and faces of a hull, in closed form.

    Each vertex has an edge down per corner row and tops a face per
    subset of them, so with c(t) the sum over vertices of t^(corner rows)
    the counts are c(1), c'(1) and c(2).  For X_N, c(t) = Σ_j C(N, 2j) t^j
    gives 2^(N-1), N 2^(N-3) and H_N = 2 H_(N-1) + H_(N-2), H_0 = H_1 = 1;
    for odd C_N the cycle matchings give L_N, N F_(N-1) and 2^N - 1; for
    even C_N, the k-cube (k = N // 2), 2^k, k 2^(k-1) and 3^k.  O(N) steps.
    """
    if kind == "xn":
        h, h1 = 1, 1
        for _ in range(n):
            h, h1 = h1, 2 * h1 + h
        return {"vertices": 1 << n - 1, "edges": n << n >> 3, "faces": h}
    if n % 2 == 0:
        k = n // 2
        return {"vertices": 1 << k, "edges": k << k >> 1, "faces": 3**k}
    f0, f = 1, 0  # F_(i-1), F_i from i = 0
    for _ in range(n):
        f0, f = f, f0 + f
    return {"vertices": 2 * f0 + f, "edges": n * f0, "faces": (1 << n) - 1}


def hull_pool(kind: str, n: int, *units: str) -> tuple[tuple[range, ...], int]:
    """The vertices of a hull as row ranges, and the offset o that its
    vertex functions sit below X_N's: all of Y_N (band_rows(n, 0, n)) and
    o = 0 for 'xn', Y_N° (circ_rows) and o = k(k-1)/2, k = N // 2, for
    'cycle'.  TooLarge past the row table's budget, or, before any walk,
    if hull_counts has more of a unit named ('vertices', 'edges',
    'faces') than VERTEX_BUDGET, EDGE_BUDGET or FACE_BUDGET: a walk of
    the vertices names 'vertices', and a caller that walks nothing, as
    g_vertex reading o, names none."""
    require_space(kind, n)
    k = n // 2
    if kind == "xn":
        rows, o = band_rows(n, 0, n), 0
    else:
        rows, o = circ_rows(n), k * (k - 1) // 2
    counts = hull_counts(kind, n)
    limits = {"vertices": VERTEX_BUDGET, "edges": EDGE_BUDGET, "faces": FACE_BUDGET}
    for unit in units:
        if counts[unit] > limits[unit]:
            name = f"the hull of {'X' if kind == 'xn' else 'C'}_{n}"
            raise TooLarge(name, counts[unit], limits[unit], unit)
    return rows, o


def name_walk(
    kind: str, n: int
) -> Iterator[tuple[Partition, str, tuple[int, ...], tuple[int, ...]]]:
    """(lam, format_partition(lam), vertex function, corner rows) for each
    vertex of the hull, in name order: "" first, "10,..." before "2,...".

    The pool is hull_pool(kind, n): its row ranges and the offset o.  The
    vertex function is j -> d(lam, R_j) - o, R_j = (j^(N-j)): row r of
    lam with part p adds p - 2 min(p, j) to place j when r <= N - j, and
    p when the rectangle has no row r, to the empty partition's function
    (j(N - j) - o)_j, so each vertex's function is its parent's plus one
    N-tuple, with no tau orbit.  The corner rows are removable_rows(lam,
    rows), settled along the path as corner_walk settles them: choosing
    part q for row m settles row m - 1, a corner when its part is above
    max(q, its range's low end), and row m is a corner when q is above
    its own low end.

    A row's choices are the tuple of its parts q in text order up to the
    part above, each with its text, its N-tuple, (q,), the cap N - q on
    the rows below a first part q, the next row's choices below it, and
    q when it is above the row's low end (else 0), made once per row and
    top.  The path is a stack of iterators over choices, each with its
    prefix's partition, name, function and settled corner rows.  A
    partition ends before it extends, so the names come out sorted.

    Each vertex checks that tau lam = (N - m - 1, lam_1 - 1, .., lam_m - 1)
    stays in the pool, in O(1): a part q > 1 in row r puts q - 1 in row
    r + 1, which is checked when q is chosen; at a vertex with m rows the
    head N - m - 1 must fit the width, and tau lam, with one part per
    part of lam above 1 and the head, must have fewest_parts.  t counts
    the parts above 1 along the path and drops far below zero at a part
    whose shift leaves its row, so one comparison per vertex, t against
    least[m], holds the whole test; tau (1^(N-1)) = () needs no head.
    A pool that tau leaves raises OrbitLeavesPool part way through.

    The pool is sized when name_walk is called, not when the walk
    starts, so an export that prints before its walk refuses first.
    """
    rows, o = hull_pool(kind, n, "vertices")
    return _walk(n, rows, o)


def _walk(
    n: int, rows: tuple[range, ...], o: int
) -> Iterator[tuple[Partition, str, tuple[int, ...], tuple[int, ...]]]:
    # name_walk's walk over the pool rows, offset o
    fewest = fewest_parts(rows)
    drop = -2 * n - 2  # t = drop + (at most n) stays below least[m] >= -1
    least = [  # at m rows, from m = 0: the head is N - m - 1
        n + 1 if head and head not in rows[0] else fewest - (head > 0)
        for head in range(n - 1, -1, -1)
    ]
    order = sorted(range(n), key=str)
    kids: tuple = ()  # row s + 1's choices under each top, s from 0
    for s in range(n - 1, -1, -1):
        row, below = rows[s], kids
        choice = {}
        for q in range(max(1, row.start), row.stop):
            choice[q] = (
                "," + str(q) if s else str(q),
                tuple(q - 2 * min(q, j) if s < n - j else q for j in range(n)),
                0 if q == 1 else 1 if s + 1 < n and q - 1 in rows[s + 1] else drop,
                (q,),
                n - q,
                below[q] if below else (),
                q if q > row.start else 0,
            )
        kids = tuple(
            tuple(choice[q] for q in order if q <= top and q in choice)
            for top in range(n)
        )
    f0 = tuple(j * (n - j) - o for j in range(n))
    if fewest == 0:
        if least[0] > 0:
            raise _leaves((), n)
        yield (), "", f0, ()
    # per row m of the path: the choices left, and the partition, name,
    # function and t of the prefix above it, with its cap N - lam_1 on
    # the rows (0 above row 1, whose choice sets it), the corner rows
    # among rows 1 .. m - 2, and row m - 1's part if it is a corner under
    # a smaller part (else 0)
    stack = [(iter(kids[n - 1]), (), "", f0, 0, 0, (), 0)]
    while stack:
        choices, above, prefix, f, t, cap, settled, edge = stack[-1]
        m = len(stack)
        settles = settled + (m - 1,)
        for text, step, shift, part, limit, below, corner in choices:
            lam = above + part
            name = prefix + text
            g = tuple(map(add, f, step))
            u = t + shift
            kept = settles if part[0] < edge else settled
            if m >= fewest:
                if u < least[m]:
                    raise _leaves(lam, n)
                yield lam, name, g, kept + (m,) if corner else kept
            most = cap or limit
            if below and m < most:
                stack.append((iter(below), lam, name, g, u, most, kept, corner))
                break
        else:
            stack.pop()


def _leaves(lam: Partition, n: int) -> OrbitLeavesPool:
    from .spaces import tau

    return OrbitLeavesPool(
        f"the tau orbit of {lam or '()'} reaches {tau(lam, n) or '()'}"
    )


def doubled_hull(kind: str, n: int) -> tuple[frozenset, frozenset]:
    """The vertices and edges of a hull, doubled as oracle.doubled_span
    gives a tight span's: 2f for each vertex's function f, and each edge
    as the pair of its ends' doubled functions, the smaller first.

    One name_walk gives every vertex lam with its function and corner
    rows; the edges down from lam end at partitions.one_box_less(lam,
    corner rows), the rule that HullComplex's edges follow.
    """
    twice, rows = {}, {}
    for lam, _, f, corners in name_walk(kind, n):
        twice[lam] = tuple(map(add, f, f))
        rows[lam] = corners
    edges = set()
    for lam, corners in rows.items():
        top = twice[lam]
        for mu in one_box_less(lam, corners):
            low = twice[mu]
            edges.add((low, top) if low < top else (top, low))
    return frozenset(twice.values()), frozenset(edges)
