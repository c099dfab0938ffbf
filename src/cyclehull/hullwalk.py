"""The hull walk: the vertices of a hull with their names, functions
and corner rows, in name order.

A hull's pool is a tuple of row ranges (hull_pool: all of Y_N for X_N,
Y_N° for C_N) and the offset o that its vertex functions sit below
X_N's.  name_walk walks the pool depth first, as partitions.corner_walk
does, but steps each row in the order of its parts' decimal text, so
the names come out sorted, and adds one N-tuple per step to the parent's
vertex function.  build_hull keeps all that it yields, the exports
print from it, and doubled_hull reads the hull as the oracle's doubled sets
for `oracle --compare`.  Only the hull commands load this module: the
fold, fibre, embed and counts commands need partitions alone.
"""

from __future__ import annotations

from operator import add
from typing import Iterator

from .partitions import (
    OrbitLeavesPool,
    Partition,
    band_rows,
    circ_rows,
    fewest_parts,
    one_box_less,
    require_space,
    tau,
)


def hull_pool(kind: str, n: int) -> tuple[tuple[range, ...], int]:
    """The vertices of a hull as row ranges, and the offset o that its
    vertex functions sit below X_N's: all of Y_N (band_rows(n, 0, n)) and
    o = 0 for 'xn', Y_N° (circ_rows) and o = k(k-1)/2, k = N // 2, for
    'cycle'."""
    require_space(kind, n)
    if kind == "xn":
        return band_rows(n, 0, n), 0
    k = n // 2
    return circ_rows(n), k * (k - 1) // 2


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
    """
    rows, o = hull_pool(kind, n)
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
