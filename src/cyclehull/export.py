"""The hull exports, streamed from walks over the pool's row ranges.

The vertex of either hull at lam is the function j -> d(lam, R_j), the
Young-lattice distance to the rectangle R_j = (j^(N-j)), less the offset
o of the pool (partitions.hull_pool).  Row r of lam with part p adds
p - 2 min(p, j) to place j when r <= N - j, and p when the rectangle has
no row r, to the empty partition's function (j(N - j) - o)_j; so one
depth-first walk over the rows makes each vertex function from its
parent's with one N-tuple sum, and needs no tau orbit.  name_walk steps
each row's range in the order of the parts' text (1 < 10 < 11 < 2) and
ends a partition before it extends it, so the vertices come out in name
order, the order every export prints, with no sort and nothing held per
vertex.  The JSON faces keep their tuple order: one corner_walk lists
the tops, and one (name, corner rows) pair per vertex is held for them.

An export streams as it walks, so one that finds a vertex whose tau
image is outside the pool (OrbitLeavesPool) stops part way.  name_walk
yields each vertex's partition too, and hull.build_hull keeps its
functions from it, so every command takes its vertex functions from
this one rule; the DOT export and oracle --compare load this module
through hull.
"""

from __future__ import annotations

from itertools import combinations
from operator import add
from typing import Iterator

from .partitions import (
    OrbitLeavesPool,
    Partition,
    corner_walk,
    fewest_parts,
    hull_pool,
    tau,
)


def name_walk(kind: str, n: int) -> Iterator[tuple[Partition, str, tuple[int, ...]]]:
    """(lam, format_partition(lam), vertex function) for each vertex of
    the hull, in name order: "" first, "10,..." before "2,...".

    A row's choices are the tuple of its parts q in text order up to the
    part above, each with its text, its N-tuple, (q,), the cap N - q on
    the rows below a first part q, and the next row's choices below it,
    made once per row and top.  The path is a stack of iterators over
    choices, each with its prefix's partition, name and function.

    Each vertex checks that tau lam = (N - m - 1, lam_1 - 1, .., lam_m - 1)
    stays in the pool, in O(1): a part q > 1 in row r puts q - 1 in row
    r + 1, which is checked when q is chosen; at a vertex with m rows the
    head N - m - 1 must fit the width, and tau lam, with one part per
    part of lam above 1 and the head, must have fewest_parts.  t counts
    the parts above 1 along the path and drops far below zero at a part
    whose shift leaves its row, so one comparison per vertex, t against
    least[m], holds the whole test; tau (1^(N-1)) = () needs no head.
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
            )
        kids = tuple(
            tuple(choice[q] for q in order if q <= top and q in choice)
            for top in range(n)
        )
    f0 = tuple(j * (n - j) - o for j in range(n))
    if fewest == 0:
        if least[0] > 0:
            raise _leaves((), n)
        yield (), "", f0
    # per row of the path: the choices left, and the partition, name,
    # function and t of the prefix above it, with its cap N - lam_1 on the
    # rows (0 above row 1, whose choice sets it)
    stack = [(iter(kids[n - 1]), (), "", f0, 0, 0)]
    while stack:
        choices, above, prefix, f, t, cap = stack[-1]
        m = len(stack)
        for text, step, shift, part, limit, below in choices:
            lam = above + part
            name = prefix + text
            g = tuple(map(add, f, step))
            u = t + shift
            if m >= fewest:
                if u < least[m]:
                    raise _leaves(lam, n)
                yield lam, name, g
            most = cap or limit
            if below and m < most:
                stack.append((iter(below), lam, name, g, u, most))
                break
        else:
            stack.pop()


def _leaves(lam: Partition, n: int) -> OrbitLeavesPool:
    return OrbitLeavesPool(
        f"the tau orbit of {lam or '()'} reaches {tau(lam, n) or '()'}"
    )


class _Numerals(dict):
    """int -> str: each distinct value's text made once, on first use."""

    def __missing__(self, value: int) -> str:
        text = self[value] = str(value)
        return text


def vertex_lines(kind: str, n: int) -> Iterator[str]:
    """The text export of the vertices: "name: values" per vertex in name
    order, space-separated values, the empty partition named "()"."""
    numeral = _Numerals().__getitem__
    for _, name, f in name_walk(kind, n):
        yield f"{name or '()'}: {' '.join(map(numeral, f))}\n"


_SHUT = '"\n  }'  # closes a face after its top's name


def _face_text(removed: tuple[int, ...]) -> str:
    # one face up to its top's name, led by the previous face's close and
    # ",\n" as json.dumps(indent=1) prints them
    rows = ",".join(f"\n    {r}" for r in removed)
    bracket = "\n   ]" if removed else "]"
    return _SHUT + ',\n  {\n   "removed": [' + rows + bracket + ',\n   "top": "'


def json_chunks(kind: str, n: int, faces: bool = True) -> Iterator[str]:
    """The JSON export in pieces, made as they are written: one piece per
    top and face dimension, then one per vertex.

    Joined, the pieces are json.dumps(doc, sort_keys=True, indent=1) of
    {"faces": [{"removed": [...], "top": name}, ...], "n": N,
    "space": kind, "vertices": {name: values}}, the faces ordered by
    dimension, top (as a tuple) and removed rows, the vertices by name;
    faces=False leaves the "faces" key out.  The v-faces above a top
    remove the subsets combinations(rows, v) of its corner rows.  A
    face's text depends on its top only through the name, so the text of
    each removed-row subset, cut where the name goes, is made once; it is
    led by the previous face's close, so each piece ends on a name.  The
    v-faces above a top are one template per (v, corner rows), a list of
    those texts, and each piece is one str.join of the name into it.
    Subsets of v rows only occur in dimension v, so texts and templates
    are dropped when v moves on.  Partition names are digits and commas,
    so nothing needs escaping.
    """
    rows, _ = hull_pool(kind, n)
    yield "{\n"
    if faces:
        # every part is below N: a name joins the texts of range(N)
        part = [str(i) for i in range(n)].__getitem__
        tops = [(",".join(map(part, lam)), c) for lam, c in corner_walk(n, rows)]
        yield ' "faces": ['
        skip = len(_SHUT) + 1  # no face before the first to close, no ","
        for v in range(max((len(c) for _, c in tops), default=-1) + 1):
            texts: dict[tuple[int, ...], str] = {}
            templates: dict[tuple[int, ...], list[str]] = {}
            for name, corners in tops:
                if len(corners) < v:
                    continue
                template = templates.get(corners)
                if template is None:
                    template = templates[corners] = []
                    for sub in combinations(corners, v):
                        if sub not in texts:
                            texts[sub] = _face_text(sub)
                        template.append(texts[sub])
                    template.append("")
                yield name.join(template)[skip:]
                skip = 0
        yield _SHUT + "\n ],\n"
    yield f' "n": {n},\n "space": "{kind}",\n "vertices": {{'
    numeral = _Numerals().__getitem__
    sep = "\n"
    for _, name, f in name_walk(kind, n):
        vals = ",\n   ".join(map(numeral, f))
        yield f'{sep}  "{name}": [\n   {vals}\n  ]'
        sep = ",\n"
    yield "\n }\n}"
