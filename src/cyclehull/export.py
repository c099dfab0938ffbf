"""The hull exports, printed from walks over the pool's row ranges.

hullwalk.name_walk yields each vertex of a hull with its name, its
function j -> d(lam, R_j) - o and its corner rows, in name order, the
order every export prints.  The vertices stream with nothing held per
vertex.  The JSON faces keep their tuple order: one corner_walk lists
the tops, and each top's name and its corner rows, one tuple shared by
the tops with equal ones, are held for the faces and dropped before the
vertices; each dimension's faces are joined by maps that run in C, with
no Python step per top.  DOT holds what its edges and roles need of its
one name walk.

A vertex whose tau image is outside the pool (OrbitLeavesPool) stops a
streamed export part way, and DOT before it prints.  Every export
command loads this module; hull.to_json and hull.to_dot import it.
"""

from __future__ import annotations

from itertools import combinations, islice, repeat
from typing import Iterator

from . import _BLOCK
from .hullwalk import hull_pool, name_walk
from .partitions import one_box_less
from .walks import corner_walk


class _Numerals(dict):
    """int -> str: each distinct value's text made once, on first use."""

    def __missing__(self, value: int) -> str:
        text = self[value] = str(value)
        return text


def vertex_lines(kind: str, n: int) -> Iterator[str]:
    """The text export of the vertices: "name: values" per vertex in name
    order, space-separated values, the empty partition named "()"."""
    numeral = _Numerals().__getitem__
    for _, name, f, _ in name_walk(kind, n):
        yield f"{name or '()'}: {' '.join(map(numeral, f))}\n"


_SHUT = '"\n  }'  # closes a face after its top's name


class _FaceTexts(dict):
    """removed rows -> one face's text up to its top's name, made once, on
    first use.  It is led by the previous face's close and ",\n", as
    json.dumps(indent=1) prints them."""

    def __missing__(self, removed: tuple[int, ...]) -> str:
        rows = ",".join(f"\n    {r}" for r in removed)
        bracket = "\n   ]" if removed else "]"
        text = self[removed] = (
            _SHUT + ',\n  {\n   "removed": [' + rows + bracket + ',\n   "top": "'
        )
        return text


def _face_chunks(n: int, rows: tuple[range, ...]) -> Iterator[str]:
    # the "faces" list of json_chunks, from its first face's "{" to the
    # last top's name; what it holds goes when it ends
    part = [str(i) for i in range(n)].__getitem__  # every part is below N
    names, tops, shared = [], [], {}
    for lam, corners in corner_walk(n, rows):
        names.append(",".join(map(part, lam)))
        tops.append(shared.setdefault(corners, corners))
    width = max(map(len, names), default=0)
    skip = len(_SHUT) + 1  # no face before the first to close, no ","
    empty = [""]  # the template of a top with fewer than v corner rows
    for v in range(max(map(len, shared), default=-1) + 1):
        texts = _FaceTexts()
        templates = {
            c: [*map(texts.__getitem__, combinations(c, v)), ""]
            for c in shared if len(c) >= v
        }
        # no top's faces are longer, so step tops fill at most half a
        # block: the writer, which writes a block once it reaches _BLOCK,
        # then holds less than 1.5 _BLOCK (whole-block pieces cost C_17's
        # JSON about 150 KB more peak RSS)
        longest = max(map(len, texts.values())) + width
        most = (max(map(len, templates.values())) - 1) * longest
        step = max(1, _BLOCK // 2 // most)
        faces = map(str.join, names, map(templates.get, tops, repeat(empty)))
        for _ in range(0, len(tops), step):  # by count: a piece may be empty
            yield "".join(islice(faces, step))[skip:]
            skip = 0
        del texts, templates, faces  # before the next dimension's are made


def json_chunks(kind: str, n: int, faces: bool = True) -> Iterator[str]:
    """The JSON export in pieces, made as they are written: the faces of
    each dimension in pieces of at most 32 KiB (half of _BLOCK, the CLI's
    write block) or one top's faces, then one piece per vertex.

    Joined, the pieces are json.dumps(doc, sort_keys=True, indent=1) of
    {"faces": [{"removed": [...], "top": name}, ...], "n": N,
    "space": kind, "vertices": {name: values}}, the faces ordered by
    dimension, top (as a tuple) and removed rows, the vertices by name;
    faces=False leaves the "faces" key out.  Before the first piece,
    hull_pool sizes the vertices and faces (faces=False: name_walk alone,
    its vertices).  The v-faces above a top
    remove the subsets combinations(rows, v) of its corner rows.  The
    faces hold two lists, one entry per top: its name, and its corner
    rows, where equal corner rows are one shared tuple (511 distinct
    ones for the 3,571 tops of C_17).  A face's text depends on its top
    only through the name, so the text of each removed-row subset, cut
    where the name goes, is made once; it is led by the previous face's
    close.  The v-faces above a top are one template per corner rows of
    v or more rows, a list of those texts and a last "", and [""] for
    fewer, so str.join of the top's name into it gives its v-faces, or
    "".  Each dimension maps str.join over the names and the tops'
    templates, all in C, and joins the result in pieces of a fixed count
    of tops: the most that fit half of _BLOCK when each top's faces are
    as many as the most of one top, each of the longest text and name.
    The pieces are taken by count, since a piece whose tops have no
    v-faces is "".  Subsets of v rows only occur in dimension v, so texts
    and templates are dropped before the next dimension's are made, and
    all of it before the vertices' name walk starts.  Partition names
    are digits and commas, so nothing needs escaping.
    """
    if faces:
        rows, _ = hull_pool(kind, n, "vertices", "faces")
    walk = name_walk(kind, n)  # sized here, before any text
    yield "{\n"
    if faces:
        yield ' "faces": ['
        yield from _face_chunks(n, rows)
        yield _SHUT + "\n ],\n"
    yield f' "n": {n},\n "space": "{kind}",\n "vertices": {{'
    numeral = _Numerals().__getitem__
    sep = "\n"
    for _, name, f, _ in walk:
        vals = ",\n   ".join(map(numeral, f))
        yield f'{sep}  "{name}": [\n   {vals}\n  ]'
        sep = ",\n"
    yield "\n }\n}"


def dot_chunks(kind: str, n: int) -> Iterator[str]:
    """The DOT export of the 1-skeleton, one piece per line: node n<i>, the
    vertex at index i in name order, then the edges (a, b), a < b, to
    one_box_less of each vertex, sorted.  An odd C_N, N >= 3, has roles:
    "extra" off its N maximal cubes, else "cube-member", read by
    hull.Faces.max_cubes, checks and all, off the corner rows of the one
    name walk, held per vertex with its node text and index."""
    hull_pool(kind, n, "vertices", "edges")
    numeral = _Numerals().__getitem__
    nodes, index, rows = [], {}, {}
    for i, (lam, name, f, corners) in enumerate(name_walk(kind, n)):
        nodes.append(f'  n{i} [label="{name}", values="{" ".join(map(numeral, f))}"')
        index[lam] = i
        rows[lam] = corners
    extra, tail = frozenset(), "];\n"
    if kind == "cycle" and n % 2 and n >= 3:
        from .hull import Faces  # only the odd cycle's roles need it

        extra = frozenset(Faces(rows).max_cubes(n)[1])
        tail = ', role="cube-member"];\n'
    yield "graph hull {\n"
    for text, lam in zip(nodes, rows):
        yield text + (', role="extra"];\n' if lam in extra else tail)
    del nodes
    edges = []
    for lam, corners in rows.items():
        b = index[lam]
        for a in map(index.__getitem__, one_box_less(lam, corners)):
            edges.append((a, b) if a < b else (b, a))
    edges.sort()
    for a, b in edges:
        yield f"  n{a} -- n{b};\n"
    yield "}\n"
