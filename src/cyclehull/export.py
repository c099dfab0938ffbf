"""The hull exports, printed from walks over the pool's row ranges.

hullwalk.name_walk yields each vertex of a hull with its name, its
function j -> d(lam, R_j) - o and its corner rows, in name order, the
order every export prints.  The vertices stream with nothing held per
vertex.  The JSON faces keep their tuple order: one corner_walk lists
the tops, and one (name, corner rows) pair per vertex is held for them.
DOT holds what its edges and roles need of its one name walk.

A vertex whose tau image is outside the pool (OrbitLeavesPool) stops a
streamed export part way, and DOT before it prints.  Every export
command loads this module; hull.to_json and hull.to_dot import it.
"""

from __future__ import annotations

from itertools import combinations
from typing import Iterator

from .hullwalk import hull_pool, name_walk
from .partitions import corner_walk, one_box_less


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
    for _, name, f, _ in name_walk(kind, n):
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
