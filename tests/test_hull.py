import json

from itertools import combinations

import pytest
from hypothesis import given
import hypothesis.strategies as st

from cyclehull.census import BadParity
from cyclehull.hull import (
    Face,
    build_hull,
    f_vertex,
    g_vertex,
    max_cube_decomposition,
    retract_face,
    skeleton,
    to_dot,
    to_json,
)
from cyclehull.moebius import delta, enumerate_circ, fold, outer_rim
from cyclehull.oracle import _bipartite_components
from cyclehull.partitions import (
    corners,
    cycle_distance,
    enumerate_YN,
    format_partition,
    make_partition,
    xn_distance,
    young_distance,
)

Y7 = enumerate_YN(7)


def test_f_vertex_values():
    assert f_vertex((), 5) == (0, 4, 6, 6, 4)
    assert f_vertex((2, 1), 5) == (3, 3, 3, 3, 3)


def test_g_vertex_is_shifted_f():
    o = 2 * 1 // 2  # k = 2 for N = 5
    for lam in enumerate_circ(5):
        f = f_vertex(lam, 5)
        assert g_vertex(lam, 5) == tuple(x - o for x in f)
    assert g_vertex((2, 1), 5) == (2, 2, 2, 2, 2)


@given(st.sampled_from(Y7), st.sampled_from(Y7))
def test_f_vertex_is_short_and_injective(a, b):
    fa, fb = f_vertex(a, 7), f_vertex(b, 7)
    sup = max(abs(x - y) for x, y in zip(fa, fb))
    assert sup <= young_distance(a, b)
    if a != b:
        assert fa != fb
    if young_distance(a, b) == 1:
        assert sup == 1


def test_f_vertex_rows_realize_the_model_metric():
    from cyclehull.partitions import rectangular

    n = 7
    for i in range(n):
        for j in range(n):
            fi = f_vertex(rectangular(i, n), n)
            fj = f_vertex(rectangular(j, n), n)
            sup = max(abs(x - y) for x, y in zip(fi, fj))
            assert sup == xn_distance(i, j, n)


def test_face_members():
    face = Face((3, 2, 1), frozenset({1, 3}))
    assert face.dim == 2
    assert face.bottom == (2, 2)
    got = face.members()
    assert got == {(3, 2, 1), (2, 2, 1), (3, 2), (2, 2)}


def test_build_hull_cycle5():
    hull = build_hull("cycle", 5)
    assert hull.f_vector() == (11, 15, 5)
    assert len(hull.edges()) == 15


def test_build_hull_euler_characteristic():
    for kind, n in (("cycle", 7), ("cycle", 6), ("xn", 5), ("xn", 6)):
        fv = build_hull(kind, n).f_vector()
        assert sum((-1) ** v * c for v, c in enumerate(fv)) == 1


def test_xn_hull_shape():
    hull = build_hull("xn", 5)
    fv = hull.f_vector()
    assert fv[0] == 16
    assert fv[1] == sum(len(corners(lam, 5).inner) for lam in enumerate_YN(5))


def test_retract_face_collapses_consistently():
    n = 7
    hull = build_hull("xn", n)
    for face in hull.faces:
        image = retract_face(face, n)
        want = {fold(m, n) for m in face.members()}
        assert image.members() == want, face


def test_retract_face_box_example():
    face = Face((2, 2, 2, 2), frozenset({4}))
    image = retract_face(face, 7)
    assert image.top == fold((2, 2, 2, 2), 7)
    assert image.removed == frozenset()


def test_skeleton_and_dot():
    hull = build_hull("cycle", 5)
    graph = skeleton(hull)
    assert len(graph.nodes) == 11
    assert len(graph.edges) == 15
    dot = to_dot(graph)
    declared = {
        line.split()[0]
        for line in dot.splitlines()
        if line.strip().startswith("n") and "[" in line
    }
    for line in dot.splitlines():
        if " -- " in line:
            a, _, b = line.strip().rstrip(";").partition(" -- ")
            assert a in declared and b in declared
    assert dot == to_dot(graph)


def test_dot_roles():
    hull = build_hull("cycle", 5)
    graph = skeleton(hull)
    roles = {name: "cube-member" for name in graph.nodes}
    dot = to_dot(graph, roles)
    assert dot.count('role="cube-member"') == 11


def test_to_json_round_trip():
    hull = build_hull("cycle", 5)
    doc = json.loads(to_json(hull))
    assert doc["space"] == "cycle"
    assert doc["n"] == 5
    assert len(doc["vertices"]) == 11
    assert len(doc["faces"]) == 31
    for name, vals in doc["vertices"].items():
        assert len(vals) == 5
    names = [f["top"] for f in doc["faces"] if not f["removed"]]
    assert sorted(names) == sorted(doc["vertices"])


def test_max_cube_decomposition_small():
    cubes, extras = max_cube_decomposition(5)
    assert len(cubes) == 5
    assert extras == ()
    for cube in cubes:
        assert cube.dim == 2
    cubes9, extras9 = max_cube_decomposition(9)
    assert set(extras9) == {(3, 3, 3), (5, 2, 2, 2), (4, 4, 1, 1, 1)}


def test_rim_vertex_solution_matches_constructions():
    # one equation f_i + f_j = d(i, j) per rim site: the vertex functions
    # solve it, and the system is regular (no free parameter is left by
    # its graph, a site i = j reading f_i = 0), so they are its solution
    n = 7
    for lam in Y7:
        sites = [(i % n, j % n) for i, j in outer_rim(lam, n).sites]
        assert len(sites) == n
        adj = [[] for _ in range(n)]
        loops = set()
        for i, j in sites:
            if i == j:
                loops.add(i)
            else:
                adj[i].append(j)
                adj[j].append(i)
        assert _bipartite_components(adj, loops=loops) == 0
        f = f_vertex(lam, n)
        g = g_vertex(fold(lam, n), n)
        for i, j in sites:
            assert f[i] + f[j] == xn_distance(i, j, n)
            assert g[i] + g[j] == cycle_distance(i, j, n)


def _reference_corner_rows(kind, lam, n):
    # inner corners, kept for C_N when the smaller rim stays in the band
    rows = sorted(corners(lam, n).inner)
    if kind == "xn" or n < 2:
        return rows
    k = n // 2
    keep = []
    for r in rows:
        mu = make_partition([p - (i == r - 1) for i, p in enumerate(lam)])
        ds = [delta(s) for s in outer_rim(mu, n).sites]
        if k - 1 <= min(ds) and max(ds) <= n - k + 1:
            keep.append(r)
    return keep


def _reference_doc(kind, n):
    # the export as it was built from a materialized, sorted face list
    pool = enumerate_YN(n) if kind == "xn" else enumerate_circ(n)
    vertex = f_vertex if kind == "xn" else g_vertex
    faces = []
    for lam in pool:
        rows = _reference_corner_rows(kind, lam, n)
        for t in range(len(rows) + 1):
            faces.extend((t, lam, sub) for sub in combinations(rows, t))
    faces.sort()
    return {
        "space": kind,
        "n": n,
        "vertices": {format_partition(lam): list(vertex(lam, n)) for lam in pool},
        "faces": [
            {"top": format_partition(lam), "removed": list(sub)}
            for _, lam, sub in faces
        ],
    }


def test_to_json_equals_dumps_of_the_face_list():
    cases = [("cycle", n) for n in (*range(1, 10), 16)]
    cases += [("xn", n) for n in range(1, 8)]
    for kind, n in cases:
        want = json.dumps(_reference_doc(kind, n), sort_keys=True, indent=1)
        assert to_json(build_hull(kind, n)) == want, (kind, n)


def test_implicit_faces_match_materialized_faces():
    for kind, n in (("cycle", 7), ("cycle", 8), ("cycle", 9), ("xn", 6)):
        hull = build_hull(kind, n)
        faces = list(hull.faces)
        assert len(hull.faces) == len(faces)
        assert faces == sorted(faces, key=Face.sort_key)
        fv = [0] * (max(f.dim for f in faces) + 1)
        for f in faces:
            fv[f.dim] += 1
        assert hull.f_vector() == tuple(fv)
        edges = sorted(
            tuple(sorted((f.top, f.bottom))) for f in faces if f.dim == 1
        )
        assert hull.edges() == tuple(edges)


def test_max_cube_decomposition_rejects_even_and_small_n():
    for n in (1, 2, 4):
        with pytest.raises(BadParity):
            max_cube_decomposition(n)
