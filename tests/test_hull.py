import json
import re

from collections import Counter
from itertools import combinations

import pytest
from hypothesis import given
import hypothesis.strategies as st

from cyclehull.census import BadParity
from cyclehull.hull import (
    CubeCoverFailure,
    Face,
    Faces,
    build_hull,
    f_vertex,
    g_vertex,
    max_cube_decomposition,
    retract_face,
    skeleton,
    to_dot,
    to_json,
)
from cyclehull.export import dot_chunks, json_chunks, vertex_lines
from cyclehull.moebius import enumerate_circ, fold, outer_rim
from cyclehull.oracle import FiniteMetric, _bipartite_components
from cyclehull import (
    export as export_module,
    hull as hull_module,
    hullwalk as hullwalk_module,
    partitions as partitions_module,
)
from cyclehull.hullwalk import doubled_hull, hull_pool
from cyclehull.partitions import (
    OrbitLeavesPool,
    alpha,
    corners,
    cycle_distance,
    enumerate_YN,
    format_partition,
    make_partition,
    rectangular,
    rim_walk,
    tau,
    tau_orbit,
    xn_distance,
    young_distance,
)
from reference import delta, dot_text, shifted_cubes

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


def test_vertices_are_distances_to_the_model_points():
    # the tight-span statement, with no tau: f(lam)_j = d(lam, R_j) and
    # g(lam)_j = d(lam, alpha_(-j)), distances in the Young lattice
    for n in range(1, 12):
        for lam in enumerate_YN(n):
            assert f_vertex(lam, n) == tuple(
                young_distance(lam, rectangular(j, n)) for j in range(n)
            ), (n, lam)
    for n in range(1, 14):
        for lam in enumerate_circ(n):
            assert g_vertex(lam, n) == tuple(
                young_distance(lam, alpha(-j % n, n)) for j in range(n)
            ), (n, lam)


def test_row_sum_vertex_functions_equal_the_orbit_ones():
    # build_hull sums one N-tuple per row along the name walk; f_vertex
    # and g_vertex walk every vertex's tau orbit on their own
    short = 0
    for n in range(1, 13):
        pool = enumerate_YN(n)
        hull = build_hull("xn", n)
        assert hull.vertices == {lam: f_vertex(lam, n) for lam in pool}
    for n in range(1, 16):
        hull = build_hull("cycle", n)
        pool = enumerate_circ(n)
        assert hull.vertices == {lam: g_vertex(lam, n) for lam in pool}
        short += sum(len(set(tau_orbit(lam, n))) < n for lam in pool)
    assert short > 0  # orbits of period p < N, listed N/p times
    assert tau((2, 1), 5) == (2, 1)
    assert build_hull("cycle", 5).vertices[(2, 1)] == (2, 2, 2, 2, 2)
    assert build_hull("xn", 5).vertices[(2, 1)] == (3, 3, 3, 3, 3)


def test_streamed_walk_keeps_the_orbit_check(monkeypatch):
    # the exports check tau lam against the pool's rows at each vertex of
    # the name walk: Y_7 without width 6 loses only tau () = (6,), Y_7
    # without (5, 5) in row 2 loses tau (6,) = (5, 5); build_hull reads
    # the same name walk and refuses both pools too.  The walk reads its
    # pool from hullwalk.hull_pool
    rows, _ = hull_pool("xn", 7)
    for pool, leaver in (
        ((range(0, 6), *rows[1:]), ()),
        ((rows[0], range(0, 5), *rows[2:]), (6,)),
    ):
        members = rim_walk(7, pool)
        assert [lam for lam in members if tau(lam, 7) not in members] == [leaver]
        monkeypatch.setattr(
            hullwalk_module, "hull_pool", lambda kind, n: (pool, 0)
        )
        message = re.escape(f"orbit of {leaver or '()'} reaches {tau(leaver, 7)}")
        for export in (
            lambda: list(vertex_lines("xn", 7)),
            lambda: list(json_chunks("xn", 7, faces=False)),
            lambda: list(json_chunks("xn", 7)),
        ):
            with pytest.raises(OrbitLeavesPool, match=message):
                export()
        with pytest.raises(OrbitLeavesPool):
            build_hull("xn", 7)


def test_face_members():
    face = Face((3, 2, 1), frozenset({1, 3}))
    assert face.dim == 2
    assert face.bottom == (2, 2)
    got = face.members()
    assert got == {(3, 2, 1), (2, 2, 1), (3, 2), (2, 2)}


def test_value_types_are_immutable():
    values = (
        (FiniteMetric.from_rows([[0, 3], [3, 0]]), "d"),
        (Face((3, 2, 1), frozenset({1, 3})), "top"),
        (outer_rim((2, 1), 5), "sites"),
    )
    for value, field in values:
        for name in (field, "extra"):
            with pytest.raises(AttributeError):
                setattr(value, name, ())


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
    for n in range(1, 10):
        for face in build_hull("xn", n).faces:
            image = retract_face(face, n)
            want = {fold(m, n) for m in face.members()}
            assert image.members() == want, (n, face)


def test_retract_face_box_example():
    face = Face((2, 2, 2, 2), frozenset({4}))
    image = retract_face(face, 7)
    assert image.top == fold((2, 2, 2, 2), 7)
    assert image.removed == frozenset()


def test_skeleton_and_dot():
    # the 1-skeleton is the hull's own vertices and edges(); to_dot prints
    # the DOT export of its kind and N, the one that the command prints
    hull = build_hull("cycle", 5)
    assert skeleton(hull) is hull
    assert (len(hull.vertices), len(hull.edges())) == (11, 15)
    dot = to_dot(hull)
    assert dot == "".join(dot_chunks("cycle", 5)) == dot_text(hull)
    lines = dot.splitlines()
    declared = [line.split()[0] for line in lines if "[" in line]
    assert declared == [f"n{i}" for i in range(11)]
    edges = [line.strip().rstrip(";").split(" -- ") for line in lines if " -- " in line]
    assert len(edges) == 15
    for a, b in edges:
        assert a in declared and b in declared
    assert dot == to_dot(hull)


def test_dot_roles():
    dot = "".join(dot_chunks("cycle", 5))
    assert (dot.count('role="cube-member"'), dot.count("role=")) == (11, 11)
    # C_9: L_9 = 76 vertices, 1 + 9 * 2^3 = 73 of them on the cubes
    dot = "".join(dot_chunks("cycle", 9))
    assert (dot.count('role="cube-member"'), dot.count('role="extra"')) == (73, 3)
    for kind, n in (("cycle", 1), ("cycle", 2), ("cycle", 6), ("xn", 5)):
        assert "role=" not in "".join(dot_chunks(kind, n)), (kind, n)


def test_dot_export_is_the_built_hulls():
    # node ids in hull.names order, values, cube roles from
    # max_cube_decomposition and edges() as sorted id pairs, built apart;
    # xn 11 to 13 and cycle 13 to 17 print two-digit parts and values
    for kind, top in (("cycle", 17), ("xn", 13)):
        for n in range(1, top + 1):
            assert "".join(dot_chunks(kind, n)) == dot_text(build_hull(kind, n)), (kind, n)


def test_names_list_every_vertex_once_in_name_order():
    for kind, top in (("cycle", 13), ("xn", 12)):
        for n in range(1, top + 1):
            hull = build_hull(kind, n)
            assert list(hull.names.items()) == sorted(
                ((lam, format_partition(lam)) for lam in hull.vertices),
                key=lambda pair: pair[1],
            ), (kind, n)
            assert list(hull.names) == list(hull.vertices), (kind, n)
            labels = re.findall(r'label="([^"]*)"', to_dot(hull))
            assert labels == list(hull.names.values()), (kind, n)


def test_exports_name_each_vertex_once(monkeypatch):
    # build_hull keeps the vertices, names and corner rows of one name
    # walk and makes no corner_walk; the DOT export, cube roles and all,
    # and the vertices and JSON exports name by one name walk, the JSON
    # faces by one corner_walk; none calls format_partition
    def built(h):
        b = build_hull(h.kind, h.n)
        return b.vertices, b.names, b.faces.corner_rows

    hull = build_hull("cycle", 11)
    exports = (
        ("build_hull", built, {"name_walk": 1}),
        ("to_dot", to_dot, {"name_walk": 1}),
        ("to_json", to_json, {"name_walk": 1, "corner_walk": 1}),
        ("vertices json", lambda h: "".join(json_chunks(h.kind, h.n, faces=False)),
         {"name_walk": 1}),
        ("vertex_lines", lambda h: "".join(vertex_lines(h.kind, h.n)),
         {"name_walk": 1}),
    )
    wants = [export(hull) for _, export, _ in exports]
    calls = Counter()

    def counting(label, call):
        def counted(*args):
            calls[label] += 1
            return call(*args)
        return counted

    for home, name in (
        (hullwalk_module, "name_walk"),
        (partitions_module, "corner_walk"),
        (partitions_module, "format_partition"),
    ):
        counted = counting(name, getattr(home, name))
        for module in (partitions_module, hullwalk_module, export_module, hull_module):
            monkeypatch.setattr(module, name, counted, raising=False)
    for (label, export, want_calls), want in zip(exports, wants):
        calls.clear()
        assert export(hull) == want, label
        assert calls == want_calls, label


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
        adj = [0] * n
        loops = 0
        for i, j in sites:
            if i == j:
                loops |= 1 << i
            else:
                adj[i] |= 1 << j
                adj[j] |= 1 << i
        assert _bipartite_components(adj, loops=loops) == 0
        f = f_vertex(lam, n)
        g = g_vertex(fold(lam, n), n)
        for i, j in sites:
            assert f[i] + f[j] == xn_distance(i, j, n)
            assert g[i] + g[j] == cycle_distance(i, j, n)


def conjugate(lam):
    """The transposed diagram: its j-th part counts the parts above j."""
    return tuple(sum(p > j for p in lam) for j in range(lam[0] if lam else 0))


def test_conjugation_reflects_both_hulls():
    # lam -> lam' maps each pool onto itself, keeps the corner rows'
    # count and reverses the vertex function: the reflection j -> -j of
    # the dihedral isometry group, beside the rotation tau
    for kind, top in (("cycle", 15), ("xn", 13)):
        for n in range(1, top + 1):
            hull = build_hull(kind, n)
            rows = hull.faces.corner_rows
            for lam, f in hull.vertices.items():
                mu = conjugate(lam)
                assert mu in hull.vertices, (kind, n, lam)
                assert len(rows[mu]) == len(rows[lam]), (kind, n, lam)
                g = hull.vertices[mu]
                assert all(g[j] == f[-j % n] for j in range(n)), (kind, n, lam)


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
    # C_11, C_12 and X_9 reuse face templates across many tops and
    # cross several dimensions, where the templates are dropped; in C_13
    # and X_11 one removed-row subset's text serves many corner-row
    # patterns in its dimension
    cases = [("cycle", n) for n in (*range(1, 14), 16)]
    cases += [("xn", n) for n in range(1, 12)]
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


def test_doubled_hull_is_the_built_hull_doubled():
    # oracle --compare reads the hull walk, not build_hull: the same
    # vertices and the same edges, each value doubled
    for kind, top in (("cycle", 13), ("xn", 10)):
        for n in range(1, top + 1):
            hull = build_hull(kind, n)
            twice = {lam: tuple(2 * x for x in f) for lam, f in hull.vertices.items()}
            verts, edges = doubled_hull(kind, n)
            assert verts == set(twice.values()), (kind, n)
            assert edges == {
                tuple(sorted((twice[a], twice[b]))) for a, b in hull.edges()
            }, (kind, n)


def test_max_cube_decomposition_rejects_even_and_small_n():
    for n in (1, 2, 4):
        with pytest.raises(BadParity):
            max_cube_decomposition(n)


def test_max_cube_decomposition_matches_the_shifted_base_cube():
    # the corner-row reading against the shift-by-shift construction
    for n in range(3, 18, 2):
        cubes, extras = max_cube_decomposition(n)
        want_cubes, want_extras = shifted_cubes(n)
        assert set(cubes) == set(want_cubes), n
        assert len(cubes) == n
        assert extras == want_extras, n


def test_max_cube_decomposition_checks_its_tops():
    # corner rows that lose one top with k corner rows leave N - 1 cubes
    rows = dict(build_hull("cycle", 9).faces.corner_rows)
    del rows[next(lam for lam, r in rows.items() if len(r) == 9 // 2)]
    with pytest.raises(CubeCoverFailure):
        Faces(rows).max_cubes(9)


def test_max_cubes_are_sorted_whichever_walk_built_the_faces():
    # build_hull's faces come from the name walk, max_cube_decomposition's
    # from corner_walk, and from N = 19 the two walks list vertices in
    # different orders
    cubes, extras = build_hull("cycle", 19).faces.max_cubes(19)
    assert (cubes, extras) == max_cube_decomposition(19)
    assert [c.top for c in cubes] == sorted(c.top for c in cubes)
    assert list(extras) == sorted(extras)
