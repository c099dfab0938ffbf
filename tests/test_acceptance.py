"""Acceptance checks, one test per criterion, all exact.

Every assertion is an integer or set equality; there are no tolerances
anywhere.  Each test prints a single PASS line naming what it certified.
"""

import random
import time
from fractions import Fraction
from math import comb

from cyclehull.census import (
    count_band,
    face_count,
    face_polynomial,
    sequences,
    TPoly,
)
from cyclehull.hull import (
    build_hull,
    max_cube_decomposition,
)
from cyclehull.moebius import (
    double_embed,
    enumerate_band_partitions,
    enumerate_circ,
    fold,
    fold_fibre,
    fold_fibre_size,
)
from cyclehull.oracle import (
    FiniteMetric,
    tight_span_edges,
    tight_span_vertices,
)
from cyclehull.partitions import enumerate_YN
from cyclehull.spaces import (
    cycle_distance,
    model_matrix,
    tau,
    tau_orbit,
    tau_orbits,
    xn_distance,
    young_distance,
)
from reference import (
    ONE,
    T,
    ZERO,
    Poly,
    canon_site,
    circcirc_count,
    enumerate_circcirc,
    generating_series_check,
    in_band,
    matrix_A,
    matrix_S,
    matrix_Z,
)


def test_01_cardinality_of_YN_is_two_to_N_minus_one():
    for n in range(1, 13):
        assert len(enumerate_YN(n)) == 2 ** (n - 1)
        assert len(set(enumerate_YN(n))) == 2 ** (n - 1)
    print("PASS criterion 1: |Y_N| = 2^(N-1) for N <= 12")


def test_02_tau_is_an_isometry_of_order_N():
    for n in range(1, 10):
        elems = enumerate_YN(n)
        shifted = {lam: tau(lam, n) for lam in elems}
        for lam in elems:
            cur = lam
            for _ in range(n):
                cur = shifted[cur]
            assert cur == lam
        for a in elems:
            for b in elems:
                assert young_distance(shifted[a], shifted[b]) == \
                    young_distance(a, b)
    print("PASS criterion 2: tau isometry and tau^N = id, exhaustive N <= 9")


def test_03_vertex_counts_are_lucas_numbers():
    want = {3: 4, 5: 11, 7: 29, 9: 76, 11: 199, 13: 521}
    for n, l_n in want.items():
        assert len(enumerate_circ(n)) == l_n
        assert count_band(n, 1) == l_n
        lucas, _, _ = sequences(n)
        assert lucas == l_n
        _, f_prev, _ = sequences(n - 1)
        _, f_next, _ = sequences(n + 1)
        assert f_prev + f_next == l_n
    print("PASS criterion 3: |Y_N°| = L_N three ways, odd N <= 13")


def test_04_face_census_of_odd_cycle_hulls():
    for n in (3, 5, 7, 9, 11, 13):
        k = n // 2
        hull = build_hull("cycle", n)
        fv = hull.f_vector()
        poly = face_polynomial(n)
        assert fv == poly.coeffs
        for v, c in enumerate(fv):
            assert face_count(n, v) == c
            direct = sum(
                n * comb(n - s, s) * comb(s, v) // (n - s)
                for s in range(v, k + 1)
            )
            assert c == direct
        assert sum(fv) == 2 ** n - 1
        assert sum((-1) ** v * c for v, c in enumerate(fv)) == 1
    print("PASS criterion 4: f-vectors match both closed forms, odd N <= 13")


def test_05_oracle_agrees_with_construction():
    def fr(vals):
        return tuple(Fraction(x) for x in vals)

    t0 = time.time()
    for kind, n in (
        ("cycle", 3), ("cycle", 5), ("cycle", 7),
        ("xn", 3), ("xn", 4), ("xn", 5), ("xn", 6),
        ("cycle", 9), ("xn", 8), ("cycle", 11), ("xn", 9),
    ):
        metric = FiniteMetric.from_rows(model_matrix(kind, n))
        verts = tight_span_vertices(metric)
        hull = build_hull(kind, n)
        assert verts == {fr(v) for v in hull.vertices.values()}
        edges = {
            (min(u, v), max(u, v))
            for u, v in tight_span_edges(verts, metric)
        }
        want = {
            tuple(sorted((fr(hull.vertices[a]), fr(hull.vertices[b]))))
            for a, b in hull.edges()
        }
        assert edges == want
    elapsed = time.time() - t0
    assert elapsed < 120.0
    print(
        "PASS criterion 5: oracle = construction on C_3,C_5,C_7,C_9,C_11,"
        "X_3..X_6,X_8,X_9 "
        f"({elapsed:.1f}s)"
    )


def test_06_fold_is_idempotent_equivariant_non_expanding():
    for n in range(1, 10):
        folded = {lam: fold(lam, n) for lam in enumerate_YN(n)}
        for lam, out in folded.items():
            assert folded[out] == out
            assert fold(tau(lam, n), n) == tau(out, n)
        elems = enumerate_YN(n)
        for a in elems:
            for b in elems:
                assert young_distance(folded[a], folded[b]) <= \
                    young_distance(a, b)
    rng = random.Random(20260816)
    for n in (11, 13):
        elems = enumerate_YN(n)
        folded = {lam: fold(lam, n) for lam in elems}
        for _ in range(10 ** 5):
            a, b = rng.choice(elems), rng.choice(elems)
            assert young_distance(folded[a], folded[b]) <= \
                young_distance(a, b)
    big = (11, 9, 7, 7, 7, 6, 6, 6, 6, 6, 6, 3)
    assert fold(big, 23) == (11, 9, 8, 7, 7, 6, 6, 5, 4, 3, 2, 1)
    print(
        "PASS criterion 6: fold idempotent, equivariant, non-expanding "
        "(exhaustive N<=9, 2x10^5 random pairs N in {11,13}, N=23 shape)"
    )


def test_07_fibre_sizes_are_catalan_products():
    for n in (5, 7, 9, 11):
        total = 0
        for lam in enumerate_circ(n):
            members = fold_fibre(lam, n)
            assert len(members) == fold_fibre_size(lam, n)
            total += len(members)
        assert total == 2 ** (n - 1)
    sizes = sorted(fold_fibre_size(lam, 11) for lam in enumerate_circ(11))
    for v in (1, 2, 4, 5, 14, 42):
        assert v in sizes
    examples = {
        (5, 5, 4, 3, 2, 1): 42,
        (5, 4, 4, 3, 2, 1): 14,
        (5, 4, 3, 3, 2, 1): 5,
        (5, 5, 4, 2, 2, 1): 4,
        (5, 4, 3, 2, 2, 1): 2,
        (5, 4, 3, 2, 1, 1): 1,
    }
    for lam, want in examples.items():
        assert fold_fibre_size(lam, 11) == want
    orbits = sum(1 for _ in tau_orbits(dict.fromkeys(enumerate_circ(11)), 11))
    assert orbits == 19
    print("PASS criterion 7: Catalan fibres, sum 2^(N-1), 19 orbits at N=11")


def test_08_maximal_cube_decomposition():
    extras_want = {
        5: set(),
        7: set(),
        9: {(3, 3, 3), (5, 2, 2, 2), (4, 4, 1, 1, 1)},
    }
    for n in (5, 7, 9, 11):
        k = n // 2
        cubes, extras = max_cube_decomposition(n)
        incident = frozenset().union(*(c.members() for c in cubes))
        assert len(incident) == 1 + n * 2 ** (k - 1)
        assert len(cubes) == n
        for cube in cubes:
            assert cube.dim == k
        if n in extras_want:
            assert set(extras) == extras_want[n]
    cubes11, extras11 = max_cube_decomposition(11)
    assert len(extras11) == 22
    incident11 = frozenset().union(*(c.members() for c in cubes11))
    assert len(incident11) == 177
    print("PASS criterion 8: N maximal k-cubes cover 1+N*2^(k-1) vertices")


def test_09_doubly_folded_counts():
    want = [1, 4, 6, 15, 31, 67, 144, 309, 664, 1426]
    for k in range(10):
        assert circcirc_count(k) == want[k]
    for k in range(6):
        assert len(enumerate_circcirc(2 * k + 1)) == want[k]
    for n in (3, 5, 7, 9):
        m = 2 * n
        got = set(enumerate_circcirc(m))
        first = tuple(x for p in range(n - 1, 0, -2) for x in (p, p))
        second = (n,) + tuple(x for p in range(n - 2, 0, -2) for x in (p, p))
        assert got == {first, second}
        assert tau(first, m) == second
        assert tau(second, m) == first
    for n in (2, 4, 6, 8):
        assert enumerate_circcirc(2 * n) == ()
    print("PASS criterion 9: Y°° counts, exact doubled sets, tau swap")


def test_10_band_counts_match_enumeration():
    for n in range(2, 14):
        for m in range(1, n // 2 + 1):
            assert count_band(n, m) == len(enumerate_band_partitions(n, m))
    for n in (3, 5, 7, 9, 11, 13):
        assert count_band(n, 1) == sequences(n)[0]
    for n in range(2, 14):
        assert count_band(n, n // 2) == 2 ** (n - 1)
    print("PASS criterion 10: band census, trace = enumeration, N <= 13")


def test_11_even_cycle_hull_is_a_cube():
    # every vertex function of E(C_2k) is a cyclic walk with unit steps
    # and antipodal symmetry, so its first k ascent bits are exact cube
    # coordinates; no isomorphism search involved
    for k in range(1, 6):
        n = 2 * k
        hull = build_hull("cycle", n)
        assert len(hull.vertices) == 2 ** k
        coord = {}
        for lam, f in hull.vertices.items():
            assert all(f[i] + f[i + k] == k for i in range(k))
            steps = [f[(j + 1) % n] - f[j] for j in range(n)]
            assert all(abs(s) == 1 for s in steps)
            assert all(steps[j + k] == -steps[j] for j in range(k))
            coord[lam] = tuple(1 if s > 0 else 0 for s in steps[:k])
        assert len(set(coord.values())) == 2 ** k
        edges = hull.edges()
        assert len(edges) == k * 2 ** (k - 1)
        for a, b in edges:
            assert sum(
                x != y for x, y in zip(coord[a], coord[b])
            ) == 1
        assert face_polynomial(n) == (Poly.const(2) + T) ** k
        assert hull.f_vector() == ((Poly.const(2) + T) ** k).coeffs
    print("PASS criterion 11: E(C_2k) is the k-cube by coordinates, k <= 5")


def _an_bn(n):
    # S^n = a_n S + b_n (S^2 - (1+t) S) for n >= 1: a_n has coefficients
    # C(2(n-1)-j, j), b_n the shifted C(2(n-1)-1-j, j)
    if n == 1:
        return ONE, ZERO
    top = 2 * (n - 1)
    return tuple(
        TPoly(comb(b - j, j) for j in range(b // 2 + 1))
        for b in (top, top - 1)
    )


def test_12_transfer_matrix_identities():
    s = matrix_S()
    corr = s * s - s.scale(ONE + T)
    for n in range(1, 13):
        a_n, b_n = _an_bn(n)
        assert s.power(n) == s.scale(a_n) + corr.scale(b_n)
        a_next, b_next = _an_bn(n + 1)
        assert a_next == (ONE + T) * a_n + T * b_n
        assert b_next == a_n + T * b_n
    assert matrix_Z() * matrix_A() == s * s - s.scale(T)
    for k in range(2, 31):
        for sv in range(2, k + 1):
            lhs = comb(2 * (k + 1) - sv, sv) - comb(2 * (k - 1) - (sv - 2),
                                                    sv - 2)
            rhs = comb(2 * k - sv, sv - 1) + comb(2 * k + 1 - sv, sv)
            assert lhs == rhs
    for p in (3, 5, 7, 11, 13, 17, 19, 23):
        assert sequences(p)[0] % p == 1
    assert generating_series_check(20)
    print("PASS criterion 12: power split, Pascal identity, Lucas congruence")


def test_13_distance_shift_on_the_central_band():
    for n in (3, 5, 7, 9, 11, 13):
        k = n // 2
        shift = k * k - k
        checked = 0
        for i in range(n):
            for j in range(i, n):
                if not in_band((i, j), n, 1):
                    continue
                assert canon_site(i, j, n) == (i, j)
                assert xn_distance(i, j, n) == \
                    cycle_distance(i, j, n) + shift
                checked += 1
        assert checked > 0
    print("PASS criterion 13: d_X = d_C + k^2 - k on band sites, odd N <= 13")


def test_14_doubling_embeds_circ_into_doubled_circ():
    for n in (5, 7):
        circ = enumerate_circ(n)
        image = {}
        for lam in circ:
            image[lam] = double_embed(lam, n)
            assert image[lam] in set(enumerate_circ(2 * n))
        assert len(set(image.values())) == len(circ)
        for lam in circ:
            lhs = double_embed(tau(lam, n), n)
            rhs = tau(tau(image[lam], 2 * n), 2 * n)
            assert lhs == rhs
    img5 = {double_embed(lam, 5) for lam in enumerate_circ(5)}
    shifted = {tau(x, 10) for x in img5}
    assert not (img5 & shifted)
    rest = set(enumerate_circ(10)) - img5 - shifted
    assert len(rest) == 2 ** 5 - 2 * 11
    orbit = set(tau_orbit((5, 4, 2, 2, 1), 10))
    assert rest == orbit
    print("PASS criterion 14: doubling injective, equivariant, 10-orbit rest")
