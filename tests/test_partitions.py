import importlib
import os
import random
import subprocess
import sys
from operator import contains
from pathlib import Path

import pytest
from hypothesis import given
import hypothesis.strategies as st

import cyclehull
from cyclehull.hullwalk import hull_pool, name_walk
from cyclehull.partitions import (
    Corners,
    IndexOutOfRange,
    NotInYN,
    NotWeaklyDecreasing,
    alpha,
    band_limits,
    band_rows,
    circ_rows,
    corner_walk,
    corners,
    cycle_distance,
    enumerate_YN,
    format_partition,
    in_YN,
    make_partition,
    max_hook,
    model_matrix,
    parse_partition,
    rectangular,
    removable_rows,
    rim_walk,
    row_count,
    tau,
    tau_orbit,
    tau_orbits,
    OrbitLeavesPool,
    xn_distance,
    young_distance,
)
from cyclehull.moebius import (
    _fibre_rows,
    enumerate_circ,
    fold_fibre,
    fold_fibre_size,
)

Y9 = enumerate_YN(9)
pairs9 = st.tuples(st.sampled_from(Y9), st.sampled_from(Y9))


def test_make_partition_strips_zeros():
    assert make_partition([3, 2, 0, 0]) == (3, 2)
    assert make_partition([]) == ()


def test_make_partition_rejects_increasing():
    with pytest.raises(NotWeaklyDecreasing):
        make_partition([1, 2])


def test_format_parse_round_trip():
    for lam in Y9:
        assert parse_partition(format_partition(lam)) == lam
    assert format_partition(()) == ""
    assert parse_partition("5,4,2,1") == (5, 4, 2, 1)


def test_enumerate_sizes():
    for n in range(1, 10):
        assert len(enumerate_YN(n)) == 2 ** (n - 1)


def test_in_YN_is_max_hook_bound():
    for lam in Y9:
        assert max_hook(lam) < 9
        assert in_YN(lam, 9)
    assert not in_YN((9,), 9)
    assert not in_YN((1,) * 9, 9)


def test_enumerate_is_sorted_and_distinct():
    assert list(Y9) == sorted(set(Y9))


@given(pairs9)
def test_young_distance_is_a_metric(pair):
    a, b = pair
    d = young_distance(a, b)
    assert d >= 0
    assert (d == 0) == (a == b)
    assert d == young_distance(b, a)


@given(pairs9, st.sampled_from(Y9))
def test_young_distance_triangle(pair, c):
    a, b = pair
    assert young_distance(a, b) <= young_distance(a, c) + young_distance(c, b)


@given(pairs9)
def test_tau_is_an_isometry(pair):
    a, b = pair
    assert young_distance(tau(a, 9), tau(b, 9)) == young_distance(a, b)


def test_tau_has_order_n():
    for n in range(2, 9):
        for lam in enumerate_YN(n):
            seq = tau_orbit(lam, n)
            assert len(seq) == n
            assert tau(seq[-1], n) == lam
            assert n % len(set(seq)) == 0


def test_tau_orbits_walk_each_orbit_once():
    for n in range(1, 10):
        pool = dict.fromkeys(enumerate_YN(n))
        orbits = list(tau_orbits(pool, n))
        assert orbits == [tau_orbit(o[0], n) for o in orbits]
        firsts = [o[0] for o in orbits]
        assert firsts == sorted(firsts)
        members = [set(o) for o in orbits]
        assert sum(map(len, members)) == len(pool)
        assert set().union(*members) == set(pool)


def test_tau_orbits_reject_a_pool_that_tau_leaves():
    # tau((2,), 3) = (1, 1), which this pool lacks; (1,) is fixed by tau
    assert list(tau_orbits(((1,),), 3)) == [((1,),) * 3]
    with pytest.raises(OrbitLeavesPool):
        list(tau_orbits(((2,),), 3))


def test_staircase_is_fixed():
    for k in range(1, 5):
        n = 2 * k + 1
        stair = tuple(range(k, 0, -1))
        assert tau(stair, n) == stair


def test_rectangular_distance_closed_form():
    n = 8
    for i in range(n + 1):
        for j in range(n + 1):
            assert xn_distance(i, j, n) == young_distance(
                rectangular(i, n), rectangular(j, n)
            )
            assert xn_distance(i, j, n) == abs(i - j) * (n - abs(i - j))


def test_alpha_points_realize_cycle_distance():
    for n in (5, 7, 9):
        for i in range(n):
            for j in range(n):
                assert cycle_distance(i, j, n) == young_distance(
                    alpha(i, n), alpha(j, n)
                )


def test_cycle_distance_step():
    assert cycle_distance(0, 1, 7) == 2
    assert cycle_distance(0, 3, 7) == 6
    assert cycle_distance(0, 3, 6) == 3
    assert cycle_distance(2, 2, 9) == 0


def test_corners_add_and_remove():
    # both sets against adding or removing one box in every row
    assert isinstance(corners((3, 1), 6), Corners)
    for n in range(1, 13):
        for lam in enumerate_YN(n):
            inner, outer = set(), set()
            for r in range(1, len(lam) + 2):
                for step, found in ((-1, inner), (1, outer)):
                    grown = list(lam) + [0]
                    grown[r - 1] += step
                    try:
                        if in_YN(make_partition(grown), n):
                            found.add(r)
                    except NotWeaklyDecreasing:
                        pass
            assert corners(lam, n) == (inner, outer), (lam, n)


def test_fibre_walk_length_is_the_catalan_product():
    # the rows of each fold fibre: the walk meets the Catalan word
    for n in range(1, 15):
        for lam in enumerate_circ(n):
            walk = rim_walk(n, _fibre_rows(lam, n))
            assert walk == list(fold_fibre(lam, n)), (lam, n)
            assert len(walk) == fold_fibre_size(lam, n), (lam, n)


def test_corner_walk_is_the_rim_walk_with_removable_rows():
    # items and order against a row-range filter of Y_N: every band for
    # N <= 14, Y_N for N <= 13, Y_N° for N <= 21 and the fold fibre of
    # every member of Y_N° for N <= 11; Y_N is complete: 2^(N-1)
    # distinct members
    for n in range(1, 22):
        cases = [circ_rows(n)]
        if n <= 14:
            cases += [
                band_rows(n, *band_limits(n, m)) for m in range(1, n // 2 + 1)
            ]
        if n <= 13:
            cases.append(band_rows(n, 0, n))
        if n <= 11:
            cases += [_fibre_rows(lam, n) for lam in enumerate_circ(n)]
        pool = enumerate_YN(n)
        assert len(set(pool)) == 2 ** (n - 1), n
        assert all(in_YN(lam, n) for lam in pool), n
        zeros = (0,) * n
        for rows in cases:
            want = [
                (lam, removable_rows(lam, rows)) for lam in pool
                if all(map(contains, rows, lam + zeros[len(lam):]))
            ]
            assert list(corner_walk(n, rows)) == want, (n, rows)
            assert rim_walk(n, rows) == [lam for lam, _ in want], (n, rows)


def test_row_count_is_the_walks_count():
    # every band, Y_N and Y_N° for N <= 18, seeded random fold fibres for
    # N <= 14, and seeded random row ranges, some of which end the walk
    # early or leave no width at all
    rng = random.Random(20131)
    for n in range(1, 19):
        cases = [circ_rows(n), band_rows(n, 0, n)]
        cases += [band_rows(n, *band_limits(n, m)) for m in range(1, n // 2 + 1)]
        if n <= 14:
            circ = enumerate_circ(n)
            cases += [_fibre_rows(lam, n) for lam in rng.sample(circ, min(40, len(circ)))]
        for rows in cases:
            assert row_count(n, rows) == sum(1 for _ in corner_walk(n, rows)), (n, rows)
    for _ in range(2000):
        n = rng.randint(1, 9)
        rows = tuple(
            range(a, a + rng.randint(0, 5))
            for a in (rng.randint(0, 6) for _ in range(n))
        )
        assert row_count(n, rows) == sum(1 for _ in corner_walk(n, rows)), (n, rows)


def test_name_walk_corner_rows_are_the_removable_rows():
    # the hull walk settles each vertex's corner rows along its path, as
    # corner_walk does; against removable_rows on Y_N for N <= 13 and on
    # Y_N° for N <= 21, over the same members
    for kind, top in (("xn", 13), ("cycle", 21)):
        for n in range(1, top + 1):
            rows, _ = hull_pool(kind, n)
            got = {lam: c for lam, _, _, c in name_walk(kind, n)}
            assert got == {
                lam: removable_rows(lam, rows) for lam in rim_walk(n, rows)
            }, (kind, n)


def test_require_errors():
    from cyclehull.partitions import require_YN

    with pytest.raises(NotInYN):
        require_YN((4,), 4)
    with pytest.raises(IndexOutOfRange):
        alpha(9, 9)
    with pytest.raises(IndexOutOfRange):
        rectangular(9, 4)
    with pytest.raises(ValueError):
        model_matrix("torus", 5)
    with pytest.raises(IndexOutOfRange):
        model_matrix("cycle", 0)


def test_model_space_matrices_are_metrics():
    for kind, n in (("xn", 6), ("cycle", 6), ("cycle", 7)):
        m = model_matrix(kind, n)
        npts = len(m)
        for i in range(npts):
            assert m[i][i] == 0
            for j in range(npts):
                assert m[i][j] == m[j][i]
                for l in range(npts):
                    assert m[i][j] <= m[i][l] + m[l][j]


def test_only_band_rows_keeps_a_cache():
    # band_rows is a bounded table of N row ranges per (n, lo, hi) that
    # every membership check reads; no listing or census result is kept
    cached = set()
    for name in cyclehull.__all__:
        module = importlib.import_module(f"cyclehull.{name}")
        for obj in vars(module).values():
            inner = vars(obj).values() if isinstance(obj, type) else ()
            cached.update(
                f"{f.__module__}.{f.__qualname__}"
                for f in (obj, *inner) if hasattr(f, "cache_info")
            )
    assert cached == {"cyclehull.partitions.band_rows"}


def test_band_rows_cache_stays_small_over_a_sweep():
    # circ_rows for every N up to 2001 once held all 2,000 tables, about
    # 148 MB; a fresh process's peak RSS may now grow by under 16 MB
    code = (
        "import resource\n"
        "from cyclehull.partitions import circ_rows\n"
        "before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss\n"
        "for n in range(2, 2002):\n"
        "    circ_rows(n)\n"
        "print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss - before)\n"
    )
    src = Path(cyclehull.__file__).resolve().parent.parent
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True,
        env=dict(os.environ, PYTHONPATH=str(src)), check=True,
    )
    assert int(proc.stdout) < 16 << 10, proc.stdout  # KiB
