import math
import random
from functools import lru_cache
from itertools import groupby

import pytest
from hypothesis import given
import hypothesis.strategies as st

from cyclehull import TooLarge, moebius, partitions
from cyclehull.moebius import (
    FoldFailure,
    InvalidRim,
    RimPath,
    _boundary_runs,
    _fibre_rows,
    _longest_line,
    circ_inner_corners,
    double_embed,
    enumerate_band_partitions,
    enumerate_circ,
    fibre_factorization,
    fibre_walk,
    fold,
    fold_fibre,
    fold_fibre_size,
    fold_trace,
    outer_rim,
)
from cyclehull.partitions import (
    BadBandIndex,
    IndexOutOfRange,
    NotInYNCirc,
    band_limits,
    corners,
    enumerate_YN,
    band_rows,
    format_partition,
    in_circ,
    make_partition,
    removable_rows,
)
from cyclehull.spaces import tau, young_distance
from cyclehull.walks import rim_walk
from reference import (
    boundary_loop,
    canon_site,
    delta,
    enumerate_circcirc,
    in_band,
    rim_to_partition,
    tau_equivariance_defect,
)

Y9 = enumerate_YN(9)


def test_canon_site_gluing():
    n = 7
    for i in range(n):
        assert canon_site(i, n, n) == (0, i)
    assert canon_site(6, 8, 7) == (1, 6)
    assert canon_site(2, 5, 7) == (2, 5)


def test_canon_site_rejects_off_strip():
    with pytest.raises(IndexOutOfRange):
        canon_site(3, 2, 7)
    with pytest.raises(IndexOutOfRange):
        canon_site(0, 8, 7)


@given(st.sampled_from(Y9))
def test_rim_round_trip(lam):
    rim = outer_rim(lam, 9)
    assert len(rim.lift) == 10
    assert len(rim.sites) == 9
    assert rim_to_partition(rim, 9) == lam


def test_rim_to_partition_rejects_a_foreign_rim():
    rim, other = outer_rim((2, 1), 5), outer_rim((2,), 5)
    with pytest.raises(InvalidRim, match="not the outer rim"):
        rim_to_partition(RimPath(5, rim.lift, other.sites), 5)
    skip = rim.lift[:2] + rim.lift[3:] + ((2, 5),)
    with pytest.raises(InvalidRim, match="unit step"):
        rim_to_partition(RimPath(5, skip, rim.sites), 5)


@given(st.sampled_from(Y9))
def test_rim_lift_is_a_monotone_staircase(lam):
    rim = outer_rim(lam, 9)
    first, last = rim.lift[0], rim.lift[-1]
    assert first == (0, lam[0] if lam else 0)
    assert last == (first[1], 9)
    for (a, b), (c, d) in zip(rim.lift, rim.lift[1:]):
        assert (c - a, d - b) in ((0, 1), (1, 0))


def test_band_nesting():
    n = 9
    for m in range(2, n // 2 + 1):
        inner = set(enumerate_band_partitions(n, m - 1))
        outer = set(enumerate_band_partitions(n, m))
        assert inner <= outer


def test_band_index_validation():
    with pytest.raises(BadBandIndex):
        in_band((0, 4), 9, 0)
    with pytest.raises(BadBandIndex):
        enumerate_band_partitions(9, 5)


def test_circ_is_band_one():
    assert set(enumerate_circ(9)) == set(enumerate_band_partitions(9, 1))
    assert len(enumerate_circ(7)) == 29


@given(st.sampled_from(Y9))
def test_fold_lands_in_circ_and_is_idempotent(lam):
    out = fold(lam, 9)
    assert in_circ(out, 9)
    assert fold(out, 9) == out


@given(st.sampled_from(Y9))
def test_fold_is_tau_equivariant(lam):
    assert tau_equivariance_defect(lam, 9) == 0


@given(st.sampled_from(Y9), st.sampled_from(Y9))
def test_fold_is_non_expanding(a, b):
    assert young_distance(fold(a, 9), fold(b, 9)) <= young_distance(a, b)


def test_fold_trace_parts():
    seen = set()
    for lam in Y9:
        _, trace = fold_trace(lam, 9)
        seen |= {part for part, _ in trace}
    assert seen == {"upper", "lower"}


def test_fibre_matches_brute_force():
    n = 7
    for lam in enumerate_circ(n):
        members = fold_fibre(lam, n)
        assert all(fold(m, n) == lam for m in members)
        assert len(members) == fold_fibre_size(lam, n)


def test_fibre_lists_members_beyond_fifteen():
    lam = (8, 8, 6, 6, 4, 4, 2, 2)
    assert fold_fibre(lam, 18) == (lam,)
    assert fold_fibre_size(lam, 18) == 1


def test_boundary_loop_shape():
    for n in (5, 6, 7, 9):
        loop = boundary_loop(n)
        assert len(loop) == n
        assert len(set(loop)) == n
        for s in loop:
            assert in_band(s, n, 1)
            assert canon_site(s[0], s[1], n) == s


def _site_runs(lam0, n):
    # the runs as the site form gives them: the rim sites of lam0 marked
    # along the boundary loop, rotated to start a run on the rim
    rim = set(outer_rim(lam0, n).sites)
    marks = [s in rim for s in boundary_loop(n)]
    start = next((x for x, on in enumerate(marks) if on and not marks[x - 1]), 0)
    marks = marks[start:] + marks[:start]
    return [(on, len(list(run))) for on, run in groupby(marks)]


def test_boundary_runs_read_off_rows_equal_the_site_marks():
    assert boundary_loop(1) == () and _boundary_runs((), 1) == []
    assert fibre_factorization((), 1) == "C_0^1"
    assert fold_fibre_size((), 1) == 1
    for n in range(1, 22):
        for lam in enumerate_circ(n):
            assert _boundary_runs(lam, n) == _site_runs(lam, n), (lam, n)


def test_factorization_examples():
    assert fibre_factorization((2, 1), 5) == "C_0^5"
    word = fibre_factorization((5, 5, 4, 3, 2, 1), 11)
    total = 1
    for piece in word.split("*"):
        name, _, exp = piece.partition("^")
        r = int(name[2:])
        cat = math.comb(2 * r, r) // (r + 1)
        total *= cat ** (int(exp) if exp else 1)
    assert total == fold_fibre_size((5, 5, 4, 3, 2, 1), 11) == 42


def test_circ_inner_corners_stay_in_circ():
    n = 9
    for lam in enumerate_circ(n):
        for r in circ_inner_corners(lam, n):
            shrunk = list(lam)
            shrunk[r - 1] -= 1
            shrunk = tuple(x for x in shrunk if x)
            assert in_circ(shrunk, n)


def test_circcirc_members_have_singleton_fibres():
    for n in (5, 7, 9):
        for lam in enumerate_circcirc(n):
            assert fold_fibre(lam, n) == (lam,)


def test_double_embed_validation():
    with pytest.raises(ValueError):
        double_embed((2, 1), 4)
    with pytest.raises(NotInYNCirc):
        double_embed((4,), 5)


def test_double_embed_image_and_equivariance():
    for n in range(1, 14, 2):
        circ = enumerate_circ(n)
        image = {double_embed(lam, n) for lam in circ}
        assert len(image) == len(circ), n
        for lam in circ:
            assert in_circ(double_embed(lam, n), 2 * n), (lam, n)
            lhs = double_embed(tau(lam, n), n)
            rhs = tau(tau(double_embed(lam, n), 2 * n), 2 * n)
            assert lhs == rhs, (lam, n)
        for lam in set(enumerate_YN(n)) - set(circ):
            with pytest.raises(NotInYNCirc):
                double_embed(lam, n)


def test_delta_helper():
    assert delta((2, 6)) == 4


def _reference_rim_range(lam, n):
    ds = [delta(s) for s in outer_rim(lam, n).sites]
    return min(ds), max(ds)


def _reference_band(n, m, ranges):
    k = n // 2
    return tuple(
        lam for lam, (lo, hi) in ranges.items()
        if k - m <= lo and hi <= n - k + m
    )


def test_band_walk_equals_reference_filter():
    # the rim walk against a filter over all of Y_N by outer_rim deltas
    assert enumerate_circ(1) == ((),)
    for n in range(2, 14):
        ranges = {lam: _reference_rim_range(lam, n) for lam in enumerate_YN(n)}
        for m in range(1, n // 2 + 1):
            assert enumerate_band_partitions(n, m) == \
                _reference_band(n, m, ranges), (n, m)
        band = set(_reference_band(n, 1, ranges))
        for lam in enumerate_YN(n):
            assert in_circ(lam, n) == (lam in band), (lam, n)


def _remove_and_retest(lam, n, lo, hi):
    # the inner corners whose removal keeps the rim in lo <= delta <= hi
    want = []
    for r in sorted(corners(lam, n).inner):
        mu = make_partition([p - (i == r - 1) for i, p in enumerate(lam)])
        mu_lo, mu_hi = _reference_rim_range(mu, n)
        if lo <= mu_lo and mu_hi <= hi:
            want.append(r)
    return tuple(want)


def test_removable_rows_equal_remove_and_retest_on_every_band():
    for n in range(2, 14):
        for m in range(1, n // 2 + 1):
            lo, hi = band_limits(n, m)
            rows = band_rows(n, lo, hi)
            for lam in enumerate_band_partitions(n, m):
                assert removable_rows(lam, rows) == \
                    _remove_and_retest(lam, n, lo, hi), (lam, n, m)
    for n in range(1, 13):
        rows = band_rows(n, 0, n)
        for lam in enumerate_YN(n):
            assert removable_rows(lam, rows) == \
                tuple(sorted(corners(lam, n).inner)), (lam, n)


def test_circ_inner_corners_equal_remove_and_retest():
    for n in range(1, 14):
        lo, hi = band_limits(n, 1) if n >= 2 else (0, n)
        for lam in enumerate_circ(n):
            assert circ_inner_corners(lam, n) == \
                set(_remove_and_retest(lam, n, lo, hi)), (lam, n)


def test_enumerate_circ_21_walks_without_scanning_YN(monkeypatch):
    def scan(n):
        raise AssertionError(f"Y_{n} scanned")

    monkeypatch.setattr(partitions, "enumerate_YN", scan)
    circ = enumerate_circ(21)
    assert len(circ) == 24476  # L_21
    assert list(circ) == sorted(set(circ))


def _reference_partition_from_sites(sites, n):
    # row r of the partition is the largest i with site (i, N - r) present
    best = {}
    for i, j in sites:
        best[j] = max(i, best.get(j, -1))
    parts = []
    for r in range(1, n + 1):
        if n - r not in best:
            break
        parts.append(best[n - r])
    return make_partition(parts)


def reference_fold_trace(lam, n):
    """The fold as flips of a set of glued rim sites.

    In round u the line delta = u is scanned left to right and every rim
    site that is a local minimum of delta (entered by an i-step, left by a
    j-step) is flipped to the opposite corner of its unit square, two
    levels up; then every local maximum on the line delta = N - u is
    flipped two levels down.
    """
    k = n // 2
    sites = set(outer_rim(lam, n).sites)
    trace = []

    def flip(old, new_i, new_j, part):
        new = canon_site(new_i, new_j, n)
        if new in sites:
            raise FoldFailure(f"flip of {old} lands on the rim of {lam}")
        sites.remove(old)
        sites.add(new)
        trace.append((part, old))

    for u in range(0, k - 1):
        for a in range(1, n - u):
            s = (a, a + u)
            if s in sites and canon_site(a - 1, a + u, n) in sites \
                    and canon_site(a, a + u + 1, n) in sites:
                flip(s, a - 1, a + u + 1, "upper")
        dp = n - u
        for c in range(0, u + 1):
            s = canon_site(c, c + dp, n)
            if s in sites and canon_site(c, c + dp - 1, n) in sites \
                    and canon_site(c + 1, c + dp, n) in sites:
                flip(s, c + 1, c + dp - 1, "lower")
    return _reference_partition_from_sites(sites, n), tuple(trace)


@lru_cache(maxsize=None)
def _reference_fold_map(n):
    return {lam: reference_fold_trace(lam, n) for lam in enumerate_YN(n)}


def _random_YN(rng, n):
    width = rng.randrange(n)
    length = rng.randrange(n - width) if width else 0
    parts = sorted((rng.randint(1, width) for _ in range(length)), reverse=True)
    return tuple([width] + parts[1:]) if parts else ()


def test_fold_trace_equals_reference_site_flips():
    for n in range(1, 13):
        for lam, want in _reference_fold_map(n).items():
            assert fold_trace(lam, n) == want, (lam, n)
    rng = random.Random(20261018)
    for n in (23, 41, 57):
        for _ in range(300):
            lam = _random_YN(rng, n)
            assert fold_trace(lam, n) == reference_fold_trace(lam, n), (lam, n)


def test_fibre_equals_reference_scan_of_YN():
    for n in range(1, 14):
        fibres = {}
        for lam, (out, _) in _reference_fold_map(n).items():
            fibres.setdefault(out, []).append(lam)
        assert set(fibres) <= set(enumerate_circ(n))
        for lam in enumerate_circ(n):
            assert fold_fibre(lam, n) == tuple(sorted(fibres.get(lam, ()))), \
                (lam, n)


def test_fibre_stream_refuses_first_and_fails_last(monkeypatch):
    # nothing runs until the first member is asked for: the budget refuses
    # there, before any member, and a count that misses the Catalan size
    # fails only after the last.  The budget counts each member as the
    # longest line of Y_N, which _longest_line gives exactly
    for n in range(1, 14):
        lines = (len(format_partition(lam) or "()") + 1 for lam in enumerate_YN(n))
        assert max(lines) == _longest_line(n), n
    big = (19, 18, 17, 16, 15, 14, 13, 12, 11, 10, 9, 8, 7, 7, 6, 6, 5, 4, 3, 2, 1)
    stream = fibre_walk(big, 41)
    with pytest.raises(TooLarge, match="1,767,263,190 members"):
        next(stream)
    size = moebius.fold_fibre_size
    monkeypatch.setattr(moebius, "fold_fibre_size", lambda lam, n: size(lam, n) - 1)
    stream = fibre_walk((5, 5, 4, 3, 2, 1), 11)
    members = [next(stream) for _ in range(42)]
    assert members == rim_walk(11, _fibre_rows((5, 5, 4, 3, 2, 1), 11))
    with pytest.raises(FoldFailure, match="unfolds to 42 partitions, not the 41"):
        next(stream)
