"""Integer partitions, the Young lattice metric, and the cyclic shift.

A partition is a weakly decreasing tuple of positive ints.  Everything here
lives inside the finite sublattice Y_N of partitions whose principal hook
length (first part + number of parts - 1) is strictly less than N.  Y_N
carries an order-N shift `tau` that acts by isometries of the lattice
distance, and two distinguished families of points: the rectangular
partitions R_j and the near-staircases alpha_j.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import accumulate
from typing import Collection, Iterable, Iterator, NamedTuple

Partition = tuple[int, ...]


class NotWeaklyDecreasing(ValueError):
    """Raw part list is not a weakly decreasing sequence of positive ints."""


class NotInYN(ValueError):
    """Partition's principal hook is too long for the requested Y_N."""


class IndexOutOfRange(ValueError):
    """Point index outside the allowed range for this model space."""


class OrbitNotClosed(ValueError):
    """N steps of the shift tau did not bring a partition back."""


class OrbitLeavesPool(ValueError):
    """A tau orbit reached a partition outside a pool meant to be closed."""


class BadBandIndex(ValueError):
    """Band half-width m outside 1 <= m <= N // 2, or N below 2."""


class NotInYNCirc(ValueError):
    """Partition's rim leaves the central band of half-width 1."""


def make_partition(parts: Iterable[int]) -> Partition:
    """Validate and canonicalize a part sequence.

    Trailing zeros are tolerated and stripped; anything else that is not
    weakly decreasing and positive raises NotWeaklyDecreasing.
    """
    t = tuple(int(p) for p in parts)
    while t and t[-1] == 0:
        t = t[:-1]
    for a, b in zip(t, t[1:]):
        if a < b:
            raise NotWeaklyDecreasing(f"parts not weakly decreasing: {t}")
    if t and t[-1] < 0:
        raise NotWeaklyDecreasing(f"negative part in {t}")
    return t


def format_partition(lam: Partition) -> str:
    """Serialize as comma-joined parts; the empty partition is ''."""
    return ",".join(map(str, lam))


def parse_partition(text: str) -> Partition:
    text = text.strip()
    if not text or text == "()":
        return ()
    return make_partition(int(p) for p in text.split(","))


def size(lam: Partition) -> int:
    return sum(lam)


def max_hook(lam: Partition) -> int:
    """Length of the principal hook: first part + number of parts - 1."""
    if not lam:
        return 0
    return lam[0] + len(lam) - 1


def in_YN(lam: Partition, n: int) -> bool:
    return max_hook(lam) < n


def require_YN(lam: Partition, n: int) -> None:
    if n < 1:
        raise IndexOutOfRange(f"n must be >= 1, got {n}")
    if not in_YN(lam, n):
        raise NotInYN(f"{lam or '()'} has hook {max_hook(lam)} >= {n}")


def young_distance(lam: Partition, mu: Partition) -> int:
    """Graph distance in the Young lattice: boxes added plus boxes removed.

    Equals |lam| + |mu| - 2 * |lam intersect mu| where the intersection is
    the rowwise minimum diagram.
    """
    common = sum(min(a, b) for a, b in zip(lam, mu))
    return sum(lam) + sum(mu) - 2 * common


@lru_cache(maxsize=16)  # callers repeat one N at a time; a sweep keeps 16
def band_rows(n: int, lo: int, hi: int) -> tuple[range, ...]:
    """The parts each row may take when the outer rim of a partition in
    Y_N keeps lo <= delta <= hi; entry s - 1 is row s.

    This is the one statement of the band rule; a partition's own rule,
    each row at most the one above, comes on top.  Row r's run of the rim
    (moebius.outer_rim) lies on the level j = N - r at deltas
    N - r - lam_r up to N - r - lam_(r+1), for r = 1 .. N - lam_1, so lam
    has at most N - lam_1 rows.  Row s >= 2 bounds the low end of its run
    and the high end of row s - 1's; a row that can hold no box gets the
    range {0}.  Row 1, the width, bounds its run's low end and the bottom
    row's high end, lam_1.  Width 0 is the empty partition: its rim is the
    first column.
    """
    width = range(
        0 if lo <= 0 and n - 1 <= hi else max(1, lo), min(hi, n - 1 - lo) + 1
    )
    return (width, *(
        range(max(0, n - s + 1 - hi), max(0, n - s - lo) + 1)
        for s in range(2, n + 1)
    ))


def band_limits(n: int, m: int) -> tuple[int, int]:
    """The delta range (k - m, N - k + m), k = N // 2, of the band m.

    For odd N the band spans 2m + 2 levels, for even N the symmetric
    2m + 1.  BadBandIndex unless N >= 2 and 1 <= m <= k.
    """
    if n < 2:
        raise BadBandIndex(f"N = {n} has no central band (needs N >= 2)")
    k = n // 2
    if not 1 <= m <= k:
        raise BadBandIndex(f"band index {m} not in [1, {k}]")
    return k - m, n - k + m


def circ_rows(n: int) -> tuple[range, ...]:
    """The rows of Y_N°: band_rows for m = 1, or those of Y_N below N = 2."""
    return band_rows(n, *band_limits(n, 1)) if n >= 2 else band_rows(n, 0, n)


def in_circ(lam: Partition, n: int) -> bool:
    """Membership in Y_N°: the rows of lam obey circ_rows."""
    require_YN(lam, n)
    p = (*lam, 0)  # the zero part counts while a row may follow
    return all(q in row for q, row in zip(p[: n - p[0]], circ_rows(n)))


def require_circ(lam: Partition, n: int) -> None:
    if not in_circ(lam, n):
        raise NotInYNCirc(f"{lam or '()'} has a rim outside the band m=1")


def rim_walk(n: int, rows: tuple[range, ...]) -> list[Partition]:
    """The lam in Y_N whose parts lie in rows, sorted: corner_walk's
    partitions without their corner rows."""
    return [lam for lam, _ in corner_walk(n, rows)]


def removable_rows(lam: Partition, rows: tuple[range, ...]) -> tuple[int, ...]:
    """The rows r, ascending, whose corner box lam may lose and keep its
    parts in rows: p_r > max(p_(r+1), low end of row r's range), p the
    parts of lam padded with a zero.

    For row ranges from band_rows this is the whole test.  A lost box
    only lowers a part, so only a range's low end can be crossed; the
    row that a narrower width lets follow has low end max(0, width - hi)
    = 0, so the new zero row fits.  lam is not validated.
    """
    p = (*lam, 0)
    return tuple(
        r for r in range(1, len(lam) + 1)
        if p[r - 1] > max(p[r], rows[r - 1].start)
    )


def one_box_less(lam: Partition, corner_rows: Iterable[int]) -> Iterator[Partition]:
    """lam less the corner box of each of its corner rows, one row at a
    time: the hull's edges down from the vertex lam.

    A corner row r has lam_r > lam_(r+1), so a part 1 there is the last
    part, and the row is dropped.  lam is not validated.
    """
    for r in corner_rows:
        q = lam[r - 1] - 1
        yield (*lam[: r - 1], q, *lam[r:]) if q else lam[: r - 1]


def fewest_parts(rows: tuple[range, ...]) -> int:
    """The fewest parts a partition over rows may have: it may end after
    s parts only when every later row admits 0."""
    return 1 + max((s for s, row in enumerate(rows) if 0 not in row), default=-1)


def corner_walk(
    n: int, rows: tuple[range, ...]
) -> Iterator[tuple[Partition, tuple[int, ...]]]:
    """(lam, removable_rows(lam, rows)) for each lam in Y_N whose parts
    lie in rows, in sorted order.

    rows[s - 1] holds the parts row s may take, rows[0] the width (as
    band_rows gives them, or the ranges of a fold fibre); lam has at most
    N - lam_1 rows, and it may end where every later row admits 0.  The
    walk goes depth first over the rows, smallest part first, so the
    output is sorted; on a band no branch lacks a completion, so the cost
    follows the size of the answer.  The path is kept in lists, not on
    the call stack, so a partition with a thousand rows walks like any
    other.  Y_N itself is band_rows(n, 0, n).

    A parallel stack carries the corners: settled[s - 1] holds the
    removable rows among 1 .. s - 1 of the path prefix of length s.  Row
    r is settled once row r + 1 is chosen, so a new row s + 1 settles row
    s, and a step up of row s changes only row s - 1.  The bottom row of
    lam is removable when it is above its range's low end, since the part
    after it is 0.
    """
    fewest = fewest_parts(rows)
    if fewest == 0:
        yield (), ()
    starts = [row.start for row in rows]
    highs = [row.stop - 1 for row in rows]
    low = [max(1, start) for start in starts]
    # row s + 1 keeps its corner over a new row s + 2, which starts at
    # low[s + 1], when its part is above floor[s] (so above starts[s])
    floor = list(map(max, low[1:], starts))
    # tops[s]: the largest part row s + 1 may take under the row above it
    parts, tops, settled = [low[0]], [highs[0]], [()]
    if low[0] > highs[0]:
        return
    s = 1
    while True:
        q = parts[-1]
        prefix = settled[-1]
        corners = prefix + (s,) if q > starts[s - 1] else prefix
        if s >= fewest:
            yield tuple(parts), corners
        if s < n - parts[0]:  # hook below N - 1: a row may follow
            top = q if q < highs[s] else highs[s]
            if low[s] <= top:
                parts.append(low[s])
                tops.append(top)
                settled.append(corners if q > floor[s - 1] else prefix)
                s += 1
                continue
        # no row follows: step the deepest row that is below its top
        while parts[-1] == tops[-1]:
            parts.pop()
            tops.pop()
            settled.pop()
            s -= 1
            if not s:
                return
        parts[-1] += 1
        if s > 1 and parts[-1] == parts[-2]:  # row s - 1 loses its corner
            settled[-1] = settled[-2]


def row_count(n: int, rows: tuple[range, ...]) -> int:
    """The number of partitions corner_walk(n, rows) yields, counted
    without building one.

    The walk's rules, by a transfer matrix over (row, part) for each
    width w: counts[i] is the number of prefixes of s parts whose last
    part is top - i.  Row s + 1 may take a part q in its range, at least
    1 and at most the part above, so its count at q is the number of
    prefixes whose last part is q or more, a running sum of counts; a
    prefix ends at s parts when s >= fewest_parts(rows), and at most
    N - w rows follow.  The cost is one running sum per row and width,
    O(N^3) at most, not the size of the answer.
    """
    fewest = fewest_parts(rows)
    total = 1 if fewest == 0 else 0
    for w in range(max(1, rows[0].start), rows[0].stop):
        top, counts, s = w, [1], 1
        while True:
            if s >= fewest:
                total += sum(counts)
            if s >= n - w:  # hook N - 1: no row follows
                break
            row = rows[s]
            low, high = max(1, row.start), min(top, row.stop - 1)
            if low > high:
                break
            # sums[i]: the prefixes whose last part is top - i or more;
            # a part below the last prefix's takes them all
            sums = list(accumulate(counts))
            counts = sums[top - high: top - low + 1]
            counts += [sums[-1]] * (high - low + 1 - len(counts))
            top, s = high, s + 1
    return total


def enumerate_YN(n: int) -> tuple[Partition, ...]:
    """All of Y_N in lexicographic order; the count is 2**(n-1)."""
    if n < 1:
        raise IndexOutOfRange(f"n must be >= 1, got {n}")
    return tuple(rim_walk(n, band_rows(n, 0, n)))


def tau(lam: Partition, n: int) -> Partition:
    """Order-N shift of Y_N.

    The first column of the diagram is traded for a new long first row:
    tau(lam) = (n - len(lam) - 1, lam_1 - 1, ..., lam_m - 1), zeros dropped.
    This is an isometry of young_distance and permutes R_j and alpha_j
    cyclically.
    """
    require_YN(lam, n)
    return _shift(lam, n)


def _shift(lam: Partition, n: int) -> Partition:
    # tau without the Y_N check; tau maps Y_N into Y_N
    head = n - len(lam) - 1
    tail = [p - 1 for p in lam if p > 1]
    return (head, *tail) if head else tuple(tail)


def tau_orbit(lam: Partition, n: int) -> tuple[Partition, ...]:
    """The sequence (lam, tau lam, ..., tau^(n-1) lam); may repeat values.

    lam is checked to be in Y_N once; tau maps Y_N into Y_N, so the
    steps are not checked again.  tau^N must give lam back.
    """
    require_YN(lam, n)
    out = [lam]
    for _ in range(n - 1):
        out.append(_shift(out[-1], n))
    if tau(out[-1], n) != lam:
        raise OrbitNotClosed(f"tau^{n} moves {lam}")
    return tuple(out)


def tau_orbits(
    pool: Collection[Partition], n: int
) -> Iterator[tuple[Partition, ...]]:
    """tau_orbit(lam, n) once per tau orbit of pool, lam its first member.

    pool is a tau-invariant collection with a fast `in` (a dict or set),
    walked in its own order; an orbit member outside it raises
    OrbitLeavesPool.
    """
    seen = set()
    for lam in pool:
        if lam in seen:
            continue
        orbit = tau_orbit(lam, n)
        for mu in orbit:
            if mu not in pool:
                raise OrbitLeavesPool(
                    f"the tau orbit of {lam or '()'} reaches {mu or '()'}"
                )
        seen.update(orbit)
        yield orbit


def rectangular(j: int, n: int) -> Partition:
    """The rectangle R_j with N-j rows of width j; R_0 = R_N = ()."""
    if not 0 <= j <= n:
        raise IndexOutOfRange(f"rectangle index {j} not in [0, {n}]")
    if j == 0 or j == n:
        return ()
    return (j,) * (n - j)


def xn_distance(i: int, j: int, n: int) -> int:
    """young_distance(R_i, R_j) = |i - j| * (n - |i - j|)."""
    for x in (i, j):
        if not 0 <= x <= n:
            raise IndexOutOfRange(f"rectangle index {x} not in [0, {n}]")
    d = abs(i - j)
    return d * (n - d)


def alpha(j: int, n: int) -> Partition:
    """The j-th shifted near-staircase: alpha_j = tau^j(alpha_0).

    alpha_0 is the staircase (k-1, k-2, ..., 1) with k = n // 2.
    """
    if not 0 <= j < n:
        raise IndexOutOfRange(f"cycle index {j} not in [0, {n - 1}]")
    k = n // 2
    a0: Partition = tuple(range(k - 1, 0, -1))
    return tau_orbit(a0, n)[j]


def cycle_distance(i: int, j: int, n: int) -> int:
    """young_distance(alpha_i, alpha_j): a cycle metric with N points.

    The step weight is 2 for odd N and 1 for even N.
    """
    for x in (i, j):
        if not 0 <= x < n:
            raise IndexOutOfRange(f"cycle index {x} not in [0, {n - 1}]")
    step = 2 if n % 2 else 1
    d = abs(i - j)
    return step * min(d, n - d)


class Corners(NamedTuple):
    inner: frozenset[int]
    outer: frozenset[int]


def corners(lam: Partition, n: int) -> Corners:
    """Inner and outer corners of the diagram, as 1-based row indices.

    Row r is an inner corner when a box may be removed from it (lam_r >
    lam_{r+1}): the removable_rows of lam on the rows of Y_N, whose ranges
    all start at 0 below the width.  Row r is an outer corner when a box
    may be added there without leaving Y_N.  Row m+1 denotes adding a
    brand new row.
    """
    require_YN(lam, n)
    inner = frozenset(removable_rows(lam, band_rows(n, 0, n)))
    m = len(lam)
    p = (*lam, 0)
    # only a box in row 1 or in a new row m + 1 lengthens the hook
    grows = max_hook(lam) + 1 < n
    outer = frozenset(
        r for r in range(1, m + 2)
        if (r == 1 or p[r - 2] > p[r - 1]) and (grows or 1 < r <= m)
    )
    return Corners(inner, outer)


def require_space(kind: str, n: int) -> None:
    """A model space is a kind, 'xn' or 'cycle', and N >= 1 points."""
    if kind not in ("xn", "cycle"):
        raise ValueError(f"unknown space kind {kind!r}")
    if n < 1:
        raise IndexOutOfRange(f"n must be >= 1, got {n}")


def model_matrix(kind: str, n: int) -> tuple[tuple[int, ...], ...]:
    """Distances of the N model points of a hull: R_0..R_{N-1} at
    |i-j|(N-|i-j|) for 'xn', the N-cycle alpha_0..alpha_{N-1} for 'cycle'."""
    require_space(kind, n)
    distance = xn_distance if kind == "xn" else cycle_distance
    return tuple(tuple(distance(i, j, n) for j in range(n)) for i in range(n))
