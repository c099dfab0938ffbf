"""Integer partitions, their row ranges and corners.

A partition is a weakly decreasing tuple of positive ints.  Everything here
lives inside the finite sublattice Y_N of partitions whose principal hook
length (first part + number of parts - 1) is strictly less than N.  The
row walks over row ranges are in walks, the shift tau and the model
spaces in spaces; fold and embed load neither.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Iterable, Iterator, NamedTuple

from . import TooLarge

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


# N row ranges: fresh on a 2-vCPU VM, fold --n 10001 builds them in 5 ms
# and --n 100001 in 0.18 s and 31 MB; below it every count a refusal
# names, up to the 3,828 digits of X_10001's faces, prints within
# Python's default 4,300-digit limit on int-to-str
ROW_BUDGET = 10_001


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
    first column.  TooLarge before any row past ROW_BUDGET rows.
    """
    if n > ROW_BUDGET:
        raise TooLarge(f"the row table at N = {n}", n, ROW_BUDGET, "rows")
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


def enumerate_YN(n: int) -> tuple[Partition, ...]:
    """All of Y_N, the vertices of the hull of X_N, in lexicographic
    order; the count is 2**(n-1).  IndexOutOfRange below N = 1, and
    TooLarge past hullwalk.VERTEX_BUDGET before the walk."""
    from .hullwalk import hull_pool
    from .walks import rim_walk

    return tuple(rim_walk(n, hull_pool("xn", n, "vertices")[0]))


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
