"""A discrete Moebius strip, outer rims of partitions, and the fold map.

Sites are pairs (i, j) with 0 <= i <= j <= N - 1 on a strip glued by
(i, N) ~ (0, i), at level delta = j - i.  Every partition in Y_N traces
an outer rim: a monotone staircase of N sites following the boundary of
its diagram, closing up into a loop that wraps the strip once; row r's
run of it lies on the level j = N - r.  The central band of half-width m
consists of the sites with k - m <= delta <= N - k + m where k = N // 2;
partitions whose rim stays inside the band m = 1 form the subfamily
written Y_N° here (`enumerate_circ`).  All of these families are read
off the rows of a partition, by rules that live beside
`partitions.band_rows`: `band_limits` gives a band's delta range,
`circ_rows` the parts each row of a partition in Y_N° may take, and
`in_circ` and `require_circ` test membership.  The fold map pushes an arbitrary rim into
that band by clamping each row into its range, and its fibre over a
partition is again a set of row ranges, walked by `partitions.rim_walk`,
with a Catalan word read off the rows too.  It is the vertex-level
shadow of a retraction of one injective hull onto the other.  The site
form itself (canonical sites, the band's boundary loop, rims back to
partitions) is kept beside the tests, which check the row rules
against it.
"""

from __future__ import annotations

import math
from itertools import groupby, zip_longest
from typing import NamedTuple

from .partitions import (
    Partition,
    band_limits,
    band_rows,
    circ_rows,
    in_circ,
    in_YN,
    make_partition,
    removable_rows,
    require_circ,
    require_YN,
    rim_walk,
)

Site = tuple[int, int]


class InvalidRim(ValueError):
    """Point sequence is not the lift of an outer rim."""


class FoldFailure(ValueError):
    """A fold round left Y_N or the band, or a fibre missed its Catalan size."""


# fold_fibre holds every member: fresh on a 2-vCPU VM, fibre --n 25 of C_12*C_0^13
# (208,012 members) takes 0.48 s and 41 MB, and N = 27's C_13*C_0^14 1.7 s, 117 MB
FIBRE_BUDGET = 250_000


class FibreTooLarge(ValueError):
    """A fold fibre has more members than FIBRE_BUDGET."""


def site_str(s: Site) -> str:
    return f"({s[0]},{s[1]})"


class RimPath(NamedTuple):
    """Outer rim of a partition: an N-step staircase lift plus its sites.

    lift holds the N+1 lattice points from (0, lam_1) to (lam_1, N); the
    last point is the glued image of the first, so the loop has exactly N
    distinct sites.
    """

    n: int
    lift: tuple[tuple[int, int], ...]
    sites: tuple[Site, ...]


def outer_rim(lam: Partition, n: int) -> RimPath:
    """Boundary staircase of the diagram of lam, read inside the strip.

    The diagram is padded to N - lam_1 rows; the path starts at (0, lam_1)
    and, scanning rows bottom to top, walks right along row r's lower edge
    on the level j = N - r and then up one step, ending at (lam_1, N).
    Only that end has j = N, so the N sites before it are canonical.
    """
    require_YN(lam, n)
    width = lam[0] if lam else 0
    p = list(lam) + [0] * (n + 1 - len(lam))
    pts = [
        (i, n - r)
        for r in range(n - width, 0, -1)
        for i in range(p[r], p[r - 1] + 1)
    ]
    pts.append((width, n))
    if len(pts) != n + 1:
        raise InvalidRim(f"rim of {lam} does not close up after {n} steps")
    return RimPath(n, tuple(pts), tuple(pts[:n]))


def enumerate_band_partitions(n: int, m: int) -> tuple[Partition, ...]:
    """All lam in Y_N whose rim stays in the band of half-width m."""
    return tuple(rim_walk(n, band_rows(n, *band_limits(n, m))))


def enumerate_circ(n: int) -> tuple[Partition, ...]:
    return tuple(rim_walk(n, circ_rows(n)))


def circ_inner_corners(lam: Partition, n: int) -> frozenset[int]:
    """Rows whose corner box can be removed without leaving Y_N°: the
    removable rows of lam in the row ranges circ_rows."""
    require_circ(lam, n)
    return frozenset(removable_rows(lam, circ_rows(n)))


FoldStep = tuple[str, Site]


def _clamp_rows(lam: Partition, n: int) -> Partition:
    # the width into the first range of circ_rows, then rows 2 .. N - width
    # (zero where lam has none) each into its own; rows below are dropped
    rows = circ_rows(n)
    p = (*lam, *[0] * n)
    width = min(max(p[0], rows[0].start), rows[0].stop - 1)
    parts = (min(max(q, row.start), row.stop - 1)
             for q, row in zip(p[: n - width], rows))
    return tuple(q for q in parts if q)


def fold(lam: Partition, n: int) -> Partition:
    """The retraction Y_N -> Y_N°; identity on Y_N° and tau-equivariant:
    each row of lam clamped into its range in circ_rows.  FoldFailure if
    the result is not in Y_N°."""
    require_YN(lam, n)
    rows = _clamp_rows(lam, n)
    if not (in_YN(rows, n) and in_circ(rows, n)):
        raise FoldFailure(f"fold of {lam} ends outside the band m=1: {rows}")
    return rows


def fold_trace(lam: Partition, n: int) -> tuple[Partition, tuple[FoldStep, ...]]:
    """fold(lam, n) and every site that the fold flipped.

    Each box (r, c) the fold removes is a valley of the rim on
    delta = N - r - c, flipped at upper (c, N - r); each box it adds is a
    peak on delta = N - r - c + 2, flipped at lower (c - 1, N - r + 1),
    glued to (0, c - 1) for r = 1.  Flips come in rounds u = 0 .. k-2:
    round u removes the valleys on delta = u, then adds the peaks on
    delta = N - u, each bottom row first.
    """
    rows = fold(lam, n)
    pairs = list(enumerate(zip_longest(lam, rows, fillvalue=0), 1))
    moved = [
        (n - r - c, 0, -r, ("upper", (c, n - r)))
        for r, (was, now) in pairs for c in range(now + 1, was + 1)
    ] + [
        (r + c - 2, 1, -r,
         ("lower", (c - 1, n - r + 1) if r > 1 else (0, c - 1)))
        for r, (was, now) in pairs for c in range(was + 1, now + 1)
    ]
    return rows, tuple(step for *_, step in sorted(moved))


def _fibre_rows(lam0: Partition, n: int) -> tuple[range, ...]:
    # row s of a preimage: any part below row N - lam0_1 or where the row
    # has one choice, at least the top where lam0_s is its top, at most
    # the bottom where lam0_s is its bottom, else lam0_s itself
    p = (*lam0, *[0] * n)
    anything = range(n)
    return tuple(
        anything if s >= n - p[0] or len(row) == 1 else
        range(q, n) if q == row[-1] else
        range(q + 1) if q == row[0] else
        range(q, q + 1)
        for s, (q, row) in enumerate(zip(p, circ_rows(n)))
    )


def fold_fibre(lam0: Partition, n: int) -> tuple[Partition, ...]:
    """All mu in Y_N with fold(mu) = lam0, sorted.

    The fold clamps each row, so the preimages are the partitions whose
    rows clamp to lam0's; partitions.rim_walk lists them from those
    ranges (_fibre_rows), at a cost that follows the fibre's size.
    FibreTooLarge before the walk if fold_fibre_size passes FIBRE_BUDGET;
    FoldFailure if the member count is not fold_fibre_size.
    """
    want = fold_fibre_size(lam0, n)
    if want > FIBRE_BUDGET:
        raise FibreTooLarge(
            f"the fibre of {lam0 or '()'} has {want:,} members,"
            f" more than {FIBRE_BUDGET:,}")
    members = rim_walk(n, _fibre_rows(lam0, n))
    if len(members) != want:
        raise FoldFailure(
            f"{lam0 or '()'} unfolds to {len(members)} partitions, "
            f"not the {want} its Catalan word gives")
    return tuple(members)


def _boundary_runs(lam0: Partition, n: int) -> list[tuple[bool, int]]:
    # maximal cyclic runs along the boundary of the band m = 1 as (on the
    # rim, length), starting with a run on the rim when there is one.
    # Position x of the boundary is the site (x, x + k - 1), glued to
    # (x + k - 1 - N, x) past the seam; a site (i, N - r) is on the rim
    # when row r's run covers it: 1 <= r <= N - lam0_1, p_r <= i <= p_(r-1)
    k = n // 2
    p = (*lam0, *[0] * (n + 1))
    marks = []
    for x in range(n if k else 0):
        i, r = (x, n - k + 1 - x) if x + k - 1 < n else (x + k - 1 - n, n - x)
        marks.append(1 <= r <= n - p[0] and p[r] <= i <= p[r - 1])
    start = next((x for x, on in enumerate(marks) if on and not marks[x - 1]), 0)
    marks = marks[start:] + marks[:start]
    return [(on, len(list(run))) for on, run in groupby(marks)]


def fold_fibre_size(lam0: Partition, n: int) -> int:
    """Size of the fold fibre over lam0, from its Catalan word.

    Each maximal cyclic run of rim sites along the band boundary of length
    r contributes a factor C_r.
    """
    require_circ(lam0, n)
    return math.prod(
        math.comb(2 * r, r) // (r + 1) for on, r in _boundary_runs(lam0, n) if on
    )


def fibre_factorization(lam0: Partition, n: int) -> str:
    """The cyclic Catalan word of lam0, e.g. 'C_2*C_0*C_2*C_0^6'."""
    require_circ(lam0, n)
    if n < 2:
        return f"C_0^{n}"
    return "*".join(
        f"C_{r}" if on else f"C_0^{r}" if r > 1 else "C_0"
        for on, r in _boundary_runs(lam0, n)
    )


def double_embed(lam: Partition, n: int) -> Partition:
    """Embed Y_N° into Y_2N° (N odd) compatibly with the squared shift.

    The rim of lam, which lives in the four-level band of the odd strip,
    is read row by row over the staircase (k-1, ..., 1, 0): row i <= k
    of lam is c_i = p_i - (k - i) above it, and circ_rows puts c_i in
    {0, 1, 2}, p_(k+1) in {0, 1} and every later row at 0.  The image
    is the double staircase (2k, ..., 1) fattened by the bits eps_i =
    [c_i = 2] and delta_i = [c_i >= 1]: row i of lam gives its rows
    2(k-i+1) + eps_i and 2(k-i) + 1 + delta_i, and p_(k+1) its last row.
    """
    if n % 2 == 0:
        raise ValueError(f"doubling is defined for odd N, got {n}")
    require_circ(lam, n)
    k = n // 2
    p = (*lam, *[0] * (k + 1))
    out = []
    for i in range(1, k + 1):
        c = p[i - 1] - (k - i)
        out += (2 * (k - i + 1) + (c == 2), 2 * (k - i) + 1 + (c >= 1))
    image = make_partition((*out, p[k]))
    require_circ(image, 2 * n)
    return image
