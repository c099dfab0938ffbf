"""The row walks: the partitions of Y_N whose parts lie in a tuple of
row ranges (band_rows, circ_rows or a fold fibre's), listed in sorted
order with their corner rows, or counted without building one.  Only
fibre, counts and the hull commands load this module.
"""

from __future__ import annotations

from itertools import accumulate
from typing import Iterator

from . import TooLarge
from .partitions import Partition


def rim_walk(n: int, rows: tuple[range, ...]) -> list[Partition]:
    """The lam in Y_N whose parts lie in rows, sorted: corner_walk's
    partitions without their corner rows."""
    return [lam for lam, _ in corner_walk(n, rows)]


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


# row_count's steps, at most widths x rows x the widest row range, each an
# add of counts below 2^N, so N bits: its bit steps.  Fresh on a 2-vCPU VM,
# counts --n 401 --m 200 (25,856,961,601 bit steps) takes 0.7 s and
# --n 2001 --m 40 (26,270,250,561) 0.5 s, and --n 10001 --m 26
# (280,956,182,809) 5.9 s
COUNT_BUDGET = 30_000_000_000


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
    O(N^3) at most, not the size of the answer.  TooLarge before any sum
    if widths x rows x the widest range x N passes COUNT_BUDGET bit steps.
    """
    work = len(rows[0]) * len(rows) * max(map(len, rows)) * n
    if work > COUNT_BUDGET:
        raise TooLarge(f"the row count at N = {n}", work, COUNT_BUDGET, "bit steps")
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
