"""Integer partitions, the Young lattice metric, and the cyclic shift.

A partition is a weakly decreasing tuple of positive ints.  Everything here
lives inside the finite sublattice Y_N of partitions whose principal hook
length (first part + number of parts - 1) is strictly less than N.  Y_N
carries an order-N shift `tau` that acts by isometries of the lattice
distance, and two distinguished families of points: the rectangular
partitions R_j and the near-staircases alpha_j.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, NamedTuple

Partition = tuple[int, ...]


class NotWeaklyDecreasing(ValueError):
    """Raw part list is not a weakly decreasing sequence of positive ints."""


class NotInYN(ValueError):
    """Partition's principal hook is too long for the requested Y_N."""


class IndexOutOfRange(ValueError):
    """Point index outside the allowed range for this model space."""


class OrbitNotClosed(ValueError):
    """N steps of the shift tau did not bring a partition back."""


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
    if any(p <= 0 for p in t):
        raise NotWeaklyDecreasing(f"non-positive part in {t}")
    return t


def format_partition(lam: Partition) -> str:
    """Serialize as comma-joined parts; the empty partition is ''."""
    return ",".join(str(p) for p in lam)


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


def rim_walk(n: int, lo: int, hi: int) -> list[Partition]:
    """The lam in Y_N whose outer rim keeps lo <= delta <= hi, sorted.

    The rim (moebius.outer_rim) is a +-1 walk in delta = j - i; row r's
    run lies on the level j = N - r with deltas N - r - lam_r up to
    N - r - lam_(r+1), for r = 1 .. N - lam_1.  The walk goes depth first,
    a row at a time and smallest part first, so the output is sorted; no
    branch lacks a completion, so the cost follows the size of the answer.
    Y_N itself is lo = 0, hi = N.
    """
    out: list[Partition] = [()] if lo <= 0 and n - 1 <= hi else []

    def extend(parts: list[int], r: int) -> None:
        if r == n - parts[0]:  # hook N - 1: no row below r
            out.append(tuple(parts))
            return
        for q in range(max(0, n - r - hi), min(parts[-1], n - r - 1 - lo) + 1):
            if q == 0:  # the empty rows left sit at deltas lam_1 .. N - r - 1
                out.append(tuple(parts))
                continue
            parts.append(q)
            extend(parts, r + 1)
            parts.pop()

    # the bottom row N - lam_1 tops out at delta lam_1 and bottoms out at
    # lam_1 - lam_(N - lam_1); row 1 starts at N - 1 - lam_1
    for width in range(max(1, lo), min(hi, n - 1 - lo) + 1):
        extend([width], 1)
    return out


@lru_cache(maxsize=None)
def enumerate_YN(n: int) -> tuple[Partition, ...]:
    """All of Y_N in lexicographic order; the count is 2**(n-1)."""
    if n < 1:
        raise IndexOutOfRange(f"n must be >= 1, got {n}")
    return tuple(rim_walk(n, 0, n))


def tau(lam: Partition, n: int) -> Partition:
    """Order-N shift of Y_N.

    The first column of the diagram is traded for a new long first row:
    tau(lam) = (n - len(lam) - 1, lam_1 - 1, ..., lam_m - 1), zeros dropped.
    This is an isometry of young_distance and permutes R_j and alpha_j
    cyclically.
    """
    require_YN(lam, n)
    m = len(lam)
    parts = (n - m - 1,) + tuple(p - 1 for p in lam)
    return tuple(p for p in parts if p > 0)


def tau_pow(lam: Partition, j: int, n: int) -> Partition:
    for _ in range(j % n):
        lam = tau(lam, n)
    return lam


def tau_orbit(lam: Partition, n: int) -> tuple[Partition, ...]:
    """The sequence (lam, tau lam, ..., tau^(n-1) lam); may repeat values."""
    require_YN(lam, n)
    out = [lam]
    for _ in range(n - 1):
        out.append(tau(out[-1], n))
    if tau(out[-1], n) != lam:
        raise OrbitNotClosed(f"tau^{n} moves {lam}")
    return tuple(out)


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
    return tau_pow(a0, j, n)


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
    lam_{r+1}); row r is an outer corner when a box may be added there
    without leaving Y_N.  Row m+1 denotes adding a brand new row.
    """
    require_YN(lam, n)
    m = len(lam)
    inner = frozenset(
        r for r in range(1, m + 1) if lam[r - 1] > (lam[r] if r < m else 0)
    )
    outer = set()
    for r in range(1, m + 2):
        here = lam[r - 1] if r <= m else 0
        above = lam[r - 2] if r >= 2 else None
        if r >= 2 and above is not None and above <= here:
            continue
        grown = list(lam) + [0]
        grown[r - 1] += 1
        if in_YN(make_partition(grown), n):
            outer.add(r)
    return Corners(inner, frozenset(outer))


@dataclass(frozen=True)
class ModelSpace:
    """One of the two finite metric spaces whose hull we build.

    kind 'xn'    : points R_0..R_{N-1}, distance |i-j|(N-|i-j|)
    kind 'cycle' : points alpha_0..alpha_{N-1}, an N-cycle
    """

    kind: str
    n: int

    def __post_init__(self) -> None:
        if self.kind not in ("xn", "cycle"):
            raise ValueError(f"unknown space kind {self.kind!r}")
        if self.n < 1:
            raise IndexOutOfRange(f"n must be >= 1, got {self.n}")

    def distance(self, i: int, j: int) -> int:
        if self.kind == "xn":
            return xn_distance(i, j, self.n)
        return cycle_distance(i, j, self.n)

    def point(self, j: int) -> Partition:
        if self.kind == "xn":
            return rectangular(j % self.n, self.n)
        return alpha(j % self.n, self.n)

    def matrix(self) -> tuple[tuple[int, ...], ...]:
        return tuple(
            tuple(self.distance(i, j) for j in range(self.n))
            for i in range(self.n)
        )
