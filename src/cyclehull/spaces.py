"""The shift tau of Y_N and the two model spaces inside it.

tau has order N and acts by isometries of the Young lattice distance;
it permutes the rectangles R_j of X_N and the near-staircases alpha_j
of C_N cyclically.  Of the commands, only the odd cycle's DOT export
loads this module, through hull.
"""

from __future__ import annotations

from typing import Collection, Iterator

from .partitions import (
    IndexOutOfRange,
    OrbitLeavesPool,
    OrbitNotClosed,
    Partition,
    require_space,
    require_YN,
)


def young_distance(lam: Partition, mu: Partition) -> int:
    """Graph distance in the Young lattice: boxes added plus boxes removed.

    Equals |lam| + |mu| - 2 * |lam intersect mu| where the intersection is
    the rowwise minimum diagram.
    """
    common = sum(min(a, b) for a, b in zip(lam, mu))
    return sum(lam) + sum(mu) - 2 * common


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


def model_matrix(kind: str, n: int) -> tuple[tuple[int, ...], ...]:
    """Distances of the N model points of a hull: R_0..R_{N-1} at
    |i-j|(N-|i-j|) for 'xn', the N-cycle alpha_0..alpha_{N-1} for 'cycle'."""
    require_space(kind, n)
    distance = xn_distance if kind == "xn" else cycle_distance
    return tuple(tuple(distance(i, j, n) for j in range(n)) for i in range(n))
