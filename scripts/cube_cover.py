"""Report the maximal-cube cover of an odd cycle hull.

Prints the N top partitions of the maximal k-cubes, sorted by top, the
number of vertices they cover, and the leftover vertices lying on no
maximal cube.
"""

import argparse

from cyclehull.hull import max_cube_decomposition
from cyclehull.partitions import format_partition


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--n", type=int, default=9)
    args = ap.parse_args()
    n = args.n
    if n % 2 == 0 or n < 3:
        ap.error("--n must be an odd number >= 3")

    cubes, extras = max_cube_decomposition(n)
    k = n // 2
    for i, cube in enumerate(cubes):
        print(f"cube {i:2d}: top {format_partition(cube.top):20s} "
              f"rows {sorted(cube.removed)}")
    covered = frozenset().union(*(c.members() for c in cubes))
    print(f"[{len(cubes)} cubes of dimension {k}, "
          f"{len(covered)} = 1 + {n} * 2^{k - 1} vertices covered]")
    if extras:
        print(f"{len(extras)} vertices on no maximal cube:")
        for lam in extras:
            print(f"  {format_partition(lam)}")
    else:
        print("every vertex lies on a maximal cube")


if __name__ == "__main__":
    main()
