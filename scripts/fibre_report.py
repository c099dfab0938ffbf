"""List fold-fibre sizes over Y_N° grouped into shift orbits.

One line per orbit: a representative, the Catalan word of its fibre, the
size of the fibre counted from fibre_walk's stream, with no member held,
and the orbit length.  The weighted total must come out to 2^(N-1), one
preimage for every partition of Y_N; the script exits 1 when it does not.
"""

import argparse
import sys

from cyclehull.moebius import (
    enumerate_circ,
    fibre_factorization,
    fibre_walk,
)
from cyclehull.partitions import format_partition
from cyclehull.spaces import tau_orbits


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--n", type=int, default=11)
    args = ap.parse_args()
    n = args.n

    pool = dict.fromkeys(enumerate_circ(n))
    total = 0
    orbits = 0
    for orbit in tau_orbits(pool, n):
        lam, period = orbit[0], len(set(orbit))
        orbits += 1
        size = sum(1 for _ in fibre_walk(lam, n))
        word = fibre_factorization(lam, n)
        total += size * period
        name = format_partition(lam) or "()"
        print(f"{name:24s} {word:28s} size {size:4d}  orbit {period:3d}")
    relation = "=" if total == 2 ** (n - 1) else "!="
    print(f"[{orbits} orbits, {len(pool)} vertices, "
          f"fibre total {total} {relation} 2^{n - 1}]")
    return 0 if relation == "=" else 1


if __name__ == "__main__":
    sys.exit(main())
