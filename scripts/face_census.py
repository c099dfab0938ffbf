"""Tabulate hull face counts for cycles and check them against the hulls.

For each odd N the face polynomial (by its coefficient recurrence, which
the census checks by p(1) = 2^N - 1 and p(-1) = 1) must agree with the
f-vector of the constructed complex; the even rows are pure powers
(2+t)^(N/2).  With --build the exit status is 1 if any row prints
MISMATCH.
"""

import argparse
import sys

from cyclehull.census import face_polynomial
from cyclehull.hull import build_hull


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--max-n", type=int, default=13)
    ap.add_argument("--build", action="store_true",
                    help="also build each complex and cross-check")
    args = ap.parse_args()

    failed = False
    for n in range(2, args.max_n + 1):
        poly = face_polynomial(n)
        total = poly(1)
        euler = poly(-1)
        row = f"N={n:2d}  faces={total:6d}  euler={euler:2d}  {poly}"
        if args.build:
            fv = build_hull("cycle", n).f_vector()
            ok = fv == poly.coeffs
            failed |= not ok
            row += f"  [{'ok' if ok else 'MISMATCH'}]"
        print(row)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
