"""Exact census of the hull complexes in closed forms.

Every count is an arbitrary-precision integer: the coefficients of a
polynomial in t (TPoly, which holds, evaluates and prints them) and the
handful of integer sequences (Lucas, Fibonacci, Catalan) that the face
counts specialize to.  No floating point and no radicals anywhere; the
closed forms that are usually written with square roots are certified
through the equivalent polynomial recurrences instead.

Each count is the closed form of a transfer-matrix trace: the corner
enumerator's coefficients count the matchings of the N-cycle, and
count_band, for a band of any half-width and either parity of N, is a
sum of binomials by André's reflection.  The matrices, and the Z[t]
arithmetic they run on, are kept beside the tests, which check the
closed forms against them.
"""

from __future__ import annotations

import math


class BadParity(ValueError):
    """Operation defined only for the other parity of N."""


class IdentityFailure(ValueError):
    """An exact identity of the census failed to hold.

    A division left a remainder, or two closed forms disagreed.
    """


class TPoly:
    """A polynomial in t as its integer coefficients, lowest degree first.

    Immutable; trailing zero coefficients are never stored, so the zero
    polynomial has an empty coefficient tuple.  It holds, evaluates and
    prints the census; the arithmetic of Z[t] is a reference beside the
    tests.  Equality and hashing go by the coefficient tuple.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=()):
        c = list(coeffs)
        while c and c[-1] == 0:
            c.pop()
        object.__setattr__(self, "coeffs", tuple(int(x) for x in c))

    def __setattr__(self, *a):
        raise AttributeError("TPoly is immutable")

    def coeff(self, v: int) -> int:
        return self.coeffs[v] if 0 <= v < len(self.coeffs) else 0

    def __call__(self, x: int) -> int:
        out = 0
        for c in reversed(self.coeffs):
            out = out * x + c
        return out

    def __eq__(self, other):
        if not isinstance(other, TPoly):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def __repr__(self):
        return f"TPoly({self.coeffs!r})"

    def __str__(self):
        if not self.coeffs:
            return "0"
        s = ""
        for v, c in enumerate(self.coeffs):
            if c == 0:
                continue
            mag = abs(c)
            if v == 0:
                term = str(mag)
            else:
                head = "" if mag == 1 else f"{mag}*"
                term = head + ("t" if v == 1 else f"t^{v}")
            if not s:
                s = term if c > 0 else "-" + term
            else:
                s += (" + " if c > 0 else " - ") + term
        return s


def _exact_div(num: int, den: int) -> int:
    q, r = divmod(num, den)
    if r:
        raise IdentityFailure(f"{num} / {den} leaves remainder {r}")
    return q


def _cycle_matchings(n: int, s: int) -> int:
    """Number of s-edge matchings of the N-cycle, N/(N-s) * C(N-s, s)."""
    return _exact_div(n * math.comb(n - s, s), n - s)


def corner_enumerator(n: int) -> TPoly:
    """Generating polynomial of Y_N° by number of removable corners.

    The coefficient of t^s counts the band partitions with s corners
    whose removal stays in the band.  The transfer matrices give it as
    tr(S^(k-1) Z A) for N = 2k+1; in closed form the coefficient of t^s
    is the number of s-edge matchings of the N-cycle, N/(N-s) C(N-s, s),
    for s = 0 .. k.  The constant term is 1, the linear coefficient is N,
    and the coefficients sum to the Lucas number L_N.
    """
    if n % 2 == 0:
        raise BadParity(f"corner enumerator needs odd N, got {n}")
    if n < 3:
        raise ValueError(f"corner enumerator needs N >= 3, got {n}")
    return TPoly(_cycle_matchings(n, s) for s in range(n // 2 + 1))


def face_polynomial(n: int) -> TPoly:
    """Sum over all faces of the cycle hull of t^dim.

    Odd N: the corner enumerator at 1 + t (every subset of removable
    corners spans a face), 2^(1-N) Σ_j C(N,2j) (5+4t)^j.  With u^2 = 5+4t,
    w = (1+u)^N + (1-u)^N solves (1-u^2) w'' + 2(N-1) u w' = N(N-1) w, so
      5(v+1)(v+2) f_(v+2) = (v+1)(5N-7-9v) f_(v+1) - (2v-N)(2v-N+1) f_v
    by exact divisions from f_0 = L_N and f_1 = N F_(N-1), checked at the
    end by p(1) = 2^N - 1 and p(-1) = 1.  Even N = 2k: the face polynomial
    of the k-cube, (2 + t)^k, whose coefficient of t^v is C(k, v) 2^(k-v).
    N = 1: a single point, [L_1, F_0] = [1, 0].
    """
    if n < 1:
        raise ValueError(f"N must be >= 1, got {n}")
    if n % 2 == 0:
        k = n // 2
        return TPoly(math.comb(k, v) << (k - v) for v in range(k + 1))
    lucas, fib = _lucas_fibonacci(n)
    f = [lucas, n * _exact_div(lucas - fib, 2)]  # L_N - F_N = 2 F_(N-1)
    for v in range(n // 2 - 1):
        a, b = (v + 1) * (5 * n - 7 - 9 * v), (2 * v - n) * (2 * v - n + 1)
        f.append(_exact_div(a * f[-1] - b * f[-2], 5 * (v + 1) * (v + 2)))
    p = TPoly(f)
    if p(1) != 2**n - 1 or p(-1) != 1:
        raise IdentityFailure(f"face_polynomial({n}): wrong p(1) or p(-1)")
    return p


def face_count(n: int, v: int) -> int:
    """Number of v-dimensional faces of the odd cycle hull, two ways.

    The coefficient of t^v in face_polynomial(n), that is by recurrence
    2^(2v+1-N) Σ_s C(N,2s) C(s,v) 5^(s-v), must agree with the cycle
    matchings sum Σ_s N/(N-s) C(N-s,s) C(s,v).
    """
    if n % 2 == 0:
        raise BadParity(f"face_count needs odd N, got {n}")
    if n < 1:
        raise ValueError(f"face_count needs N >= 1, got N = {n}")
    if v < 0:
        raise ValueError(
            f"face dimension v must be >= 0, got v = {v} for N = {n}"
        )
    top = (n - 1) // 2
    if v > top:
        return 0
    first = face_polynomial(n).coeff(v)
    second = 0
    for s in range(v, top + 1):
        second += _cycle_matchings(n, s) * math.comb(s, v)
    if first != second:
        raise IdentityFailure(
            f"face_count({n}, {v}): closed forms give {first} and {second}"
        )
    return first


def _lucas_fibonacci(n: int) -> tuple[int, int]:
    # (Lucas_n, Fibonacci_n) for n >= 0; L_n = F_(n-1) + F_(n+1)
    fu, fv = 0, 1
    for _ in range(n):
        fu, fv = fv, fu + fv
    return 2 * fv - fu, fu


def sequences(n: int) -> tuple[int, int, int]:
    """(Lucas_n, Fibonacci_n, Catalan_n) by exact integer recurrences."""
    if n < 0:
        raise ValueError(f"sequences needs n >= 0, got {n}")
    return (*_lucas_fibonacci(n), _exact_div(math.comb(2 * n, n), n + 1))


def count_band(n: int, m: int) -> int:
    """Number of partitions whose rim stays in the band of half-width m.

    With (lo, hi) = partitions.band_limits(n, m), the outer rim of lam is a
    walk of N steps of +-1 in delta, from the width lam_1 to its mirror
    level N - lam_1, and lam is in the band when the walk stays on the
    P - 1 levels lo .. hi, P = hi - lo + 2 (2m + 3 for odd N, 2m + 2 for
    even N).  Conversely a walk from d to N - d on those levels is a rim
    exactly when its last step goes up; the mirror delta -> N - delta
    keeps the levels (lo + hi = N) and flips every step, so summing over
    all start levels counts each band partition twice.  André's
    reflection in the walls lo - 1 and hi + 1 counts the walks from d to
    N - d as
      Σ_i C(N, (N + P)/2 - (d - lo + 1) + iP) - C(N, (N + P)/2 + iP);
    over the P - 1 start levels the first terms take every residue mod P
    except (N + P)/2 once, so the total is 2^N - P Σ_(j = (N+P)/2 mod P)
    C(N, j).  This is the trace of the band's transfer matrix: for odd N
    tr(S_m^N), S_m the adjacency matrix of a path with one loop, whose
    unfolding is the path on the P - 1 levels.
    """
    from .partitions import band_limits  # census --n loads no other module

    lo, hi = band_limits(n, m)
    p = hi - lo + 2
    j = (n + p) // 2 % p
    c, hits = math.comb(n, j), 0
    while j <= n:
        hits += c
        # C(N, j + P) = C(N, j) (N - j)! / (N - j - P)! / ((j + P)! / j!)
        c = c * math.perm(n - j, p) // math.perm(j + p, p)
        j += p
    return _exact_div(2**n - p * hits, 2)
