"""Exact census of the hull complexes in closed forms.

Everything is computed in Z[t] with arbitrary-precision integers: dense
polynomials (TPoly) and the handful of integer sequences (Lucas,
Fibonacci, Catalan) that the face counts specialize to.  No floating
point and no radicals anywhere; the closed forms that are usually
written with square roots are certified through the equivalent
polynomial recurrences instead.

Each count is the closed form of a transfer-matrix trace: the corner
enumerator's coefficients count the matchings of the N-cycle, and
count_band, for a band of any half-width and either parity of N, is a
sum of binomials by André's reflection.  The matrices themselves are
kept beside the tests, which check the closed forms against them.
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
    """Dense univariate polynomial over arbitrary-precision integers.

    Immutable; trailing zero coefficients are never stored, so the zero
    polynomial has an empty coefficient tuple and degree None.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=()):
        c = list(coeffs)
        while c and c[-1] == 0:
            c.pop()
        object.__setattr__(self, "coeffs", tuple(int(x) for x in c))

    def __setattr__(self, *a):
        raise AttributeError("TPoly is immutable")

    @classmethod
    def const(cls, c: int) -> "TPoly":
        return cls((c,))

    @property
    def degree(self):
        """Degree, or None for the zero polynomial."""
        return len(self.coeffs) - 1 if self.coeffs else None

    def coeff(self, v: int) -> int:
        return self.coeffs[v] if 0 <= v < len(self.coeffs) else 0

    def _as_poly(self, other):
        if isinstance(other, TPoly):
            return other
        if isinstance(other, int):
            return TPoly((other,))
        return NotImplemented

    def __add__(self, other):
        o = self._as_poly(other)
        if o is NotImplemented:
            return o
        n = max(len(self.coeffs), len(o.coeffs))
        return TPoly(
            tuple(self.coeff(v) + o.coeff(v) for v in range(n))
        )

    __radd__ = __add__

    def __neg__(self):
        return TPoly(tuple(-c for c in self.coeffs))

    def __sub__(self, other):
        o = self._as_poly(other)
        if o is NotImplemented:
            return o
        return self + (-o)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        o = self._as_poly(other)
        if o is NotImplemented:
            return o
        if not self.coeffs or not o.coeffs:
            return TPoly(())
        out = [0] * (len(self.coeffs) + len(o.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a:
                for j, b in enumerate(o.coeffs):
                    out[i + j] += a * b
        return TPoly(out)

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if n < 0:
            raise ValueError(f"TPoly power needs n >= 0, got {n}")
        out = TPoly((1,))
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def __call__(self, x: int) -> int:
        out = 0
        for c in reversed(self.coeffs):
            out = out * x + c
        return out

    def __eq__(self, other):
        o = self._as_poly(other)
        return NotImplemented if o is NotImplemented else self.coeffs == o.coeffs

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


ZERO = TPoly(())
ONE = TPoly((1,))
T = TPoly((0, 1))


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
    end by p(1) = 2^N - 1 and p(-1) = 1.  Even N: (2 + t)^(N/2), the face
    polynomial of a cube.  N = 1: a single point, [L_1, F_0] = [1, 0].
    """
    if n < 1:
        raise ValueError(f"N must be >= 1, got {n}")
    if n % 2 == 0:
        return TPoly((2, 1)) ** (n // 2)
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


def circcirc_count(k: int) -> int:
    """Number of singleton-fibre band partitions for N = 2k+1.

    Coefficient of q^k in (1 + 3q) / (1 - q - 2q^2 - q^3), by the linear
    recurrence u_k = u_(k-1) + 2 u_(k-2) + u_(k-3).
    """
    if k < 0:
        raise ValueError(f"circcirc_count needs k >= 0, got {k}")
    u = [1, 4, 6]
    if k < 3:
        return u[k]
    for _ in range(3, k + 1):
        u.append(u[-1] + 2 * u[-2] + u[-3])
    return u[-1]
