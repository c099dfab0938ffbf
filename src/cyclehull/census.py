"""Exact census of the hull complexes by transfer matrices.

Everything is computed in Z[t] with arbitrary-precision integers: dense
polynomials (TPoly), small square matrices over them (TMatrix), and the
handful of integer sequences (Lucas, Fibonacci, Catalan) that the face
counts specialize to.  No floating point and no radicals anywhere; the
closed forms that are usually written with square roots are certified
through the equivalent polynomial recurrences instead.

The 3x3 matrices Z, S, A encode how a rim segment crossing one period of
the band m = 1 extends site by site; a summand t^s stands for a rim with
s foldable inner corners, so traces of matrix words enumerate band
partitions weighted by corner count.  The band of half-width m has its
own 0/1 transfer matrices: anti-triangular S_m for odd N and tridiagonal
T_m paired with the antidiagonal J_m for even N.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache


class BadParity(ValueError):
    """Operation defined only for the other parity of N."""


class IdentityFailure(ValueError):
    """An exact identity of the census failed to hold.

    A division left a remainder, two closed forms disagreed, or a trace
    that counts partitions came out with powers of t.
    """


from .moebius import BadBandIndex


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

    @classmethod
    def t(cls) -> "TPoly":
        return cls((0, 1))

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
        assert n >= 0
        out = TPoly((1,))
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def compose(self, inner: "TPoly") -> "TPoly":
        """Substitute inner for t, by Horner evaluation in Z[t]."""
        out = TPoly(())
        for c in reversed(self.coeffs):
            out = out * inner + TPoly((c,))
        return out

    def subs_t_plus_1(self) -> "TPoly":
        return self.compose(TPoly((1, 1)))

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


@dataclass(frozen=True)
class TMatrix:
    """Small square matrix over TPoly."""

    rows: tuple[tuple[TPoly, ...], ...]

    def __post_init__(self):
        d = len(self.rows)
        assert all(len(r) == d for r in self.rows)

    @classmethod
    def from_rows(cls, rows) -> "TMatrix":
        conv = tuple(
            tuple(x if isinstance(x, TPoly) else TPoly((x,)) for x in row)
            for row in rows
        )
        return cls(conv)

    @classmethod
    def identity(cls, d: int) -> "TMatrix":
        return cls.from_rows(
            [[1 if i == j else 0 for j in range(d)] for i in range(d)]
        )

    @property
    def dim(self) -> int:
        return len(self.rows)

    def __mul__(self, other: "TMatrix") -> "TMatrix":
        d = self.dim
        assert d == other.dim
        cols = tuple(zip(*other.rows))
        return TMatrix(
            tuple(
                tuple(
                    sum((a * b for a, b in zip(row, col)), ZERO)
                    for col in cols
                )
                for row in self.rows
            )
        )

    def __add__(self, other: "TMatrix") -> "TMatrix":
        return TMatrix(
            tuple(
                tuple(a + b for a, b in zip(r1, r2))
                for r1, r2 in zip(self.rows, other.rows)
            )
        )

    def __sub__(self, other: "TMatrix") -> "TMatrix":
        return TMatrix(
            tuple(
                tuple(a - b for a, b in zip(r1, r2))
                for r1, r2 in zip(self.rows, other.rows)
            )
        )

    def scale(self, p: TPoly) -> "TMatrix":
        return TMatrix(tuple(tuple(p * a for a in r) for r in self.rows))

    def power(self, n: int) -> "TMatrix":
        assert n >= 0
        out = TMatrix.identity(self.dim)
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def trace(self) -> TPoly:
        return sum((self.rows[i][i] for i in range(self.dim)), ZERO)

    def to_json(self) -> list[str]:
        """Row-major list of polynomial strings."""
        return [str(e) for row in self.rows for e in row]


def matrix_Z() -> TMatrix:
    return TMatrix.from_rows([[0, 0, 1], [T, T, 0], [T * T, T, 0]])


def matrix_S() -> TMatrix:
    return TMatrix.from_rows([[1, 1, 0], [T, T, 1], [T, T, T]])


def matrix_A() -> TMatrix:
    return TMatrix.from_rows([[1, 1, 0], [1, 1, 1], [1, 1, 1]])


def matrix_Sm(m: int) -> TMatrix:
    """(m+1)x(m+1) 0/1 matrix with ones on the two lowest antidiagonals.

    Entry (i, j) is 1 exactly when i + j is m or m + 1; its N-th power's
    trace counts the rims confined to the odd band of half-width m.
    """
    return TMatrix.from_rows(
        [
            [1 if i + j in (m, m + 1) else 0 for j in range(m + 1)]
            for i in range(m + 1)
        ]
    )


def matrix_Tm(m: int) -> TMatrix:
    """Tridiagonal (m+1)x(m+1): off-diagonal 1, diagonal (1, 2, .., 2, 1)."""
    rows = []
    for i in range(m + 1):
        row = [0] * (m + 1)
        row[i] = 1 if i in (0, m) else 2
        if i > 0:
            row[i - 1] = 1
        if i < m:
            row[i + 1] = 1
        rows.append(row)
    return TMatrix.from_rows(rows)


def matrix_Jm(m: int) -> TMatrix:
    return TMatrix.from_rows(
        [
            [1 if i + j == m else 0 for j in range(m + 1)]
            for i in range(m + 1)
        ]
    )


def _exact_div(num: int, den: int) -> int:
    q, r = divmod(num, den)
    if r:
        raise IdentityFailure(f"{num} / {den} leaves remainder {r}")
    return q


@lru_cache(maxsize=None)
def corner_enumerator(n: int) -> TPoly:
    """Generating polynomial of Y_N° by number of removable corners.

    The coefficient of t^s counts the band partitions with s corners
    whose removal stays in the band; computed as tr(S^(k-1) Z A).  The
    constant term is 1 and the linear coefficient is N for every odd N.
    """
    if n % 2 == 0:
        raise BadParity(f"corner enumerator needs odd N, got {n}")
    if n < 3:
        raise ValueError(f"corner enumerator needs N >= 3, got {n}")
    k = n // 2
    return (matrix_S().power(k - 1) * matrix_Z() * matrix_A()).trace()


def an_bn(n: int) -> tuple[TPoly, TPoly]:
    """The pair (a_n, b_n) with S^n = a_n S + b_n (S^2 - (1+t) S).

    a_n has coefficients C(2(n-1)-j, j) and b_n the shifted C(2(n-1)-1-j, j);
    they satisfy a_(n+1) = (1+t) a_n + t b_n and b_(n+1) = a_n + t b_n.
    """
    assert n >= 1

    def binom_poly(top_base: int) -> TPoly:
        coeffs = []
        j = 0
        while top_base - j >= j:
            coeffs.append(math.comb(top_base - j, j))
            j += 1
        return TPoly(coeffs)

    if n == 1:
        return ONE, ZERO
    return binom_poly(2 * (n - 1)), binom_poly(2 * (n - 1) - 1)


@lru_cache(maxsize=None)
def face_polynomial(n: int) -> TPoly:
    """Sum over all faces of the cycle hull of t^dim.

    Odd N: substitute t <- 1 + t into the corner enumerator (every subset
    of removable corners spans a face).  Even N: (2 + t)^(N/2), the face
    polynomial of a cube.  N = 1: a single point.
    """
    if n < 1:
        raise ValueError(f"N must be >= 1, got {n}")
    if n == 1:
        return ONE
    if n % 2 == 0:
        return TPoly((2, 1)) ** (n // 2)
    return corner_enumerator(n).subs_t_plus_1()


def face_count(n: int, v: int) -> int:
    """Number of v-dimensional faces of the odd cycle hull, two ways.

    Both closed forms are evaluated with checked exact division:
      2^(2v+1-N) * Σ_s C(N,2s) C(s,v) 5^(s-v)
      Σ_s N/(N-s) * C(N-s,s) * C(s,v)
    and they must agree.
    """
    if n % 2 == 0:
        raise BadParity(f"face_count needs odd N, got {n}")
    if n < 1 or v < 0:
        raise ValueError((n, v))
    top = (n - 1) // 2
    if v > top:
        return 0
    acc = 0
    for s in range(v, top + 1):
        acc += math.comb(n, 2 * s) * math.comb(s, v) * 5 ** (s - v)
    first = _exact_div(acc, 2 ** (n - 2 * v - 1))
    second = 0
    for s in range(v, top + 1):
        second += _exact_div(n * math.comb(n - s, s), n - s) * math.comb(s, v)
    if first != second:
        raise IdentityFailure(
            f"face_count({n}, {v}): closed forms give {first} and {second}"
        )
    return first


def sequences(n: int) -> tuple[int, int, int]:
    """(Lucas_n, Fibonacci_n, Catalan_n) by exact integer recurrences."""
    assert n >= 0
    lu, lv = 2, 1
    fu, fv = 0, 1
    for _ in range(n):
        lu, lv = lv, lu + lv
        fu, fv = fv, fu + fv
    cat = _exact_div(math.comb(2 * n, n), n + 1)
    return lu, fu, cat


def count_band(n: int, m: int) -> int:
    """Number of partitions whose rim stays in the band of half-width m.

    Odd N: trace of S_m^N.  Even N = 2k: trace of J_m T_m^k.
    """
    k = n // 2
    if not 1 <= m <= k:
        raise BadBandIndex(f"band index {m} not in [1, {k}]")
    if n % 2:
        p = matrix_Sm(m).power(n).trace()
    else:
        p = (matrix_Jm(m) * matrix_Tm(m).power(k)).trace()
    if p.degree not in (None, 0):
        raise IdentityFailure(f"count_band({n}, {m}) trace is {p}")
    return p.coeff(0)


def matrix_circcirc() -> tuple[TMatrix, TMatrix]:
    m = TMatrix.from_rows([[0, 1, 0], [1, 1, 1], [1, 1, 0]])
    w = TMatrix.from_rows([[0, 0, 1], [1, 1, 0], [0, 1, 0]])
    return m, w


def circcirc_count(k: int) -> int:
    """Number of singleton-fibre band partitions for N = 2k+1.

    Coefficient of q^k in (1 + 3q) / (1 - q - 2q^2 - q^3), by the linear
    recurrence u_k = u_(k-1) + 2 u_(k-2) + u_(k-3).
    """
    assert k >= 0
    u = [1, 4, 6]
    if k < 3:
        return u[k]
    for _ in range(3, k + 1):
        u.append(u[-1] + 2 * u[-2] + u[-3])
    return u[-1]


def circcirc_trace(k: int) -> int:
    """The same count as circcirc_count, via the 3x3 transfer matrices."""
    assert k >= 0
    m, w = matrix_circcirc()
    p = (m.power(k) * w).trace()
    if p.degree not in (None, 0):
        raise IdentityFailure(f"circcirc_trace({k}) is {p}")
    return p.coeff(0)


def _series_mul(a: list[TPoly], b: list[TPoly], order: int) -> list[TPoly]:
    out = [ZERO] * (order + 1)
    for i, x in enumerate(a[: order + 1]):
        for j, y in enumerate(b[: order + 1]):
            if i + j <= order:
                out[i + j] = out[i + j] + x * y
    return out


def generating_series_check(k_max: int) -> bool:
    """Certify the rational generating series of the corner enumerators.

    Checks, as truncated power series in q over Z[t], that
      (1 + Σ_(k>=1) tr(S^(k+1) - t S^k) q^k) * (1 - (1+2t) q + t^2 q^2)
    equals 1 + t q up to order k_max, and that the traces tr(S^k) obey
    the recurrence read off the denominator from k = 3 on.
    """
    assert k_max >= 1
    s = matrix_S()
    powers = [TMatrix.identity(3)]
    for _ in range(k_max + 1):
        powers.append(powers[-1] * s)
    traces = [p.trace() for p in powers]
    series = [ONE] + [
        traces[k + 1] - T * traces[k] for k in range(1, k_max + 1)
    ]
    denom = [ONE, -(ONE + T + T), T * T] + [ZERO] * max(0, k_max - 2)
    lhs = _series_mul(series, denom, k_max)
    want = [ONE, T] + [ZERO] * (k_max - 1)
    if lhs != want[: k_max + 1]:
        return False
    for k in range(3, k_max + 2):
        if traces[k] != (ONE + T + T) * traces[k - 1] - T * T * traces[k - 2]:
            return False
    return True
