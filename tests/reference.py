"""Reference forms that no command runs, kept beside the tests that use them.

The strip's site form.  Sites are pairs (i, j) with 0 <= i <= j <= N,
glued by the rule that a position (i, N) is the same site as (0, i).
Canonical representatives therefore satisfy 0 <= i <= j <= N - 1, and
there are N(N+1)/2 sites in total.  The deck transformation of the
orientation double cover is T(i, j) = (j, N + i); it reverses the level
coordinate delta = j - i via delta(T p) = N - delta(p), which is what
makes the strip one-sided.  The package reads the band, its corners, the
fold and the Catalan word off a partition's rows; the tests check those
row rules against this form.

The ring Z[t] (Poly, a census.TPoly with + - * ** and degree; ZERO, ONE
and T) and the transfer-matrix certification of the census on it.  The
3x3 matrices Z, S, A over Z[t] encode how a rim segment crossing one
period of the band m = 1 extends site by site; a summand t^s stands for
a rim with s foldable inner corners, so traces of matrix words
enumerate band partitions weighted by corner count.  The census itself
prints the closed forms those traces take.

The doubly folded family Y_N°° (the band partitions whose fold fibre is
a singleton), counted by a recurrence and by a matrix trace, and the
fold's tau-equivariance defect.

The maximal cubes of the odd cycle hull as shifts of one staircase cube,
which hull.Faces.max_cubes reads off the corner rows a built hull holds
instead (hull.max_cube_decomposition walks Y_N° once for those rows).

The DOT export of a built hull, made from its names, vertices and
edges() and the cubes of max_cube_decomposition, which export.dot_chunks
prints from one walk instead.
"""

from __future__ import annotations

from dataclasses import dataclass

from cyclehull.census import IdentityFailure, TPoly
from cyclehull.hull import CubeCoverFailure, Face, HullComplex, max_cube_decomposition
from cyclehull.moebius import (
    InvalidRim,
    RimPath,
    Site,
    circ_inner_corners,
    enumerate_circ,
    fold,
    fold_fibre_size,
    outer_rim,
)
from cyclehull.partitions import (
    IndexOutOfRange,
    Partition,
    band_limits,
    make_partition,
    size,
    tau,
    young_distance,
)


def canon_site(i: int, j: int, n: int) -> Site:
    """Canonical representative of a strip position.

    The gluing (i, j) ~ (j - N, i) folds any position with j >= N back
    into the triangle 0 <= i <= j <= N - 1; in particular (i, N) ~ (0, i).
    """
    if not (0 <= i <= j <= i + n):
        raise IndexOutOfRange(f"({i},{j}) is not a strip position for N={n}")
    while j >= n:
        i, j = j - n, i
    if not 0 <= i <= j:
        raise IndexOutOfRange(f"({i},{j}) does not reduce to a site for N={n}")
    return (i, j)


def delta(s: Site) -> int:
    return s[1] - s[0]


def rim_to_partition(rim: RimPath, n: int) -> Partition:
    """Recover the partition from its rim; validates the lift thoroughly."""
    lift = rim.lift
    if rim.n != n or len(lift) != n + 1:
        raise InvalidRim(f"lift must have {n + 1} points")
    c = lift[0][1]
    if lift[0] != (0, c) or lift[-1] != (c, n):
        raise InvalidRim("lift must run from (0,c) to (c,N)")
    for (a, b), (a2, b2) in zip(lift, lift[1:]):
        if not (0 <= a <= b <= n):
            raise InvalidRim(f"point ({a},{b}) leaves the strip")
        if (a2 - a, b2 - b) not in ((1, 0), (0, 1)):
            raise InvalidRim(f"({a},{b}) -> ({a2},{b2}) is not a unit step")
    # row r of the partition is the last point of the lift on level N - r
    ends = {j: i for i, j in lift}
    lam = make_partition(ends[n - r] for r in range(1, n - c + 1))
    if outer_rim(lam, n) != rim:
        raise InvalidRim("lift is not the outer rim of any partition")
    return lam


def in_band(s: Site, n: int, m: int) -> bool:
    """Is the site inside the central band of half-width m?"""
    lo, hi = band_limits(n, m)
    return lo <= delta(canon_site(s[0], s[1], n)) <= hi


def boundary_loop(n: int) -> tuple[Site, ...]:
    """The N boundary sites of the band m = 1, in cyclic order.

    Position x carries the site glued from (x, x + k - 1); as x sweeps
    0..N-1 the loop runs once along the lower edge of the band and, after
    the wrap, once along the upper edge.
    """
    k = n // 2
    if k < 1:
        return ()
    return tuple(canon_site(x, x + k - 1, n) for x in range(n))


class Poly(TPoly):
    """A census.TPoly with the arithmetic of Z[t]; every result is a Poly.

    An int operand stands for the constant polynomial.
    """

    __slots__ = ()

    @classmethod
    def const(cls, c: int) -> "Poly":
        return cls((c,))

    @property
    def degree(self):
        """Degree, or None for the zero polynomial."""
        return len(self.coeffs) - 1 if self.coeffs else None

    @staticmethod
    def _as_poly(other):
        if isinstance(other, TPoly):
            return Poly(other.coeffs)
        if isinstance(other, int):
            return Poly((other,))
        return NotImplemented

    def __add__(self, other):
        o = self._as_poly(other)
        if o is NotImplemented:
            return o
        n = max(len(self.coeffs), len(o.coeffs))
        return Poly(self.coeff(v) + o.coeff(v) for v in range(n))

    __radd__ = __add__

    def __neg__(self):
        return Poly(-c for c in self.coeffs)

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
            return ZERO
        out = [0] * (len(self.coeffs) + len(o.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a:
                for j, b in enumerate(o.coeffs):
                    out[i + j] += a * b
        return Poly(out)

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if n < 0:
            raise ValueError(f"Poly power needs n >= 0, got {n}")
        out = ONE
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out


ZERO = Poly(())
ONE = Poly((1,))
T = Poly((0, 1))


def compose(p: TPoly, inner: Poly) -> Poly:
    """Substitute inner for t in p, by Horner evaluation in Z[t]."""
    out = ZERO
    for c in reversed(p.coeffs):
        out = out * inner + c
    return out


@dataclass(frozen=True)
class TMatrix:
    """Small square matrix over Poly."""

    rows: tuple[tuple[Poly, ...], ...]

    def __post_init__(self):
        d = len(self.rows)
        if any(len(r) != d for r in self.rows):
            raise ValueError(f"TMatrix needs {d} rows of length {d}")

    @classmethod
    def from_rows(cls, rows) -> "TMatrix":
        conv = tuple(
            tuple(x if isinstance(x, Poly) else Poly((x,)) for x in row)
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
        if self.dim != other.dim:
            raise ValueError(
                f"TMatrix product of dimensions {self.dim} and {other.dim}"
            )
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

    def scale(self, p: Poly) -> "TMatrix":
        return TMatrix(tuple(tuple(p * a for a in r) for r in self.rows))

    def power(self, n: int) -> "TMatrix":
        if n < 0:
            raise ValueError(f"TMatrix power needs n >= 0, got {n}")
        out = TMatrix.identity(self.dim)
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def trace(self) -> Poly:
        return sum((self.rows[i][i] for i in range(self.dim)), ZERO)


def matrix_Z() -> TMatrix:
    return TMatrix.from_rows([[0, 0, 1], [T, T, 0], [T * T, T, 0]])


def matrix_S() -> TMatrix:
    return TMatrix.from_rows([[1, 1, 0], [T, T, 1], [T, T, T]])


def matrix_A() -> TMatrix:
    return TMatrix.from_rows([[1, 1, 0], [1, 1, 1], [1, 1, 1]])


def matrix_circcirc() -> tuple[TMatrix, TMatrix]:
    m = TMatrix.from_rows([[0, 1, 0], [1, 1, 1], [1, 1, 0]])
    w = TMatrix.from_rows([[0, 0, 1], [1, 1, 0], [0, 1, 0]])
    return m, w


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


def enumerate_circcirc(n: int) -> tuple[Partition, ...]:
    """Partitions of Y_N° whose fold fibre is a singleton."""
    return tuple(
        lam for lam in enumerate_circ(n) if fold_fibre_size(lam, n) == 1
    )


def tau_equivariance_defect(lam: Partition, n: int) -> int:
    """young_distance(fold(tau lam), tau(fold lam)); zero when equivariant."""
    return young_distance(fold(tau(lam, n), n), tau(fold(lam, n), n))


def circcirc_trace(k: int) -> int:
    """The same count as circcirc_count, via the 3x3 transfer matrices."""
    if k < 0:
        raise ValueError(f"circcirc_trace needs k >= 0, got {k}")
    m, w = matrix_circcirc()
    p = (m.power(k) * w).trace()
    if p.degree not in (None, 0):
        raise IdentityFailure(f"circcirc_trace({k}) is {p}")
    return p.coeff(0)


def _series_mul(a: list[Poly], b: list[Poly], order: int) -> list[Poly]:
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
    if k_max < 1:
        raise ValueError(
            f"generating_series_check needs k_max >= 1, got {k_max}"
        )
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


def shifted_cubes(n: int) -> tuple[tuple[Face, ...], tuple[Partition, ...]]:
    """The N maximal k-cubes of the odd cycle hull, N = 2k + 1, as the
    translates of the base cube between the staircases (k-1, .., 1) and
    (k, .., 1) under the shift, plus the hull vertices on none of them.

    Each shift of the members must be the member set of a hull face (its
    rows removable in Y_N°), and the N cubes must be distinct and cover
    1 + N·2^(k-1) vertices; CubeCoverFailure otherwise.  The cubes come
    in shift order, the extras sorted.
    """
    k = n // 2
    staircase = tuple(range(k, 0, -1))
    base = Face(staircase, frozenset(range(1, k + 1)))
    if not base.removed <= circ_inner_corners(staircase, n):
        raise CubeCoverFailure(f"base cube of C_{n} is not a hull face")
    cubes = []
    current = base.members()
    for j in range(n):
        if j:
            current = frozenset(tau(v, n) for v in current)
        top = max(current, key=size)
        bottom = min(current, key=size)
        pad = list(bottom) + [0] * (len(top) - len(bottom))
        rows = frozenset(
            r for r in range(1, len(top) + 1) if top[r - 1] != pad[r - 1]
        )
        face = Face(top, rows)
        if face.members() != current or not rows <= circ_inner_corners(top, n):
            raise CubeCoverFailure(f"shift {j} of the C_{n} base cube")
        cubes.append(face)
    incident = frozenset().union(*(c.members() for c in cubes))
    if len(set(cubes)) != n or len(incident) != 1 + n * 2 ** (k - 1):
        raise CubeCoverFailure(f"C_{n} cubes cover {len(incident)} vertices")
    extras = tuple(sorted(set(enumerate_circ(n)) - incident))
    return tuple(cubes), extras


def dot_text(hull: HullComplex) -> str:
    """The DOT export of a built hull: node n<i> for the i-th vertex of
    hull.names with its name and values, an odd C_N's (N >= 3) role from
    max_cube_decomposition, then the edges() as sorted pairs of ids."""
    ident = {lam: i for i, lam in enumerate(hull.names)}
    extras = None
    if hull.kind == "cycle" and hull.n % 2 and hull.n >= 3:
        extras = frozenset(max_cube_decomposition(hull.n)[1])
    lines = ["graph hull {"]
    for lam, name in hull.names.items():
        values = " ".join(map(str, hull.vertices[lam]))
        attrs = [f'label="{name}"', f'values="{values}"']
        if extras is not None:
            attrs.append(f'role="{"extra" if lam in extras else "cube-member"}"')
        lines.append(f'  n{ident[lam]} [{", ".join(attrs)}];')
    pairs = sorted(sorted((ident[a], ident[b])) for a, b in hull.edges())
    lines += [f"  n{a} -- n{b};" for a, b in pairs]
    return "\n".join(lines + ["}"]) + "\n"
