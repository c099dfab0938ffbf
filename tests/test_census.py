import math
import operator
import random
from collections import Counter

import pytest
from hypothesis import given
import hypothesis.strategies as st

from cyclehull.census import (
    TPoly,
    BadParity,
    corner_enumerator,
    count_band,
    face_count,
    face_polynomial,
    sequences,
)
from cyclehull.hull import build_hull
from cyclehull.moebius import (
    _fibre_rows,
    enumerate_band_partitions,
    enumerate_circ,
    fold,
    fold_fibre_size,
)
from cyclehull.partitions import (
    band_limits,
    band_rows,
    circ_rows,
    enumerate_YN,
    removable_rows,
    row_count,
)
from reference import (
    ONE,
    T,
    ZERO,
    Poly,
    TMatrix,
    circcirc_count,
    circcirc_trace,
    compose,
    generating_series_check,
    matrix_A,
    matrix_S,
    matrix_Z,
)


def test_tpoly_str():
    assert str(face_polynomial(7)) == "29 + 56*t + 35*t^2 + 7*t^3"
    assert str((Poly.const(2) + T) ** 3) == "8 + 12*t + 6*t^2 + t^3"
    assert str(ZERO) == "0"
    assert str(ONE - T) == "1 - t"
    assert str(T ** 4) == "t^4"


def test_tpoly_arithmetic():
    p = (ONE + T) * (ONE - T)
    assert p == ONE - T * T
    assert p(3) == -8
    assert compose(T ** 2, ONE + T) == ONE + 2 * T + T ** 2


@given(st.integers(0, 6), st.integers(0, 6))
def test_tpoly_eval_commutes_with_product(a, b):
    p = ONE + a * T
    q = Poly.const(b) + T ** 2
    assert (p * q)(5) == p(5) * q(5)


def test_transfer_matrix_identities():
    s = matrix_S()
    z = matrix_Z()
    a = matrix_A()
    assert z * a == s * s - s.scale(T)
    assert s.trace() == ONE + 2 * T


def test_corner_enumerator_counts_corners():
    from cyclehull.moebius import circ_inner_corners

    for n in (3, 5, 7, 9):
        poly = corner_enumerator(n)
        hist = [0] * (n // 2 + 1)
        for lam in enumerate_circ(n):
            hist[len(circ_inner_corners(lam, n))] += 1
        while hist and hist[-1] == 0:
            hist.pop()
        assert list(poly.coeffs) == hist
    # the reference is the matrix word tr(S^(k-1) Z A), kept only here
    s, za = matrix_S(), matrix_Z() * matrix_A()
    for n in range(3, 82, 2):
        assert corner_enumerator(n) == (s.power(n // 2 - 1) * za).trace()


def test_corner_enumerator_lucas_form():
    # coefficient of t^s is N/(N-s) C(N-s, s); they sum to Lucas_N
    for n in range(3, 302, 2):
        want = []
        for s in range(n // 2 + 1):
            q, r = divmod(n * math.comb(n - s, s), n - s)
            assert r == 0
            want.append(q)
        assert corner_enumerator(n) == TPoly(want)
        assert sum(want) == sequences(n)[0]


def test_corner_enumerator_parity():
    with pytest.raises(BadParity):
        corner_enumerator(6)
    with pytest.raises(ValueError):
        corner_enumerator(1)


def test_face_polynomial_small():
    assert face_polynomial(1) == ONE
    assert str(face_polynomial(5)) == "11 + 15*t + 5*t^2"
    assert face_polynomial(6) == (Poly.const(2) + T) ** 3
    # the even branch is the k-cube's closed form; the ring's power is
    # the reference
    for n in range(2, 401, 2):
        k = n // 2
        p = face_polynomial(n)
        assert p == (Poly.const(2) + T) ** k, n
        assert p(1) == 3 ** k and p(-1) == 1, n


def test_face_polynomial_recurrence_equals_the_matchings_route():
    # the corner enumerator (cycle matchings) at 1 + t, by composition
    for n in range(3, 402, 2):
        want = compose(corner_enumerator(n), ONE + T)
        assert face_polynomial(n) == want, n


def test_face_polynomial_far_out():
    n = 10001
    p = face_polynomial(n)
    assert p.coeff(0) == sequences(n)[0]
    assert p.coeff(1) == n * sequences(n - 1)[1]
    assert p(1) == 2 ** n - 1
    assert p(-1) == 1
    assert len(p.coeffs) == n // 2 + 1


def test_xn_hull_census_in_closed_form():
    # Y_N holds C(N, 2c) partitions with c corner rows, so the X_N hull's
    # face polynomial is p(t) = sum_c C(N, 2c) (1 + t)^c
    for n in range(1, 16):
        rows = band_rows(n, 0, n)
        corners = Counter(len(removable_rows(lam, rows)) for lam in enumerate_YN(n))
        assert corners == {c: math.comb(n, 2 * c) for c in range(n // 2 + 1)}, n
        p = TPoly(
            sum(math.comb(n, 2 * c) * math.comb(c, v) for c in range(v, n // 2 + 1))
            for v in range(n // 2 + 1)
        )
        assert build_hull("xn", n).f_vector() == p.coeffs, n
        assert p(-1) == 1, n
    assert p(1) == 275_807


def test_face_count_matches_polynomial():
    for n in (5, 7, 9, 11):
        poly = face_polynomial(n)
        for v, c in enumerate(poly.coeffs):
            assert face_count(n, v) == c
    poly = face_polynomial(1001)
    assert poly(1) == 2 ** 1001 - 1
    assert poly(-1) == 1
    for v in (0, 1, 2, 250, 499, 500):
        assert poly.coeff(v) == face_count(1001, v)


def test_sequences():
    lucas = [2, 1, 3, 4, 7, 11, 18, 29, 47, 76, 123, 199]
    fib = [0, 1, 1, 2, 3, 5, 8, 13, 21, 34, 55, 89]
    cat = [1, 1, 2, 5, 14, 42, 132, 429, 1430, 4862]
    for n in range(10):
        l, f, c = sequences(n)
        assert (l, f, c) == (lucas[n], fib[n], cat[n])


def test_count_band_agrees_with_enumeration():
    for n in range(2, 12):
        for m in range(1, n // 2 + 1):
            assert count_band(n, m) == len(enumerate_band_partitions(n, m))


def test_count_band_extremes():
    assert count_band(11, 5) == len(enumerate_YN(11))
    assert count_band(13, 1) == sequences(13)[0]
    # up to N = 2001, where no enumeration or matrix trace reaches: the
    # widest band is all of Y_N, the band m = 1 is Y_N° (Lucas_N for odd
    # N, a cube of dimension N/2 for even N)
    lucas, lucas_next = 2, 1  # Lucas_n, Lucas_(n+1)
    for n in range(2002):
        if n >= 2:
            assert count_band(n, n // 2) == 2 ** (n - 1), n
            want = lucas if n % 2 else 2 ** (n // 2)
            assert count_band(n, 1) == want, n
        lucas, lucas_next = lucas_next, lucas + lucas_next


def _int_mul(a, b):
    cols = list(zip(*b))
    return [[sum(map(operator.mul, row, col)) for col in cols] for row in a]


def _int_power(a, e):
    out = [[int(i == j) for j in range(len(a))] for i in range(len(a))]
    while e:
        if e & 1:
            out = _int_mul(out, a)
        a = _int_mul(a, a)
        e >>= 1
    return out


def _band_trace(n, m):
    # the 0/1 transfer matrices of the band m, kept only here: tr(S_m^N)
    # for odd N, with S_m[i][j] = 1 iff i + j is m or m + 1; tr(J_m T_m^k)
    # for even N = 2k, with J_m antidiagonal and T_m tridiagonal, off
    # the diagonal 1 and on it (1, 2, .., 2, 1)
    idx = range(m + 1)
    if n % 2:
        s_m = [[int(i + j in (m, m + 1)) for j in idx] for i in idx]
        word = _int_power(s_m, n)
    else:
        t_m = [
            [(1 if i in (0, m) else 2) if i == j else int(abs(i - j) == 1)
             for j in idx]
            for i in idx
        ]
        j_m = [[int(i + j == m) for j in idx] for i in idx]
        word = _int_mul(j_m, _int_power(t_m, n // 2))
    return sum(word[i][i] for i in idx)


def test_row_count_meets_the_closed_forms():
    # past any walk: count_band on every band for N <= 60, 2^(N-1) on Y_N
    # for N = 1, 11, ..., 101, L_N on Y_N° for odd N <= 101, and the
    # Catalan word of seeded random fold fibres at N = 41
    for n in range(2, 61):
        for m in range(1, n // 2 + 1):
            assert row_count(n, band_rows(n, *band_limits(n, m))) == count_band(n, m)
    for n in range(1, 102, 10):
        assert row_count(n, band_rows(n, 0, n)) == 2 ** (n - 1), n
    for n in range(3, 102, 2):
        assert row_count(n, circ_rows(n)) == sequences(n)[0], n
    rng = random.Random(41)
    n = 41
    for _ in range(30):
        width = rng.randrange(n)
        parts = sorted(
            (rng.randint(1, width) for _ in range(rng.randrange(n - width))),
            reverse=True,
        )
        lam0 = fold((width, *parts) if width else (), n)
        assert row_count(n, _fibre_rows(lam0, n)) == fold_fibre_size(lam0, n), lam0


def test_count_band_equals_transfer_matrix_traces():
    cases = [(n, m) for n in range(2, 61) for m in range(1, n // 2 + 1)]
    for n, m in cases + [(101, 20), (201, 40)]:
        assert count_band(n, m) == _band_trace(n, m), (n, m)


def test_circcirc():
    want = [1, 4, 6, 15, 31, 67, 144, 309, 664, 1426]
    for k in range(10):
        assert circcirc_count(k) == want[k]
        assert circcirc_trace(k) == want[k]
    for k in range(3, 10):
        assert circcirc_count(k) == (
            circcirc_count(k - 1)
            + 2 * circcirc_count(k - 2)
            + circcirc_count(k - 3)
        )


def test_generating_series():
    assert generating_series_check(20)


def test_matrix_power_identity():
    m = TMatrix.from_rows([[1, 0], [1, 1]])
    assert m.power(0) == TMatrix.identity(2)
    assert m.power(5) == TMatrix.from_rows([[1, 0], [5, 1]])
