"""Exact-core tests: golden values from hand oracles, then the module's
stated invariants on random inputs."""

import functools
import hashlib
import itertools
import math
import random
import signal

import numpy as np
import pytest

from distortion import exact
from distortion.exact import (
    IntMatrix,
    IntPoly,
    IntVector,
    char_poly,
    cyclotomic,
    cyclotomic_part,
    format_poly,
    is_partially_hyperbolic,
    mat_mul,
    mat_pow,
    matrix_from_json,
    matrix_to_json,
    orbit_map,
    poly_to_json,
    quotient_module,
    solve_exact,
)
from distortion.exterior import induced_action, johnson_target, wedge3_map
from distortion.mapclass import MappingClassWord, evaluate, humphries_table
from distortion.oracle import _inverse_mod
from distortion.symplectic import SymplecticContext, transvection
from helpers_oracle import (
    char_poly_plain,
    cyclotomic_indices_plain,
    cyclotomic_part_plain,
    cyclotomic_plain,
    det_plain,
    euler_phi_plain,
    mat_mul_plain,
    max_root_modulus,
    primes_below_plain,
    random_unimodular,
    rank_plain,
)

FIB = IntMatrix.from_rows([[2, 1], [1, 1]])


# --- multiplication and powers -------------------------------------------------

def test_mat_mul_identity():
    I2 = IntMatrix.identity(2)
    assert mat_mul(I2, I2).entries == I2.entries


def test_mat_mul_hand_values():
    assert mat_mul(FIB, FIB).entries == ((5, 3), (3, 2))
    A = IntMatrix.from_rows([[1, -1], [0, 1]])
    B = IntMatrix.from_rows([[1, 0], [-1, 1]])
    assert mat_mul(A, B).entries == ((2, -1), (-1, 1))


def test_mat_mul_shape_mismatch():
    with pytest.raises(ValueError):
        mat_mul(IntMatrix.identity(2), IntMatrix.identity(3))


# the int64 bound 2^63 - 1 = 7^2 * 73 * 127 * 337 * 92737 * 649657, met with k = 7
INT64_A = 7 * 73 * 127 * 337
INT64_B = 92737 * 649657
# entries at the int64 edges and at Python's 30-bit digit boundaries 2^(30 j) +- 1
EDGE_ENTRIES = sorted({2 ** 63 - 1, -(2 ** 63 - 1), -2 ** 63, 2 ** 63, INT64_A, INT64_B}
                      | {s * (2 ** (30 * j) + d) for j in range(1, 5) for d in (-1, 0, 1) for s in (1, -1)})


def check_mat_mul_paths(A, B, cols):
    """mat_mul, and each kernel whose bound holds, against mat_mul_plain on
    list-of-rows A (n x k) and B (k x cols); returns the kernel mat_mul took
    (None for a zero bound)."""
    k = len(B)
    MA, MB = IntMatrix(tuple(map(tuple, A)), k), IntMatrix(tuple(map(tuple, B)), cols)
    want = mat_mul_plain(A, B, cols)
    got = mat_mul(MA, MB)
    assert got == IntMatrix.from_rows(want, cols)
    assert all(type(x) is int for row in got.entries for x in row)
    assert hash(got) == hash(IntMatrix.from_rows(want, cols))
    a, b = MA.max_abs(), MB.max_abs()
    if not a * b * k:
        return None
    fits = a * b * k < 2 ** 63
    path = exact._mul_path(a, b, k)
    assert path is (exact._mul_int64 if fits else exact._mul_python)
    for kernel in [exact._mul_python] + [exact._mul_int64] * fits:
        assert [list(r) for r in kernel(MA, MB)] == want, kernel.__name__
    return path


def test_mat_mul_paths_property():
    hyp = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")
    scales = st.sampled_from((
        st.integers(-3, 3),
        st.integers(-2 ** 31, 2 ** 31),
        st.sampled_from(EDGE_ENTRIES) | st.integers(-3, 3),
        st.integers(-2 ** 300, 2 ** 300),
    ))

    @st.composite
    def products(draw):
        n, k, m = (draw(st.integers(0, 5)) for _ in range(3))
        ea, eb = draw(scales), draw(scales)
        A = draw(st.lists(st.lists(ea, min_size=k, max_size=k), min_size=n, max_size=n))
        B = draw(st.lists(st.lists(eb, min_size=m, max_size=m), min_size=k, max_size=k))
        return A, B, m

    @hyp.settings(max_examples=300, deadline=None)
    @hyp.given(products())
    def check(case):
        check_mat_mul_paths(*case)

    check()


def test_mat_mul_edge_cases():
    a, b = INT64_A, INT64_B
    assert 7 * a * b == 2 ** 63 - 1
    # max|A| max|B| k = 2^63 - 1: int64, and the extreme entries are exact
    assert check_mat_mul_paths([[a] * 7, [-a] * 7], [[b, -b, 1]] * 7, 3) is exact._mul_int64
    # = 2^63: Python ints, with the entry 2^63 itself
    assert check_mat_mul_paths([[2 ** 31, 2 ** 31], [-2 ** 31, 2 ** 31]], [[2 ** 31], [2 ** 31]], 1) \
        is exact._mul_python
    for x in (2 ** 63 - 1, -(2 ** 63 - 1), -2 ** 63):
        for y in (1, -1, x):
            assert check_mat_mul_paths([[x]], [[y]], 1) is \
                (exact._mul_int64 if abs(x * y) < 2 ** 63 else exact._mul_python)
    # digit boundaries, rectangular, mixed signs
    rnd = random.Random(3)
    for _ in range(40):
        n, k, m = rnd.randint(1, 4), rnd.randint(1, 4), rnd.randint(1, 4)
        A = [[rnd.choice(EDGE_ENTRIES) for _ in range(k)] for _ in range(n)]
        B = [[rnd.choice(EDGE_ENTRIES) for _ in range(m)] for _ in range(k)]
        check_mat_mul_paths(A, B, m)
    # 2 x 2 shears of about 10,000 bits, and a shear product times its inverse
    s, t = 3 ** 6300, -(7 ** 3560)
    for A, B in (([[1, s], [0, 1]], [[1, 0], [t, 1]]), ([[1 + s * t, s], [t, 1]], [[1, -s], [-t, 1 + s * t]])):
        assert check_mat_mul_paths(A, B, 2) is exact._mul_python
    # zero-size shapes and zero factors never convert the huge side
    big = 2 ** 100
    for A, B, m in (([], [[big] * 2] * 3, 2), ([[], []], [], 3), ([[big] * 3] * 2, [[]] * 3, 0),
                    ([[big] * 3] * 2, [[0] * 2] * 3, 2), ([[0] * 3] * 2, [[-big] * 2] * 3, 2)):
        assert check_mat_mul_paths(A, B, m) is None


def test_mul_path_choice():
    path = exact._mul_path
    assert path(INT64_A, INT64_B, 7) is exact._mul_int64
    assert path(INT64_A, INT64_B + 1, 7) is exact._mul_python
    assert path(2 ** 31, 2 ** 31, 2) is exact._mul_python
    assert path(2 ** 63 - 1, 1, 1) is exact._mul_int64
    assert path(2 ** 63, 1, 1) is exact._mul_python
    assert path(1, 1, 2 ** 63 - 1) is exact._mul_int64
    assert path(2 ** 5000, 2 ** 5000, 2) is exact._mul_python


def python_ints(*values) -> bool:
    """Every entry of the IntMatrix, IntVector and IntPoly values, and every
    bare value, is a Python int (not a numpy int or a bool)."""
    entries = []
    for v in values:
        if isinstance(v, IntMatrix):
            entries += [x for row in v.entries for x in row]
        elif isinstance(v, IntVector):
            entries += v.entries
        elif isinstance(v, IntPoly):
            entries += v.coeffs
        else:
            entries.append(v)
    return all(type(x) is int for x in entries)


def test_results_hold_python_ints():
    # the constructors trust their arguments, so a numpy int64 left in a
    # result would overflow silently in a later product
    a, b = INT64_A, INT64_B
    for A, B, m in (([[a] * 7, [-a] * 7], [[b, -b, 1]] * 7, 3), ([[2 ** 31] * 2] * 2, [[2 ** 31]] * 2, 1),
                    ([[EDGE_ENTRIES[0], 3]], [[5], [EDGE_ENTRIES[-1]]], 1), ([[2 ** 300, 1]], [[-3], [2]], 1)):
        MA, MB = IntMatrix.from_rows(A), IntMatrix.from_rows(B, m)
        x, y, k = MA.max_abs(), MB.max_abs(), MA.cols
        kernels = [exact._mul_python] + [exact._mul_int64] * (x * y * k < 2 ** 63)
        assert python_ints(mat_mul(MA, MB)) and all(python_ints(IntMatrix(kernel(MA, MB), m))
                                                    for kernel in kernels)
    for top in (1_154_107, 1_154_108):          # the largest a with 6 a^3 < 2^63 (int64 minors), and past it
        assert python_ints(wedge3_map(IntMatrix.identity(4).scale(top)))
    M = random_unimodular(random.Random(4), 5, 8)
    assert python_ints(M.det(), M.inverse(), solve_exact(M, IntMatrix.identity(5).scale(3)), char_poly(M))
    q = quotient_module(3, IntMatrix.from_rows([[2, 0], [0, 3], [0, 0]]))
    assert python_ints(q.projection, q.section)
    v = IntVector((1, -2, 0, 3))
    t = transvection(SymplecticContext(2), v)
    power = evaluate(MappingClassWord.from_letters(2, [(v, -3)]))
    assert python_ints(t, power, _inverse_mod(t, 7))


def test_from_rows_is_the_checked_constructor():
    M = IntMatrix.from_rows(np.array([[2, 1], [1, 1]], dtype=np.int64))
    assert M == FIB and python_ints(M)
    assert python_ints(IntMatrix.from_columns([np.array([2, 1]), (np.int32(1), 1)], 2))
    for rows in ([[2.0, 1], [1, 1]], [[np.float64(2), 1], [1, 1]], [[2, "1"], [1, 1]]):
        with pytest.raises(TypeError):
            IntMatrix.from_rows(rows)
    with pytest.raises(ValueError, match="ragged"):
        IntMatrix.from_rows([[1, 2], [3]])
    with pytest.raises(ValueError, match="ragged"):
        IntMatrix.from_rows([[1, 2]], 3)


def test_mat_pow():
    assert mat_pow(FIB, 0).is_identity()
    assert mat_pow(FIB, 3).entries == ((13, 8), (8, 5))
    shear = IntMatrix.from_rows([[1, 1], [0, 1]])
    assert mat_pow(shear, 5).entries == ((1, 5), (0, 1))
    # repeated-multiplication oracle, over every bit pattern up to 9
    acc = IntMatrix.identity(2)
    for n in range(10):
        assert mat_pow(FIB, n).entries == acc.entries
        acc = mat_mul(acc, FIB)


def test_mat_pow_negative():
    assert mat_mul(mat_pow(FIB, -2), mat_pow(FIB, 2)).is_identity()
    with pytest.raises(ValueError):
        mat_pow(IntMatrix.from_rows([[2, 0], [0, 1]]), -1)


def check_orbit(M: IntMatrix, v: IntVector, steps: int) -> None:
    """orbit_map(M) against repeated IntMatrix.apply, step by step, and its
    entries are Python ints."""
    step = orbit_map(M)
    w = np.array(v.entries, dtype=object)
    for _ in range(steps):
        v, w = M.apply(v), step(w)
        assert w.shape == (M.rows,) and tuple(w) == v.entries
        assert all(type(x) is int for x in w)


def test_orbit_map_matches_apply():
    rnd = random.Random(19)
    for density in (0.0, 0.05, 0.1, 0.25, 0.5, 0.75, 1.0):
        for _ in range(12):
            n = rnd.randint(1, 9)
            M = IntMatrix.from_rows([[rnd.randint(-3, 3) if rnd.random() < density else 0 for _ in range(n)]
                                     for _ in range(n)])
            check_orbit(M, IntVector(tuple(rnd.randint(-5, 5) for _ in range(n))), 6)
    # entries past 2^200 of both signs, in the matrix and in the vector
    for _ in range(20):
        n = rnd.randint(1, 6)
        M = IntMatrix.from_rows([[rnd.choice((0, 1, -1, 2 ** 201 + rnd.randint(0, 9), -2 ** 203))
                                  for _ in range(n)] for _ in range(n)])
        check_orbit(M, IntVector(tuple(rnd.choice((3, -(2 ** 205), 2 ** 210 - 1)) for _ in range(n))), 4)


def test_orbit_map_edges():
    # zero rows (first, middle, last, all but one), the zero matrix, 1x1 and 0x0
    v = IntVector((2, -3, 5))
    for rows in ([[0, 0, 0], [1, 2, 3], [4, 5, 6]], [[1, 2, 3], [0, 0, 0], [4, 5, 6]],
                 [[1, 2, 3], [4, 5, 6], [0, 0, 0]], [[0, 0, 0], [0, 0, 7], [0, 0, 0]]):
        check_orbit(IntMatrix.from_rows(rows), v, 3)
    check_orbit(IntMatrix.zero(3, 3), v, 2)
    check_orbit(IntMatrix.from_rows([[-2 ** 250]]), IntVector((3,)), 3)
    check_orbit(IntMatrix.from_rows([[0]]), IntVector((3,)), 2)
    check_orbit(IntMatrix.zero(0, 0), IntVector(()), 2)
    with pytest.raises(ValueError, match="square"):
        orbit_map(IntMatrix.from_rows([[1, 2]]))


def test_inverse_over_z():
    assert mat_mul(FIB, FIB.inverse()).is_identity()
    with pytest.raises(ValueError, match="not invertible over Z"):
        IntMatrix.from_rows([[2, 0], [0, 1]]).inverse()      # nonsingular, det 2
    with pytest.raises(ValueError, match="singular"):
        IntMatrix.from_rows([[1, 2], [2, 4]]).inverse()


def counted_eliminations(monkeypatch):
    """Patch exact._echelon_mod to record the prime of every call."""
    primes = []
    eliminate = exact._echelon_mod

    def counted(R, n, p):
        primes.append(p)
        return eliminate(R, n, p)

    monkeypatch.setattr(exact, "_echelon_mod", counted)
    return primes


def test_inverse_checked_lift(monkeypatch):
    primes = counted_eliminations(monkeypatch)
    # FIB^k has det 1 and entries near 1.618^(2k): the lift meets the plain
    # adjugate [[d, -b], [-c, a]] at the first primes whose product passes
    # twice its largest entry, several of them for large k.  A right first
    # lift is checked at once; a later one at the next prime, which leaves
    # it unchanged
    for k in range(1, 101):
        (a, b), (c, d) = (FIB ** k).entries
        del primes[:]
        assert (FIB ** k).inverse().entries == ((d, -b), (-c, a))
        right = next(j for j in range(1, len(primes) + 1) if math.prod(primes[:j]) > 2 * a)
        assert len(primes) == (1 if right == 1 else right + 1)
    assert len(primes) == 7
    # det = p0 + 1 is 1 mod the first prime p0, and +-1 mod no other
    rnd = random.Random(5)
    p0 = next(exact._primes(3))
    D = IntMatrix.from_rows([[p0 + 1, 0, 0], [0, 1, 0], [0, 0, 1]])
    M = mat_mul(mat_mul(random_unimodular(rnd, 3, 9), D), random_unimodular(rnd, 3, 9))
    del primes[:]
    with pytest.raises(ValueError, match="not invertible over Z"):
        M.inverse()
    # the lift stops at the second prime; det, for the message, starts again
    assert primes[:3] == [p0, next(p for p in exact._primes(3) if p < p0), p0]
    del primes[:]
    with pytest.raises(ValueError, match="not invertible over Z"):
        IntMatrix.from_rows([[2, 1, 0], [0, 1, 0], [0, 0, 1]]).inverse()
    assert primes[:2] == [p0, p0]           # det 2 is not +-1 mod p0
    S = IntMatrix.from_rows([[1, 2, 3, 4], [2, 4, 6, 8], [0, 1, 0, 1], [5, 0, 7, 1]])
    with pytest.raises(ValueError, match="singular"):
        mat_mul(random_unimodular(rnd, 4, 12), S).inverse()


def test_inverse_of_a_big_shear_takes_two_products(monkeypatch):
    # [[1, y], [0, 1]] with a 3,000-digit y lifts over hundreds of primes; A X
    # = I is checked at the first, then once, where the lift stops changing
    y = 10 ** 2999 + 12345
    primes = counted_eliminations(monkeypatch)
    calls = []
    product = exact.mat_mul
    monkeypatch.setattr(exact, "mat_mul", lambda A, B: calls.append(1) or product(A, B))
    assert IntMatrix.from_rows([[1, y], [0, 1]]).inverse().entries == ((1, -y), (0, 1))
    assert len(primes) > 300 and len(calls) == 2


def test_inverse_of_an_induced_twist_takes_one_prime(monkeypatch):
    ctx = SymplecticContext(5)
    A = induced_action(johnson_target(5, "closed"), transvection(ctx, ctx.basis_vector("b1")))
    assert A.rows == 110
    primes = counted_eliminations(monkeypatch)
    X = A.inverse()
    assert len(primes) == 1
    n = A.rows
    assert mat_mul_plain([list(r) for r in A.entries], [list(r) for r in X.entries]) == \
        [[int(i == j) for j in range(n)] for i in range(n)]
    assert X == solve_exact(A, IntMatrix.identity(n))


def test_solve_exact_integrality():
    X = solve_exact(FIB, IntMatrix.identity(2))
    assert mat_mul(FIB, X).is_identity()
    assert solve_exact(IntMatrix.from_rows([[2, 0], [0, 2]]), IntMatrix.identity(2)) is None


# --- full rank over Q, by det ------------------------------------------------------

def rank_input(rnd, rows, cols, top):
    """A rows x cols matrix with entries up to top, or of rank below
    min(rows, cols) as a product through a narrower middle."""
    if rnd.random() < 0.5 or min(rows, cols) < 2:
        return [[rnd.randint(-top, top) for _ in range(cols)] for _ in range(rows)]
    k = rnd.randint(0, min(rows, cols) - 1)
    L = [[rnd.randint(-top, top) for _ in range(k)] for _ in range(rows)]
    R = [[rnd.randint(-top, top) for _ in range(cols)] for _ in range(k)]
    return mat_mul_plain(L, R, cols)


def check_rank(rows):
    """IntMatrix.det of a square input against helpers_oracle.rank_plain
    (Fractions): nonzero exactly at full rank over Q, and det_plain up to 6 rows."""
    n = len(rows)
    d = IntMatrix.from_rows(rows, n).det()
    assert (d != 0) == (rank_plain(rows) == n), rows
    assert not 0 < n <= 6 or d == det_plain(rows), rows
    return d


def test_rational_rank_matches_plain(monkeypatch):
    # narrow-middle products (rank below n) must give det 0, full-rank ones not
    rnd = random.Random(71)
    for n in range(9):
        for top in (1, 9, 2 ** 70):
            for _ in range(3):
                check_rank(rank_input(rnd, n, n, top))
    # unlucky for the first prime p0: singular mod p0, det p0 over Q; the last
    # has row norms near sqrt(p0), so only Hadamard's bound on the whole det
    # (not the largest row norm alone) asks for a second prime
    primes = exact._primes
    p0 = next(primes(2))
    a = math.isqrt(p0) + 1
    for rows in ([[1, 0], [0, p0]], [[1, 1], [0, p0]], [[1, 0], [1, p0]], [[a, 1], [a * a - p0, a]]):
        assert check_rank(rows) == p0
    # the lift does not stop at p0, where the det is 0
    seen = counted_eliminations(monkeypatch)
    assert check_rank([[1, 0], [0, p0]]) == p0 and seen[0] == p0 and len(seen) > 1


def test_rational_rank_property():
    hyp = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")
    entry = st.integers(-2 ** 70, 2 ** 70) | st.integers(-3, 3)

    @st.composite
    def matrices(draw):
        n = draw(st.integers(0, 8))
        k = draw(st.integers(0, 8))
        L = draw(st.lists(st.lists(entry, min_size=k, max_size=k), min_size=n, max_size=n))
        if draw(st.booleans()):         # rank at most k, through a k-wide middle
            R = draw(st.lists(st.lists(entry, min_size=n, max_size=n), min_size=k, max_size=k))
            return mat_mul_plain(L, R, n)
        return draw(st.lists(st.lists(entry, min_size=n, max_size=n), min_size=n, max_size=n))

    @hyp.settings(max_examples=150, deadline=None)
    @hyp.given(matrices())
    def check(rows):
        check_rank(rows)

    check()


# --- the modular elimination behind det, solve and inverse ----------------------

def check_cramer(M, B):
    """exact._cramer(M, B) against the constant term of Faddeev-LeVerrier,
    (-1)^n det M, and the plain product M adj(M) B = det(M) B."""
    n = len(M)
    det, adj_b = exact._cramer(IntMatrix.from_rows(M, n), IntMatrix.from_rows(B, len(B[0])))
    assert det == (-1) ** n * char_poly_plain(M)[0], M
    if det == 0:
        assert adj_b is None
    else:
        assert mat_mul_plain(M, [list(r) for r in adj_b.entries]) == [[det * b for b in row] for row in B]
    return det


def test_cramer_property():
    hyp = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")
    entry = st.integers(-2 ** 70, 2 ** 70) | st.integers(-3, 3)

    @st.composite
    def systems(draw):
        n = draw(st.integers(1, 8))
        M = draw(st.lists(st.lists(entry, min_size=n, max_size=n), min_size=n, max_size=n))
        kind = draw(st.sampled_from(("any", "singular", "zero", "scalar", "unimodular")))
        if kind == "singular" and n > 1:
            M[-1] = [3 * a for a in M[0]]
        elif kind == "zero":
            M = [[0] * n for _ in range(n)]
        elif kind == "scalar":
            M = [[M[0][0] * (i == j) for j in range(n)] for i in range(n)]
        elif kind == "unimodular":
            rnd = draw(st.randoms(use_true_random=False))
            M = [list(r) for r in random_unimodular(rnd, n, 6 * n).entries] if n > 1 else [[-1]]
        m = draw(st.integers(0, 3))
        B = draw(st.lists(st.lists(entry, min_size=m, max_size=m), min_size=n, max_size=n))
        return M, B

    @hyp.settings(max_examples=100, deadline=None)
    @hyp.given(systems())
    def check(system):
        M, B = system
        n = len(M)
        identity = [[int(i == j) for j in range(n)] for i in range(n)]
        det = check_cramer(M, B)
        check_cramer(M, identity)
        if det in (1, -1):
            X = IntMatrix.from_rows(M).inverse()
            assert mat_mul_plain(M, [list(r) for r in X.entries]) == identity

    check()


def test_cramer_scalar_matrices_meet_the_bound():
    # det(d I) = d^n is Hadamard's bound itself; d just below the first prime
    # 2^26 - 5 needs the second prime, since the first is below 2 d
    for d in (2 ** 25 + 12345, 2 ** 26 - 7, 2 ** 40 + 1, 3 ** 50):
        for s in (1, -1):
            for n in (1, 3):
                check_cramer([[s * d * (i == j) for j in range(n)] for i in range(n)], [[1]] * n)


def test_cramer_skips_a_prime_dividing_det(monkeypatch):
    n = 4
    p = next(exact._primes(n))
    rnd = random.Random(31)
    D = IntMatrix.from_rows([[p if i == j == 0 else int(i == j) for j in range(n)] for i in range(n)])
    M = mat_mul(mat_mul(random_unimodular(rnd, n, 12), D), random_unimodular(rnd, n, 12))
    seen = []
    reduce_mod = exact._echelon_mod

    def recorded(aug, k, q):
        det = reduce_mod(aug, k, q)
        seen.append((q, det))
        return det

    monkeypatch.setattr(exact, "_echelon_mod", recorded)
    rows = [list(r) for r in M.entries]
    assert abs(check_cramer(rows, [[1], [-2], [0], [5]])) == p
    assert seen[0] == (p, 0) and all(d for _, d in seen[1:])
    assert solve_exact(M, IntMatrix.identity(n)) is None
    assert solve_exact(M, M).is_identity()
    with pytest.raises(ValueError, match="not invertible over Z"):
        M.inverse()


def test_cramer_rank_zero():
    E = IntMatrix.zero(0, 0)
    assert E.det() == 1
    assert exact._cramer(E, IntMatrix.zero(0, 3)) == (1, IntMatrix.zero(0, 3))
    assert solve_exact(E, IntMatrix.zero(0, 2)) == IntMatrix.zero(0, 2)
    assert E.inverse() == E


# --- characteristic polynomials ------------------------------------------------

def test_char_poly_golden():
    assert char_poly(IntMatrix.identity(2)).coeffs == (1, -2, 1)
    assert char_poly(FIB).coeffs == (1, -3, 1)          # trace 3, det 1
    assert char_poly(IntMatrix.from_rows([[0, 1], [-1, 0]])).coeffs == (1, 0, 1)


def test_char_poly_matches_faddeev_leverrier():
    rnd = random.Random(23)
    cases = [[[0]], [[0, 0], [0, 0]], [[0] * 5 for _ in range(5)], [[1, 2], [2, 4]]]
    # scalar matrices meet the Hadamard bound C(n, k) B^k with equality; one
    # entry in [2^25, 2^26) needs a modulus just above the first prime
    for d in (2 ** 25 + 12345, 2 ** 26 - 7, 2 ** 40 + 1, 3 ** 50):
        for s in (1, -1):
            cases += [[[s * d]], [[s * d * (i == j) for j in range(3)] for i in range(3)]]
    for _ in range(80):
        n = rnd.randint(1, 10)
        e = rnd.choice((1, 9, 2 ** 20, 2 ** 40, 2 ** 70))
        M = [[rnd.randint(-e, e) if rnd.random() < 0.7 else 0 for _ in range(n)] for _ in range(n)]
        if rnd.random() < 0.3:
            M[-1] = [2 * a for a in M[0]]      # singular
        cases.append(M)
    for M in cases:
        assert list(char_poly(IntMatrix.from_rows(M)).coeffs) == char_poly_plain(M), M


def test_char_poly_matches_sympy():
    sympy = pytest.importorskip("sympy")
    x = sympy.Symbol("x")
    rnd = random.Random(29)
    for _ in range(25):
        n = rnd.randint(1, 7)
        e = rnd.choice((3, 2 ** 40))
        M = [[rnd.randint(-e, e) for _ in range(n)] for _ in range(n)]
        expected = [int(c) for c in reversed(sympy.Matrix(M).charpoly(x).all_coeffs())]
        assert list(char_poly(IntMatrix.from_rows(M)).coeffs) == expected, M


def test_char_poly_property_faddeev_leverrier():
    hyp = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")

    @st.composite
    def matrices(draw):
        n = draw(st.integers(1, 8))
        entry = st.integers(-2 ** 40, 2 ** 40) | st.integers(-3, 3)
        M = draw(st.lists(st.lists(entry, min_size=n, max_size=n), min_size=n, max_size=n))
        kind = draw(st.sampled_from(("any", "singular", "zero", "scalar")))
        if kind == "singular" and n > 1:
            M[-1] = [3 * a for a in M[0]]
        elif kind == "zero":
            M = [[0] * n for _ in range(n)]
        elif kind == "scalar":
            M = [[M[0][0] * (i == j) for j in range(n)] for i in range(n)]
        return M

    @hyp.settings(max_examples=150, deadline=None)
    @hyp.given(matrices())
    def check(M):
        assert list(char_poly(IntMatrix.from_rows(M)).coeffs) == char_poly_plain(M)

    check()


def residues_plain(M, p):
    """char_poly_plain of M, reduced mod p."""
    return [c % p for c in char_poly_plain(M)]


def test_char_poly_mod_stack_equals_single_slices():
    # one stack of slices under different primes, each slice against a stack
    # of itself and against the plain polynomial mod its prime
    rnd = random.Random(41)
    for n in (1, 2, 3, 7):
        primes = list(itertools.islice(exact._primes(n), 3)) + [2, 3, 101]
        slices = [[[rnd.randrange(p) if rnd.random() < 0.6 else 0 for _ in range(n)] for _ in range(n)]
                  for p in primes]
        H = np.array(slices, dtype=np.int64)
        stacked = exact._char_poly_mod(H.copy(), np.array(primes, dtype=np.int64)).tolist()
        for M, p, got in zip(slices, primes, stacked):
            alone = exact._char_poly_mod(np.array([M], dtype=np.int64), np.array([p], dtype=np.int64))
            assert got == alone.tolist()[0] == residues_plain(M, p), (M, p)


def test_char_poly_mod_pivots_and_swaps():
    p = next(exact._primes(6))
    cases = [
        # block upper triangular: columns 0..2 are zero below row 2, so
        # column 2 has no pivot
        [[1, 4, 7, 1, 5, 0], [2, 5, 8, 0, 1, 3], [3, 6, 9, 2, 0, 1],
         [0, 0, 0, 3, 2, 1], [0, 0, 0, 1, 6, 2], [0, 0, 0, 4, 1, 7]],
        # upper triangular: no column has a pivot below the diagonal
        [[j >= i and i + 2 * j + 1 or 0 for j in range(6)] for i in range(6)],
        # H[m + 1, m] = 0 with a nonzero entry further down: a row swap
        [[1, 2, 0, 0], [0, 3, 1, 0], [5, 0, 2, 1], [0, 0, 4, 6]],
        [[0, 1, 0, 0, 0], [0, 0, 1, 0, 0], [0, 0, 0, 1, 0], [0, 0, 0, 0, 1], [1, 0, 0, 0, 0]],
        [[0, 0, 0, 0, 2], [0, 0, 0, 3, 0], [0, 0, 5, 0, 0], [0, 7, 0, 0, 0], [11, 0, 0, 0, 0]],
    ]
    # every matrix at its own primes, and one stack of slices in which only
    # some slices swap
    for M in cases:
        assert list(char_poly(IntMatrix.from_rows(M)).coeffs) == char_poly_plain(M), M
    swaps = [cases[2], [[1, 2, 0, 0], [3, 3, 1, 0], [5, 0, 2, 1], [0, 0, 4, 6]], cases[2]]
    H = np.array(swaps, dtype=np.int64) % p
    got = exact._char_poly_mod(H, np.full(3, p, dtype=np.int64)).tolist()
    assert got == [residues_plain(M, p) for M in swaps]


def test_char_polys_property_stacks():
    hyp = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")

    @st.composite
    def matrix(draw, n):
        entry = st.integers(-3, 3) | st.integers(-2 ** 40, 2 ** 40) | st.integers(-2 ** 70, 2 ** 70)
        M = draw(st.lists(st.lists(entry, min_size=n, max_size=n), min_size=n, max_size=n))
        kind = draw(st.sampled_from(("any", "block", "zero_subdiagonal", "singular")))
        if kind == "block" and n > 2:
            for i in range(n // 2, n):
                for j in range(n // 2):
                    M[i][j] = 0                   # column n // 2 - 1 has no pivot
        elif kind == "zero_subdiagonal" and n > 2:
            for m in range(n - 2):
                M[m + 1][m] = 0                   # a swap wherever below is nonzero
        elif kind == "singular" and n > 1:
            M[-1] = list(M[0])
        return M

    @hyp.settings(max_examples=100, deadline=None)
    @hyp.given(st.integers(1, 6).flatmap(lambda n: st.lists(matrix(n), min_size=1, max_size=6)),
               st.integers(1, 200))
    def check(mats, entries):
        expected = [char_poly_plain(M) for M in mats]
        stacked = exact.char_polys([IntMatrix.from_rows(M) for M in mats])
        assert [list(p.coeffs) for p in stacked] == expected
        assert [list(char_poly(IntMatrix.from_rows(M)).coeffs) for M in mats] == expected
        # the same stack split at a small entry bound
        old = exact.CHAR_POLY_STACK_ENTRIES
        exact.CHAR_POLY_STACK_ENTRIES = entries
        try:
            split = exact.char_polys([IntMatrix.from_rows(M) for M in mats])
        finally:
            exact.CHAR_POLY_STACK_ENTRIES = old
        assert [list(p.coeffs) for p in split] == expected

    check()


def test_char_polys_stack_bound(monkeypatch):
    # 20 matrices of size 4 with 31-bit entries take c > 1 primes each, so
    # 20 c slices of 16 entries; a bound of 100 entries gives stacks of 6
    # slices, and a bound below one slice gives stacks of one
    rnd = random.Random(43)
    mats = [[[rnd.randint(-2 ** 30, 2 ** 30) for _ in range(4)] for _ in range(4)] for _ in range(20)]
    sizes = []
    residues_mod = exact._char_poly_mod

    def recorded(H, p):
        sizes.append(len(H))
        assert H.dtype == np.int64 and H.shape[1:] == (4, 4) and (H < p[:, None, None]).all()
        return residues_mod(H, p)

    monkeypatch.setattr(exact, "_char_poly_mod", recorded)
    expected = [char_poly_plain(M) for M in mats]
    for bound, stack in ((1 << 21, None), (100, 6), (10, 1)):
        monkeypatch.setattr(exact, "CHAR_POLY_STACK_ENTRIES", bound)
        sizes.clear()
        got = exact.char_polys([IntMatrix.from_rows(M) for M in mats])
        assert [list(p.coeffs) for p in got] == expected
        if stack is None:
            [total] = sizes
            assert total % 20 == 0 and total > 20
        else:
            assert sizes == [stack] * (total // stack) + [total % stack] * (total % stack > 0)


def test_char_polys_prime_count_follows_the_row_norms(monkeypatch):
    # primes are taken until they pass twice max_k e_k(b), b_i the largest
    # ceil ||row i|| over the stack (here from prod (1 + b_i x), expanded
    # plainly); a stack of a matrix with one long row and one with small rows
    # everywhere else takes as many primes as the per-row maxima ask for
    primes = []
    residues_mod = exact._char_poly_mod

    def counted(H, p):
        primes.extend(p.tolist())
        return residues_mod(H, p)

    monkeypatch.setattr(exact, "_char_poly_mod", counted)
    rnd = random.Random(47)
    n = 12
    long_row = [[rnd.randint(-2 ** 40, 2 ** 40) for _ in range(n)]] + [[rnd.randint(-1, 1) for _ in range(n)]
                                                                       for _ in range(n - 1)]
    small = [[1] * n] + [[rnd.randint(-1, 1) if j < 9 else 0 for j in range(n)] for _ in range(n - 1)]
    for mats in ([small], [long_row], [small, long_row], [FIB.entries]):
        primes.clear()
        got = exact.char_polys([IntMatrix.from_rows(M) for M in mats])
        assert [list(p.coeffs) for p in got] == [char_poly_plain(M) for M in mats]
        b = [max(math.isqrt(sum(a * a for a in M[i]) - 1) + 1 for M in mats) for i in range(len(mats[0]))]
        e = [1]
        for bi in b:
            e = poly_mul_plain(e, [1, bi])
        want, modulus = 0, 1
        for p in exact._primes(len(b)):
            if modulus > 2 * max(e):
                break
            want, modulus = want + 1, modulus * p
        assert len(primes) == want * len(mats)
    # one prime for the small matrix (b_1 = 4, every other b_i <= 3), where
    # C(n, k) B^k, B = 4 the largest ceil ||row||, would ask for two
    primes.clear()
    exact.char_polys([IntMatrix.from_rows(small)])
    assert len(primes) == 1 and 2 * max(math.comb(n, k) * 4 ** k for k in range(n + 1)) > next(exact._primes(n))


def test_max_abs():
    assert IntMatrix.zero(0, 3).max_abs() == IntMatrix.zero(3, 0).max_abs() == IntMatrix.zero(0, 0).max_abs() == 0
    assert IntMatrix.zero(2, 2).max_abs() == 0
    rnd = random.Random(5)
    for _ in range(50):
        rows = [[rnd.randint(-2 ** 70, 2 ** 70) >> rnd.randint(0, 70) for _ in range(rnd.randint(1, 5))]]
        rows *= rnd.randint(1, 3)
        assert IntMatrix.from_rows(rows).max_abs() == max(abs(a) for r in rows for a in r)


def test_char_polys_edges():
    assert exact.char_polys([]) == []
    assert exact.char_polys([IntMatrix.zero(0, 0)] * 2) == [IntPoly.one] * 2
    assert exact.char_polys([IntMatrix.from_rows([[5]]), IntMatrix.from_rows([[-2 ** 80]])]) == \
        [IntPoly((-5, 1)), IntPoly((2 ** 80, 1))]
    with pytest.raises(ValueError, match="square"):
        exact.char_polys([FIB, IntMatrix.zero(2, 3)])
    with pytest.raises(ValueError, match="one size"):
        exact.char_polys([FIB, IntMatrix.identity(3)])


@functools.lru_cache(maxsize=None)
def induced_humphries_product(g):
    """The induced action of T_c0 T_c1 T_c2 T_c3 (Humphries curves) on the
    closed Johnson target of genus g: rank 48 at g = 4, 110 at g = 5."""
    target = johnson_target(g, "closed")
    ctx = SymplecticContext(g)
    acts = [induced_action(target, transvection(ctx, c)) for c in list(humphries_table(g).values())[:4]]
    M = acts[0]
    for X in acts[1:]:
        M = mat_mul(M, X)
    return M


def coeff_digest(p):
    return hashlib.sha256(",".join(map(str, p.coeffs)).encode()).hexdigest()


@pytest.mark.parametrize("g, rank, digest", [
    # sha256 of the coefficients from helpers_oracle.char_poly_plain
    # (Faddeev-LeVerrier), which takes about 10 s at rank 110
    (4, 48, "936e51fbd087887e365ec22652635853b751b9c9fed851f645af09e085e2344f"),
    (5, 110, "7bb1fdd7142e3c3fb984ca90c36e70283054bd7cea88b75dc32962f51e0e4250"),
], ids=["rank48", "rank110"])
def test_char_poly_golden_induced_products(monkeypatch, g, rank, digest):
    M = induced_humphries_product(g)
    assert M.rows == rank
    primes = []
    residues_mod = exact._char_poly_mod

    def counted(A, p):
        primes.extend(p.tolist())          # one stack: one prime per slice
        return residues_mod(A, p)

    monkeypatch.setattr(exact, "_char_poly_mod", counted)
    p = char_poly(M)
    assert coeff_digest(p) == digest
    assert p.coeffs[-2] == -sum(M.entries[i][i] for i in range(rank))
    assert p.coeffs[0] == M.det()            # (-1)^n det, n even
    assert len(primes) == len(set(primes)) > (1 if rank == 110 else 0)
    if rank == 48:
        assert list(p.coeffs) == char_poly_plain([list(r) for r in M.entries])


@pytest.mark.parametrize("g", [4, 5], ids=["rank48", "rank110"])
def test_det_and_inverse_match_sympy_on_induced_products(g):
    sympy = pytest.importorskip("sympy")
    P = induced_humphries_product(g)
    n = P.rows
    for shift in (0, 1, 3):             # det 1, singular, and a 40-odd digit det
        M = P - IntMatrix.identity(n).scale(shift)
        assert M.det() == sympy.Matrix([list(r) for r in M.entries]).det()
    rows = [list(r) for r in P.entries]
    assert mat_mul_plain(rows, [list(r) for r in P.inverse().entries]) == \
        [[int(i == j) for j in range(n)] for i in range(n)]


def test_cayley_hamilton_on_random_matrices():
    rnd = random.Random(11)
    for _ in range(60):
        n = rnd.randint(1, 6)
        A = IntMatrix.from_rows([[rnd.randint(-9, 9) for _ in range(n)] for _ in range(n)])
        p = char_poly(A)
        assert p.is_monic() and p.degree == n
        acc = [[0] * n for _ in range(n)]        # Horner: acc <- acc A + c I
        for c in reversed(p.coeffs):
            acc = [[sum(acc[i][k] * A.entries[k][j] for k in range(n)) + c * (i == j)
                    for j in range(n)] for i in range(n)]
        assert not any(any(row) for row in acc)


# --- Smith normal form ----------------------------------------------------------

def smith(A):
    """(U, Uinv, D, V, diagonal of D) from exact._smith_with_transforms, with
    U A V = D and U Uinv = I checked."""
    U, Uinv, D, V = exact._smith_with_transforms(A)
    assert mat_mul(mat_mul(U, A), V).entries == D.entries
    assert mat_mul(U, Uinv).is_identity()
    return U, Uinv, D, V, tuple(D.entries[i][i] for i in range(min(D.shape)))


def test_snf_golden():
    assert smith(IntMatrix.identity(3))[2].is_identity()
    assert smith(IntMatrix.from_rows([[2, 0], [0, 3]]))[4] == (1, 6)
    assert smith(IntMatrix.zero(2, 2))[2].is_zero()


def test_snf_random_invariants():
    rnd = random.Random(5)
    for _ in range(200):
        r, c = rnd.randint(1, 6), rnd.randint(1, 6)
        A = IntMatrix.from_rows([[rnd.randint(-9, 9) for _ in range(c)] for _ in range(r)])
        U, _, D, V, diag = smith(A)
        assert abs(U.det()) == 1
        assert abs(V.det()) == 1
        assert all(d >= 0 for d in diag)
        nonzero = [d for d in diag if d]
        assert diag[:len(nonzero)] == tuple(nonzero), "zeros must trail"
        for a, b in zip(nonzero, nonzero[1:]):
            assert b % a == 0
        # off-diagonal must vanish
        for i, row in enumerate(D.entries):
            for j, x in enumerate(row):
                assert x == 0 or i == j


def test_snf_deterministic():
    A = IntMatrix.from_rows([[4, 6, 2], [2, 8, 4]])
    first = exact._smith_with_transforms(A)
    second = exact._smith_with_transforms(A)
    assert [M.entries for M in first] == [M.entries for M in second]


def sympy_invariants(sympy, rows):
    from sympy.matrices.normalforms import smith_normal_form as sympy_snf
    S = sympy_snf(sympy.Matrix(rows), domain=sympy.ZZ)
    return tuple(abs(int(S[i, i])) for i in range(min(S.shape)))


def test_snf_invariants_match_sympy():
    sympy = pytest.importorskip("sympy")
    rnd = random.Random(17)
    for _ in range(150):
        r, c = rnd.randint(1, 7), rnd.randint(1, 7)
        rows = [[rnd.randint(-40, 40) for _ in range(c)] for _ in range(r)]
        if r > 2 and rnd.random() < 0.3:
            rows[-1] = [2 * x - 3 * y for x, y in zip(rows[0], rows[1])]
        assert smith(IntMatrix.from_rows(rows))[4] == sympy_invariants(sympy, rows), rows
    # the relation matrices of the closed targets, (wedge^3 H) / H
    for g in (3, 4):
        rows = [list(r) for r in johnson_target(g).module.relations.entries]
        assert smith(IntMatrix.from_rows(rows))[4] == sympy_invariants(sympy, rows)


def test_snf_property():
    hyp = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")

    @st.composite
    def matrices(draw):
        # dense entries in [-40, 40] up to 7 x 7, or 40-bit entries up to 5 x 5
        big = draw(st.booleans())
        top, bound = (5, 1 << 40) if big else (7, 40)
        r, c = draw(st.integers(1, top)), draw(st.integers(1, top))
        entries = st.integers(-bound, bound)
        rows = draw(st.lists(st.lists(entries, min_size=c, max_size=c), min_size=r, max_size=r))
        if r > 1 and draw(st.booleans()):
            rows[-1] = [3 * x for x in rows[0]]
        return rows

    @hyp.settings(max_examples=150, deadline=None)
    @hyp.given(matrices())
    def check(rows):
        res = exact._smith_with_transforms(IntMatrix.from_rows(rows))
        U, Uinv, D, V = ([list(r) for r in M.entries] for M in res)
        assert mat_mul_plain(mat_mul_plain(U, rows), V) == D
        assert mat_mul_plain(U, Uinv) == [[int(i == j) for j in range(len(U))] for i in range(len(U))]
        assert abs(det_plain(U)) == 1 and abs(det_plain(V)) == 1
        assert all(x == 0 for i, row in enumerate(D) for j, x in enumerate(row) if i != j)
        diag = tuple(D[i][i] for i in range(min(len(D), len(D[0]))))
        nonzero = [d for d in diag if d]
        assert all(d > 0 for d in nonzero) and diag[:len(nonzero)] == tuple(nonzero)
        assert all(b % a == 0 for a, b in zip(nonzero, nonzero[1:]))

    check()


def test_snf_dense_input_finishes():
    # 6 x 5 with entries in [-30, 30]: Euclid by swaps, which never reduced
    # the rest of the matrix, passed 500 bits by the fourth pivot here and
    # did not finish; the Bezout steps take well under a millisecond
    rows = [[-21, 13, 21, -4, 22], [2, 28, -9, -29, -3], [-7, 6, -27, 27, 18],
            [17, -8, -27, 0, -7], [7, 19, -30, 25, -5], [-15, -23, 5, -17, -15]]

    def expire(signum, frame):
        raise TimeoutError("_smith_with_transforms ran past 2 s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, 2.0)
    try:
        U, _, D, V = exact._smith_with_transforms(IntMatrix.from_rows(rows))
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    assert mat_mul_plain(mat_mul_plain([list(r) for r in U.entries], rows),
                         [list(r) for r in V.entries]) == [list(r) for r in D.entries]


# --- quotient modules -----------------------------------------------------------

def test_quotient_golden():
    q = quotient_module(3, IntMatrix.from_columns([(1, 0, 0)], 3))
    assert q.free_rank == 2 and q.torsion == ()
    q = quotient_module(2, IntMatrix.from_columns([(2, 0)], 2))
    assert q.free_rank == 1 and q.torsion == (2,)
    q = quotient_module(5, IntMatrix(tuple(() for _ in range(5)), 0))
    assert q.free_rank == 5 and q.torsion == ()


def test_quotient_projection_section():
    rnd = random.Random(3)
    for _ in range(50):
        n = rnd.randint(1, 6)
        k = rnd.randint(0, n)
        rel = IntMatrix.from_columns(
            [tuple(rnd.randint(-4, 4) for _ in range(n)) for _ in range(k)], n
        )
        q = quotient_module(n, rel)
        assert mat_mul(q.projection, q.section).is_identity()
        # relation generators have trivial free part
        for j in range(rel.cols):
            assert q.projection.apply(rel.column(j)).is_zero()
            assert q.contains(rel.column(j))


def test_quotient_contains_divisibility():
    q = quotient_module(2, IntMatrix.from_columns([(2, 0)], 2))
    assert q.contains(IntVector((4, 0)))
    assert not q.contains(IntVector((1, 0)))
    assert not q.contains(IntVector((0, 3)))


# --- cyclotomic machinery -------------------------------------------------------

def test_cyclotomic_golden():
    assert cyclotomic(1).coeffs == (-1, 1)
    assert cyclotomic(2).coeffs == (1, 1)
    assert cyclotomic(6).coeffs == (1, -1, 1)
    assert cyclotomic(12).coeffs == (1, 0, -1, 0, 1)


def test_cyclotomic_divides_x_d_minus_one():
    for d in range(1, 51):
        phi = cyclotomic(d)
        assert phi.degree == euler_phi_plain(d)
        assert IntPoly((-1,) + (0,) * (d - 1) + (1,)).divmod_by(phi)[1].is_zero()


def test_cyclotomic_part_golden():
    q, r = cyclotomic_part(IntPoly((1, -2, 1)))            # (x-1)^2
    assert q.coeffs == (1, -2, 1) and r.is_one()
    q, r = cyclotomic_part(IntPoly((1, -3, 1)))
    assert q.is_one() and r.coeffs == (1, -3, 1)
    prod = IntPoly((1, -3, 1)) * IntPoly((-1, 1))
    q, r = cyclotomic_part(prod)
    assert q.coeffs == (-1, 1) and r.coeffs == (1, -3, 1)


def test_cyclotomic_part_properties():
    rnd = random.Random(9)
    for _ in range(40):
        M = random_unimodular(rnd, rnd.randint(2, 5), rnd.randint(0, 8))
        p = char_poly(M)
        q, r = cyclotomic_part(p)
        assert (q * r).coeffs == p.coeffs
        # r has no remaining cyclotomic factor
        for d in range(1, 2 * max(1, r.degree) ** 2 + 1):
            if euler_phi_plain(d) <= r.degree:
                assert not r.divmod_by(cyclotomic(d))[1].is_zero()


def test_cyclotomic_filter_orders_match_plain():
    # the orders d >= 3 with phi(d) <= degree, against a scan of phi
    for degree in range(61):
        assert exact._cyclotomic_filter(degree)[0] == tuple(d for d in cyclotomic_indices_plain(degree) if d >= 3)
    assert len(exact._cyclotomic_filter(208)[0]) == 400
    assert len(exact._cyclotomic_filter(2000)[0]) == 3882


def test_moebius_cyclotomic_matches_plain():
    for d in list(range(1, 151)) + [210, 256, 243, 221]:
        assert exact.cyclotomic(d).coeffs == cyclotomic_plain(d), d


def test_cyclotomic_filter_roots():
    # every cached (q_d, z_d) up to degree 208: q_d prime below 2^31,
    # q_d = 1 mod d, and z_d of exact order d mod q_d
    small = np.array(primes_below_plain(1 << 16))
    assert [q for q in range(1 << 16) if exact._is_prime(q)] == small.tolist()
    ds, qs, zs = exact._cyclotomic_filter(208)
    assert len(ds) == 400
    for d, q, z in zip(ds, qs.tolist(), zs.tolist()):
        assert q < 1 << 31 and q % d == 1 and (q % small[small < q] != 0).all(), (d, q)
        assert pow(z, d, q) == 1, d
        for l in (l for l in range(2, d + 1) if d % l == 0 and euler_phi_plain(l) == l - 1):
            assert pow(z, d // l, q) != 1, (d, l)


def poly_mul_plain(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


LEHMER = (1, 1, 0, -1, -1, -1, -1, -1, 0, 1, 1)       # a Salem polynomial: two roots off the circle


def test_cyclotomic_part_matches_trial_division():
    hyp = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")
    coeff = st.integers(-4, 4) | st.integers(-2 ** 70, 2 ** 70)
    # monic, constant term +-1: x^2 - 3x + 1 and its kind, and at times a
    # cyclotomic polynomial (x^2 + 1, x^2 - x + 1, x^2 - 1, ...)
    unit = st.builds(lambda c0, mid: (c0, *mid, 1), st.sampled_from((1, -1)), st.lists(coeff, min_size=1, max_size=4))
    other = st.sampled_from(((1, -3, 1), (1, 3, 1), (-1, -1, 0, 1), LEHMER)) | unit

    @hyp.settings(max_examples=60, deadline=None)
    @hyp.given(st.lists(st.integers(1, 60), max_size=4), st.lists(other, max_size=2), st.integers(0, 3))
    def check(ds, others, ones):
        p = [1]
        for f in [cyclotomic_plain(d) for d in ds] + others + [(-1, 1)] * ones:
            p = poly_mul_plain(p, f)
        q, r = cyclotomic_part(IntPoly(tuple(p)))
        assert [list(q.coeffs), list(r.coeffs)] == list(cyclotomic_part_plain(p))

    check()


def test_cyclotomic_part_matches_sympy():
    sympy = pytest.importorskip("sympy")
    x = sympy.Symbol("x")
    rnd = random.Random(61)
    others = [(1, -3, 1), (-1, -1, 0, 1), LEHMER, (1, 2 ** 70, 1), (-1, -2 ** 64 - 5, 0, 1)]
    for _ in range(25):
        p = [1]
        for f in [cyclotomic_plain(rnd.randint(1, 60)) for _ in range(rnd.randint(0, 3))] + \
                rnd.sample(others, rnd.randint(0, 2)) + [(1, 1)] * rnd.randint(0, 2):
            p = poly_mul_plain(p, f)
        _, factors = sympy.factor_list(sum(c * x ** i for i, c in enumerate(p)), x)
        cyc = sympy.Integer(1)
        for f, k in factors:
            if sympy.Poly(f, x).is_cyclotomic:
                cyc *= f ** k
        q, r = cyclotomic_part(IntPoly(tuple(p)))
        assert list(q.coeffs) == [int(c) for c in reversed(sympy.Poly(cyc, x).all_coeffs())], p
        assert list((q * r).coeffs) == p


def test_cyclotomic_part_divides_only_survivors(monkeypatch):
    # the mod-q filter leaves Phi_5 and Phi_12 only; Phi_5 is divided twice
    # and fails a third time, Phi_12 once and then is too large, so
    # cyclotomic() is asked for those two and nothing else
    asked = []
    build = exact.cyclotomic

    def recorded(d):
        asked.append(d)
        return build(d)

    monkeypatch.setattr(exact, "cyclotomic", recorded)
    p = [1]
    for f in ((1, -3, 1), cyclotomic_plain(5), cyclotomic_plain(5), cyclotomic_plain(12), (1, 1), (-1, 1)):
        p = poly_mul_plain(p, f)
    q, r = cyclotomic_part(IntPoly(tuple(p)))
    assert r.coeffs == (1, -3, 1) and asked == [5, 12]
    # (x - 1)^14, the commonest product of a search, divides by nothing
    asked.clear()
    unipotent = IntPoly(tuple(math.comb(14, k) * (-1) ** (14 - k) for k in range(15)))
    assert cyclotomic_part(unipotent) == (unipotent, IntPoly.one) and asked == []


def test_cyclotomic_part_filter_false_positive():
    # r = x^2 + (q - z) x + q has r(z) = q (z + 1) = 0 mod q for the filter's
    # (q, z) at d = 3, but no cyclotomic factor: the one trial division
    # fails, and r comes back whole
    ds, qs, zs = exact._cyclotomic_filter(2)
    assert ds == (3, 4, 6)
    q, z = int(qs[0]), int(zs[0])
    r = IntPoly((q, q - z, 1))
    assert cyclotomic_part(r) == (IntPoly.one, r)
    p = IntPoly(tuple(poly_mul_plain(r.coeffs, cyclotomic_plain(3))))
    assert cyclotomic_part(p) == (IntPoly(cyclotomic_plain(3)), r)


def test_cyclotomic_part_rejects_zero_root():
    with pytest.raises(ValueError):
        cyclotomic_part(IntPoly((0, 1)))


# --- partial hyperbolicity ------------------------------------------------------

def test_phyp_golden():
    assert not is_partially_hyperbolic(IntMatrix.identity(5))
    assert is_partially_hyperbolic(FIB)
    perm = IntMatrix.from_rows([[0, 1, 0], [0, 0, 1], [1, 0, 0]])
    assert not is_partially_hyperbolic(perm)
    perm4 = IntMatrix.from_rows([[0, 1, 0, 0], [1, 0, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]])
    assert not is_partially_hyperbolic(perm4)


def test_phyp_rejects_non_unimodular():
    with pytest.raises(ValueError):
        is_partially_hyperbolic(IntMatrix.from_rows([[2, 0], [0, 1]]))


def test_phyp_agrees_with_float_oracle_sample():
    rnd = random.Random(17)
    for _ in range(120):
        M = random_unimodular(rnd, rnd.randint(2, 6), rnd.randint(0, 10))
        exact = is_partially_hyperbolic(M)
        numeric = max_root_modulus(char_poly(M).coeffs) > 1 + 1e-6
        assert exact == numeric, M.entries


# --- serialization ---------------------------------------------------------------

def test_matrix_json_roundtrip():
    obj = matrix_to_json(FIB)
    assert obj == {"rows": 2, "cols": 2, "entries": [["2", "1"], ["1", "1"]]}
    assert matrix_from_json(obj).entries == FIB.entries
    assert matrix_from_json([[2, 1], [1, 1]]).entries == FIB.entries


def test_poly_json_and_formatting():
    p = IntPoly((1, -3, 1))
    assert poly_to_json(p) == {"coeffs": ["1", "-3", "1"]}
    assert format_poly(p) == "x^2-3x+1"
    assert format_poly(IntPoly((1,))) == "1"
    assert format_poly(IntPoly(())) == "0"


@pytest.mark.parametrize("fmt, wrap", [
    (matrix_to_json, lambda x: IntMatrix.from_rows([[1, 0], [x, 1]])),
    (exact.vector_to_json, lambda x: IntVector((0, x))),
    (poly_to_json, lambda x: IntPoly((x, 1))),
    (format_poly, lambda x: IntPoly((1, x, 1))),
], ids=["matrix_to_json", "vector_to_json", "poly_to_json", "format_poly"])
def test_formatters_check_printable(fmt, wrap):
    # each formatter refuses an integer of more than max_printable_bits()
    # bits, of either sign, before it formats any; the largest that fits prints
    top = 1 << math.floor(exact.max_printable_bits())
    for x in (top, -top):
        with pytest.raises(exact.ResourceLimitError, match=f"an integer of {top.bit_length()} bits exceeds"):
            fmt(wrap(x))
    assert str(top - 1) in str(fmt(wrap(top - 1)))
