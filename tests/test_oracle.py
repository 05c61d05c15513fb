"""Oracle tests: exact ball metrics in Z^k x| Z, distortion tables, finite
closure orders."""

import math
import random

import numpy as np
import pytest

import distortion.exact as exact
import distortion.oracle as oracle
from distortion.exact import IntMatrix, mat_mul
from distortion.mapclass import humphries_table
from distortion.oracle import (
    ResourceLimitError,
    SemidirectGroup,
    _inverse_mod,
    bfs_ball,
    distortion_table,
    finite_closure,
)
from distortion.symplectic import SymplecticContext, transvection
from helpers_oracle import ball_plain, closure_layers, det_plain

FIB = IntMatrix.from_rows([[2, 1], [1, 1]])


def sp_mod2_order(g):
    order = 2 ** (g * g)
    for i in range(1, g + 1):
        order *= 2 ** (2 * i) - 1
    return order


def test_group_arithmetic():
    G = SemidirectGroup(FIB)
    x = ((3, -1), 2)
    y = ((0, 4), -1)
    # associativity spot check
    z = ((1, 1), 1)
    lhs = G.multiply(G.multiply(x, y), z)
    rhs = G.multiply(x, G.multiply(y, z))
    assert lhs == rhs
    assert G.multiply(x, G.invert(x)) == G.identity()
    assert G.multiply(G.invert(x), x) == G.identity()
    with pytest.raises(ValueError):
        SemidirectGroup(IntMatrix.from_rows([[2, 0], [0, 1]]))
    # cached powers are outside equality and hashing
    fresh = SemidirectGroup(FIB)
    assert G.power(-2) == FIB.inverse() ** 2
    assert G == fresh and hash(G) == hash(fresh)


def test_powers_invert_once(monkeypatch):
    calls = []

    def counting(A, B, _cramer=exact._cramer):
        calls.append("det")
        return _cramer(A, B)

    def inverse(A, _inverse=IntMatrix.inverse):
        calls.append("inverse")
        return _inverse(A)

    monkeypatch.setattr(exact, "_cramer", counting)
    monkeypatch.setattr(IntMatrix, "inverse", inverse)
    bfs_ball(SemidirectGroup(FIB), 10)
    # one det in the unimodularity check, one inverse for levels -1..-10
    assert calls == ["det", "inverse"]


def test_ball_golden():
    G = SemidirectGroup(FIB)
    assert bfs_ball(G, 0).lengths == {((0, 0), 0): 0}
    flat = SemidirectGroup(IntMatrix.identity(2))
    ball = bfs_ball(flat, 2)
    fiber = [e for e in ball.lengths if e[1] == 0]
    assert len(fiber) == 13          # L1 ball of Z^2
    ball3 = bfs_ball(G, 3)
    assert ball3.word_length(((2, 1), 0)) == 3   # t e1 t^-1 = e1^2 e2


def test_ball_metric_properties():
    G = SemidirectGroup(FIB)
    ball = bfs_ball(G, 6)
    rnd = random.Random(3)
    elements = list(ball.lengths)
    for _ in range(10_000):
        x = rnd.choice(elements)
        y = rnd.choice(elements)
        assert ball.word_length(G.invert(x)) == ball.word_length(x)
        prod = G.multiply(x, y)
        lp = ball.word_length(prod)
        if lp is not None:
            assert lp <= ball.lengths[x] + ball.lengths[y]


def test_ball_layers_and_guard():
    G = SemidirectGroup(FIB)
    ball = bfs_ball(G, 4)
    assert ball.layer_sizes[0] == 1
    assert sum(ball.layer_sizes) == len(ball)
    with pytest.raises(ResourceLimitError):
        bfs_ball(G, 9, state_cap=100)
    for cap in (0, -1):
        with pytest.raises(ValueError):
            bfs_ball(G, 4, state_cap=cap)


def test_ball_lower_count_guard():
    # the words t^s e_1^a, |s| + |a| <= r, are 2 r^2 + 2 r + 1 distinct
    # states; at rank 0 the ball is the 2 r + 1 powers of t
    G = SemidirectGroup(FIB)
    assert len(bfs_ball(G, 3)) == 103 >= 25
    with pytest.raises(ResourceLimitError, match="at least 25 states, over the cap 24"):
        bfs_ball(G, 3, state_cap=24)
    with pytest.raises(ResourceLimitError, match="projected ball size"):
        bfs_ball(G, 3, state_cap=25)
    T = SemidirectGroup(IntMatrix.zero(0, 0))
    assert bfs_ball(T, 4, state_cap=100).layer_sizes == (1, 2, 2, 2, 2)
    with pytest.raises(ResourceLimitError, match="at least 11 states, over the cap 10"):
        bfs_ball(T, 5, state_cap=10)


def _check_ball_against_plain(A, radius):
    lengths, layers = ball_plain(A, radius)
    ball = bfs_ball(SemidirectGroup(IntMatrix.from_rows(A)), radius)
    assert ball.layer_sizes == tuple(layers)
    # every (state, length), in ascending (v, t) order
    assert list(ball.lengths.items()) == sorted(lengths.items())
    assert all(ball.word_length(x) == d for x, d in lengths.items())
    assert ball.fiber_states == sum(1 for (_, t) in lengths if t == 0)
    return ball


def test_ball_matches_plain_bfs_property():
    hyp = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")

    def mul(X, Y):
        return [[sum(a * b for a, b in zip(row, col)) for col in zip(*Y)] for row in X]

    @st.composite
    def automorphisms(draw):
        k = draw(st.integers(1, 3))
        A = [[int(i == j) for j in range(k)] for i in range(k)]
        for _ in range(draw(st.integers(0, 5))):
            E = [[int(i == j) for j in range(k)] for i in range(k)]
            i = draw(st.integers(0, k - 1))
            kind = draw(st.sampled_from(("negate", "add", "swap") if k > 1 else ("negate",)))
            if kind == "negate":
                E[i][i] = -1
            else:
                j = draw(st.integers(0, k - 2))
                j += j >= i
                if kind == "add":
                    E[i][j] = draw(st.sampled_from((-2, -1, 1, 2)))
                else:
                    E[i][i] = E[j][j] = 0
                    E[i][j] = E[j][i] = 1
            A = mul(A, E)
        return A, draw(st.integers(0, 6))

    @hyp.settings(max_examples=60, deadline=None)
    @hyp.given(automorphisms())
    def check(case):
        _check_ball_against_plain(*case)

    check()


def test_ball_key_dtype():
    # D^k T < 2^62: int64 keys
    assert _check_ball_against_plain([[2, 1], [1, 1]], 10).keys.dtype == np.int64
    # FIB^40 at radius 3 has B = 3 max|FIB^120| > 2^83: Python-int keys
    ball = _check_ball_against_plain([list(row) for row in (FIB ** 40).entries], 3)
    assert ball.keys.dtype == object


def test_ball_word_length_out_of_range():
    # for the identity automorphism B = radius; coordinates past B or levels
    # past the radius are outside the ball, and their keys would alias states
    # inside it
    r = 3
    ball = bfs_ball(SemidirectGroup(IntMatrix.identity(2)), r)
    B = ball.bound
    assert B == r
    assert ball.word_length(((B, 0), 0)) == B
    assert ball.word_length(((B + 1, 0), 0)) is None
    assert ball.word_length(((-B - 1, 0), 0)) is None
    assert ball.word_length(((1, -B - 1), 0)) is None      # key of (0, B, 0)
    assert ball.word_length(((0, 0), r)) == r
    assert ball.word_length(((0, -1), r + 1)) is None      # key of (0, 0, -r)
    assert ball.word_length(((0, 0), -r - 1)) is None


def test_distortion_table_golden():
    rows = distortion_table(SemidirectGroup(FIB), 4)
    assert [r.intrinsic for r in rows] == [3, 8, 21, 55]       # F_{2n+2}
    # Fibonacci recurrence cross-check
    f = [1, 1]
    while len(f) < 12:
        f.append(f[-1] + f[-2])
    assert [r.intrinsic for r in rows] == [f[2 * n + 1] for n in range(1, 5)]
    assert all(r.extrinsic_exact for r in rows)
    assert all(r.extrinsic <= 2 * r.n + 1 for r in rows)
    from fractions import Fraction
    ratios = [Fraction(r.intrinsic, r.extrinsic) for r in rows]
    assert all(b > a for a, b in zip(ratios, ratios[1:]))


def test_distortion_table_growth_bound():
    rows = distortion_table(SemidirectGroup(FIB), 5)
    lam = (3 + math.sqrt(5)) / 2     # dominant root of x^2 - 3x + 1
    for r in rows:
        assert r.intrinsic >= lam ** (r.n - 1)


def test_distortion_table_undistorted_case():
    rows = distortion_table(SemidirectGroup(IntMatrix.identity(2)), 3, radius=3)
    assert [r.intrinsic for r in rows] == [1, 1, 1]


def test_inverse_mod():
    rnd = random.Random(7)
    for _ in range(30):
        n = rnd.randint(1, 4)
        L = rnd.choice((2, 3, 5, 7))
        while True:
            M = IntMatrix.from_rows([[rnd.randint(0, L - 1) for _ in range(n)] for _ in range(n)])
            if math.gcd(M.det() % L, L) == 1:
                break
        inv = _inverse_mod(M, L)
        assert mat_mul(M, inv).mod(L).entries == IntMatrix.identity(n).mod(L).entries


def test_finite_closure_golden():
    assert finite_closure([IntMatrix.identity(3)], 2).order == 1
    ctx = SymplecticContext(2)
    gens = [transvection(ctx, c) for c in humphries_table(2).values()]
    res = finite_closure(gens, 2)
    assert res.order == sp_mod2_order(2) == 720
    assert sum(res.histogram) == res.order


def test_finite_closure_lagrange_mod3():
    ctx = SymplecticContext(2)
    gens = [transvection(ctx, c) for c in humphries_table(2).values()]
    order_sp43 = 3 ** 4 * (3 ** 2 - 1) * (3 ** 4 - 1)
    res = finite_closure(gens, 3)
    assert order_sp43 % res.order == 0


@pytest.mark.parametrize("L, order", [
    (3, 3 ** 4 * (3 ** 2 - 1) * (3 ** 4 - 1)),   # |Sp(4, F_3)| = 51,840
    (4, 2 ** 10 * sp_mod2_order(2)),             # |Sp(4, Z/4)| = 737,280
])
def test_finite_closure_humphries_orders(L, order):
    ctx = SymplecticContext(2)
    gens = [transvection(ctx, c) for c in humphries_table(2).values()]
    res = finite_closure(gens, L)
    assert res.order == order
    assert sum(res.histogram) == order


def test_finite_closure_sl2_mod50_order():
    # the two elementary matrices generate SL(2, Z/50), inside GL(3);
    # |SL(2, Z/50)| = |SL(2, Z/2)| |SL(2, Z/25)| = 6 * 15,000 = 90,000
    gens = [[[1, 1, 0], [0, 1, 0], [0, 0, 1]], [[1, 0, 0], [1, 1, 0], [0, 0, 1]]]
    res = finite_closure([IntMatrix.from_rows(G) for G in gens], 50)
    assert res.order == 90_000
    assert sum(res.histogram) == 90_000


SIGNED_4CYCLE = [[[-1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]],
                 [[0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1], [1, 0, 0, 0]]]


@pytest.mark.parametrize("gens, L", [
    # image table: L^n = 125 row codes; the unitriangular group mod 5
    ([[[1, 1, 0], [0, 1, 0], [0, 0, 1]], [[1, 0, 0], [0, 1, 1], [0, 0, 1]]], 5),
    # decode and multiply on int64: L^(n^2) < 2^62 but L^n = 66,049 > 2^16
    ([[[1, 1], [0, 1]], [[-1, 0], [0, -1]]], 257),
    # decode and multiply on Python ints: L^(n^2) >= 2^62
    ([[[0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1], [1, 0, 0, 0]],
      [[2, 0, 0, 0], [0, 2, 0, 0], [0, 0, 2, 0], [0, 0, 0, 2]]], 97),
    # image table, 32,761 layers: the state count is kept as a running total
    ([[[17]]], 65521),
    # order 64 on Python ints: n (L - 1)^2 fits int64 but L^n does not
    (SIGNED_4CYCLE, 2 ** 20 + 7),
    (SIGNED_4CYCLE, 2 ** 16 + 1),
    # order 2 on Python ints: L^(n^2) fits int64 but n (L - 1)^2 does not
    ([[[-1]]], 2 ** 40 + 15),
])
def test_finite_closure_routes_match_plain_bfs(gens, L):
    layers = closure_layers(gens, L)
    res = finite_closure([IntMatrix.from_rows(G) for G in gens], L)
    assert res.histogram == tuple(layers)
    assert res.order == sum(layers)


@pytest.mark.parametrize("L", [2 ** 33 + 17, 2 ** 40 + 15])
def test_finite_closure_large_modulus(L):
    # n (L - 1)^2 >= 2^63: the products run on Python ints, not int64
    gens = [[[-1, 0], [0, 1]]]
    res = finite_closure([IntMatrix.from_rows(G) for G in gens], L)
    assert res.order == 2
    assert res.histogram == tuple(closure_layers(gens, L))


def test_finite_closure_property_plain_bfs():
    check_closure_property()


def test_finite_closure_property_plain_bfs_without_tables(monkeypatch):
    # no image tables: every row image is decoded, multiplied and re-encoded
    monkeypatch.setattr(oracle, "ROW_CODES_MAX", 0)
    check_closure_property()


def check_closure_property():
    hyp = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")

    @st.composite
    def generator_sets(draw):
        n = draw(st.integers(1, 3))
        L = draw(st.integers(2, 7))
        # at most |GL(2, Z/7)| = 2016 states; n = 3 only mod 2 or cyclic
        count = draw(st.integers(1, 3 if n < 3 or L == 2 else 1))
        entries = st.lists(st.lists(st.integers(-L, L), min_size=n, max_size=n),
                           min_size=n, max_size=n)
        unit = entries.filter(lambda M: math.gcd(det_plain(M), L) == 1)
        return draw(st.lists(unit, min_size=count, max_size=count)), L

    @hyp.settings(max_examples=60, deadline=None)
    @hyp.given(generator_sets())
    def check(case):
        gens, L = case
        layers = closure_layers(gens, L)
        res = finite_closure([IntMatrix.from_rows(G) for G in gens], L)
        assert res.histogram == tuple(layers)
        assert res.order == sum(layers)

    check()


def test_finite_closure_guard():
    ctx = SymplecticContext(2)
    gens = [transvection(ctx, c) for c in humphries_table(2).values()]
    with pytest.raises(ResourceLimitError):
        finite_closure(gens, 2, state_cap=50)


def _guard_trips(expanded, moves):
    """The projected sizes states + len(layer d) * moves, over the expanded
    layers d, that pass every earlier one: a cap one below such a size
    passes the earlier checks and trips at d."""
    states, out = 0, [0]
    for size in expanded:
        states += size
        if (projected := states + size * moves) > out[-1]:
            out.append(projected)
    return out[1:]


# each run returns the sizes of the layers it expanded: the ball all but its
# last, the closure all, as its last expansion finds nothing new.  Caps
# below the ball's 2 r^2 + 2 r + 1 = 61 least states trip before any layer.
@pytest.mark.parametrize("expanded, what, moves, least", [
    (lambda cap: bfs_ball(SemidirectGroup(FIB), 5, state_cap=cap).layer_sizes[:-1], "ball", 6, 61),
    (lambda cap: finite_closure([IntMatrix.from_rows([[1, 1], [0, 1]]), IntMatrix.from_rows([[1, 0], [1, 1]])],
                                5, state_cap=cap).histogram, "closure", 4, 1),
], ids=["ball", "closure"])
def test_oracle_guard_boundary(expanded, what, moves, least):
    sizes = expanded(10_000_000)
    trips = [p for p in _guard_trips(sizes, moves) if p > least]
    assert len(trips) > 2
    for projected in trips:
        with pytest.raises(ResourceLimitError) as err:
            expanded(projected - 1)
        assert str(err.value) == f"projected {what} size {projected} exceeds the cap {projected - 1}"
    assert expanded(trips[-1]) == sizes


def test_finite_closure_bytes_fallback():
    # L large enough that base-L keys cannot fit an int64: Python-int keys
    M = IntMatrix.from_rows([[0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1], [1, 0, 0, 0]])
    res = finite_closure([M], 97)
    assert res.order == 4   # the cyclic permutation group


def test_finite_closure_validates():
    with pytest.raises(ValueError):
        finite_closure([], 2)
    with pytest.raises(ValueError):
        finite_closure([IntMatrix.identity(2)], 1)
    with pytest.raises(ValueError):
        finite_closure([IntMatrix.from_rows([[2, 0], [0, 2]])], 4)  # det not a unit
    for cap in (0, -1):
        with pytest.raises(ValueError):
            finite_closure([IntMatrix.identity(2)], 2, state_cap=cap)
