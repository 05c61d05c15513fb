"""Oracle tests: exact ball metrics in Z^k x| Z, distortion tables, finite
closure orders."""

import math
import random

import pytest

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
    gens = [transvection(ctx, c.homology).matrix for c in humphries_table(2).curves]
    res = finite_closure(gens, 2)
    assert res.order == sp_mod2_order(2) == 720
    assert sum(res.histogram) == res.order


def test_finite_closure_lagrange_mod3():
    ctx = SymplecticContext(2)
    gens = [transvection(ctx, c.homology).matrix for c in humphries_table(2).curves]
    order_sp43 = 3 ** 4 * (3 ** 2 - 1) * (3 ** 4 - 1)
    res = finite_closure(gens, 3)
    assert order_sp43 % res.order == 0


def test_finite_closure_guard():
    ctx = SymplecticContext(2)
    gens = [transvection(ctx, c.homology).matrix for c in humphries_table(2).curves]
    with pytest.raises(ResourceLimitError):
        finite_closure(gens, 2, state_cap=50)


def test_finite_closure_bytes_fallback():
    # L large enough that base-L packing cannot fit an int64
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
