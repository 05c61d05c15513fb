"""Symplectic group tests: transvection goldens, the symplectic check,
congruence reduction, and the corner embedding the other tests build inputs
with."""

import math
import random

import pytest

from distortion.exact import IntMatrix, IntVector, mat_mul
from distortion.mapclass import level_membership
from distortion.symplectic import SymplecticContext, is_symplectic, transvection
from helpers_oracle import embed_corner, form_plain, mat_mul_plain, twist_plain


def random_transvection_product(rnd, g, count):
    ctx = SymplecticContext(g)
    M = IntMatrix.identity(2 * g)
    for _ in range(count):
        v = IntVector(tuple(rnd.randint(-2, 2) for _ in range(2 * g)))
        M = mat_mul(M, transvection(ctx, v))
    return M


def test_context_pairing_convention():
    ctx = SymplecticContext(3)
    for i in range(1, 4):
        a, b = ctx.basis_vector(f"a{i}"), ctx.basis_vector(f"b{i}")
        assert ctx.pairing(a, b) == 1
        assert ctx.pairing(b, a) == -1
        assert ctx.pairing(a, a) == 0
    # the pairing is x^T J y for the hand-written J, an alternating form
    # with J^2 = -I
    J = form_plain(3)
    assert mat_mul_plain(J, J) == [[-int(i == j) for j in range(6)] for i in range(6)]
    assert [list(col) for col in zip(*J)] == [[-x for x in row] for row in J]
    for i in range(6):
        for j in range(6):
            assert ctx.pairing(IntVector.basis(6, i), IntVector.basis(6, j)) == J[i][j]
    rnd = random.Random(4)
    for _ in range(50):
        x, y = ([rnd.randint(-5, 5) for _ in range(6)] for _ in range(2))
        xJy = mat_mul_plain([x], mat_mul_plain(J, [[b] for b in y]))[0][0]
        assert ctx.pairing(IntVector(tuple(x)), IntVector(tuple(y))) == xJy


def test_transvection_golden():
    ctx = SymplecticContext(1)
    assert transvection(ctx, IntVector.zero(2)).is_identity()
    assert transvection(ctx, ctx.basis_vector("a1")).entries == ((1, -1), (0, 1))
    assert transvection(ctx, ctx.basis_vector("b1")).entries == ((1, 0), (1, 1))


def test_transvection_matches_plain_twist():
    # transvection takes any v, primitive, divisible or zero; the plain
    # twist's powers agree with its products, and T_v^-1 inverts T_v
    rnd = random.Random(31)
    for g in (1, 2, 3, 4):
        ctx = SymplecticContext(g)
        vs = [[0] * (2 * g)] + [[rnd.randint(-3, 3) for _ in range(2 * g)] for _ in range(20)]
        vs += [[2 * x for x in v] for v in vs[1:4]] + [[0] * (2 * g - 1) + [6]]
        for v in vs:
            T = twist_plain(v)
            assert transvection(ctx, IntVector(tuple(v))).entries == tuple(map(tuple, T)), v
            assert twist_plain(v, 2) == mat_mul_plain(T, T)
            assert mat_mul_plain(T, twist_plain(v, -1)) == twist_plain(v, 0)
    assert any(math.gcd(*v) > 1 for v in vs) and not any(vs[0])


def test_transvection_sign_symmetry():
    rnd = random.Random(2)
    for g in (1, 2, 3, 4):
        ctx = SymplecticContext(g)
        for _ in range(40):
            v = IntVector(tuple(rnd.randint(-3, 3) for _ in range(2 * g)))
            assert transvection(ctx, v).entries == transvection(ctx, -v).entries


def test_is_symplectic_golden():
    ctx = SymplecticContext(1)
    assert is_symplectic(ctx, IntMatrix.identity(2))
    assert is_symplectic(ctx, IntMatrix.from_rows(form_plain(1)))
    assert is_symplectic(SymplecticContext(3), IntMatrix.from_rows(form_plain(3)))
    # J of the other sign convention is symplectic too, a J with one
    # corner's sign flipped is not
    assert is_symplectic(SymplecticContext(2), IntMatrix.from_rows(form_plain(2)).scale(-1))
    flipped = form_plain(2)
    flipped[0][2] = -1
    assert not is_symplectic(SymplecticContext(2), IntMatrix.from_rows(flipped))
    assert not is_symplectic(ctx, IntMatrix.from_rows([[2, 0], [0, 1]]))
    assert not is_symplectic(ctx, IntMatrix.identity(4))


def test_sp_element_rejects_non_symplectic():
    # An Sp(2g, Z) element is a plain IntMatrix; is_symplectic is the check
    # that keeps other matrices out.
    bad = IntMatrix.from_rows([[1, 0], [0, 2]])
    assert not is_symplectic(SymplecticContext(1), bad)
    # det 1 but not symplectic: a2 -> a2 + a1 gives <a2, b1> = 1
    shear = IntMatrix.from_rows([[1, 1, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]])
    assert shear.det() == 1 and not is_symplectic(SymplecticContext(2), shear)


def test_transvection_products_symplectic():
    rnd = random.Random(23)
    for _ in range(1000):
        g = rnd.randint(1, 4)
        M = random_transvection_product(rnd, g, rnd.randint(0, 20))
        assert is_symplectic(SymplecticContext(g), M)


def test_congruence_golden():
    ctx = SymplecticContext(1)
    assert level_membership(IntMatrix.identity(2), 2)
    t_a = transvection(ctx, ctx.basis_vector("a1"))
    assert t_a.mod(2).entries == ((1, 1), (0, 1))
    assert not level_membership(t_a, 2)
    # v = 2*a1 gives entry -4: level 2 yes, level 3 no
    t2 = transvection(ctx, IntVector((2, 0)))
    assert t2.entries == ((1, -4), (0, 1))
    assert level_membership(t2, 2)
    assert not level_membership(t2, 3)


def test_embed_corner():
    ctx1 = SymplecticContext(1)
    assert embed_corner(IntMatrix.identity(2), 3).is_identity()
    A = IntMatrix.from_rows([[2, 1], [1, 1]])
    E = embed_corner(A, 2)
    assert is_symplectic(SymplecticContext(2), E)
    # acts as A on (a1, b1), identity on (a2, b2)
    idx = {0: 0, 1: 2}
    for i in (0, 1):
        for j in (0, 1):
            assert E.entries[idx[i]][idx[j]] == A.entries[i][j]
    assert E.entries[1][1] == 1 and E.entries[3][3] == 1
    # naturality for transvections along embedded classes
    t_h = transvection(ctx1, ctx1.basis_vector("a1"))
    t_g = transvection(SymplecticContext(2), SymplecticContext(2).basis_vector("a1"))
    assert embed_corner(t_h, 2).entries == t_g.entries
    with pytest.raises(ValueError):
        embed_corner(E, 1)

