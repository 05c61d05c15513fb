"""Symplectic group tests: transvection goldens, group structure, congruence
and stabilizer subgroups, corner embeddings."""

import random

import pytest

from distortion.exact import IntMatrix, IntVector, mat_mul, matrix_to_json
from distortion.symplectic import (
    SpElement,
    SymplecticContext,
    congruence_reduce,
    embed_corner,
    in_congruence_subgroup,
    is_symplectic,
    lagrangian_stabilizer_check,
    project_to_gl,
    sp_element_from_json,
    sp_element_to_json,
    transvection,
)


def random_transvection_product(rnd, g, count):
    ctx = SymplecticContext(g)
    M = SpElement.identity(ctx)
    for _ in range(count):
        v = IntVector(tuple(rnd.randint(-2, 2) for _ in range(2 * g)))
        M = M * transvection(ctx, v)
    return M


def test_context_pairing_convention():
    ctx = SymplecticContext(3)
    for i in range(1, 4):
        a, b = ctx.basis_vector(f"a{i}"), ctx.basis_vector(f"b{i}")
        assert ctx.pairing(a, b) == 1
        assert ctx.pairing(b, a) == -1
        assert ctx.pairing(a, a) == 0
    J = ctx.form
    assert mat_mul(J, J).entries == IntMatrix.identity(6).scale(-1).entries
    assert J.transpose().entries == J.scale(-1).entries


def test_transvection_golden():
    ctx = SymplecticContext(1)
    assert transvection(ctx, IntVector.zero(2)).is_identity()
    assert transvection(ctx, ctx.basis_vector("a1")).matrix.entries == ((1, -1), (0, 1))
    assert transvection(ctx, ctx.basis_vector("b1")).matrix.entries == ((1, 0), (1, 1))


def test_transvection_sign_symmetry():
    rnd = random.Random(2)
    for g in (1, 2, 3, 4):
        ctx = SymplecticContext(g)
        for _ in range(40):
            v = IntVector(tuple(rnd.randint(-3, 3) for _ in range(2 * g)))
            assert transvection(ctx, v).matrix.entries == transvection(ctx, -v).matrix.entries


def test_is_symplectic_golden():
    ctx = SymplecticContext(1)
    assert is_symplectic(ctx, IntMatrix.identity(2))
    assert is_symplectic(ctx, ctx.form)
    assert not is_symplectic(ctx, IntMatrix.from_rows([[2, 0], [0, 1]]))


def test_transvection_products_symplectic():
    rnd = random.Random(23)
    for _ in range(1000):
        g = rnd.randint(1, 4)
        M = random_transvection_product(rnd, g, rnd.randint(0, 20))
        assert is_symplectic(SymplecticContext(g), M.matrix)


def test_group_operations():
    rnd = random.Random(4)
    for _ in range(30):
        g = rnd.randint(1, 3)
        M = random_transvection_product(rnd, g, 6)
        N = random_transvection_product(rnd, g, 6)
        assert (M * M.inverse()).is_identity()
        assert ((M * N).inverse().matrix.entries == (N.inverse() * M.inverse()).matrix.entries)
        assert (M ** 3).matrix.entries == (M * M * M).matrix.entries
        assert (M ** -2).matrix.entries == (M.inverse() * M.inverse()).matrix.entries


def test_congruence_golden():
    ctx = SymplecticContext(1)
    assert in_congruence_subgroup(SpElement.identity(ctx), 2)
    t_a = transvection(ctx, ctx.basis_vector("a1"))
    assert congruence_reduce(t_a, 2).entries == ((1, 1), (0, 1))
    assert not in_congruence_subgroup(t_a, 2)
    # v = 2*a1 gives entry -4: level 2 yes, level 3 no
    t2 = transvection(ctx, IntVector((2, 0)))
    assert t2.matrix.entries == ((1, -4), (0, 1))
    assert in_congruence_subgroup(t2, 2)
    assert not in_congruence_subgroup(t2, 3)


def test_congruence_subgroup_closure_sampled():
    rnd = random.Random(31)
    ctx = SymplecticContext(2)
    L = 3
    # twist powers T^L lie in the level-L subgroup; so do their products
    elements = []
    for _ in range(12):
        v = IntVector(tuple(rnd.randint(-2, 2) for _ in range(4)))
        elements.append(transvection(ctx, v) ** (L * rnd.choice((1, -1))))
    for _ in range(40):
        M = rnd.choice(elements)
        N = rnd.choice(elements)
        assert in_congruence_subgroup(M, L)
        assert in_congruence_subgroup(M * N, L)
        assert in_congruence_subgroup(M.inverse(), L)


def test_lagrangian_stabilizer_golden():
    ctx = SymplecticContext(2)
    ident = SpElement.identity(ctx)
    assert lagrangian_stabilizer_check(ident)
    assert project_to_gl(ident).is_identity()
    t_a1 = transvection(ctx, ctx.basis_vector("a1"))
    assert lagrangian_stabilizer_check(t_a1)
    assert project_to_gl(t_a1).is_identity()
    t_b1 = transvection(ctx, ctx.basis_vector("b1"))
    assert not lagrangian_stabilizer_check(t_b1)
    with pytest.raises(ValueError):
        project_to_gl(t_b1)


def test_lagrangian_stabilizer_closure_and_projection():
    rnd = random.Random(41)
    ctx = SymplecticContext(3)
    # a-twists and a-sum twists all stabilize the Lagrangian
    pool = [transvection(ctx, ctx.basis_vector(f"a{i}")) for i in (1, 2, 3)]
    pool.append(transvection(ctx, ctx.basis_vector("a1") + ctx.basis_vector("a2")))
    # block elements diag(A^-T, A) stabilize it too and project onto A
    E = [list(r) for r in IntMatrix.identity(3).entries]
    E[0][1] = 1
    A = IntMatrix.from_rows(E)
    P = A.inverse().transpose()
    rows = [tuple(P.entries[i]) + (0,) * 3 for i in range(3)]
    rows += [(0,) * 3 + tuple(A.entries[i]) for i in range(3)]
    pool.append(SpElement(ctx, IntMatrix(tuple(rows), 6)))
    for _ in range(60):
        M = rnd.choice(pool)
        N = rnd.choice(pool)
        assert lagrangian_stabilizer_check(M * N)
        assert lagrangian_stabilizer_check(M.inverse())
        lhs = project_to_gl(M * N)
        rhs = mat_mul(project_to_gl(M), project_to_gl(N))
        assert lhs.entries == rhs.entries
        assert abs(project_to_gl(M).det()) == 1


def test_embed_corner():
    ctx1 = SymplecticContext(1)
    assert embed_corner(SpElement.identity(ctx1), 3).is_identity()
    A = SpElement(ctx1, IntMatrix.from_rows([[2, 1], [1, 1]]))
    E = embed_corner(A, 2)
    assert is_symplectic(SymplecticContext(2), E.matrix)
    # acts as A on (a1, b1), identity on (a2, b2)
    idx = {0: 0, 1: 2}
    for i in (0, 1):
        for j in (0, 1):
            assert E.matrix.entries[idx[i]][idx[j]] == A.matrix.entries[i][j]
    assert E.matrix.entries[1][1] == 1 and E.matrix.entries[3][3] == 1
    # naturality for transvections along embedded classes
    t_h = transvection(ctx1, ctx1.basis_vector("a1"))
    t_g = transvection(SymplecticContext(2), SymplecticContext(2).basis_vector("a1"))
    assert embed_corner(t_h, 2).matrix.entries == t_g.matrix.entries
    with pytest.raises(ValueError):
        embed_corner(E, 1)


def test_sp_element_json_roundtrip():
    ctx = SymplecticContext(2)
    M = transvection(ctx, ctx.basis_vector("a1") + ctx.basis_vector("b2"))
    obj = sp_element_to_json(M)
    back = sp_element_from_json(obj)
    assert back.context.genus == 2 and back.matrix.entries == M.matrix.entries


def test_sp_element_rejects_non_symplectic():
    bad = IntMatrix.from_rows([[1, 0], [0, 2]])
    with pytest.raises(ValueError):
        SpElement(SymplecticContext(1), bad)
    with pytest.raises(ValueError):
        sp_element_from_json({"genus": 1, "matrix": matrix_to_json(bad)})
