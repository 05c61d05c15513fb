"""Exterior-functor tests: minors and functoriality, the omega-embedding (the
closed target's relation matrix), target module ranks, induced actions,
relative targets and their naturality."""

import math
import random

import numpy as np
import pytest

from distortion import exterior
from distortion.exact import IntMatrix, IntVector, char_poly, cyclotomic_part, mat_mul
from distortion.exterior import (
    induced_action,
    johnson_target,
    relative_natural_map,
    relative_target,
    target_to_json,
    wedge3_columns,
    wedge3_map,
    wedge3_of_vectors,
    wedge3_space,
)
from distortion.symplectic import SpElement, SymplecticContext, embed_corner, transvection
from helpers_oracle import wedge3_plain

# the largest a with 6 a^3 < 2^63: wedge3_map's int64 bound
INT64_TOP = max(a for a in range(1154000, 1155000) if 6 * a ** 3 < 1 << 63)


def random_sp(rnd, g, twists):
    ctx = SymplecticContext(g)
    M = SpElement.identity(ctx)
    for _ in range(twists):
        v = IntVector(tuple(rnd.randint(-2, 2) for _ in range(2 * g)))
        M = M * transvection(ctx, v)
    return M


def lagrangian_basis(g):
    return IntMatrix.from_columns([IntVector.basis(2 * g, i).entries for i in range(g)], 2 * g)


def handle_basis(g, h):
    cols = []
    for i in range(h):
        cols.append(IntVector.basis(2 * g, i).entries)
        cols.append(IntVector.basis(2 * g, g + i).entries)
    return IntMatrix.from_columns(cols, 2 * g)


# --- wedge powers ----------------------------------------------------------------

def test_wedge3_golden():
    assert wedge3_map(IntMatrix.identity(5)).is_identity()
    M3 = IntMatrix.from_rows([[1, 2, 0], [0, 1, 3], [1, 1, 1]])
    top = wedge3_map(M3)
    assert top.shape == (1, 1) and top.entries[0][0] == M3.det()
    doubled = wedge3_map(IntMatrix.identity(4).scale(2))
    assert doubled.entries == IntMatrix.identity(4).scale(8).entries
    with pytest.raises(ValueError):
        wedge3_map(IntMatrix.identity(2))


def test_wedge3_functorial():
    rnd = random.Random(13)
    for _ in range(200):
        n = rnd.randint(3, 8)
        A = IntMatrix.from_rows([[rnd.randint(-2, 2) for _ in range(n)] for _ in range(n)])
        B = IntMatrix.from_rows([[rnd.randint(-2, 2) for _ in range(n)] for _ in range(n)])
        assert wedge3_map(mat_mul(A, B)).entries == mat_mul(wedge3_map(A), wedge3_map(B)).entries


def test_wedge3_functorial_property():
    # both kernel paths: small entries run in int64, entries past INT64_TOP on Python ints
    hyp = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")

    @st.composite
    def pairs(draw):
        r, k, c = (draw(st.integers(3, 5)) for _ in range(3))
        top = draw(st.sampled_from((3, INT64_TOP, 2 ** 40)))
        entry = st.integers(-top, top)
        A = draw(st.lists(st.lists(entry, min_size=k, max_size=k), min_size=r, max_size=r))
        B = draw(st.lists(st.lists(entry, min_size=c, max_size=c), min_size=k, max_size=k))
        A[0][0] = draw(st.sampled_from((top, -top)))
        return A, B

    @hyp.settings(max_examples=60, deadline=None)
    @hyp.given(pairs())
    def check(pair):
        A, B = (IntMatrix.from_rows(X) for X in pair)
        WA, WB = wedge3_map(A), wedge3_map(B)
        assert [list(row) for row in WA.entries] == wedge3_plain(pair[0])
        assert [list(row) for row in WB.entries] == wedge3_plain(pair[1])
        assert wedge3_map(mat_mul(A, B)).entries == mat_mul(WA, WB).entries

    check()


def test_wedge3_int64_bound_edge():
    assert 6 * INT64_TOP ** 3 < 1 << 63 <= 6 * (INT64_TOP + 1) ** 3
    signs = [[1, 1, -1], [1, -1, 1], [-1, 1, 1]]      # |det| = 4, the largest for entries +-1
    for a, dtype in ((INT64_TOP, np.int64), (INT64_TOP + 1, object)):
        assert exterior._array(IntMatrix.identity(3).scale(a).entries, a).dtype == dtype
        rows = [[a * s for s in row] for row in signs]
        assert wedge3_map(IntMatrix.from_rows(rows)).entries == ((-4 * a ** 3,),)
        M = [[a, -a, a, 0], [a, a, -a, a], [-a, a, a, -a], [0, a, -a, a]]
        assert [list(r) for r in wedge3_map(IntMatrix.from_rows(M)).entries] == wedge3_plain(M)


def test_wedge3_rectangular():
    rnd = random.Random(53)
    for r in range(3, 7):
        for c in range(3, 7):
            M = [[rnd.randint(-4, 4) for _ in range(c)] for _ in range(r)]
            W = wedge3_map(IntMatrix.from_rows(M))
            assert W.shape == (math.comb(r, 3), math.comb(c, 3))
            assert [list(row) for row in W.entries] == wedge3_plain(M)


def test_wedge3_columns_batched():
    rnd = random.Random(59)
    for n, N, top in ((3, 1, 2), (6, 17, 5), (8, 40, 2 ** 30)):
        X, Y, Z = ([[rnd.randint(-top, top) for _ in range(N)] for _ in range(n)] for _ in range(3))
        W = wedge3_columns(*(IntMatrix.from_rows(T) for T in (X, Y, Z)))
        assert W.shape == (math.comb(n, 3), N)
        for t in range(N):
            u, v, w = (IntVector(tuple(row[t] for row in T)) for T in (X, Y, Z))
            assert W.column(t) == wedge3_of_vectors(u, v, w)
    with pytest.raises(ValueError):
        wedge3_columns(IntMatrix.zero(4, 2), IntMatrix.zero(4, 2), IntMatrix.zero(4, 3))


def test_wedge_of_vectors_consistency():
    rnd = random.Random(29)
    for _ in range(30):
        n = rnd.randint(3, 6)
        u, v, w = (IntVector(tuple(rnd.randint(-3, 3) for _ in range(n))) for _ in range(3))
        direct = wedge3_of_vectors(u, v, w)
        via_minors = wedge3_map(IntMatrix.from_columns([u.entries, v.entries, w.entries], n)).column(0)
        assert direct.entries == via_minors.entries
        assert wedge3_of_vectors(u, u, w).is_zero()
        assert wedge3_of_vectors(u, v, w).entries == tuple(-x for x in wedge3_of_vectors(v, u, w).entries)


# --- omega embedding -------------------------------------------------------------

def test_omega_embedding_golden_columns():
    sp4 = wedge3_space(4)
    E2 = johnson_target(2, "closed").module.relations
    # eps(a1) = a1 ^ a2 ^ b2 (basis order a1 a2 b1 b2)
    expected = [0] * 4
    expected[sp4.index((0, 1, 3))] = 1
    assert E2.column(0).entries == tuple(expected)

    sp6 = wedge3_space(6)
    E3 = johnson_target(3, "closed").module.relations
    expected = [0] * 20
    expected[sp6.index((0, 1, 4))] = 1    # a1 ^ a2 ^ b2
    expected[sp6.index((0, 2, 5))] = 1    # a1 ^ a3 ^ b3
    assert E3.column(0).entries == tuple(expected)


def test_omega_embedding_rejects_genus_one():
    # h ^ omega vanishes identically at genus 1; W = 0 leaves rank 2 < 3 there
    with pytest.raises(ValueError):
        johnson_target(1, "closed")
    with pytest.raises(ValueError):
        relative_target(1, IntMatrix.zero(2, 0))


def test_omega_equivariance():
    rnd = random.Random(37)
    for g in (2, 3, 4):
        E = johnson_target(g, "closed").module.relations
        for _ in range(25):
            M = random_sp(rnd, g, rnd.randint(1, 8)).matrix
            assert mat_mul(wedge3_map(M), E).entries == mat_mul(E, M).entries


# --- targets ---------------------------------------------------------------------

def test_johnson_target_ranks():
    for g in (2, 3, 4, 5):
        closed = johnson_target(g, "closed")
        assert closed.free_rank == math.comb(2 * g, 3) - 2 * g
        assert closed.torsion == ()
        boundary = johnson_target(g, "boundary")
        assert boundary.free_rank == math.comb(2 * g, 3)
    assert johnson_target(3, "closed").free_rank == 14
    assert johnson_target(4, "closed").free_rank == 48
    with pytest.raises(ValueError):
        johnson_target(1, "closed")


def test_induced_action_identity_and_functorial():
    rnd = random.Random(43)
    target = johnson_target(3, "closed")
    ctx = SymplecticContext(3)
    assert induced_action(target, SpElement.identity(ctx)).is_identity()
    for _ in range(10):
        M = random_sp(rnd, 3, 5)
        N = random_sp(rnd, 3, 5)
        lhs = induced_action(target, M * N)
        rhs = mat_mul(induced_action(target, M), induced_action(target, N))
        assert lhs.entries == rhs.entries
        # invertible over Z
        assert induced_action(target, M).det() in (1, -1)


def test_induced_action_detects_hyperbolicity():
    ctx1 = SymplecticContext(1)
    hyp = SpElement(ctx1, IntMatrix.from_rows([[2, -1], [-1, 1]]))
    # boundary target at genus 2 (the closed one is rank 0 there)
    act = induced_action(johnson_target(2, "boundary"), embed_corner(hyp, 2))
    _, r = cyclotomic_part(char_poly(act))
    assert not r.is_one()
    # closed target at genus 3
    act3 = induced_action(johnson_target(3, "closed"), embed_corner(hyp, 3))
    _, r3 = cyclotomic_part(char_poly(act3))
    assert not r3.is_one()


def test_relative_target_lagrangian_vanishing():
    for g in (3, 4):
        rt = relative_target(g, lagrangian_basis(g))
        assert rt.module.relations.is_zero()
        assert rt.free_rank == math.comb(g, 3)
        assert rt.torsion == ()


def test_relative_target_subsurface_matches_smaller_genus():
    rt = relative_target(4, handle_basis(4, 1))
    assert rt.free_rank == johnson_target(3, "closed").free_rank
    rt2 = relative_target(5, handle_basis(5, 2))
    assert rt2.free_rank == johnson_target(3, "closed").free_rank


def test_relative_target_trivial_w():
    empty = IntMatrix(tuple(() for _ in range(6)), 0)
    assert relative_target(3, empty).free_rank == johnson_target(3, "closed").free_rank
    assert relative_target(3, empty, "boundary").free_rank == johnson_target(3, "boundary").free_rank


def test_relative_target_rejections():
    with pytest.raises(ValueError):
        relative_target(3, IntMatrix.from_columns([(2, 0, 0, 0, 0, 0)], 6))   # not primitive
    with pytest.raises(ValueError):
        relative_target(2, lagrangian_basis(2))    # quotient rank 2 < 3


def test_induced_action_rejects_w_violation():
    # T_b1 moves a1 out of the Lagrangian; T_(a1+a3) moves b1 out of handles 1, 2
    for g, w, labels in ((3, lagrangian_basis(3), ("b1",)),
                         (4, lagrangian_basis(4), ("b1",)),
                         (5, handle_basis(5, 2), ("a1", "a3"))):
        ctx = SymplecticContext(g)
        v = sum((ctx.basis_vector(lab) for lab in labels[1:]), ctx.basis_vector(labels[0]))
        with pytest.raises(ValueError, match="does not preserve W"):
            induced_action(relative_target(g, w), transvection(ctx, v))


def test_relative_action_on_quotient():
    # twists along a_i act trivially on wedge^3(H/<a>)
    g = 4
    rt = relative_target(g, lagrangian_basis(g))
    ctx = SymplecticContext(g)
    for i in range(1, g + 1):
        act = induced_action(rt, transvection(ctx, ctx.basis_vector(f"a{i}")))
        assert act.is_identity()


def test_relative_naturality():
    # W1 = <a1> inside W2 = <a1, a2> at genus 4; maps commute with actions
    g = 4
    w1 = IntMatrix.from_columns([IntVector.basis(8, 0).entries], 8)
    w2 = IntMatrix.from_columns([IntVector.basis(8, 0).entries, IntVector.basis(8, 1).entries], 8)
    t1 = relative_target(g, w1)
    t2 = relative_target(g, w2)
    nat = relative_natural_map(t1, t2)
    ctx = SymplecticContext(g)
    hyp = SpElement(SymplecticContext(1), IntMatrix.from_rows([[2, 1], [1, 1]]))
    candidates = [
        transvection(ctx, ctx.basis_vector("a1")),
        transvection(ctx, ctx.basis_vector("a2")),
        transvection(ctx, ctx.basis_vector("b4")),
        transvection(ctx, ctx.basis_vector("a3") + ctx.basis_vector("a4")),
        # hyperbolic on the last handle, well away from W2
        SpElement(ctx, _embed_last_handle(hyp, g)),
    ]
    for M in candidates:
        lhs = mat_mul(nat, induced_action(t1, M))
        rhs = mat_mul(induced_action(t2, M), nat)
        assert lhs.entries == rhs.entries
    with pytest.raises(ValueError):
        relative_natural_map(t2, t1)


def _embed_last_handle(M_h, g):
    """Copy a genus-1 element onto the last handle (a_g, b_g)."""
    n = 2 * g
    rows = [list(IntMatrix.identity(n).entries[i]) for i in range(n)]
    pos = {0: g - 1, 1: 2 * g - 1}
    for i in (0, 1):
        for j in (0, 1):
            rows[pos[i]][pos[j]] = M_h.matrix.entries[i][j]
    return IntMatrix(tuple(tuple(r) for r in rows), n)


def test_target_serialization():
    obj = target_to_json(johnson_target(3, "closed"))
    assert obj["free_rank"] == 14 and obj["torsion"] == []
    assert obj["basis"][0] == ["a1", "a2", "a3"]
    assert len(obj["basis"]) == 20
    rel = target_to_json(relative_target(4, lagrangian_basis(4)))
    assert rel["free_rank"] == 4
    assert len(rel["basis"]) == 4
