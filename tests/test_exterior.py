"""Exterior-functor tests: minors and functoriality, the omega-embedding (the
closed target's relation matrix), target module ranks, induced actions,
relative targets and their naturality."""

import dataclasses
import hashlib
import json
import math
import random

import numpy as np
import pytest

from distortion import exact, exterior
from distortion.engine import preset
from distortion.exact import IntMatrix, IntVector, char_poly, cyclotomic_part, mat_mul
from distortion.exterior import (
    induced_action,
    induced_char_poly,
    johnson_target,
    relative_target,
    target_to_json,
    wedge3_map,
    wedge3_space,
)
from distortion.mapclass import MappingClassWord, evaluate, standard_curves
from distortion.symplectic import SymplecticContext, is_symplectic, transvection
from helpers_oracle import embed_corner, mat_mul_plain, wedge3_plain

# the largest a with 6 a^3 < 2^63: wedge3_map's int64 bound
INT64_TOP = max(a for a in range(1154000, 1155000) if 6 * a ** 3 < 1 << 63)


def random_sp(rnd, g, twists):
    """A product of random transvections, checked symplectic."""
    ctx = SymplecticContext(g)
    M = IntMatrix.identity(2 * g)
    for _ in range(twists):
        v = IntVector(tuple(rnd.randint(-2, 2) for _ in range(2 * g)))
        M = mat_mul(M, transvection(ctx, v))
    assert is_symplectic(ctx, M)
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


def nonzeros(v):
    return [(i, c) for i, c in enumerate(v.entries) if c]


def wedge3_of(u, v, w):
    """u ^ v ^ w, by exterior._wedge on the nonzeros of each."""
    terms = {}
    exterior._wedge(nonzeros(u), nonzeros(v), nonzeros(w), terms)
    return IntVector(tuple(terms.get(t, 0) for t in wedge3_space(u.dim)))


def test_wedge3_columns_batched():
    # exterior._wedge on seeded sparse vectors, given as (index, coefficient)
    # lists that repeat indices, against the plain minors of their dense
    # columns; one dict takes scale times every wedge of a batch
    rnd = random.Random(59)
    for n, N, top in ((3, 8, 2), (6, 17, 5), (8, 40, 2 ** 30)):
        batch, expected = {}, [0] * math.comb(n, 3)
        for _ in range(N):
            x, y, z = ([(rnd.randrange(n), rnd.randint(-top, top)) for _ in range(rnd.randint(1, n))]
                       for _ in range(3))
            dense = [[sum(c for i, c in v if i == r) for v in (x, y, z)] for r in range(n)]
            minors = [row[0] for row in wedge3_plain(dense)]
            one = {}
            exterior._wedge(x, y, z, one)
            assert all(i < j < k for i, j, k in one)
            assert [one.get(t, 0) for t in wedge3_space(n)] == minors
            scale = rnd.randint(-top, top)
            exterior._wedge(x, y, z, batch, scale)
            expected = [e + scale * m for e, m in zip(expected, minors)]
        assert [batch.get(t, 0) for t in wedge3_space(n)] == expected
    # 2 e_0 written twice and the repeated e_1 ^ e_1 term that cancels
    terms = {}
    exterior._wedge([(0, 1), (0, 1)], [(1, 1), (2, 1)], [(2, 1), (1, -1)], terms, 3)
    assert {t: c for t, c in terms.items() if c} == {(0, 1, 2): 12}


def test_wedge_of_vectors_consistency():
    rnd = random.Random(29)
    for _ in range(30):
        n = rnd.randint(3, 6)
        u, v, w = (IntVector(tuple(rnd.randint(-3, 3) for _ in range(n))) for _ in range(3))
        direct = wedge3_of(u, v, w)
        via_minors = wedge3_map(IntMatrix.from_columns([u.entries, v.entries, w.entries], n)).column(0)
        assert direct.entries == via_minors.entries
        assert wedge3_of(u, u, w).is_zero()
        assert wedge3_of(u, v, w).entries == tuple(-x for x in wedge3_of(v, u, w).entries)


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
            M = random_sp(rnd, g, rnd.randint(1, 8))
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
    assert induced_action(target, IntMatrix.identity(6)).is_identity()
    with pytest.raises(ValueError, match="genus mismatch"):
        induced_action(target, IntMatrix.identity(4))
    for _ in range(10):
        M = random_sp(rnd, 3, 5)
        N = random_sp(rnd, 3, 5)
        lhs = induced_action(target, mat_mul(M, N))
        rhs = mat_mul(induced_action(target, M), induced_action(target, N))
        assert lhs.entries == rhs.entries
        # invertible over Z
        assert induced_action(target, M).det() in (1, -1)


def test_induced_action_detects_hyperbolicity():
    hyp = IntMatrix.from_rows([[2, -1], [-1, 1]])
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


def induced_action_plain(target, M):
    """P wedge^3(Ph M Sh) S by helpers_oracle's schoolbook products and
    cofactor minors, P, S the module's projection and section, Ph, Sh those
    of H/W."""
    def rows(A):
        return [list(r) for r in A.entries]

    hq, module = target.h_quotient, target.module
    N = mat_mul_plain(rows(hq.projection), mat_mul_plain(rows(M), rows(hq.section)))
    return mat_mul_plain(mat_mul_plain(rows(module.projection), wedge3_plain(N)), rows(module.section))


@pytest.mark.parametrize("kind, g, params", [
    ("torelli", 3, {}),
    ("torelli", 3, {"variant": "boundary"}),
    ("torelli", 4, {}),
    ("lagrangian", 4, {}),
    ("pullback", 5, {"h": 2}),
], ids=["torelli-3", "torelli-3-boundary", "torelli-4", "lagrangian-4", "pullback-5-2"])
def test_induced_action_matches_plain_on_presets(kind, g, params):
    # the sparse columns against the dense product, on seeded words over each
    # target preset's generators, taken through the preset's own rho; the
    # 20-letter words mix every handle the generators move: a fifth to nine
    # tenths of the entries of N are nonzero
    datum = preset(kind, g, **params)
    if kind == "torelli":
        target = johnson_target(g, params.get("variant", "closed"))
    else:
        target = relative_target(g, lagrangian_basis(g) if kind == "lagrangian" else handle_basis(g, params["h"]))
    rnd = random.Random(61)
    symbols = sorted(datum.ambient)
    for length in (4, 4, 4, 4, 20, 20):
        word = [(rnd.choice(symbols), rnd.choice((1, -1))) for _ in range(length)]
        M = evaluate(MappingClassWord(g, tuple((c, k * e) for s, e in word for c, k in datum.ambient[s])))
        assert [list(r) for r in datum.rho(datum.matrix_of_word(word)).entries] == induced_action_plain(target, M)


CHI_PRESETS = [("torelli", g, {"variant": v}) for g in (3, 4, 5, 6) for v in ("closed", "boundary")] + [
    ("lagrangian", 4, {}), ("lagrangian", 5, {}), ("pullback", 5, {"h": 2}), ("pullback", 6, {"h": 3}),
    ("pullback", 7, {"h": 3})]


@pytest.mark.parametrize("kind, g, params", CHI_PRESETS,
                         ids=[f"{kind}-{g}" + "".join(f"-{v}" for v in params.values()) for kind, g, params in CHI_PRESETS])
def test_induced_char_poly_matches_char_poly_of_rho(kind, g, params):
    # chi(rho(x)) from the action on H/W against char_poly of the rank-R
    # rho(x), coefficient for coefficient: the empty word, commuting twists
    # (a wholly cyclotomic chi), x^2 of a hyperbolic x (repeated factors) and
    # seeded 4- and 12-letter words
    datum = preset(kind, g, **params)
    rnd = random.Random(f"{kind}-{g}-{params}")
    symbols = sorted(datum.ambient)
    i = params.get("h", 0) + 1                        # the first handle the twists move
    commuting = [(f"T_a{i}", 2), (f"T_a{i + 1}", -1)]
    x = [("E12", 1), ("E21", 1)] if kind == "lagrangian" else [(f"T_a{i}", 1), (f"T_b{i}", -1)]
    words = [[], commuting, x + x] + [[(rnd.choice(symbols), rnd.choice((-2, -1, 1, 2))) for _ in range(length)]
                                      for length in (4, 4, 12)]
    for word in words:
        M = datum.matrix_of_word(word)
        p = datum.rho_char_poly(M)
        assert p == char_poly(datum.rho(M)), word
        if word in (commuting, x + x):
            assert cyclotomic_part(p)[1].is_one() == (word == commuting), word


def test_induced_char_poly_on_relative_targets():
    # W = <a1> at g = 3: omegabar is degenerate on H/W, but H^W has rank
    # m = 5, so hbar |-> hbar ^ omegabar is injective and chi divides out;
    # W = <a1, a2> gives H^W of rank 2, which the formula refuses
    ctx, curves, rnd = SymplecticContext(3), standard_curves(3), random.Random(83)
    target = relative_target(3, IntMatrix.from_columns([ctx.basis_vector("a1").entries], 6))
    assert target.free_rank == math.comb(5, 3) - 5
    labels = ["a1", "a2", "b2", "a3", "b3"]           # pair to 0 with a1: their twists preserve W
    for _ in range(6):
        M = evaluate(MappingClassWord(3, tuple((curves[rnd.choice(labels)], rnd.choice((-2, -1, 1, 2)))
                                               for _ in range(6))))
        assert induced_char_poly(target, M) == char_poly(induced_action(target, M))
    other = relative_target(3, IntMatrix.from_columns([ctx.basis_vector(lab).entries for lab in ("a1", "a2")], 6))
    with pytest.raises(ValueError, match=r"H\^W has rank 2"):
        induced_char_poly(other, evaluate(MappingClassWord(3, ((curves["a3"], 1),))))


@pytest.mark.parametrize("w", [{"a1": 1, "b2": 1}, {"a1": 2, "a2": 1, "b1": 1}])
@pytest.mark.parametrize("variant", ["closed", "boundary"])
def test_induced_action_matches_plain_relative(w, variant):
    # W = a1 + b2, and W = 2a1 + a2 + b1 whose bars in H/W have two nonzeros,
    # at g = 3: products of twists along W and along seeded vectors of W's
    # symplectic complement, which all preserve W
    g, rnd = 3, random.Random(67)
    ctx = SymplecticContext(g)
    wv = IntVector(tuple(w.get(lab, 0) for lab in ctx.basis_labels()))
    target = relative_target(g, IntMatrix.from_columns([wv.entries], 2 * g), variant)
    pool = [wv]
    while len(pool) < 6:
        v = IntVector(tuple(rnd.randint(-1, 1) for _ in range(2 * g)))
        if not v.is_zero() and ctx.pairing(v, wv) == 0:
            pool.append(v)
    for _ in range(6):
        M = IntMatrix.identity(2 * g)
        for _ in range(4):
            M = mat_mul(M, transvection(ctx, rnd.choice(pool)))
        assert [list(r) for r in induced_action(target, M).entries] == induced_action_plain(target, M)


def test_induced_action_reads_section_coefficients():
    # the package's targets have sections of entries 0 and 1; the relation
    # 2 e_0 + 3 e_7 takes a Bezout step, whose section has entries -1 too,
    # so each s_k of column t must scale its N_p ^ N_q ^ N_r
    relation = [2 if i == 0 else 3 if i == 7 else 0 for i in range(20)]
    target = dataclasses.replace(johnson_target(3, "boundary"),
                                 module=exact.quotient_module(20, IntMatrix.from_columns([relation], 20)))
    assert -1 in {c for row in target.module.section.entries for c in row}
    rnd = random.Random(71)
    for _ in range(6):
        M = random_sp(rnd, 3, 4)
        assert [list(r) for r in induced_action(target, M).entries] == induced_action_plain(target, M)


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


def test_target_serialization():
    obj = target_to_json(johnson_target(3, "closed"))
    assert obj["free_rank"] == 14 and obj["torsion"] == []
    assert obj["basis"][0] == ["a1", "a2", "a3"]
    assert len(obj["basis"]) == 20
    rel = target_to_json(relative_target(4, lagrangian_basis(4)))
    assert rel["free_rank"] == 4
    assert len(rel["basis"]) == 4


# sha256 of every Smith form (input, U, Uinv, D, V) that relative_target takes
# for the W the presets build (torelli: W = 0, lagrangian: <a_1..a_g>,
# pullback: the handles 1..h) and for its target's relations, as JSON lists,
# taken from the Euclid-by-swap Smith form; every pivot of these is a unit,
# and the bundled value tables are coordinates in these bases
SMITH_PINS = [
    ("closed", 3, 0, "ac6bfc7776ed5b6fb7666319e3ff50baa13683b9347edecabd82b9b2cdb628af"),
    ("boundary", 3, 0, "355ae3f62b22463c7bc793fc12da072f9b7ca3bae697fca77505202c60224a35"),
    ("closed", 4, 0, "9b408697ee190070b5fa8624bfe66e86e818bfda20bd2071e6e51eb4b3223808"),
    ("boundary", 4, 0, "ee3995d49c01b2b25ba735517acc5caf8766fc4ebde352b6c1f4acbb85ab96ca"),
    ("closed", 5, 0, "8cb19f96e03243cbb9f846a222ab6b5dc301d8996dbc76ee1e0cf4ad98f4c66f"),
    ("boundary", 5, 0, "32608f86ef17451b54b3f75d3d1a9a0bf3e8b92dd5c9a6aa6f9241c67c1eeeff"),
    ("closed", 6, 0, "bdcf28be863fdc5cba5c3ff7e2cbb0038f7c2cf8eb0bc1c6d286dd092977bbb7"),
    ("boundary", 6, 0, "1f09da8982e003c6f73659a292e3c94f2a2d608e6c381736cd85719333191ec3"),
    ("lagrangian", 4, 0, "c24c565b4f1f41900ff6522c81cf4a3e67dfece10bd46f4981cb498a9728d9de"),
    ("lagrangian", 5, 0, "c3d596008eb57599506cd3a885fdd0cad1c5dff531e52ff891e4038be345e795"),
    ("lagrangian", 6, 0, "c2ed0f7f6f64810bcd0ec48675d577a2892b41ce40ceed93abe39d6a1eecea1c"),
    ("pullback", 4, 1, "f8995bb3c56279947112c29d72178b756f02f351d1fcaef574aa2fc11b6cd01d"),
    ("pullback", 5, 1, "da7ccd97efe0d457b506ce3bc49cb2b8dcb7b7099f6a6093186d02fe7e5026a4"),
    ("pullback", 5, 2, "0722b1e5de16ba16173426b9ce2486d14b665c8815fba8228be94f64778d8fae"),
    ("pullback", 6, 1, "7c7d8e769a3c94f9c1f92db45c46cb4205966a76fb4e5a4f2be7a7577a7ed8af"),
    ("pullback", 6, 2, "3a5800a7fb1e9f4c2d3c82c15f75c52147bae20ef6532b9290a5fb668ec2c92a"),
    ("pullback", 6, 3, "b7f6e7be028189f743f7657ec3b47f86dc157bf4ebd88153e7d8b134c0242829"),
]


@pytest.mark.parametrize("kind, g, h, digest", SMITH_PINS)
def test_package_smith_transforms_pinned(monkeypatch, kind, g, h, digest):
    curves = list(standard_curves(g).values())
    if kind == "lagrangian":
        w = curves[:g]
    elif kind == "pullback":
        w = [c for i in range(h) for c in (curves[i], curves[g + i])]
    else:
        w = []
    calls = []
    smith = exact._smith_with_transforms

    def recorded(A):
        out = smith(A)
        calls.append([A.entries, *(M.entries for M in out)])
        return out

    monkeypatch.setattr(exact, "_smith_with_transforms", recorded)
    relative_target(g, IntMatrix.from_columns([c.entries for c in w], 2 * g),
                    "boundary" if kind == "boundary" else "closed")
    assert len(calls) == 2
    assert hashlib.sha256(json.dumps(calls).encode()).hexdigest() == digest
