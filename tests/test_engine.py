"""Engine tests: equivariant data, growing vectors, the hyperbolic-word
search, witness certificates cross-checked against brute force and the BFS
oracle, upper-bound curves, presets."""

import random

import pytest

from distortion.engine import (
    ConjugateNormalForm,
    EquivariantDatum,
    GrowthForm,
    UpperBoundSpec,
    growing_vector_test,
    k_length_lower_bound,
    preset,
    psi_extend,
    psi_table_from_json,
    psi_table_to_json,
    search_partially_hyperbolic,
    upper_bound_curve,
    witness_certificate,
)
from distortion.exact import IntMatrix, IntVector
from distortion.oracle import SemidirectGroup, bfs_ball
from distortion.symplectic import SpElement, SymplecticContext, embed_corner, transvection
from helpers_oracle import grows_exponentially_brute

FIB = IntMatrix.from_rows([[2, 1], [1, 1]])


def semidirect_datum():
    return EquivariantDatum(
        rank=2,
        rho={"t": FIB},
        psi={"e1": IntVector((1, 0)), "e2": IntVector((0, 1))},
        name="mapping-torus",
    )


def pointpush_like(g):
    ctx = SymplecticContext(g)
    rho = {f"T_{lab}": transvection(ctx, ctx.basis_vector(lab)).matrix for lab in ctx.basis_labels()}
    psi = {f"push_{lab}": IntVector.basis(2 * g, i) for i, lab in enumerate(ctx.basis_labels())}
    return EquivariantDatum(rank=2 * g, rho=rho, psi=psi)


# --- datum and psi_extend ---------------------------------------------------------

def test_datum_validation():
    with pytest.raises(ValueError):
        EquivariantDatum(rank=2, rho={"x": IntMatrix.from_rows([[2, 0], [0, 1]])}, psi={})
    with pytest.raises(ValueError):
        EquivariantDatum(rank=2, rho={}, psi={"s": IntVector((1, 0, 0))})
    with pytest.raises(ValueError):
        EquivariantDatum(rank=2, rho={"s": IntMatrix.identity(2)}, psi={"s": IntVector((1, 0))})


def test_bound_constant_and_span():
    d = semidirect_datum()
    assert d.bound_constant == 1
    assert d.psi_spans()
    partial = EquivariantDatum(rank=2, rho={}, psi={"s": IntVector((3, 0))})
    assert partial.bound_constant == 3
    assert not partial.psi_spans()


def test_psi_extend_golden():
    d = semidirect_datum()
    assert psi_extend(d, ConjugateNormalForm.of()).is_zero()
    assert psi_extend(d, ConjugateNormalForm.of(((), "e1", 1))).entries == (1, 0)
    form = ConjugateNormalForm.of(((("t", 1),), "e1", 1))
    assert psi_extend(d, form).entries == (2, 1)
    # matches the hand matrix-vector product rho(x) psi(s)
    d2 = pointpush_like(1)
    form2 = ConjugateNormalForm.of((((("T_a1"), 1), ("T_b1", -1)), "push_a1", 1))
    assert psi_extend(d2, form2).entries == (2, -1)


def test_psi_extend_k_rewriting_invariance():
    # replacing a conjugator x by x*s' (s' a subgroup word) changes nothing
    d = semidirect_datum()
    base = ConjugateNormalForm.of(((("t", 2),), "e1", 1), ((("t", 1),), "e2", -1))
    padded = ConjugateNormalForm.of(
        ((("t", 2), ("e2", 5)), "e1", 1),
        ((("t", 1), ("e1", -3)), "e2", -1),
    )
    assert psi_extend(d, base).entries == psi_extend(d, padded).entries


def test_psi_extend_conjugation_covariance():
    rnd = random.Random(61)
    d = pointpush_like(2)
    symbols = sorted(d.rho)
    for _ in range(25):
        terms = []
        for _ in range(rnd.randint(0, 3)):
            x = tuple((rnd.choice(symbols), rnd.choice((-1, 1))) for _ in range(rnd.randint(0, 3)))
            terms.append((x, rnd.choice(sorted(d.psi)), rnd.choice((1, -1))))
        form = ConjugateNormalForm.of(*terms)
        x_word = tuple((rnd.choice(symbols), rnd.choice((-1, 1))) for _ in range(2))
        lhs = psi_extend(d, form.conjugated(x_word))
        rhs = d.rho_of_word(x_word).apply(psi_extend(d, form))
        assert lhs.entries == rhs.entries


def test_k_length_lower_bound():
    d = semidirect_datum()
    assert k_length_lower_bound(d, IntVector((0, 0))) == 0
    assert k_length_lower_bound(d, IntVector((2, -1))) == 2
    d3 = EquivariantDatum(rank=2, rho={}, psi={"s": IntVector((3, 0))})
    assert k_length_lower_bound(d3, IntVector((13, 8))) == 5


# --- growing vectors ---------------------------------------------------------------

def test_growing_vector_golden():
    assert not growing_vector_test(IntMatrix.identity(3), IntVector((1, 2, 3)))
    assert growing_vector_test(FIB, IntVector((1, 0)))
    hyp = SpElement(SymplecticContext(1), IntMatrix.from_rows([[2, -1], [-1, 1]]))
    M = embed_corner(hyp, 2).matrix
    assert growing_vector_test(M, IntVector((1, 0, 0, 0)))
    assert not growing_vector_test(M, IntVector((0, 1, 0, 0)))
    with pytest.raises(ValueError):
        growing_vector_test(IntMatrix.from_rows([[2, 0], [0, 1]]), IntVector((1, 0)))


def test_growing_vector_agrees_with_brute_force():
    rnd = random.Random(67)
    for _ in range(300):
        g = rnd.randint(1, 3)
        ctx = SymplecticContext(g)
        M = SpElement.identity(ctx)
        for _ in range(rnd.randint(0, 8)):
            v = IntVector(tuple(rnd.randint(-2, 2) for _ in range(2 * g)))
            M = M * transvection(ctx, v)
        vec = IntVector(tuple(rnd.randint(-3, 3) for _ in range(2 * g)))
        assert growing_vector_test(M.matrix, vec) == grows_exponentially_brute(M.matrix, vec)


# --- search -------------------------------------------------------------------------

def test_search_trivial_generators():
    assert search_partially_hyperbolic([IntMatrix.identity(3)], budget=3) is None


def test_search_finds_length_two_word():
    ctx = SymplecticContext(1)
    gens = [transvection(ctx, ctx.basis_vector("a1")).matrix,
            transvection(ctx, ctx.basis_vector("b1")).matrix]
    res = search_partially_hyperbolic(gens, budget=4, seed=0)
    assert res is not None and len(res.word) == 2
    assert res.noncyclotomic_factor == "x^2-3x+1"
    # trace check: t_a t_b^-1 has trace 3
    assert sum(res.matrix.entries[i][i] for i in range(2)) in (3, -1)


def test_search_deterministic():
    ctx = SymplecticContext(2)
    labels = ["a1", "b1", "a2", "b2"]
    gens = [transvection(ctx, ctx.basis_vector(l)).matrix for l in labels]
    first = search_partially_hyperbolic(gens, budget=3, seed=12)
    second = search_partially_hyperbolic(gens, budget=3, seed=12)
    assert first.word == second.word


def test_search_rejects_bad_generators():
    with pytest.raises(ValueError):
        search_partially_hyperbolic([], budget=2)
    with pytest.raises(ValueError):
        search_partially_hyperbolic([IntMatrix.from_rows([[2, 0], [0, 1]])], budget=2)


# --- witness certificates ------------------------------------------------------------

def test_witness_certificate_golden():
    d = pointpush_like(2)
    cert = witness_certificate(d, [("T_a1", 1), ("T_b1", -1)], "push_a1", 60)
    intr = [r.intrinsic for r in cert.rows]
    assert intr[:3] == [2, 5, 13]
    assert all(r.extrinsic == 4 * r.n + 1 for r in cert.rows)
    assert abs(cert.fitted_rate - 2.6180339887) / 2.618 < 0.02
    assert abs(cert.reference_rate - 2.6180339887) / 2.618 < 0.02
    # eventually strictly increasing
    assert all(b > a for a, b in zip(intr[3:], intr[4:]))


def test_witness_rejects_non_growing():
    d = pointpush_like(2)
    with pytest.raises(ValueError):
        witness_certificate(d, [("T_a1", 1)], "push_a1", 10)


def test_witness_certificate_sound_against_bfs():
    # mapping-torus instance: K = Z^2 inside Z^2 x| Z; BFS gives true lengths
    d = semidirect_datum()
    cert = witness_certificate(d, [("t", 1)], "e1", 4)
    group = SemidirectGroup(FIB)
    ball = bfs_ball(group, 9)
    w = IntVector((1, 0))
    for row in cert.rows:
        w = FIB.apply(w)
        element = (w.entries, 0)
        # intrinsic bound never exceeds the true subgroup length (L1 norm)
        assert row.intrinsic <= w.l1_norm()
        # ambient BFS length never exceeds the constructive extrinsic column
        true_len = ball.word_length(element)
        assert true_len is not None
        assert true_len <= row.extrinsic


def test_certificate_json_schema():
    d = pointpush_like(2)
    cert = witness_certificate(d, [("T_a1", 1), ("T_b1", -1)], "push_a1", 3)
    obj = cert.to_json()
    assert obj["rows"][0] == {"n": 1, "extrinsic": 5, "intrinsic": "2"}
    assert isinstance(obj["fitted_rate"], float)
    assert obj["x_word"] == [["T_a1", 1], ["T_b1", -1]]


# --- upper-bound curves ----------------------------------------------------------------

def test_upper_bound_curve_golden():
    poly_exp = UpperBoundSpec(mu_p=GrowthForm.poly(0, 0, 1), mu_d=GrowthForm.poly(0, 1), C=2)
    table = upper_bound_curve(poly_exp, 5)
    assert table[3] == (4, 4 ** 2 * 2 ** 4)
    doubly = UpperBoundSpec(mu_p=GrowthForm.exp(2), mu_d=GrowthForm.exp(2), C=2)
    values = [v for _, v in upper_bound_curve(doubly, 5)]
    assert values == [2 * 2 ** 2, 4 * 2 ** 4, 8 * 2 ** 8, 16 * 2 ** 16, 32 * 2 ** 32]
    flat = UpperBoundSpec(mu_p=GrowthForm.poly(0, 0, 1), mu_d=GrowthForm.poly(0, 1), C=1)
    assert [v for _, v in upper_bound_curve(flat, 4)] == [1, 4, 9, 16]


def test_growth_form_parse_and_validation():
    assert GrowthForm.parse("exp:3").evaluate(2) == 9
    assert GrowthForm.parse("poly:1,2").evaluate(5) == 11
    with pytest.raises(ValueError):
        GrowthForm.parse("weird:1")
    with pytest.raises(ValueError):
        GrowthForm.poly(1, -2)
    with pytest.raises(ValueError):
        UpperBoundSpec(mu_p=GrowthForm.exp(2), mu_d=GrowthForm.exp(2), C=0)
    with pytest.raises(ValueError):
        UpperBoundSpec(mu_p=GrowthForm.exp(2), mu_d=GrowthForm.exp(2), C=6, c1=2, c2=2)
    ok = UpperBoundSpec(mu_p=GrowthForm.exp(2), mu_d=GrowthForm.exp(2), C=6, c1=2, c2=3)
    assert ok.C == 6


# --- presets ------------------------------------------------------------------------------

def test_pointpush_preset():
    d = preset("pointpush", 2)
    assert d.rank == 4 and d.bound_constant == 1 and d.psi_spans()
    assert sorted(d.psi) == ["push_a1", "push_a2", "push_b1", "push_b2"]
    cert = witness_certificate(d, [("T_a1", 1), ("T_b1", -1)], "push_a1", 5)
    assert [r.intrinsic for r in cert.rows] == [2, 5, 13, 34, 89]
    with pytest.raises(ValueError):
        preset("pointpush", 1)


def test_surface_braid_preset():
    d = preset("surface_braid", 2, points=3)
    assert d.rank == 12 and d.psi_spans()
    assert "push2_b1" in d.psi
    # rho acts diagonally: the same block repeated
    M = d.rho["T_a1"]
    assert M.entries[0][2] == M.entries[4][6] == M.entries[8][10]


def test_torelli_preset_bundled_tables():
    d = preset("torelli", 3)
    assert d.rank == 14 and d.psi_spans() and d.provenance
    db = preset("torelli", 3, variant="boundary")
    assert db.rank == 20 and db.psi_spans()
    with pytest.raises(ValueError):
        preset("torelli", 2)
    with pytest.raises(ValueError):
        preset("torelli", 4)   # no bundled table for genus 4


def test_torelli_preset_supports_witnesses():
    d = preset("torelli", 3)
    # find an ambient word with growing action on some bundled value
    y = sorted(d.psi)[0]
    cert = witness_certificate(d, [("T_c0", 1), ("T_c4", -1)], y, 12)
    assert cert.rows[-1].intrinsic > cert.rows[0].intrinsic


def test_lagrangian_preset():
    d = preset("lagrangian", 4)
    assert d.rank == 4 and d.psi_spans()
    assert d.rho["T_a1"].is_identity()
    # the action factors through the GL-projection: composing with a trivial
    # stabilizer element leaves rho unchanged
    with pytest.raises(ValueError):
        preset("lagrangian", 3)


def test_pullback_preset():
    d = preset("pullback", 5, h=2)
    assert d.rank == 14 and d.psi_spans()
    with pytest.raises(ValueError):
        preset("pullback", 4, h=2)    # rank-0 target
    with pytest.raises(ValueError):
        preset("pullback", 4, h=3)
    with pytest.raises(ValueError):
        preset("pullback", 5)         # missing h


def test_psi_table_roundtrip():
    d = semidirect_datum()
    obj = psi_table_to_json(d.rank, d.psi, "test data")
    rank, psi, prov = psi_table_from_json(obj)
    assert rank == 2 and prov == "test data"
    assert psi["e1"].entries == (1, 0)
