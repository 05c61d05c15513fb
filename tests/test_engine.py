"""Engine tests: equivariant data, growing vectors, the hyperbolic-word
search, witness certificates cross-checked against brute force and the BFS
oracle, upper-bound curves, presets, and their closed-form values against a
plain wedge, the fixture tables and tools/gen_psi_tables.py."""

import functools
import hashlib
import importlib.util
import itertools
import json
import math
import pathlib
import random
import re

import pytest

import distortion

import distortion.engine as engine
import distortion.exact as exact
from distortion.cli import main as cli_main
from distortion.engine import (
    EquivariantDatum,
    GrowthForm,
    UpperBoundSpec,
    growing_vector_test,
    preset,
    psi_table_from_json,
    psi_table_to_json,
    search_partially_hyperbolic,
    upper_bound_curve,
    witness_certificate,
)
from distortion.exact import IntMatrix, IntVector
from distortion.exterior import induced_action, johnson_target, relative_target, wedge3_map
from distortion.mapclass import MappingClassWord, evaluate, humphries_table, standard_curves
from distortion.oracle import SemidirectGroup, bfs_ball
from distortion.symplectic import SymplecticContext, is_symplectic, transvection
from helpers_oracle import (
    blockdiag_plain,
    char_poly_plain,
    embed_corner,
    greedy_span_plain,
    grows_exponentially_brute,
    log_ratio_fit_per_step,
    mat_mul_plain,
    max_root_modulus,
    rank_plain,
    twist_plain,
    wedge3_plain,
    witness_growth_brute,
)

FIB = IntMatrix.from_rows([[2, 1], [1, 1]])
# FIB as a twist word at genus 1
FIB_WORD = [("T_a1", -1), ("T_b1", 1)]


def rho_of_word(d, word):
    """rho of the datum's matrix of the word."""
    return d.rho(d.matrix_of_word(word))


def growing(M, v):
    """growing_vector_test on M's own characteristic polynomial."""
    return growing_vector_test(M, v, exact.char_poly(M))


def basis_twists(g):
    """Symbol T_<label> -> the one twist letter about each basis class."""
    ctx = SymplecticContext(g)
    return {f"T_{lab}": ((ctx.basis_vector(lab), 1),) for lab in ctx.basis_labels()}


def semidirect_datum():
    return EquivariantDatum(
        genus=1,
        ambient=basis_twists(1),
        psi={"e1": IntVector((1, 0)), "e2": IntVector((0, 1))},
        name="mapping-torus",
    )


def pointpush_like(g):
    labels = SymplecticContext(g).basis_labels()
    psi = {f"push_{lab}": IntVector.basis(2 * g, i) for i, lab in enumerate(labels)}
    return EquivariantDatum(genus=g, ambient=basis_twists(g), psi=psi)


def psi_spans(d):
    """Do the generator values span V over Q?"""
    return rank_plain([v.entries for v in d.psi.values()]) == d.rank


# --- equivariant data ---------------------------------------------------------------

def test_datum_validation():
    twist = basis_twists(1)["T_a1"]
    s = {"s": IntVector((1, 0))}
    with pytest.raises(ValueError):
        EquivariantDatum(genus=1, ambient={}, psi={"s": IntVector((1, 0, 0))})
    with pytest.raises(ValueError):
        EquivariantDatum(genus=1, ambient={"s": twist}, psi=s)
    # the datum's target and handles agree with its genus: V and rho are
    # named, not supplied
    with pytest.raises(ValueError, match="the target has genus 3, the datum 2"):
        EquivariantDatum(genus=2, ambient={}, psi={}, target=johnson_target(3))
    with pytest.raises(ValueError, match="bp: values on handles need a target"):
        EquivariantDatum(genus=3, ambient={}, psi={}, handles=range(1, 4))
    # twist letters are checked as they enter: each class is of the datum's
    # genus, zero or primitive, and the letters of one symbol pair to 0
    ab = basis_twists(1)["T_a1"] + basis_twists(1)["T_b1"]
    with pytest.raises(ValueError, match=r"the twist letters of ambient\['x'\] do not pair to 0"):
        EquivariantDatum(genus=1, ambient={"x": ab}, psi=s)
    with pytest.raises(ValueError, match=r"ambient\['x'\] has a class not of genus 2"):
        EquivariantDatum(genus=2, ambient={"x": twist}, psi={})
    # letters that pair to 0 multiply each of their exponents by the power
    a1, a2, b1 = (basis_twists(2)[f"T_{lab}"][0][0] for lab in ("a1", "a2", "b1"))
    with pytest.raises(ValueError, match=r"^ambient\['x'\] has a class that is not primitive$"):
        EquivariantDatum(genus=2, ambient={"x": ((a2, 1), (a1 + a1 + a1, -1))}, psi={})
    assert EquivariantDatum(genus=2, ambient={"x": ((a1, 1), (IntVector.zero(4), 1))}, psi={}).ambient
    d = EquivariantDatum(genus=2, ambient={"x": ((a1, 2), (a2, -1))}, psi={})
    expected = evaluate(MappingClassWord.from_letters(2, [(a1, -6), (a2, 3)]))
    assert rho_of_word(d, [("x", -3)]).entries == expected.entries
    with pytest.raises(ValueError, match="do not pair to 0"):
        EquivariantDatum(genus=2, ambient={"x": ((a1, 1), (a2, 1), (b1, 1))}, psi={})
    # subgroup letters act trivially
    d = EquivariantDatum(genus=1, ambient={"x": twist}, psi=s)
    assert rho_of_word(d, [("s", -2)]).entries == rho_of_word(d, []).entries == IntMatrix.identity(2).entries
    with pytest.raises(KeyError, match="unknown symbol 'y'"):
        rho_of_word(d, [("x", 1), ("y", 1)])


def test_bound_constant_and_span():
    d = semidirect_datum()
    assert d.bound_constant == 1
    assert psi_spans(d)
    partial = EquivariantDatum(genus=1, ambient={}, psi={"s": IntVector((3, 0))})
    assert partial.bound_constant == 3
    assert not psi_spans(partial)


# --- growing vectors ---------------------------------------------------------------

def test_growing_vector_golden():
    assert not growing(IntMatrix.identity(3), IntVector((1, 2, 3)))
    assert growing(FIB, IntVector((1, 0)))
    M = embed_corner(IntMatrix.from_rows([[2, -1], [-1, 1]]), 2)
    assert growing(M, IntVector((1, 0, 0, 0)))
    assert not growing(M, IntVector((0, 1, 0, 0)))
    with pytest.raises(ValueError):
        growing(IntMatrix.from_rows([[2, 0], [0, 1]]), IntVector((1, 0)))


def test_growing_vector_agrees_with_brute_force():
    rnd = random.Random(67)
    for _ in range(300):
        g = rnd.randint(1, 3)
        ctx = SymplecticContext(g)
        M = IntMatrix.identity(2 * g)
        for _ in range(rnd.randint(0, 8)):
            v = IntVector(tuple(rnd.randint(-2, 2) for _ in range(2 * g)))
            M = exact.mat_mul(M, transvection(ctx, v))
        vec = IntVector(tuple(rnd.randint(-3, 3) for _ in range(2 * g)))
        assert growing(M, vec) == grows_exponentially_brute(M, vec)


def test_growing_vector_on_induced_actions():
    # rho(T_a1) on the torelli targets is unipotent but not the identity, so
    # no value grows under it; under rho(T_a1 T_b1^-1) some values grow and
    # some do not.  Every verdict agrees with the brute-force ratio test.
    for variant in ("closed", "boundary"):
        d = preset("torelli", 3, variant=variant)
        U = rho_of_word(d, [("T_a1", 1)])
        n = d.rank
        assert not U.is_identity()
        assert exact.char_poly(U).coeffs == tuple(math.comb(n, k) * (-1) ** (n - k) for k in range(n + 1))
        assert not any(growing(U, v) for v in d.psi.values())
        M = rho_of_word(d, [("T_a1", 1), ("T_b1", -1)])
        verdicts = {s: growing(M, v) for s, v in d.psi.items()}
        assert verdicts == {s: grows_exponentially_brute(M, v) for s, v in d.psi.items()}
        assert 0 < sum(verdicts.values()) < len(verdicts)


# --- search -------------------------------------------------------------------------

def test_search_trivial_generators():
    assert search_partially_hyperbolic([IntMatrix.identity(3)], budget=3) is None


def test_search_finds_length_two_word():
    ctx = SymplecticContext(1)
    gens = [transvection(ctx, ctx.basis_vector("a1")),
            transvection(ctx, ctx.basis_vector("b1"))]
    res = search_partially_hyperbolic(gens, budget=4, seed=0)
    assert res is not None and len(res.word) == 2
    assert res.noncyclotomic_factor == "x^2-3x+1"
    # trace check: t_a t_b^-1 has trace 3
    assert sum(res.matrix.entries[i][i] for i in range(2)) in (3, -1)


def test_search_deterministic():
    ctx = SymplecticContext(2)
    labels = ["a1", "b1", "a2", "b2"]
    gens = [transvection(ctx, ctx.basis_vector(l)) for l in labels]
    first = search_partially_hyperbolic(gens, budget=3, seed=12)
    second = search_partially_hyperbolic(gens, budget=3, seed=12)
    assert first.word == second.word


def test_search_first_hit_in_lexicographic_order():
    # the first partially hyperbolic word among these finite-order
    # generators has length 4; the reference enumerates every reduced word
    # in lexicographic order and multiplies it out from the identity
    gens = [[[0, -1], [1, 0]], [[-1, 0], [0, -1]], [[0, -1], [1, 1]]]
    inverses = [[[0, 1], [-1, 0]], [[-1, 0], [0, -1]], [[1, 1], [-1, 0]]]
    alphabet = [(i, s) for i in range(3) for s in (1, -1)]

    def mul(A, B):
        return [[sum(a * b for a, b in zip(row, col)) for col in zip(*B)] for row in A]

    def reference():
        for depth in range(1, 5):
            for word in itertools.product(alphabet, repeat=depth):
                if any(a[0] == b[0] and a[1] != b[1] for a, b in zip(word, word[1:])):
                    continue
                M = [[1, 0], [0, 1]]
                for i, s in word:
                    M = mul(M, gens[i] if s == 1 else inverses[i])
                if max_root_modulus(char_poly_plain(M)) > 1 + 1e-6:
                    return word, M

    word, M = reference()
    res = search_partially_hyperbolic([IntMatrix.from_rows(G) for G in gens], budget=4)
    assert len(word) == 4
    assert res.word == word
    assert [list(r) for r in res.matrix.entries] == M


def test_search_tests_candidates_in_stacks(monkeypatch):
    stacks = []
    stacked = engine.char_polys

    def recorded(mats):
        stacks.append(len(mats))
        return stacked(mats)

    monkeypatch.setattr(engine, "char_polys", recorded)
    # the first hit of the test above is candidate 266, the 116th word of
    # depth 4; each stack holds as many candidates as were examined before
    # it, so the hit lies in the tenth stack, candidates 257 to 512
    hit_gens = [IntMatrix.from_rows(G) for G in ([[0, -1], [1, 0]], [[-1, 0], [0, -1]], [[0, -1], [1, 1]])]
    hit = ((0, 1), (2, 1), (0, 1), (2, -1))
    res = search_partially_hyperbolic(hit_gens, budget=4)
    assert res.word == hit and res.noncyclotomic_factor == "x^2+3x+1"
    assert stacks == [1, 1, 2, 4, 8, 16, 32, 64, 128, 256]
    # a miss over commuting transvections examines every one of the
    # 4 + 12 + 36 + 108 reduced words once; the stack edges at 8, 32, 64 and
    # 128 candidates fall inside depths 2, 3 and 4
    ctx = SymplecticContext(2)
    miss_gens = [transvection(ctx, ctx.basis_vector(l)) for l in ("a1", "a2")]
    stacks.clear()
    assert search_partially_hyperbolic(miss_gens, budget=4) is None
    assert stacks == [1, 1, 2, 4, 8, 16, 32, 64, 32]
    assert sum(stacks) == engine._search_candidate_count(2, 4) == 160
    # at most CHAR_POLY_STACK_ENTRIES entries per stack: five 4x4 matrices
    monkeypatch.setattr(engine, "CHAR_POLY_STACK_ENTRIES", 80)
    stacks.clear()
    assert search_partially_hyperbolic(miss_gens, budget=4) is None
    assert stacks == [1, 1, 2, 4] + [5] * 30 + [2]
    monkeypatch.setattr(engine, "CHAR_POLY_STACK_ENTRIES", 3)
    assert search_partially_hyperbolic(hit_gens, budget=4).word == hit


# no word of length <= 4 in these two unimodular matrices is partially
# hyperbolic, and some word of length 5 is
DEPTH5_GENS = [[[0, 0, 1, 0], [1, 0, 0, 0], [0, 0, 0, 1], [0, -1, 0, 0]],
               [[0, 0, 0, -1], [0, -1, 0, 0], [0, 1, -1, 0], [1, 0, 0, 0]]]


def sampled_words(k, budget, seed):
    """Per depth past EXHAUSTIVE_DEPTH, the sorted distinct reduced words in
    k generators that the search draws there: SAMPLES_PER_DEPTH draws each,
    letter by letter from one random.Random(seed)."""
    alphabet = [(i, s) for i in range(k) for s in (1, -1)]
    rng = random.Random(seed)
    for depth in range(engine.EXHAUSTIVE_DEPTH + 1, budget + 1):
        drawn = set()
        for _ in range(engine.SAMPLES_PER_DEPTH):
            word = []
            for _ in range(depth):
                word.append(rng.choice([l for l in alphabet if not word or l != (word[-1][0], -word[-1][1])]))
            drawn.add(tuple(word))
        yield sorted(drawn)


def test_search_sampled_depths(monkeypatch, capsys):
    stacks = []
    stacked = engine.char_polys

    def recorded(mats):
        stacks.append(len(mats))
        return stacked(mats)

    monkeypatch.setattr(engine, "char_polys", recorded)
    # a depth-5 hit: the first partially hyperbolic word among the sorted
    # samples, multiplied out plainly from the identity
    gens = [IntMatrix.from_rows(G) for G in DEPTH5_GENS]
    assert search_partially_hyperbolic(gens, budget=4) is None
    inverses = [[list(r) for r in G.inverse().entries] for G in gens]
    (words,) = sampled_words(2, 5, seed=3)
    hit = next(w for w in words if max_root_modulus(char_poly_plain(functools.reduce(
        mat_mul_plain, [DEPTH5_GENS[i] if s == 1 else inverses[i] for i, s in w]))) > 1 + 1e-6)
    res = search_partially_hyperbolic(gens, budget=5, seed=3)
    assert len(hit) == 5 and res.word == hit
    # the same seed gives the same report, apart from its timestamp
    argv = ["phyp-search", "--gens", json.dumps(DEPTH5_GENS), "--budget", "5", "--seed", "3"]
    reports = []
    for _ in range(2):
        assert cli_main(argv) == 0
        reports.append(re.sub('"timestamp": "[^"]*"', '"timestamp": ""', capsys.readouterr().out))
    assert reports[0] == reports[1] and json.loads(reports[0])["result"]["word"] == [list(l) for l in hit]
    # a miss over commuting transvections examines every reduced word of
    # depth <= 4 and each distinct sample of depth 5, once
    ctx = SymplecticContext(2)
    a1, a2 = ctx.basis_vector("a1"), ctx.basis_vector("a2")
    miss_gens = [transvection(ctx, v) for v in (a1, a2, a1 + a2, a1 - a2)]
    stacks.clear()
    assert search_partially_hyperbolic(miss_gens, budget=5, seed=3) is None
    (words,) = sampled_words(4, 5, seed=3)
    assert sum(stacks) == engine._search_candidate_count(4, 4) + len(words) == 3200 + len(words)
    assert 3000 < len(words) < engine.SAMPLES_PER_DEPTH
    assert engine._search_candidate_count(4, 5) == 3200 + engine.SAMPLES_PER_DEPTH


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
    # eventually strictly increasing
    assert all(b > a for a, b in zip(intr[3:], intr[4:]))


# one growing (x, y) pair per preset; x of length 2 and 3, with dominant roots
# (3 + sqrt 5) / 2 and 2 + sqrt 3 on the span of the two classes
WITNESS_CASES = [
    ("pointpush", 2, {}, [("T_a1", 1), ("T_b1", -1)], "push_a1"),
    ("surface_braid", 2, {"points": 2}, [("T_a2", 2), ("T_b2", -1)], "push2_a2"),
    ("torelli", 3, {}, [("T_a1", 1), ("T_b1", -1)], "bp:a1+b1,b1+b2,b3"),
    ("torelli", 3, {"variant": "boundary"}, [("T_a1", 2), ("T_b1", -1)], "bp:a1+b1,b1+b2,b3"),
    ("lagrangian", 4, {}, [("E12", 1), ("E21", 1)], "w:b1^b3^b4"),
    ("pullback", 5, {"h": 2}, [("T_a3", 1), ("T_b3", -1)], "bp:a3+b3,b3+b4,b5"),
]


@pytest.mark.parametrize("name, g, params, x, y", WITNESS_CASES)
def test_witness_rates_match_per_step_fit(name, g, params, x, y):
    d = preset(name, g, **params)
    norms = witness_growth_brute(rho_of_word(d, x), d.psi_of(y), 300)
    for n in (1, 2, 3, 60, 300):
        rate = witness_certificate(d, x, y, n).fitted_rate
        reference = log_ratio_fit_per_step(norms[:n])
        assert abs(rate - reference) <= 1e-12 * reference, (n, rate, reference)


def test_witness_forms_no_power(monkeypatch):
    # the rows come from orbit steps on a vector: the matrix products are
    # those that form rho(x), as many at n = 300 as at n = 1
    d = preset("torelli", 3)
    calls = []

    def counting(A, B, _mat_mul=exact.mat_mul):
        calls.append(1)
        return _mat_mul(A, B)

    for module in (exact, distortion.exterior, engine):
        monkeypatch.setattr(module, "mat_mul", counting)
    counts = []
    for n in (1, 300):
        calls.clear()
        witness_certificate(d, [("T_a1", 1), ("T_b1", -1)], "bp:a1+b1,b1+b2,b3", n)
        counts.append(len(calls))
    assert counts[0] == counts[1] > 0


def test_witness_takes_no_rank_r_char_poly(monkeypatch):
    # chi(rho(x)) comes from the action on H/W: every stack reaching
    # _char_poly_mod during a witness holds matrices of at most 2g rows, on
    # torelli g = 4 (rank 48) and pullback (5, 2) (rank 14)
    shapes = []

    def recording(H, p, _mod=exact._char_poly_mod):
        shapes.append(H.shape[1:])
        return _mod(H, p)

    monkeypatch.setattr(exact, "_char_poly_mod", recording)
    for name, g, params, x, y in [
        ("torelli", 4, {}, [("T_a1", 1), ("T_b1", -1), ("T_a2", 1), ("T_b2", -1)], "bp:a1,a2+b1,a3"),
        ("pullback", 5, {"h": 2}, [("T_a3", 1), ("T_b3", -1)], "bp:a3+b3,b3+b4,b5"),
    ]:
        shapes.clear()
        witness_certificate(preset(name, g, **params), x, y, 60)
        assert shapes and all(rows <= 2 * g and cols <= 2 * g for rows, cols in shapes), (name, shapes)


def test_log_ratio_fit_past_float_range():
    early, late = 3, 7 ** 480           # the ratio is about 10^405
    rate = engine._log_ratio_fit(early, late, 200)
    assert math.isfinite(rate)
    assert abs(rate - math.exp((480 * math.log(7) - math.log(3)) / 200)) < 1e-12 * rate
    assert engine._log_ratio_fit(5, 5, 0) == 1.0


def test_witness_rejects_non_growing():
    d = pointpush_like(2)
    with pytest.raises(ValueError):
        witness_certificate(d, [("T_a1", 1)], "push_a1", 10)


def test_witness_certificate_sound_against_bfs():
    # mapping-torus instance: K = Z^2 inside Z^2 x| Z; BFS gives true lengths
    d = semidirect_datum()
    assert rho_of_word(d, FIB_WORD).entries == FIB.entries
    cert = witness_certificate(d, FIB_WORD, "e1", 4)
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


# --- presets ------------------------------------------------------------------------------

def test_pointpush_preset():
    d = preset("pointpush", 2)
    assert d.rank == 4 and d.bound_constant == 1 and psi_spans(d)
    assert sorted(d.psi) == ["push_a1", "push_a2", "push_b1", "push_b2"]
    cert = witness_certificate(d, [("T_a1", 1), ("T_b1", -1)], "push_a1", 5)
    assert [r.intrinsic for r in cert.rows] == [2, 5, 13, 34, 89]
    with pytest.raises(ValueError):
        preset("pointpush", 1)


def test_surface_braid_preset():
    # the H^points values summed to H: one rank-2g module for any number of
    # points, each point's push of a basis curve valued at that basis vector
    d = preset("surface_braid", 2, points=3)
    assert d.rank == 4 and d.bound_constant == 1 and psi_spans(d)
    assert len(d.psi) == 12
    assert d.psi["push1_b1"] == d.psi["push2_b1"] == d.psi["push3_b1"] == IntVector.basis(4, 2)
    # rho is the 2g x 2g matrix itself
    assert d.ambient["T_a1"] == ((standard_curves(2)["a1"], 1),)
    assert rho_of_word(d, [("T_a1", 1)]).entries == IntMatrix.from_rows(twist_plain([1, 0, 0, 0])).entries
    assert preset("surface_braid", 3, points=40).rank == 6


def test_torelli_preset_bundled_tables():
    # closed-form values at every genus, no table needed
    d = preset("torelli", 3)
    assert d.rank == 14 and psi_spans(d) and d.provenance == engine.PROVENANCE
    db = preset("torelli", 3, variant="boundary")
    assert db.rank == 20 and psi_spans(db)
    with pytest.raises(ValueError):
        preset("torelli", 2)
    d4 = preset("torelli", 4)
    assert d4.rank == len(d4.psi) == 48 and d4.bound_constant == 1
    # psi_table is a parsed table; a path is not read as a bundled table's name
    for path in ("/path/to/table.json", "torelli_psi_g3_closed"):
        with pytest.raises(ValueError, match="a value table is"):
            preset("torelli", 3, psi_table=path)


def test_torelli_preset_supports_witnesses():
    d = preset("torelli", 3)
    # find an ambient word with growing action on some bundled value
    y = sorted(d.psi)[0]
    cert = witness_certificate(d, [("T_c0", 1), ("T_c4", -1)], y, 12)
    assert cert.rows[-1].intrinsic > cert.rows[0].intrinsic


def test_lagrangian_preset():
    d = preset("lagrangian", 4)
    assert d.rank == 4 and psi_spans(d)
    assert rho_of_word(d, [("T_a1", 1)]).is_identity()
    assert rho_of_word(d, [("T_a1", -1)]).is_identity()
    # the action factors through the GL-projection: composing with a trivial
    # stabilizer element leaves rho unchanged
    for word, alone in (([("E12", 1), ("T_a1", 3)], "E12"), ([("T_a2", -2), ("E21", 1), ("T_a1", 1)], "E21")):
        assert rho_of_word(d, word).entries == rho_of_word(d, [(alone, 1)]).entries, word
    with pytest.raises(ValueError):
        preset("lagrangian", 3)


def test_pullback_preset():
    d = preset("pullback", 5, h=2)
    assert d.rank == 14 and psi_spans(d)
    with pytest.raises(ValueError):
        preset("pullback", 4, h=2)    # rank-0 target
    with pytest.raises(ValueError):
        preset("pullback", 4, h=3)
    with pytest.raises(ValueError):
        preset("pullback", 5)         # missing h


def _gen_psi_tables():
    tool = pathlib.Path(__file__).resolve().parent.parent / "tools" / "gen_psi_tables.py"
    spec = importlib.util.spec_from_file_location("gen_psi_tables", tool)
    gen = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(gen)
    return gen


def _reference_lagrangian_block(ctx, i, j):
    """diag(A^-T, A) for A = I + e_ij, with A^-1 from IntMatrix.inverse and
    the symplectic check run."""
    g = ctx.genus
    A = [[int(r == c) for c in range(g)] for r in range(g)]
    A[i][j] = 1
    A = IntMatrix.from_rows(A)
    P = IntMatrix.from_rows(list(zip(*A.inverse().entries)))
    block = [P.entries[r] + (0,) * g for r in range(g)] + [(0,) * g + A.entries[r] for r in range(g)]
    M = IntMatrix.from_rows(block)
    assert is_symplectic(ctx, M)
    return M


def _reference_generators(name, g, params):
    """Each preset's generators built one symbol at a time, every element
    checked, and the target they act on (None for the braid presets, whose
    rho is the 2g x 2g matrix itself)."""
    ctx = SymplecticContext(g)

    def twist(label):
        return IntMatrix.from_rows(twist_plain(list(ctx.basis_vector(label).entries)))

    if name in ("pointpush", "surface_braid", "torelli"):
        twists = {}
        for table in (standard_curves(g), humphries_table(g)):
            for lab, v in table.items():
                twists[f"T_{lab}"] = IntMatrix.from_rows(twist_plain(list(v.entries)))
        target = johnson_target(g, params.get("variant", "closed")) if name == "torelli" else None
        return target, twists
    if name == "lagrangian":
        w = IntMatrix.from_columns([IntVector.basis(2 * g, i).entries for i in range(g)], 2 * g)
        gens = {f"E{i + 1}{j + 1}": _reference_lagrangian_block(ctx, i, j)
                for i in range(g) for j in range(g) if i != j}
        for i in range(1, g + 1):
            gens[f"T_a{i}"] = twist(f"a{i}")
        return relative_target(g, w, variant="closed"), gens
    assert name == "pullback"
    h = params["h"]
    cols = []
    for i in range(h):
        cols += [IntVector.basis(2 * g, i).entries, IntVector.basis(2 * g, g + i).entries]
    target = relative_target(g, IntMatrix.from_columns(cols, 2 * g), variant="closed")
    return target, {f"T_{k}{i}": twist(f"{k}{i}") for i in range(h + 1, g + 1) for k in "ab"}


def _reference_rho(name, g, params):
    target, gens = _reference_generators(name, g, params)
    if target is None:
        return gens
    return {sym: induced_action(target, t) for sym, t in gens.items()}


def test_braid_presets_match_block_diagonal_reference():
    # over seeded (g, points, x, y), growing and not, the preset on H gives
    # the verdict and the certificate of the datum on H^points: rho(M) =
    # diag(M, ..., M), point b's pushes valued on block b, and D = 1
    rnd = random.Random(24)
    kinds = []
    for g, points in ((2, 1), (2, 2), (2, 5), (3, 1), (3, 3), (4, 2)):
        name = "pointpush" if points == 1 else "surface_braid"
        d = preset(name, g, points=points)
        _, twists = _reference_generators(name, g, {})
        pushes = {f"push_{lab}" if points == 1 else f"push{b + 1}_{lab}": b * 2 * g + j
                  for b in range(points) for j, lab in enumerate(SymplecticContext(g).basis_labels())}
        assert list(d.psi) == list(pushes) and list(d.ambient) == list(twists)
        symbols = list(d.ambient)
        for case in range(8):
            x = [(rnd.choice(symbols), rnd.choice((-2, -1, 1, 2))) for _ in range(rnd.randint(1, 3))]
            if case % 2:
                h = rnd.randint(1, g)
                x = [(f"T_a{h}", rnd.choice((1, 2))), (f"T_b{h}", -rnd.choice((1, 2)))] + x[:1]
            y = rnd.choice(list(d.psi))
            M = functools.reduce(exact.mat_mul, (twists[sym] ** e for sym, e in x))
            block = IntMatrix.from_rows(blockdiag_plain(M.entries, points))
            v = IntVector.basis(block.rows, pushes[y])
            M = d.matrix_of_word(x)
            grows = growing_vector_test(d.rho(M), d.psi_of(y), d.rho_char_poly(M))
            assert grows == growing(block, v), (g, points, x, y)
            kinds.append(grows)
            n = rnd.randint(1, 40)
            if grows:
                cert = witness_certificate(d, x, y, n)
                norms = witness_growth_brute(block, v, n)
                len_x = sum(abs(e) for _, e in x)
                assert cert.bound_constant == 1
                assert [(r.n, r.extrinsic, r.intrinsic) for r in cert.rows] == [
                    (k, 2 * k * len_x + 1, norm) for k, norm in enumerate(norms, 1)]
                reference = log_ratio_fit_per_step(norms)
                assert abs(cert.fitted_rate - reference) <= 1e-12 * reference, (g, points, x, y, n)
            else:
                with pytest.raises(ValueError, match="non-growing pair"):
                    witness_certificate(d, x, y, n)
    assert kinds.count(True) >= 10 and kinds.count(False) >= 10


@pytest.mark.parametrize("name, g, params", [
    ("pointpush", 2, {}),
    ("surface_braid", 2, {"points": 1}),
    ("surface_braid", 2, {"points": 3}),
    ("torelli", 3, {}),
    ("torelli", 3, {"variant": "boundary"}),
    ("lagrangian", 4, {}),
    ("pullback", 5, {"h": 2}),
])
def test_preset_rho_matches_reference(name, g, params):
    # rho of each generator and of its inverse, the latter against the
    # checked IntMatrix.inverse of the reference action
    d = preset(name, g, **params)
    expected = _reference_rho(name, g, params)
    assert list(d.ambient) == list(expected)
    for sym, M in expected.items():
        assert rho_of_word(d, [(sym, 1)]).entries == M.entries, sym
        assert rho_of_word(d, [(sym, -1)]).entries == M.inverse().entries, sym


# sha256 of [[symbol, rows], ...] of each preset's rho, pinned while
# induced_action still checked the relations at run time
RHO_DIGESTS = {
    ("torelli", 3): "e7928725d3a373684a6a958f5fd34a3c15b403b7005cc21078450fa6e7db4203",
    ("torelli", 4): "0f925d2491500edc16a8ccb76b284f597be800b020159e89b54096a5144a4e4c",
    ("lagrangian", 4): "0bd671e64e2009afcb3ccbce54252b2853ee5338283670009bda4204325cc255",
    ("pullback", 5): "8f66f5a89504d40c03e3088621d2e38005c680f513010933b65c241f7118208d",
}


@pytest.mark.parametrize("name, g, params", [
    ("torelli", 3, {}),
    ("torelli", 4, {}),
    ("lagrangian", 4, {}),
    ("pullback", 5, {"h": 2}),
])
def test_preset_actions_preserve_relations(name, g, params):
    # induced_action does not check that wedge^3 of the action on H/W carries
    # the relations H^W into themselves (its docstring proves it); check it
    # for every generator and every product of two
    target, gens = _reference_generators(name, g, params)
    hq, module = target.h_quotient, target.module
    elements = list(dict.fromkeys(gens.values()))
    for M in elements + [exact.mat_mul(A, B) for A in elements for B in elements]:
        W3 = wedge3_map(exact.mat_mul(hq.projection, exact.mat_mul(M, hq.section)))
        for r in module.relations.columns():
            assert module.contains(W3.apply(r))
    rho = {sym: induced_action(target, t) for sym, t in gens.items()}
    text = json.dumps([[sym, M.entries] for sym, M in rho.items()])
    assert hashlib.sha256(text.encode()).hexdigest() == RHO_DIGESTS[name, g]


def _lagrangian_symbol(i, j):
    """The symbol of E_(i+1)(j+1): a separator once an index has two digits."""
    return f"E{i + 1}{j + 1}" if max(i, j) < 9 else f"E{i + 1}_{j + 1}"


def test_lagrangian_generators_are_symplectic_blocks():
    # the induced action sees only the block A, so rho alone cannot catch a
    # wrong A^-T block; the twist letters of E_ij and of its powers are
    # evaluated against powers of the checked block
    ctx = SymplecticContext(4)
    gens = engine._elementary(4)
    assert len(gens) == 12
    for i, j in itertools.permutations(range(4), 2):
        letters = gens[_lagrangian_symbol(i, j)]
        block = _reference_lagrangian_block(ctx, i, j)
        for e in (1, -1, 2, 2 ** 62):
            M = evaluate(MappingClassWord(4, tuple((c, k * e) for c, k in letters)))
            assert M.entries == exact.mat_pow(block if e > 0 else block.inverse(), abs(e)).entries, (i, j, e)


@pytest.mark.parametrize("g", [11, 12])
def test_lagrangian_symbols_at_two_digit_indices(g):
    # E_(1)(11) and E_(11)(1) would both be E111 without a separator
    table = {"module_rank": math.comb(g, 3), "gens": [{"symbol": "w", "psi": [1] + [0] * (math.comb(g, 3) - 1)}]}
    d = preset("lagrangian", g, psi_table=table)
    assert len(d.ambient) == g * (g - 1) + g
    assert "E1_11" in d.ambient and "E11_1" in d.ambient and "E111" not in d.ambient
    ctx = SymplecticContext(g)
    for i, j in itertools.permutations(range(g), 2):
        M = evaluate(MappingClassWord(g, d.ambient[_lagrangian_symbol(i, j)]))
        assert M.entries == _reference_lagrangian_block(ctx, i, j).entries, (i, j)


def test_torelli_preset_induces_one_action_per_word(monkeypatch):
    # the dense product of a word's twist powers, from helpers_oracle
    ctx = SymplecticContext(3)
    T = {lab: list(ctx.basis_vector(lab).entries) for lab in ("a1", "b1", "a2")}
    dense = mat_mul_plain(mat_mul_plain(twist_plain(T["a1"], 2), twist_plain(T["b1"], -1)), twist_plain(T["a2"], -3))
    calls, inverses, dets, twists, words = [], [], [], [], []

    def counting(target, M, _induced=engine.induced_action):
        calls.append(M)
        return _induced(target, M)

    def counting_inverse(M, _inverse=IntMatrix.inverse):
        inverses.append(M)
        return _inverse(M)

    def counting_det(M, _det=IntMatrix.det):
        dets.append(M)
        return _det(M)

    def counting_twists(curves, _twists=engine._twists):
        twists.append(len(curves))
        return _twists(curves)

    def counting_evaluate(word, _evaluate=engine.evaluate):
        words.append(word)
        return _evaluate(word)

    monkeypatch.setattr(engine, "induced_action", counting)
    monkeypatch.setattr(engine, "_twists", counting_twists)
    monkeypatch.setattr(engine, "evaluate", counting_evaluate)
    monkeypatch.setattr(IntMatrix, "inverse", counting_inverse)
    monkeypatch.setattr(IntMatrix, "det", counting_det)
    d = preset("torelli", 3)
    # a preset holds its 4g + 1 twists as one twist letter each and induces
    # nothing; the Humphries c0 = a2, c1 = a1 and c_2i = b_i repeat
    # standard classes
    assert calls == [] and words == [] and twists == [13] and len(d.ambient) == 13
    homology = {sym: letters[0][0] for sym, letters in d.ambient.items()}
    assert homology["T_c0"] == homology["T_a2"] and homology["T_c6"] == homology["T_b3"]
    # a word is one evaluate of its twist letters, and rho is applied once to
    # the product; an induced action is unimodular by functoriality, so no
    # det is taken and no inverse either
    M = rho_of_word(d, [("T_a1", 2), ("T_b1", -1), ("T_c0", -3)])
    a1, b1, c0 = (homology[f"T_{lab}"] for lab in ("a1", "b1", "c0"))
    assert [w.letters for w in words] == [((a1, 2), (b1, -1), (c0, -3))]
    assert len(calls) == 1 and calls[0].entries == tuple(map(tuple, dense))
    assert M.shape == (14, 14)
    witness_certificate(d, [("T_a1", 1), ("T_b1", -1)], "bp:a1+b1,b1+b2,b3", 5)
    assert len(calls) == 2 and len(words) == 2 and inverses == [] and dets == []
    calls.clear()
    twists.clear()
    # closed-form values take no induced action, det or inverse either
    d = preset("torelli", 4)
    assert calls == [] and inverses == [] and dets == [] and d.rank == 48 and twists == [17]
    table = _gen_psi_tables().torelli_table(4, "closed")
    twists.clear()
    d = preset("torelli", 4, psi_table=table)
    assert calls == [] and inverses == [] and dets == [] and d.rank == 48 and twists == [17]


def test_rho_of_word_matches_identity_start():
    # rho of a word is the product, from the identity, of rho of its letters
    rnd = random.Random(5)
    for d in (preset("torelli", 3), preset("pointpush", 2), semidirect_datum()):
        symbols = sorted(d.ambient) + sorted(d.psi)
        words = [[], [(symbols[0], 1)], [(symbols[-1], 2)]]
        words += [[(rnd.choice(symbols), rnd.choice((-2, -1, 0, 1, 3))) for _ in range(k)] for k in (2, 3, 5)]
        for word in words:
            expected = IntMatrix.identity(d.rank)
            for sym, e in word:
                expected = exact.mat_mul(expected, rho_of_word(d, [(sym, e)]))
            assert rho_of_word(d, word).entries == expected.entries, word


@pytest.mark.parametrize("name, g, params", [
    ("pointpush", 2, {}),
    ("surface_braid", 2, {"points": 3}),
    ("torelli", 3, {"variant": "boundary"}),
    ("lagrangian", 4, {}),
    ("pullback", 5, {"h": 2}),
])
def test_rho_of_word_matches_reference_products(name, g, params):
    # rho of a word, one induced action of its Sp(2g, Z) product, against the
    # product of the reference actions of its letters, negative powers by
    # the checked IntMatrix.inverse, subgroup letters as the identity
    rnd = random.Random(f"{name}-{g}")
    d = preset(name, g, **params)
    reference = _reference_rho(name, g, params)
    symbols = sorted(d.ambient) + sorted(d.psi)[:2]
    for _ in range(24):
        word = [(rnd.choice(symbols), rnd.choice((-3, -2, -1, 0, 1, 2, 2 ** 62, -2 ** 62)))
                for _ in range(rnd.randint(1, 5))]
        expected = IntMatrix.identity(d.rank)
        for sym, e in word:
            if sym in reference:
                expected = exact.mat_mul(expected, reference[sym] ** e)
        assert rho_of_word(d, word).entries == expected.entries, word


def test_psi_table_roundtrip():
    d = semidirect_datum()
    obj = psi_table_to_json(d.rank, d.psi, "test data")
    rank, psi, prov = psi_table_from_json(obj)
    assert rank == 2 and prov == "test data"
    assert psi["e1"].entries == (1, 0)


FIXTURES = {
    "torelli_psi_g3_closed": ("torelli", 3, {}),
    "torelli_psi_g3_boundary": ("torelli", 3, {"variant": "boundary"}),
    "pullback_psi_g5_h2": ("pullback", 5, {"h": 2}),
}


def test_bundled_psi_tables_regenerate():
    # the benchmark's three fixture tables, chosen by an earlier greedy span,
    # hold the preset's own values: each symbol's value from its name
    data = pathlib.Path(distortion.__file__).parent / "data"
    assert sorted(p.stem for p in data.glob("*.json")) == sorted(FIXTURES)
    for name, (kind, g, params) in FIXTURES.items():
        d = preset(kind, g, **params)
        rank, psi, _ = psi_table_from_json(json.loads((data / f"{name}.json").read_text()))
        assert rank == d.rank and len(psi) == d.rank, name
        for sym, v in psi.items():
            assert d.psi_of(sym) == v, (name, sym)


def _symbol_parts(symbol):
    """The label sums x, y, z of bp:x,y,z or of w:x^y^z, parsed plainly."""
    body = symbol.split(":", 1)[1]
    return [part.split("+") for part in (body.split(",") if symbol.startswith("bp:") else body.split("^"))]


def _plain_value(target, symbol):
    """P (xbar ^ ybar ^ zbar) by helpers_oracle.wedge3_plain and plain
    products: the projections of H/W and of the target as lists of rows."""
    ctx = SymplecticContext(target.genus)
    xyz = [[sum(ctx.basis_vector(lab).entries[i] for lab in part) for part in _symbol_parts(symbol)]
           for i in range(ctx.dim)]
    bars = mat_mul_plain([list(r) for r in target.h_quotient.projection.entries], xyz, 3)
    wedge = wedge3_plain(bars)          # one column: the 3x3 minors of the 3 columns
    return [sum(row[t] * wedge[t][0] for t in range(len(wedge))) for row in target.module.projection.entries]


def _coordinate_w(g, labels):
    """W spanned by the basis vectors of these labels."""
    ctx = SymplecticContext(g)
    return IntMatrix.from_columns([ctx.basis_vector(lab).entries for lab in labels], 2 * g)


# preset, the target built apart from it, and bp: symbols outside its list
CLOSED_FORM_PRESETS = {
    "torelli-g3-closed": (("torelli", 3, {}), lambda: johnson_target(3, "closed"),
                          ["bp:a1+b1,b1+b2,b3", "bp:a1,a3+b1,b2", "bp:a2,b2+b3,a1+b1"]),
    "torelli-g4-boundary": (("torelli", 4, {"variant": "boundary"}), lambda: johnson_target(4, "boundary"),
                            ["bp:a1+b1,b1+b2,b3", "bp:a4,b4+b2,a1+b3"]),
    "lagrangian-g5": (("lagrangian", 5, {}),
                      lambda: relative_target(5, _coordinate_w(5, ["a1", "a2", "a3", "a4", "a5"])), []),
    "pullback-g6-h2": (("pullback", 6, {"h": 2}),
                       lambda: relative_target(6, _coordinate_w(6, ["a1", "a2", "b1", "b2"])),
                       ["bp:a3+b3,b3+b4,b5", "bp:a6,b6,a3+b4"]),
}


@pytest.mark.parametrize("key", sorted(CLOSED_FORM_PRESETS))
def test_closed_form_values_match_plain_wedge(key):
    # each value, listed or valued from its name, is the plain projection of
    # the plain wedge of its symbol's vectors
    (kind, g, params), target, extra = CLOSED_FORM_PRESETS[key]
    d, target = preset(kind, g, **params), target()
    assert not set(extra) & set(d.psi)
    for sym in list(d.psi) + extra:
        assert list(d.psi_of(sym).entries) == _plain_value(target, sym), sym


@pytest.mark.parametrize("kind, params, genera", [
    ("torelli", {"variant": "closed"}, range(3, 9)),
    ("torelli", {"variant": "boundary"}, range(3, 9)),
    ("lagrangian", {}, range(4, 9)),
    ("pullback", {"h": 2}, (5, 6)),
    ("pullback", {"h": 3}, (7,)),
])
def test_closed_form_values_are_a_basis(kind, params, genera):
    # rank many values with det +-1 form a Z-basis of the target, all of norm 1
    for g in genera:
        d = preset(kind, g, **params)
        assert len(d.psi) == d.rank and d.bound_constant == 1, g
        assert IntMatrix.from_columns([v.entries for v in d.psi.values()], d.rank).det() in (1, -1), g


def test_bounding_pair_symbols_checked():
    d = preset("torelli", 3)
    for sym, msg in [
        ("bp:a1,b1", "is not bp:x,y,z"),
        ("bp:a1,,b3", "is not bp:x,y,z"),
        ("bp:a1,b1,a2,b2", "is not bp:x,y,z"),
        ("bp:a1,b1,c2", "'c2' is not a label of this preset's handles"),
        ("bp:a1,b1,a4", "'a4' is not a label of this preset's handles"),
        ("bp:a1,b1+,a2", "'' is not a label"),
        ("bp:a1,b1+b1,a2", "repeats 'b1'"),
        ("bp:b1,a1,a2", "has <x, y> = -1, not 1"),
        ("bp:a1,a2,a3", "has <x, y> = 0, not 1"),
        ("bp:a1,b1,b1+a2", "z does not pair to 0 with x and y"),
        ("bp:a1,b1+a2,b2", "z does not pair to 0 with x and y"),
    ]:
        with pytest.raises(ValueError, match=re.escape(f"bounding-pair symbol {sym!r}") + ".*" + re.escape(msg)):
            d.psi_of(sym)
    # a pullback symbol may not name a filled handle; lagrangian values only its list
    with pytest.raises(ValueError, match=r"'bp:a1,b1,a3': 'a1' is not a label of this preset's handles"):
        preset("pullback", 5, h=2).psi_of("bp:a1,b1,a3")
    for sym in ("w:b1^b1^b2", "w:b2^b1^b3", "bp:a1,b1,a2"):
        with pytest.raises(KeyError, match=re.escape(f"unknown subgroup symbol {sym!r}")):
            preset("lagrangian", 4).psi_of(sym)
    # a table replaces the closed form: then y must be in it
    table = psi_table_to_json(d.rank, {"bp:a1,a2+b1,a3": d.psi["bp:a1,a2+b1,a3"]}, "one value")
    with pytest.raises(KeyError, match="unknown subgroup symbol 'bp:a1\\+b1,b1\\+b2,b3'"):
        preset("torelli", 3, psi_table=table).psi_of("bp:a1+b1,b1+b2,b3")


def test_non_string_symbols_are_unknown():
    # a symbol that is not a str is unknown, not a TypeError from hashing it
    d = preset("pointpush", 2)
    for sym in (["T_a1"], 5, ("T_a1",), None):
        with pytest.raises(KeyError, match=re.escape(f"unknown symbol {sym!r}")):
            witness_certificate(d, [(sym, 1)], "push_a1", 3)
        with pytest.raises(KeyError, match=re.escape(f"unknown subgroup symbol {sym!r}")):
            d.psi_of(sym)
    with pytest.raises(KeyError, match=re.escape("unknown subgroup symbol ['push_a1']")):
        witness_certificate(d, [("T_a1", 1)], ["push_a1"], 3)
    with pytest.raises(KeyError, match=re.escape("unknown subgroup symbol ['bp:a1,b1,a2']")):
        preset("torelli", 3).psi_of(["bp:a1,b1,a2"])


def test_listed_bp_symbols_pass_the_shape_check():
    # the listed symbols are valued from their parts without _bp_parts; each
    # passes it, and names the same parts
    for g, handles in ((3, range(1, 4)), (5, range(1, 6)), (7, range(3, 8))):
        labels = [f"{k}{i}" for k in "ab" for i in handles]
        for variant in ("closed", "boundary"):
            for sym, parts in engine._bp_symbols(handles, variant).items():
                assert engine._bp_parts(g, labels, sym) == parts, sym


def test_witness_adds_y_to_the_generating_set():
    # D is the largest norm over the list and y, so a y valued from its name
    # gives the rows of the same y in a table
    d = preset("torelli", 3)
    y = "bp:a1+b1,b1+b2,b3"
    assert y not in d.psi and d.psi_of(y).sup_norm() == 1
    x = [("T_a1", 1), ("T_b1", -1), ("T_a2", 1), ("T_b2", -1)]
    cert = witness_certificate(d, x, y, 20)
    table = psi_table_to_json(d.rank, {**d.psi, y: d.psi_of(y)}, "")
    assert cert == witness_certificate(preset("torelli", 3, psi_table=table), x, y, 20)
    # every listed value has norm 1, but a valid bp: y may have norm 2, and
    # then D is 2
    big = "bp:a1+a2,a3+b1,a1+b3"
    assert big not in d.psi and d.psi_of(big).sup_norm() == 2
    cert = witness_certificate(d, x, big, 5)
    assert cert.bound_constant == 2 and [r.intrinsic for r in cert.rows] == [2, 13, 85, 578, 3961]


def test_greedy_span_matches_plain():
    # the greedy span by one rank per candidate keeps every closed-form value
    for kind, g, params in (("torelli", 3, {}), ("torelli", 3, {"variant": "boundary"}), ("lagrangian", 4, {}),
                            ("lagrangian", 6, {}), ("pullback", 5, {"h": 2})):
        d = preset(kind, g, **params)
        kept = greedy_span_plain(d.rank, [(s, list(v.entries)) for s, v in d.psi.items()])
        assert list(kept) == list(d.psi), (kind, g)


def test_greedy_span_unlucky_prime():
    # e1 + p0 e2 = e1 mod p0: singular mod the first prime p0, yet IntMatrix.det
    # lifts past it to p0, and rank_plain finds both columns independent
    p0 = next(exact._primes(2))
    for cols in ([[1, 0], [1, p0]], [[1, 0], [0, p0]]):
        values = IntMatrix.from_columns(cols, 2)
        assert exact._echelon_mod(exact._int_array(values.entries) % p0, 2, p0) == 0
        assert values.det() == p0 and rank_plain(cols) == 2
    # a dependent pair has det 0 and rank 1
    assert IntMatrix.from_columns([[1, p0], [2, 2 * p0]], 2).det() == 0 == rank_plain([[1, p0], [2, 2 * p0]]) - 1


@pytest.mark.parametrize("g, digest", [
    (4, "fceee1e1c320d7e1e063607b3e91d5f22cb70a56de497400d3baf1f452104bb1"),
    (5, "a20046530d95698f38f7d32f03e167645135efbe3542e76096d1ce5af28e4737"),
    (6, "a615172627262943faa14cd678c6cf2a6070209fd85cf810134836bdcb43d4ad"),
])
def test_torelli_table_pinned(g, digest):
    # sha256 of the closed-form tables the tool writes
    gen = _gen_psi_tables()
    text = gen.table_text(gen.torelli_table(g, "closed"))
    assert hashlib.sha256(text.encode()).hexdigest() == digest
