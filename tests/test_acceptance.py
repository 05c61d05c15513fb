"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines and timings.  Every tolerance and runtime budget is pinned here.
"""

import math
import random
import time
from fractions import Fraction

import pytest

from distortion.exact import (
    IntMatrix,
    IntVector,
    char_poly,
    is_partially_hyperbolic,
    mat_mul,
)
from distortion.engine import (
    GrowthForm,
    UpperBoundSpec,
    preset,
    search_partially_hyperbolic,
    upper_bound_curve,
    witness_certificate,
)
from distortion.exterior import (
    induced_action,
    johnson_target,
    relative_target,
    wedge3_map,
)
from distortion.mapclass import (
    MappingClassWord,
    TW_membership,
    evaluate,
    humphries_table,
    level_membership,
    preserves_lattice,
    standard_curves,
    torelli_membership,
)
from distortion.oracle import SemidirectGroup, distortion_table, finite_closure
from distortion.symplectic import SymplecticContext, transvection
from helpers_oracle import max_root_modulus, random_unimodular

FIB = IntMatrix.from_rows([[2, 1], [1, 1]])


class Criterion:
    """Context manager that prints one PASS/FAIL line with the elapsed time."""

    def __init__(self, number, label, budget_seconds=None):
        self.number = number
        self.label = label
        self.budget = budget_seconds

    def __enter__(self):
        self.start = time.monotonic()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.monotonic() - self.start
        status = "PASS" if exc_type is None else "FAIL"
        print(f"[criterion {self.number:2d}] {status} {self.label} ({elapsed:.1f}s)")
        if exc_type is None and self.budget is not None:
            assert elapsed < self.budget, f"runtime {elapsed:.1f}s exceeded budget {self.budget}s"
        return False


def random_transvection_word(rnd, ctx, max_twists):
    M = IntMatrix.identity(ctx.dim)
    for _ in range(rnd.randint(1, max_twists)):
        v = IntVector(tuple(rnd.randint(-2, 2) for _ in range(ctx.dim)))
        M = mat_mul(M, transvection(ctx, v))
    return M


def test_criterion_1_omega_equivariance():
    with Criterion(1, "wedge3(M) E = E M for random twist products, g = 2,3,4", 30):
        rnd = random.Random(101)
        for g in (2, 3, 4):
            ctx = SymplecticContext(g)
            E = johnson_target(g, "closed").module.relations
            for _ in range(100):
                M = random_transvection_word(rnd, ctx, 10)
                assert mat_mul(wedge3_map(M), E).entries == mat_mul(E, M).entries


def test_criterion_2_johnson_target_ranks():
    with Criterion(2, "closed target ranks C(2g,3) - 2g, no torsion, up to dim 220", 60):
        pinned = {2: 0, 3: 14, 4: 48, 5: 110, 6: 208}
        for g, expected in pinned.items():
            target = johnson_target(g, "closed")
            assert target.free_rank == math.comb(2 * g, 3) - 2 * g == expected
            assert target.torsion == ()


def test_criterion_3_lagrangian_vanishing():
    with Criterion(3, "Lagrangian W kills the embedded copy of H; rank C(g,3)"):
        for g in (3, 4, 5):
            w = IntMatrix.from_columns(
                [IntVector.basis(2 * g, i).entries for i in range(g)], 2 * g
            )
            target = relative_target(g, w, variant="closed")
            assert target.module.relations.is_zero()
            assert target.free_rank == math.comb(g, 3)
            assert target.torsion == ()


def test_criterion_4_phyp_vs_float_oracle():
    with Criterion(4, "exact hyperbolicity test vs float root-modulus oracle, 500 matrices"):
        assert not is_partially_hyperbolic(IntMatrix.identity(4))
        for perm in (
            IntMatrix.from_rows([[0, 1], [1, 0]]),
            IntMatrix.from_rows([[0, 1, 0], [0, 0, 1], [1, 0, 0]]),
            IntMatrix.from_rows([[0, 0, 1, 0], [1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1]]),
        ):
            assert not is_partially_hyperbolic(perm)
        assert is_partially_hyperbolic(FIB)
        rnd = random.Random(401)
        for _ in range(500):
            M = random_unimodular(rnd, rnd.randint(2, 6), rnd.randint(0, 12))
            exact = is_partially_hyperbolic(M)
            numeric = max_root_modulus(char_poly(M).coeffs) > 1 + 1e-6
            assert exact == numeric, M.entries


def test_criterion_5_pointpush_witness():
    with Criterion(5, "point-push witness certificate at g = 2, N = 60", 5):
        datum = preset("pointpush", 2)
        cert = witness_certificate(datum, [("T_a1", 1), ("T_b1", -1)], "push_a1", 60)
        intr = [r.intrinsic for r in cert.rows]
        assert intr[:3] == [2, 5, 13]
        # intrinsic column is exactly ||M^n (1,0)||_inf
        M = datum.rho(datum.matrix_of_word([("T_a1", 1), ("T_b1", -1)]))
        w = IntVector.basis(4, 0)
        for row in cert.rows:
            w = M.apply(w)
            assert row.intrinsic == w.sup_norm()
        assert all(r.extrinsic == 4 * r.n + 1 for r in cert.rows)
        golden = (3 + math.sqrt(5)) / 2          # dominant root of x^2 - 3x + 1
        assert abs(cert.fitted_rate - golden) / golden < 0.02
        assert abs(golden - 2.6180) < 1e-4


def test_criterion_6_search_on_torelli_module():
    with Criterion(6, "hyperbolic word among wedge3 twist actions, g = 3, budget 6", 120):
        ctx = SymplecticContext(3)
        target = johnson_target(3, "closed")
        assert target.free_rank == 14
        gens = [
            induced_action(target, transvection(ctx, c))
            for c in humphries_table(3).values()
        ]
        result = search_partially_hyperbolic(gens, budget=6, seed=7)
        assert result is not None
        assert 1 <= len(result.word) <= 6
        product = IntMatrix.identity(14)
        for i, s in result.word:
            product = mat_mul(product, gens[i] if s == 1 else gens[i].inverse())
        assert is_partially_hyperbolic(product)


def test_criterion_7_mapping_torus_ground_truth():
    with Criterion(7, "semidirect-product distortion table with BFS-exact lengths", 60):
        rows = distortion_table(SemidirectGroup(FIB), 4, radius=9, state_cap=10_000_000)
        assert [r.intrinsic for r in rows] == [3, 8, 21, 55]
        fib = [1, 1]
        while len(fib) < 11:
            fib.append(fib[-1] + fib[-2])
        assert [r.intrinsic for r in rows] == [fib[2 * n + 1] for n in range(1, 5)]  # F_{2n+2}
        assert all(r.extrinsic_exact for r in rows)
        assert all(r.extrinsic <= 2 * r.n + 1 for r in rows)
        ratios = [Fraction(r.intrinsic, r.extrinsic) for r in rows]
        assert all(b > a for a, b in zip(ratios, ratios[1:]))


def test_criterion_8_membership_suite():
    with Criterion(8, "membership verdicts: homology-trivial, level, Lagrangian"):
        g = 2
        std = standard_curves(g)
        sep = IntVector.zero(2 * g)
        sep_word = MappingClassWord.from_letters(g, [(sep, 1)])
        assert torelli_membership(evaluate(sep_word))

        c = d = IntVector((0, 1, 0, 0))
        bp = MappingClassWord.from_letters(g, [(c, 1), (d, -1)])
        assert torelli_membership(evaluate(bp))

        t_a1 = MappingClassWord.from_letters(g, [(std["a1"], 1)])
        assert not torelli_membership(evaluate(t_a1))

        t_sq = MappingClassWord.from_letters(g, [(std["a1"], 2)])
        assert level_membership(evaluate(t_sq), 2)
        assert not level_membership(evaluate(t_sq), 3)

        lagr = IntMatrix.from_columns(
            [IntVector.basis(2 * g, i).entries for i in range(g)], 2 * g
        )
        t_b1 = MappingClassWord.from_letters(g, [(std["b1"], 1)])
        assert preserves_lattice(evaluate(t_a1), lagr) and TW_membership(evaluate(t_a1), lagr)
        assert not preserves_lattice(evaluate(t_b1), lagr)


def test_criterion_9_finite_closures():
    with Criterion(9, "Humphries twists mod 2 generate the full symplectic groups", 120):
        expected = {}
        for g in (2, 3):
            order = 2 ** (g * g)
            for i in range(1, g + 1):
                order *= 2 ** (2 * i) - 1
            expected[g] = order
        assert expected == {2: 720, 3: 1_451_520}
        for g in (2, 3):
            ctx = SymplecticContext(g)
            gens = [transvection(ctx, c) for c in humphries_table(g).values()]
            result = finite_closure(gens, 2, state_cap=10_000_000)
            assert result.order == expected[g]


def test_criterion_10_upper_bound_curve():
    with Criterion(10, "doubly exponential upper-bound table, golden values"):
        spec = UpperBoundSpec(mu_p=GrowthForm.exp(2), mu_d=GrowthForm.exp(2), C=2)
        table = upper_bound_curve(spec, 5)
        golden = [
            (1, 2 * 2 ** 2),
            (2, 4 * 2 ** 4),
            (3, 8 * 2 ** 8),
            (4, 16 * 2 ** 16),
            (5, 32 * 2 ** 32),
        ]
        assert table == golden
        # doubly exponential shape: log2(value) itself grows geometrically
        logs = [math.log2(v) for _, v in table]
        assert all(b > 1.8 * a for a, b in zip(logs[1:], logs[2:]))
        flat = UpperBoundSpec(mu_p=GrowthForm.poly(0, 0, 1), mu_d=GrowthForm.poly(0, 1), C=1)
        assert [v for _, v in upper_bound_curve(flat, 4)] == [1, 4, 9, 16]
