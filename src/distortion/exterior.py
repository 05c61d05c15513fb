"""Third exterior powers of lattices and Johnson-style target modules.

The basis of wedge^3 Z^n is the set of triples (i, j, k) with i < j < k in
lexicographic order; e_i ^ e_j ^ e_k for an increasing triple is a positive
basis vector, and induced maps pick up 3x3 minors.  On H = Z^{2g} the form
class omega = a_1^b_1 + ... + a_g^b_g embeds H into wedge^3 H by
h |-> h ^ omega; the quotient by that image is the target module used for
word-length lower bounds on the kernel of the homology action, and the same
construction relative to a primitive sublattice W produces the targets
wedge^3(H/W) / H^W.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from functools import lru_cache

from .exact import (
    IntMatrix,
    IntVector,
    QuotientModule,
    mat_mul,
    matrix_to_json,
    quotient_module,
    smith_normal_form,
)
from .symplectic import SpElement, SymplecticContext


@dataclass(frozen=True)
class Wedge3Space:
    """Index bookkeeping for wedge^3 of an n-dimensional lattice."""

    ambient_dim: int
    triples: tuple[tuple[int, int, int], ...] = field(repr=False)

    @property
    def dim(self) -> int:
        return len(self.triples)

    def index(self, triple: tuple[int, int, int]) -> int:
        return _triple_index(self.ambient_dim)[triple]

    def labels(self, names: list[str]) -> list[tuple[str, str, str]]:
        return [(names[i], names[j], names[k]) for (i, j, k) in self.triples]


@lru_cache(maxsize=None)
def wedge3_space(n: int) -> Wedge3Space:
    return Wedge3Space(n, tuple(itertools.combinations(range(n), 3)))


@lru_cache(maxsize=None)
def _triple_index(n: int) -> dict:
    return {t: i for i, t in enumerate(wedge3_space(n).triples)}


@lru_cache(maxsize=None)
def _pairs(n: int) -> tuple[tuple[int, int], ...]:
    return tuple(itertools.combinations(range(n), 2))


@lru_cache(maxsize=None)
def _pair_index(n: int) -> dict:
    return {p: i for i, p in enumerate(_pairs(n))}


def wedge3_map(M: IntMatrix) -> IntMatrix:
    """Induced map on wedge^3: entries are the 3x3 minors of M.  Accepts any
    r x c map with r, c >= 3 (rectangular ones arise as quotient projections)
    and is functorial: wedge3_map(A*B) = wedge3_map(A)*wedge3_map(B)."""
    if M.rows < 3 or M.cols < 3:
        raise ValueError("wedge^3 needs dimensions >= 3")
    cols_idx = list(itertools.combinations(range(M.cols), 3))
    E = M.entries
    out = []
    for (i, j, k) in itertools.combinations(range(M.rows), 3):
        Ri, Rj, Rk = E[i], E[j], E[k]
        orow = []
        for (p, q, r) in cols_idx:
            a, b, c = Ri[p], Ri[q], Ri[r]
            d, e, f = Rj[p], Rj[q], Rj[r]
            g, h, w = Rk[p], Rk[q], Rk[r]
            orow.append(a * (e * w - f * h) - b * (d * w - f * g) + c * (d * h - e * g))
        out.append(tuple(orow))
    return IntMatrix(tuple(out), len(cols_idx))


def wedge2_of_vectors(u: IntVector, v: IntVector) -> IntVector:
    """u ^ v in pair coordinates."""
    if u.dim != v.dim:
        raise ValueError("dimension mismatch")
    return IntVector(tuple(u.entries[i] * v.entries[j] - u.entries[j] * v.entries[i]
                           for (i, j) in _pairs(u.dim)))


def wedge3_of_vectors(u: IntVector, v: IntVector, w: IntVector) -> IntVector:
    """u ^ v ^ w in triple coordinates (3x3 minors of the column matrix)."""
    if not (u.dim == v.dim == w.dim):
        raise ValueError("dimension mismatch")
    out = []
    for (i, j, k) in wedge3_space(u.dim).triples:
        out.append(
            u.entries[i] * (v.entries[j] * w.entries[k] - v.entries[k] * w.entries[j])
            - u.entries[j] * (v.entries[i] * w.entries[k] - v.entries[k] * w.entries[i])
            + u.entries[k] * (v.entries[i] * w.entries[j] - v.entries[j] * w.entries[i])
        )
    return IntVector(tuple(out))


def wedge_vector_with_2form(u: IntVector, w: IntVector) -> IntVector:
    """u ^ w for w in pair coordinates; result in triple coordinates."""
    n = u.dim
    pidx = _pair_index(n)
    if w.dim != len(pidx):
        raise ValueError("2-form has wrong dimension")
    out = []
    for (i, j, k) in wedge3_space(n).triples:
        out.append(
            u.entries[i] * w.entries[pidx[(j, k)]]
            - u.entries[j] * w.entries[pidx[(i, k)]]
            + u.entries[k] * w.entries[pidx[(i, j)]]
        )
    return IntVector(tuple(out))


# ---------------------------------------------------------------------------
# the omega-embedding and Johnson targets
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class OmegaData:
    """The embedding H -> wedge^3 H, h |-> h ^ omega, as an exact matrix."""

    genus: int
    omega: IntVector          # omega in pair coordinates on Z^{2g}
    embedding: IntMatrix      # C(2g,3) x 2g, column j = e_j ^ omega


@lru_cache(maxsize=None)
def omega_embedding(g: int) -> OmegaData:
    """Build omega = sum a_i ^ b_i and the embedding matrix.

    Rejected for g = 1, where h ^ omega vanishes identically.  For g >= 2 the
    image is a primitive sublattice (all Smith invariants 1), which we verify.
    """
    if g < 2:
        raise ValueError("omega-embedding is degenerate for genus < 2")
    n = 2 * g
    pidx = _pair_index(n)
    w = [0] * len(pidx)
    for i in range(g):
        w[pidx[(i, g + i)]] = 1
    omega = IntVector(tuple(w))
    cols = [wedge_vector_with_2form(IntVector.basis(n, j), omega) for j in range(n)]
    E = IntMatrix.from_columns([c.entries for c in cols], math.comb(n, 3))
    diag = smith_normal_form(E).diagonal()
    if len([d for d in diag if d != 0]) != n or any(d != 1 for d in diag[:n]):
        raise AssertionError("embedding image is not primitive of full rank")
    return OmegaData(genus=g, omega=omega, embedding=E)


@dataclass(frozen=True)
class JohnsonTarget:
    """Target module for homology-trivial mapping classes: all of wedge^3 H
    for the boundary variant, its quotient by the omega-embedded copy of H
    for the closed variant."""

    genus: int
    variant: str
    space: Wedge3Space
    module: QuotientModule

    @property
    def free_rank(self) -> int:
        return self.module.free_rank

    @property
    def torsion(self) -> tuple[int, ...]:
        return self.module.torsion


def johnson_target(g: int, variant: str = "closed") -> JohnsonTarget:
    """The rank-C(2g,3) module wedge^3 H (variant 'boundary') or the quotient
    (wedge^3 H)/H of rank C(2g,3) - 2g (variant 'closed')."""
    if variant not in ("closed", "boundary"):
        raise ValueError(f"unknown variant {variant!r}")
    if g < 2:
        raise ValueError("targets require genus >= 2")
    n = 2 * g
    space = wedge3_space(n)
    if variant == "boundary":
        module = quotient_module(space.dim, IntMatrix(tuple(() for _ in range(space.dim)), 0))
    else:
        module = quotient_module(space.dim, omega_embedding(g).embedding)
        if module.torsion:
            raise AssertionError("closed target unexpectedly has torsion")
        if module.free_rank != space.dim - n:
            raise AssertionError("closed target has unexpected rank")
    return JohnsonTarget(genus=g, variant=variant, space=space, module=module)


@dataclass(frozen=True)
class RelativeTarget:
    """The module wedge^3(H/W) / H^W for a primitive sublattice W < H.

    H^W is the image of h |-> hbar ^ omegabar, where omegabar is the image of
    omega in wedge^2(H/W); the boundary variant sets H^W = 0.  W must be
    primitive so that H/W is free and wedge^3 models its degree-3 homology.
    """

    genus: int
    variant: str
    w_basis: IntMatrix
    h_quotient: QuotientModule     # H/W with free coordinates
    space: Wedge3Space             # wedge^3 of H/W
    omega_bar: IntVector           # image of omega, pair coordinates on H/W
    hw_relations: IntMatrix        # generators of H^W inside wedge^3(H/W)
    module: QuotientModule

    @property
    def free_rank(self) -> int:
        return self.module.free_rank

    @property
    def torsion(self) -> tuple[int, ...]:
        return self.module.torsion


def relative_target(g: int, w_basis: IntMatrix, variant: str = "closed") -> RelativeTarget:
    """Build the target relative to the primitive sublattice spanned by the
    columns of w_basis (an empty matrix reproduces the absolute target)."""
    if variant not in ("closed", "boundary"):
        raise ValueError(f"unknown variant {variant!r}")
    n = 2 * g
    if w_basis.rows != n:
        raise ValueError(f"W basis must have {n} rows")
    w = w_basis.cols
    if w > 0:
        diag = smith_normal_form(w_basis).diagonal()
        nonzero = [d for d in diag if d != 0]
        if len(nonzero) != w or any(d != 1 for d in nonzero):
            raise ValueError("W is not a primitive sublattice (H/W would have torsion)")
    m = n - w
    if m < 3:
        raise ValueError("quotient rank below 3 leaves no wedge^3 target")
    hq = quotient_module(n, w_basis)
    assert hq.free_rank == m and not hq.torsion
    space = wedge3_space(m)
    ctx = SymplecticContext(g)
    omega_bar = IntVector.zero(len(_pairs(m)))
    for i in range(g):
        ai = hq.free_coords(ctx.basis_vector(f"a{i + 1}"))
        bi = hq.free_coords(ctx.basis_vector(f"b{i + 1}"))
        omega_bar = omega_bar + wedge2_of_vectors(ai, bi)
    if variant == "boundary":
        hw = IntMatrix(tuple(() for _ in range(space.dim)), 0)
    else:
        cols = [wedge_vector_with_2form(hq.free_coords(IntVector.basis(n, j)), omega_bar).entries
                for j in range(n)]
        hw = IntMatrix.from_columns(cols, space.dim)
    module = quotient_module(space.dim, hw)
    return RelativeTarget(
        genus=g,
        variant=variant,
        w_basis=w_basis,
        h_quotient=hq,
        space=space,
        omega_bar=omega_bar,
        hw_relations=hw,
        module=module,
    )


# ---------------------------------------------------------------------------
# induced actions
# ---------------------------------------------------------------------------

def _check_relations_preserved(module: QuotientModule, W3: IntMatrix, what: str):
    for j in range(module.relations.cols):
        if not module.contains(W3.apply(module.relations.column(j))):
            raise ValueError(f"action does not preserve {what}")


def induced_action(target: JohnsonTarget | RelativeTarget, M: SpElement) -> IntMatrix:
    """Matrix of the induced action on the target's free coordinates.

    For relative targets M must preserve W; in all cases the relation lattice
    must be carried into itself, which is verified exactly rather than
    assumed.  The result is functorial in M.
    """
    if M.context.genus != target.genus:
        raise ValueError("genus mismatch")
    if isinstance(target, JohnsonTarget):
        W3 = wedge3_map(M.matrix)
        _check_relations_preserved(target.module, W3, "the embedded copy of H")
        return mat_mul(target.module.projection, mat_mul(W3, target.module.section))

    hq = target.h_quotient
    for j in range(target.w_basis.cols):
        if not hq.contains(M.matrix.apply(target.w_basis.column(j))):
            raise ValueError("action does not preserve W")
    Mq = mat_mul(hq.projection, mat_mul(M.matrix, hq.section))
    W3q = wedge3_map(Mq)
    _check_relations_preserved(target.module, W3q, "the relation lattice H^W")
    return mat_mul(target.module.projection, mat_mul(W3q, target.module.section))


def relative_natural_map(src: RelativeTarget, dst: RelativeTarget) -> IntMatrix:
    """The map on free coordinates induced by H/W1 -> H/W2 when W1 < W2.

    Raises unless every basis vector of src's W lies in dst's W.
    """
    if src.genus != dst.genus:
        raise ValueError("genus mismatch")
    for j in range(src.w_basis.cols):
        if not dst.h_quotient.contains(src.w_basis.column(j)):
            raise ValueError("source W is not contained in destination W")
    N = mat_mul(dst.h_quotient.projection, src.h_quotient.section)
    W3 = wedge3_map(N)
    return mat_mul(dst.module.projection, mat_mul(W3, src.module.section))


def target_to_json(target: JohnsonTarget | RelativeTarget) -> dict:
    """Serialized shape: symbolic basis triples, relation matrix, rank data."""
    if isinstance(target, JohnsonTarget):
        names = SymplecticContext(target.genus).basis_labels()
    else:
        hq = target.h_quotient
        ambient = SymplecticContext(target.genus).basis_labels()
        names = []
        for i in range(hq.free_rank):
            # describe each quotient coordinate by its expression in ambient symbols
            terms = []
            for j, c in enumerate(hq.projection.entries[i]):
                if c == 0:
                    continue
                mag = "" if abs(c) == 1 else str(abs(c))
                terms.append(("-" if c < 0 else "+") + mag + ambient[j])
            names.append("".join(terms).lstrip("+") or "0")
    return {
        "variant": target.variant,
        "genus": target.genus,
        "free_rank": target.free_rank,
        "torsion": list(target.torsion),
        "basis": [list(t) for t in target.space.labels(names)],
        "relations": matrix_to_json(target.module.relations),
    }
