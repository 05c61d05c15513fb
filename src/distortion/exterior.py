"""Third exterior powers of lattices and Johnson-style target modules.

The basis of wedge^3 Z^n is the set of triples (i, j, k) with i < j < k in
lexicographic order; e_i ^ e_j ^ e_k for an increasing triple is a positive
basis vector, and induced maps pick up 3x3 minors, all of a map's (or of a
batch of vectors') at once in one numpy kernel, in int64 under the bound
proved in wedge3_map.  On H = Z^{2g} the form
class omega = a_1^b_1 + ... + a_g^b_g embeds H into wedge^3 H by
h |-> h ^ omega; the quotient by that image is the target module used for
word-length lower bounds on the kernel of the homology action.  It is one
case of a single construction: relative to a primitive sublattice W, the
targets are wedge^3(H/W) / H^W, and W = 0 gives (wedge^3 H)/H.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .exact import (
    IntMatrix,
    QuotientModule,
    ResourceLimitError,
    mat_mul,
    matrix_to_json,
    quotient_module,
)
from .symplectic import SymplecticContext


@lru_cache(maxsize=None)
def wedge3_space(n: int) -> tuple[tuple[int, int, int], ...]:
    """The basis of wedge^3 Z^n: its increasing triples, in lexicographic order."""
    return tuple(itertools.combinations(range(n), 3))


@lru_cache(maxsize=None)
def _triple_index(n: int) -> np.ndarray:
    """wedge3_space(n) as a (3, C(n,3)) index array."""
    return np.array(wedge3_space(n), dtype=np.intp).reshape(-1, 3).T


def _minors3(X: np.ndarray, Y: np.ndarray, Z: np.ndarray) -> np.ndarray:
    """The (C(n,3), N) array whose column t is x_t ^ y_t ^ z_t, for the
    columns of the (n, N) arrays X, Y and Z: row (i, j, k) holds the 3x3
    minor on those rows, expanded along x by the 2x2 cofactors of y and z."""
    i, j, k = _triple_index(len(X))
    P = Y[:, None] * Z[None] - Z[:, None] * Y[None]      # P[a, b] = y_a z_b - y_b z_a
    out = X[i] * P[j, k]
    out -= X[j] * P[i, k]
    out += X[k] * P[i, j]
    return out


def _array(rows, a: int) -> np.ndarray:
    """rows as int64 when a = max|entry| has 6 a^3 < 2^63 (_minors3 cannot
    overflow), else as Python ints (object dtype)."""
    return np.array(rows, dtype=np.int64 if 6 * a ** 3 < 1 << 63 else object)


def wedge3_map(M: IntMatrix) -> IntMatrix:
    """Induced map on wedge^3: entries are the 3x3 minors of M.  Accepts any
    r x c map with r, c >= 3 (rectangular ones arise as quotient projections)
    and is functorial: wedge3_map(A*B) = wedge3_map(A)*wedge3_map(B).

    Column (p, q, r) is M_p ^ M_q ^ M_r for the columns M_p of M, one
    _minors3 call for all of them.  With a = max|M|, each 2x2 cofactor has
    size at most 2 a^2 and each minor, a sum of three entries times
    cofactors, at most 6 a^3: the kernel runs in int64 when 6 a^3 < 2^63,
    and on Python ints otherwise.
    """
    if M.rows < 3 or M.cols < 3:
        raise ValueError("wedge^3 needs dimensions >= 3")
    p, q, r = _triple_index(M.cols)
    A = _array(M.entries, M.max_abs())
    return IntMatrix(tuple(map(tuple, _minors3(A[:, p], A[:, q], A[:, r]).tolist())), len(p))


def wedge3_columns(X: IntMatrix, Y: IntMatrix, Z: IntMatrix) -> IntMatrix:
    """The matrix whose column t is x_t ^ y_t ^ z_t, for the columns of the
    n x N matrices X, Y and Z (one _minors3 call, bounded as in wedge3_map)."""
    if not (X.shape == Y.shape == Z.shape):
        raise ValueError("dimension mismatch")
    a = max(X.max_abs(), Y.max_abs(), Z.max_abs())
    W = _minors3(_array(X.entries, a), _array(Y.entries, a), _array(Z.entries, a))
    return IntMatrix(tuple(map(tuple, W.tolist())), X.cols)


# ---------------------------------------------------------------------------
# target modules
# ---------------------------------------------------------------------------

# most entries relative_target lets each dense C(m,3) x C(m,3) transform of
# its wedge^3 quotient take, m the rank of H/W: C(24,3)^2 = 4,096,576 admits
# the closed and boundary targets up to genus 12 (about 170 MB)
TARGET_MAX_ENTRIES = 1 << 22


@dataclass(frozen=True)
class RelativeTarget:
    """The module wedge^3(H/W) / H^W for a primitive sublattice W < H.

    H^W is the image of h |-> hbar ^ omegabar, where omegabar is the image of
    omega in wedge^2(H/W); the boundary variant sets H^W = 0.  W must be
    primitive so that H/W is free and wedge^3 models its degree-3 homology.
    W = 0 gives the absolute targets wedge^3 H and (wedge^3 H)/H.
    """

    genus: int
    variant: str
    w_basis: IntMatrix
    h_quotient: QuotientModule     # H/W with free coordinates
    space: tuple                   # basis triples of wedge^3 of H/W
    module: QuotientModule         # relations: generators of H^W

    @property
    def free_rank(self) -> int:
        return self.module.free_rank

    @property
    def torsion(self) -> tuple[int, ...]:
        return self.module.torsion


def johnson_target(g: int, variant: str = "closed") -> RelativeTarget:
    """The target for homology-trivial mapping classes, W = 0: the rank-C(2g,3)
    module wedge^3 H (variant 'boundary') or the quotient (wedge^3 H)/H of rank
    C(2g,3) - 2g (variant 'closed')."""
    if g < 2:
        raise ValueError("targets require genus >= 2")
    return relative_target(g, IntMatrix.zero(2 * g, 0), variant)


def relative_target(g: int, w_basis: IntMatrix, variant: str = "closed") -> RelativeTarget:
    """Build the target relative to the primitive sublattice spanned by the
    columns of w_basis (an empty matrix gives the absolute target).

    ResourceLimitError, before H/W is built, if the Smith transforms of
    wedge^3(H/W) / H^W, dense lists of C(m,3)^2 entries, would pass
    TARGET_MAX_ENTRIES for m = 2g - (columns of w_basis): a primitive W has
    exactly that rank m of H/W, and any other W a larger one."""
    if variant not in ("closed", "boundary"):
        raise ValueError(f"unknown variant {variant!r}")
    n = 2 * g
    if w_basis.rows != n or w_basis.cols > n:
        raise ValueError(f"W basis must have {n} rows and at most {n} columns")
    m = n - w_basis.cols
    if (size := math.comb(m, 3) ** 2) > TARGET_MAX_ENTRIES:
        raise ResourceLimitError(f"the target's transforms would hold C({m},3)^2 = {size} entries "
                                 f"each, over the cap {TARGET_MAX_ENTRIES}")
    hq = quotient_module(n, w_basis)
    if hq.free_rank != m or hq.torsion:
        raise ValueError("W is not a primitive sublattice (H/W would have torsion)")
    if m < 3:
        raise ValueError("quotient rank below 3 leaves no wedge^3 target")
    space = wedge3_space(hq.free_rank)
    if variant == "boundary":
        hw = IntMatrix.zero(len(space), 0)
    else:
        # the column of basis vector h is hbar ^ omegabar = sum_i hbar ^ abar_i ^ bbar_i,
        # over the handles i where neither abar_i nor bbar_i is 0 (the others' terms vanish)
        labels = SymplecticContext(g).basis_labels()
        bar = dict(zip(labels, (c.entries for c in hq.projection.columns())))
        handles = [i for i in range(1, g + 1) if any(bar[f"a{i}"]) and any(bar[f"b{i}"])]
        triples = [(bar[h], bar[f"a{i}"], bar[f"b{i}"]) for h in labels for i in handles]
        hw, k = IntMatrix.zero(len(space), len(labels)), len(handles)
        if triples:
            # columns of Python ints from hq's projection: the unchecked constructor
            X, Y, Z = (IntMatrix(tuple(zip(*vs)), len(vs)) for vs in zip(*triples))
            terms = wedge3_columns(X, Y, Z).entries
            hw = IntMatrix(tuple(tuple(sum(row[t:t + k]) for t in range(0, len(row), k)) for row in terms), hw.cols)
    return RelativeTarget(
        genus=g,
        variant=variant,
        w_basis=w_basis,
        h_quotient=hq,
        space=space,
        module=quotient_module(len(space), hw),
    )


# ---------------------------------------------------------------------------
# induced actions
# ---------------------------------------------------------------------------

def induced_action(target: RelativeTarget, M: IntMatrix) -> IntMatrix:
    """Matrix of the induced action on the target's free coordinates.

    Raises unless M carries W into W.  Then MW = W (M is unimodular and W
    primitive), so M induces Mbar on H/W.  M fixes omega, so wedge^2 Mbar
    fixes omegabar, and Mbar(hbar ^ omegabar) = (Mh)bar ^ omegabar lies in
    H^W: wedge^3 Mbar carries the relations into themselves and acts on the
    quotient.  The result is functorial in M.
    """
    if M.shape != (2 * target.genus, 2 * target.genus):
        raise ValueError("genus mismatch")
    for w in target.w_basis.columns():
        if not target.h_quotient.contains(M.apply(w)):
            raise ValueError("action does not preserve W")
    q = target.h_quotient
    N = mat_mul(q.projection, mat_mul(M, q.section))
    return mat_mul(target.module.projection, mat_mul(wedge3_map(N), target.module.section))


def target_to_json(target: RelativeTarget) -> dict:
    """Serialized shape: symbolic basis triples, relation matrix, rank data.
    Each coordinate of H/W is named by its expression in the ambient symbols."""
    ambient = SymplecticContext(target.genus).basis_labels()
    names = []
    for row in target.h_quotient.projection.entries:
        terms = []
        for j, c in enumerate(row):
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
        "basis": [[names[i], names[j], names[k]] for (i, j, k) in target.space],
        "relations": matrix_to_json(target.module.relations),
    }
