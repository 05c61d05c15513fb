"""The symplectic group Sp(2g,Z) over the standard basis (a_1..a_g, b_1..b_g).

The intersection form is J = [[0, I], [-I, 0]] so that <a_i, b_i> = +1, and a
Dehn twist about a curve with homology class v acts as the transvection
x |-> x + <x, v> v.  An element of Sp(2g,Z) is a plain 2g x 2g IntMatrix: a
transvection, and a product of twist powers (mapclass.evaluate), is
symplectic by construction, and is_symplectic checks M^T J M = J for any
other matrix.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .exact import IntMatrix, IntVector, mat_mul


@dataclass(frozen=True)
class SymplecticContext:
    """Genus plus the fixed basis convention (a_1..a_g, b_1..b_g)."""

    genus: int

    def __post_init__(self):
        if self.genus < 1:
            raise ValueError("genus must be >= 1")

    @property
    def dim(self) -> int:
        return 2 * self.genus

    @property
    def form(self) -> IntMatrix:
        return _form_matrix(self.genus)

    def pairing(self, x: IntVector, y: IntVector) -> int:
        """<x, y> = x^T J y."""
        if x.dim != self.dim or y.dim != self.dim:
            raise ValueError("vectors do not match the genus")
        g = self.genus
        return sum(x.entries[i] * y.entries[g + i] - x.entries[g + i] * y.entries[i] for i in range(g))

    def basis_vector(self, name: str) -> IntVector:
        """Vector for a label like 'a1' or 'b3' (1-indexed)."""
        kind, idx = name[0], int(name[1:])
        if kind not in ("a", "b") or not (1 <= idx <= self.genus):
            raise ValueError(f"unknown basis label {name!r} at genus {self.genus}")
        offset = idx - 1 if kind == "a" else self.genus + idx - 1
        return IntVector.basis(self.dim, offset)

    def basis_labels(self) -> list[str]:
        g = self.genus
        return [f"a{i}" for i in range(1, g + 1)] + [f"b{i}" for i in range(1, g + 1)]


@lru_cache(maxsize=None)
def _form_matrix(g: int) -> IntMatrix:
    n = 2 * g
    rows = []
    for i in range(n):
        row = [0] * n
        if i < g:
            row[g + i] = 1
        else:
            row[i - g] = -1
        rows.append(tuple(row))
    return IntMatrix(tuple(rows), n)


def is_symplectic(ctx: SymplecticContext, M: IntMatrix) -> bool:
    """True iff M^T J M = J exactly."""
    if M.shape != (ctx.dim, ctx.dim):
        return False
    J = ctx.form
    return mat_mul(mat_mul(M.transpose(), J), M).entries == J.entries


def transvection(ctx: SymplecticContext, v: IntVector) -> IntMatrix:
    """The map x |-> x + <x, v> v as a matrix; symplectic for every v."""
    if v.dim != ctx.dim:
        raise ValueError(f"vector dimension {v.dim} does not match 2g = {ctx.dim}")
    n = ctx.dim
    g = ctx.genus
    # column j of the correction is <e_j, v> * v
    coeffs = [v.entries[g + j] for j in range(g)] + [-v.entries[j] for j in range(g)]
    rows = []
    for i in range(n):
        row = [0] * n
        row[i] = 1
        vi = v.entries[i]
        if vi:
            for j in range(n):
                row[j] += coeffs[j] * vi
        rows.append(tuple(row))
    return IntMatrix(tuple(rows), n)
