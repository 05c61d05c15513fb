"""The symplectic group Sp(2g,Z) over the standard basis (a_1..a_g, b_1..b_g).

The intersection form is J = [[0, I], [-I, 0]] so that <a_i, b_i> = +1, and a
Dehn twist about a curve with homology class v acts as the transvection
x |-> x + <x, v> v.  The check M^T J M = J runs once, where a matrix enters
from outside: constructing an SpElement directly (as sp_element_from_json
does).  Products, powers, inverses, transvections and corner embeddings of
symplectic matrices are symplectic, so those closed operations build their
results unchecked; the check would otherwise cost more than the product.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .exact import IntMatrix, IntVector, mat_mul, mat_pow, matrix_from_json, matrix_to_json


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


@dataclass(frozen=True)
class SpElement:
    """A matrix in Sp(2g,Z); symplecticity is checked at construction."""

    context: SymplecticContext
    matrix: IntMatrix

    def __post_init__(self):
        if not is_symplectic(self.context, self.matrix):
            raise ValueError("matrix does not preserve the symplectic form")

    @classmethod
    def _closed(cls, ctx: SymplecticContext, M: IntMatrix) -> "SpElement":
        """Unchecked constructor for results of operations that cannot leave
        Sp(2g,Z)."""
        el = object.__new__(cls)
        object.__setattr__(el, "context", ctx)
        object.__setattr__(el, "matrix", M)
        return el

    @staticmethod
    def identity(ctx: SymplecticContext) -> "SpElement":
        return SpElement._closed(ctx, IntMatrix.identity(ctx.dim))

    def __mul__(self, other: "SpElement") -> "SpElement":
        if self.context != other.context:
            raise ValueError("mixed genus")
        return SpElement._closed(self.context, mat_mul(self.matrix, other.matrix))

    def inverse(self) -> "SpElement":
        # M^-1 = J^-1 M^T J = -J M^T J, exact and cheap
        J = self.context.form
        inv = mat_mul(mat_mul(J, self.matrix.transpose()), J).scale(-1)
        return SpElement._closed(self.context, inv)

    def __pow__(self, n: int) -> "SpElement":
        if n < 0:
            return self.inverse() ** (-n)
        return SpElement._closed(self.context, mat_pow(self.matrix, n))

    def is_identity(self) -> bool:
        return self.matrix.is_identity()


def transvection(ctx: SymplecticContext, v: IntVector) -> SpElement:
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
    return SpElement._closed(ctx, IntMatrix(tuple(rows), n))


def congruence_reduce(M: SpElement, L: int) -> IntMatrix:
    """Entrywise reduction mod L (representatives in [0, L))."""
    return M.matrix.mod(L)


def in_congruence_subgroup(M: SpElement, L: int) -> bool:
    """True iff M reduces to the identity mod L."""
    return congruence_reduce(M, L).entries == IntMatrix.identity(M.context.dim).mod(L).entries


def lagrangian_stabilizer_check(M: SpElement) -> bool:
    """True iff the lower-left g x g block vanishes, i.e. M preserves the
    Lagrangian spanned by a_1..a_g."""
    g = M.context.genus
    return all(M.matrix.entries[g + i][j] == 0 for i in range(g) for j in range(g))


def project_to_gl(M: SpElement) -> IntMatrix:
    """The lower-right g x g block (the action on the b-coordinates).

    Only defined on the Lagrangian stabilizer; there the block is invertible
    over Z, which we assert (the sign of its determinant is not forced by the
    block algebra, so only |det| = 1 is required)."""
    if not lagrangian_stabilizer_check(M):
        raise ValueError("element does not stabilize the Lagrangian <a_1..a_g>")
    g = M.context.genus
    block = IntMatrix(tuple(tuple(M.matrix.entries[g + i][g + j] for j in range(g)) for i in range(g)), g)
    if block.det() not in (1, -1):
        raise AssertionError("stabilizer block was not unimodular")
    return block


def embed_corner(M_h: SpElement, g: int) -> SpElement:
    """Embed Sp(2h,Z) into Sp(2g,Z) acting on the first h handles.

    The image acts as M_h on <a_1..a_h, b_1..b_h> and as the identity on the
    remaining handles.  With the (a..., b...) basis ordering the embedded
    entries land at indices i < h and g <= i < g + h.
    """
    h = M_h.context.genus
    if h > g:
        raise ValueError(f"cannot embed genus {h} into smaller genus {g}")
    if h == g:
        return M_h
    n = 2 * g

    def amb(i: int) -> int:
        return i if i < h else g + (i - h)

    rows = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    for i in range(2 * h):
        for j in range(2 * h):
            rows[amb(i)][amb(j)] = M_h.matrix.entries[i][j]
    return SpElement._closed(SymplecticContext(g), IntMatrix(tuple(tuple(r) for r in rows), n))


def sp_element_to_json(M: SpElement) -> dict:
    return {"genus": M.context.genus, "matrix": matrix_to_json(M.matrix)}


def sp_element_from_json(obj) -> SpElement:
    return SpElement(SymplecticContext(int(obj["genus"])), matrix_from_json(obj["matrix"]))
