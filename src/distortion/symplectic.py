"""The symplectic group Sp(2g,Z) over the standard basis (a_1..a_g, b_1..b_g).

The intersection form is J = [[0, I], [-I, 0]] so that <a_i, b_i> = +1, and a
Dehn twist about a curve with homology class v acts as the transvection
x |-> x + <x, v> v.  An element of Sp(2g,Z) is a plain 2g x 2g IntMatrix.
twist_product is the one code that applies a twist: a transvection, and a
product of twist powers (mapclass.evaluate), is symplectic by construction,
and is_symplectic checks that any other matrix keeps every pairing.
"""

from __future__ import annotations

from dataclasses import dataclass

from .exact import IntMatrix, IntVector


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


def twist_product(ctx: SymplecticContext, letters) -> IntMatrix:
    """The product T_{v_1}^{e_1} T_{v_2}^{e_2} ... over the (v, e) pairs of
    letters, left to right, built by rank-one column updates without a matrix
    product.

    With c_j = <e_j, v>, the twist about v is T_v = I + v c^T.  Since
    c^T v = <v, v> = 0, (v c^T)^2 = 0 and T_v^e = I + e v c^T for every
    integer e.  So acc T_v^e = acc + e (acc v) c^T: column j of acc gains
    e c_j (acc v), for each j with c_j != 0, where acc v combines the
    columns of acc over the support of v.  A letter costs O(2g |supp v|)
    products of entries; v = 0 (a separating curve) has empty support and
    changes nothing."""
    n, g = ctx.dim, ctx.genus
    cols = [[int(i == j) for i in range(n)] for j in range(n)]
    for v, exp in letters:
        if v.dim != n:
            raise ValueError(f"vector dimension {v.dim} does not match 2g = {n}")
        support = [(i, x) for i, x in enumerate(v.entries) if x]
        acc_v = [0] * n
        for i, x in support:
            acc_v = [s + x * a for s, a in zip(acc_v, cols[i])]
        for i, x in support:
            # v_i != 0 gives c_j != 0 at j = i + g mod 2g: c_j = v_i for
            # i >= g, and -v_i for i < g
            j = (i + g) % n
            f = exp * x if i >= g else -exp * x
            cols[j] = [a + f * s for a, s in zip(cols[j], acc_v)]
    return IntMatrix(tuple(zip(*cols)), n)


def is_symplectic(ctx: SymplecticContext, M: IntMatrix) -> bool:
    """True iff M^T J M = J exactly: <M e_i, M e_j> = <e_i, e_j> for i < j,
    which gives the other pairs, since both sides are alternating."""
    if M.shape != (ctx.dim, ctx.dim):
        return False
    n = ctx.dim
    cols, basis = M.columns(), [IntVector.basis(n, i) for i in range(n)]
    return all(ctx.pairing(cols[i], cols[j]) == ctx.pairing(basis[i], basis[j])
               for i in range(n) for j in range(i + 1, n))


def transvection(ctx: SymplecticContext, v: IntVector) -> IntMatrix:
    """The map x |-> x + <x, v> v as a matrix; symplectic for every v."""
    return twist_product(ctx, [(v, 1)])
