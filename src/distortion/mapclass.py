"""Mapping classes at the homology level: Dehn-twist words and the
generalized word problem for homologically specified subgroups.

A curve is represented purely by its homology class (the zero vector for
separating curves), which is exactly the fidelity the homology-action
algorithms need: two homologous curves are indistinguishable here, and a
twist about a class v acts as the transvection along v.
"""

from __future__ import annotations

from dataclasses import dataclass

from .exact import IntMatrix, IntVector, QuotientModule, quotient_module, vector_from_json, vector_to_json
from .symplectic import SpElement, SymplecticContext, in_congruence_subgroup, transvection


@dataclass(frozen=True)
class CurveClass:
    """A labelled homology class in Z^{2g}; nonzero classes must be primitive
    (a simple closed curve never represents a divisible class)."""

    label: str
    homology: IntVector
    genus: int

    def __post_init__(self):
        if self.homology.dim != 2 * self.genus:
            raise ValueError("class dimension does not match the genus")
        if not self.homology.is_zero() and not self.homology.is_primitive():
            raise ValueError(f"curve class {self.label!r} is not primitive")


@dataclass(frozen=True)
class MappingClassWord:
    """An ordered product of signed twist powers; the leftmost letter acts
    first and matrices multiply in the same left-to-right order."""

    genus: int
    letters: tuple[tuple[CurveClass, int], ...]

    def __post_init__(self):
        for curve, exp in self.letters:
            if curve.genus != self.genus:
                raise ValueError("curve genus does not match the word")
            if exp == 0:
                raise ValueError("zero exponents are not allowed in words")

    @staticmethod
    def from_letters(genus: int, letters) -> "MappingClassWord":
        return MappingClassWord(genus, tuple((c, int(e)) for c, e in letters))

    def __mul__(self, other: "MappingClassWord") -> "MappingClassWord":
        if self.genus != other.genus:
            raise ValueError("mixed genus")
        return MappingClassWord(self.genus, self.letters + other.letters)

    def inverse(self) -> "MappingClassWord":
        return MappingClassWord(self.genus, tuple((c, -e) for c, e in reversed(self.letters)))

    def length(self) -> int:
        return sum(abs(e) for _, e in self.letters)


def evaluate(word: MappingClassWord) -> SpElement:
    """The induced map on H_1 as a product of transvection powers."""
    ctx = SymplecticContext(word.genus)
    acc = SpElement.identity(ctx)
    for curve, exp in word.letters:
        acc = acc * (transvection(ctx, curve.homology) ** exp)
    return acc


def torelli_membership(word: MappingClassWord) -> bool:
    """Does the word act trivially on H_1?  (This decides exactly the image
    of the word in Sp(2g,Z).)"""
    return evaluate(word).is_identity()


def level_membership(word: MappingClassWord, m: int) -> bool:
    """Membership in the level-m subgroup: the induced map is the identity
    mod m."""
    if m < 2:
        raise ValueError("level must be >= 2")
    return in_congruence_subgroup(evaluate(word), m)


def _w_lattice(w_basis: IntMatrix) -> QuotientModule:
    """H/W for W spanned by the columns of w_basis, which must be linearly
    independent."""
    q = quotient_module(w_basis.rows, w_basis)
    if q.ambient_dim - q.free_rank < w_basis.cols:
        raise ValueError("W basis columns are linearly dependent")
    return q


def preserves_lattice(M: IntMatrix, w_basis: IntMatrix) -> bool:
    """Exact test that M maps the column span of w_basis into itself, by
    Smith-form membership of every M w_j in W."""
    q = _w_lattice(w_basis)
    return all(q.contains(M.apply(w)) for w in w_basis.columns())


def modW_membership(word: MappingClassWord, w_basis: IntMatrix) -> bool:
    """Does the induced map preserve the subgroup W (as a lattice)?"""
    return preserves_lattice(evaluate(word).matrix, w_basis)


def TW_membership(word: MappingClassWord, w_basis: IntMatrix) -> bool:
    """Does the induced map preserve W and act as the identity on H/W?

    The quotient may have torsion (W need not be primitive: W = mH gives the
    level-m subgroup), so triviality on H/W is decided as membership of
    (M - I)e_j in W for every basis vector, via Smith-form divisibility.
    That condition already gives M w = w + (M - I) w in W, so W is preserved.
    """
    M = evaluate(word).matrix
    q = _w_lattice(w_basis)
    diff = M - IntMatrix.identity(M.rows)
    return all(q.contains(c) for c in diff.columns())


# ---------------------------------------------------------------------------
# curve tables
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CurveTable:
    """A named family of curve classes with its declared pairing pattern.

    `pairings` lists (i, j, value) index triples for every nonzero declared
    intersection with i < j; all other pairs are declared zero.  verify()
    recomputes every pairing from the classes and compares."""

    name: str
    genus: int
    curves: tuple[CurveClass, ...]
    pairings: tuple[tuple[int, int, int], ...]
    provenance: str

    def labels(self) -> list[str]:
        return [c.label for c in self.curves]

    def curve(self, label: str) -> CurveClass:
        for c in self.curves:
            if c.label == label:
                return c
        raise KeyError(f"no curve labelled {label!r} in table {self.name!r}")

    def declared_pairing(self, i: int, j: int) -> int:
        if i == j:
            return 0
        a, b = min(i, j), max(i, j)
        for (p, q, v) in self.pairings:
            if (p, q) == (a, b):
                return v if (i, j) == (a, b) else -v
        return 0

    def verify(self) -> bool:
        ctx = SymplecticContext(self.genus)
        for i in range(len(self.curves)):
            for j in range(len(self.curves)):
                actual = ctx.pairing(self.curves[i].homology, self.curves[j].homology)
                if actual != self.declared_pairing(i, j):
                    return False
        return True


def standard_curves(g: int) -> CurveTable:
    """The 2g basis curve classes a_1..a_g, b_1..b_g with <a_i, b_i> = 1."""
    ctx = SymplecticContext(g)
    curves = tuple(
        CurveClass(label, ctx.basis_vector(label), g) for label in ctx.basis_labels()
    )
    pairings = tuple((i, g + i, 1) for i in range(g))
    return CurveTable(
        name="standard",
        genus=g,
        curves=curves,
        pairings=pairings,
        provenance="symplectic basis classes; a_i pairs b_i once, all else disjoint",
    )


def humphries_table(g: int) -> CurveTable:
    """A Humphries-style generating family of 2g+1 twist classes.

    Classes c1..c_{2g} form a chain (consecutive pairings alternate +1/-1,
    all other chain pairs are 0): a_1, b_1, a_1+a_2, b_2, a_2+a_3, ..., b_g.
    The extra class c0 = a_2 meets only the fourth chain curve, once.  That
    pendant class is what makes the family generate the full symplectic
    group mod 2; a bare chain of 2g+1 classes provably cannot, because its
    forced odd-index dependency always leaves an invariant quadratic form.
    """
    if g < 2:
        raise ValueError("the table needs genus >= 2")
    ctx = SymplecticContext(g)

    def a(i):
        return ctx.basis_vector(f"a{i}")

    def b(i):
        return ctx.basis_vector(f"b{i}")

    chain = [a(1)]
    for i in range(1, g + 1):
        chain.append(b(i))
        if i < g:
            chain.append(a(i) + a(i + 1))
    classes = [IntVector(a(2).entries)] + chain          # index 0 is c0
    labels = ["c0"] + [f"c{i}" for i in range(1, 2 * g + 1)]
    curves = tuple(CurveClass(lab, v, g) for lab, v in zip(labels, classes))
    pairings = [(0, 4, 1)]                               # <c0, c4> = <a_2, b_2> = 1
    for i in range(1, 2 * g):
        pairings.append((i, i + 1, 1 if i % 2 == 1 else -1))
    table = CurveTable(
        name="humphries",
        genus=g,
        curves=curves,
        pairings=tuple(pairings),
        provenance=(
            "chain of 2g twist classes plus one pendant class meeting only the "
            "fourth chain curve; validated structurally (pairing pattern and "
            "full symplectic generation mod 2), not against a cited source"
        ),
    )
    assert table.verify()
    return table


# ---------------------------------------------------------------------------
# wire formats
# ---------------------------------------------------------------------------

def curve_table_to_json(table: CurveTable) -> dict:
    return {
        "genus": table.genus,
        "curves": [{"label": c.label, "class": vector_to_json(c.homology)} for c in table.curves],
        "pairings": [[i, j, v] for (i, j, v) in table.pairings],
        "name": table.name,
        "provenance": table.provenance,
    }


def curve_table_from_json(obj) -> CurveTable:
    g = int(obj["genus"])
    curves = tuple(
        CurveClass(c["label"], vector_from_json(c["class"]), g) for c in obj["curves"]
    )
    return CurveTable(
        name=obj.get("name", "user"),
        genus=g,
        curves=curves,
        pairings=tuple((int(i), int(j), int(v)) for i, j, v in obj.get("pairings", [])),
        provenance=obj.get("provenance", ""),
    )


def word_to_json(word: MappingClassWord) -> dict:
    return {
        "genus": word.genus,
        "letters": [
            {"label": c.label, "class": vector_to_json(c.homology), "exp": e}
            for c, e in word.letters
        ],
    }


def word_from_json(obj) -> MappingClassWord:
    raw = obj.get("letters") if isinstance(obj, dict) else None
    if not isinstance(raw, list) or not all(isinstance(l, dict) and "class" in l and "exp" in l for l in raw):
        raise ValueError('a word is {"genus": g, "letters": [{"class": [...], "exp": e}, ...]}')
    g = int(obj["genus"])
    letters = tuple(
        (CurveClass(l.get("label", f"x{i}"), vector_from_json(l["class"]), g), int(l["exp"]))
        for i, l in enumerate(raw)
    )
    return MappingClassWord(g, letters)
