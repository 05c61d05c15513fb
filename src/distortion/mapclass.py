"""Mapping classes at the homology level: Dehn-twist words and the
generalized word problem for homologically specified subgroups.

A curve is represented purely by its homology class, an IntVector in Z^{2g}
(the zero vector for separating curves), which is exactly the fidelity the
homology-action algorithms need: two homologous curves are indistinguishable
here, and a twist about a class v acts as the transvection along v.  So a
twist letter is a pair (v, e), as symplectic.twist_product takes it, and the
curve families are {label: class} maps.  A class from outside is checked
where it enters (word_from_json, EquivariantDatum): of dimension 2g, and
zero or primitive.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .exact import (MAX_VALUE_BITS, IntMatrix, IntVector, QuotientModule, ResourceLimitError, int_from_json,
                    quotient_module, vector_from_json)
from .symplectic import SymplecticContext, twist_product

# word exponents e are read with |e| below this, by both word readers.  The
# words of both (a membership word, and a witness --x word flattened into
# twist letters) go through evaluate, where a power costs one multiply by e
# per updated entry, under one bound on the bits of every entry formed
WORD_EXPONENT_LIMIT = 1 << 63


@dataclass(frozen=True)
class MappingClassWord:
    """An ordered product of signed twist powers, as (v, e) letters: the
    twist about a curve of homology class v in Z^{2g}, to the power e.  The
    leftmost letter acts first and matrices multiply in the same
    left-to-right order."""

    genus: int
    letters: tuple[tuple[IntVector, int], ...]

    def __post_init__(self):
        for v, exp in self.letters:
            if v.dim != 2 * self.genus:
                raise ValueError("class dimension does not match the word")
            if exp == 0:
                raise ValueError("zero exponents are not allowed in words")

    @staticmethod
    def from_letters(genus: int, letters) -> "MappingClassWord":
        return MappingClassWord(genus, tuple((v, int(e)) for v, e in letters))


def evaluate(word: MappingClassWord) -> IntMatrix:
    """The induced map on H_1: the product of the letters' transvection
    powers, by symplectic.twist_product.

    ResourceLimitError, before the first letter, if S = the sum over the
    letters of log2(1 + |e| |v|_inf |v|_1) passes MAX_VALUE_BITS.  No entry
    formed exceeds 2^S: with T_v^e = I + e v c^T, c_j = <e_j, v>, in the
    max-row-sum operator norm ||T_v^e|| <= 1 + |e| |v|_inf |c|_1,
    |c|_1 = |v|_1, so 2^(the letters' part of S) bounds the product acc so
    far; within a letter a partial sum of acc v is at most ||acc|| |v|_inf,
    an updated entry or its increment at most ||acc|| (1 + |e| |v|_inf^2),
    both within ||acc|| times the letter's term."""
    spread, bits = {}, 0.0      # |v|_inf |v|_1 by class, and S
    for v, exp in word.letters:
        if (t := spread.get(x := v.entries)) is None:
            t = spread[x] = max(map(abs, x)) * sum(map(abs, x))
        bits += math.log2(1 + abs(exp) * t)
    if bits > MAX_VALUE_BITS:
        raise ResourceLimitError(f"a word's entries may reach {bits:.0f} bits, over the cap {MAX_VALUE_BITS}")
    return twist_product(SymplecticContext(word.genus), word.letters)


def torelli_membership(M: IntMatrix) -> bool:
    """Does the induced map M = evaluate(word) act trivially on H_1?  (This
    decides exactly the image of the word in Sp(2g,Z).)"""
    return M.is_identity()


def level_membership(M: IntMatrix, m: int) -> bool:
    """Membership in the level-m subgroup: the induced map M is the identity
    mod m."""
    if m < 2:
        raise ValueError("level must be >= 2")
    return M.mod(m).entries == IntMatrix.identity(M.rows).mod(m).entries


def _w_lattice(w_basis: IntMatrix, n: int) -> QuotientModule:
    """H/W for W spanned by the columns of w_basis, which must be linearly
    independent vectors of length n."""
    if w_basis.rows != n or w_basis.cols > n:
        raise ValueError(f"W basis must have {n} rows and at most {n} columns")
    q = quotient_module(n, w_basis)
    if q.ambient_dim - q.free_rank < w_basis.cols:
        raise ValueError("W basis columns are linearly dependent")
    return q


def preserves_lattice(M: IntMatrix, w_basis: IntMatrix) -> bool:
    """Exact test that M maps the column span of w_basis into itself, by
    Smith-form membership of every M w_j in W."""
    q = _w_lattice(w_basis, M.rows)
    return all(q.contains(M.apply(w)) for w in w_basis.columns())


def TW_membership(M: IntMatrix, w_basis: IntMatrix) -> bool:
    """Does the induced map M preserve W and act as the identity on H/W?

    The quotient may have torsion (W need not be primitive: W = mH gives the
    level-m subgroup), so triviality on H/W is decided as membership of
    (M - I)e_j in W for every basis vector, via Smith-form divisibility.
    That condition already gives M w = w + (M - I) w in W, so W is preserved.
    """
    q = _w_lattice(w_basis, M.rows)
    diff = M - IntMatrix.identity(M.rows)
    return all(q.contains(c) for c in diff.columns())


# ---------------------------------------------------------------------------
# curve families
# ---------------------------------------------------------------------------

def standard_curves(g: int) -> dict[str, IntVector]:
    """The 2g basis curve classes a_1..a_g, b_1..b_g by label, in basis
    order: the symplectic basis classes, so a_i pairs b_i once (<a_i, b_i> =
    1) and all else is disjoint."""
    ctx = SymplecticContext(g)
    return {lab: ctx.basis_vector(lab) for lab in ctx.basis_labels()}


def humphries_table(g: int) -> dict[str, IntVector]:
    """A Humphries-style generating family of 2g+1 twist classes by label,
    c0 first, then the chain in order.

    Classes c1..c_{2g} form a chain (<c_i, c_{i+1}> = +1 for odd i and -1 for
    even i, all other chain pairs are 0): a_1, b_1, a_1+a_2, b_2, a_2+a_3,
    ..., b_g.  The extra class c0 = a_2 meets only the fourth chain curve,
    once (<c0, c4> = <a_2, b_2> = 1).  That pendant class is what makes the
    family generate the full symplectic group mod 2; a bare chain of 2g+1
    classes provably cannot, because its forced odd-index dependency always
    leaves an invariant quadratic form.  Validated structurally (pairing
    pattern and full symplectic generation mod 2), not against a cited
    source.
    """
    if g < 2:
        raise ValueError("the table needs genus >= 2")
    v = SymplecticContext(g).basis_vector
    chain = [v("a1")]
    for i in range(1, g + 1):
        chain.append(v(f"b{i}"))
        if i < g:
            chain.append(v(f"a{i}") + v(f"a{i + 1}"))
    return {f"c{i}": c for i, c in enumerate([v("a2")] + chain)}


# ---------------------------------------------------------------------------
# wire formats
# ---------------------------------------------------------------------------

def exponent_from_json(x) -> int:
    """A word exponent, read by int_from_json; ResourceLimitError if |e| is
    WORD_EXPONENT_LIMIT or more."""
    e = int_from_json(x)
    if abs(e) >= WORD_EXPONENT_LIMIT:
        raise ResourceLimitError(f"a word exponent of {e.bit_length()} bits is over the limit "
                                 f"|e| < 2^{WORD_EXPONENT_LIMIT.bit_length() - 1}")
    return e


def word_from_json(obj) -> MappingClassWord:
    """A word from {"genus": g, "letters": [{"class": [...], "exp": e}, ...]},
    g >= 1 checked before any letter, then each letter in turn: its class of
    dimension 2g, zero or primitive (a simple closed curve never represents a
    divisible class), then its exponent.  A letter's optional "label" (x<i> by default) only
    names it in an error."""
    shape = 'a word is {"genus": g, "letters": [{"class": [...], "exp": e}, ...]}'
    raw = obj.get("letters") if isinstance(obj, dict) else None
    if not isinstance(raw, list) or not all(isinstance(l, dict) and "class" in l and "exp" in l for l in raw):
        raise ValueError(shape)
    g = int_from_json(obj.get("genus"))
    if g < 1:
        raise ValueError("genus must be >= 1")
    letters = []
    for i, l in enumerate(raw):
        v = vector_from_json(l["class"])
        if v.dim != 2 * g:
            raise ValueError("class dimension does not match the genus")
        if v.content() > 1:
            raise ValueError(f"curve class {l.get('label', f'x{i}')!r} is not primitive")
        letters.append((v, exponent_from_json(l["exp"])))
    return MappingClassWord(g, tuple(letters))
