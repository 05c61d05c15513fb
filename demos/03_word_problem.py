"""Generalized word problems for homologically specified subgroups.

A mapping class given as a product of Dehn twists induces an integer
symplectic matrix on H_1, built one twist at a time by a rank-one update of
the columns it touches.  That single matrix answers membership questions
for a family of subgroups: the kernel of the homology action, level-m
congruence subgroups, and the stabilizer / kernel pairs attached to a
subgroup W < H.
"""

from distortion.exact import IntMatrix, IntVector
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
from distortion.symplectic import SymplecticContext

g = 2
std = standard_curves(g)

def show(name, word, verdicts):
    M = evaluate(word)
    print(f"  {name}")
    print(f"    induced matrix: {M}")
    for label, value in verdicts.items():
        print(f"    {label}: {value}")

print("=== the membership suite at genus 2 ===")

sep = IntVector.zero(2 * g)
w = MappingClassWord.from_letters(g, [(sep, 1)])
show("twist about a separating curve", w, {
    "acts trivially on homology": torelli_membership(evaluate(w)),
})

c = d = IntVector((0, 1, 0, 0))      # homologous curves, one class
w = MappingClassWord.from_letters(g, [(c, 1), (d, -1)])
show("bounding pair T_c T_d^-1 with [c] = [d]", w, {
    "acts trivially on homology": torelli_membership(evaluate(w)),
})

w = MappingClassWord.from_letters(g, [(std["a1"], 1)])
show("single twist about a_1", w, {
    "acts trivially on homology": torelli_membership(evaluate(w)),
})

w = MappingClassWord.from_letters(g, [(std["a1"], 2)])
show("squared twist T_{a1}^2", w, {
    "in the level-2 subgroup": level_membership(evaluate(w), 2),
    "in the level-3 subgroup": level_membership(evaluate(w), 3),
})

print()
print("=== the Lagrangian W = <a_1, a_2> ===")
lagr = IntMatrix.from_columns([IntVector.basis(4, 0).entries, IntVector.basis(4, 1).entries], 4)
for label in ("a1", "b1"):
    w = MappingClassWord.from_letters(g, [(std[label], 1)])
    print(f"  T_{label}: preserves W: {preserves_lattice(evaluate(w), lagr)}, "
          f"trivial on W and H/W: {TW_membership(evaluate(w), lagr)}")

print()
print("=== level subgroups via W = mH (a torsion quotient) ===")
w = MappingClassWord.from_letters(g, [(std["a1"], 2)])
for m in (2, 3):
    wm = IntMatrix.identity(4).scale(m)
    print(f"  T_a1^2 trivial on H/{m}H: {TW_membership(evaluate(w), wm)}")

print()
print("=== the bundled twist table ===")
table = humphries_table(3)
pairing = SymplecticContext(3).pairing
print(f"  {len(table)} classes at genus 3: {', '.join(table)}")
print("  their pairings <ci, cj>: c0 meets only c4; the chain c1..c6 alternates +1, -1")
for label, c in table.items():
    print(f"    {label}: " + " ".join(f"{pairing(c, d):2d}" for d in table.values()))
