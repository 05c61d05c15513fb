"""Target modules for homology-trivial mapping classes.

H = Z^{2g} carries the intersection form; the class
omega = a_1^b_1 + ... + a_g^b_g embeds H into wedge^3 H by h |-> h ^ omega.
The quotient (wedge^3 H)/H is the module that detects elements of the kernel
of the homology action: it has free rank C(2g,3) - 2g, the symplectic group
acts on it, and the embedding intertwines the actions exactly.

The same construction relative to a primitive sublattice W < H produces
wedge^3(H/W) / H^W, the detector for subgroups like the Lagrangian one.
"""

import math

from distortion.exact import IntMatrix, IntVector, mat_mul
from distortion.exterior import (
    induced_action,
    johnson_target,
    relative_target,
    wedge3_map,
)
from distortion.mapclass import MappingClassWord, evaluate, standard_curves

print("=== closed-surface target ranks ===")
for g in range(2, 7):
    t = johnson_target(g, "closed")
    print(f"  g={g}: C({2*g},3) - {2*g} = {math.comb(2*g,3)} - {2*g} = {t.free_rank}, "
          f"torsion {list(t.torsion)}")

print()
print("=== the embedding is equivariant ===")
g = 3
curves = standard_curves(g)
E = johnson_target(g, "closed").module.relations    # column j is e_j ^ omega
M = evaluate(MappingClassWord.from_letters(g, [(curves["a1"], 1), (curves["b2"], -1)]))
lhs = mat_mul(wedge3_map(M), E)
rhs = mat_mul(E, M)
print(f"  wedge3(M) . E == E . M for a twist product at g=3: {lhs.entries == rhs.entries}")
print("  (checked exactly, entry by entry, over Z)")

print()
print("=== a twist acts unipotently, so it is invisible to the test ===")
t = evaluate(MappingClassWord.from_letters(g, [(curves["a1"], 1)]))
target = johnson_target(3, "closed")
act = induced_action(target, t)
print(f"  induced action of one twist on the rank-{target.free_rank} target:")
print(f"  is identity? {act.is_identity()}   (no, but unipotent: det {act.det()})")

print()
print("=== relative targets ===")
for g in (3, 4, 5):
    w = IntMatrix.from_columns([IntVector.basis(2 * g, i).entries for i in range(g)], 2 * g)
    rt = relative_target(g, w)
    print(f"  g={g}, W = <a_1..a_{g}> (Lagrangian): the embedded copy of H dies "
          f"(omega maps to 0 in wedge^2(H/W)), rank C({g},3) = {rt.free_rank}")

g = 5
cols = []
for i in range(2):
    cols.append(IntVector.basis(2 * g, i).entries)
    cols.append(IntVector.basis(2 * g, g + i).entries)
rt = relative_target(g, IntMatrix.from_columns(cols, 2 * g))
print(f"  g=5, W = H of a genus-2 subsurface: target is the closed target of "
      f"genus 3, rank {rt.free_rank}")
