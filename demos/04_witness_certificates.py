"""Witness certificates: exponential lower bounds from conjugate families.

Take an ambient word x and a subgroup generator y with value v = psi(y).  The
conjugate x^n y x^-n has ambient word length at most 2n|x| + 1 (linear in n),
but its value is rho(x)^n v, and no product of k subgroup generators can reach
a value of sup-norm above k*D.  When rho(x) stretches v exponentially, the
subgroup word length of x^n y x^-n is squeezed upward exponentially while the
ambient length stays linear: that gap, tabulated exactly, is the certificate.
"""

from distortion.engine import preset, search_partially_hyperbolic, witness_certificate
from distortion.exterior import induced_action, johnson_target
from distortion.mapclass import humphries_table
from distortion.symplectic import SymplecticContext, transvection

print("=== point-pushing at genus 2 ===")
datum = preset("pointpush", 2)
x = [("T_a1", 1), ("T_b1", -1)]
cert = witness_certificate(datum, x, "push_a1", 60)
print(f"  x = T_a1 T_b1^-1, y = push_a1, D = {cert.bound_constant}")
print("   n | ambient length <= | subgroup length >=")
for row in cert.rows[:8]:
    print(f"  {row.n:2d} | {row.extrinsic:17d} | {row.intrinsic}")
print("  ...")
last = cert.rows[-1]
print(f"  {last.n:2d} | {last.extrinsic:17d} | {last.intrinsic}")
print(f"  fitted growth rate {cert.fitted_rate:.6f}")
print(f"  (the dominant root of x^2-3x+1 is (3+sqrt5)/2 = 2.618034)")

print()
print("=== finding a stretching word automatically ===")
ctx = SymplecticContext(3)
target = johnson_target(3, "closed")
gens = [induced_action(target, transvection(ctx, c)) for c in humphries_table(3).values()]
labels = list(humphries_table(3))
result = search_partially_hyperbolic(gens, budget=6, seed=7)
word = " ".join(f"T_{labels[i]}" + ("" if s == 1 else "^-1") for i, s in result.word)
print(f"  single twists act unipotently on the rank-{target.free_rank} module,")
print(f"  but the search finds the stretching word: {word}")
print(f"  non-cyclotomic factor of its char poly: {result.noncyclotomic_factor}")

print()
print("=== kernel-of-homology data at genus 3 ===")
datum = preset("torelli", 3)
y = "bp:a1+b1,b1+b2,b3"     # outside the closed-form list: valued from its name
cert = witness_certificate(datum, [("T_c0", 1), ("T_c4", -1)], y, 40)
print(f"  using closed-form values ({len(datum.psi)} generators, D = {datum.bound_constant})")
print(f"  y = {y}")
print(f"  subgroup length lower bounds, n = 1..8: {[r.intrinsic for r in cert.rows[:8]]}")
print(f"  fitted rate {cert.fitted_rate:.4f}")
print(f"  value-table provenance: {datum.provenance[:72]}...")
