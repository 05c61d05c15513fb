"""Brute-force ground truth at desk scale.

The semidirect product Z^2 x|_A Z with A = [[2,1],[1,1]] is the simplest
place to watch exponential distortion happen: the fiber Z^2 sits inside the
ambient group, the conjugates t^n e_1 t^-n have ambient length at most 2n+1,
yet inside Z^2 they are the vectors A^n e_1 whose word length is their L1
norm, a Fibonacci-type sequence.  Breadth-first search over the ambient
Cayley graph certifies all of this with no asymptotics involved.

The same BFS machinery, run over matrices mod L, validates generating tables:
the bundled twist classes hit the full symplectic group mod 2.
"""

from distortion.exact import IntMatrix
from distortion.mapclass import humphries_table
from distortion.oracle import SemidirectGroup, bfs_ball, distortion_table, finite_closure
from distortion.symplectic import SymplecticContext, transvection

A = IntMatrix.from_rows([[2, 1], [1, 1]])
group = SemidirectGroup(A)

print("=== the ball of radius 6 ===")
ball = bfs_ball(group, 6)
print(f"  {len(ball)} elements; layer sizes {list(ball.layer_sizes)}")
print(f"  (2,1) = A e_1 at ambient length {ball.word_length(((2, 1), 0))}"
      f"  -- reachable as t e1 t^-1 and as e1 e1 e2")

print()
print("=== distortion table ===")
rows = distortion_table(group, 4)
print("   n | fiber length (L1 of A^n e_1) | ambient length (BFS exact)")
for r in rows:
    print(f"  {r.n:2d} | {r.intrinsic:28d} | {r.extrinsic} "
          f"({'exact' if r.extrinsic_exact else 'bound'})")
print("  the fiber column is the Fibonacci subsequence F_4, F_6, F_8, F_10;")
print("  the ambient column grows linearly: that gap is the distortion.")

print()
print("=== validating twist tables mod 2 ===")
for g in (2, 3):
    ctx = SymplecticContext(g)
    gens = [transvection(ctx, c) for c in humphries_table(g).values()]
    result = finite_closure(gens, 2)
    order = 2 ** (g * g)
    for i in range(1, g + 1):
        order *= 2 ** (2 * i) - 1
    print(f"  g={g}: closure order {result.order:,} "
          f"(full symplectic group mod 2: {order:,}) "
          f"{'MATCH' if result.order == order else 'MISMATCH'}")
