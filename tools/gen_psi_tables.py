"""Regenerate the bundled generator-value tables under src/distortion/data/.

The tables hold values of subgroup generators inside the wedge^3 target
modules.  Values are images of decomposable forms x ^ y ^ z for triples with
<x,y> = 1 and z in the orthogonal complement of span(x,y) (the shape a
bounding-pair twist produces), selected greedily until they span the module
over Q.  They are demonstration data with an explicit provenance flag, chosen
by this script, not sourced from anywhere; the engine treats them as input.

A span table is built in two batched steps.

Values: the x, y and z of every candidate go through the target's
h_quotient.projection, one exterior.wedge3_columns call forms every
x ^ y ^ z, and one exact.mat_mul by module.projection gives the free
coordinates: the columns v_1, ..., v_N of one R x N matrix, R the rank.

Span: greedy_span picks the lexicographically first columns that span the
module over Q (each column independent of the chosen ones before it), by one
exact._echelon_mod of all N columns mod the first _primes(R) prime p, which
takes its pivots greedily from left to right.  A set independent mod p is
independent over Q, so every choice is exact.  Each rejected v_j is then
proved dependent on the chosen columns before it.  Let B be the R chosen
columns, so det B != 0 mod p.  v_j lies in the span of the chosen columns
before it iff its coordinates x = B^-1 v_j vanish on every later chosen
column.  det B x_s is a Cramer numerator, det B with column s replaced by
v_j, of size at most H = prod_i ||b_i|| max_j ||v_j|| / min_i ||b_i||
(Hadamard).  The elimination mod p gives x_s = 0 mod p; one _echelon_mod of
[B | rejected columns] per further prime q with det B != 0 mod q gives x
mod q.  Once the primes multiply past H (compared in squares, so exactly),
x_s = 0 mod each of them proves det B x_s = 0.  A nonzero x_s mod q proves
v_j independent over Q, so p was unlucky, and the pass reruns with the next
prime.  So does a mod-p rank below R when exact.rational_rank (the largest
rank mod primes, certified by Hadamard) finds R; otherwise the catalog spans
less than the module.  No step lifts by CRT, and no float enters.

Coordinates on the quotient modules come from the package's own Smith form
(exact._smith_with_transforms): the table values are written in the bases
that its U and U^-1 give for each target's W and relations.  Rerun this
script whenever those transforms change: a new pivot rule or tie-break, a
new order of the exact clears, or a new sign convention for the pivots.
tests/test_exterior.py pins them (test_package_smith_transforms_pinned), so
such a change shows there first.  Every pivot of these inputs is a unit, so
a change that acts only where a pivot does not divide an entry (the Bezout
steps, the gcd/lcm pass) leaves the tables as they are.
"""

import itertools
import json
import math
import pathlib
import sys

import numpy as np

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "src"))

from distortion.exact import (
    IntMatrix,
    IntVector,
    _echelon_mod,
    _int_array,
    _primes,
    mat_mul,
    rational_rank,
)
from distortion.engine import psi_table_to_json
from distortion.exterior import johnson_target, relative_target, wedge3_columns
from distortion.symplectic import SymplecticContext

DATA = pathlib.Path(__file__).resolve().parent.parent / "src" / "distortion" / "data"

PROVENANCE = (
    "demonstration values: images of decomposable forms x^y^z with <x,y>=1 and "
    "z orthogonal to x and y, selected to span the module over Q; conventional "
    "input data generated by tools/gen_psi_tables.py, not sourced externally"
)


def candidate_triples(ctx, labels):
    """Symplectically compatible (x, y, z) with small entries, plus a token name."""
    base = {lab: ctx.basis_vector(lab) for lab in labels}
    sums = {}
    for u, v in itertools.combinations(labels, 2):
        sums[f"{u}+{v}"] = base[u] + base[v]
    pool = {**base, **sums}
    for xn, yn in itertools.product(pool, repeat=2):
        x, y = pool[xn], pool[yn]
        if ctx.pairing(x, y) != 1:
            continue
        for zn in labels:
            z = base[zn]
            if ctx.pairing(x, z) == 0 and ctx.pairing(y, z) == 0:
                yield f"bp:{xn},{yn},{zn}", x, y, z


def _certified(V: np.ndarray, p: int, chosen: list[int], rejected: list[int]) -> bool:
    """Whether every rejected column of V is proved to lie in the span of the
    chosen columns before it (the proof is in the module docstring)."""
    rank = len(chosen)
    aug = np.ascontiguousarray(V[:, chosen + rejected])     # row operations run on C order
    # modulus > H  iff  modulus^2 min ||b_i||^2 > prod ||b_i||^2 max ||v_j||^2
    norms = (aug.astype(object) ** 2).sum(axis=0).tolist()
    least, bound = min(norms[:rank]), math.prod(norms[:rank]) * max(norms[rank:], default=0)
    # coordinate s of rejected column t must vanish for every chosen column after it
    later = np.array(chosen)[:, None] > np.array(rejected, dtype=int)[None]
    modulus = p    # the elimination mod p already made each of them 0 mod p
    for q in _primes(rank):
        if modulus ** 2 * least > bound:
            return True
        R = (aug % q).astype(np.int64)
        if q == p or not _echelon_mod(R, rank, q)[1]:
            continue
        if R[:, rank:][later].any():
            return False
        modulus *= q


def greedy_span(rank: int, names, values: IntMatrix) -> dict:
    """name -> value of the lexicographically first columns of values (rank
    rows, one column per name) that span Q^rank, each independent of the
    chosen ones before it; SystemExit if the columns span less."""
    V = _int_array(values.entries)
    for p in _primes(rank):
        chosen = _echelon_mod((V % p).astype(np.int64), V.shape[1], p)[0]
        if len(chosen) < rank:
            spanned = rational_rank(values)
            if spanned < rank:
                raise SystemExit(f"catalog only spans rank {spanned} of {rank}")
        elif _certified(V, p, chosen, sorted(set(range(chosen[-1])) - set(chosen))):
            return {names[j]: values.column(j) for j in chosen}


def triple_values(target, xyz) -> IntMatrix:
    """The free coordinates of x_t ^ y_t ^ z_t as column t, for the three
    sequences of vectors of H in xyz: one wedge3_columns call on their images
    in H/W, one product by module.projection."""
    P = target.h_quotient.projection
    X, Y, Z = (mat_mul(P, IntMatrix.from_columns([v.entries for v in vs], P.cols)) for vs in xyz)
    return mat_mul(target.module.projection, wedge3_columns(X, Y, Z))


def span_table(target, labels) -> dict:
    """The table of greedy_span over the candidate triples on `labels`."""
    names, *xyz = zip(*candidate_triples(SymplecticContext(target.genus), labels))
    values = triple_values(target, xyz)
    return psi_table_to_json(target.free_rank, greedy_span(target.free_rank, names, values), PROVENANCE)


def torelli_table(g, variant):
    return span_table(johnson_target(g, variant), SymplecticContext(g).basis_labels())


def lagrangian_table(g):
    ctx = SymplecticContext(g)
    w = IntMatrix.from_columns([IntVector.basis(2 * g, i).entries for i in range(g)], 2 * g)
    target = relative_target(g, w, variant="closed")
    triples = list(itertools.combinations(range(1, g + 1), 3))
    values = triple_values(target, zip(*([ctx.basis_vector(f"b{i}") for i in t] for t in triples)))
    assert rational_rank(values) == target.free_rank
    psi = {f"w:b{i}^b{j}^b{k}": values.column(t) for t, (i, j, k) in enumerate(triples)}
    return psi_table_to_json(target.free_rank, psi, PROVENANCE)


def pullback_table(g, h):
    cols = []
    for i in range(h):
        cols.append(IntVector.basis(2 * g, i).entries)
        cols.append(IntVector.basis(2 * g, g + i).entries)
    target = relative_target(g, IntMatrix.from_columns(cols, 2 * g), variant="closed")
    labels = [f"a{i}" for i in range(h + 1, g + 1)] + [f"b{i}" for i in range(h + 1, g + 1)]
    return span_table(target, labels)


def build_tables() -> dict:
    """Every bundled table, keyed by its file stem under DATA."""
    return {
        "torelli_psi_g3_closed": torelli_table(3, "closed"),
        "torelli_psi_g3_boundary": torelli_table(3, "boundary"),
        "lagrangian_psi_g4": lagrangian_table(4),
        "pullback_psi_g5_h2": pullback_table(5, 2),
    }


def table_text(obj) -> str:
    return json.dumps(obj, indent=1, sort_keys=True) + "\n"


def main():
    DATA.mkdir(exist_ok=True)
    for name, obj in build_tables().items():
        path = DATA / f"{name}.json"
        path.write_text(table_text(obj))
        print(f"wrote {path.name}: rank {obj['module_rank']}, {len(obj['gens'])} generators")


if __name__ == "__main__":
    main()
