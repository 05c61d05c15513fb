"""Regenerate the bundled generator-value tables under src/distortion/data/.

The tables hold values of subgroup generators inside the wedge^3 target
modules.  Values are images of decomposable forms x ^ y ^ z for triples with
<x,y> = 1 and z in the orthogonal complement of span(x,y) (the shape a
bounding-pair twist produces), selected greedily until they span the module
over Q.  They are demonstration data with an explicit provenance flag, chosen
by this script, not sourced from anywhere; the engine treats them as input.

Coordinates on the quotient modules come from the package's own Smith-form
plumbing, so the tables are only valid for the pivot rule shipped with the
package.  Rerun this script if that ever changes.
"""

import itertools
import json
import pathlib
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "src"))

from distortion.exact import IntMatrix, IntVector, rational_rank
from distortion.engine import psi_table_to_json
from distortion.exterior import johnson_target, relative_target, wedge3_of_vectors
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


def greedy_span(rank, candidates):
    chosen = {}
    cols = []
    for name, value in candidates:
        if value.is_zero() or name in chosen:
            continue
        trial = cols + [value.entries]
        if rational_rank(IntMatrix.from_columns(trial, rank)) > len(cols):
            chosen[name] = value
            cols = trial
            if len(cols) == rank:
                break
    if len(cols) != rank:
        raise SystemExit(f"catalog only spans rank {len(cols)} of {rank}")
    return chosen


def torelli_table(g, variant):
    ctx = SymplecticContext(g)
    target = johnson_target(g, variant)

    def values():
        for name, x, y, z in candidate_triples(ctx, ctx.basis_labels()):
            yield name, target.module.free_coords(wedge3_of_vectors(x, y, z))

    psi = greedy_span(target.free_rank, values())
    return psi_table_to_json(target.free_rank, psi, PROVENANCE)


def lagrangian_table(g):
    ctx = SymplecticContext(g)
    w = IntMatrix.from_columns([IntVector.basis(2 * g, i).entries for i in range(g)], 2 * g)
    target = relative_target(g, w, variant="closed")
    hq = target.h_quotient
    psi = {}
    bbar = {i: hq.free_coords(ctx.basis_vector(f"b{i}")) for i in range(1, g + 1)}
    for (i, j, k) in itertools.combinations(range(1, g + 1), 3):
        value = target.module.free_coords(wedge3_of_vectors(bbar[i], bbar[j], bbar[k]))
        psi[f"w:b{i}^b{j}^b{k}"] = value
    cols = [v.entries for v in psi.values()]
    assert rational_rank(IntMatrix.from_columns(cols, target.free_rank)) == target.free_rank
    return psi_table_to_json(target.free_rank, psi, PROVENANCE)


def pullback_table(g, h):
    ctx = SymplecticContext(g)
    cols = []
    for i in range(h):
        cols.append(IntVector.basis(2 * g, i).entries)
        cols.append(IntVector.basis(2 * g, g + i).entries)
    w = IntMatrix.from_columns(cols, 2 * g)
    target = relative_target(g, w, variant="closed")
    hq = target.h_quotient
    labels = [f"a{i}" for i in range(h + 1, g + 1)] + [f"b{i}" for i in range(h + 1, g + 1)]

    def values():
        for name, x, y, z in candidate_triples(ctx, labels):
            yield name, target.module.free_coords(
                wedge3_of_vectors(hq.free_coords(x), hq.free_coords(y), hq.free_coords(z))
            )

    psi = greedy_span(target.free_rank, values())
    return psi_table_to_json(target.free_rank, psi, PROVENANCE)


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
