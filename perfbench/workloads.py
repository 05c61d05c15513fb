"""Seeded job batches for the four workloads.

Each builder takes a seeded `random.Random`, a work directory for input
files and the freshly imported package (used only to produce inputs the CLI
cannot take from elsewhere: the genus-4 value table, induced twist actions
for search generators, and target coordinate maps).  It returns the batch as
a list of `Job`s, with the argv lists of the warm-up jobs.  The `meta` of a
job holds what its check in `checks.py` needs; the CLI itself receives only
the argv and the files it names.

Job sizes are fixed per slot and only the seed-chosen words, classes and
conjugations vary, so the work per batch barely depends on the seed.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

from plainmath import (
    basis_vector,
    humphries_classes,
    inverse,
    mat_mul,
    mat_vec,
    pairing,
    symplectic_inverse,
    transpose,
    twist_classes,
    wedge3_matrix,
    word_matrix,
)


@dataclass
class Job:
    name: str
    argv: list
    expect_rc: int
    meta: dict = field(default_factory=dict)
    ball: str | None = None          # ball file a bfs job writes


def _write(path: Path, obj) -> str:
    path.write_text(json.dumps(obj))
    return str(path)


def _matrix_json(M) -> dict:
    return {"rows": len(M), "cols": len(M[0]), "entries": [[str(x) for x in row] for row in M]}


def _entries(M) -> list:
    """IntMatrix -> list of rows."""
    return [list(row) for row in M.entries]


# ---------------------------------------------------------------------------
# certify: witness certificates for x^n y x^-n
# ---------------------------------------------------------------------------

def _linked_pair(rng, g, symbols):
    """x = T_u T_v^-1 for twist symbols with <u, v> = +-1: hyperbolic on
    span(u, v) with dominant root (3 + sqrt 5) / 2, the identity elsewhere."""
    classes = twist_classes(g)
    pairs = [(s, t) for s in symbols for t in symbols
             if abs(pairing(g, classes[s], classes[t])) == 1]
    s, t = rng.choice(pairs)
    return [[s, 1], [t, -1]]


def _growing(rng, rho, psi: dict) -> str:
    """A value whose orbit under rho grows exponentially.  Polynomial orbits
    stay far below the threshold after 80 steps; exponential ones (rate
    2.618) pass it by many orders of magnitude."""
    names = sorted(psi)
    rng.shuffle(names)
    for name in names:
        w = psi[name]
        for _ in range(80):
            w = mat_vec(rho, w)
        if max(abs(x) for x in w) > 10 ** 20 * max(1, max(abs(x) for x in psi[name])):
            return name
    raise RuntimeError("no growing value for the chosen x")


def _psi_file(path) -> dict:
    obj = json.loads(Path(path).read_text())
    return {g["symbol"]: [int(x) for x in g["psi"]] for g in obj["gens"]}


def build_certify(rng, work: Path, pkg) -> tuple[list[Job], list]:
    exterior, exact = pkg.exterior, pkg.exact
    data = pkg.root / "src" / "distortion" / "data"
    table4 = pkg.gen_psi_tables.torelli_table(4, "closed")
    psi4_path = _write(work / "psi_g4_closed.json", table4)

    # target coordinate maps (P, S) per preset; the checks validate them
    targets = {}
    for g in (3, 4):
        module = exterior.johnson_target(g, "closed").module
        targets[f"closed{g}"] = {"g": g, "kind": "closed", "P": _entries(module.projection),
                                 "S": _entries(module.section)}
    module = exterior.johnson_target(3, "boundary").module
    targets["boundary3"] = {"g": 3, "kind": "boundary", "P": _entries(module.projection),
                            "S": _entries(module.section)}
    w_cols = []
    for i in range(2):
        w_cols += [basis_vector(5, f"a{i + 1}"), basis_vector(5, f"b{i + 1}")]
    rel = exterior.relative_target(5, exact.IntMatrix.from_columns(w_cols, 10), variant="closed")
    targets["pullback5"] = {"g": 5, "kind": "relative", "W": transpose(w_cols),
                            "Ph": _entries(rel.h_quotient.projection),
                            "Sh": _entries(rel.h_quotient.section),
                            "P": _entries(rel.module.projection), "S": _entries(rel.module.section)}

    def target_rho(tkey, M):
        t = targets[tkey]
        if t["kind"] == "relative":
            M = mat_mul(mat_mul(t["Ph"], M), t["Sh"])
        return mat_mul(mat_mul(t["P"], wedge3_matrix(M)), t["S"])

    jobs = []

    def add(name, preset, g, tkey, psi, symbols, n, extra=(), psi_path=None):
        x = _linked_pair(rng, g, symbols)
        classes = twist_classes(g)
        M = word_matrix(g, [(classes[s], e) for s, e in x])
        rho = M if tkey is None else target_rho(tkey, M)
        y = _growing(rng, rho, psi)
        xfile = _write(work / f"{name}-x.json", {"word": x})
        argv = ["witness", "--preset", preset, "--g", str(g), *extra,
                "--x", xfile, "--y", y, "--n", str(n)]
        if psi_path:
            argv[5:5] = ["--psi-table", psi_path]
        D = max(max(abs(c) for c in v) for v in psi.values())
        jobs.append(Job(name, argv, 0, {
            "check": "witness", "rho": rho, "v": psi[y], "D": D, "n": n, "y": y,
            "len_x": sum(abs(e) for _, e in x), "target": tkey}))

    # each slot draws n from a narrow band, so job sizes hardly depend on the
    # seed; the batch is 6 tiny jobs, 8 of 40 to 80 ms and 6 larger ones, so
    # the median job (job_p50_s) is one of the five alike n = 60 jobs
    for g, lo in ((2, 60), (3, 100), (4, 150), (5, 190)):
        std = [f"T_{k}{i}" for k in "ab" for i in range(1, g + 1)]
        push = {f"push_{k}{i}": basis_vector(g, f"{k}{i}") for k in "ab" for i in range(1, g + 1)}
        for copy in range(2):
            add(f"pointpush-g{g}-{copy}", "pointpush", g, None, push,
                std + [f"T_c{i}" for i in range(2 * g + 1)], rng.randint(lo, lo + 8))
    sym3 = sorted(twist_classes(3))
    psi3 = _psi_file(data / "torelli_psi_g3_closed.json")
    # n = 60 and n = 300 are the ROADMAP baseline rows
    for k in range(5):
        add(f"torelli-g3-closed-n60-{k}", "torelli", 3, "closed3", psi3, sym3, 60)
    add("torelli-g3-closed-n300", "torelli", 3, "closed3", psi3, sym3, 300)
    psi3b = _psi_file(data / "torelli_psi_g3_boundary.json")
    for lo in (100, 190):
        add(f"torelli-g3-boundary-{lo}", "torelli", 3, "boundary3", psi3b, sym3,
            rng.randint(lo, lo + 10), extra=("--variant", "boundary"))
    psi5 = _psi_file(data / "pullback_psi_g5_h2.json")
    sym5 = [f"T_{k}{i}" for k in "ab" for i in range(3, 6)]
    for lo in (100, 190):
        add(f"pullback-g5-{lo}", "pullback", 5, "pullback5", psi5, sym5,
            rng.randint(lo, lo + 10), extra=("--h", "2"))
    psi4 = {g["symbol"]: [int(x) for x in g["psi"]] for g in table4["gens"]}
    for lo in (60, 190):
        add(f"torelli-g4-closed-{lo}", "torelli", 4, "closed4", psi4, sorted(twist_classes(4)),
            rng.randint(lo, lo + 6), psi_path=psi4_path)
    for job in jobs:
        if job.meta["target"]:
            job.meta["maps"] = targets[job.meta["target"]]
    # the genus-4 job fills the cyclotomic caches up to degree 48
    warmups = [_with_n(jobs[k].argv, 5) for k in (0, 8, -1)]
    return jobs, warmups


def _with_n(argv, n):
    argv = list(argv)
    argv[argv.index("--n") + 1] = str(n)
    return argv


# ---------------------------------------------------------------------------
# search: partially hyperbolic words among induced twist actions
# ---------------------------------------------------------------------------

def build_search(rng, work: Path, pkg) -> tuple[list[Job], list]:
    exterior, symplectic, exact = pkg.exterior, pkg.symplectic, pkg.exact
    ctx = symplectic.SymplecticContext(3)
    # the six basis classes: symplectic symmetries permute them, so every
    # choice of classes gives generators of the same cost
    classes = [basis_vector(3, f"{k}{i}") for k in "ab" for i in range(1, 4)]
    linked = [(u, v) for u in classes for v in classes if abs(pairing(3, u, v)) == 1]
    jobs = []
    # per target: the sizes of the sets with a linked pair (searched to
    # budget 4), and (size, budget) of the sets of disjoint classes
    for variant, hits, misses in (("closed", (3, 3, 4, 4), ((2, 4), (3, 3))),
                                  ("boundary", (3, 3, 3), ((2, 3),))):
        target = exterior.johnson_target(3, variant)
        induced = {}

        def gens_of(vs):
            out = []
            for v in vs:
                if tuple(v) not in induced:
                    t = symplectic.transvection(ctx, exact.IntVector(tuple(v)))
                    induced[tuple(v)] = _entries(exterior.induced_action(target, t))
                out.append(induced[tuple(v)])
            return out

        def add(name, vs, budget, commuting):
            mats = gens_of(vs)
            path = _write(work / f"{name}.json", {"matrices": [_matrix_json(M) for M in mats]})
            argv = ["phyp-search", "--gens", path, "--budget", str(budget),
                    "--seed", str(rng.randrange(1000))]
            jobs.append(Job(name, argv, 1 if commuting else 0, {
                "check": "search", "gens": mats, "budget": budget, "commuting": commuting}))

        for k, size in enumerate(hits):
            # a linked pair in slots 0 and 1 puts the first hit at the same
            # place in the search order whatever the other classes are
            u, v = rng.choice(linked)
            rest = [c for c in classes if c not in (u, v)]
            add(f"hit-{variant}-{k}", [u, v] + rng.sample(rest, size - 2), 4, False)
        for k, (size, budget) in enumerate(misses):
            while True:
                vs = rng.sample(classes, size)
                if all(pairing(3, a, b) == 0 for a in vs for b in vs):
                    break
            add(f"miss-{variant}-{k}", vs, budget, True)
    return jobs, [jobs[0].argv]


# ---------------------------------------------------------------------------
# oracle: finite closures mod L and semidirect-product balls
# ---------------------------------------------------------------------------

# (automorphism, radius); r = 9 and 11 on [[2,1],[1,1]] are ROADMAP baseline
# rows.  Five balls of radius 10 about it (seeded conjugates, all of the same
# size) are the middle of the batch, so the median job is one of them.
FIB = [[2, 1], [1, 1]]
BALLS = (
    (FIB, 9),
    (FIB, 11),
    ([[0, 1, 0], [0, 0, 1], [1, 1, 0]], 9),
) + ((FIB, 10),) * 5


def _random_symplectic(rng, g):
    """A product of three twists about random classes with two +-1 entries."""
    return word_matrix(g, [(_small_class(rng, g, list(range(2 * g)), 2), rng.choice((1, -1)))
                           for _ in range(3)])


def build_oracle(rng, work: Path, pkg) -> tuple[list[Job], list]:
    jobs = []
    # conjugating the Humphries twists by a random symplectic matrix keeps the
    # generated group (and the word-length histogram) and changes the matrices;
    # their order stays fixed, because it moves the closure's peak memory
    for g, L in ((3, 2), (2, 4), (2, 3), (2, 2)):
        S = _random_symplectic(rng, g)
        Sinv = symplectic_inverse(g, S)
        gens = [mat_mul(mat_mul(Sinv, word_matrix(g, [(c, 1)])), S)
                for c in humphries_classes(g).values()]
        name = f"closure-g{g}-mod{L}"
        path = _write(work / f"{name}.json", {"matrices": [_matrix_json(M) for M in gens]})
        jobs.append(Job(name, ["closure", "--gens", path, "--mod", str(L)], 0,
                        {"check": "closure", "g": g, "L": L}))
    # a signed permutation conjugate, or the inverse, gives an isomorphic Cayley graph
    for k, (A, radius) in enumerate(BALLS):
        n = len(A)
        perm = rng.sample(range(n), n)
        Q = [[rng.choice((1, -1)) if j == perm[i] else 0 for j in range(n)] for i in range(n)]
        B = mat_mul(mat_mul(Q, A), inverse(Q))
        if rng.random() < 0.5:
            B = inverse(B)
        name = f"bfs-{n}d-r{radius}-{k}"
        path = _write(work / f"{name}-A.json", B)
        ball = str(work / f"{name}.jsonl")
        jobs.append(Job(name, ["bfs", "--semidirect", path, "--radius", str(radius), "--out", ball],
                        0, {"check": "bfs", "A": B, "radius": radius}, ball=ball))
    warm_ball = str(work / "warmup.jsonl")
    return jobs, [jobs[3].argv, ["bfs", "--semidirect", jobs[4].argv[2], "--radius", "4", "--out", warm_ball]]


# ---------------------------------------------------------------------------
# membership: generalized word problems
# ---------------------------------------------------------------------------

# (kind, member, genus, length) per slot; lengths shrink with the genus so
# every slot costs about the same
MEMBERSHIP_SLOTS = (
    ("torelli", True, 4, 240), ("torelli", False, 5, 170),
    ("level", True, 5, 170), ("level", False, 6, 120),
    ("modw", True, 6, 120), ("modw", False, 4, 240),
    ("tw", True, 5, 170), ("tw", False, 6, 120),
)


def _small_class(rng, g, coords, size=None):
    """A primitive class with one or two (or `size`) +-1 entries among `coords`."""
    v = [0] * (2 * g)
    for i in rng.sample(coords, size or rng.choice((1, 2))):
        v[i] = rng.choice((1, -1))
    return v


def _random_word(rng, g, length):
    return [(_small_class(rng, g, list(range(2 * g))), rng.choice((1, -1))) for _ in range(length)]


def _conj(u, core):
    return u + core + [(v, -e) for v, e in reversed(u)]


def build_membership(rng, work: Path, pkg) -> tuple[list[Job], list]:
    jobs = []
    for k, (kind, member, g, length) in enumerate(MEMBERSHIP_SLOTS):
        meta = {"check": "membership", "g": g, "kind": kind, "member": member}
        extra = []
        c, d = _small_class(rng, g, list(range(2 * g))), _small_class(rng, g, list(range(2 * g)))
        half = (length - 4) // 4
        u1, u2 = _random_word(rng, g, half), _random_word(rng, g, half)
        if kind == "torelli":
            # c and a second curve homologous to it bound a pair: T_c T_c'^-1 acts trivially
            first = [(c, 1), (c, -1)] if member else [(c, 1)]
            letters = _conj(u1, first) + _conj(u2, [(d, 1), (d, -1)])
        elif kind == "level":
            m = rng.choice((2, 3, 4, 5))
            meta["m"] = m
            extra = ["--m", str(m)]
            letters = _conj(u1, [(c, m)]) + _conj(u2, [(d, m if member else 1)])
        else:
            # W = S <a_1..a_g>; twists about classes in W fix it pointwise mod W,
            # and one twist about S b_j moves it
            S = _random_symplectic(rng, g)
            meta["S"] = S
            letters = [(mat_vec(S, _small_class(rng, g, list(range(g)))), rng.choice((1, -1)))
                       for _ in range(length)]
            if not member:
                j = rng.randrange(g)
                letters[rng.randrange(length)] = (mat_vec(S, basis_vector(g, f"b{j + 1}")), 1)
            w_path = _write(work / f"m{k}-W.json", _matrix_json(
                transpose([mat_vec(S, basis_vector(g, f"a{i + 1}")) for i in range(g)])))
            extra = ["--w", w_path]
        meta["letters"] = letters
        path = _write(work / f"m{k}-word.json", {"genus": g, "letters": [
            {"label": f"x{i}", "class": v, "exp": e} for i, (v, e) in enumerate(letters)]})
        argv = ["membership", "--kind", kind, "--word", path, *extra, "--expect", "true"]
        jobs.append(Job(f"{kind}-{'member' if member else 'nonmember'}-g{g}", argv,
                        0 if member else 1, meta))
    warm = _write(work / "warmup-word.json", {"genus": 4, "letters": [
        {"label": f"x{i}", "class": v, "exp": e} for i, (v, e) in enumerate(_random_word(rng, 4, 12))]})
    return jobs, [["membership", "--kind", "torelli", "--word", warm]]


BUILDERS = {
    "certify": build_certify,
    "search": build_search,
    "oracle": build_oracle,
    "membership": build_membership,
}
