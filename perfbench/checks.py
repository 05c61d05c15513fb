"""Independent checks of job outputs.

Each check takes a job and the report the CLI printed for it, and returns a
list of problems, empty when the output is right.  The
reference values come from `plainmath`, which shares no code with the
package.
"""

from __future__ import annotations

import json

from plainmath import (
    bfs_lengths,
    identity,
    inverse,
    mat_mul,
    mat_vec,
    max_root_modulus,
    omega_relations,
    basis_vector,
    symplectic_inverse,
    sp_order,
    word_matrix,
)


def _ints(matrix_json) -> list:
    return [[int(x) for x in row] for row in matrix_json["entries"]]


def check_maps(t: dict) -> list[str]:
    """The target coordinate maps the certify checks rely on: P S = I, and P
    kills the relations h ^ omega (in H/W coordinates for relative targets)."""
    g, P, S = t["g"], t["P"], t["S"]
    problems = []
    if mat_mul(P, S) != identity(len(P)):
        problems.append("target projection * section != identity")
    if t["kind"] == "boundary":
        return problems
    if t["kind"] == "closed":
        a = [basis_vector(g, f"a{i}") for i in range(1, g + 1)]
        b = [basis_vector(g, f"b{i}") for i in range(1, g + 1)]
        images = identity(2 * g)
    else:
        Ph, Sh = t["Ph"], t["Sh"]
        if mat_mul(Ph, Sh) != identity(len(Ph)) or any(any(r) for r in mat_mul(Ph, t["W"])):
            problems.append("H/W coordinate maps are inconsistent")
        a = [mat_vec(Ph, basis_vector(g, f"a{i}")) for i in range(1, g + 1)]
        b = [mat_vec(Ph, basis_vector(g, f"b{i}")) for i in range(1, g + 1)]
        images = [mat_vec(Ph, e) for e in identity(2 * g)]
    R = omega_relations(a, b, images)
    if any(any(r) for r in mat_mul(P, R)):
        problems.append("target projection does not kill the omega relations")
    return problems


def check_witness(job, report) -> list[str]:
    m = job.meta
    res = report["result"]
    problems = []
    if res["n_max"] != m["n"] or res["y_symbol"] != m["y"] or res["bound_constant"] != m["D"]:
        problems.append("echoed n, y or bound constant differ")
    rows = res["rows"]
    if len(rows) != m["n"]:
        return problems + [f"{len(rows)} rows for n = {m['n']}"]
    w = m["v"]
    D = m["D"]
    for n, row in enumerate(rows, start=1):
        w = mat_vec(m["rho"], w)
        intrinsic = -((-max(abs(x) for x in w)) // D)
        if (row["n"], row["extrinsic"], row["intrinsic"]) != (n, 2 * n * m["len_x"] + 1, str(intrinsic)):
            problems.append(f"row {n} is {row}, expected intrinsic {intrinsic}")
            break
    root = max_root_modulus(m["rho"])
    if abs(res["fitted_rate"] - root) > 0.02 * root:
        problems.append(f"fitted rate {res['fitted_rate']} vs largest root modulus {root}")
    return problems


def check_search(job, report) -> list[str]:
    m = job.meta
    res = report["result"]
    gens = m["gens"]
    if m["commuting"]:
        # twists about disjoint classes commute and are unipotent, so every
        # product is unipotent and a miss is the only right answer
        problems = [] if res == {"found": False, "budget": m["budget"]} else ["miss reported wrongly"]
        for i, A in enumerate(gens):
            N = [[a - b for a, b in zip(r, s)] for r, s in zip(A, identity(len(A)))]
            P = N
            for _ in range(len(A).bit_length()):
                P = mat_mul(P, P)
            if any(any(r) for r in P):
                problems.append(f"generator {i} is not unipotent")
            for B in gens[i + 1:]:
                if mat_mul(A, B) != mat_mul(B, A):
                    problems.append("generators do not commute")
        return problems
    if not res.get("found"):
        return ["no word found in a set with a linked pair"]
    word = res["word"]
    if not 1 <= len(word) <= m["budget"]:
        return [f"word of length {len(word)} exceeds the budget"]
    P = identity(len(gens[0]))
    for i, s in word:
        P = mat_mul(P, gens[i] if s == 1 else inverse(gens[i]))
    problems = []
    if P != _ints(res["matrix"]):
        problems.append("reported matrix is not the product of the word")
    if max_root_modulus(P) <= 1 + 1e-6:
        problems.append("reported word is not partially hyperbolic")
    return problems


def check_closure(job, report) -> list[str]:
    m = job.meta
    res = report["result"]
    expected = sp_order(m["g"], m["L"])
    problems = []
    if res["order"] != expected:
        problems.append(f"order {res['order']} != |Sp({2 * m['g']}, Z/{m['L']})| = {expected}")
    if sum(res["histogram"]) != res["order"] or res["histogram"][:1] != [1] or res["modulus"] != m["L"]:
        problems.append("histogram does not add up to the order")
    return problems


def check_bfs(job, report) -> list[str]:
    m = job.meta
    res = report["result"]
    lengths = bfs_lengths(m["A"], m["radius"])
    layers = [0] * (m["radius"] + 1)
    for d in lengths.values():
        layers[d] += 1
    problems = []
    if res["states"] != len(lengths) or res["layer_sizes"] != layers or sum(layers) != res["states"]:
        problems.append(f"ball has {res['states']} states in layers {res['layer_sizes']}, "
                        f"expected {len(lengths)} in {layers}")
    if res["fiber_states"] != sum(1 for (_, t) in lengths if t == 0):
        problems.append("fiber state count differs")
    lines = 0
    with open(job.ball) as fh:
        for line in fh:
            lines += 1
            rec = json.loads(line)
            if lengths.get((tuple(rec["v"]), rec["t"])) != rec["length"]:
                problems.append(f"ball file line {lines} has a wrong length: {line.strip()}")
                break
    if lines != len(lengths):
        problems.append(f"ball file has {lines} lines for {len(lengths)} states")
    return problems


def _membership_verdict(m, M) -> bool:
    g, kind = m["g"], m["kind"]
    n = 2 * g
    if kind == "torelli":
        return M == identity(n)
    if kind == "level":
        return all((x - int(i == j)) % m["m"] == 0 for i, row in enumerate(M) for j, x in enumerate(row))
    # W = S <a_1..a_g>: conjugate back so W is the span of the first g basis vectors
    C = mat_mul(mat_mul(symplectic_inverse(g, m["S"]), M), m["S"])
    preserves = all(C[g + i][j] == 0 for i in range(g) for j in range(g))
    if kind == "modw":
        return preserves
    return preserves and all(C[g + i][j] == int(i + g == j) for i in range(g) for j in range(n))


def check_membership(job, report) -> list[str]:
    m = job.meta
    res = report["result"]
    M = word_matrix(m["g"], m["letters"])
    problems = []
    if _ints(res["induced"]) != M:
        problems.append("induced matrix differs from the product of the twists")
    if res["kind"] != m["kind"] or res["member"] != m["member"]:
        problems.append(f"verdict {res['member']} for a word built as member={m['member']}")
    if _membership_verdict(m, M) != m["member"]:
        problems.append("reference verdict disagrees with the construction")
    return problems


CHECKS = {
    "witness": check_witness,
    "search": check_search,
    "closure": check_closure,
    "bfs": check_bfs,
    "membership": check_membership,
}


def check_job(job, rc, report, validated: set) -> list[str]:
    """All problems with one job's outcome; the exit code is checked first.
    Target maps are validated once per run; `validated` holds their keys."""
    if rc != job.expect_rc:
        return [f"exit code {rc}, expected {job.expect_rc}"]
    if report is None:
        return ["no report"]
    problems = CHECKS[job.meta["check"]](job, report)
    maps = job.meta.get("maps")
    if maps is not None and job.meta["target"] not in validated:
        validated.add(job.meta["target"])
        problems += check_maps(maps)
    return problems

