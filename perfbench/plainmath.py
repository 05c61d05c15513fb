"""Reference arithmetic for the output checks, on plain Python ints.

Nothing here imports the `distortion` package: matrices are lists of rows,
the symplectic conventions (basis a_1..a_g, b_1..b_g, <a_i, b_i> = +1, the
twist about v is x -> x + <x, v> v) and the wedge^3 basis order (increasing
triples, lexicographic) are restated from the package's documentation, so a
change to those conventions shows up as failed checks.  Floats appear only in
the root-modulus oracle.
"""

from __future__ import annotations

import itertools
from fractions import Fraction

import numpy as np


def identity(n):
    return [[int(i == j) for j in range(n)] for i in range(n)]


def mat_mul(A, B):
    bt = list(zip(*B))
    return [[sum(a * b for a, b in zip(row, col)) for col in bt] for row in A]


def mat_vec(A, v):
    return [sum(a * b for a, b in zip(row, v)) for row in A]


def transpose(A):
    return [list(col) for col in zip(*A)]


def inverse(A):
    """Exact inverse of an integer matrix by Gauss-Jordan over Q; raises if
    the inverse is singular or not integral."""
    n = len(A)
    aug = [[Fraction(x) for x in row] + [Fraction(int(i == j)) for j in range(n)]
           for i, row in enumerate(A)]
    for k in range(n):
        piv = next(i for i in range(k, n) if aug[i][k] != 0)
        aug[k], aug[piv] = aug[piv], aug[k]
        pk = aug[k][k]
        aug[k] = [x / pk for x in aug[k]]
        for i in range(n):
            if i != k and aug[i][k] != 0:
                f = aug[i][k]
                aug[i] = [x - f * y for x, y in zip(aug[i], aug[k])]
    inv = [row[n:] for row in aug]
    if any(x.denominator != 1 for row in inv for x in row):
        raise ValueError("inverse is not integral")
    return [[int(x) for x in row] for row in inv]


def max_root_modulus(A) -> float:
    return float(np.max(np.abs(np.linalg.eigvals(np.array(A, dtype=float)))))


# ---------------------------------------------------------------------------
# homology of a genus-g surface
# ---------------------------------------------------------------------------

def basis_vector(g: int, label: str) -> list[int]:
    """'a3' or 'b1' in the basis a_1..a_g, b_1..b_g."""
    v = [0] * (2 * g)
    idx = int(label[1:]) - 1
    v[idx if label[0] == "a" else g + idx] = 1
    return v


def humphries_classes(g: int) -> dict[str, list[int]]:
    """The documented Humphries family: c1..c_2g is the chain a_1, b_1,
    a_1+a_2, b_2, ..., a_{g-1}+a_g, b_g, and c0 = a_2."""
    chain = [basis_vector(g, "a1")]
    for i in range(1, g + 1):
        chain.append(basis_vector(g, f"b{i}"))
        if i < g:
            chain.append([x + y for x, y in zip(basis_vector(g, f"a{i}"), basis_vector(g, f"a{i + 1}"))])
    out = {"c0": basis_vector(g, "a2")}
    out.update({f"c{i + 1}": v for i, v in enumerate(chain)})
    return out


def twist_classes(g: int) -> dict[str, list[int]]:
    """Twist symbol -> homology class, for the standard and Humphries curves."""
    out = {f"T_{kind}{i}": basis_vector(g, f"{kind}{i}") for kind in "ab" for i in range(1, g + 1)}
    out.update({f"T_{lab}": v for lab, v in humphries_classes(g).items()})
    return out


def pairing(g: int, x, y) -> int:
    return sum(x[i] * y[g + i] - x[g + i] * y[i] for i in range(g))


def form(g: int):
    J = [[0] * (2 * g) for _ in range(2 * g)]
    for i in range(g):
        J[i][g + i] = 1
        J[g + i][i] = -1
    return J


def right_twist(g: int, M, v, e: int):
    """M * transvection(v)^e in O(n^2): M + e (M v) w^T."""
    w = [v[g + j] for j in range(g)] + [-v[j] for j in range(g)]
    Mv = mat_vec(M, v)
    return [[m + e * mv * wj for m, wj in zip(row, w)] for row, mv in zip(M, Mv)]


def word_matrix(g: int, letters):
    """Product of twist powers, leftmost letter first: (class, exponent) pairs."""
    M = identity(2 * g)
    for v, e in letters:
        M = right_twist(g, M, v, e)
    return M


def symplectic_inverse(g: int, S):
    """S^-1 = -J S^T J for S in Sp(2g, Z)."""
    J = form(g)
    return [[-x for x in row] for row in mat_mul(mat_mul(J, transpose(S)), J)]


def sp_order(g: int, L: int) -> int:
    """|Sp(2g, Z/L)|: multiplicative over prime powers p^k || L, and
    |Sp(2g, Z/p^k)| = p^((k-1) g(2g+1)) |Sp(2g, F_p)|."""
    order = 1
    p = 2
    rest = L
    while rest > 1:
        if rest % p == 0:
            k = 0
            while rest % p == 0:
                rest //= p
                k += 1
            field = p ** (g * g)
            for i in range(1, g + 1):
                field *= p ** (2 * i) - 1
            order *= p ** ((k - 1) * g * (2 * g + 1)) * field
        p += 1
    return order


# ---------------------------------------------------------------------------
# third exterior powers
# ---------------------------------------------------------------------------

def triples(n: int):
    return list(itertools.combinations(range(n), 3))


def wedge3_matrix(M):
    """Entries are the 3x3 minors of M, rows and columns indexed by increasing
    triples in lexicographic order."""
    rows_idx = triples(len(M))
    cols_idx = triples(len(M[0]))
    out = []
    for (i, j, k) in rows_idx:
        Ri, Rj, Rk = M[i], M[j], M[k]
        out.append([
            Ri[p] * (Rj[q] * Rk[r] - Rj[r] * Rk[q])
            - Ri[q] * (Rj[p] * Rk[r] - Rj[r] * Rk[p])
            + Ri[r] * (Rj[p] * Rk[q] - Rj[q] * Rk[p])
            for (p, q, r) in cols_idx
        ])
    return out


def wedge3_vector(u, v, w):
    """u ^ v ^ w in triple coordinates."""
    return [row[0] for row in wedge3_matrix([[a, b, c] for a, b, c in zip(u, v, w)])]


def omega_relations(vectors_a, vectors_b, images):
    """Columns h ^ omega for h in `images`, omega = sum a_i ^ b_i; all vectors
    already written in the coordinates of the lattice being wedged."""
    cols = []
    for h in images:
        col = None
        for a, b in zip(vectors_a, vectors_b):
            t = wedge3_vector(h, a, b)
            col = t if col is None else [x + y for x, y in zip(col, t)]
        cols.append(col)
    return transpose(cols)


# ---------------------------------------------------------------------------
# word metric in Z^k x|_A Z
# ---------------------------------------------------------------------------

def bfs_lengths(A, radius: int) -> dict:
    """Exact word lengths in Z^k x|_A Z for the generators e_1..e_k, t and
    their inverses, out to `radius`; keys are (vector, t)."""
    k = len(A)
    Ainv = inverse(A)
    cols = {0: identity(k)}
    for s in range(1, radius + 1):
        cols[s] = mat_mul(cols[s - 1], A)
        cols[-s] = mat_mul(cols[-s + 1], Ainv)
    cols = {s: transpose(P) for s, P in cols.items()}           # columns of A^s
    start = ((0,) * k, 0)
    lengths = {start: 0}
    frontier = [start]
    for d in range(1, radius + 1):
        nxt = []
        for v, s in frontier:
            for col in cols[s]:
                for sign in (1, -1):
                    nb = (tuple(a + sign * b for a, b in zip(v, col)), s)
                    if nb not in lengths:
                        lengths[nb] = d
                        nxt.append(nb)
            for nb in ((v, s + 1), (v, s - 1)):
                if nb not in lengths:
                    lengths[nb] = d
                    nxt.append(nb)
        frontier = nxt
    return lengths
