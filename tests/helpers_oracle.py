"""Independent oracles used by the test suite.

Nothing here reuses the package's cyclotomic or Smith-form logic: polynomial
arithmetic is plain Fraction lists, the cyclotomic split is trial division by
every Phi_d with phi(d) <= degree on int lists, root moduli come from numpy on the
squarefree part (repeated roots would otherwise poison float root-finding),
characteristic polynomials come from Faddeev-LeVerrier on plain ints,
Dehn twists are I + e v (J v)^T with the form J written out entry by entry,
matrix products from the schoolbook triple loop on lists, third exterior
powers from cofactor expansion of each 3x3 minor, ranks from Fraction
elimination, growth is measured by brute-force exact powering, and semidirect balls come
from a breadth-first search over tuple states in a dict.
"""

import functools
import itertools
import math
from fractions import Fraction

import numpy as np


def poly_deriv(coeffs):
    return [i * c for i, c in enumerate(coeffs)][1:] or [Fraction(0)]


def poly_trim(coeffs):
    while len(coeffs) > 1 and coeffs[-1] == 0:
        coeffs = coeffs[:-1]
    return coeffs


def poly_mod(a, b):
    """Remainder of a by b over Q (coefficients constant-first)."""
    a = [Fraction(c) for c in a]
    b = poly_trim([Fraction(c) for c in b])
    while len(poly_trim(a)) >= len(b) and any(a):
        a = poly_trim(a)
        if len(a) < len(b):
            break
        f = a[-1] / b[-1]
        shift = len(a) - len(b)
        for i, c in enumerate(b):
            a[shift + i] -= f * c
        a = a[:-1]
    return poly_trim(a)


def poly_gcd_monic(a, b):
    a = poly_trim([Fraction(c) for c in a])
    b = poly_trim([Fraction(c) for c in b])
    while any(b):
        a, b = b, poly_mod(a, b)
    return [c / a[-1] for c in a]


def poly_div_exact(a, b):
    """Quotient a / b over Q, asserting zero remainder."""
    a = [Fraction(c) for c in a]
    b = poly_trim([Fraction(c) for c in b])
    q = [Fraction(0)] * (len(a) - len(b) + 1)
    while len(poly_trim(a)) >= len(b) and any(a):
        a = poly_trim(a)
        if len(a) < len(b):
            break
        f = a[-1] / b[-1]
        shift = len(a) - len(b)
        q[shift] = f
        for i, c in enumerate(b):
            a[shift + i] -= f * c
        a = a[:-1]
    assert not any(poly_trim(a)) or poly_trim(a) == [Fraction(0)], "division not exact"
    return q


def squarefree_part(int_coeffs):
    """Squarefree part of an integer polynomial, as floats for numpy."""
    g = poly_gcd_monic(int_coeffs, poly_deriv(list(int_coeffs)))
    sq = poly_div_exact(int_coeffs, g)
    return [float(c) for c in sq]


def max_root_modulus(int_coeffs) -> float:
    """Largest |root|, numerically, after removing repeated factors."""
    sq = squarefree_part(int_coeffs)
    if len(sq) <= 1:
        return 0.0
    roots = np.roots(sq[::-1])
    return float(max(abs(r) for r in roots)) if len(roots) else 0.0


def brute_norm_growth(M, v, n: int) -> int:
    """sup-norm of M^n v by exact iterated application."""
    w = v
    for _ in range(n):
        w = M.apply(w)
    return w.sup_norm()


def log_ratio_fit_per_step(values) -> float:
    """exp(mean log ratio) over the last ceil(N/2) steps of a positive integer
    sequence v_1..v_N, one Fraction -> float ratio per step; 1.0 for N = 1.
    The witness fit as first written, a reference for its telescoped form."""
    steps = len(values) - 1
    if steps < 1:
        return 1.0
    take = min(steps, math.ceil(len(values) / 2))
    logs = [
        math.log(float(Fraction(values[i + 1], values[i])))
        for i in range(steps - take, steps)
    ]
    return math.exp(sum(logs) / len(logs))


def witness_growth_brute(M, v, n_max: int) -> list[int]:
    """The sup-norms of M^n v, n = 1..n_max, by iterated plain-int products
    of a list-of-lists matrix."""
    A = [list(row) for row in M.entries]
    w = list(v.entries)
    norms = []
    for _ in range(n_max):
        w = [sum(a * b for a, b in zip(row, w)) for row in A]
        norms.append(max(abs(x) for x in w))
    return norms


def blockdiag_plain(M, blocks: int) -> list[list[int]]:
    """diag(M, ..., M), blocks copies of the list-of-lists M down the
    diagonal, as a list of rows: the action on H^points of a matrix on H."""
    n = len(M)
    return [[M[i][j - b * n] if b * n <= j < (b + 1) * n else 0 for j in range(n * blocks)]
            for b in range(blocks) for i in range(n)]


def grows_exponentially_brute(M, v, n: int = 60, factor: int = 1000) -> bool:
    """Brute-force exponential-growth detector via a doubling ratio.

    Exponential orbits multiply by at least lambda^n (lambda > 1.2 for the
    non-cyclotomic units reachable at these sizes) between steps n and 2n,
    while polynomial orbits of degree < dim gain at most ~2^dim; the wide gap
    makes the ratio test a sound discriminator, unlike a fixed absolute
    threshold, which linear growth crosses too.
    """
    if v.is_zero():
        return False
    a = brute_norm_growth(M, v, n)
    b = brute_norm_growth(M, v, 2 * n)
    return b > factor * a


def random_unimodular(rnd, size: int, factors: int):
    """Product of elementary row-addition matrices and occasional swaps."""
    from distortion.exact import IntMatrix, mat_mul

    M = IntMatrix.identity(size)
    for _ in range(factors):
        kind = rnd.random()
        rows = [list(r) for r in IntMatrix.identity(size).entries]
        i, j = rnd.sample(range(size), 2)
        if kind < 0.85:
            rows[i][j] = rnd.choice((-1, 1))
            E = IntMatrix.from_rows(rows)
        else:
            rows[i][i] = rows[j][j] = 0
            rows[i][j] = rows[j][i] = 1
            E = IntMatrix.from_rows(rows)
        M = mat_mul(M, E)
    return M


def embed_corner(M_h, g: int):
    """Embed an element of Sp(2h,Z) into Sp(2g,Z), acting as M_h on the first
    h handles <a_1..a_h, b_1..b_h> and as the identity on the others.  With
    the (a..., b...) basis ordering the embedded entries land at indices
    i < h and g <= i < g + h."""
    from distortion.exact import IntMatrix

    h = M_h.rows // 2
    if h > g:
        raise ValueError(f"cannot embed genus {h} into smaller genus {g}")
    n = 2 * g
    amb = [i if i < h else g + (i - h) for i in range(2 * h)]
    rows = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    for i in range(2 * h):
        for j in range(2 * h):
            rows[amb[i]][amb[j]] = M_h.entries[i][j]
    return IntMatrix.from_rows(rows, n)


def form_plain(g: int) -> list[list[int]]:
    """J = [[0, I], [-I, 0]] as a list of rows, so that <x, y> = x^T J y on
    the basis a_1..a_g, b_1..b_g: <a_i, b_i> = 1 = -<b_i, a_i>."""
    n = 2 * g
    return [[int(j == i + g) - int(i == j + g) for j in range(n)] for i in range(n)]


def twist_plain(v, e: int = 1) -> list[list[int]]:
    """The e-th power of the twist x |-> x + <x, v> v about the list v, as
    I + e v c^T with c_j = <e_j, v> = (J v)_j: v c^T squares to 0, as
    c^T v = <v, v> = 0."""
    n = len(v)
    J = form_plain(n // 2)
    c = [sum(a * b for a, b in zip(row, v)) for row in J]
    return [[int(i == j) + e * v[i] * c[j] for j in range(n)] for i in range(n)]


def mat_mul_plain(A, B, cols=None):
    """A B for matrices given as lists of rows of ints, by the schoolbook
    triple loop; cols is B's column count, needed when B has no rows."""
    m = len(B[0]) if cols is None else cols
    return [[sum(A[i][t] * B[t][j] for t in range(len(B))) for j in range(m)] for i in range(len(A))]


def det_plain(M) -> int:
    """Determinant of a square list-of-lists matrix by cofactor expansion."""
    if len(M) == 1:
        return M[0][0]
    return sum(
        (-1) ** j * M[0][j] * det_plain([row[:j] + row[j + 1:] for row in M[1:]])
        for j in range(len(M))
    )


def wedge3_plain(M):
    """The matrix of 3x3 minors of a list-of-lists matrix, rows and columns
    indexed by increasing triples in lexicographic order, each minor by
    cofactor expansion (det_plain)."""
    rows = itertools.combinations(range(len(M)), 3)
    cols = list(itertools.combinations(range(len(M[0])), 3))
    return [[det_plain([[M[i][c] for c in cc] for i in rr]) for cc in cols] for rr in rows]


def rank_plain(columns) -> int:
    """Rank over Q of integer vectors, by Gaussian elimination on Fractions."""
    rows = [[Fraction(a) for a in c] for c in columns]
    rank = 0
    for col in range(len(rows[0]) if rows else 0):
        piv = next((i for i in range(rank, len(rows)) if rows[i][col]), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        for i in range(rank + 1, len(rows)):
            f = rows[i][col] / rows[rank][col]
            rows[i] = [a - f * b for a, b in zip(rows[i], rows[rank])]
        rank += 1
    return rank


def greedy_span_plain(rank: int, candidates) -> dict:
    """name -> value of the candidates (name, list of ints) that raise the
    rank of those chosen before them, until it reaches `rank`; one rank
    recomputed from scratch per candidate.  SystemExit if they span less."""
    chosen = {}
    cols = []
    for name, value in candidates:
        if not any(value) or name in chosen:
            continue
        if rank_plain(cols + [value]) > len(cols):
            chosen[name] = value
            cols.append(value)
            if len(cols) == rank:
                break
    if len(cols) != rank:
        raise SystemExit(f"catalog only spans rank {len(cols)} of {rank}")
    return chosen


def closure_layers(generators, L: int) -> list[int]:
    """Word-length layers of the group generated mod L by invertible integer
    matrices and their inverses, by breadth-first search over tuple matrices.

    G^-1 is the power of G just before the cycle G, G^2, ... returns to the
    identity, so no modular inverse is needed."""
    n = len(generators[0])

    def mul(A, B):
        return tuple(
            tuple(sum(A[i][k] * B[k][j] for k in range(n)) % L for j in range(n))
            for i in range(n)
        )

    ident = tuple(tuple(int(i == j) for j in range(n)) for i in range(n))
    moves = []
    for G in generators:
        G = tuple(tuple(a % L for a in row) for row in G)
        power, inverse = G, ident
        while power != ident:
            power, inverse = mul(power, G), power
        moves += [G, inverse]
    seen = {ident}
    frontier = [ident]
    layers = [1]
    while True:
        nxt = []
        for M in frontier:
            for G in moves:
                P = mul(M, G)
                if P not in seen:
                    seen.add(P)
                    nxt.append(P)
        if not nxt:
            return layers
        layers.append(len(nxt))
        frontier = nxt


def char_poly_plain(M) -> list[int]:
    """Coefficients of det(xI - M), constant term first, for a square
    list-of-lists integer matrix, by the Faddeev-LeVerrier recurrence on
    plain ints: N_1 = M, c_{n-k} = -tr(N_k) / k, N_{k+1} = M (N_k + c_{n-k} I).
    Every trace division is checked to be exact."""
    n = len(M)
    coeffs = [0] * n + [1]
    N = [list(row) for row in M]
    for k in range(1, n + 1):
        tr = sum(N[i][i] for i in range(n))
        if tr % k:
            raise ArithmeticError("Faddeev-LeVerrier trace division was not exact")
        c = coeffs[n - k] = -(tr // k)
        if k < n:
            for i in range(n):
                N[i][i] += c
            N = [[sum(a * N[t][j] for t, a in enumerate(row)) for j in range(n)] for row in M]
    return coeffs


def ball_plain(A, radius: int) -> tuple[dict, list[int]]:
    """Exact word lengths in Z^k x|_A Z for the generators e_1..e_k, t and
    their inverses out to `radius`, as {(v, t): length}, and the layer sizes.

    A is a unimodular list-of-lists matrix; A^-1 is its adjugate times
    det A = +-1.  The state (v, s) times e_i^+-1 is (v +- A^s e_i, s)."""
    k = len(A)
    det = det_plain(A)
    assert det in (1, -1)

    def minor(i, j):
        return [row[:j] + row[j + 1:] for r, row in enumerate(A) if r != i]

    inv = [[det * (-1) ** (i + j) * (det_plain(minor(j, i)) if k > 1 else 1) for j in range(k)]
           for i in range(k)]

    def mul(X, Y):
        return [[sum(X[i][t] * Y[t][j] for t in range(k)) for j in range(k)] for i in range(k)]

    powers = {0: [[int(i == j) for j in range(k)] for i in range(k)]}
    for s in range(1, radius + 1):
        powers[s] = mul(powers[s - 1], A)
        powers[-s] = mul(powers[-s + 1], inv)
    start = ((0,) * k, 0)
    lengths = {start: 0}
    frontier = [start]
    layers = [1]
    for d in range(1, radius + 1):
        nxt = []
        for v, s in frontier:
            neighbours = [(v, s + 1), (v, s - 1)]
            for i in range(k):
                col = [row[i] for row in powers[s]]
                neighbours.append((tuple(a + c for a, c in zip(v, col)), s))
                neighbours.append((tuple(a - c for a, c in zip(v, col)), s))
            for nb in neighbours:
                if nb not in lengths:
                    lengths[nb] = d
                    nxt.append(nb)
        layers.append(len(nxt))
        frontier = nxt
    return lengths, layers


def euler_phi_plain(d: int) -> int:
    """phi(d) by the product formula over a trial-division factorization."""
    phi, m, p = d, d, 2
    while p * p <= m:
        if m % p == 0:
            phi -= phi // p
            while m % p == 0:
                m //= p
        p += 1
    return phi - phi // m if m > 1 else phi


def primes_below_plain(n: int) -> list:
    """The primes p < n, by the sieve of Eratosthenes."""
    sieve = [True] * n
    for p in range(2, math.isqrt(n - 1) + 1):
        if sieve[p]:
            sieve[p * p::p] = [False] * len(range(p * p, n, p))
    return [p for p in range(2, n) if sieve[p]]


def divmod_monic_plain(a, b):
    """Quotient and remainder of int lists a by the monic b (constant term
    first), by schoolbook long division."""
    a = list(a)
    q = [0] * max(0, len(a) - len(b) + 1)
    for i in range(len(a) - len(b), -1, -1):
        q[i] = a[i + len(b) - 1]
        for j, c in enumerate(b):
            a[i + j] -= q[i] * c
    return q, a[:len(b) - 1]


@functools.lru_cache(maxsize=None)
def cyclotomic_plain(d: int) -> tuple:
    """Phi_d by exact division of x^d - 1 by Phi_e for every proper divisor e."""
    p = [-1] + [0] * (d - 1) + [1]
    for e in range(1, d):
        if d % e == 0:
            p, rem = divmod_monic_plain(p, cyclotomic_plain(e))
            assert not any(rem)
    return tuple(p)


@functools.lru_cache(maxsize=None)
def cyclotomic_indices_plain(degree: int) -> tuple:
    """Every d with phi(d) <= degree, by scanning d <= 2 degree^2 (phi(d) >= sqrt(d / 2))."""
    return tuple(d for d in range(1, 2 * degree * degree + 1) if euler_phi_plain(d) <= degree)


def cyclotomic_part_plain(p):
    """(q, r) with p = q r for the monic int list p, q the largest cyclotomic
    divisor: trial division of r by Phi_d, with multiplicity, for every d
    with phi(d) <= deg p, as the package's split once did."""
    r = list(p)
    for d in cyclotomic_indices_plain(len(p) - 1):
        phi = cyclotomic_plain(d)
        while len(phi) <= len(r):
            quo, rem = divmod_monic_plain(r, phi)
            if any(rem):
                break
            r = quo
    q, rem = divmod_monic_plain(p, r)
    assert not any(rem)
    return q, r
