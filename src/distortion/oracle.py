"""Brute-force ground truth: exact word metrics in semidirect products
Z^k x| Z and closure orders of finite matrix groups.

These oracles are deliberately independent of the certificate machinery: the
semidirect ball gives honest ambient word lengths to compare certificates
against, and the finite closures validate generating tables (a family of
twist classes should hit the full symplectic group mod 2).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .exact import IntMatrix, IntVector, _cramer


class ResourceLimitError(RuntimeError):
    """Raised when a search would exceed its configured state budget."""


# ---------------------------------------------------------------------------
# semidirect products Z^k x| Z
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SemidirectGroup:
    """Z^k x|_A Z with A unimodular: elements (v, t), product
    (v, s)(w, u) = (v + A^s w, s + u), generators e_1..e_k and t."""

    automorphism: IntMatrix
    # s -> A^s, filled on demand; outside equality and hashing
    _powers: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        if not self.automorphism.is_square():
            raise ValueError("automorphism must be square")
        if self.automorphism.det() not in (1, -1):
            raise ValueError("automorphism must be unimodular")

    @property
    def rank(self) -> int:
        return self.automorphism.rows

    def identity(self) -> tuple:
        return ((0,) * self.rank, 0)

    def power(self, s: int) -> IntMatrix:
        P = self._powers.get(s)
        if P is None:
            # negative levels reuse one inverse: A^s = (A^-1)^-s
            P = self._powers[s] = self.automorphism ** s if s >= -1 else self.power(-1) ** -s
        return P

    def multiply(self, x: tuple, y: tuple) -> tuple:
        (v, s), (w, u) = x, y
        img = self.power(s).apply(IntVector(w))
        return (tuple(a + b for a, b in zip(v, img.entries)), s + u)

    def invert(self, x: tuple) -> tuple:
        v, s = x
        img = self.power(-s).apply(IntVector(v))
        return (tuple(-a for a in img.entries), -s)


@dataclass(frozen=True)
class BfsBall:
    """Exact word lengths (symmetric generating set) out to `radius`."""

    radius: int
    lengths: dict
    layer_sizes: tuple

    def word_length(self, element: tuple) -> int | None:
        return self.lengths.get(element)

    def __len__(self) -> int:
        return len(self.lengths)

    def sorted_items(self):
        return sorted(self.lengths.items())


def bfs_ball(group: SemidirectGroup, radius: int, state_cap: int = 10_000_000) -> BfsBall:
    """Breadth-first exact ball in the word metric of {e_1..e_k, t}^+-.

    Aborts with ResourceLimitError before expanding a layer whose projected
    size would push the total past state_cap.
    """
    if radius < 0:
        raise ValueError("radius must be >= 0")
    k = group.rank
    # columns of A^s for every twist level reachable inside the ball
    power_cols = {
        s: [group.power(s).column(i).entries for i in range(k)]
        for s in range(-radius, radius + 1)
    }
    lengths = {group.identity(): 0}
    frontier = [group.identity()]
    layer_sizes = [1]
    moves_per_state = 2 * k + 2
    for _ in range(radius):
        projected = len(lengths) + len(frontier) * moves_per_state
        if projected > state_cap:
            raise ResourceLimitError(
                f"projected ball size {projected} exceeds the cap {state_cap}"
            )
        nxt = []
        new_len = len(layer_sizes)
        for (v, s) in frontier:
            neighbours = []
            cols = power_cols[s]
            for i in range(k):
                col = cols[i]
                neighbours.append((tuple(a + b for a, b in zip(v, col)), s))
                neighbours.append((tuple(a - b for a, b in zip(v, col)), s))
            neighbours.append((v, s + 1))
            neighbours.append((v, s - 1))
            for nb in neighbours:
                if nb not in lengths:
                    lengths[nb] = new_len
                    nxt.append(nb)
        frontier = nxt
        layer_sizes.append(len(nxt))
        if not nxt:
            break
    return BfsBall(radius=radius, lengths=lengths, layer_sizes=tuple(layer_sizes))


@dataclass(frozen=True)
class DistortionRow:
    n: int
    intrinsic: int        # word length of A^n e_1 inside Z^k, i.e. its L1 norm
    extrinsic: int        # ambient word length of (A^n e_1, 0); <= 2n+1 always
    extrinsic_exact: bool


def distortion_table(
    group: SemidirectGroup,
    n_max: int,
    radius: int | None = None,
    state_cap: int = 10_000_000,
) -> list[DistortionRow]:
    """Rows n -> (intrinsic Z^k length of A^n e_1, ambient length of the same
    element).  The ambient column is BFS-exact where the ball reaches and the
    constructive bound 2n + 1 (the word t^n e_1 t^-n) beyond."""
    if n_max < 1:
        raise ValueError("need n_max >= 1")
    if radius is None:
        radius = 2 * n_max + 1
    ball = bfs_ball(group, radius, state_cap=state_cap)
    rows = []
    vec = IntVector.basis(group.rank, 0)
    for n in range(1, n_max + 1):
        vec = group.automorphism.apply(vec)
        element = (vec.entries, 0)
        exact = ball.word_length(element)
        rows.append(DistortionRow(
            n=n,
            intrinsic=vec.l1_norm(),
            extrinsic=exact if exact is not None else 2 * n + 1,
            extrinsic_exact=exact is not None,
        ))
    return rows


# ---------------------------------------------------------------------------
# finite matrix groups over Z/L
# ---------------------------------------------------------------------------

def _inverse_mod(M: IntMatrix, L: int) -> IntMatrix:
    """Inverse of M mod L as adj(M) det(M)^-1; det must be a unit mod L."""
    d, adj = _cramer(M.mod(L), IntMatrix.identity(M.rows))
    try:
        dinv = pow(d, -1, L)
    except ValueError:
        raise ValueError("generator is not invertible mod L") from None
    return IntMatrix(tuple(tuple(a * dinv % L for a in row) for row in adj.entries), M.rows)


@dataclass(frozen=True)
class ClosureResult:
    order: int
    histogram: tuple    # layer sizes of the BFS, i.e. counts per word length


# frontier rows per batched matmul; bounds the int64 temporaries of one step
CLOSURE_CHUNK = 200_000

# row route bound on R = L^n, the number of row codes: one image table of R
# int64 entries per generator, 512 KiB each at the bound
ROW_CODES_MAX = 2 ** 16


def finite_closure(
    generators: list[IntMatrix],
    L: int,
    state_cap: int = 10_000_000,
) -> ClosureResult:
    """Order of the group generated mod L, by layered breadth-first closure.

    Each layer multiplies the frontier on the right by every generator
    (inverses included); layer sizes double as the word-length histogram over
    the symmetric generating set.  Before a layer is expanded, the projected
    size len(seen) + len(frontier) * m, with m the number of distinct
    generators and inverses mod L, must stay within state_cap, else
    ResourceLimitError.

    Two routes, chosen from (n, L) alone:

    * Row route, when L^(n^2) < 2^62 and R = L^n <= ROW_CODES_MAX.  Row i of
      a matrix has the base-L code c_i in [0, R), and the matrix is the one
      int64 key sum_i c_i R^i.  Row i of M G is row_i(M) G, so a table
      img_G[c] = code(row(c) G mod L) per generator turns a product into
      gathers and integer adds.  `seen` is a sorted int64 array: each layer's
      candidates are sorted in place and deduplicated, the keys already seen
      are found with searchsorted, and the fresh ones are merged in with
      np.insert.  np.unique is not used: on numpy 2.4 it deduplicates int64
      through a hash table, and the Humphries closure g=3 mod 2 took 4.5 s
      with it against 0.8 s with the explicit sort.
    * Matrix route otherwise: batched (N, n, n) products reduced mod L, in
      int64 when n (L - 1)^2 < 2^63 and on Python ints (object arrays)
      beyond, each keyed by the tuple of its entries in a Python set.
    """
    if L < 2:
        raise ValueError("modulus must be >= 2")
    if not generators:
        raise ValueError("no generators supplied")
    n = generators[0].rows
    # a product of residues has entries up to n (L - 1)^2; past int64 the
    # products run on Python ints
    dtype = np.int64 if n * (L - 1) ** 2 < 2 ** 63 else object
    mats = []
    seen_mats = set()
    for G in generators:
        if G.shape != (n, n):
            raise ValueError("generators must share one square shape")
        for M in (G.mod(L), _inverse_mod(G, L)):
            if M.entries not in seen_mats:
                seen_mats.add(M.entries)
                mats.append(np.array(M.entries, dtype=dtype))

    if L ** (n * n) < 2 ** 62 and L ** n <= ROW_CODES_MAX:
        layers = _row_closure(mats, n, L, state_cap)
    else:
        layers = _matrix_closure(mats, n, L, state_cap)
    return ClosureResult(order=sum(layers), histogram=tuple(layers))


def _check_closure_cap(seen: int, frontier: int, moves: int, state_cap: int) -> None:
    if seen + frontier * moves > state_cap:
        raise ResourceLimitError(
            f"projected closure size {seen + frontier * moves} exceeds the cap {state_cap}"
        )


def _row_closure(mats: list, n: int, L: int, state_cap: int) -> list[int]:
    R = L ** n
    place = L ** np.arange(n, dtype=np.int64)
    rows_of_code = (np.arange(R, dtype=np.int64)[:, None] // place) % L
    images = [((rows_of_code @ G) % L) @ place for G in mats]
    key_place = [R ** i for i in range(n)]
    # row i of the identity has the code L^i
    seen = np.array([sum(L ** i * R ** i for i in range(n))], dtype=np.int64)
    frontier = seen
    layers = [1]
    while len(frontier):
        _check_closure_cap(len(seen), len(frontier), len(mats), state_cap)
        codes = [(frontier // p) % R for p in key_place]
        cand = np.concatenate([
            sum(img[c] * p for c, p in zip(codes, key_place)) for img in images
        ])
        cand.sort()
        cand = cand[np.concatenate(([True], cand[1:] != cand[:-1]))]
        at = np.searchsorted(seen, cand)
        fresh = seen[np.minimum(at, len(seen) - 1)] != cand
        frontier = cand[fresh]
        seen = np.insert(seen, at[fresh], frontier)
        if len(frontier):
            layers.append(len(frontier))
    return layers


def _matrix_closure(mats: list, n: int, L: int, state_cap: int) -> list[int]:
    def keys_of(batch):
        return list(map(tuple, batch.reshape(len(batch), n * n).tolist()))

    ident = np.eye(n, dtype=mats[0].dtype)
    seen = set(keys_of(ident[None, :, :]))
    frontier = ident[None, :, :]
    layers = [1]
    while len(frontier):
        _check_closure_cap(len(seen), len(frontier), len(mats), state_cap)
        new_blocks = []
        for G in mats:
            for start in range(0, len(frontier), CLOSURE_CHUNK):
                block = frontier[start:start + CLOSURE_CHUNK]
                prod = (block @ G) % L
                fresh = []
                for key, idx in zip(keys_of(prod), range(len(prod))):
                    if key not in seen:
                        seen.add(key)
                        fresh.append(idx)
                if fresh:
                    new_blocks.append(prod[fresh])
        frontier = np.concatenate(new_blocks) if new_blocks else np.zeros((0, n, n), dtype=mats[0].dtype)
        if len(frontier):
            layers.append(len(frontier))
    return layers
