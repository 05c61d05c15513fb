"""Brute-force ground truth: exact word metrics in semidirect products
Z^k x| Z and closure orders of finite matrix groups.

These oracles are deliberately independent of the certificate machinery: the
semidirect ball gives honest ambient word lengths to compare certificates
against, and the finite closures validate generating tables (a family of
twist classes should hit the full symplectic group mod 2).

Both searches run one breadth-first loop, `_layers`, which owns the
state-cap guard and keeps each layer as packed integer keys in one sorted
array, built by one kernel, `_next_layer`.  A ball state (v, t) of
radius r is the key sum_j (v_j + B) D^(k-1-j) T + (t + r), with
B = r max |A^s| over |s| <= r a proven bound on every coordinate in the
ball, D = 2B + 1 and T = 2r + 1.  A closure state, an n x n matrix mod L, is
the key sum_i c_i R^i, with c_i the base-L code of row i and R = L^n; a
product maps each row code through the generator, by a table gather on
int64 keys with R <= ROW_CODES_MAX and by decoding, multiplying and
re-encoding otherwise.
Keys are int64 when they provably fit (D^k T < 2^62 for the ball;
L^(n^2) < 2^62 and n (L - 1)^2 < 2^63 for the closure) and Python ints in
object arrays otherwise.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from itertools import islice

import numpy as np

from .exact import IntMatrix, IntVector, ResourceLimitError, _cramer


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
        img = self.power(s).apply(IntVector(tuple(w)))
        return (tuple(a + b for a, b in zip(v, img.entries)), s + u)

    def invert(self, x: tuple) -> tuple:
        v, s = x
        img = self.power(-s).apply(IntVector(tuple(v)))
        return (tuple(-a for a in img.entries), -s)


@dataclass(frozen=True, eq=False)
class BfsBall:
    """Exact word lengths (symmetric generating set) out to `radius`.

    `keys` holds the states packed as in `bfs_ball`, ascending, which is
    the order of the states (v, t); `depths[i]` is the word length of
    `keys[i]`.  A state (v, t) has the key
    sum_j (v_j + bound) places[j] + t + radius."""

    radius: int
    layer_sizes: tuple
    bound: int
    places: tuple
    keys: np.ndarray
    depths: np.ndarray

    def word_length(self, element: tuple) -> int | None:
        v, t = element
        # out-of-range coordinates would alias in-range keys
        if len(v) != len(self.places) or abs(t) > self.radius or any(abs(a) > self.bound for a in v):
            return None
        key = sum((a + self.bound) * p for a, p in zip(v, self.places)) + t + self.radius
        i = np.searchsorted(self.keys, key)
        return int(self.depths[i]) if i < len(self.keys) and self.keys[i] == key else None

    def __len__(self) -> int:
        return len(self.keys)

    def rows(self) -> np.ndarray:
        """One row (v_1, ..., v_k, t, length) per state, in ascending (v, t) order."""
        D = 2 * self.bound + 1
        cols = [self.keys // p % D - self.bound for p in self.places]
        return np.column_stack(cols + [self.keys % (2 * self.radius + 1) - self.radius, self.depths])

    @property
    def fiber_states(self) -> int:
        return int(np.count_nonzero(self.keys % (2 * self.radius + 1) == self.radius))

    @cached_property
    def lengths(self) -> dict:
        """{(v, t): word length}, built on first use."""
        k = len(self.places)
        return {(tuple(r[:k]), r[k]): r[k + 1] for r in self.rows().tolist()}


def _next_layer(prev: np.ndarray, frontier: np.ndarray, blocks, moves: int) -> np.ndarray:
    """The next breadth-first layer, ascending: the distinct keys of the
    `moves` candidate arrays `blocks`, each as long as `frontier`, that are
    in neither sorted layer `prev` nor `frontier`.

    Both searches move by a symmetric generating set, so their Cayley graphs
    are undirected and a neighbour of layer d lies in layer d - 1, d or d + 1:
    the last two layers are the only states a candidate can repeat, and no
    search keeps an array of every state seen.  `blocks` may be a generator:
    each block is copied into one buffer as soon as it is built, so a layer
    holds its candidates once.

    np.unique is not used: on numpy 2.4 it deduplicates int64 through a hash
    table, and the Humphries closure g=3 mod 2 took 4.5 s with it against
    0.8 s with the explicit sort."""
    F = len(frontier)
    cand = np.empty(moves * F, dtype=frontier.dtype)
    for i, keys in enumerate(blocks):
        cand[i * F:(i + 1) * F] = keys
    cand.sort()
    first = np.empty(len(cand), dtype=bool)
    first[:1] = True
    np.not_equal(cand[1:], cand[:-1], out=first[1:])
    cand = cand[first]
    known = np.concatenate((prev, frontier))
    known.sort(kind="stable")   # two sorted runs: one merge
    at = np.searchsorted(known, cand)
    np.minimum(at, len(known) - 1, out=at)
    return cand[known[at] != cand]


def _layers(start: np.ndarray, expand, moves: int, state_cap: int, what: str):
    """The breadth-first layers from the sorted keys `start`, each a sorted
    key array, until one is empty: `expand(frontier)` gives the `moves`
    candidate blocks of a layer for `_next_layer`.

    Before a layer is expanded, the projected size (states found) +
    len(frontier) * moves must stay within state_cap, else
    ResourceLimitError; a caller that stops taking layers expands no more."""
    prev, frontier, states = start[:0], start, len(start)
    while len(frontier):
        yield frontier
        projected = states + len(frontier) * moves
        if projected > state_cap:
            raise ResourceLimitError(f"projected {what} size {projected} exceeds the cap {state_cap}")
        prev, frontier = frontier, _next_layer(prev, frontier, expand(frontier), moves)
        states += len(frontier)


def bfs_ball(group: SemidirectGroup, radius: int, state_cap: int = 10_000_000) -> BfsBall:
    """Breadth-first exact ball in the word metric of {e_1..e_k, t}^+-.

    A word of length <= radius puts at most radius letters e_i^+-1, each at a
    level |s| <= radius, so every state (v, t) of the ball has |t| <= radius
    and |v_j| <= B = radius * max |A^s| over |s| <= radius.  It is packed into
    the key sum_j (v_j + B) D^(k-1-j) T + (t + radius), D = 2B + 1,
    T = 2 radius + 1: one integer per state, ordered as (v, t) is.  The
    packing is linear, so the move e_i^+-1 at level s adds +-delta[s, i], the
    packed column A^s e_i, and t^+-1 adds +-1: a layer is one gather and 2k + 2
    adds.  Keys are int64 when D^k T < 2^62 and Python ints (object arrays)
    beyond.  The layers are the first radius + 1 of `_layers`, the loop
    `finite_closure` runs too, merged once at the end into the ball's keys.

    Aborts with ResourceLimitError where the guard of `_layers` trips, on
    2k + 2 moves per state, and before forming any power when the ball's
    distinct words t^s e_1^a, |s| + |a| <= radius (2 radius^2 + 2 radius + 1
    states, or 2 radius + 1 at rank 0) already pass it.
    """
    if radius < 0:
        raise ValueError("radius must be >= 0")
    if state_cap < 1:
        raise ValueError("state cap must be >= 1")
    k = group.rank
    least = 2 * radius * radius + 2 * radius + 1 if k else 2 * radius + 1
    if least > state_cap:
        raise ResourceLimitError(f"ball of radius {radius} holds at least {least} states, over the cap {state_cap}")
    powers = [group.power(s) for s in range(-radius, radius + 1)]
    bound = radius * max(P.max_abs() for P in powers)
    D, T = 2 * bound + 1, 2 * radius + 1
    places = tuple(D ** (k - 1 - j) * T for j in range(k))
    dtype = np.int64 if D ** k * T < 2 ** 62 else object
    # delta[s + radius, i]: the key step of e_i at level s
    delta = np.array([
        [sum(P.entries[j][i] * places[j] for j in range(k)) for i in range(k)]
        for P in powers
    ], dtype=dtype).reshape(T, k)

    def expand(frontier):
        steps = delta[(frontier % T).astype(np.intp)].T
        return (frontier + d for step in (1, *steps) for d in (step, -step))

    identity = np.array([bound * sum(places) + radius], dtype=dtype)
    layers = list(islice(_layers(identity, expand, 2 * k + 2, state_cap, "ball"), radius + 1))
    keys = np.concatenate(layers)
    depths = np.repeat(np.arange(len(layers), dtype=np.int64), [len(layer) for layer in layers])
    order = np.argsort(keys, kind="stable")
    return BfsBall(radius=radius, layer_sizes=tuple(len(layer) for layer in layers),
                   bound=bound, places=places, keys=keys[order], depths=depths[order])


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


# table bound on R = L^n, the number of row codes: one image table of R
# int64 entries per generator, 512 KiB each at the bound
ROW_CODES_MAX = 2 ** 16


def finite_closure(
    generators: list[IntMatrix],
    L: int,
    state_cap: int = 10_000_000,
) -> ClosureResult:
    """Order of the group generated mod L, by layered breadth-first closure.

    Each layer of `_layers` multiplies the frontier on the right by every
    generator (inverses included); layer sizes double as the word-length
    histogram over the symmetric generating set, and they sum to the order.
    The guard of `_layers` counts m moves per state, m the number of distinct
    generators and inverses mod L.

    One key per matrix: row i mod L has the base-L code c_i in [0, R),
    R = L^n, and the matrix is the key sum_i c_i R^i < L^(n^2).  Row i of
    M G is row_i(M) G, so a product maps each row code c to the image
    code(row(c) G mod L).  The image is computed one of two ways, chosen from
    (n, L) alone:

    * int64 keys and R <= ROW_CODES_MAX: a gather from a table of all R
      images per generator, indexed by the codes;
    * otherwise: decode the codes to digit rows, multiply by G mod L and
      re-encode, the same expression that builds the table.

    Keys, codes and products are int64 when L^(n^2) < 2^62 and
    n (L - 1)^2 < 2^63, and Python ints in object arrays otherwise.  Under
    that bound no int64 step overflows: a key and each partial sum of it is
    below L^(n^2) < 2^62; a code is below L^n <= L^(n^2); and a digit row
    times G sums n products of residues, at most n (L - 1)^2 < 2^63.
    Neither half implies the other: n = 1 with L = 2^40 breaks the second,
    n = 4 with L = 2^16 + 1 the first.
    """
    if L < 2:
        raise ValueError("modulus must be >= 2")
    if state_cap < 1:
        raise ValueError("state cap must be >= 1")
    if not generators:
        raise ValueError("no generators supplied")
    n = generators[0].rows
    R = L ** n
    dtype = np.int64 if L ** (n * n) < 2 ** 62 and n * (L - 1) ** 2 < 2 ** 63 else object
    mats = []
    seen_mats = set()
    for G in generators:
        if G.shape != (n, n):
            raise ValueError("generators must share one square shape")
        for M in (G.mod(L), _inverse_mod(G, L)):
            if M.entries not in seen_mats:
                seen_mats.add(M.entries)
                mats.append(np.array(M.entries, dtype=dtype).reshape(n, n))
    place = np.array([L ** j for j in range(n)], dtype=dtype)

    def image(codes, G):
        # the codes of row(c) G mod L, c over an array of row codes
        return ((codes[..., None] // place % L) @ G % L) @ place

    # the codes index the tables, so a table needs int64 codes
    tables = (
        [image(np.arange(R, dtype=dtype), G) for G in mats]
        if dtype is np.int64 and R <= ROW_CODES_MAX else None
    )
    key_place = [R ** i for i in range(n)]
    row_place = np.array(key_place, dtype=dtype)

    def expand(frontier):
        if tables:
            codes = [(frontier // p) % R for p in key_place]
            return (sum(t[c] * p for c, p in zip(codes, key_place)) for t in tables)
        codes = frontier // row_place[:, None] % R
        return (row_place @ image(codes, G) for G in mats)

    # row i of the identity has the code L^i
    identity = np.array([sum(L ** i * R ** i for i in range(n))], dtype=dtype)
    layers = tuple(len(layer) for layer in _layers(identity, expand, len(mats), state_cap, "closure"))
    return ClosureResult(order=sum(layers), histogram=layers)
