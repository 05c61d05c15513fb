"""Third exterior powers of lattices and Johnson-style target modules.

The basis of wedge^3 Z^n is the set of triples (i, j, k) with i < j < k in
lexicographic order; e_i ^ e_j ^ e_k for an increasing triple is a positive
basis vector.  wedge3_map takes the 3x3 minors of a dense map in numpy.  A
target's values, relations and induced action wedge sparse vectors (_wedge);
no other module reads its coordinates.  On H = Z^{2g} the form class omega =
a_1^b_1 + ... + a_g^b_g embeds H into wedge^3 H by h |-> h ^ omega; the
quotient by that image is the target module used for word-length lower
bounds on the kernel of the homology action.  It is one case of a single
construction: relative to a primitive sublattice W, the targets are
wedge^3(H/W) / H^W, and W = 0 gives (wedge^3 H)/H.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from operator import mul

import numpy as np

from .exact import (
    IntMatrix,
    IntPoly,
    IntVector,
    QuotientModule,
    ResourceLimitError,
    char_poly,
    check_char_poly_work,
    mat_mul,
    matrix_to_json,
    quotient_module,
)
from .symplectic import SymplecticContext


@lru_cache(maxsize=None)
def wedge3_space(n: int) -> tuple[tuple[int, int, int], ...]:
    """The basis of wedge^3 Z^n: its increasing triples, in lexicographic order."""
    return tuple(itertools.combinations(range(n), 3))


def _array(rows, a: int) -> np.ndarray:
    """rows as int64 when a = max|entry| has 6 a^3 < 2^63 (no minor can
    overflow), else as Python ints (object dtype)."""
    return np.array(rows, dtype=np.int64 if 6 * a ** 3 < 1 << 63 else object)


def wedge3_map(M: IntMatrix) -> IntMatrix:
    """Induced map on wedge^3: entries are the 3x3 minors of M.  Accepts any
    r x c map with r, c >= 3 (rectangular ones arise as quotient projections)
    and is functorial: wedge3_map(A*B) = wedge3_map(A)*wedge3_map(B).

    Column (p, q, r) is M_p ^ M_q ^ M_r: row (i, j, k) holds the minor on those
    rows, expanded along M_p by the 2x2 cofactors of M_q and M_r, in one numpy
    pass.  With a = max|M|, each cofactor has size at most 2 a^2 and each
    minor at most 6 a^3: the kernel runs in int64 when 6 a^3 < 2^63, and on
    Python ints otherwise.
    """
    if M.rows < 3 or M.cols < 3:
        raise ValueError("wedge^3 needs dimensions >= 3")
    (i, j, k), (p, q, r) = (np.array(wedge3_space(n)).T for n in M.shape)
    A = _array(M.entries, M.max_abs())
    X, Y, Z = A[:, p], A[:, q], A[:, r]
    C = Y[:, None] * Z[None] - Z[:, None] * Y[None]      # C[a, b] = Y_a Z_b - Y_b Z_a
    out = X[i] * C[j, k]
    out -= X[j] * C[i, k]
    out += X[k] * C[i, j]
    return IntMatrix(tuple(map(tuple, out.tolist())), len(p))


def _wedge(x, y, z, out: dict, scale: int = 1) -> None:
    """Add scale * x ^ y ^ z to out, a {increasing triple: coefficient} dict;
    x, y, z list (index, coefficient) pairs, repeats adding.  y ^ z comes
    first, over pairs q < r; e_p ^ e_q ^ e_r is then +-(sorted triple), - iff q < p < r."""
    yz = {}
    for q, b in y:
        for r, c in z:
            if q != r:
                pair, bc = ((q, r), scale * b * c) if q < r else ((r, q), -scale * b * c)
                yz[pair] = yz.get(pair, 0) + bc
    for p, a in x:
        for (q, r), bc in yz.items():
            if p != q and p != r:
                t = (p, q, r) if p < q else (q, r, p) if p > r else (q, p, r)
                out[t] = out.get(t, 0) + (-a * bc if t[1] == p else a * bc)


def _nonzeros(M: IntMatrix) -> list[list[tuple[int, int]]]:
    """Each column of M as the (row, entry) pairs of its nonzeros."""
    return [[(i, c) for i, c in enumerate(col) if c] for col in (zip(*M.entries) if M.rows else [()] * M.cols)]


# ---------------------------------------------------------------------------
# target modules
# ---------------------------------------------------------------------------

# most entries relative_target lets each dense C(m,3) x C(m,3) transform of
# its wedge^3 quotient take, m the rank of H/W: C(24,3)^2 = 4,096,576 admits
# the closed and boundary targets up to genus 12 (about 170 MB)
TARGET_MAX_ENTRIES = 1 << 22


@dataclass(frozen=True)
class RelativeTarget:
    """The module wedge^3(H/W) / H^W for a primitive sublattice W < H.

    H^W is the image of h |-> hbar ^ omegabar, where omegabar is the image of
    omega in wedge^2(H/W); the boundary variant sets H^W = 0.  W must be
    primitive so that H/W is free and wedge^3 models its degree-3 homology.
    W = 0 gives the absolute targets wedge^3 H and (wedge^3 H)/H.
    """

    genus: int
    variant: str
    h_quotient: QuotientModule     # H/W with free coordinates; relations: the basis of W
    space: tuple                   # basis triples of wedge^3 of H/W
    module: QuotientModule         # relations: generators of H^W
    # H's basis label -> the nonzeros of its column of h_quotient.projection
    _bars: dict = field(repr=False, compare=False)

    @property
    def free_rank(self) -> int:
        return self.module.free_rank

    @property
    def torsion(self) -> tuple[int, ...]:
        return self.module.torsion

    @cached_property
    def _projection(self) -> dict:
        """Basis triple -> the nonzeros of its column of module.projection."""
        return dict(zip(self.space, _nonzeros(self.module.projection)))

    @cached_property
    def _section(self) -> list:
        """Each column of module.section as (basis triple, entry) pairs."""
        return [[(self.space[k], s) for k, s in col] for col in _nonzeros(self.module.section)]

    def _image(self, wedges) -> tuple[int, ...]:
        """Free coordinates of the sum of s x ^ y ^ z over (x, y, z, s) in wedges."""
        terms, out = {}, [0] * self.free_rank
        for x, y, z, s in wedges:
            _wedge(x, y, z, terms, s)
        for t, c in terms.items():
            for row, e in self._projection[t]:
                out[row] += c * e
        return tuple(out)

    def value(self, x, y, z) -> IntVector:
        """Free coordinates of xbar ^ ybar ^ zbar; x, y, z list labels of H's basis (a1, b2, ...)."""
        xbar, ybar, zbar = ([ic for lab in v for ic in self._bars[lab]] for v in (x, y, z))
        return IntVector(self._image([(xbar, ybar, zbar, 1)]))


def johnson_target(g: int, variant: str = "closed") -> RelativeTarget:
    """The target for homology-trivial mapping classes, W = 0: the rank-C(2g,3)
    module wedge^3 H (variant 'boundary') or the quotient (wedge^3 H)/H of rank
    C(2g,3) - 2g (variant 'closed')."""
    if g < 2:
        raise ValueError("targets require genus >= 2")
    return relative_target(g, IntMatrix.zero(2 * g, 0), variant)


def relative_target(g: int, w_basis: IntMatrix, variant: str = "closed") -> RelativeTarget:
    """Build the target relative to the primitive sublattice spanned by the
    columns of w_basis (an empty matrix gives the absolute target).

    ResourceLimitError, before H/W is built, if the Smith transforms of
    wedge^3(H/W) / H^W, dense lists of C(m,3)^2 entries, would pass
    TARGET_MAX_ENTRIES for m = 2g - (columns of w_basis): a primitive W has
    exactly that rank m of H/W, and any other W a larger one."""
    if variant not in ("closed", "boundary"):
        raise ValueError(f"unknown variant {variant!r}")
    n = 2 * g
    if w_basis.rows != n or w_basis.cols > n:
        raise ValueError(f"W basis must have {n} rows and at most {n} columns")
    m = n - w_basis.cols
    if (size := math.comb(m, 3) ** 2) > TARGET_MAX_ENTRIES:
        raise ResourceLimitError(f"the target's transforms would hold C({m},3)^2 = {size} entries "
                                 f"each, over the cap {TARGET_MAX_ENTRIES}")
    hq = quotient_module(n, w_basis)
    if hq.free_rank != m or hq.torsion:
        raise ValueError("W is not a primitive sublattice (H/W would have torsion)")
    if m < 3:
        raise ValueError("quotient rank below 3 leaves no wedge^3 target")
    space = wedge3_space(m)
    bar = dict(zip(SymplecticContext(g).basis_labels(), _nonzeros(hq.projection)))
    if variant == "boundary":
        hw = IntMatrix.zero(len(space), 0)
    else:
        # the column of basis vector h is hbar ^ omegabar = sum_i hbar ^ abar_i ^ bbar_i
        columns = []
        for h in bar.values():
            terms = {}
            for i in range(1, g + 1):
                _wedge(h, bar[f"a{i}"], bar[f"b{i}"], terms)
            columns.append([terms.get(t, 0) for t in space])
        hw = IntMatrix(tuple(zip(*columns)), n)
    return RelativeTarget(
        genus=g,
        variant=variant,
        h_quotient=hq,
        space=space,
        module=quotient_module(len(space), hw),
        _bars=bar,
    )


# ---------------------------------------------------------------------------
# induced actions
# ---------------------------------------------------------------------------

def _quotient_action(target: RelativeTarget, M: IntMatrix) -> IntMatrix:
    """Mbar = Ph M Sh, the matrix of the action of M on H/W, Ph and Sh the
    projection and section of H/W.  Raises unless M carries W into W: then
    MW = W (M is unimodular and W primitive), so M induces Mbar."""
    if M.shape != (2 * target.genus, 2 * target.genus):
        raise ValueError("genus mismatch")
    for w in target.h_quotient.relations.columns():
        if not target.h_quotient.contains(M.apply(w)):
            raise ValueError("action does not preserve W")
    return mat_mul(target.h_quotient.projection, mat_mul(M, target.h_quotient.section))


def induced_action(target: RelativeTarget, M: IntMatrix) -> IntMatrix:
    """Matrix of the induced action on the target's free coordinates.

    Raises unless M carries W into W (_quotient_action), so that M induces
    Mbar on H/W.  M fixes omega, so wedge^2 Mbar fixes omegabar, and
    Mbar(hbar ^ omegabar) = (Mh)bar ^ omegabar lies in H^W: wedge^3 Mbar
    carries the relations into themselves and acts on the quotient.  The
    result is functorial in M.

    It is P wedge^3(N) S, P and S the module's projection and section, N =
    Ph M Sh the matrix of Mbar.  Column t of S is sum_k s_k e_p ^ e_q ^ e_r;
    wedge^3(N) sends it to sum_k s_k N_p ^ N_q ^ N_r, and column t is P of
    that: one _wedge per s_k, costing up to m^3 steps for a dense m x m N.
    """
    N = _nonzeros(_quotient_action(target, M))
    columns = [target._image((N[i], N[j], N[k], s) for (i, j, k), s in col) for col in target._section]
    return IntMatrix(tuple(zip(*columns)), len(columns))


def induced_char_poly(target: RelativeTarget, M: IntMatrix) -> IntPoly:
    """char_poly(induced_action(target, M)), from the m x m matrix Mbar of
    _quotient_action alone, with m the rank of H/W and N = C(m, 3).

    Let chi = char_poly(Mbar), of roots l_1..l_m (with multiplicity).  The
    roots of wedge^3 Mbar are the N products l_a l_b l_c, a < b < c.
    - t_j = tr Mbar^j = sum_a l_a^j comes from chi by Newton's identities
      (_power_sums), for j <= 3N, with no division.
    - Those products' k-th power sum is e_3 of the l_a^k, so
      p_k = (t_k^3 - 3 t_k t_2k + 2 t_3k) / 6.  p_k is a symmetric integer
      polynomial in the roots of the monic integer chi, so an integer, and
      the division by 6 is exact.
    - Newton's identities turn p_1..p_N into chi(wedge^3 Mbar)
      (_from_power_sums).  Its coefficients are integers, as it is the
      characteristic polynomial of the integer matrix wedge3_map(Mbar), so
      each division by k there is exact.
    Over Q, 0 -> H^W -> wedge^3(H/W) -> target -> 0 is exact and carried
    into itself by M (induced_action), and characteristic polynomials
    multiply over such a sequence.  The target's free coordinates span a
    lattice in the quotient, so its factor is char_poly(rho(M)).  H^W is
    the image of H/W under the map hbar |-> hbar ^ omegabar, which commutes
    with the action because wedge^2 Mbar fixes omegabar.  When H^W has rank
    m (closed torelli; pullback, where g - h >= 3), that map is injective,
    so H^W is isomorphic to H/W as a module and its factor is chi: the
    result is chi(wedge^3 Mbar) / chi, an exact division.  When H^W = 0
    (boundary; lagrangian, where omegabar = 0) the result is
    chi(wedge^3 Mbar).  ValueError for any other rank of H^W.

    Work: the roots of chi(wedge^3 Mbar) are the l_a l_b l_c, and each l_a
    lies in C(m - 1, 2) triples.  So its Mahler measure is at most
    M(chi)^C(m - 1, 2), which is at most ||chi||_2^C(m - 1, 2) (Landau).
    Its k-th coefficient is e_k of its roots, so at most C(N, k) times that
    measure.  Every |l_a| and |l_a l_b l_c| is at most M(chi), so
    |t_j| <= m ||chi||_2^j and |p_k| <= N ||chi||_2^k.  _wedge3_work turns
    these bounds into the cost of the three loops; check_char_poly_work
    compares it with the cap before the first Newton step.
    """
    Mbar = _quotient_action(target, M)
    chi = char_poly(Mbar)
    m, N = Mbar.rows, len(target.space)
    if (hw := N - target.free_rank) not in (0, m):
        raise ValueError(f"H^W has rank {hw}, neither 0 nor {m}: its factor is not known from Mbar")
    check_char_poly_work(target.free_rank, _wedge3_work(chi))
    t = [m] + _power_sums(chi.coeffs, 3 * N)
    wedge3 = _from_power_sums([(t[k] ** 3 - 3 * t[k] * t[2 * k] + 2 * t[3 * k]) // 6 for k in range(1, N + 1)])
    return wedge3.exact_div(chi) if hw else wedge3


def _power_sums(coeffs, count: int) -> list[int]:
    """t_1..t_count, the power sums of the roots of the monic polynomial
    x^m + a_1 x^(m-1) + ... + a_m of these coefficients (constant term
    first), by Newton's identities: t_j = -(j a_j + sum_{0<i<j} a_i t_(j-i)),
    with a_i = 0 for i > m."""
    a, t = coeffs[-2::-1], []
    for j in range(1, count + 1):
        r = min(j - 1, len(a))
        s = sum(map(mul, a[:r], reversed(t[j - 1 - r:])))
        t.append(-(s + j * a[j - 1] if j <= len(a) else s))
    return t


def _from_power_sums(p) -> IntPoly:
    """The monic polynomial x^N + b_1 x^(N-1) + ... + b_N whose roots have
    the power sums p_1..p_N, by Newton's identities:
    b_k = -(p_k + sum_{0<i<k} b_i p_(k-i)) / k, exact for integer b."""
    b = []
    for k in range(1, len(p) + 1):
        b.append(-((p[k - 1] + sum(map(mul, b, reversed(p[:k - 1])))) // k))
    return IntPoly(tuple(reversed(b)) + (1,))


def _wedge3_work(chi: IntPoly) -> int:
    """An estimate, in the steps of char_poly_work, of induced_char_poly's
    work after chi: a product of an a-bit and a b-bit integer costs
    (a // 64 + 1)(b // 64 + 1), with the bounds of its docstring on t_j,
    p_k and the coefficients, and ||chi||_2 < 2^L.  _power_sums takes m
    products per t_j, j <= 3N; each p_k three of at most t_2k by t_k; and
    _from_power_sums N + 1 - i products by p_i."""
    m = chi.degree
    N, L = math.comb(m, 3), sum(c * c for c in chi.coeffs).bit_length() // 2 + 1

    def words(bits):
        return bits // 64 + 1

    coeff = words(N + math.comb(m - 1, 2) * L)     # log2 C(N, k) <= N
    return (sum(m * words(L) * words(j * L + m.bit_length()) for j in range(1, 3 * N + 1))
            + sum(3 * words(k * L + m.bit_length()) * words(2 * k * L + m.bit_length()) for k in range(1, N + 1))
            + sum((N + 1 - i) * coeff * words(i * L + N.bit_length()) for i in range(1, N + 1)))


def target_to_json(target: RelativeTarget) -> dict:
    """Serialized shape: symbolic basis triples, relation matrix, rank data.
    Each coordinate of H/W is named by its expression in the ambient symbols."""
    ambient = SymplecticContext(target.genus).basis_labels()
    names = ["".join(("-" if c < 0 else "+") + ("" if abs(c) == 1 else str(abs(c))) + ambient[j]
                     for j, c in enumerate(row) if c).lstrip("+") or "0"
             for row in target.h_quotient.projection.entries]
    return {
        "variant": target.variant,
        "genus": target.genus,
        "free_rank": target.free_rank,
        "torsion": list(target.torsion),
        "basis": [[names[i], names[j], names[k]] for (i, j, k) in target.space],
        "relations": matrix_to_json(target.module.relations),
    }
