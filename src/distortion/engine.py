"""The lower-bound machine: equivariant subgroup data, exact growing-vector
tests, search for partially hyperbolic words, witness certificates for the
conjugate family x^n y x^-n, and upper-bound curves.

The central objects are an ambient action rho on a free module V together
with values psi(s) in V for the subgroup generators.  Equivariance
psi(x y x^-1) = rho(x) psi(y) turns exact matrix powers into word-length
lower bounds: the value of x^n y x^-n is rho(x)^n psi(y), and no product of
k subgroup generators can have a value of sup-norm above k*D, where D is the
largest generator value.  Everything numeric in a certificate is computed
from exact integers; floats appear only in the final fitted rates.
"""

from __future__ import annotations

import itertools
import json
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from importlib import resources

from .exact import (
    IntMatrix,
    IntVector,
    char_poly,
    cyclotomic_part,
    is_partially_hyperbolic,
    mat_mul,
    rational_rank,
    vector_from_json,
    vector_to_json,
)
from .exterior import induced_action, johnson_target, relative_target
from .mapclass import humphries_table, standard_curves
from .symplectic import SpElement, SymplecticContext, transvection


# ---------------------------------------------------------------------------
# equivariant data
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class EquivariantDatum:
    """Ambient generators with their action matrices on V, subgroup generators
    with their values in V, and the recorded constant D = max sup-norm of a
    generator value.  Subgroup symbols act trivially (conjugation inside the
    subgroup does not move values), so words may mix both kinds of symbol."""

    rank: int
    rho: dict
    psi: dict
    name: str = "custom"
    provenance: str = ""
    genus: int | None = None

    def __post_init__(self):
        for sym, M in self.rho.items():
            if M.shape != (self.rank, self.rank):
                raise ValueError(f"rho[{sym!r}] has shape {M.shape}, expected {(self.rank, self.rank)}")
            if M.det() not in (1, -1):
                raise ValueError(f"rho[{sym!r}] is not invertible over Z")
        for sym, v in self.psi.items():
            if v.dim != self.rank:
                raise ValueError(f"psi[{sym!r}] has dimension {v.dim}, expected {self.rank}")
        if set(self.rho) & set(self.psi):
            raise ValueError("ambient and subgroup symbols must be disjoint")

    @property
    def bound_constant(self) -> int:
        """D: the largest sup-norm among subgroup generator values."""
        return max((v.sup_norm() for v in self.psi.values()), default=0)

    def psi_spans(self) -> bool:
        """Do the generator values span V over Q?  (Surjectivity of the value
        map is an assumption of the method; this is the checkable shadow.)"""
        if not self.psi:
            return self.rank == 0
        cols = IntMatrix.from_columns([v.entries for v in self.psi.values()], self.rank)
        return rational_rank(cols) == self.rank

    def rho_of(self, symbol: str) -> IntMatrix:
        if symbol in self.rho:
            return self.rho[symbol]
        if symbol in self.psi:
            return IntMatrix.identity(self.rank)   # subgroup acts trivially on V
        raise KeyError(f"unknown symbol {symbol!r}")

    def rho_of_word(self, word) -> IntMatrix:
        """Product over (symbol, exponent) pairs, leftmost letter first."""
        acc = IntMatrix.identity(self.rank)
        for sym, exp in word:
            M = self.rho_of(sym)
            acc = mat_mul(acc, M ** exp)
        return acc

    def psi_of(self, symbol: str) -> IntVector:
        try:
            return self.psi[symbol]
        except KeyError:
            raise KeyError(f"unknown subgroup symbol {symbol!r}") from None


@dataclass(frozen=True)
class ConjugateNormalForm:
    """A product of conjugated subgroup generators: prod_i x_i s_i^{eps_i} x_i^-1,
    stored as (ambient word, subgroup symbol, sign) triples.  Empty = identity."""

    terms: tuple

    def __post_init__(self):
        for (_, _, sign) in self.terms:
            if sign not in (1, -1):
                raise ValueError("signs must be +1 or -1")

    @staticmethod
    def of(*terms) -> "ConjugateNormalForm":
        return ConjugateNormalForm(tuple((tuple(x), s, sign) for (x, s, sign) in terms))

    def conjugated(self, x_word) -> "ConjugateNormalForm":
        """The form for x * w * x^-1."""
        xw = tuple(x_word)
        return ConjugateNormalForm(tuple((xw + tuple(x), s, sign) for (x, s, sign) in self.terms))


def psi_extend(datum: EquivariantDatum, cnf: ConjugateNormalForm) -> IntVector:
    """Value of a conjugate normal form: sum of +-rho(x_i) psi(s_i).

    Well defined because V is abelian and the subgroup acts trivially on it,
    so conjugators may be rewritten by subgroup elements without changing the
    result."""
    acc = IntVector.zero(datum.rank)
    for (x_word, s, sign) in cnf.terms:
        v = datum.rho_of_word(x_word).apply(datum.psi_of(s))
        acc = acc + (v if sign == 1 else -v)
    return acc


def k_length_lower_bound(datum: EquivariantDatum, v: IntVector) -> int:
    """ceil(sup-norm / D): no product of fewer subgroup generators can reach v."""
    if v.dim != datum.rank:
        raise ValueError("vector does not live in V")
    if v.is_zero():
        return 0
    D = datum.bound_constant
    if D == 0:
        raise ValueError("datum has D = 0; no nonzero value is reachable")
    return -((-v.sup_norm()) // D)


# ---------------------------------------------------------------------------
# growing vectors and hyperbolic search
# ---------------------------------------------------------------------------

def growing_vector_test(M: IntMatrix, v: IntVector) -> bool:
    """Exact test for exponential growth of ||M^n v||.

    Split char_poly(M) = q * r into cyclotomic and cyclotomic-free parts; the
    test is q(M) v != 0.  If that vector is nonzero it generates, over Q, a
    module annihilated by a factor of r only; every irreducible factor of r
    has a root off the unit circle (Kronecker, |det M| = 1), so the orbit of
    any nonzero vector there grows exponentially.  Conversely q(M) v = 0
    confines v to the roots-of-unity part, where growth is polynomial.
    """
    if not M.is_square() or M.det() not in (1, -1):
        raise ValueError("growing-vector test requires a matrix with determinant +-1")
    if v.dim != M.rows:
        raise ValueError("dimension mismatch")
    q, _ = cyclotomic_part(char_poly(M))
    # Horner on the vector: q(M) v without forming q(M)
    acc = IntVector.zero(v.dim)
    for c in reversed(q.coeffs):
        acc = M.apply(acc) + v.scale(c)
    return not acc.is_zero()


def _reduced_words(alphabet, depth):
    """Reduced words (no s s^-1 cancellation) over signed generator letters,
    in lexicographic order of the letter sequence."""
    for word in itertools.product(alphabet, repeat=depth):
        ok = True
        for (i, s), (j, t) in zip(word, word[1:]):
            if i == j and s != t:
                ok = False
                break
        if ok:
            yield word


@dataclass(frozen=True)
class SearchResult:
    word: tuple
    matrix: IntMatrix
    noncyclotomic_factor: str


SAMPLES_PER_DEPTH = 4000


def search_partially_hyperbolic(
    generators: list[IntMatrix],
    budget: int,
    seed: int = 0,
) -> SearchResult | None:
    """Find a word in the generators (and inverses) whose product is partially
    hyperbolic, by iterative deepening.

    Depths up to 4 are exhausted in lexicographic order; deeper levels are
    sampled (SAMPLES_PER_DEPTH draws) with the seeded generator, so the
    outcome is a deterministic function of (generators, budget, seed).
    Words are pairs (index, sign).  Not finding a word proves nothing: the
    caller may retry with a bigger budget.
    """
    if not generators:
        raise ValueError("no generators supplied")
    n = generators[0].rows
    for G in generators:
        if G.shape != (n, n):
            raise ValueError("generators must share one square shape")
        if G.det() not in (1, -1):
            raise ValueError("generators must be unimodular")
    inverses = [G.inverse() for G in generators]
    alphabet = [(i, s) for i in range(len(generators)) for s in (1, -1)]

    def letter_matrix(letter):
        i, s = letter
        return generators[i] if s == 1 else inverses[i]

    def product_of(word):
        acc = IntMatrix.identity(n)
        for letter in word:
            acc = mat_mul(acc, letter_matrix(letter))
        return acc

    def hyperbolic(word):
        M = product_of(word)
        q, r = cyclotomic_part(char_poly(M))
        if r.is_one():
            return None
        return SearchResult(word=word, matrix=M, noncyclotomic_factor=str(r))

    rng = random.Random(seed)
    for depth in range(1, budget + 1):
        if depth <= 4:
            candidates = _reduced_words(alphabet, depth)
        else:
            sampled = set()
            for _ in range(SAMPLES_PER_DEPTH):
                word = []
                for _ in range(depth):
                    choices = alphabet if not word else [
                        l for l in alphabet if not (l[0] == word[-1][0] and l[1] != word[-1][1])
                    ]
                    word.append(rng.choice(choices))
                sampled.add(tuple(word))
            candidates = sorted(sampled)
        for word in candidates:
            res = hyperbolic(word)
            if res is not None:
                return res
    return None


# ---------------------------------------------------------------------------
# witness certificates
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CertificateRow:
    n: int
    extrinsic: int          # 2n*len(x) + len(y), an honest ambient word length
    intrinsic: int          # ceil(||rho(x)^n psi(y)|| / D), a subgroup lower bound


@dataclass(frozen=True)
class WitnessCertificate:
    """The table n -> (ambient length bound, subgroup length lower bound) for
    the family x^n y x^-n, with growth rates fitted from the exact norms."""

    x_word: tuple
    y_symbol: str
    n_max: int
    bound_constant: int
    rows: tuple
    fitted_rate: float      # geometric mean growth of ||M^n v|| over the last half
    reference_rate: float   # same fit on the matrix powers themselves

    def to_json(self) -> dict:
        return {
            "x_word": [[s, e] for s, e in self.x_word],
            "y_symbol": self.y_symbol,
            "n_max": self.n_max,
            "bound_constant": self.bound_constant,
            "rows": [
                {"n": r.n, "extrinsic": r.extrinsic, "intrinsic": str(r.intrinsic)}
                for r in self.rows
            ],
            "fitted_rate": self.fitted_rate,
            "reference_rate": self.reference_rate,
        }


def _log_ratio_fit(values: list[int]) -> float:
    """exp(mean log ratio) over the last ceil(N/2) steps of a positive integer
    sequence.  Ratios go through Fraction -> float so huge integers never hit
    math.log."""
    steps = len(values) - 1
    if steps < 1:
        return 1.0
    take = min(steps, math.ceil(len(values) / 2))
    logs = [
        math.log(float(Fraction(values[i + 1], values[i])))
        for i in range(steps - take, steps)
    ]
    return math.exp(sum(logs) / len(logs))


def witness_certificate(
    datum: EquivariantDatum,
    x_word,
    y_symbol: str,
    n_max: int,
) -> WitnessCertificate:
    """Exact certificate for the family x^n y x^-n, n = 1..n_max.

    Requires the growing-vector test to pass for (rho(x), psi(y)); otherwise
    the family only certifies polynomial growth and the call is rejected."""
    if n_max < 1:
        raise ValueError("need n_max >= 1")
    x_word = tuple((str(s), int(e)) for s, e in x_word)
    M = datum.rho_of_word(x_word)
    v = datum.psi_of(y_symbol)
    if not growing_vector_test(M, v):
        raise ValueError("non-growing pair: rho(x)^n psi(y) does not grow exponentially")
    D = datum.bound_constant
    if D == 0:
        raise ValueError("datum has D = 0")
    len_x = sum(abs(e) for _, e in x_word)
    len_y = 1
    rows = []
    norms = []
    w = v
    for n in range(1, n_max + 1):
        w = M.apply(w)
        norm = w.sup_norm()
        norms.append(norm)
        rows.append(CertificateRow(
            n=n,
            extrinsic=2 * n * len_x + len_y,
            intrinsic=-((-norm) // D),
        ))
    power_norms = []
    P = IntMatrix.identity(datum.rank)
    for n in range(1, n_max + 1):
        P = mat_mul(P, M)
        power_norms.append(P.max_abs())
    return WitnessCertificate(
        x_word=x_word,
        y_symbol=y_symbol,
        n_max=n_max,
        bound_constant=D,
        rows=tuple(rows),
        fitted_rate=_log_ratio_fit(norms),
        reference_rate=_log_ratio_fit(power_norms),
    )


# ---------------------------------------------------------------------------
# upper-bound curves
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GrowthForm:
    """A named nondecreasing integer form: polynomial (coefficients, constant
    first, all >= 0) or exponential (integer base >= 1)."""

    kind: str
    coeffs: tuple = ()
    base: int = 0

    def __post_init__(self):
        if self.kind == "poly":
            if not self.coeffs or any(c < 0 for c in self.coeffs):
                raise ValueError("polynomial forms need nonnegative coefficients")
        elif self.kind == "exp":
            if self.base < 1:
                raise ValueError("exponential base must be >= 1")
        else:
            raise ValueError(f"unknown growth form {self.kind!r}")

    @staticmethod
    def poly(*coeffs) -> "GrowthForm":
        return GrowthForm("poly", coeffs=tuple(int(c) for c in coeffs))

    @staticmethod
    def exp(base: int) -> "GrowthForm":
        return GrowthForm("exp", base=int(base))

    @staticmethod
    def parse(text: str) -> "GrowthForm":
        kind, _, rest = text.partition(":")
        if kind == "poly":
            return GrowthForm.poly(*(int(c) for c in rest.split(",")))
        if kind == "exp":
            return GrowthForm.exp(int(rest))
        raise ValueError(f"cannot parse growth form {text!r} (use poly:c0,c1,... or exp:base)")

    def evaluate(self, n: int) -> int:
        if self.kind == "poly":
            return sum(c * n ** i for i, c in enumerate(self.coeffs))
        return self.base ** n

    def __str__(self) -> str:
        if self.kind == "poly":
            return "poly:" + ",".join(str(c) for c in self.coeffs)
        return f"exp:{self.base}"


@dataclass(frozen=True)
class UpperBoundSpec:
    """Distortion upper bound of the shape mu_P(n) * C^mu_D(n) with C >= 1;
    when the sub-constants are known, C = C1 * C2."""

    mu_p: GrowthForm
    mu_d: GrowthForm
    C: int
    c1: int | None = None
    c2: int | None = None

    def __post_init__(self):
        if self.C < 1:
            raise ValueError("C must be >= 1")
        if (self.c1 is None) != (self.c2 is None):
            raise ValueError("supply both sub-constants or neither")
        if self.c1 is not None and self.c1 * self.c2 != self.C:
            raise ValueError("C must equal c1 * c2")


def upper_bound_curve(spec: UpperBoundSpec, n_max: int) -> list[tuple[int, int]]:
    """Exact table n -> mu_P(n) * C^mu_D(n) for n = 1..n_max."""
    if n_max < 1:
        raise ValueError("need n_max >= 1")
    return [(n, spec.mu_p.evaluate(n) * spec.C ** spec.mu_d.evaluate(n)) for n in range(1, n_max + 1)]


# ---------------------------------------------------------------------------
# presets
# ---------------------------------------------------------------------------

def psi_table_to_json(rank: int, psi: dict, provenance: str) -> dict:
    return {
        "module_rank": rank,
        "gens": [{"symbol": s, "psi": vector_to_json(v)} for s, v in psi.items()],
        "provenance": provenance,
    }


def psi_table_from_json(obj) -> tuple[int, dict, str]:
    rank = int(obj["module_rank"])
    psi = {g["symbol"]: vector_from_json(g["psi"]) for g in obj["gens"]}
    return rank, psi, obj.get("provenance", "")


def _load_bundled_psi(name: str) -> tuple[int, dict, str]:
    path = resources.files("distortion").joinpath(f"data/{name}.json")
    try:
        text = path.read_text()
    except FileNotFoundError:
        raise ValueError(
            f"no bundled value table {name!r}; supply psi_table= with your own file"
        ) from None
    return psi_table_from_json(json.loads(text))


def _load_psi(source, expected_rank: int) -> tuple[dict, str]:
    if isinstance(source, str):
        rank, psi, prov = _load_bundled_psi(source)
    else:
        rank, psi, prov = psi_table_from_json(source)
    if rank != expected_rank:
        raise ValueError(f"value table has rank {rank}, module has rank {expected_rank}")
    return psi, prov


def _twist_actions(ctx: SymplecticContext, target=None) -> dict:
    """rho matrices for the standard and Humphries twist symbols, either on H
    itself (target None) or induced on a target module."""
    rho = {}
    for table in (standard_curves(ctx.genus), humphries_table(ctx.genus)):
        for c in table.curves:
            sym = f"T_{c.label}"
            if sym in rho:
                continue
            t = transvection(ctx, c.homology)
            rho[sym] = t.matrix if target is None else induced_action(target, t)
    return rho


def preset(name: str, g: int, **params) -> EquivariantDatum:
    """Ready-made equivariant data for the worked subgroup families.

    pointpush(g>=2)            values in H, one push symbol per basis curve
    surface_braid(g>=2, points>=1)   values in H^points
    torelli(g>=3, variant)     values in the wedge^3 target, bundled table
    lagrangian(g>=4)           values in wedge^3(H/Lagrangian), bundled table
    pullback(g, h, g-h>=2)     values in the closed target of genus g-h
    """
    if name == "pointpush":
        return _preset_braid(g, points=1, label="pointpush")
    if name == "surface_braid":
        return _preset_braid(g, points=int(params.get("points", 1)), label="surface_braid")
    if name == "torelli":
        return _preset_torelli(g, params.get("variant", "closed"), params.get("psi_table"))
    if name == "lagrangian":
        return _preset_lagrangian(g, params.get("psi_table"))
    if name == "pullback":
        if "h" not in params:
            raise ValueError("pullback preset needs h (genus of the filled subsurface)")
        return _preset_pullback(g, int(params["h"]), params.get("psi_table"))
    raise ValueError(f"unknown preset {name!r}")


def _preset_braid(g: int, points: int, label: str) -> EquivariantDatum:
    if g < 2:
        raise ValueError(f"{label} preset needs genus >= 2")
    if points < 1:
        raise ValueError("need at least one marked point")
    ctx = SymplecticContext(g)
    n = 2 * g
    rank = n * points
    base_rho = _twist_actions(ctx)

    def blockdiag(M):
        rows = []
        for b in range(points):
            for i in range(n):
                row = [0] * rank
                for j in range(n):
                    row[b * n + j] = M.entries[i][j]
                rows.append(tuple(row))
        return IntMatrix(tuple(rows), rank)

    rho = {sym: blockdiag(M) for sym, M in base_rho.items()}
    psi = {}
    for b in range(points):
        for j, lab in enumerate(ctx.basis_labels()):
            sym = f"push_{lab}" if points == 1 else f"push{b + 1}_{lab}"
            psi[sym] = IntVector.basis(rank, b * n + j)
    return EquivariantDatum(
        rank=rank,
        rho=rho,
        psi=psi,
        name=label,
        provenance="push values are the homology classes of the pushed loops (abelianization)",
        genus=g,
    )


def _preset_torelli(g: int, variant: str, psi_table) -> EquivariantDatum:
    if g < 3:
        raise ValueError("the surjectivity this preset relies on needs genus >= 3")
    target = johnson_target(g, variant)
    ctx = SymplecticContext(g)
    rho = _twist_actions(ctx, target)
    source = psi_table if psi_table is not None else f"torelli_psi_g{g}_{variant}"
    psi, prov = _load_psi(source, target.free_rank)
    return EquivariantDatum(
        rank=target.free_rank, rho=rho, psi=psi,
        name=f"torelli-{variant}", provenance=prov, genus=g,
    )


def _lagrangian_block(g: int, A: IntMatrix) -> SpElement:
    """diag(A^-T, A), the stabilizer element acting as A on the b-coordinates."""
    ctx = SymplecticContext(g)
    P = A.inverse().transpose()
    n = 2 * g
    rows = []
    for i in range(g):
        rows.append(tuple(P.entries[i]) + (0,) * g)
    for i in range(g):
        rows.append((0,) * g + tuple(A.entries[i]))
    return SpElement(ctx, IntMatrix(tuple(rows), n))


def _preset_lagrangian(g: int, psi_table) -> EquivariantDatum:
    if g < 4:
        raise ValueError("irreducibility of the wedge^3 quotient action needs genus >= 4")
    ctx = SymplecticContext(g)
    w = IntMatrix.from_columns([IntVector.basis(2 * g, i).entries for i in range(g)], 2 * g)
    target = relative_target(g, w, variant="closed")   # H^W = 0 here, so closed == boundary
    rho = {}
    for i in range(g):
        for j in range(g):
            if i != j:
                E = [list(r) for r in IntMatrix.identity(g).entries]
                E[i][j] = 1
                rho[f"E{i + 1}{j + 1}"] = induced_action(target, _lagrangian_block(g, IntMatrix.from_rows(E)))
    for i in range(g):
        rho[f"T_a{i + 1}"] = induced_action(target, transvection(ctx, ctx.basis_vector(f"a{i + 1}")))
    source = psi_table if psi_table is not None else f"lagrangian_psi_g{g}"
    psi, prov = _load_psi(source, target.free_rank)
    return EquivariantDatum(
        rank=target.free_rank, rho=rho, psi=psi,
        name="lagrangian", provenance=prov, genus=g,
    )


def _preset_pullback(g: int, h: int, psi_table) -> EquivariantDatum:
    if h < 1 or g - h < 2:
        raise ValueError("pullback preset needs 1 <= h <= g - 2")
    if g - h == 2:
        raise ValueError(
            "g - h = 2 leaves a rank-0 target (C(4,3) = 4 = 2*(g-h)); "
            "the method detects nothing there, so the preset rejects it"
        )
    ctx = SymplecticContext(g)
    cols = []
    for i in range(h):
        cols.append(IntVector.basis(2 * g, i).entries)          # a_{i+1}
        cols.append(IntVector.basis(2 * g, g + i).entries)      # b_{i+1}
    w = IntMatrix.from_columns(cols, 2 * g)
    target = relative_target(g, w, variant="closed")
    rho = {}
    for i in range(h + 1, g + 1):
        for kind in ("a", "b"):
            rho[f"T_{kind}{i}"] = induced_action(target, transvection(ctx, ctx.basis_vector(f"{kind}{i}")))
    source = psi_table if psi_table is not None else f"pullback_psi_g{g}_h{h}"
    psi, prov = _load_psi(source, target.free_rank)
    return EquivariantDatum(
        rank=target.free_rank, rho=rho, psi=psi,
        name="pullback", provenance=prov, genus=g,
    )
