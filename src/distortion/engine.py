"""The lower-bound machine: equivariant subgroup data, exact growing-vector
tests, search for partially hyperbolic words, witness certificates for the
conjugate family x^n y x^-n, and upper-bound curves.

The central objects are a free module V, on which Sp(2g, Z) acts by a functor
rho (the matrix itself on H, or its induced action on a wedge^3 target), and
values psi(s) in V for the subgroup generators.  Equivariance psi(x y x^-1) =
rho(x) psi(y) turns exact matrix powers into word-length lower bounds: the
value of x^n y x^-n is rho(x)^n psi(y), and no product of k subgroup
generators can have a value of sup-norm above k*D, where D is the largest
generator value.  Everything numeric in a certificate is computed from exact
integers; floats appear only in the final fitted rates.
"""

from __future__ import annotations

import functools
import itertools
import math
import random
from dataclasses import dataclass

import numpy as np

from .exact import (
    CHAR_POLY_STACK_ENTRIES,
    IntMatrix,
    IntPoly,
    IntVector,
    ResourceLimitError,
    char_poly,
    char_poly_work,
    char_polys,
    check_char_poly_work,
    cyclotomic_part,
    int_from_json,
    mat_mul,
    max_printable_bits,
    orbit_map,
    vector_from_json,
    vector_to_json,
)
from .exterior import TARGET_MAX_ENTRIES, RelativeTarget, induced_action, induced_char_poly, relative_target
from .mapclass import MappingClassWord, evaluate, humphries_table, standard_curves
from .symplectic import SymplecticContext


# ---------------------------------------------------------------------------
# equivariant data
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class EquivariantDatum:
    """Ambient generators as short tuples of twist letters (v, k): v an
    IntVector homology class in Z^{2g}, zero or primitive, and the classes
    of one generator pairing to 0 (all checked here, where custom letters
    enter).  Subgroup generators with their values in V, and the recorded
    constant D = max sup-norm of a generator value.  target names V and rho:
    H and rho(M) = M for None, else the target and rho(M) =
    induced_action(target, M).  Twists about classes that pair to 0
    commute, so the e-th power of a symbol multiplies each k by e.
    Subgroup symbols act trivially (conjugation inside the subgroup does
    not move values), so words may mix both kinds of symbol.  psi_of values
    a bp: symbol on labels of handles (which need a target)."""

    genus: int
    ambient: dict
    psi: dict
    target: RelativeTarget | None = None
    name: str = "custom"
    provenance: str = ""
    handles: range = range(0)

    def __post_init__(self):
        if self.target is not None and self.target.genus != self.genus:
            raise ValueError(f"the target has genus {self.target.genus}, the datum {self.genus}")
        if self.handles and self.target is None:
            raise ValueError("bp: values on handles need a target")
        for sym, v in self.psi.items():
            if v.dim != self.rank:
                raise ValueError(f"psi[{sym!r}] has dimension {v.dim}, expected {self.rank}")
        if set(self.ambient) & set(self.psi):
            raise ValueError("ambient and subgroup symbols must be disjoint")
        pairing = SymplecticContext(self.genus).pairing
        for sym, letters in self.ambient.items():
            if any(v.dim != 2 * self.genus for v, _ in letters):
                raise ValueError(f"ambient[{sym!r}] has a class not of genus {self.genus}")
            if any(v.content() > 1 for v, _ in letters):
                raise ValueError(f"ambient[{sym!r}] has a class that is not primitive")
            if any(pairing(u, v) for (u, _), (v, _) in itertools.combinations(letters, 2)):
                raise ValueError(f"the twist letters of ambient[{sym!r}] do not pair to 0")

    @property
    def rank(self) -> int:
        """The rank of V: 2g for H, else the target's free rank."""
        return 2 * self.genus if self.target is None else self.target.free_rank

    @property
    def bound_constant(self) -> int:
        """D: the largest sup-norm among subgroup generator values."""
        return max((v.sup_norm() for v in self.psi.values()), default=0)

    def matrix_of_word(self, word) -> IntMatrix:
        """The 2g x 2g matrix of the product over (symbol, exponent) pairs,
        leftmost letter first: subgroup letters and zero exponents are
        dropped, the rest flattened into one twist word, which
        mapclass.evaluate multiplies under its bound on entry growth.  The
        identity for a word of no ambient letter."""
        for sym, _ in word:
            if not isinstance(sym, str) or (sym not in self.ambient and sym not in self.psi):
                raise KeyError(f"unknown symbol {sym!r}")
        letters = tuple((v, k * e) for sym, e in word if e and sym in self.ambient for v, k in self.ambient[sym])
        return evaluate(MappingClassWord(self.genus, letters)) if letters else IntMatrix.identity(2 * self.genus)

    def rho(self, M: IntMatrix) -> IntMatrix:
        """rho(M) for a 2g x 2g matrix M: M itself on H, else
        induced_action(target, M)."""
        return M if self.target is None else induced_action(self.target, M)

    def rho_char_poly(self, M: IntMatrix) -> IntPoly:
        """char_poly(rho(M)) without forming rho(M): char_poly(M) on H, else
        induced_char_poly(target, M), from the action of M on H/W."""
        return char_poly(M) if self.target is None else induced_char_poly(self.target, M)

    def psi_of(self, symbol: str) -> IntVector:
        """The value of a subgroup symbol: its psi entry, or for a bp:x,y,z
        on the labels of the handles the target's value of x ^ y ^ z, after
        _bp_parts checks its shape."""
        if isinstance(symbol, str):
            if symbol in self.psi:
                return self.psi[symbol]
            if self.handles and symbol.startswith("bp:"):
                labels = [f"{k}{i}" for k in "ab" for i in self.handles]
                return self.target.value(*_bp_parts(self.genus, labels, symbol))
        raise KeyError(f"unknown subgroup symbol {symbol!r}")


# ---------------------------------------------------------------------------
# growing vectors and hyperbolic search
# ---------------------------------------------------------------------------

def growing_vector_test(M: IntMatrix, v: IntVector, p: IntPoly) -> bool:
    """Exact test for exponential growth of ||M^n v||, given p = char_poly(M)
    (a witness takes it from the datum's functor, rho_char_poly).

    Split p = q * r into cyclotomic and cyclotomic-free parts; the test is
    q(M) v != 0.  If that vector is nonzero it generates, over Q, a module
    annihilated by a factor of r only; every irreducible factor of r has a
    root off the unit circle (Kronecker, |det M| = |p(0)| = 1), so the orbit
    of any nonzero vector there grows exponentially.  Conversely q(M) v = 0
    confines v to the roots-of-unity part, where growth is polynomial.
    q(M) v is one Horner pass of deg q steps of exact.orbit_map(M).
    """
    if not M.is_square() or p.coeffs[0] not in (1, -1):   # det M = +-p(0)
        raise ValueError("growing-vector test requires a matrix with determinant +-1")
    if v.dim != M.rows:
        raise ValueError("dimension mismatch")
    q, _ = cyclotomic_part(p)
    # Horner on the vector, acc <- M acc + c v from the leading coefficient
    # down: q(M) v without forming q(M), one sparse exact step per coefficient
    step = orbit_map(M)
    vec = np.array(v.entries, dtype=object)
    acc = np.zeros(v.dim, dtype=object)
    for c in reversed(q.coeffs):
        acc = step(acc) + c * vec
    return any(acc)


@dataclass(frozen=True)
class SearchResult:
    word: tuple
    matrix: IntMatrix
    noncyclotomic_factor: str


# depths up to this are exhausted; deeper ones draw SAMPLES_PER_DEPTH words
EXHAUSTIVE_DEPTH = 4
SAMPLES_PER_DEPTH = 4000

# largest number of candidate words a search may examine
SEARCH_MAX_CANDIDATES = 200_000


def _search_candidate_count(k: int, budget: int) -> int:
    """Candidate words a search over k generators examines at most: the
    2k (2k - 1)^(d - 1) reduced words of each exhaustive depth d, plus
    SAMPLES_PER_DEPTH per deeper depth."""
    exhaustive = sum(2 * k * (2 * k - 1) ** (d - 1) for d in range(1, min(budget, EXHAUSTIVE_DEPTH) + 1))
    return exhaustive + max(0, budget - EXHAUSTIVE_DEPTH) * SAMPLES_PER_DEPTH


def search_partially_hyperbolic(
    generators: list[IntMatrix],
    budget: int,
    seed: int = 0,
) -> SearchResult | None:
    """Find a word in the generators (and inverses) whose product is partially
    hyperbolic, by iterative deepening.

    Depths up to EXHAUSTIVE_DEPTH are exhausted in lexicographic order;
    deeper levels are sampled (SAMPLES_PER_DEPTH draws) with the seeded
    generator, so the outcome is a deterministic function of (generators,
    budget, seed).  Words are pairs (index, sign).  Candidates are tested in
    stacks, but the answer is the first hit in that order.  Not finding a
    word proves nothing: the caller may retry with a bigger budget.
    ResourceLimitError if the candidate count exceeds SEARCH_MAX_CANDIDATES,
    before any product is formed, or if a generator's char_poly_work passes
    the cap, before any inverse (that of a huge non-unimodular one takes a
    long det); char_polys checks each stack of candidates.
    """
    if not generators:
        raise ValueError("no generators supplied")
    if budget < 1:
        raise ValueError("need budget >= 1")
    n = generators[0].rows
    inverses = []
    for G in generators:
        if G.shape != (n, n):
            raise ValueError("generators must share one square shape")
        check_char_poly_work(n, char_poly_work(G))
    for G in generators:
        try:
            inverses.append(G.inverse())
        except ValueError:
            raise ValueError("generators must be unimodular") from None
    count = _search_candidate_count(len(generators), budget)
    if count > SEARCH_MAX_CANDIDATES:
        raise ResourceLimitError(
            f"{count} candidate words exceed the cap {SEARCH_MAX_CANDIDATES}"
        )
    alphabet = [(i, s) for i in range(len(generators)) for s in (1, -1)]

    def letter_matrix(letter):
        i, s = letter
        return generators[i] if s == 1 else inverses[i]

    def cancels(a, b):
        return a[0] == b[0] and a[1] != b[1]

    # extending each prefix, in order, by each letter, in alphabet order,
    # lists the words in lexicographic order; a product is its prefix's
    # product times one letter
    def candidates():
        prefixes = [((), None)]
        last = min(budget, EXHAUSTIVE_DEPTH)
        for depth in range(1, last + 1):
            layer = []
            for prefix, P in prefixes:
                for letter in alphabet:
                    if prefix and cancels(prefix[-1], letter):
                        continue
                    word = prefix + (letter,)
                    M = letter_matrix(letter) if P is None else mat_mul(P, letter_matrix(letter))
                    yield word, M
                    if depth < last:
                        layer.append((word, M))
            prefixes = layer
        rng = random.Random(seed)
        for depth in range(EXHAUSTIVE_DEPTH + 1, budget + 1):
            sampled = set()
            for _ in range(SAMPLES_PER_DEPTH):
                word = []
                for _ in range(depth):
                    choices = alphabet if not word else [l for l in alphabet if not cancels(word[-1], l)]
                    word.append(rng.choice(choices))
                sampled.add(tuple(word))
            for word in sorted(sampled):
                yield word, functools.reduce(mat_mul, map(letter_matrix, word))

    # candidates are tested in stacks (one char_polys call each) of at most
    # as many as were examined before, and at least one, then split in
    # order: the first hit is the sequential one, and the products formed
    # past it are at most those examined before it.  A stack also holds at
    # most CHAR_POLY_STACK_ENTRIES matrix entries, which bounds its memory.
    stream = candidates()
    examined = 0
    most = max(1, CHAR_POLY_STACK_ENTRIES // (n * n or 1))
    while stack := list(itertools.islice(stream, min(most, max(1, examined)))):
        for (word, M), p in zip(stack, char_polys([M for _, M in stack])):
            _, r = cyclotomic_part(p)
            if not r.is_one():
                return SearchResult(word=word, matrix=M, noncyclotomic_factor=str(r))
        examined += len(stack)
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
    the family x^n y x^-n, with the growth rate fitted from the exact norms."""

    x_word: tuple
    y_symbol: str
    n_max: int
    bound_constant: int
    rows: tuple
    fitted_rate: float      # (v_N / v_(N // 2))^(1 / ceil(N/2)), v_n = ||M^n psi(y)||; 1.0 at N = 1

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
        }


def _log_ratio_fit(early: int, late: int, take: int) -> float:
    """exp of the mean log ratio v_(i+1) / v_i over take steps of a positive
    integer sequence, from v_k = early to v_(k+take) = late: the sum
    telescopes, so this is (late / early)^(1/take); 1.0 for take = 0.  The
    logs of the two integers are taken apart, so a ratio past the float
    range does not overflow."""
    if take < 1:
        return 1.0
    return math.exp((math.log(late) - math.log(early)) / take)


# largest JSON report in bytes that witness_certificate computes rows for; a
# row is WITNESS_ROW_BYTES of indent, keys and quotes besides its three numbers
WITNESS_MAX_BYTES = 1 << 25
WITNESS_ROW_BYTES = 79


def witness_certificate(
    datum: EquivariantDatum,
    x_word,
    y_symbol: str,
    n_max: int,
) -> WitnessCertificate:
    """Exact certificate for the family x^n y x^-n, n = 1..n_max.

    Requires the growing-vector test to pass for (rho(x), psi(y)); otherwise
    the family only certifies polynomial growth and the call is rejected.
    The test's char_poly(rho(x)) comes from the 2g x 2g matrix M of x
    (datum.rho_char_poly), so no characteristic polynomial of rank above 2g
    is taken.  The generating set is psi plus y (valued by psi_of), so D is
    the largest sup-norm over both.  ResourceLimitError before any row if
    n_max rows of one-digit numbers already exceed WITNESS_MAX_BYTES of JSON
    report, if M's entries would pass mapclass.evaluate's bound, or if the
    work of that characteristic polynomial would pass the cap: that of M or
    of its action on H/W in char_polys, and, for a target, the estimate of
    the wedge^3 formula from it (exterior._wedge3_work), before rho(x) is
    formed; otherwise at the first row whose norm has more bits than
    max_printable_bits(), or that takes the report's estimated size past
    WITNESS_MAX_BYTES, before later rows are computed."""
    if n_max < 1:
        raise ValueError("need n_max >= 1")
    if n_max * (WITNESS_ROW_BYTES + 3) > WITNESS_MAX_BYTES:
        raise ResourceLimitError(f"{n_max} rows of at least {WITNESS_ROW_BYTES + 3} bytes would exceed the "
                                 f"{WITNESS_MAX_BYTES} bytes of report that are printed")
    x_word = tuple((s, int(e)) for s, e in x_word)
    x = datum.matrix_of_word(x_word)
    p = datum.rho_char_poly(x)
    M = datum.rho(x)
    v = datum.psi_of(y_symbol)
    if not growing_vector_test(M, v, p):
        raise ValueError("non-growing pair: rho(x)^n psi(y) does not grow exponentially")
    # the test passed, so q(M) v != 0: v != 0 and D >= 1
    D = max(datum.bound_constant, v.sup_norm())
    len_x = sum(abs(e) for _, e in x_word)
    len_y = 1
    max_bits = max_printable_bits()
    rows = []
    norms = []
    size = 0
    step = orbit_map(M)
    w = np.array(v.entries, dtype=object)
    for n in range(1, n_max + 1):
        w = step(w)
        norm = max(map(abs, w))
        bits = norm.bit_length()
        if bits > max_bits:
            raise ResourceLimitError(f"the norm at n = {n} exceeds {max_bits:.0f} bits, the most that is printed")
        extrinsic = 2 * n * len_x + len_y
        # the intrinsic value is at most the norm, of at most bits log10(2) + 1 digits
        size += WITNESS_ROW_BYTES + len(str(n)) + len(str(extrinsic)) + int(bits * math.log10(2)) + 1
        if size > WITNESS_MAX_BYTES:
            raise ResourceLimitError(
                f"the report passes {WITNESS_MAX_BYTES} bytes at n = {n}, the most that is printed"
            )
        norms.append(norm)
        rows.append(CertificateRow(n=n, extrinsic=extrinsic, intrinsic=-((-norm) // D)))
    # the fit spans the last ceil(N/2) steps, from n = N // 2 to N (N >= 2)
    take = min(n_max - 1, math.ceil(n_max / 2))
    return WitnessCertificate(
        x_word=x_word,
        y_symbol=y_symbol,
        n_max=n_max,
        bound_constant=D,
        rows=tuple(rows),
        fitted_rate=_log_ratio_fit(norms[n_max - take - 1], norms[-1], take),
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

    def log2_at(self, n: int) -> float:
        """log2 of evaluate(n) without building an exponential form: -inf
        for 0, inf beyond the float range."""
        if self.kind == "poly":
            v = self.evaluate(n)
            return math.log2(v) if v else -math.inf
        if self.base == 1:
            return 0.0
        try:
            return n * math.log2(self.base)
        except OverflowError:
            return math.inf

    def __str__(self) -> str:
        if self.kind == "poly":
            return "poly:" + ",".join(str(c) for c in self.coeffs)
        return f"exp:{self.base}"


@dataclass(frozen=True)
class UpperBoundSpec:
    """Distortion upper bound of the shape mu_P(n) * C^mu_D(n) with C >= 1."""

    mu_p: GrowthForm
    mu_d: GrowthForm
    C: int

    def __post_init__(self):
        if self.C < 1:
            raise ValueError("C must be >= 1")


# largest JSON table in bytes that upper_bound_curve computes
BOUND_CURVE_MAX_BYTES = 1 << 23


def upper_bound_curve(spec: UpperBoundSpec, n_max: int) -> list[tuple[int, int]]:
    """Exact table n -> mu_P(n) * C^mu_D(n) for n = 1..n_max.

    mu_P and mu_D are nondecreasing, so the row at n_max is the largest, of
    about log2 mu_P(n_max) + mu_D(n_max) log2 C bits.  ResourceLimitError,
    before any power is computed, if that estimate, made in the log domain,
    exceeds max_printable_bits(), or if n_max rows of that size would
    exceed BOUND_CURVE_MAX_BYTES of JSON report."""
    if n_max < 1:
        raise ValueError("need n_max >= 1")
    max_bits = max_printable_bits()
    bits = max(spec.mu_p.log2_at(n_max), 0.0)
    if spec.C > 1:
        # log2 of mu_D(n_max) log2 C, compared before it is exponentiated
        power_bits_log2 = spec.mu_d.log2_at(n_max) + math.log2(math.log2(spec.C))
        bits += 2.0 ** power_bits_log2 if power_bits_log2 <= math.log2(max_bits) else math.inf
    if bits > max_bits:
        raise ResourceLimitError(
            f"the row at n = {n_max} would exceed {max_bits:.0f} bits, the most that is computed and printed"
        )
    # a JSON row is 52 bytes of indent, keys and quotes besides n and the value
    row_bytes = 52 + len(str(n_max)) + int(bits * math.log10(2)) + 1
    if n_max * row_bytes > BOUND_CURVE_MAX_BYTES:
        raise ResourceLimitError(f"{n_max} rows of up to {row_bytes} bytes would exceed the "
                                 f"{BOUND_CURVE_MAX_BYTES} bytes of report that are printed")
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
    shape = 'a value table is {"module_rank": r, "gens": [{"symbol": s, "psi": [...]}, ...]}'
    gens = obj.get("gens") if isinstance(obj, dict) else None
    if not isinstance(gens, list) or "module_rank" not in obj or not all(
        isinstance(g, dict) and isinstance(g.get("symbol"), str) and "psi" in g for g in gens
    ):
        raise ValueError(shape)
    rank = int_from_json(obj["module_rank"])
    psi = {g["symbol"]: vector_from_json(g["psi"]) for g in gens}
    return rank, psi, obj.get("provenance", "")


def _twists(curves: dict) -> dict:
    """Symbol T_<label> -> the one twist letter about each labelled class."""
    return {f"T_{lab}": ((v, 1),) for lab, v in curves.items()}


def _all_twists(g: int) -> dict:
    """The twists along the standard and the Humphries curves of genus g."""
    return _twists({**standard_curves(g), **humphries_table(g)})


def _bp_symbols(handles: range, variant: str) -> dict:
    """The closed-form bounding-pair symbols bp:x,y,z on these handles, each
    with its parts [x, y, z], lists of basis labels.

    Take (a_i, b_i, w) for each handle i and each label w outside it; for
    handles i < j < l and u, v, w one label from each, take (a_i, b_i + v, w)
    if u = a_i and (a_i + v, b_i, w) if u = b_i.  Each of the latter is
    +-u ^ v ^ w plus a_i ^ b_i ^ w, so the list is unitriangular against the
    basis triples: a Z-basis of wedge^3 H, the boundary target.  The closed
    variant drops (a_1, b_1, w) for w outside handle 1 and (a_2, b_2, w) for
    w in handle 1, 1 and 2 the first two handles: each relation omega ^ w
    holds exactly one dropped triple, with coefficient 1, and the others of
    its pair triples are kept, so the rest is a Z-basis of the quotient by
    omega ^ H.  Sums are in basis order, and named so (a2+b1)."""
    def pair(i):
        return f"a{i}", f"b{i}"

    order = SymplecticContext(handles[-1]).basis_labels().index
    labels = [f"{k}{i}" for k in "ab" for i in handles]
    first = pair(handles[0])
    triples = [(pair(i)[:1], pair(i)[1:], (w,)) for i in handles for w in labels if w not in pair(i)
               and not (variant == "closed" and (i == handles[0] or i == handles[1] and w in first))]
    for i, j, l in itertools.combinations(handles, 3):
        a, b = pair(i)
        for u, v, w in itertools.product(pair(i), pair(j), pair(l)):
            triples.append(((a,), (b, v), (w,)) if u == a else ((a, v), (b,), (w,)))
    parts = [[sorted(p, key=order) for p in t] for t in triples]
    return {"bp:" + ",".join("+".join(p) for p in t): t for t in parts}


def _bp_parts(g: int, labels, symbol: str) -> list:
    """The label sums x, y, z of a bounding-pair symbol bp:x,y,z from outside
    the listed ones, after its shape check: each a sum of distinct labels of
    the preset's handles, <x, y> = 1, and z pairs to 0 with both.
    ValueError naming the symbol otherwise."""
    parts = [p.split("+") for p in symbol[3:].split(",")]
    if len(parts) != 3 or [""] in parts:
        raise ValueError(f"bounding-pair symbol {symbol!r} is not bp:x,y,z")
    for part in parts:
        for lab in part:
            if lab not in labels:
                raise ValueError(f"bounding-pair symbol {symbol!r}: {lab!r} is not a label of this preset's handles")
            if part.count(lab) > 1:
                raise ValueError(f"bounding-pair symbol {symbol!r} repeats {lab!r}")
    ctx = SymplecticContext(g)
    x, y, z = (sum(map(ctx.basis_vector, p), IntVector.zero(ctx.dim)) for p in parts)
    if (xy := ctx.pairing(x, y)) != 1:
        raise ValueError(f"bounding-pair symbol {symbol!r} has <x, y> = {xy}, not 1")
    if ctx.pairing(x, z) or ctx.pairing(y, z):
        raise ValueError(f"bounding-pair symbol {symbol!r}: z does not pair to 0 with x and y")
    return parts


PROVENANCE = ("closed-form values: the image of x^y^z for bp:x,y,z (Johnson's tau of a bounding pair) "
              "and of bi^bj^bk for w:bi^bj^bk, computed from each symbol")


def _target_datum(name: str, g: int, w_labels, build_generators, psi_table, handles: range = range(0),
                  variant: str = "closed") -> EquivariantDatum:
    """The datum on the target relative to W, the span of the basis vectors
    labelled w_labels (none for the absolute target).  Values from the
    parsed table psi_table, read before relative_target builds the target
    (and checks its cap), and that before build_generators() builds the
    ambient generators.  Without a table: the _bp_symbols list on handles,
    and any other bp: symbol on them valued from its name (psi_of); for no
    handles (lagrangian) every w:bi^bj^bk and nothing else.  With a table
    the datum keeps no handles, so every symbol must be in it."""
    table = None if psi_table is None else psi_table_from_json(psi_table)
    w = [v.entries for v in map(SymplecticContext(g).basis_vector, w_labels)]
    target = relative_target(g, IntMatrix.from_columns(w, 2 * g), variant)
    if table is None:
        if handles:
            psi = {s: target.value(*parts) for s, parts in _bp_symbols(handles, variant).items()}
        else:
            psi = {f"w:b{i}^b{j}^b{k}": target.value([f"b{i}"], [f"b{j}"], [f"b{k}"])
                   for i, j, k in itertools.combinations(range(1, g + 1), 3)}
        rank, prov = target.free_rank, PROVENANCE
    else:
        (rank, psi, prov), handles = table, range(0)
    if rank != target.free_rank:
        raise ValueError(f"value table has rank {rank}, module has rank {target.free_rank}")
    return EquivariantDatum(genus=g, ambient=build_generators(), psi=psi, target=target, name=name,
                            provenance=prov, handles=handles)


def _elementary(g: int) -> dict:
    """E<i><j> (E<i>_<j> once i or j has two digits) -> the twist letters
    T_{a_j+b_i}^-1 T_{a_j} T_{b_i}, which act as diag(A^-T, A) for
    A = I + e_ij: the Lagrangian stabilizer element acting as A on the
    b-coordinates.

    With c_v(x) = <x, v>, T_v^k = I + k v c_v^T, and (v c_v^T)(w c_w^T) =
    <w, v> v c_w^T is 0 when v and w pair to 0.  For i != j the three classes
    pair to 0, so the product is I plus the sum of the k v c_v^T terms:
    I - (a_j + b_i)(c_{a_j} + c_{b_i})^T + a_j c_{a_j}^T + b_i c_{b_i}^T =
    I - a_j c_{b_i}^T - b_i c_{a_j}^T.  As c_{b_i}(x) = x_{a_i} and
    c_{a_j}(x) = -x_{b_j}, it sends x to x - x_{a_i} a_j + x_{b_j} b_i: the
    a-block is I - e_ji = A^-T and the b-block I + e_ij = A.  The e-th power
    multiplies each k by e, giving I + e (the same rank-two term) =
    diag(I - e e_ji, I + e e_ij) = diag(A^-T, A)^e."""
    curves = standard_curves(g)
    gens = {}
    for i, j in itertools.permutations(range(1, g + 1), 2):
        a, b = curves[f"a{j}"], curves[f"b{i}"]
        sep = "_" if max(i, j) >= 10 else ""
        gens[f"E{i}{sep}{j}"] = ((a + b, -1), (a, 1), (b, 1))
    return gens


# the options each preset reads
_PRESET_OPTIONS = {"pointpush": (), "surface_braid": ("points",), "torelli": ("variant", "psi_table"),
                   "lagrangian": ("psi_table",), "pullback": ("h", "psi_table")}


def preset(
    name: str,
    g: int,
    *,
    h: int | None = None,
    points: int | None = None,
    variant: str | None = None,
    psi_table=None,
) -> EquivariantDatum:
    """Ready-made equivariant data for the worked subgroup families.

    pointpush(g>=2)            values in H, one push symbol per basis curve
    surface_braid(g>=2, points>=1)   values in H^points summed to H
    torelli(g>=3, variant)     values in the wedge^3 target
    lagrangian(g>=4)           values in wedge^3(H/Lagrangian)
    pullback(g, h, g-h>=2)     values in the closed target of genus g-h

    The braid presets act on H; the others on the target relative to W = 0,
    <a_1..a_g> or the filled handles, valued by a closed-form Z-basis of
    symbols (_bp_symbols; for lagrangian every w:bi^bj^bk) and, for a bp:
    symbol outside it, from its name, at every genus the target cap admits.
    psi_table, a parsed value table (the JSON object, not a path), replaces
    them: then every symbol must be in the table.
    ValueError for an unknown name, or for an option the preset would
    ignore (points=1 is pointpush's one point).
    """
    if name not in _PRESET_OPTIONS:
        raise ValueError(f"unknown preset {name!r}")
    given = {"h": h, "points": None if (name, points) == ("pointpush", 1) else points, "variant": variant,
             "psi_table": psi_table}
    if ignored := [k for k, v in given.items() if v is not None and k not in _PRESET_OPTIONS[name]]:
        raise ValueError(f"the {name} preset takes no {ignored[0]}")
    if name == "pointpush":
        return _preset_braid(g, 1, name)
    if name == "surface_braid":
        return _preset_braid(g, 1 if points is None else int(points), name)
    if name == "torelli":
        if g < 3:
            raise ValueError("the surjectivity this preset relies on needs genus >= 3")
        variant = "closed" if variant is None else variant
        return _target_datum(f"torelli-{variant}", g, [], lambda: _all_twists(g), psi_table, range(1, g + 1), variant)
    if name == "lagrangian":
        if g < 4:
            raise ValueError("irreducibility of the wedge^3 quotient action needs genus >= 4")
        curves = standard_curves(g)
        a_labels = [f"a{i}" for i in range(1, g + 1)]      # W, the Lagrangian <a_1..a_g>
        # H^W = 0 here, so closed == boundary
        return _target_datum("lagrangian", g, a_labels,
                             lambda: {**_elementary(g), **_twists({lab: curves[lab] for lab in a_labels})}, psi_table)
    if name == "pullback":
        if h is None:
            raise ValueError("pullback preset needs h (genus of the filled subsurface)")
        h = int(h)
        if h < 1 or g - h < 2:
            raise ValueError("pullback preset needs 1 <= h <= g - 2")
        if g - h == 2:
            raise ValueError(
                "g - h = 2 leaves a rank-0 target (C(4,3) = 4 = 2*(g-h)); "
                "the method detects nothing there, so the preset rejects it"
            )
        curves = standard_curves(g)

        def labels(lo, hi):
            """The labels a_i, b_i of handles lo+1..hi, in that order."""
            return [f"{k}{i}" for i in range(lo + 1, hi + 1) for k in "ab"]

        # W is spanned by the filled handles 1..h; the others act
        return _target_datum("pullback", g, labels(0, h), lambda: _twists({lab: curves[lab] for lab in labels(h, g)}),
                             psi_table, range(h + 1, g + 1))


def _preset_braid(g: int, points: int, label: str) -> EquivariantDatum:
    """Point b's push of basis curve lab, push{b}_{lab} (push_{lab} for one
    point), has the value e_lab in H: target None, rho(M) = M.  It is the datum on
    H^k (k points, point b's pushes on block b, rho(M) = diag(M, ..., M))
    composed with the sum map s: H^k -> H, which commutes with the diagonal
    action: s psi is still equivariant, with D = 1.  rho(x)^n psi(y) in H^k
    has one nonzero block, M^n e_lab, so a witness's norms, rows and rate are
    the same, and so is its verdict: chi(diag(M, ..., M)) = chi(M)^k has
    cyclotomic part q^k, q that of chi(M), and ker q(M)^k = ker q(M), the
    generalized eigenspaces of M for roots of unity (q(M) is 0 there by
    Cayley-Hamilton, invertible on the rest as gcd(q, chi(M) / q) = 1)."""
    if g < 2:
        raise ValueError(f"{label} preset needs genus >= 2")
    if points < 1:
        raise ValueError("need at least one marked point")
    n = 2 * g
    # the size in entries: one class in H for each of the 4g + 1 twist
    # symbols, and n values in H for each point
    if (size := (4 * g + 1) * n + n * n * points) > TARGET_MAX_ENTRIES:
        raise ResourceLimitError(f"the {label} preset would hold {size} entries, over the cap {TARGET_MAX_ENTRIES}")
    curves = standard_curves(g)
    psi = {f"push_{lab}" if points == 1 else f"push{b + 1}_{lab}": v
           for b in range(points) for lab, v in curves.items()}
    return EquivariantDatum(
        genus=g,
        ambient=_all_twists(g),
        psi=psi,
        name=label,
        provenance="push values are the homology classes of the pushed loops (abelianization)",
    )
