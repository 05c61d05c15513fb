"""Exact integer linear algebra: matrices, polynomials, Smith normal form,
quotient modules, cyclotomic factor splitting and the partial-hyperbolicity test.

Python ints throughout, except where int64 is exact by proof.  mat_mul
multiplies in int64 when max|A| max|B| k < 2^63 (k = A.cols), and otherwise
in Python ints.  char_poly (_char_poly_mod) and one elimination,
_echelon_mod, behind det, solve_exact and inverse, work mod primes in int64
numpy arithmetic: every prime has n (p - 1)^2 < 2^63 (n rows), so no int64
step overflows.  char_poly, and _cramer behind det and solve_exact, lift by
the Chinese remainder theorem until the primes multiply past twice
Hadamard's bound on what is lifted (the coefficients; det A and the Cramer
numerators of adj(A) B).  inverse returns its lift as soon as A X = I over
Z.  Every public result is integral, every division performed is asserted
exact, and all values are immutable.

orbit_map steps w -> M w in Python ints held in numpy object arrays, so
numpy's C loop makes one Python product per nonzero entry of M; the witness
rows and the growing-vector test's Horner pass run on it.

quotient_module takes one Smith form, _smith_with_transforms: pivots on the
smallest nonzero |entry|, exact one-row clears where the pivot divides, a
unimodular 2x2 Bezout step where it does not, and one gcd/lcm pass over the
diagonal.  It always finishes (each Bezout step shrinks |pivot|), but its
entries are Python ints with no proved size bound.

cyclotomic_part strips x - 1 and x + 1 by synthetic division (suffix sums),
then rules out every other Phi_d at once mod primes q_d = 1 mod d, by one
int64 Horner pass at roots of unity z_d of order d, and divides exactly only
by the Phi_d that survive, each built on demand as the Moebius product of
the x^e - 1 (cyclotomic).  The candidates d, phi(d) <= degree, are built
as products of prime powers (_cyclotomic_filter), the primes from _is_prime.

Values are checked once, where they enter.  The constructors IntVector,
IntMatrix and IntPoly take tuples of Python ints (not numpy ints, floats or
bools), matrix rows of length cols, as they are; every kernel builds its
results so.  Outside data enters through IntMatrix.from_rows and
from_columns, and through int_from_json, matrix_from_json and vector_from_json.

Caps are checked where the work is done (ResourceLimitError): char_polys
checks char_poly_work before its first prime, and the formatters check
their integers against max_printable_bits() before they format any.
"""
from __future__ import annotations

import itertools
import math
import operator
import sys
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

_INT64_LIMIT = 1 << 63


class ResourceLimitError(RuntimeError):
    """Raised when a request's work or output would pass one of the caps."""


# largest bit length of an integer that is printed, or that upper_bound_curve
# or witness_certificate computes
MAX_VALUE_BITS = 1 << 20


def max_printable_bits() -> float:
    """MAX_VALUE_BITS, lowered to (d - 1) log2 10 bits, below which a
    value has at most d digits, for the int-to-str limit of d digits."""
    digits = getattr(sys, "get_int_max_str_digits", lambda: 0)()    # Python < 3.10.7 has no limit
    if not digits:
        return MAX_VALUE_BITS
    return min(MAX_VALUE_BITS, (digits - 1) * math.log2(10))


def _check_printable(values) -> None:
    """ResourceLimitError if one of the integers `values` has more bits than
    max_printable_bits(); each formatter asks before it formats any."""
    bits, limit = max(map(int.bit_length, values), default=0), max_printable_bits()
    if bits > limit:
        raise ResourceLimitError(f"an integer of {bits} bits exceeds {limit:.0f} bits, the most that is printed")


# ---------------------------------------------------------------------------
# matrices and vectors
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class IntVector:
    """Dense integer vector.  The constructor takes a tuple of Python ints as
    it is; vector_from_json reads one from JSON."""

    entries: tuple[int, ...]

    @property
    def dim(self) -> int:
        return len(self.entries)

    @staticmethod
    def zero(n: int) -> "IntVector":
        return IntVector((0,) * n)

    @staticmethod
    def basis(n: int, i: int) -> "IntVector":
        return IntVector(tuple(1 if j == i else 0 for j in range(n)))

    def __add__(self, other: "IntVector") -> "IntVector":
        if self.dim != other.dim:
            raise ValueError(f"dimension mismatch: {self.dim} vs {other.dim}")
        return IntVector(tuple(a + b for a, b in zip(self.entries, other.entries)))

    def __sub__(self, other: "IntVector") -> "IntVector":
        return self + (-other)

    def __neg__(self) -> "IntVector":
        return IntVector(tuple(-a for a in self.entries))

    def is_zero(self) -> bool:
        return all(a == 0 for a in self.entries)

    def sup_norm(self) -> int:
        return max((abs(a) for a in self.entries), default=0)

    def l1_norm(self) -> int:
        return sum(abs(a) for a in self.entries)

    def content(self) -> int:
        """gcd of the entries (0 for the zero vector)."""
        return math.gcd(*self.entries) if self.entries else 0


@dataclass(frozen=True)
class IntMatrix:
    """Dense integer matrix, row-major: a tuple of rows, each a tuple of cols
    Python ints, taken as it is (from_rows checks outside rows).  Zero rows
    or columns are permitted (they arise as empty relation sets and rank-0
    projections)."""

    entries: tuple[tuple[int, ...], ...]
    cols: int

    @staticmethod
    def from_rows(rows, cols: int | None = None) -> "IntMatrix":
        """The checked constructor: entries through operator.index (numpy ints
        become Python ints, floats raise TypeError), rows of length cols."""
        rows = tuple(tuple(int(operator.index(x)) for x in r) for r in rows)
        if cols is None:
            if not rows:
                raise ValueError("cannot infer column count of an empty matrix")
            cols = len(rows[0])
        if cols < 0:
            raise ValueError("column count must be >= 0")
        for row in rows:
            if len(row) != cols:
                raise ValueError(f"ragged row: expected {cols} entries, got {len(row)}")
        return IntMatrix(rows, cols)

    @staticmethod
    def identity(n: int) -> "IntMatrix":
        return IntMatrix(tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n)), n)

    @staticmethod
    def zero(rows: int, cols: int) -> "IntMatrix":
        return IntMatrix(tuple((0,) * cols for _ in range(rows)), cols)

    @staticmethod
    def from_columns(columns, rows: int) -> "IntMatrix":
        """from_rows on the transpose: `rows` entries of each column."""
        cols = tuple(tuple(c) for c in columns)
        return IntMatrix.from_rows([[c[i] for c in cols] for i in range(rows)], len(cols))

    @property
    def rows(self) -> int:
        return len(self.entries)

    @property
    def shape(self) -> tuple[int, int]:
        return (self.rows, self.cols)

    def is_square(self) -> bool:
        return self.rows == self.cols

    def column(self, j: int) -> IntVector:
        return IntVector(tuple(row[j] for row in self.entries))

    def columns(self) -> list[IntVector]:
        return [self.column(j) for j in range(self.cols)]

    def __add__(self, other: "IntMatrix") -> "IntMatrix":
        if self.shape != other.shape:
            raise ValueError(f"shape mismatch: {self.shape} vs {other.shape}")
        return IntMatrix(
            tuple(tuple(a + b for a, b in zip(r1, r2)) for r1, r2 in zip(self.entries, other.entries)),
            self.cols,
        )

    def __sub__(self, other: "IntMatrix") -> "IntMatrix":
        return self + other.scale(-1)

    def scale(self, c: int) -> "IntMatrix":
        return IntMatrix(tuple(tuple(c * a for a in row) for row in self.entries), self.cols)

    def __mul__(self, other: "IntMatrix") -> "IntMatrix":
        return mat_mul(self, other)

    def __pow__(self, n: int) -> "IntMatrix":
        return mat_pow(self, n)

    def apply(self, v: IntVector) -> IntVector:
        if v.dim != self.cols:
            raise ValueError(f"dimension mismatch: matrix has {self.cols} columns, vector has {v.dim}")
        return IntVector(tuple(sum(a * b for a, b in zip(row, v.entries)) for row in self.entries))

    def is_identity(self) -> bool:
        return self.is_square() and all(
            self.entries[i][j] == (1 if i == j else 0) for i in range(self.rows) for j in range(self.cols)
        )

    def is_zero(self) -> bool:
        return all(a == 0 for row in self.entries for a in row)

    def max_abs(self) -> int:
        if not (self.rows and self.cols):
            return 0
        return max(max(map(max, self.entries)), -min(map(min, self.entries)))

    def mod(self, L: int) -> "IntMatrix":
        """Entrywise reduction to representatives in [0, L)."""
        if L < 2:
            raise ValueError("modulus must be >= 2")
        return IntMatrix(tuple(tuple(a % L for a in row) for row in self.entries), self.cols)

    def det(self) -> int:
        """Exact determinant, by _cramer."""
        if not self.is_square():
            raise ValueError("determinant requires a square matrix")
        return _cramer(self, IntMatrix.zero(self.rows, 0))[0]

    def inverse(self) -> "IntMatrix":
        """Inverse of a unimodular matrix, exact over the integers, by a checked
        lift.  Per prime p (_primes), _echelon_mod of [A | I] gives det A and
        A^-1 mod p; det A != +-1 mod p proves det A != +-1.  Otherwise X, the
        symmetric CRT lift of A^-1 so far, is returned once A X = I over Z,
        which proves X = A^-1 (and det A = +-1).  If det A = +-1, A^-1 =
        +-adj(A), whose entries are Cramer numerators of adj(A) I; so once
        the primes pass the bound of _augmented, the lift is A^-1 or A is not
        unimodular.  ValueError then, saying "singular" or "not invertible
        over Z" by det A.  A X = I is checked at the first prime, then only
        where a prime leaves the lift unchanged, as a right lift does, or
        past the bound: a lift that is still wrong costs no product."""
        if not self.is_square():
            raise ValueError("inverse requires a square matrix")
        n = self.rows
        if n == 0:
            return self
        bound, aug = _augmented(self, IntMatrix.identity(n))
        values, modulus, lift = [0] * (n * n), 1, None
        primes = _primes(n)
        while modulus <= bound:
            p = next(primes)
            R = (aug % p).astype(np.int64)
            if _echelon_mod(R, n, p) not in (1, p - 1):
                break
            values = _crt_step(values, modulus, R[:, n:].ravel().tolist(), p)
            modulus *= p
            last, lift = lift, _symmetric(values, modulus)
            if last is None or last == lift or modulus > bound:
                X = IntMatrix(tuple(tuple(lift[i * n:(i + 1) * n]) for i in range(n)), n)
                if mat_mul(self, X).is_identity():
                    return X
        if self.det() == 0:
            raise ValueError("matrix is singular")
        raise ValueError("matrix is not invertible over Z (|det| is not 1)")

    def __str__(self) -> str:
        return "[" + "; ".join(" ".join(str(a) for a in row) for row in self.entries) + "]"


def mat_mul(A: IntMatrix, B: IntMatrix) -> IntMatrix:
    """Exact matrix product, by the kernel _mul_path picks from a = max|A|,
    b = max|B| and k = A.cols.  A zero bound a b k means the zero product.

    int64 when a b k < 2^63: one numpy product.  A dot product adds k terms
    of size at most a b, so no partial sum overflows.  Python ints otherwise.
    """
    if A.cols != B.rows:
        raise ValueError(f"dimension mismatch: {A.shape} times {B.shape}")
    a, b, k = A.max_abs(), B.max_abs(), A.cols
    if not a * b * k:
        return IntMatrix.zero(A.rows, B.cols)
    return IntMatrix(_mul_path(a, b, k)(A, B), B.cols)


def _mul_path(a: int, b: int, k: int):
    """The mat_mul kernel for max|A| = a, max|B| = b and k = A.cols."""
    return _mul_int64 if a * b * k < _INT64_LIMIT else _mul_python


def _mul_int64(A: IntMatrix, B: IntMatrix) -> tuple[tuple[int, ...], ...]:
    C = np.array(A.entries, dtype=np.int64) @ np.array(B.entries, dtype=np.int64)
    return tuple(map(tuple, C.tolist()))


def _mul_python(A: IntMatrix, B: IntMatrix) -> tuple[tuple[int, ...], ...]:
    bt = tuple(zip(*B.entries))
    return tuple(tuple(sum(x * y for x, y in zip(row, col)) for col in bt) for row in A.entries)


def mat_pow(A: IntMatrix, n: int) -> IntMatrix:
    """Exact A**n by binary powering.  Negative n requires |det A| = 1."""
    if not A.is_square():
        raise ValueError("powers require a square matrix")
    if n < 0:
        return mat_pow(A.inverse(), -n)
    result = None
    base = A
    while n:
        if n & 1:
            result = base if result is None else mat_mul(result, base)
        n >>= 1
        if n:
            base = mat_mul(base, base)
    return IntMatrix.identity(A.rows) if result is None else result


def orbit_map(M: IntMatrix):
    """The map w -> M w of a square M, for orbits w, M w, M^2 w, ...: built
    once, then one step per call on a numpy object array w of Python ints.

    M's nonzero entries are kept row by row as an object array of Python
    ints, with their column indices and the start of each row.  A step is
    np.add.reduceat(vals * w[cols], starts): numpy's C loop makes every
    product and sum a Python-int operation, so the step is exact with no
    overflow bound, and costs one product per nonzero entry."""
    if not M.is_square():
        raise ValueError("an orbit needs a square matrix")
    n = M.rows
    A = np.array(M.entries, dtype=object).reshape(n, n)
    nonzero = A != 0
    # reduceat gives vals[start] for an empty segment, so a zero row keeps
    # its diagonal entry, an explicit 0, and no segment is empty
    rows, cols = np.nonzero(nonzero | (np.eye(n, dtype=bool) & ~nonzero.any(axis=1, keepdims=True)))
    vals = A[rows, cols]
    starts = np.searchsorted(rows, np.arange(n))
    return lambda w: np.add.reduceat(vals * w[cols], starts)


def solve_exact(A: IntMatrix, B: IntMatrix) -> IntMatrix | None:
    """Solve A*X = B exactly for integer X, as adj(A) B / det A (_cramer).

    A must be square and invertible over Q.  Returns None when the rational
    solution is not integral; raises ValueError when A is singular.
    """
    if not A.is_square():
        raise ValueError("solve requires a square matrix")
    if B.rows != A.rows:
        raise ValueError("right-hand side has wrong number of rows")
    d, adj_b = _cramer(A, B)
    if d == 0:
        raise ValueError("matrix is singular")
    if any(x % d for row in adj_b.entries for x in row):
        return None
    return IntMatrix(tuple(tuple(x // d for x in row) for row in adj_b.entries), B.cols)


# ---------------------------------------------------------------------------
# integer polynomials
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class IntPoly:
    """Integer polynomial, coefficients constant-term first.

    The zero polynomial is IntPoly(()).  Nonzero polynomials are normalized so
    the leading coefficient is nonzero.  Coefficients are Python ints.
    """

    coeffs: tuple[int, ...]

    def __post_init__(self):
        cs = self.coeffs
        while cs and cs[-1] == 0:
            cs = cs[:-1]
        object.__setattr__(self, "coeffs", cs)

    one = None  # set after class definition

    @property
    def degree(self) -> int:
        """Degree; the zero polynomial has degree -1."""
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def is_one(self) -> bool:
        return self.coeffs == (1,)

    def is_monic(self) -> bool:
        return bool(self.coeffs) and self.coeffs[-1] == 1

    def __mul__(self, other: "IntPoly") -> "IntPoly":
        if self.is_zero() or other.is_zero():
            return IntPoly(())
        out = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a:
                for j, b in enumerate(other.coeffs):
                    out[i + j] += a * b
        return IntPoly(tuple(out))

    def divmod_by(self, divisor: "IntPoly") -> tuple["IntPoly", "IntPoly"]:
        """Polynomial division over Z (_long_division)."""
        if divisor.is_zero():
            raise ValueError("division by zero polynomial")
        quo, rem = _long_division(list(self.coeffs), divisor.coeffs)
        return IntPoly(tuple(quo)), IntPoly(tuple(rem))

    def exact_div(self, divisor: "IntPoly") -> "IntPoly":
        q, r = self.divmod_by(divisor)
        if not r.is_zero():
            raise ValueError("division left a remainder")
        return q

    def __str__(self) -> str:
        return format_poly(self)


IntPoly.one = IntPoly((1,))


def _long_division(rem: list[int], divisor) -> tuple[list[int], list[int]]:
    """Quotient and remainder of rem by the nonzero divisor over Z, both
    coefficient lists, constant term first; rem is consumed.  The divisor's
    leading coefficient must divide every intermediate leading term, else
    ValueError."""
    dlen, lead = len(divisor), divisor[-1]
    if len(rem) < dlen:
        return [], rem
    terms = [(j, c) for j, c in enumerate(divisor[:-1]) if c]
    quo = [0] * (len(rem) - dlen + 1)
    for i in range(len(rem) - dlen, -1, -1):
        top = rem[i + dlen - 1]
        if top == 0:
            continue
        if top % lead != 0:
            raise ValueError("division not exact over Z")
        q = quo[i] = top // lead
        for j, c in terms:
            rem[i + j] -= q * c
    return quo, rem[:dlen - 1]


def format_poly(p: IntPoly) -> str:
    """Render like 'x^2-3x+1', descending powers, compact signs (_check_printable first)."""
    _check_printable(p.coeffs)
    if p.is_zero():
        return "0"
    parts = []
    for i in range(p.degree, -1, -1):
        c = p.coeffs[i]
        if c == 0:
            continue
        sign = "-" if c < 0 else ("+" if parts else "")
        mag = abs(c)
        if i == 0:
            term = str(mag)
        else:
            xs = "x" if i == 1 else f"x^{i}"
            term = xs if mag == 1 else f"{mag}{xs}"
        parts.append(sign + term)
    return "".join(parts)


# ---------------------------------------------------------------------------
# modular kernels: char_poly and _echelon_mod
# ---------------------------------------------------------------------------

_PRIME_TOP = 1 << 26


def _is_prime(q: int) -> bool:
    """Deterministic Miller-Rabin for q < 3,215,031,751 (bases 2, 3, 5, 7)."""
    if q < 2 or math.gcd(q, 210) != 1:
        return q in (2, 3, 5, 7)
    s = ((q - 1) & (1 - q)).bit_length() - 1
    for a in (2, 3, 5, 7):
        x = pow(a, (q - 1) >> s, q)
        if x in (1, q - 1):
            continue
        for _ in range(s - 1):
            x = x * x % q
            if x == q - 1:
                break
        else:
            return False
    return True


@lru_cache(maxsize=None)
def _prime_below(q: int) -> int:
    """Largest prime < q, for 3 <= q <= 3,215,031,751 (_is_prime)."""
    p = q - 1
    while not _is_prime(p):
        p -= 1
    return p


def _primes(n: int):
    """The primes p <= min(2^26, 1 + isqrt((2^63 - 1) // n)), largest first,
    on demand: n (p - 1)^2 < 2^63 (2^26 binds for n <= 2^11)."""
    p = min(_PRIME_TOP, 1 + math.isqrt((_INT64_LIMIT - 1) // n)) + 1
    while True:
        p = _prime_below(p)
        yield p


def _ceil_sqrt(x: int) -> int:
    r = math.isqrt(x)
    return r + (r * r < x)


def _int_array(rows) -> np.ndarray:
    """int64, or Python ints (object dtype) past int64; both reduce with %."""
    try:
        return np.array(rows, dtype=np.int64)
    except OverflowError:
        return np.array(rows, dtype=object)


def _row_norms_sq(A_int: np.ndarray) -> list[int]:
    """For each row index i of the stack A_int, shape (m, n, n) as from
    _int_array, the largest sum of squares of row i over the m matrices,
    exact: in int64 while n max|a|^2 < 2^63, else in Python ints."""
    if A_int.dtype != object:
        a = max(int(A_int.max()), -int(A_int.min()))
        if A_int.shape[-1] * a * a < _INT64_LIMIT:
            return (A_int * A_int).sum(axis=-1).max(axis=0).tolist()
    return [max(sum(a * a for a in row) for row in rows) for rows in zip(*A_int.tolist())]


def _crt_step(values: list[int], modulus: int, residues: list[int], p: int) -> list[int]:
    """Incremental CRT: values mod modulus * p matching `residues` mod p."""
    t = pow(modulus, -1, p)
    return [c + modulus * ((r - c) * t % p) for c, r in zip(values, residues)]


def _symmetric(values: list[int], modulus: int) -> list[int]:
    """Representatives in (-modulus/2, modulus/2]."""
    half = modulus // 2
    return [c - modulus if c > half else c for c in values]


def _char_poly_mod(H: np.ndarray, p: np.ndarray) -> np.ndarray:
    """Coefficients of det(xI - H[s]) mod p[s] for every slice s of the stack
    H, shape (b, n, n), as a (b, n + 1) array, constant term first, in [0, p[s]).

    Each slice holds int64 residues mod its own prime p[s], with
    n (p[s] - 1)^2 < 2^63 (_primes), and is reduced in place to upper
    Hessenberg form by similarity, one vectorized pass over all slices per
    column m: the first nonzero entry of H[s, m+1:, m] (argmax) is the pivot,
    and only the slices whose pivot is not on H[s, m+1, m] take the row swap
    and the same column swap.  The rows below lose u_i times row m+1 (one
    block update), and column m+1 gains the same u_i times the columns below
    (one product H[s, :, m+1:] @ (1, u), a sum of at most n terms below
    (p[s] - 1)^2).  A slice with no pivot has u = 0, so both updates leave it
    unchanged.  Then, after Cohen, A Course in Computational Algebraic Number
    Theory, 2.2.4, for all slices at once,
    p_{m+1} = (x - h_mm) p_m - sum_{i<m} h_im (h_{i+1,i} ... h_{m,m-1}) p_i.
    """
    b, n = H.shape[:2]
    q, primes = p[:, None], p.tolist()
    v = np.ones((b, n), dtype=np.int64)
    for m in range(n - 2):
        below = H[:, m + 1:, m] != 0
        first = below.argmax(axis=1)
        swap = np.flatnonzero(first)                  # pivot below row m + 1
        if len(swap):
            i = m + 1 + first[swap]
            H[swap, m + 1], H[swap, i] = H[swap, i], H[swap, m + 1]
            H[swap, :, m + 1], H[swap, :, i] = H[swap, :, i], H[swap, :, m + 1]
        pivots = H[:, m + 1, m].tolist()
        inv = np.array([pow(x, -1, r) if x else 0 for x, r in zip(pivots, primes)], dtype=np.int64)
        v[:, 1:n - m - 1] = H[:, m + 2:, m] * inv[:, None] % q      # v = (1, u)
        if v[:, 1:n - m - 1].any():
            u = v[:, 1:n - m - 1, None]
            H[:, m + 2:, m:] = (H[:, m + 2:, m:] - u * H[:, m + 1, None, m:]) % q[:, :, None]
            H[:, :, m + 1] = np.matmul(H[:, :, m + 1:], v[:, :n - m - 1, None])[:, :, 0] % q
    P = np.zeros((b, n + 1, n + 1), dtype=np.int64)
    P[:, 0, 0] = 1
    T = np.ones((b, n), dtype=np.int64)     # T[s, i] = h_{i+1,i} ... h_{m,m-1} mod p[s], i < m
    for m in range(n):
        if m:
            T[:, :m] = T[:, :m] * H[:, m, m - 1, None] % q
        row = P[:, m + 1]
        row[:, 1:m + 2] = P[:, m, :m + 1]
        row[:, :m + 1] -= H[:, m, m, None] * P[:, m, :m + 1] % q
        row -= np.matmul((T[:, :m] * H[:, :m, m] % q)[:, None, :], P[:, :m])[:, 0] % q
        row %= q
    return P[:, n]


# largest stack _char_poly_mod is given, in int64 entries (16 MiB)
CHAR_POLY_STACK_ENTRIES = 1 << 21


# largest char_poly_work that char_polys takes on (about a minute at 6 ns
# per step)
CHAR_POLY_MAX_WORK = 1 << 33


def char_poly_work(A: IntMatrix) -> int:
    """An estimate, in int64 steps, of the work of char_poly(A) for a square
    A of rank n and of splitting its result: n^3 per prime of
    _char_poly_mod, (n + 1) c^2 for the CRT lift of c primes, and n^2 as a
    bound on _cyclotomic_filter(n): n primality tests and a walk over its
    orders, of which there are about 2 n.  As
    e_k(b) <= prod (1 + b_i) < 2^(sum bitlen b_i) (see char_polys), c is
    taken as (1 + sum bitlen b_i) over bitlen p - 1, p the first prime of
    _primes(n).  Reads the row norms only."""
    if not A.is_square():
        raise ValueError("characteristic polynomial requires a square matrix")
    n = A.rows
    if n == 0:
        return 0
    return _char_poly_steps(n, map(_ceil_sqrt, _row_norms_sq(_int_array([A.entries]))))


def _char_poly_steps(n: int, b) -> int:
    """char_poly_work for rank n > 0 and ceil(row norms) b."""
    bits = 1 + sum(x.bit_length() for x in b)
    c = -(-bits // (next(_primes(n)).bit_length() - 1))
    return c * n ** 3 + (n + 1) * c * c + n * n


def check_char_poly_work(n: int, work: int) -> None:
    """ResourceLimitError if work, a char_poly_work estimate for a rank-n
    matrix, passes CHAR_POLY_MAX_WORK."""
    if work > CHAR_POLY_MAX_WORK:
        raise ResourceLimitError(f"the characteristic polynomial of a rank-{n} matrix would take "
                                 f"about {work} steps, over the cap {CHAR_POLY_MAX_WORK}")


def char_poly(A: IntMatrix) -> IntPoly:
    """Characteristic polynomial det(xI - A), monic, exact: char_polys([A])[0],
    so all primes of A run through _char_poly_mod as one stack."""
    return char_polys([A])[0]


def char_polys(mats) -> list[IntPoly]:
    """Characteristic polynomials det(xI - A), monic, exact, of the n x n
    matrices A in `mats`, in order.

    Computed mod primes (_char_poly_mod) and combined by the Chinese
    remainder theorem.  Bound: c_k, the coefficient of x^(n-k), is (-1)^k
    times the sum of the principal minors det A[S, S] over the k-subsets S
    of the rows.  By Hadamard, |det A[S, S]| is at most the product over i
    in S of the 2-norms of the rows A[i, S], each at most b_i, the ceiling
    of the 2-norm of the whole row i.  So |c_k| <= e_k(b_1, ..., b_n), the
    k-th elementary symmetric function.  For a stack, b_i is the largest
    over its matrices, and as e_k grows with each argument, one bound then
    covers every matrix.  Primes (_primes(n), so n (p - 1)^2 < 2^63) are
    taken up front until their product M exceeds twice the largest e_k; the
    symmetric residues in (-M/2, M/2] are then the coefficients.  All
    (matrix, prime) slices run through _char_poly_mod together, in stacks of
    at most CHAR_POLY_STACK_ENTRIES int64 entries and at least one slice.
    ResourceLimitError before the bound is formed if the char_poly_work of
    the stack's b_i, its work per matrix, passes CHAR_POLY_MAX_WORK.
    """
    mats = list(mats)
    n = mats[0].rows if mats else 0
    for A in mats:
        if not A.is_square():
            raise ValueError("characteristic polynomial requires a square matrix")
        if A.rows != n:
            raise ValueError("characteristic polynomials of one stack require one size")
    if n == 0:
        return [IntPoly.one] * len(mats)
    A_int = _int_array([A.entries for A in mats])
    norms = list(map(_ceil_sqrt, _row_norms_sq(A_int)))
    check_char_poly_work(n, _char_poly_steps(n, norms))
    e = [1]                                       # e_0, ..., e_i of b_1, ..., b_i
    for b in norms:
        e = [x + b * y for x, y in zip(e + [0], [0] + e)]
    bound = max(e)
    primes, modulus = [], 1
    for p in _primes(n):
        if modulus > 2 * bound:
            break
        primes.append(p)
        modulus *= p
    c = len(primes)
    ps = np.array(primes, dtype=np.int64)
    residues = np.empty((len(mats) * c, n + 1), dtype=np.int64)
    step = max(1, CHAR_POLY_STACK_ENTRIES // (n * n))
    for lo in range(0, len(residues), step):
        s = np.arange(lo, min(lo + step, len(residues)))
        H = (A_int[s // c] % ps[s % c, None, None]).astype(np.int64)
        residues[s] = _char_poly_mod(H, ps[s % c])
    out = []
    for j in range(len(mats)):
        coeffs, lifted = [0] * (n + 1), 1
        for p, r in zip(primes, residues[j * c:(j + 1) * c].tolist()):
            coeffs = _crt_step(coeffs, lifted, r, p)
            lifted *= p
        out.append(IntPoly(tuple(_symmetric(coeffs, modulus))))
    return out


def _echelon_mod(R: np.ndarray, n: int, p: int) -> int:
    """det R[:, :n] mod p for R of n rows, int64 residues in [0, p), by
    elimination mod p in place; 0 at the first column with no pivot, and R
    is then left part reduced.

    Each pivot row is scaled to 1 at its pivot.  When R has columns past n,
    the rows above each pivot are cleared too, so an invertible A in
    R = [A | B] leaves R[:, n:] = A^-1 B mod p; otherwise only the rows below
    (Gaussian elimination, enough for det).  Column j and the pivot row are
    reduced mod p where read; every other entry takes at most one product
    below (p - 1)^2 per pivot, so p with rows (p - 1)^2 < 2^63
    (_primes(rows)) keeps every step within int64."""
    det = 1
    for j in range(n):
        col = R[:, j] % p
        nz = np.flatnonzero(col[j:])
        if not len(nz):
            return 0
        i = j + int(nz[0])
        if i != j:
            R[[i, j]] = R[[j, i]]
            col[[i, j]] = col[[j, i]]
            det = -det
        pivot = int(col[j])
        det = det * pivot % p
        row = R[j, j:] % p * pow(pivot, -1, p) % p
        R[j, j:] = row
        col[j] = 0
        top = 0 if R.shape[1] > n else j + 1
        R[top:, j:] -= col[top:, None] * row
    R[:, n:] %= p
    return det


def _augmented(A: IntMatrix, B: IntMatrix) -> tuple[int, np.ndarray]:
    """(2H, [A | B] as an _int_array), H = prod_i max(1, ceil ||[A_i | B_i]||):
    by Hadamard, H bounds |det A| and every Cramer numerator of adj(A) B,
    whose rows are rows of A with one entry from B."""
    rows = [ra + rb for ra, rb in zip(A.entries, B.entries)]
    return 2 * math.prod(max(1, _ceil_sqrt(sum(a * a for a in row))) for row in rows), _int_array(rows)


def _cramer(A: IntMatrix, B: IntMatrix) -> tuple[int, IntMatrix | None]:
    """(det A, adj(A) B) for square A, or (0, None) if A is singular.

    Per prime (_primes), _echelon_mod of [A | B] gives det A and A^-1 B mod p;
    det A and their product adj(A) B are lifted by CRT until the primes pass
    2H (_augmented), which bounds twice |det A| and every Cramer numerator.
    A prime dividing det A is skipped; the primes dividing a nonzero det
    multiply to at most |det A| <= H, so skipped primes past 2H mean det 0.
    """
    n, m = A.rows, B.cols
    if n == 0:
        return 1, IntMatrix.zero(0, m)
    bound, aug = _augmented(A, B)
    values = [0] * (1 + n * m)     # det A, then adj(A) B row by row
    modulus = skipped = 1
    primes = _primes(n)
    while modulus <= bound:
        p = next(primes)
        R = (aug % p).astype(np.int64)
        d = _echelon_mod(R, n, p)
        if d == 0:
            skipped *= p
            if skipped > bound:
                return 0, None
            continue
        values = _crt_step(values, modulus, [d] + (R[:, n:] * d % p).ravel().tolist(), p)
        modulus *= p
    det, *adj_b = _symmetric(values, modulus)
    return det, IntMatrix(tuple(tuple(adj_b[i * m:(i + 1) * m]) for i in range(n)), m)


# ---------------------------------------------------------------------------
# Smith normal form and quotient modules
# ---------------------------------------------------------------------------

def _argmin_pivot(m, t, rows, cols):
    """Smallest nonzero |entry| in the trailing submatrix, scanned row-major;
    ties resolve to the first hit, which keeps the reduction deterministic."""
    best, least = None, 0
    for i in range(t, rows):
        row = m[i]
        for j in range(t, cols):
            a = abs(row[j])
            if a and (not least or a < least):
                best, least = (i, j), a
                if a == 1:
                    return best
    return best


def _xgcd(a: int, b: int) -> tuple[int, int, int]:
    """(g, s, u) with s a + u b = g = gcd(a, b) >= 0."""
    s, s1, u, u1 = 1, 0, 0, 1
    while b:
        q, r = divmod(a, b)
        a, b, s, s1, u, u1 = b, r, s1, s - q * s1, u1, u - q * u1
    return (a, s, u) if a >= 0 else (-a, -s, -u)


def _smith_with_transforms(A: IntMatrix):
    """Returns (U, Uinv, D, V) with U A V = D in Smith form, U Uinv = I.

    One working matrix w = [[A, I], [I, 0]] carries everything: row steps on
    its first `rows` rows act on A and U at once, and column steps on its
    first `cols` columns on A and V.  Uinv takes the inverse of each row step
    on its columns, so U Uinv = I holds exactly at every step.

    Pivot t is the smallest nonzero |entry| of the trailing submatrix
    (_argmin_pivot), swapped to (t, t).  An entry x of its column (row) that
    the pivot p divides is cleared by one row (column) update.  One that it
    does not divide takes one Bezout step: with (g, s, u) = _xgcd(p, x), rows
    (t, i) <- (s r_t + u r_i, -x/g r_t + p/g r_i), a 2x2 step of determinant
    1 that leaves g at (t, t) and 0 at (i, t); columns likewise.  g < |p|, so
    each pivot takes finitely many Bezout steps and every loop ends, but no
    proof bounds the size of the working entries on the way.  A negative
    pivot's row is negated.  Then one pass over the diagonal pairs i < j
    replaces (d_i, d_j) by (gcd, lcm) where d_i does not divide d_j: add row
    j to row i, then one Bezout column step clears (i, j) and one exact row
    update clears the (j, i) it fills.  That gives d_1 | d_2 | ... >= 0.

    When every pivot is a unit, every clear is exact, so no Bezout step and
    no gcd/lcm step runs: the transforms are those of plain elimination under
    this pivot rule.  The relation matrices and W that the package builds
    are all of this kind, and the target coordinates of every generator
    value (and of the benchmark's fixture tables under data/) are those of
    the bases they give.
    """
    rows, cols = A.shape
    w = [list(r) + [1 if i == j else 0 for j in range(rows)] for i, r in enumerate(A.entries)]
    w += [[1 if i == j else 0 for j in range(cols)] + [0] * rows for i in range(cols)]
    Ui = [[1 if i == j else 0 for j in range(rows)] for i in range(rows)]

    def row_step(i, j, a, b, c, d):
        # (r_i, r_j) <- (a r_i + b r_j, c r_i + d r_j); Uinv's columns take
        # the inverse e (d, -b; -c, a), e = a d - b c = +-1
        ri, rj = w[i], w[j]
        w[i] = [a * x + b * y for x, y in zip(ri, rj)]
        w[j] = [c * x + d * y for x, y in zip(ri, rj)]
        e = a * d - b * c
        for r in Ui:
            x, y = r[i], r[j]
            r[i], r[j] = e * (d * x - c * y), e * (a * y - b * x)

    def col_step(i, j, a, b, c, d):
        for r in w:
            x, y = r[i], r[j]
            r[i], r[j] = a * x + b * y, c * x + d * y

    def clear(t):
        # zero column t below and row t right of (t, t); only a column Bezout
        # step can refill column t
        refilled = True
        while refilled:
            refilled = False
            for i in range(t + 1, rows):
                p, x = w[t][t], w[i][t]
                if x % p:
                    g, s, u = _xgcd(p, x)
                    row_step(t, i, s, u, -x // g, p // g)
                elif x:
                    q = x // p
                    w[i] = [y - q * z for y, z in zip(w[i], w[t])]
                    for r in Ui:
                        r[t] += q * r[i]
            for j in range(t + 1, cols):
                p, x = w[t][t], w[t][j]
                if x % p:
                    g, s, u = _xgcd(p, x)
                    col_step(t, j, s, u, -x // g, p // g)
                    refilled = True
                elif x:
                    q = x // p
                    for r in w:
                        r[j] -= q * r[t]

    rank = min(rows, cols)
    for t in range(rank):
        piv = _argmin_pivot(w, t, rows, cols)
        if piv is None:
            rank = t
            break
        i, j = piv
        w[t], w[i] = w[i], w[t]
        for r in Ui:
            r[t], r[i] = r[i], r[t]
        for r in w:
            r[t], r[j] = r[j], r[t]
        clear(t)
        if w[t][t] < 0:
            w[t] = [-x for x in w[t]]
            for r in Ui:
                r[t] = -r[t]
    for i in range(rank):
        for j in range(i + 1, rank):
            if w[j][j] % w[i][i]:
                row_step(i, j, 1, 1, 0, 1)
                clear(i)
    top = w[:rows]
    return (IntMatrix(tuple(tuple(r[cols:]) for r in top), rows), IntMatrix(tuple(map(tuple, Ui)), rows),
            IntMatrix(tuple(tuple(r[:cols]) for r in top), cols),
            IntMatrix(tuple(tuple(r[:cols]) for r in w[rows:]), cols))


@dataclass(frozen=True)
class QuotientModule:
    """The abelian group Z^n / (column span of `relations`).

    `projection` maps an ambient vector to coordinates on the free part,
    `section` lifts free coordinates back to ambient representatives, and
    projection * section = identity.  `torsion` lists the invariant factors
    bigger than 1.
    """

    ambient_dim: int
    relations: IntMatrix
    free_rank: int
    torsion: tuple[int, ...]
    projection: IntMatrix
    section: IntMatrix
    _u: IntMatrix = field(repr=False)
    _diag: tuple[int, ...] = field(repr=False)

    def contains(self, v: IntVector) -> bool:
        """Membership of v in the relation subgroup itself (not its saturation)."""
        if v.dim != self.ambient_dim:
            raise ValueError("vector has wrong ambient dimension")
        y = self._u.apply(v)
        r = len(self._diag)
        for i in range(self.ambient_dim):
            if i < r:
                if y.entries[i] % self._diag[i] != 0:
                    return False
            elif y.entries[i] != 0:
                return False
        return True


def quotient_module(ambient_dim: int, relations: IntMatrix) -> QuotientModule:
    """Structure of Z^ambient_dim modulo the columns of `relations`.

    One Smith form U R V = D (_smith_with_transforms) gives everything: the
    rows of U past the rank of R are the projection, the matching columns of
    U^-1 the section.  So the free coordinates are those of the pivot rule
    there; relations whose pivots are all units, as every relation matrix
    and W the package builds, give the bases of plain elimination."""
    if relations.rows != ambient_dim:
        raise ValueError(f"relations must have {ambient_dim} rows, got {relations.rows}")
    U, Uinv, D, _ = _smith_with_transforms(relations)
    diag = [D.entries[i][i] for i in range(min(D.rows, D.cols))]
    diag = [d for d in diag if d != 0]
    rank = len(diag)
    torsion = tuple(d for d in diag if d > 1)
    free_idx = list(range(rank, ambient_dim))
    projection = IntMatrix(tuple(U.entries[i] for i in free_idx), ambient_dim)
    section = IntMatrix(tuple(tuple(Uinv.entries[i][j] for j in free_idx) for i in range(ambient_dim)),
                        len(free_idx))
    return QuotientModule(
        ambient_dim=ambient_dim,
        relations=relations,
        free_rank=ambient_dim - rank,
        torsion=torsion,
        projection=projection,
        section=section,
        _u=U,
        _diag=tuple(diag),
    )


# ---------------------------------------------------------------------------
# cyclotomic machinery and partial hyperbolicity
# ---------------------------------------------------------------------------

def _prime_factors(d: int) -> list[int]:
    """The distinct primes dividing d >= 1, ascending, by trial division."""
    out, p = [], 2
    while p * p <= d:
        if d % p == 0:
            out.append(p)
            while d % p == 0:
                d //= p
        p += 1
    if d > 1:
        out.append(d)
    return out


@lru_cache(maxsize=None)
def cyclotomic(d: int) -> IntPoly:
    """The d-th cyclotomic polynomial, as the Moebius product of the
    (x^e - 1)^mu(d/e) over e | d: one shift-and-subtract c (x^e - 1) per
    numerator (mu = 1), then one exact synthetic division per denominator
    (mu = -1).  Only the squarefree d/e, products of the primes of d, count."""
    if d < 1:
        raise ValueError("cyclotomic index must be >= 1")
    mu = {1: 1}
    for p in _prime_factors(d):
        mu.update({s * p: -m for s, m in mu.items()})
    c = [1]
    for e in (d // s for s, m in mu.items() if m == 1):
        c = [a - b for a, b in zip([0] * e + c, c + [0] * e)]
    for e in (d // s for s, m in mu.items() if m == -1):
        quo = c[e:]                       # c = (x^e - 1) quo: quo_j = c_(j+e) + quo_(j+e)
        for j in range(len(quo) - 1 - e, -1, -1):
            quo[j] += quo[j + e]
        assert all(a + b == 0 for a, b in itertools.zip_longest(c[:e], quo[:e], fillvalue=0)), "inexact division"
        c = quo
    return IntPoly(tuple(c))


@lru_cache(maxsize=None)
def _root_of_unity(d: int) -> tuple[int, int]:
    """(q, z): the largest prime q < 2^31 with q = 1 mod d, and z in F_q of
    exact order d, the first g^((q - 1)/d), g = 2, 3, ..., with
    z^(d/l) != 1 for every prime l | d."""
    q = ((1 << 31) - 2) // d * d + 1               # the largest k d + 1 below 2^31
    while not _is_prime(q):
        q -= d
    ls = _prime_factors(d)
    for g in itertools.count(2):
        z = pow(g, (q - 1) // d, q)
        if all(pow(z, d // l, q) != 1 for l in ls):
            return q, z


@lru_cache(maxsize=None)
def _cyclotomic_filter(max_degree: int) -> tuple[tuple[int, ...], np.ndarray, np.ndarray]:
    """The orders d >= 3 with phi(d) <= max_degree, ascending, and their
    primes q_d and roots z_d (_root_of_unity) as int64 arrays.  The orders
    are built as products of prime powers p^k over the primes p <=
    max_degree + 1, smallest first.  phi(d) is the product of the
    (p - 1) p^(k-1), each factor >= 1, so a product stops taking primes at
    the first p whose p - 1 would take its phi past max_degree."""
    primes = [p for p in range(2, max_degree + 2) if _is_prime(p)]
    ds, stack = [], [(1, 1, 0)]                    # (d, phi(d), index of the least prime d may take)
    while stack:
        d, phi, i = stack.pop()
        ds.append(d)
        for j in range(i, len(primes)):
            p = primes[j]
            e, f = d * p, phi * (p - 1)
            if f > max_degree:
                break
            while f <= max_degree:
                stack.append((e, f, j + 1))
                e, f = e * p, f * p
    ds = tuple(sorted(d for d in ds if d >= 3))
    qz = np.array([_root_of_unity(d) for d in ds], dtype=np.int64).reshape(-1, 2)
    return ds, qz[:, 0], qz[:, 1]


def _strip_x_minus_one(c: list[int]) -> list[int]:
    """c / (x - 1)^k for the largest k, by synthetic division: the quotient's
    coefficients are the suffix sums of c's, and the last, c(1), is the
    remainder."""
    while len(c) > 1:
        s = list(itertools.accumulate(reversed(c)))
        if s[-1]:
            break
        c = s[-2::-1]
    return c


def _negate_x(c: list[int]) -> list[int]:
    """The coefficients of c(-x)."""
    return [-a if i & 1 else a for i, a in enumerate(c)]


def cyclotomic_part(p: IntPoly) -> tuple[IntPoly, IntPoly]:
    """Split p = q*r with q the maximal cyclotomic divisor (with multiplicity)
    and r free of cyclotomic factors.

    Requires p monic with p(0) != 0: a zero root means the matrix it came from
    was not invertible, and callers must strip x-powers themselves.

    First x - 1 and x + 1 are stripped by synthetic division
    (_strip_x_minus_one, on p(x) and then on p(-x)).  Every other Phi_d
    dividing the rest r has d >= 3 and phi(d) <= deg r, and a mod-q filter
    rules out most of these d at once: with q_d a prime = 1 mod d and z_d of
    exact order d in F_q (_root_of_unity), r(z_d) mod q_d is taken for all d
    by one Horner pass in int64 (residues and z_d below 2^31, so every step
    stays below 2^62 + 2^31).  No true factor is dropped: if Phi_d | r over
    Z, then r(z_d) = Phi_d(z_d) s(z_d) mod q_d, and Phi_d(z_d) = 0 mod q_d,
    since z_d is a root of x^d - 1, the product of the Phi_e over e | d, and
    not of Phi_e for e < d, which divides x^e - 1 while z_d^e != 1.  Only
    the survivors, r(z_d) = 0 mod q_d, are divided over Z, by Phi_d built
    then (cyclotomic), as long as the division is exact.
    """
    if p.is_zero() or not p.is_monic():
        raise ValueError("cyclotomic splitting requires a monic polynomial")
    if p.coeffs[0] == 0:
        raise ValueError("polynomial has 0 as a root; not the char poly of an invertible matrix")
    r = _negate_x(_strip_x_minus_one(_negate_x(_strip_x_minus_one(list(p.coeffs)))))
    if r[-1] < 0:                                   # (-1)^k, k the multiplicity of x + 1
        r = [-a for a in r]
    if len(r) > 2:
        ds, qs, zs = _cyclotomic_filter(len(r) - 1)
        coeffs = _int_array(r)
        residues = coeffs[:, None] % qs.astype(coeffs.dtype)
        value = np.zeros(len(ds), dtype=np.int64)
        for row in residues[::-1].astype(np.int64):
            value = (value * zs + row) % qs
        for i in np.flatnonzero(value == 0).tolist():
            phi = cyclotomic(ds[i]).coeffs
            while len(r) >= len(phi):
                quo, rem = _long_division(list(r), phi)
                if any(rem):
                    break
                r = quo
    if len(r) == 1:
        return p, IntPoly.one
    rp = IntPoly(tuple(r))
    return (IntPoly.one, p) if rp == p else (p.exact_div(rp), rp)


def is_partially_hyperbolic(A: IntMatrix) -> bool:
    """True iff the unimodular integer matrix A has an eigenvalue of modulus > 1.

    Exact criterion: split the characteristic polynomial into its cyclotomic
    part q and cyclotomic-free part r; A is partially hyperbolic iff r != 1.
    Why this works: the char poly factors over Z into irreducibles, each of
    which contributes a full Galois orbit of eigenvalues.  By Kronecker's
    theorem an irreducible monic integer polynomial whose roots all lie on the
    unit circle is cyclotomic; a non-cyclotomic irreducible factor with
    constant term +-1 therefore has some root of modulus > 1.
    """
    if not A.is_square():
        raise ValueError("partial hyperbolicity requires a square matrix")
    return not noncyclotomic_factor(char_poly(A)).is_one()


def noncyclotomic_factor(p: IntPoly) -> IntPoly:
    """The cyclotomic-free factor r of p = char_poly(A) (see cyclotomic_part).
    ValueError unless det A = (-1)^n p(0) is +-1."""
    if p.coeffs[0] not in (1, -1):
        raise ValueError("criterion applies only to matrices with determinant +-1")
    return cyclotomic_part(p)[1]


# ---------------------------------------------------------------------------
# JSON wire formats
# ---------------------------------------------------------------------------

def matrix_to_json(A: IntMatrix) -> dict:
    """{"rows": r, "cols": c, "entries": [[...], ...]}, decimal strings (_check_printable first)."""
    _check_printable(x for row in A.entries for x in row)
    return {
        "rows": A.rows,
        "cols": A.cols,
        "entries": [[str(x) for x in row] for row in A.entries],
    }


def int_from_json(x) -> int:
    """The one reader of JSON integers: an int that is not a bool, or a
    decimal string (an optional sign and ASCII digits, nothing else) within
    the int-to-str digit limit.  ValueError for anything else (floats, and
    the spaces, underscores and non-ASCII digits int() would take,
    included)."""
    if type(x) is int:
        return x
    if isinstance(x, str):
        digits = x[1:] if x[:1] in ("+", "-") else x
        if not (digits.isascii() and digits.isdigit()):
            raise ValueError(f"expected an integer or a decimal string, got {x!r:.60}")
        try:
            return int(x)
        except ValueError:
            # only the digit limit of Python 3.11+ fails a string of digits
            limit = sys.get_int_max_str_digits()
            raise ValueError(f"a decimal string may have at most {limit} digits; this one has {len(digits)}") from None
    what = x if isinstance(x, float) else type(x).__name__
    raise ValueError(f"expected an integer or a decimal string, got {what}")


def _int_rows(obj) -> list[list[int]]:
    if not isinstance(obj, list) or not all(isinstance(row, list) for row in obj):
        raise ValueError('a matrix is a list of rows or {"rows": r, "cols": c, "entries": [...]}')
    return [[int_from_json(x) for x in row] for row in obj]


def matrix_from_json(obj) -> IntMatrix:
    """Accepts the dict form above or a bare list of rows, every integer
    read by int_from_json; any other shape is a ValueError."""
    if isinstance(obj, dict):
        m = IntMatrix.from_rows(_int_rows(obj.get("entries")), int_from_json(obj.get("cols")))
        if m.rows != int_from_json(obj.get("rows")):
            raise ValueError("row count does not match entries")
        return m
    return IntMatrix.from_rows(_int_rows(obj))


def vector_to_json(v: IntVector) -> list:
    _check_printable(v.entries)
    return [str(x) for x in v.entries]


def vector_from_json(obj) -> IntVector:
    if not isinstance(obj, list):
        raise ValueError("a vector is a list of integers")
    return IntVector(tuple(map(int_from_json, obj)))


def poly_to_json(p: IntPoly) -> dict:
    _check_printable(p.coeffs)
    return {"coeffs": [str(c) for c in p.coeffs]}
