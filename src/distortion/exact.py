"""Exact integer linear algebra: matrices, polynomials, Smith normal form,
quotient modules, cyclotomic factor splitting and the partial-hyperbolicity test.

Everything here works over arbitrary-precision Python ints.  Rationals appear
only transiently (inside exact solves); every public result is integral and
every division performed is asserted exact.  All values are immutable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache


# ---------------------------------------------------------------------------
# matrices and vectors
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class IntVector:
    """Dense integer vector."""

    entries: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "entries", tuple(int(x) for x in self.entries))

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

    def scale(self, c: int) -> "IntVector":
        return IntVector(tuple(c * a for a in self.entries))

    def is_zero(self) -> bool:
        return all(a == 0 for a in self.entries)

    def sup_norm(self) -> int:
        return max((abs(a) for a in self.entries), default=0)

    def l1_norm(self) -> int:
        return sum(abs(a) for a in self.entries)

    def content(self) -> int:
        """gcd of the entries (0 for the zero vector)."""
        return math.gcd(*self.entries) if self.entries else 0

    def is_primitive(self) -> bool:
        return self.content() == 1


@dataclass(frozen=True)
class IntMatrix:
    """Dense integer matrix, row-major.  Zero rows or columns are permitted
    (they arise as empty relation sets and rank-0 projections)."""

    entries: tuple[tuple[int, ...], ...]
    cols: int

    def __post_init__(self):
        ents = tuple(tuple(int(x) for x in row) for row in self.entries)
        object.__setattr__(self, "entries", ents)
        for row in ents:
            if len(row) != self.cols:
                raise ValueError(f"ragged row: expected {self.cols} entries, got {len(row)}")

    @staticmethod
    def from_rows(rows, cols: int | None = None) -> "IntMatrix":
        rows = tuple(tuple(r) for r in rows)
        if cols is None:
            if not rows:
                raise ValueError("cannot infer column count of an empty matrix")
            cols = len(rows[0])
        return IntMatrix(rows, cols)

    @staticmethod
    def identity(n: int) -> "IntMatrix":
        return IntMatrix(tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n)), n)

    @staticmethod
    def zero(rows: int, cols: int) -> "IntMatrix":
        return IntMatrix(tuple((0,) * cols for _ in range(rows)), cols)

    @staticmethod
    def from_columns(columns, rows: int) -> "IntMatrix":
        cols = tuple(tuple(c) for c in columns)
        return IntMatrix(tuple(tuple(c[i] for c in cols) for i in range(rows)), len(cols))

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

    def transpose(self) -> "IntMatrix":
        if not self.entries:
            return IntMatrix(tuple(() for _ in range(self.cols)), 0)
        return IntMatrix(tuple(zip(*self.entries)), self.rows)

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
        return max((abs(a) for row in self.entries for a in row), default=0)

    def mod(self, L: int) -> "IntMatrix":
        """Entrywise reduction to representatives in [0, L)."""
        if L < 2:
            raise ValueError("modulus must be >= 2")
        return IntMatrix(tuple(tuple(a % L for a in row) for row in self.entries), self.cols)

    def det(self) -> int:
        """Exact determinant by fraction-free (Bareiss) elimination."""
        if not self.is_square():
            raise ValueError("determinant requires a square matrix")
        n = self.rows
        if n == 0:
            return 1
        m = [list(row) for row in self.entries]
        sign = 1
        prev = 1
        for k in range(n - 1):
            if m[k][k] == 0:
                for i in range(k + 1, n):
                    if m[i][k] != 0:
                        m[k], m[i] = m[i], m[k]
                        sign = -sign
                        break
                else:
                    return 0
            for i in range(k + 1, n):
                for j in range(k + 1, n):
                    m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
                m[i][k] = 0
            prev = m[k][k]
        return sign * m[n - 1][n - 1]

    def inverse(self) -> "IntMatrix":
        """Inverse of a unimodular matrix, exact over the integers."""
        X = solve_exact(self, IntMatrix.identity(self.rows))
        if X is None:
            raise ValueError("matrix is singular")
        return X

    def __str__(self) -> str:
        return "[" + "; ".join(" ".join(str(a) for a in row) for row in self.entries) + "]"


def mat_mul(A: IntMatrix, B: IntMatrix) -> IntMatrix:
    """Exact matrix product."""
    if A.cols != B.rows:
        raise ValueError(f"dimension mismatch: {A.shape} times {B.shape}")
    bt = tuple(zip(*B.entries)) if B.entries else ((),) * B.cols
    out = tuple(
        tuple(sum(a * b for a, b in zip(row, col)) for col in bt)
        for row in A.entries
    )
    return IntMatrix(out, B.cols)


def mat_pow(A: IntMatrix, n: int) -> IntMatrix:
    """Exact A**n by binary powering.  Negative n requires |det A| = 1."""
    if not A.is_square():
        raise ValueError("powers require a square matrix")
    if n < 0:
        d = A.det()
        if d not in (1, -1):
            raise ValueError("negative power of a non-unimodular matrix")
        return mat_pow(A.inverse(), -n)
    result = IntMatrix.identity(A.rows)
    base = A
    while n:
        if n & 1:
            result = mat_mul(result, base)
        n >>= 1
        if n:
            base = mat_mul(base, base)
    return result


def solve_exact(A: IntMatrix, B: IntMatrix) -> IntMatrix | None:
    """Solve A*X = B exactly for integer X.

    A must be square and invertible over Q.  Returns None when the rational
    solution is not integral; raises ValueError when A is singular.
    """
    if not A.is_square():
        raise ValueError("solve requires a square matrix")
    n = A.rows
    if n == 0:
        return IntMatrix.zero(0, B.cols)
    if B.rows != n:
        raise ValueError("right-hand side has wrong number of rows")
    aug = [[Fraction(x) for x in row_a] + [Fraction(x) for x in row_b]
           for row_a, row_b in zip(A.entries, B.entries)]
    w = B.cols
    for k in range(n):
        piv = next((i for i in range(k, n) if aug[i][k] != 0), None)
        if piv is None:
            raise ValueError("matrix is singular")
        aug[k], aug[piv] = aug[piv], aug[k]
        pk = aug[k][k]
        aug[k] = [x / pk for x in aug[k]]
        for i in range(n):
            if i != k and aug[i][k] != 0:
                f = aug[i][k]
                aug[i] = [x - f * y for x, y in zip(aug[i], aug[k])]
    sol = [row[n:] for row in aug]
    if any(x.denominator != 1 for row in sol for x in row):
        return None
    return IntMatrix(tuple(tuple(int(x) for x in row) for row in sol), w)


def rational_rank(A: IntMatrix) -> int:
    """Rank over Q by fraction-free elimination."""
    m = [list(row) for row in A.entries]
    rank = 0
    col = 0
    rows, cols = A.shape
    while rank < rows and col < cols:
        piv = next((i for i in range(rank, rows) if m[i][col] != 0), None)
        if piv is None:
            col += 1
            continue
        m[rank], m[piv] = m[piv], m[rank]
        for i in range(rank + 1, rows):
            if m[i][col] != 0:
                a, b = m[rank][col], m[i][col]
                m[i] = [a * x - b * y for x, y in zip(m[i], m[rank])]
        rank += 1
        col += 1
    return rank


# ---------------------------------------------------------------------------
# integer polynomials
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class IntPoly:
    """Integer polynomial, coefficients constant-term first.

    The zero polynomial is IntPoly(()).  Nonzero polynomials are normalized so
    the leading coefficient is nonzero.
    """

    coeffs: tuple[int, ...]

    def __post_init__(self):
        cs = tuple(int(c) for c in self.coeffs)
        while cs and cs[-1] == 0:
            cs = cs[:-1]
        object.__setattr__(self, "coeffs", cs)

    @staticmethod
    def constant(c: int) -> "IntPoly":
        return IntPoly((c,))

    @staticmethod
    def x_power_minus_one(d: int) -> "IntPoly":
        return IntPoly((-1,) + (0,) * (d - 1) + (1,))

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

    def __add__(self, other: "IntPoly") -> "IntPoly":
        n = max(len(self.coeffs), len(other.coeffs))
        a = self.coeffs + (0,) * (n - len(self.coeffs))
        b = other.coeffs + (0,) * (n - len(other.coeffs))
        return IntPoly(tuple(x + y for x, y in zip(a, b)))

    def __sub__(self, other: "IntPoly") -> "IntPoly":
        return self + other.scale(-1)

    def scale(self, c: int) -> "IntPoly":
        return IntPoly(tuple(c * x for x in self.coeffs))

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
        """Polynomial division over Z.  The divisor's leading coefficient must
        divide every intermediate leading term, else ValueError."""
        if divisor.is_zero():
            raise ValueError("division by zero polynomial")
        rem = list(self.coeffs)
        dlen = len(divisor.coeffs)
        lead = divisor.coeffs[-1]
        if len(rem) < dlen:
            return IntPoly(()), IntPoly(tuple(rem))
        quo = [0] * (len(rem) - dlen + 1)
        for i in range(len(rem) - dlen, -1, -1):
            top = rem[i + dlen - 1]
            if top == 0:
                continue
            if top % lead != 0:
                raise ValueError("division not exact over Z")
            q = top // lead
            quo[i] = q
            for j, c in enumerate(divisor.coeffs):
                rem[i + j] -= q * c
        return IntPoly(tuple(quo)), IntPoly(tuple(rem))

    def divides(self, other: "IntPoly") -> bool:
        try:
            _, r = other.divmod_by(self)
        except ValueError:
            return False
        return r.is_zero()

    def exact_div(self, divisor: "IntPoly") -> "IntPoly":
        q, r = self.divmod_by(divisor)
        if not r.is_zero():
            raise ValueError("division left a remainder")
        return q

    def eval_matrix(self, A: IntMatrix) -> IntMatrix:
        """Horner evaluation at a square matrix."""
        if not A.is_square():
            raise ValueError("polynomial evaluation requires a square matrix")
        n = A.rows
        acc = IntMatrix.zero(n, n)
        for c in reversed(self.coeffs):
            acc = mat_mul(acc, A) + IntMatrix.identity(n).scale(c)
        return acc

    def __str__(self) -> str:
        return format_poly(self)


IntPoly.one = IntPoly((1,))


def format_poly(p: IntPoly, var: str = "x") -> str:
    """Render like 'x^2-3x+1', descending powers, compact signs."""
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
            xs = var if i == 1 else f"{var}^{i}"
            term = xs if mag == 1 else f"{mag}{xs}"
        parts.append(sign + term)
    return "".join(parts)


def char_poly(A: IntMatrix) -> IntPoly:
    """Characteristic polynomial det(xI - A), monic, exact.

    Uses the Faddeev-LeVerrier recurrence; every trace division is asserted
    exact, so any arithmetic slip fails loudly rather than silently.
    """
    if not A.is_square():
        raise ValueError("characteristic polynomial requires a square matrix")
    n = A.rows
    if n == 0:
        return IntPoly.one
    coeffs = [0] * (n + 1)
    coeffs[n] = 1
    M = IntMatrix.identity(n)
    for k in range(1, n + 1):
        M = mat_mul(A, M)
        tr = sum(M.entries[i][i] for i in range(n))
        if tr % k != 0:
            raise ArithmeticError("Faddeev-LeVerrier trace division was not exact")
        c = -(tr // k)
        coeffs[n - k] = c
        if k < n:
            M = M + IntMatrix.identity(n).scale(c)
    return IntPoly(tuple(coeffs))


# ---------------------------------------------------------------------------
# Smith normal form and quotient modules
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SnfResult:
    """U*A*V = D with U, V unimodular and D diagonal, d1 | d2 | ... >= 0."""

    U: IntMatrix
    D: IntMatrix
    V: IntMatrix

    def diagonal(self) -> tuple[int, ...]:
        m = min(self.D.rows, self.D.cols)
        return tuple(self.D.entries[i][i] for i in range(m))


def _argmin_pivot(m, t, rows, cols):
    """Smallest nonzero |entry| in the trailing submatrix, scanned row-major;
    ties resolve to the first hit, which keeps the reduction deterministic."""
    best = None
    best_val = None
    for i in range(t, rows):
        row = m[i]
        for j in range(t, cols):
            v = row[j]
            if v != 0:
                a = abs(v)
                if best_val is None or a < best_val:
                    best, best_val = (i, j), a
                    if a == 1:
                        return best
    return best


def _smith_with_transforms(A: IntMatrix):
    """Returns (U, Uinv, D, V).  Row ops are mirrored on U and inverted on
    Uinv so that U*A*V = D and U*Uinv = I hold exactly at every step."""
    rows, cols = A.shape
    m = [list(r) for r in A.entries]
    U = [[1 if i == j else 0 for j in range(rows)] for i in range(rows)]
    Ui = [[1 if i == j else 0 for j in range(rows)] for i in range(rows)]
    V = [[1 if i == j else 0 for j in range(cols)] for i in range(cols)]

    def swap_rows(a, b):
        m[a], m[b] = m[b], m[a]
        U[a], U[b] = U[b], U[a]
        for r in Ui:
            r[a], r[b] = r[b], r[a]

    def swap_cols(a, b):
        for r in m:
            r[a], r[b] = r[b], r[a]
        for r in V:
            r[a], r[b] = r[b], r[a]

    def add_row(src, dst, q):
        # row dst += q * row src
        m[dst] = [x + q * y for x, y in zip(m[dst], m[src])]
        U[dst] = [x + q * y for x, y in zip(U[dst], U[src])]
        for r in Ui:
            r[src] -= q * r[dst]

    def add_col(src, dst, q):
        for r in m:
            r[dst] += q * r[src]
        for r in V:
            r[dst] += q * r[src]

    def negate_row(i):
        m[i] = [-x for x in m[i]]
        U[i] = [-x for x in U[i]]
        for r in Ui:
            r[i] = -r[i]

    t = 0
    limit = min(rows, cols)
    while t < limit:
        piv = _argmin_pivot(m, t, rows, cols)
        if piv is None:
            break
        swap_rows(t, piv[0])
        swap_cols(t, piv[1])
        while True:
            dirty = True
            while dirty:
                dirty = False
                for i in range(t + 1, rows):
                    if m[i][t] != 0:
                        q = m[i][t] // m[t][t]
                        add_row(t, i, -q)
                        if m[i][t] != 0:
                            swap_rows(t, i)
                            dirty = True
                for j in range(t + 1, cols):
                    if m[t][j] != 0:
                        q = m[t][j] // m[t][t]
                        add_col(t, j, -q)
                        if m[t][j] != 0:
                            swap_cols(t, j)
                            dirty = True
            # the pivot must divide the whole trailing submatrix, else the
            # invariant-factor chain would fail; fold an offending row into
            # row t and re-clear (each round strictly shrinks |pivot|)
            p = m[t][t]
            bad = next(
                ((i, j) for i in range(t + 1, rows) for j in range(t + 1, cols) if m[i][j] % p != 0),
                None,
            )
            if bad is None:
                break
            add_row(bad[0], t, 1)
        if m[t][t] < 0:
            negate_row(t)
        t += 1

    D = IntMatrix(tuple(tuple(r) for r in m), cols)
    return (
        IntMatrix(tuple(tuple(r) for r in U), rows),
        IntMatrix(tuple(tuple(r) for r in Ui), rows),
        D,
        IntMatrix(tuple(tuple(r) for r in V), cols),
    )


def smith_normal_form(A: IntMatrix) -> SnfResult:
    """Smith normal form with unimodular transforms, pivoting on the smallest
    nonzero absolute value (row-major tie break) for deterministic output."""
    U, _, D, V = _smith_with_transforms(A)
    return SnfResult(U, D, V)


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

    def free_coords(self, v: IntVector) -> IntVector:
        """Coordinates of v's class on the free part of the quotient."""
        return self.projection.apply(v)


def quotient_module(ambient_dim: int, relations: IntMatrix) -> QuotientModule:
    """Structure of Z^ambient_dim modulo the columns of `relations`."""
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

@lru_cache(maxsize=None)
def euler_phi(d: int) -> int:
    phi = d
    n = d
    p = 2
    while p * p <= n:
        if n % p == 0:
            phi -= phi // p
            while n % p == 0:
                n //= p
        p += 1
    if n > 1:
        phi -= phi // n
    return phi


@lru_cache(maxsize=None)
def cyclotomic(d: int) -> IntPoly:
    """The d-th cyclotomic polynomial, by exact division of x^d - 1 by the
    cyclotomic polynomials of the proper divisors of d."""
    if d < 1:
        raise ValueError("cyclotomic index must be >= 1")
    p = IntPoly.x_power_minus_one(d)
    for e in range(1, d):
        if d % e == 0:
            p = p.exact_div(cyclotomic(e))
    return p


def _cyclotomic_candidates(max_degree: int) -> list[int]:
    """All d with phi(d) <= max_degree.  Since phi(d) >= sqrt(d/2), scanning
    d <= 2*max_degree^2 is provably sufficient."""
    bound = 2 * max_degree * max_degree
    return [d for d in range(1, bound + 1) if euler_phi(d) <= max_degree]


def cyclotomic_part(p: IntPoly) -> tuple[IntPoly, IntPoly]:
    """Split p = q*r with q the maximal cyclotomic divisor (with multiplicity)
    and r free of cyclotomic factors.

    Requires p monic with p(0) != 0: a zero root means the matrix it came from
    was not invertible, and callers must strip x-powers themselves.
    """
    if p.is_zero() or not p.is_monic():
        raise ValueError("cyclotomic splitting requires a monic polynomial")
    if p.coeffs[0] == 0:
        raise ValueError("polynomial has 0 as a root; not the char poly of an invertible matrix")
    q = IntPoly.one
    r = p
    for d in _cyclotomic_candidates(p.degree):
        phi_d = cyclotomic(d)
        if phi_d.degree > r.degree:
            continue
        while phi_d.degree <= r.degree and phi_d.divides(r):
            r = r.exact_div(phi_d)
            q = q * phi_d
    return q, r


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
    if A.det() not in (1, -1):
        raise ValueError("criterion applies only to matrices with determinant +-1")
    _, r = cyclotomic_part(char_poly(A))
    return not r.is_one()


# ---------------------------------------------------------------------------
# JSON wire formats
# ---------------------------------------------------------------------------

def matrix_to_json(A: IntMatrix) -> dict:
    """{"rows": r, "cols": c, "entries": [[...], ...]} with decimal-string entries."""
    return {
        "rows": A.rows,
        "cols": A.cols,
        "entries": [[str(x) for x in row] for row in A.entries],
    }


def matrix_from_json(obj) -> IntMatrix:
    """Accepts the dict form above (entries as ints or decimal strings) or a
    bare list-of-rows."""
    if isinstance(obj, list):
        return IntMatrix.from_rows([[int(x) for x in row] for row in obj])
    entries = [[int(x) for x in row] for row in obj["entries"]]
    m = IntMatrix(tuple(tuple(r) for r in entries), int(obj["cols"]))
    if m.rows != int(obj["rows"]):
        raise ValueError("row count does not match entries")
    return m


def vector_to_json(v: IntVector) -> list:
    return [str(x) for x in v.entries]


def vector_from_json(obj) -> IntVector:
    return IntVector(tuple(int(x) for x in obj))


def poly_to_json(p: IntPoly) -> dict:
    return {"coeffs": [str(c) for c in p.coeffs]}


def poly_from_json(obj) -> IntPoly:
    if isinstance(obj, list):
        return IntPoly(tuple(int(c) for c in obj))
    return IntPoly(tuple(int(c) for c in obj["coeffs"]))
