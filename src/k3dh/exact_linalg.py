"""Exact linear algebra over the integers and rationals.

Everything here is deterministic and exact: integer matrices use Python's
arbitrary-precision ints, rational matrices use fractions.Fraction.  No
floating point enters at any stage, so results are reproducible bit for bit
across platforms.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, Optional, Sequence

Rat = Fraction


class InvariantError(RuntimeError):
    """An exact identity the construction guarantees has failed: a bug."""


def _as_int_rows(rows: Iterable[Iterable[int]]) -> tuple[tuple[int, ...], ...]:
    out = []
    for row in rows:
        t = tuple(row)
        for x in t:
            if not isinstance(x, int) or isinstance(x, bool):
                raise TypeError(f"integer entry expected, got {x!r}")
        out.append(t)
    return tuple(out)


def _as_rat_rows(rows: Iterable[Iterable]) -> tuple[tuple[Rat, ...], ...]:
    # Fraction construction normalizes (reduced, positive denominator).
    return tuple(tuple(Rat(x) for x in row) for row in rows)


@dataclass(frozen=True)
class IntMatrix:
    """Immutable integer matrix, stored as a tuple of row tuples."""

    rows: tuple[tuple[int, ...], ...]

    def __init__(self, rows: Iterable[Iterable[int]]):
        object.__setattr__(self, "rows", _as_int_rows(rows))
        if self.rows:
            w = len(self.rows[0])
            if any(len(r) != w for r in self.rows):
                raise ValueError("ragged rows")

    @classmethod
    def _trusted(cls, rows: tuple[tuple[int, ...], ...]) -> "IntMatrix":
        # rows already are equal-length tuples of ints computed from
        # validated matrices, so the per-entry checks are skipped
        m = object.__new__(cls)
        object.__setattr__(m, "rows", rows)
        return m

    @property
    def nrows(self) -> int:
        return len(self.rows)

    @property
    def ncols(self) -> int:
        return len(self.rows[0]) if self.rows else 0

    @classmethod
    def identity(cls, n: int) -> "IntMatrix":
        return cls([[1 if i == j else 0 for j in range(n)] for i in range(n)])

    @classmethod
    def zeros(cls, nrows: int, ncols: int) -> "IntMatrix":
        return cls([[0] * ncols for _ in range(nrows)])

    def __getitem__(self, ij: tuple[int, int]) -> int:
        i, j = ij
        return self.rows[i][j]

    def transpose(self) -> "IntMatrix":
        return IntMatrix._trusted(tuple(zip(*self.rows)))

    def mul(self, other: "IntMatrix") -> "IntMatrix":
        """Row-sparse product: output row i is the sum of a * other.rows[k]
        over the nonzero entries a = self[i, k], so the cost is
        nnz(self) * other.ncols and a transvection-shaped left factor
        (identity plus one row and one column) costs O(n * nnz)."""
        if self.ncols != other.nrows:
            raise ValueError("dimension mismatch")
        zero = (0,) * other.ncols
        out = []
        for row in self.rows:
            terms = [(a, orow) for a, orow in zip(row, other.rows) if a]
            if not terms:
                out.append(zero)
            elif len(terms) == 1:
                a, orow = terms[0]
                out.append(orow if a == 1 else tuple([a * x for x in orow]))
            else:
                scaled = [orow if a == 1 else [a * x for x in orow] for a, orow in terms]
                out.append(tuple(map(sum, zip(*scaled))))
        return IntMatrix._trusted(tuple(out))

    def mul_vec(self, v: Sequence[int]) -> tuple[int, ...]:
        if self.ncols != len(v):
            raise ValueError("dimension mismatch")
        return tuple(sum(a * b for a, b in zip(row, v)) for row in self.rows)

    def to_rat(self) -> "RatMatrix":
        return RatMatrix(self.rows)

    def is_symmetric(self) -> bool:
        return self.nrows == self.ncols and all(
            self.rows[i][j] == self.rows[j][i]
            for i in range(self.nrows)
            for j in range(i)
        )


@dataclass(frozen=True)
class RatMatrix:
    """Immutable matrix of Fractions (always stored reduced)."""

    rows: tuple[tuple[Rat, ...], ...]

    def __init__(self, rows: Iterable[Iterable]):
        object.__setattr__(self, "rows", _as_rat_rows(rows))
        if self.rows:
            w = len(self.rows[0])
            if any(len(r) != w for r in self.rows):
                raise ValueError("ragged rows")

    @property
    def nrows(self) -> int:
        return len(self.rows)

    @property
    def ncols(self) -> int:
        return len(self.rows[0]) if self.rows else 0

    @classmethod
    def identity(cls, n: int) -> "RatMatrix":
        return cls([[1 if i == j else 0 for j in range(n)] for i in range(n)])

    def __getitem__(self, ij: tuple[int, int]) -> Rat:
        i, j = ij
        return self.rows[i][j]

    def transpose(self) -> "RatMatrix":
        return RatMatrix(zip(*self.rows)) if self.rows else RatMatrix([])

    def mul(self, other: "RatMatrix") -> "RatMatrix":
        if self.ncols != other.nrows:
            raise ValueError("dimension mismatch")
        ot = list(zip(*other.rows))
        return RatMatrix(
            [[sum(a * b for a, b in zip(row, col)) for col in ot] for row in self.rows]
        )

    def mul_vec(self, v: Sequence) -> tuple[Rat, ...]:
        if self.ncols != len(v):
            raise ValueError("dimension mismatch")
        vv = [Rat(x) for x in v]
        return tuple(sum(a * b for a, b in zip(row, vv)) for row in self.rows)


# -- determinants -----------------------------------------------------------


def det(m: IntMatrix) -> int:
    """Determinant by fraction-free (Bareiss) elimination."""
    if m.nrows != m.ncols:
        raise ValueError("determinant of a non-square matrix")
    n = m.nrows
    if n == 0:
        return 1
    a = [list(row) for row in m.rows]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            for i in range(k + 1, n):
                if a[i][k] != 0:
                    a[k], a[i] = a[i], a[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                # Exact by Sylvester's identity: prev divides the product.
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
            a[i][k] = 0
        prev = a[k][k]
    return sign * a[n - 1][n - 1]


def rat_det(m: RatMatrix) -> Rat:
    """Determinant of a rational matrix by exact Gaussian elimination."""
    if m.nrows != m.ncols:
        raise ValueError("determinant of a non-square matrix")
    n = m.nrows
    if n == 0:
        return Rat(1)
    a = [list(row) for row in m.rows]
    result = Rat(1)
    for k in range(n):
        if a[k][k] == 0:
            for i in range(k + 1, n):
                if a[i][k] != 0:
                    a[k], a[i] = a[i], a[k]
                    result = -result
                    break
            else:
                return Rat(0)
        result *= a[k][k]
        inv = 1 / a[k][k]
        for i in range(k + 1, n):
            if a[i][k] != 0:
                factor = a[i][k] * inv
                a[i] = [x - factor * y for x, y in zip(a[i], a[k])]
    return result


# -- Smith normal form ------------------------------------------------------


def _row_swap(a, i, j):
    a[i], a[j] = a[j], a[i]


def _col_swap(a, i, j):
    for row in a:
        row[i], row[j] = row[j], row[i]


def _row_addmul(a, dst, src, q):
    if q:
        a[dst] = [x + q * y for x, y in zip(a[dst], a[src])]


def _col_addmul(a, dst, src, q):
    if q:
        for row in a:
            row[dst] += q * row[src]


def smith_normal_form(m: IntMatrix) -> tuple[IntMatrix, IntMatrix, IntMatrix]:
    """Return unimodular (U, D, V) with U * m * V = D in Smith normal form.

    D is diagonal with nonnegative entries d_1 | d_2 | ... ; the pivot at
    each stage is the least-|value| nonzero entry of the working submatrix,
    ties broken by lowest row index then lowest column index, which makes
    the full output deterministic.
    """
    R, C = m.nrows, m.ncols
    a = [list(row) for row in m.rows]
    u = [list(row) for row in IntMatrix.identity(R).rows]
    v = [list(row) for row in IntMatrix.identity(C).rows]
    # invariant: u * m * v == a
    k = 0
    while k < min(R, C):
        piv = None
        for i in range(k, R):
            for j in range(k, C):
                x = a[i][j]
                if x and (piv is None or abs(x) < abs(a[piv[0]][piv[1]])):
                    piv = (i, j)
        if piv is None:
            break
        if piv[0] != k:
            _row_swap(a, k, piv[0])
            _row_swap(u, k, piv[0])
        if piv[1] != k:
            _col_swap(a, k, piv[1])
            _col_swap(v, k, piv[1])
        while True:
            moved = False
            for i in range(R):
                if i != k and a[i][k]:
                    q = a[i][k] // a[k][k]
                    _row_addmul(a, i, k, -q)
                    _row_addmul(u, i, k, -q)
                    if a[i][k]:  # remainder becomes the smaller pivot
                        _row_swap(a, k, i)
                        _row_swap(u, k, i)
                        moved = True
            for j in range(C):
                if j != k and a[k][j]:
                    q = a[k][j] // a[k][k]
                    _col_addmul(a, j, k, -q)
                    _col_addmul(v, j, k, -q)
                    if a[k][j]:
                        _col_swap(a, k, j)
                        _col_swap(v, k, j)
                        moved = True
            if not moved and all(a[i][k] == 0 for i in range(R) if i != k) and all(
                a[k][j] == 0 for j in range(C) if j != k
            ):
                break
        # divisibility: d_k must divide every remaining entry
        fixed = True
        for i in range(k + 1, R):
            for j in range(k + 1, C):
                if a[i][j] % a[k][k]:
                    _row_addmul(a, k, i, 1)
                    _row_addmul(u, k, i, 1)
                    fixed = False
                    break
            if not fixed:
                break
        if fixed:
            k += 1
    for i in range(min(R, C)):
        if a[i][i] < 0:
            a[i] = [-x for x in a[i]]
            u[i] = [-x for x in u[i]]
    return IntMatrix(u), IntMatrix(a), IntMatrix(v)


def elementary_divisors(m: IntMatrix) -> tuple[int, ...]:
    """Nonzero diagonal of the Smith normal form."""
    _, d, _ = smith_normal_form(m)
    out = []
    for i in range(min(d.nrows, d.ncols)):
        if d[i, i]:
            out.append(d[i, i])
    return tuple(out)


def int_inverse(m: IntMatrix) -> IntMatrix:
    """Inverse of a unimodular integer matrix (det +-1), exactly.

    Fraction-free (Bareiss) Gauss-Jordan on [m | I]: step k replaces every
    other row by (p_k * row - row[k] * pivot_row) / p_{k-1}, an exact
    integer division by Sylvester's identity.  At the end the left block
    is d * I with d = +-det m and the right block is d * m^-1, so for
    det = +-1 the inverse is the right block times d.
    """
    dm = det(m)
    if dm not in (1, -1):
        raise ValueError("matrix is not unimodular")
    n = m.nrows
    a = [list(row) + [1 if i == j else 0 for j in range(n)] for i, row in enumerate(m.rows)]
    sign = 1
    prev = 1
    for k in range(n):
        p = next(i for i in range(k, n) if a[i][k] != 0)
        if p != k:
            a[k], a[p] = a[p], a[k]
            sign = -sign
        pivot_row = a[k]
        pk = pivot_row[k]
        for i in range(n):
            if i != k:
                row = a[i]
                f = row[k]
                if f:
                    a[i] = [(pk * x - f * y) // prev for x, y in zip(row, pivot_row)]
                elif pk != prev:
                    a[i] = [pk * x // prev for x in row]
        prev = pk
    if prev != sign * dm:
        raise ArithmeticError("fraction-free elimination lost exactness")
    return IntMatrix._trusted(tuple(tuple(prev * x for x in row[n:]) for row in a))


def rat_inverse(m: RatMatrix) -> RatMatrix:
    """Exact inverse of a nonsingular rational matrix."""
    if m.nrows != m.ncols:
        raise ValueError("inverse of a non-square matrix")
    n = m.nrows
    a = [list(row) + [Rat(1 if i == j else 0) for j in range(n)]
         for i, row in enumerate(m.rows)]
    for k in range(n):
        p = next((i for i in range(k, n) if a[i][k] != 0), None)
        if p is None:
            raise ValueError("matrix is singular")
        a[k], a[p] = a[p], a[k]
        inv = 1 / a[k][k]
        a[k] = [x * inv for x in a[k]]
        for i in range(n):
            if i != k and a[i][k] != 0:
                f = a[i][k]
                a[i] = [x - f * y for x, y in zip(a[i], a[k])]
    return RatMatrix([row[n:] for row in a])


# -- rational solving -------------------------------------------------------


def _rref(a: list[list[Rat]]) -> list[int]:
    """In-place reduced row echelon form; returns the pivot column list."""
    nr = len(a)
    nc = len(a[0]) if a else 0
    pivots = []
    r = 0
    for c in range(nc):
        p = next((i for i in range(r, nr) if a[i][c] != 0), None)
        if p is None:
            continue
        a[r], a[p] = a[p], a[r]
        inv = 1 / a[r][c]
        a[r] = [x * inv for x in a[r]]
        for i in range(nr):
            if i != r and a[i][c] != 0:
                f = a[i][c]
                a[i] = [x - f * y for x, y in zip(a[i], a[r])]
        pivots.append(c)
        r += 1
        if r == nr:
            break
    return pivots


def rational_solve(m: RatMatrix, b: Sequence) -> Optional[tuple[Rat, ...]]:
    """One exact solution x of m x = b, or None if the system is inconsistent."""
    if m.nrows != len(b):
        raise ValueError("dimension mismatch")
    nc = m.ncols
    a = [list(row) + [Rat(bi)] for row, bi in zip(m.rows, b)]
    if not a:
        return tuple()
    pivots = _rref(a)
    if nc in pivots:  # a pivot in the augmented column: 0 = 1 row
        return None
    x = [Rat(0)] * nc
    for r, c in enumerate(pivots):
        x[c] = a[r][nc]
    return tuple(x)


def kernel_basis(m: RatMatrix, integral: bool = True) -> tuple[tuple, ...]:
    """Basis of the right kernel of m.

    With integral=True each basis vector is scaled to a primitive integer
    vector (cleared denominators, content 1, first nonzero entry positive).
    """
    nc = m.ncols
    a = [list(row) for row in m.rows]
    if not a:
        basis = [tuple(Rat(1 if i == j else 0) for i in range(nc)) for j in range(nc)]
    else:
        pivots = _rref(a)
        free = [c for c in range(nc) if c not in pivots]
        basis = []
        for fc in free:
            vec = [Rat(0)] * nc
            vec[fc] = Rat(1)
            for r, c in enumerate(pivots):
                vec[c] = -a[r][fc]
            basis.append(tuple(vec))
    if not integral:
        return tuple(basis)
    out = []
    for vec in basis:
        scale = lcm(*(x.denominator for x in vec)) if vec else 1
        ints = [int(x * scale) for x in vec]
        g = gcd(*ints) if any(ints) else 1
        ints = [x // g for x in ints]
        lead = next((x for x in ints if x), 0)
        if lead < 0:
            ints = [-x for x in ints]
        out.append(tuple(ints))
    return tuple(out)


def content(v: Sequence[int]) -> int:
    """gcd of the entries (0 for the zero vector)."""
    g = 0
    for x in v:
        g = gcd(g, x)
    return g


def xgcd_vector(values: Sequence[int]) -> tuple[int, tuple[int, ...]]:
    """Return (g, coeffs) with sum(c*v) = g = gcd(values) >= 0."""
    g = 0
    coeffs: list[int] = []
    for v in values:
        if g == 0:
            g, c_new = abs(v), (1 if v > 0 else -1 if v < 0 else 0)
            coeffs = [0] * len(coeffs) + [c_new]
            continue
        # extended gcd of (g, v)
        old_r, r = g, v
        old_s, s = 1, 0
        old_t, t = 0, 1
        while r:
            q = old_r // r
            old_r, r = r, old_r - q * r
            old_s, s = s, old_s - q * s
            old_t, t = t, old_t - q * t
        if old_r < 0:
            old_r, old_s, old_t = -old_r, -old_s, -old_t
        coeffs = [c * old_s for c in coeffs] + [old_t]
        g = old_r
    coeffs += [0] * (len(values) - len(coeffs))
    return g, tuple(coeffs)
