"""Exact linear algebra on integer matrices.

Everything here is deterministic and exact: matrices hold Python's
arbitrary-precision ints, and a Fraction appears only as the value of
rat_det or of rational.  No floating point enters at any stage, so results
are reproducible bit for bit across platforms.

Every determinant and inverse is one elimination,
_bareiss_rref: fraction-free (Bareiss) Gauss-Jordan with column skipping.
Step k replaces every other row by (p_k * row - row[c] * pivot_row) / p_{k-1}.
After step k every entry is a minor of the input: of order k + 1 in a row
not yet used (the pivot rows and columns plus its own row and column, by
Sylvester's identity), of order k in a pivot row (the pivot columns with its
own column in place of one, by Cramer's rule).  So each division by the
previous pivot p_{k-1} is exact (Bareiss, Math. Comp. 22, 1968;
Nakos-Turner-Williams, SIGSAM Bull. 31, 1997).  Rational rows enter rat_det
as S * m, each row times the lcm of its denominators.  symmetric_bareiss is
the same recurrence on the upper triangle of a symmetric matrix, and the one
symmetric elimination: it gives the fraction-free LDL^T data of a quadratic
form, whose pivot signs are its inertia.  Smith normal form is the one other
elimination, over the integers by division with remainder; it carries its
column transform V as the rows of V^T, so a column operation on V is one
row operation.  Frozen, the immutable-value base of the package's classes,
and the integer and rational rules live here because every other module
imports this one.
"""
from __future__ import annotations

from fractions import Fraction
from functools import cache
from math import lcm, prod
from operator import attrgetter
from typing import Iterable, Sequence


class InvariantError(RuntimeError):
    """An exact identity the construction guarantees has failed: a bug."""


class FrozenError(AttributeError):
    """Assignment to, or deletion of, an attribute of a Frozen value."""


class Frozen:
    """Immutable value, compared, hashed and shown by its class's `_fields`.

    A subclass's __init__ stores its attributes with object.__setattr__;
    assignment and deletion through the instance raise FrozenError.  An
    attribute not named in `_fields`, such as a memoized value or a cache,
    takes no part in ==, hash or repr.  Values of two different classes are
    never equal: __eq__ returns NotImplemented.
    """

    _fields: tuple[str, ...] = ()

    @staticmethod
    def _key(obj) -> tuple:
        """The field tuple of obj; a subclass with fields reads it in C."""
        return ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        get = attrgetter(*cls._fields) if cls._fields else None
        if len(cls._fields) == 1:  # attrgetter of one name returns the bare value
            cls._key = staticmethod(lambda obj: (get(obj),))
        elif get is not None:
            cls._key = staticmethod(get)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        key = self._key
        return key(self) == key(other)

    def __hash__(self):
        return hash(self._key(self))

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise FrozenError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise FrozenError(f"cannot delete field {name!r}")


def clip_repr(value) -> str:
    """repr(value) for a refusal message: a repr longer than 60 characters
    is cut there and followed by its full length, so that an echoed input
    keeps the error line short; a short repr is unchanged."""
    text = repr(value)
    if len(text) <= 60:
        return text
    return f"{text[:60]}... ({len(text)} chars)"


def int_tuple(values: Iterable, what: str) -> tuple[int, ...]:
    """The values as a tuple, each checked to be exactly an int.

    The one integer rule of the package: type(x) is int refuses floats and
    strings, and also bool and every other int subclass, such as an IntEnum
    member, so that no such value is silently coerced.
    """
    t = tuple(values)
    for x in t:
        if type(x) is not int:
            raise TypeError(f"integer {what} expected, got {clip_repr(x)}")
    return t


# The one rational rule, the integer rule widened by Fraction: only an int or
# a Fraction, by exact type, is read as a rational, so a bool, an IntEnum
# member, a float or a string raises TypeError instead of being coerced.
# ratio_of(type(x)) is x's reduced-ratio method, or None for any other type.
ratio_of = {int: int.as_integer_ratio, Fraction: Fraction.as_integer_ratio}.get


def as_ratio(x, what: str) -> tuple[int, int]:
    """The reduced ratio (n, d), d > 0, of x, by the rational rule."""
    ratio = ratio_of(type(x))
    if ratio is None:
        raise TypeError(f"integer or Fraction {what} expected, got {clip_repr(x)}")
    return ratio(x)


def rational(x, what: str) -> Fraction:
    """x as a Fraction, by the rational rule; a Fraction is kept."""
    return x if type(x) is Fraction else Fraction(*as_ratio(x, what))


def row_combination(coeffs: Sequence[int], rows: Sequence[tuple[int, ...]]) -> tuple[int, ...]:
    """coeffs^T A for the row tuples of A: the sum of c * rows[k] over the
    nonzero c, or rows[k] itself when that is the one term and c = 1."""
    terms = [row if c == 1 else [c * x for x in row] for c, row in zip(coeffs, rows) if c]
    if len(terms) == 1:
        return tuple(terms[0])
    return tuple(map(sum, zip(*terms))) if terms else (0,) * len(rows[0])


class IntMatrix(Frozen):
    """Immutable integer matrix, stored as a tuple of row tuples."""

    _fields = ("rows",)

    def __init__(self, rows: Iterable[Iterable[int]]):
        object.__setattr__(self, "rows", tuple(int_tuple(row, "entry") for row in rows))
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

    def __getitem__(self, ij: tuple[int, int]) -> int:
        i, j = ij
        return self.rows[i][j]

    def transpose(self) -> "IntMatrix":
        return IntMatrix._trusted(tuple(zip(*self.rows)))

    def mul(self, other: "IntMatrix") -> "IntMatrix":
        """Row-sparse product: output row i is row_combination(self.rows[i],
        other.rows), at a cost of nnz(self) * other.ncols.  A zero row or a
        unit row (one entry 1, the rest 0) is found by C-level scans and
        gives a shared row of the result without a Python loop, so a
        transvection-shaped left factor (identity plus one row and one column)
        costs O(n * nnz)."""
        if self.ncols != other.nrows:
            raise ValueError("dimension mismatch")
        last = self.ncols - 1
        zero = (0,) * other.ncols
        out = []
        for row in self.rows:
            zeros = row.count(0)
            if zeros == last and 1 in row:
                out.append(other.rows[row.index(1)])
            elif zeros > last:
                out.append(zero)
            else:
                out.append(row_combination(row, other.rows))
        return IntMatrix._trusted(tuple(out))

    def is_symmetric(self) -> bool:
        # rows and zip's columns are both tuples, so == compares G with G^T
        return self.nrows == self.ncols and self.rows == tuple(zip(*self.rows))


@cache
def _identity_rows(n: int) -> tuple[tuple[int, ...], ...]:
    """The n x n identity rows, built once per size."""
    return IntMatrix.identity(n).rows


# -- fraction-free elimination ----------------------------------------------


def _bareiss_rref(rows: list[list[int]], ncols: int) -> tuple[list[int], int, int]:
    """Fraction-free (Bareiss) Gauss-Jordan on the first ncols columns, in place.

    Returns (pivots, d, sign): the pivot columns, the last pivot d (1 when
    there is none) and the sign of the row permutation.  Afterwards pivot
    row r holds d at pivots[r] and 0 at every other pivot column, so
    rows / d is the reduced row echelon form; a square matrix of full rank
    has det = sign * d.  Columns from ncols on are carried along.

    There is no early exit once every row holds a pivot: every caller
    passes ncols == len(rows), and len(pivots) <= c at column c, so that
    never happens before the last column; for any other shape the pivot
    search then finds no row and each later column is skipped.
    """
    pivots: list[int] = []
    sign = prev = 1
    for c in range(ncols):
        r = len(pivots)
        p = next((i for i in range(r, len(rows)) if rows[i][c]), None)
        if p is None:
            continue
        if p != r:
            rows[r], rows[p] = rows[p], rows[r]
            sign = -sign
        pivot_row = rows[r]
        pk = pivot_row[c]
        for i, row in enumerate(rows):
            if i != r:
                f = row[c]
                if f:
                    rows[i] = [(pk * x - f * y) // prev for x, y in zip(row, pivot_row)]
                elif pk != prev:
                    rows[i] = [pk * x // prev for x in row]
        pivots.append(c)
        prev = pk
    return pivots, prev, sign


def _clear_denominators(rows: Iterable[Sequence[Fraction]]) -> tuple[list[list[int]], list[int]]:
    """Each rational row times the lcm s_i of its denominators: (S * rows, [s_i])."""
    out, scales = [], []
    for row in rows:
        s = lcm(*(x.denominator for x in row))
        out.append([x.numerator * (s // x.denominator) for x in row])
        scales.append(s)
    return out, scales


def det(m: IntMatrix) -> int:
    """Determinant: sign * d from the elimination, 0 when the rank is short."""
    if m.nrows != m.ncols:
        raise ValueError("determinant of a non-square matrix")
    pivots, d, sign = _bareiss_rref([list(row) for row in m.rows], m.ncols)
    return sign * d if len(pivots) == m.nrows else 0


def rat_det(rows: Sequence[Sequence[Fraction]]) -> Fraction:
    """Determinant of a matrix given by Fraction rows: det(S * m) / prod(s_i).

    S * m is built as a validated IntMatrix, so ragged rows raise there and
    a non-square shape in det."""
    ints, scales = _clear_denominators(rows)
    return Fraction(det(IntMatrix(ints)), prod(scales))


def int_inverse(m: IntMatrix) -> IntMatrix:
    """Inverse of a unimodular integer matrix (det +-1), exactly.

    One elimination of [m | I] ends as [d * I | d * m^-1] with d = +-det m,
    so m is unimodular exactly when the rank is full and d = +-1, and then
    the inverse is the right block times d.  An identity is returned as
    it is, since eliminating [I | I] changes nothing.
    """
    if m.nrows != m.ncols:
        raise ValueError("inverse of a non-square matrix")
    n = m.nrows
    if m.rows == _identity_rows(n):
        return m
    rows = [[*row, *([0] * i), 1, *([0] * (n - 1 - i))] for i, row in enumerate(m.rows)]
    pivots, d, _ = _bareiss_rref(rows, n)
    if len(pivots) < n or d not in (1, -1):
        raise ValueError("matrix is not unimodular")
    if d == 1:
        return IntMatrix._trusted(tuple(tuple(row[n:]) for row in rows))
    return IntMatrix._trusted(tuple(tuple([-x for x in row[n:]]) for row in rows))


def symmetric_bareiss(m: IntMatrix) -> tuple[tuple[int, ...], ...]:
    """Fraction-free LDL^T of the symmetric matrix G whose upper triangle is m's.

    Row k is (a[k][k], ..., a[k][n-1]), a[k][j] the minor of G' = P^T G P
    (P unimodular) on rows 0..k and columns 0..k-1, j; the pivot p_k =
    a[k][k] is the leading principal minor of order k + 1 of G'.  P = I
    when no leading principal minor of G vanishes, as for a definite G.

    Step k eliminates the trailing block (i, j > k) by
    a[i][j] <- (p_k a[i][j] - a[k][i] a[k][j]) / p_{k-1}, exact by Sylvester's
    identity as in _bareiss_rref.  A zero pivot is repaired by the congruence
    x_k -> x_k + s x_j for some a[k][j] != 0, j > k: it adds s times row and
    column j of G' to row and column k and fixes rows and columns 0..k-1.
    The minors are linear in their bordering row and column, so the new ones
    are the old ones under the same operation, made on the trailing block
    and on column k of the finished rows.  The new pivot 2 s a[k][j] +
    a[j][j] is nonzero for s = 1 or s = -1, as both vanishing means
    a[k][j] = 0, and every entry stays a minor, so every division stays exact.

    The trailing block is p_{k-1} times a Schur complement of G', so a zero
    trailing row means G is degenerate and raises ValueError("degenerate
    form"); conversely p_{n-1} = det G' = det G, so a degenerate G ends at one.
    Otherwise, by Jacobi's rule, the number of negative eigenvalues of G' is
    the number of sign changes in 1, p_0, ..., p_{n-1}, and by Sylvester's law
    of inertia G, congruent to G' over Z, has the same inertia.
    """
    n = m.nrows
    if m.ncols != n:
        raise ValueError("symmetric elimination of a non-square matrix")
    q = [list(row) for row in m.rows]
    prev = 1
    for k in range(n):
        qk = q[k]
        if qk[k] == 0:
            j = next((j for j in range(k + 1, n) if qk[j]), None)
            if j is None:
                raise ValueError("degenerate form")
            s = 1 if 2 * qk[j] + q[j][j] else -1
            qk[k] = 2 * s * qk[j] + q[j][j]
            # column k += s column j in the finished rows, and row k += s
            # row j in the trailing block, where a[j][i] = a[i][j]
            for r in range(k):
                q[r][k] += s * q[r][j]
            for i in range(k + 1, n):
                qk[i] += s * (q[j][i] if j <= i else q[i][j])
        pk = qk[k]
        for i in range(k + 1, n):
            qi, qki = q[i], qk[i]
            for j in range(i, n):
                qi[j] = (pk * qi[j] - qki * qk[j]) // prev
        prev = pk
    return tuple(tuple(q[k][k:]) for k in range(n))


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


def smith_normal_form(m: IntMatrix) -> tuple[IntMatrix, IntMatrix]:
    """Return (D, V) with V unimodular and U * m * V = D in Smith normal form
    for some unimodular U, which is not built: no caller reads it.

    D is diagonal with nonnegative entries d_1 | d_2 | ... ; the pivot at
    each stage is the least-|value| nonzero entry of the working submatrix,
    ties broken by lowest row index then lowest column index, which makes
    the full output deterministic.

    V is carried as its transpose vt, so each column operation on V is one
    row operation on vt (a column swap is a swap of two row references);
    on a wide m, such as the 2 x 22 pair matrices, V is most of the work.
    """
    R, C = m.nrows, m.ncols
    a = [list(row) for row in m.rows]
    vt = [[0] * C for _ in range(C)]
    for i in range(C):
        vt[i][i] = 1
    # invariant: u * m * vt^T == a for the product u of the row operations
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
        if piv[1] != k:
            _col_swap(a, k, piv[1])
            _row_swap(vt, k, piv[1])
        while True:
            moved = False
            for i in range(R):
                if i != k and a[i][k]:
                    q = a[i][k] // a[k][k]
                    _row_addmul(a, i, k, -q)
                    if a[i][k]:  # remainder becomes the smaller pivot
                        _row_swap(a, k, i)
                        moved = True
            for j in range(C):
                if j != k and a[k][j]:
                    q = a[k][j] // a[k][k]
                    _col_addmul(a, j, k, -q)
                    _row_addmul(vt, j, k, -q)
                    if a[k][j]:
                        _col_swap(a, k, j)
                        _row_swap(vt, k, j)
                        moved = True
            # without a swap the row pass left every a[i][k] (i != k) at
            # zero, and the column pass then subtracted multiples of that
            # column, changing only row k, whose entries it left at zero
            # too: the pivot's row and column are clear
            if not moved:
                break
        # divisibility: d_k must divide every remaining entry
        fixed = True
        for i in range(k + 1, R):
            for j in range(k + 1, C):
                if a[i][j] % a[k][k]:
                    _row_addmul(a, k, i, 1)
                    fixed = False
                    break
            if not fixed:
                break
        if fixed:
            k += 1
    for i in range(min(R, C)):
        if a[i][i] < 0:
            a[i] = [-x for x in a[i]]
    return IntMatrix._trusted(tuple(map(tuple, a))), IntMatrix._trusted(tuple(zip(*vt)))


def elementary_divisors(m: IntMatrix) -> tuple[int, ...]:
    """Nonzero diagonal of the Smith normal form."""
    d, _ = smith_normal_form(m)
    out = []
    for i in range(min(d.nrows, d.ncols)):
        if d[i, i]:
            out.append(d[i, i])
    return tuple(out)


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
