"""Complete short-vector enumeration on definite Gram matrices.

The enumerator is Fincke-Pohst on fraction-free LDL^T data.  Symmetric
Bareiss elimination (exact_linalg.symmetric_bareiss) on the integer Gram
matrix G gives pivots p_k (the
leading principal minors, p_{-1} = 1) and integer rows a[k][j], j >= k,
with a[k][k] = p_k.  These are p_{k-1} times the rows of rational Gaussian
elimination, so with y_k = sum_{j>=k} a[k][j] x_j

    M * Q(x) = sum_k W_k * y_k^2,   M = lcm_k(p_{k-1} p_k),
                                     W_k = M / (p_{k-1} p_k).

The same pass decides definiteness by Sylvester's criterion: G is positive
definite iff every p_k > 0, and negative definite iff the signs alternate
starting from p_0 < 0; a negative definite G is enumerated as -G, whose
minors are (-1)^(k+1) times those of G.  A definite G has no zero leading
minor, so the elimination never repairs a pivot and its rows are G's.  A
form it repairs is congruent to G and fails the sign check, and a
degenerate form raises there.

Fixing x_{k+1}, ..., x_{n-1} leaves an integer budget R = M * rem and
S = sum_{j>k} a[k][j] x_j.  Since y_k^2 is an integer and W_k > 0,
W_k y_k^2 <= R holds iff y_k^2 <= R // W_k iff |y_k| <= B = isqrt(R // W_k),
and as y_k = p_k x_k + S with p_k > 0, x_k ranges exactly over
[ceil((-B - S) / p_k), floor((B - S) / p_k)].
Every bound is an equivalence in integer arithmetic, with no rounding, so
no admissible vector can be lost.

The walk visits half of that tree and decides its last level in closed
form (Fincke-Pohst, Math. Comp. 44, 1985; the sign symmetry as in
Schnorr-Euchner, Math. Programming 66, 1994):

- Half tree.  Q(-x) = Q(x) and the target is nonzero, so every solution
  x != 0 has a highest nonzero coordinate x_k, and exactly one of x, -x
  has x_k > 0.  While x_{k+1}, ..., x_{n-1} are all 0, S = 0 and the
  range of x_k is the symmetric [-(B // p_k), B // p_k]; the walk keeps
  x_k >= 0 there, and x_0 > 0 at level 0, so it finds exactly the
  solutions whose highest nonzero coordinate is positive.  (At level 0
  with every higher coordinate 0, R = M t and R // W_0 = p_0 t > 0, so the
  one candidate below, y / p_0, is positive.)  enumerate_norm
  adds their negations, which are distinct from them because x != 0.
- Last level.  At level 0 an x_0 is a solution iff W_0 (p_0 x_0 + S)^2 = R.
  That needs R mod W_0 = 0 and R // W_0 = y^2 for an integer y >= 0, and
  then p_0 x_0 + S = +-y, so x_0 = (+-y - S) / p_0 when p_0 divides it.
  Then B = isqrt(R // W_0) = y, so both candidates lie in the range of
  the full walk: the closed form keeps exactly the x_0 that its loop over
  the range would keep.
- Decoupled tail.  DefiniteGram.split[i] records that rows 0, ..., i have
  no entry beyond column i, so y_0, ..., y_i depend on x_0, ..., x_i
  alone.  A budget R = 0 at level i forces y_k = 0 for every k <= i, as
  every W_k > 0; with split[i] the system y_k = sum_{k<=j<=i} a[k][j] x_j,
  k <= i, is triangular with diagonal p_k > 0, so x_0 = ... = x_i = 0 is
  its one solution.  Then x as it stands (zeros at i and below) is the
  one solution in the subtree, and the walk appends it without
  descending.  Such a leaf never has top set, since R = M t > 0 while
  every higher coordinate is 0, so x != 0 and its highest nonzero
  coordinate is the positive one the walk chose.  On E8+E8 this ends at
  level 7 every zero-budget branch above the block of x_0, ..., x_7.

A brute-force box search and the rational enumerator, both kept in the
tests, are independent oracles.
"""
from __future__ import annotations

from math import isqrt, lcm
from operator import mul, neg
from typing import Sequence

from .exact_linalg import Frozen, IntMatrix, InvariantError, int_tuple, symmetric_bareiss
from .lattice import Lattice, LatticeVector, RationalVector, _gram_kernel, pairing_nums
from .sublattice import integral_primitive, orthogonal_complement


class IndefiniteGramError(ValueError):
    """Raised when a Gram matrix is not (positive or negative) definite."""


class DefiniteGram(Frozen):
    """Definite symmetric integer matrix, normalized to positive definite.

    `negated` records whether the input was negative definite, in which
    case target norms are negated on the way in.  `rows`, `weights` and
    `scale` are the Bareiss rows, W_k and M of the normalized matrix,
    `tails[k]` holds the nonzero a[k][j], j > k, as pairs (j, a[k][j]), and
    `split[i]` says that rows 0, ..., i have no entry beyond column i (see
    the module docstring).
    """

    _fields = ("matrix", "negated")  # the Bareiss data follow from these

    def __init__(self, matrix: IntMatrix):
        if not matrix.is_symmetric():
            raise IndefiniteGramError("Gram matrix must be symmetric")
        if matrix.nrows == 0:
            raise IndefiniteGramError("empty Gram matrix")
        try:
            rows = symmetric_bareiss(matrix)
        except ValueError:
            raise IndefiniteGramError("Gram matrix is not definite") from None
        pivots = [row[0] for row in rows]
        negated = pivots[0] < 0
        # Sylvester: p_k > 0 for G, (-1)^(k+1) p_k > 0 for -G
        if any((p < 0) != (negated and k % 2 == 0) for k, p in enumerate(pivots)):
            raise IndefiniteGramError("Gram matrix is not definite")
        if negated:
            # negations of validated ints, in equal-length rows
            matrix = IntMatrix._trusted(tuple(tuple(map(neg, row)) for row in matrix.rows))
            rows = tuple(
                tuple(map(neg, row)) if k % 2 == 0 else row
                for k, row in enumerate(rows)
            )
            pivots = [abs(p) for p in pivots]
        dens = [p * q for p, q in zip([1] + pivots, pivots)]
        scale = lcm(*dens)
        # row k holds columns k..n-1, so its entry at offset j is a[k][k + j]
        tails = tuple(
            tuple((k + j, a) for j, a in enumerate(row[1:], 1) if a)
            for k, row in enumerate(rows)
        )
        # reach = the last column with a nonzero entry in rows 0..i; the
        # diagonal p_k is nonzero, and tails[k] is sorted by column
        split, reach = [], 0
        for k, tail in enumerate(tails):
            reach = max(reach, tail[-1][0] if tail else k)
            split.append(reach == k)
        object.__setattr__(self, "matrix", matrix)
        object.__setattr__(self, "negated", negated)
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "weights", tuple(scale // d for d in dens))
        object.__setattr__(self, "scale", scale)
        object.__setattr__(self, "split", tuple(split))
        object.__setattr__(self, "tails", tails)

    @property
    def rank(self) -> int:
        return self.matrix.nrows


def _enumerate_level(
    rows: tuple[tuple[int, ...], ...],
    weights: tuple[int, ...],
    i: int,
    r: int,
    x: list[int],
    out: list[tuple[int, ...]],
    top: bool,
    split: tuple[bool, ...],
    tails: tuple[tuple[tuple[int, int], ...], ...],
) -> None:
    # x holds the chosen x_j for j > i, so S = sum_{j>i} a[i][j] x_j reads
    # the nonzero entries tails[i] only; r is the scaled budget R; top is
    # set while every x_j, j > i, is 0 (see the module docstring)
    if not r and split[i]:
        out.append(tuple(x))
        return
    p, w = rows[i][0], weights[i]
    s = 0
    for j, a in tails[i]:
        s += a * x[j]
    if i == 0:
        q, rest = divmod(r, w)
        y = isqrt(q)
        if rest or y * y != q:
            return
        for t in (y,) if top or not y else (y, -y):
            x0, m = divmod(t - s, p)
            if not m:
                x[0] = x0
                out.append(tuple(x))
        x[0] = 0
        return
    b = isqrt(r // w)
    for xi in range(0 if top else -((s + b) // p), (b - s) // p + 1):
        y = p * xi + s
        x[i] = xi
        _enumerate_level(
            rows, weights, i - 1, r - w * y * y, x, out, top and not xi, split, tails
        )
    x[i] = 0


def enumerate_norm(gram: DefiniteGram, target: int) -> tuple[tuple[int, ...], ...]:
    """All integer vectors x with x^T G x = target, sorted lexicographically.

    `target` is interpreted in the sign convention of the original matrix
    (so -2 for a negative definite Gram).  The normalized target must be
    positive.
    """
    (target,) = int_tuple((target,), "target norm")
    t = -target if gram.negated else target
    if t <= 0:
        raise ValueError("target norm must be nonzero with the sign of the form")
    n = gram.rank
    out: list[tuple[int, ...]] = []
    _enumerate_level(
        gram.rows, gram.weights, n - 1, gram.scale * t, [0] * n, out, True,
        gram.split, gram.tails,
    )
    out += [tuple(map(neg, v)) for v in out]
    return tuple(sorted(out))


def roots_orthogonal_to(
    lattice: Lattice, plane: Sequence[LatticeVector | RationalVector]
) -> tuple[LatticeVector, ...]:
    """All lattice vectors of self-pairing -2 orthogonal to the given plane.

    The plane must span a positive definite subspace; its orthogonal
    complement in a lattice of signature (p, q) with p = dim(plane) is then
    negative definite and the root search is a finite enumeration.

    Only the first half of the roots is lifted and checked.  The sorted
    coefficient tuple of enumerate_norm is closed under negation and holds
    no 0, and negation reverses lexicographic order, so its k-th entry
    from the end is the negation of its k-th entry.  The lift is linear
    and (-r, -r) = (r, r), so the second half is the first half negated,
    in reverse order, each of norm -2: the same tuple as lifting and
    checking every root.

    Each lifted root r is checked to have (r, r) = -2 on the ambient Gram,
    so the check depends neither on the enumeration nor on the restricted
    Gram it ran on.
    """
    plane = list(plane)
    if plane:
        ints = [integral_primitive(v) for v in plane]
        plane_gram = IntMatrix([[pairing_nums(u, v) for v in ints] for u in ints])
        if DefiniteGram(plane_gram).negated:
            raise IndefiniteGramError("plane is not positive definite")
    basis = orthogonal_complement(lattice, plane)
    if not basis:
        return tuple()
    # B^T (G B) for the basis columns b_k of B: one row-sparse product of the
    # basis rows with the matrix whose columns are the cached images G b_k
    rows = tuple([b.coords for b in basis])
    images = IntMatrix._trusted(tuple(zip(*[b.gv for b in basis])))
    dg = DefiniteGram(IntMatrix._trusted(rows).mul(images))
    if not dg.negated:
        raise IndefiniteGramError("orthogonal complement is not negative definite")
    coords = enumerate_norm(dg, -2)
    # c -> sum_k c_k b_k: the sparse rows of the transposed basis, one per
    # lattice coordinate j holding (k, b_k[j]) for b_k[j] != 0, compiled by
    # the Gram kernel compiler; enumerate_norm's int tuples need no check
    lift = _gram_kernel(tuple(
        tuple((k, b[j]) for k, b in enumerate(rows) if b[j]) for j in range(lattice.rank)
    ))
    low = tuple(LatticeVector._trusted(lattice, lift(c)) for c in coords[: len(coords) // 2])
    for r in low:
        if sum(map(mul, r.coords, lattice.gram_times(r.coords))) != -2:
            raise InvariantError("enumerated root does not have norm -2")
    return low + tuple(-r for r in reversed(low))


def is_generic_plane(
    lattice: Lattice, plane: Sequence[LatticeVector | RationalVector]
) -> bool:
    """True when no -2-vector of the lattice is orthogonal to the plane."""
    return len(roots_orthogonal_to(lattice, plane)) == 0
