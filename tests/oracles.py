"""Test-only oracles: independent reference implementations that the
library does not call.

naive_enumerate is a brute-force box search over the exact box of
_box_radii, the oracle of shortvec.enumerate_norm in tests/test_shortvec.py
and in the acceptance gate.  sparse_row_lift is a loop over the nonzero
basis entries, the oracle of the compiled coefficient lift of
shortvec.roots_orthogonal_to in tests/test_sublattice.py and
tests/test_shortvec.py.
"""
from __future__ import annotations

from math import isqrt

from k3dh.exact_linalg import IntMatrix, det
from k3dh.lattice import Lattice, LatticeVector
from k3dh.shortvec import DefiniteGram


def _box_radii(matrix: IntMatrix, t: int) -> list[int]:
    """isqrt(t * C_ii // det G) for each i, C_ii the principal minor of the
    positive definite G without row and column i.

    Every x with x^T G x <= t has x_i^2 <= t * (G^{-1})_ii, and
    (G^{-1})_ii = C_ii / det G with C_ii > 0 and det G > 0 (principal minors
    of a positive definite matrix).  x_i^2 is an integer, so
    x_i^2 <= t * C_ii / det G iff x_i^2 <= t * C_ii // det G iff
    |x_i| <= isqrt(t * C_ii // det G): the box of the rational bound
    isqrt(floor(t * (G^{-1})_ii)), from integer minors (Bareiss, Math. Comp.
    22, 1968).
    """
    rows = matrix.rows
    n = len(rows)
    d = det(matrix)
    minors = (
        det(IntMatrix([r[:i] + r[i + 1:] for k, r in enumerate(rows) if k != i]))
        for i in range(n)
    )
    return [isqrt(t * c // d) for c in minors]


def naive_enumerate(gram: DefiniteGram, target: int) -> tuple[tuple[int, ...], ...]:
    """Brute-force box search; independent oracle for enumerate_norm.

    The box radii are those of _box_radii, from the exact bound
    x_i^2 <= target * (G^{-1})_ii, which holds for every x with
    x^T G x <= target when G is positive definite.
    """
    t = -target if gram.negated else target
    if t <= 0:
        raise ValueError("target norm must be nonzero with the sign of the form")
    n = gram.rank
    radii = _box_radii(gram.matrix, t)
    out = []
    x = [-r for r in radii]

    def q_of(x):
        return sum(
            gram.matrix[i, j] * x[i] * x[j] for i in range(n) for j in range(n)
        )

    while True:
        if q_of(x) == t:
            out.append(tuple(x))
        i = 0
        while i < n:
            x[i] += 1
            if x[i] <= radii[i]:
                break
            x[i] = -radii[i]
            i += 1
        if i == n:
            break
    return tuple(sorted(out))


def sparse_row_lift(
    ambient: Lattice, basis: tuple[LatticeVector, ...], coeffs
) -> tuple[int, ...]:
    """sum_k c_k b_k over the basis rows as their nonzero entries (j, b_j),
    skipping each zero coefficient."""
    rows = [tuple((j, x) for j, x in enumerate(v.coords) if x) for v in basis]
    out = [0] * ambient.rank
    for c, row in zip(coeffs, rows):
        if c:
            for j, x in row:
                out[j] += c * x
    return tuple(out)
