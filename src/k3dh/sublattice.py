"""Sublattices: primitivity and orthogonal complements.

Both operations reduce to Smith normal form of small integer matrices,
so they are exact and deterministic.  A set of vectors spans a primitive
sublattice exactly when the elementary divisors of its coordinate matrix are
all 1; orthogonal complements are always returned with a primitive
(saturated) basis.
"""
from __future__ import annotations

from math import gcd
from operator import mul
from typing import Sequence

from .exact_linalg import (
    Frozen,
    IntMatrix,
    InvariantError,
    det,
    elementary_divisors,
    int_tuple,
    smith_normal_form,
)
from .lattice import (
    Lattice,
    LatticeVector,
    RationalVector,
    _gram_kernel,
    memoized,
)


class Sublattice(Frozen):
    """Sublattice of an ambient lattice, given by an ordered generator basis."""

    _fields = ("ambient", "basis")

    def __init__(self, ambient: Lattice, basis: tuple[LatticeVector, ...]):
        for v in basis:
            if v.lattice != ambient:
                raise ValueError("basis vector does not live in the ambient lattice")
        object.__setattr__(self, "ambient", ambient)
        object.__setattr__(self, "basis", basis)

    @property
    def rank(self) -> int:
        return len(self.basis)

    @memoized
    def restricted_gram(self) -> IntMatrix:
        # B^T (G B) for the basis columns b_k of B (__init__ checked that they
        # live in the ambient lattice): one row-sparse product of the basis
        # rows with the matrix whose columns are the cached images G b_k
        basis = self.basis
        images = IntMatrix._trusted(tuple(zip(*[v.gv for v in basis])))
        return IntMatrix._trusted(tuple([v.coords for v in basis])).mul(images)

    @memoized
    def _lift(self):
        """c -> sum_k c_k b_k for the basis b_k, compiled once per sublattice:
        the sparse rows of the transposed basis, one per ambient coordinate
        j holding (k, b_k[j]) for b_k[j] != 0, through the Gram kernel."""
        coords = [v.coords for v in self.basis]
        return _gram_kernel(tuple(
            tuple((k, b[j]) for k, b in enumerate(coords) if b[j])
            for j in range(self.ambient.rank)
        ))

    def member_from_coefficients(self, coeffs: Sequence[int]) -> LatticeVector:
        """Ambient vector with the given coefficients in this basis."""
        if len(coeffs) != self.rank:
            raise ValueError("coefficient length does not match sublattice rank")
        coeffs = int_tuple(coeffs, "coefficient")
        return LatticeVector._trusted(self.ambient, self._lift(coeffs))


def integral_primitive(v: RationalVector | LatticeVector) -> LatticeVector:
    """Scale a nonzero vector to integer coordinates with content 1."""
    g = gcd(*v.nums)
    if g == 0:
        raise ValueError("zero vector has no primitive rescaling")
    return LatticeVector._trusted(v.lattice, tuple(c // g for c in v.nums))


def is_primitive_embedding(vectors: Sequence[LatticeVector]) -> bool:
    """True when span(vectors) is a primitive sublattice (L/span torsion-free).

    Raises ValueError when the vectors are linearly dependent, since
    primitivity of an embedding is only meaningful for a basis.
    """
    if not vectors:
        return True
    for v in vectors:
        if v.lattice != vectors[0].lattice:
            raise ValueError("basis vector does not live in the ambient lattice")
    divisors = elementary_divisors(IntMatrix([v.coords for v in vectors]))
    if len(divisors) != len(vectors):
        raise ValueError("vectors are linearly dependent")
    return all(x == 1 for x in divisors)


def orthogonal_complement(
    ambient: Lattice, vectors: Sequence[LatticeVector | RationalVector]
) -> Sublattice:
    """All x in the lattice with (x, v) = 0 for every given v.

    The complement of any set is saturated by construction.  Rational input
    vectors are allowed (orthogonality only depends on their line).
    """
    if not vectors:
        return Sublattice(
            ambient, tuple(ambient.basis_vector(i) for i in range(ambient.rank))
        )
    ints = []
    for v in vectors:
        if v.lattice != ambient:
            raise ValueError("vector does not live in the ambient lattice")
        if v.is_zero():
            continue
        ints.append(integral_primitive(v))
    if not ints:
        return orthogonal_complement(ambient, [])
    # rows of m are the pairing functionals x -> (v_i, x), that is G v_i
    m = IntMatrix._trusted(tuple(v.gv for v in ints))
    d, v_trans = smith_normal_form(m)
    r = sum(1 for i in range(min(d.nrows, d.ncols)) if d[i, i] != 0)
    cols = v_trans.transpose().rows  # columns of the transform
    basis = tuple(ambient.vector(cols[j]) for j in range(r, ambient.rank))
    # exit check: the n - r basis vectors are orthogonal to every v_i, and
    # columns of a unimodular V are independent and span a saturated
    # sublattice, so they span the whole complement, of rank n - r for the
    # rank r of m
    if any(sum(map(mul, row, b.coords)) for row in m.rows for b in basis):
        raise InvariantError("orthogonal complement basis is not orthogonal")
    if det(v_trans) not in (1, -1):
        raise InvariantError("orthogonal complement basis is not saturated")
    return Sublattice(ambient, basis)
