"""Sublattices: primitivity and orthogonal complements.

Both operations reduce to Smith normal form of small integer matrices,
so they are exact and deterministic.  A set of vectors spans a primitive
sublattice exactly when the elementary divisors of its coordinate matrix are
all 1; an orthogonal complement is returned as a primitive (saturated)
basis, a tuple of lattice vectors.  Its one consumer, the root search of
shortvec.roots_orthogonal_to, forms the Gram matrix of that basis and lifts
coefficients into the lattice itself.
"""
from __future__ import annotations

from math import gcd
from operator import mul
from typing import Sequence

from .exact_linalg import IntMatrix, InvariantError, det, elementary_divisors, smith_normal_form
from .lattice import Lattice, LatticeVector, RationalVector


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
) -> tuple[LatticeVector, ...]:
    """A basis of all x in the lattice with (x, v) = 0 for every given v.

    The complement of any set is saturated by construction.  Rational input
    vectors are allowed (orthogonality only depends on their line).
    """
    if not vectors:
        return tuple(ambient.basis_vector(i) for i in range(ambient.rank))
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
    return basis
