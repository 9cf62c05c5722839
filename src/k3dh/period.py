"""Period-domain membership and oriented positive 3-planes.

A period point is kept in real/imaginary normal form: two rational
vectors re, im with (re, im) = 0 and (re, re) = (im, im) > 0.  With that
normalization every hermitian quantity needed here collapses to plain
rational arithmetic: the hermitian norm of the line is
(re, re) + (im, im), and the squared modulus of the pairing of a vector
k against the line is (k, re)^2 + (k, im)^2.  All predicates below are
exact; there is no epsilon anywhere.
"""

from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from math import gcd

from .exact_linalg import InvariantError, RatMatrix, rat_det  # re-exported
from .lattice import (
    Lattice,
    LatticeVector,
    RationalVector,
    k3_e,
    k3_f,
    norm,
    pairing,
    pairing_nums,
)
from .shortvec import is_generic_plane

Vec = LatticeVector | RationalVector


def _rational(v: Vec) -> RationalVector:
    return v.to_rational() if isinstance(v, LatticeVector) else v


def is_in_omega(re: Vec, im: Vec) -> bool:
    """True iff re + i*im spans a positive isotropic complex line."""
    return pairing(re, im) == 0 and norm(re) == norm(im) and norm(re) > 0


@dataclass(frozen=True)
class PeriodPoint:
    re: RationalVector
    im: RationalVector

    def __post_init__(self):
        object.__setattr__(self, "re", _rational(self.re))
        object.__setattr__(self, "im", _rational(self.im))
        if not is_in_omega(self.re, self.im):
            raise ValueError(
                "not a period point: need (re,im) = 0 and (re,re) = (im,im) > 0"
            )

    @property
    def lattice(self) -> Lattice:
        return self.re.lattice

    def hermitian_norm(self) -> Fraction:
        return Fraction(norm(self.re) + norm(self.im))

    def pairing_square(self, kappa: Vec) -> Fraction:
        """Squared modulus of the pairing of kappa with the complex line."""
        return Fraction(
            pairing(kappa, self.re) ** 2 + pairing(kappa, self.im) ** 2
        )


def project_to_alpha_perp(kappa: Vec, point: PeriodPoint) -> RationalVector:
    """Orthogonal projection of kappa away from span(re, im), exactly.

    With kappa = K/d, re = R/r and im = I/i the projection is
    K/d - (K,R)/(R,R) R/d - (K,I)/(I,I) I/d: the denominators of re and im
    cancel, so it is one integer combination of the numerators over
    d times the reduced denominators of the two coefficients.
    """
    if kappa.lattice != point.lattice:
        raise ValueError("kappa and the period point live in different lattices")
    re, im = point.re, point.im
    pr, qr = pairing_nums(kappa, re), pairing_nums(re, re)
    pi, qi = pairing_nums(kappa, im), pairing_nums(im, im)
    g, h = gcd(pr, qr), gcd(pi, qi)
    pr, qr, pi, qi = pr // g, qr // g, pi // h, qi // h
    q = qr * qi
    a, b = pr * qi, pi * qr
    out = RationalVector(
        point.lattice,
        tuple(q * x - a * y - b * z for x, y, z in zip(kappa.nums, re.nums, im.nums)),
        kappa.den * q,
    )
    if pairing(out, point.re) != 0 or pairing(out, point.im) != 0:
        raise InvariantError("projection is not orthogonal to the period line")
    return out


def is_in_k_omega(kappa: Vec, point: PeriodPoint) -> bool:
    """Positive vector orthogonal to the period line."""
    return (
        norm(kappa) > 0
        and pairing(kappa, point.re) == 0
        and pairing(kappa, point.im) == 0
    )


def is_in_ktilde_omega(kappa: Vec, point: PeriodPoint) -> bool:
    """Positive projection: (k,k) * hermitian_norm > 2 * |(k, line)|^2.

    Equivalent to the projection of kappa landing strictly inside the
    positive cone orthogonal to the line; the equivalence is re-checked on
    every call and a disagreement raises InvariantError.
    """
    lhs = norm(kappa) * point.hermitian_norm()
    rhs = 2 * point.pairing_square(kappa)
    member = lhs > rhs
    if member != is_in_k_omega(project_to_alpha_perp(kappa, point), point):
        raise InvariantError("cone membership disagrees with its projected form")
    return member


def is_in_k_omega_generic(kappa: Vec, point: PeriodPoint) -> bool:
    """Membership plus no -2-vector orthogonal to span(kappa, re, im)."""
    if not is_in_k_omega(kappa, point):
        return False
    k = _rational(kappa)
    return is_generic_plane(k.lattice, [k, point.re, point.im])


def is_in_ktilde_omega_generic(kappa: Vec, point: PeriodPoint) -> bool:
    """Membership plus no -2-vector orthogonal to span(kappa, re, im)."""
    if not is_in_ktilde_omega(kappa, point):
        return False
    k = _rational(kappa)
    return is_generic_plane(k.lattice, [k, point.re, point.im])


@dataclass(frozen=True)
class OrientedPlane:
    """Ordered basis of a positive-definite 3-plane; order is orientation."""

    basis: tuple[RationalVector, RationalVector, RationalVector]

    def __post_init__(self):
        basis = tuple(_rational(v) for v in self.basis)
        if len(basis) != 3:
            raise ValueError("need exactly three spanning vectors")
        object.__setattr__(self, "basis", basis)
        g = self.gram()
        # Sylvester criterion, leading principal minors
        for k in (1, 2, 3):
            if rat_det(RatMatrix([row[:k] for row in g[:k]])) <= 0:
                raise ValueError("basis does not span a positive 3-plane")

    def gram(self) -> list[list[Fraction]]:
        return [
            [Fraction(pairing(u, v)) for v in self.basis] for u in self.basis
        ]


def same_component(p: OrientedPlane, q: OrientedPlane) -> bool:
    """Co-orientation test for maximal positive planes.

    The mutual pairing matrix of two maximal positive subspaces is
    nonsingular, and its determinant sign is constant on components of
    the oriented Grassmannian, positive exactly on the diagonal.
    """
    d = rat_det(
        RatMatrix([[pairing(u, v) for v in q.basis] for u in p.basis])
    )
    if d == 0:
        raise ValueError("singular mutual pairing: planes are not both maximal positive")
    return d > 0


@cache
def standard_plane(lattice: Lattice) -> OrientedPlane:
    """Reference orientation: the diagonal vectors of the hyperbolic summands.

    Built once per lattice, so its vectors keep their cached Gram images."""
    return OrientedPlane(
        tuple((k3_e(lattice, i) + k3_f(lattice, i)).to_rational() for i in range(3))
    )
