"""Period-domain membership and oriented positive 3-planes.

A period point is kept in real/imaginary normal form: two rational
vectors re, im with (re, im) = 0 and (re, re) = (im, im) > 0.  With that
normalization every hermitian quantity needed here collapses to plain
rational arithmetic: the hermitian norm of the line is
(re, re) + (im, im), and the squared modulus of the pairing of a vector
k against the line is (k, re)^2 + (k, im)^2.  Writing each vector as
integer numerators over one denominator, the predicates compare integer
pairings of the numerators scaled by squares of the denominators, and a
Fraction is built only for a value that a function returns.  All
predicates below are exact; there is no epsilon anywhere.

A point remembers the last kappa object projected away from it, with the
pairings (K, R) and (K, I) of its numerators and the projection, once its
orthogonality check has passed.  The pairing square, the projected norm and
the tame-cone test read those two pairings when they are given that same
object, and the positive-cone test reads that the stored projection is
orthogonal to the line; any other vector, even an equal one, is paired.
"""

from fractions import Fraction
from functools import cache
from math import gcd

from .exact_linalg import Frozen, InvariantError, rat_det
from .lattice import (
    AnyVector,
    Lattice,
    LatticeVector,
    RationalVector,
    _check_same_lattice,
    k3_e,
    k3_f,
    pairing,
    pairing_nums,
)
from .shortvec import is_generic_plane


def _rational(v: AnyVector) -> RationalVector:
    return v.to_rational() if isinstance(v, LatticeVector) else v


def is_in_omega(re: AnyVector, im: AnyVector) -> bool:
    """True iff re + i*im spans a positive isotropic complex line.

    With re = R/r and im = I/i: (R, I) = 0, (R, R) > 0 and
    (R, R) i^2 = (I, I) r^2.
    """
    _check_same_lattice(re, im)
    rr, ii = pairing_nums(re, re), pairing_nums(im, im)
    return rr > 0 and pairing_nums(re, im) == 0 and rr * im.den**2 == ii * re.den**2


class PeriodPoint(Frozen):
    """A period point; the self-pairings (R, R) and (I, I) of the numerators
    are computed at construction and cached on re and im as `vv`.

    `_projection` is None or (kappa, kr, ki, projection): the last kappa
    object that project_to_alpha_perp projected away from this point, its
    numerator pairings kr = (K, R) and ki = (K, I), and its projection,
    stored once the projection's orthogonality check has passed.  It is not
    a field.  _pairing_square_num reads kr and ki when it is given that
    kappa object, and is_in_k_omega reads that the projection object is
    orthogonal to the line."""

    _fields = ("re", "im")

    def __init__(self, re: AnyVector, im: AnyVector):
        object.__setattr__(self, "re", re)
        object.__setattr__(self, "im", im)
        object.__setattr__(self, "_projection", None)
        self.__post_init__()

    def __post_init__(self):
        re, im = _rational(self.re), _rational(self.im)
        if not is_in_omega(re, im):
            raise ValueError(
                "not a period point: need (re,im) = 0 and (re,re) = (im,im) > 0"
            )
        object.__setattr__(self, "re", re)
        object.__setattr__(self, "im", im)

    @property
    def lattice(self) -> Lattice:
        return self.re.lattice

    def hermitian_norm(self) -> Fraction:
        """(re, re) + (im, im)."""
        return Fraction(self._norm_num(), (self.re.den * self.im.den) ** 2)

    def pairing_square(self, kappa: AnyVector) -> Fraction:
        """Squared modulus of the pairing of kappa with the complex line."""
        den = kappa.den * self.re.den * self.im.den
        return Fraction(self._pairing_square_num(kappa), den * den)

    # With re = R/r, im = I/i and kappa = K/k, the two numerators below are
    # the hermitian norm times (r i)^2 and the pairing square times (k r i)^2.

    def _norm_num(self) -> int:
        """(R, R) i^2 + (I, I) r^2."""
        return self.re.vv * self.im.den**2 + self.im.vv * self.re.den**2

    def _pairing_square_num(self, kappa: AnyVector) -> int:
        """(K, R)^2 i^2 + (K, I)^2 r^2; the pairings are the ones the point
        stored with its projection when kappa is that memo's kappa object."""
        re, im = self.re, self.im
        memo = self._projection
        if memo is not None and memo[0] is kappa:
            kr, ki = memo[1], memo[2]
        else:
            _check_same_lattice(kappa, re)
            kr, ki = pairing_nums(kappa, re), pairing_nums(kappa, im)
        return kr * kr * im.den**2 + ki * ki * re.den**2

    def projected_norm(self, kappa: AnyVector) -> Fraction:
        """(kappa, kappa) - 2 pairing_square(kappa) / hermitian_norm(): the
        norm of the projection of kappa away from the line, computed from
        pairings, not from the projection.

        With kappa = K/k, hn = _norm_num() and ps = _pairing_square_num(kappa),
        hn > 0 at a period point, and
          (k,k) - 2 (ps / (k r i)^2) / (hn / (r i)^2)
            = (K,K) / k^2 - 2 ps / (k^2 hn) = ((K,K) hn - 2 ps) / (k^2 hn);
        a Fraction is kept in lowest terms, so its text is that of the value.
        """
        ps = self._pairing_square_num(kappa)  # checks the lattice
        hn = self._norm_num()
        return Fraction(pairing_nums(kappa, kappa) * hn - 2 * ps, kappa.den**2 * hn)


def project_to_alpha_perp(kappa: AnyVector, point: PeriodPoint) -> RationalVector:
    """Orthogonal projection of kappa away from span(re, im), exactly.

    With kappa = K/d, re = R/r and im = I/i the projection is
    K/d - (K,R)/(R,R) R/d - (K,I)/(I,I) I/d: the denominators of re and im
    cancel, so it is one integer combination of the numerators over
    d times the reduced denominators of the two coefficients.

    The point keeps one projection: that of the last kappa object it was
    asked for, with the pairings kr = (K, R) and ki = (K, I) it was built
    from, stored only once the orthogonality check has passed (see
    PeriodPoint).  It is keyed by identity and holds kappa itself, so the
    key cannot be reused by another object; vectors and points are
    immutable, so a repeated call on the same pair returns the same,
    already checked, vector.
    """
    memo = point._projection
    if memo is not None and memo[0] is kappa:
        return memo[3]
    _check_same_lattice(kappa, point.re)
    re, im = point.re, point.im
    kr, qr = pairing_nums(kappa, re), re.vv
    ki, qi = pairing_nums(kappa, im), im.vv
    g, h = gcd(kr, qr), gcd(ki, qi)
    pr, qr, pi, qi = kr // g, qr // g, ki // h, qi // h
    q = qr * qi
    a, b = pr * qi, pi * qr
    out = RationalVector(
        point.lattice,
        [q * x - a * y - b * z for x, y, z in zip(kappa.nums, re.nums, im.nums)],
        kappa.den * q,
    )
    if pairing_nums(out, re) != 0 or pairing_nums(out, im) != 0:
        raise InvariantError("projection is not orthogonal to the period line")
    object.__setattr__(point, "_projection", (kappa, kr, ki, out))
    return out


def is_in_k_omega(kappa: AnyVector, point: PeriodPoint) -> bool:
    """Positive vector orthogonal to the period line.

    With kappa = K/k: (K, K) > 0, (K, R) = 0 and (K, I) = 0.  For the
    projection object the point stored, only (K, K) > 0 is evaluated: its
    orthogonality was checked before it was stored.  Any other vector, even
    one equal to it, is paired with re and im.
    """
    memo = point._projection
    if memo is not None and memo[3] is kappa:
        return pairing_nums(kappa, kappa) > 0
    _check_same_lattice(kappa, point.re)
    return (
        pairing_nums(kappa, kappa) > 0
        and pairing_nums(kappa, point.re) == 0
        and pairing_nums(kappa, point.im) == 0
    )


def is_in_ktilde_omega(kappa: AnyVector, point: PeriodPoint) -> bool:
    """Positive projection: (k,k) * hermitian_norm > 2 * |(k, line)|^2.

    With kappa = K/k, re = R/r and im = I/i this is decided on integers as
    (K, K) ((R, R) i^2 + (I, I) r^2) > 2 ((K, R)^2 i^2 + (K, I)^2 r^2):
    both sides are the rational ones multiplied by (k r i)^2 > 0.

    Equivalent to the projection of kappa landing strictly inside the
    positive cone orthogonal to the line; the equivalence is re-checked on
    every call and a disagreement raises InvariantError.  The projection
    comes from project_to_alpha_perp first, so it is the point's stored
    vector, checked orthogonal when it was built, and (K, R) and (K, I) are
    the pairings stored with it: the integer inequality reads them, and the
    re-check compares it with (V, V) > 0 for that projection V = K'/k',
    which is all is_in_k_omega evaluates on the stored vector.
    """
    projection = project_to_alpha_perp(kappa, point)  # checks the lattice
    square = point._pairing_square_num(kappa)
    member = pairing_nums(kappa, kappa) * point._norm_num() > 2 * square
    if member != is_in_k_omega(projection, point):
        raise InvariantError("cone membership disagrees with its projected form")
    return member


def is_in_k_omega_generic(kappa: AnyVector, point: PeriodPoint) -> bool:
    """Membership plus no -2-vector orthogonal to span(kappa, re, im)."""
    if not is_in_k_omega(kappa, point):
        return False
    return is_generic_plane(kappa.lattice, [kappa, point.re, point.im])


def is_in_ktilde_omega_generic(kappa: AnyVector, point: PeriodPoint) -> bool:
    """Tame (K~_Omega) membership plus no -2-vector orthogonal to
    span(kappa, re, im)."""
    if not is_in_ktilde_omega(kappa, point):
        return False
    return is_generic_plane(kappa.lattice, [kappa, point.re, point.im])


class OrientedPlane(Frozen):
    """Ordered basis of a positive-definite 3-plane; order is orientation."""

    _fields = ("basis",)

    def __init__(self, basis: tuple[AnyVector, AnyVector, AnyVector]):
        """Sylvester's criterion on the numerator Gram matrix.

        With basis vectors u_i = U_i / d_i, N_ij = (U_i, U_j) is d_i d_j G_ij
        for the Gram matrix G_ij = (u_i, u_j), so N = D G D with
        D = diag(d_i) > 0, and the leading minor of order k is
        det N_k = (d_1 ... d_k)^2 det G_k: the same sign.  So the basis spans
        a positive 3-plane exactly when the three leading minors of N are
        positive."""
        basis = tuple(_rational(v) for v in basis)
        if len(basis) != 3:
            raise ValueError("need exactly three spanning vectors")
        u, v, w = basis
        _check_same_lattice(u, v)
        _check_same_lattice(u, w)
        object.__setattr__(self, "basis", basis)
        a, b, c = pairing_nums(u, u), pairing_nums(u, v), pairing_nums(u, w)
        d, e, f = pairing_nums(v, v), pairing_nums(v, w), pairing_nums(w, w)
        minors = (a, a * d - b * b, a * (d * f - e * e) - b * (b * f - c * e) + c * (b * e - c * d))
        if min(minors) <= 0:
            raise ValueError("basis does not span a positive 3-plane")


def same_component(p: OrientedPlane, q: OrientedPlane) -> bool:
    """Co-orientation test for maximal positive planes.

    The mutual pairing matrix of two maximal positive subspaces is
    nonsingular, and its determinant sign is constant on components of
    the oriented Grassmannian, positive exactly on the diagonal.
    """
    d = rat_det([[pairing(u, v) for v in q.basis] for u in p.basis])
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
