"""H^2 of the four-torus via translation-invariant forms, and its blowup.

A real translation-invariant 2-form is its torus class: a RationalVector of
TORUS_LATTICE in the six real wedge monomials TORUS_BASIS in dx1, dy1, dx2,
dy2.  from_terms reads the paper's notation in dz1, dz1bar, dz2, dz2bar
through dz_j = dx_j + i dy_j and refuses a form that is not real.  The
torus has unit periods, so int dx1 dy1 dx2 dy2 = 1 and the wedge integral
of two forms is their TORUS_LATTICE pairing.  A blowup class is a
RationalVector of KUMMER_LATTICE, pi_* H^2(T, Z) + <E_1, ..., E_16>, of
index 2^11 in H^2(Km A, Z) (Barth-Hulek-Peters-Van de Ven, Ch. VIII):
x = y / 2 for the torus pullback y, then the 16 sphere coefficients, with
Gram 2T + (-2) I_16, so a pullback pairs at (1/2) y^T T y = 2 x^T T x.

Every vector is held as integer numerators over one denominator.
wedge_integrate and pairing take the integer pairing of the numerators
(lattice.pairing_nums) and build a single Fraction from it at the end,
and from_terms sums int coefficients as ints, so a Fraction is built only
for a returned rational or a non-int input value.
"""
from __future__ import annotations

from fractions import Fraction

from .exact_linalg import IntMatrix, int_tuple, rational
from .lattice import Lattice, RationalVector, direct_sum, pairing_nums, rescale

# real slots 0..3 are dx1, dy1, dx2, dy2; this ordering of the six real
# monomials is the coordinate convention for forms and torus classes
TORUS_BASIS = ((0, 1), (2, 3), (0, 2), (0, 3), (1, 2), (1, 3))
_TORUS_INDEX = {m: k for k, m in enumerate(TORUS_BASIS)}

NUM_TORUS = len(TORUS_BASIS)
NUM_EXCEPTIONAL = 16

# complex slots 0..3 are dz1, dz1bar, dz2, dz2bar; dz1 = dx1 + i dy1,
# dz1bar = dx1 - i dy1 and likewise for dz2, as (real slot, power of i) terms
_DZ = (
    ((0, 0), (1, 1)),
    ((0, 0), (1, 3)),
    ((2, 0), (3, 1)),
    ((2, 0), (3, 3)),
)


def _perm_sign(p) -> int:
    inv = sum(
        1 for i in range(len(p)) for j in range(i + 1, len(p)) if p[i] > p[j]
    )
    return -1 if inv % 2 else 1


def _check_sign(sign: int) -> None:
    int_tuple((sign,), "sign")
    if sign not in (1, -1):
        raise ValueError("sign must be +1 or -1")


# u^T G v is the coefficient of dx1 dy1 dx2 dy2 in u ^ v
TORUS_LATTICE = Lattice(
    "torus",
    IntMatrix(
        [
            [_perm_sign(m1 + m2) if len(set(m1 + m2)) == 4 else 0 for m2 in TORUS_BASIS]
            for m1 in TORUS_BASIS
        ]
    ),
)

# the sixteen disjoint exceptional spheres, each of self-intersection -2
EXCEPTIONAL_LATTICE = Lattice(
    "exceptional",
    IntMatrix([[-2 * (i == j) for j in range(NUM_EXCEPTIONAL)] for i in range(NUM_EXCEPTIONAL)]),
)

# blowup classes: halved torus pullbacks, then the sixteen spheres
KUMMER_LATTICE = direct_sum("kummer", rescale(TORUS_LATTICE, 2), EXCEPTIONAL_LATTICE)


def _check_class(v, lattice: Lattice) -> None:
    if not isinstance(v, RationalVector) or (v.lattice is not lattice and v.lattice != lattice):
        raise ValueError(f"expected a RationalVector of the {lattice.name} lattice")


def from_terms(terms: dict) -> RationalVector:
    """The torus class of the real form given as {(slot, slot): coefficient}
    in dz1, dz1bar, dz2, dz2bar, with rational or (re, im) values.

    Reversed slot order is accepted and contributes with a sign flip.
    Int values are summed as ints; any other value is read exactly as
    Fraction(value), so a float term is never summed as a float.  A term
    c dz_i ^ dz_j adds i^e c to each real monomial dx ^ dx' it expands to,
    and i^e (x + iy) has real part cycle[-e] and imaginary part
    cycle[1 - e] on the cycle (x, y, -x, -y).  A nonzero imaginary sum on
    any monomial raises ValueError: the form is not real.
    """
    re = [0] * NUM_TORUS
    im = [0] * NUM_TORUS
    for (i, j), val in terms.items():
        i, j = int_tuple((i, j), "slot")
        if not 0 <= min(i, j) < max(i, j) <= 3:
            raise ValueError(f"not a wedge monomial: ({i}, {j})")
        x, y = val if isinstance(val, tuple) else (val, 0)
        x = x if type(x) is int else Fraction(x)
        y = y if type(y) is int else Fraction(y)
        cycle = (x, y, -x, -y)
        for ri, ei in _DZ[i]:
            for rj, ej in _DZ[j]:
                if ri != rj:
                    # dx_rj ^ dx_ri = i^2 dx_ri ^ dx_rj
                    e = ei + ej + 2 * (ri > rj)
                    k = _TORUS_INDEX[(min(ri, rj), max(ri, rj))]
                    re[k] += cycle[-e % 4]
                    im[k] += cycle[(1 - e) % 4]
    if any(im):
        raise ValueError("form is not real")
    return TORUS_LATTICE.rational_vector(re)


def volume_real_form() -> RationalVector:
    """dz1 dz2 + dz1bar dz2bar: twice the real part of the complex volume form."""
    return from_terms({(0, 2): 1, (1, 3): 1})


def area_sum_form() -> RationalVector:
    """i dz1 dz1bar + i dz2 dz2bar = 2(dx1 dy1 + dx2 dy2)."""
    return from_terms({(0, 1): (0, 1), (2, 3): (0, 1)})


def symplectic_family_form(sign: int, t) -> RationalVector:
    """volume_real_form + sign * t * area_sum_form.

    Every member is symplectic: its self-integral is 8(1 + t^2) > 0.
    """
    _check_sign(sign)
    return volume_real_form() + area_sum_form().scale(rational(t, "t") * sign)


def wedge_integrate(a: RationalVector, b: RationalVector) -> Fraction:
    """Integral of a wedge b over the unit-period torus, for two real forms
    given as RationalVectors of TORUS_LATTICE: one Fraction from the integer
    pairing of the numerators over the product of the denominators."""
    _check_class(a, TORUS_LATTICE)
    _check_class(b, TORUS_LATTICE)
    return Fraction(pairing_nums(a, b), a.den * b.den)


def pairing(a: RationalVector, b: RationalVector) -> Fraction:
    """The pairing (a, b) of two RationalVectors of KUMMER_LATTICE: one
    Fraction from the integer pairing of the numerators over the product
    of the denominators."""
    _check_class(a, KUMMER_LATTICE)
    _check_class(b, KUMMER_LATTICE)
    return Fraction(pairing_nums(a, b), a.den * b.den)


def pullback(y: RationalVector) -> RationalVector:
    """The blowup class of a downstairs class, given through its torus pullback."""
    _check_class(y, TORUS_LATTICE)
    return RationalVector(KUMMER_LATTICE, (*y.nums, *(0,) * NUM_EXCEPTIONAL), 2 * y.den)


# built once, so each sphere caches its Gram image once
_SPHERES = tuple(
    KUMMER_LATTICE.basis_vector(NUM_TORUS + i).to_rational() for i in range(NUM_EXCEPTIONAL)
)
_HALF_SPHERES = RationalVector(KUMMER_LATTICE, (0,) * NUM_TORUS + (1,) * NUM_EXCEPTIONAL, 2)
# the torus classes of kappa_hat and eta_hat, built once; each call still
# pulls back into a fresh vector, so its pairings are computed per call
_VOLUME_CLASS = volume_real_form()
_AREA_CLASS = area_sum_form()


def exceptional(i: int) -> RationalVector:
    """The i-th exceptional sphere class, 0-indexed."""
    int_tuple((i,), "sphere index")
    if not 0 <= i < NUM_EXCEPTIONAL:
        raise ValueError("exceptional index out of range")
    return _SPHERES[i]


def kappa_hat() -> RationalVector:
    """Pullback of the volume real part plus half the sum of the spheres."""
    return pullback(_VOLUME_CLASS) + _HALF_SPHERES


def eta_hat(sign: int) -> RationalVector:
    """Minus the pullback of the area sum, with sign/2 times the sphere sum."""
    _check_sign(sign)
    return _HALF_SPHERES.scale(sign) - pullback(_AREA_CLASS)


def sigma_class(sign: int, t) -> RationalVector:
    """kappa_hat - t * eta_hat(sign); self-pairing -4 + sign*16t - 4t^2."""
    _check_sign(sign)
    return kappa_hat() - eta_hat(sign).scale(t)


def primitive_pair_check(y_torus_half: RationalVector, x: RationalVector) -> bool:
    """Sufficient condition for the pair (downstairs y, x) to span primitively.

    y_torus_half is the candidate pullback of y/2.  It must be an integral
    primitive torus class, and x must meet some exceptional sphere with
    pairing exactly +-1.
    """
    if not y_torus_half.is_primitive():
        return False
    return any(pairing(e, x) in (1, -1) for e in _SPHERES)
