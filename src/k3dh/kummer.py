"""H^2 of the four-torus via translation-invariant forms, and its blowup.

A form is a complex-rational combination of the six degree-2 wedge
monomials in dz1, dz1bar, dz2, dz2bar, held as its real and imaginary
parts, two RationalVectors of WEDGE_LATTICE.  The torus has unit periods,
so the single normalization int dx1 dy1 dx2 dy2 = 1 fixes every constant in
this module.  A torus class is a RationalVector of TORUS_LATTICE.  Blowup
classes consist of a rational torus pullback plus a RationalVector of
EXCEPTIONAL_LATTICE, one coefficient per sphere; pullbacks pair at half the
torus value and the exceptional spheres pair as -2 times the identity.

Every part is held as integer numerators over one denominator.
wedge_integrate and pairing take the integer pairings of the numerators
(lattice.pairing_nums) and build a single Fraction from them at the end,
and from_terms sums int coefficients as ints, so a Fraction is built only
for a returned rational or a non-int input value.
"""
from __future__ import annotations

from fractions import Fraction
from operator import mul

from .exact_linalg import Frozen, IntMatrix, InvariantError
from .lattice import Lattice, RationalVector, pairing_nums

# slots 0..3 are dz1, dz1bar, dz2, dz2bar
MONOMIALS = ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3))
_MONO_INDEX = {m: k for k, m in enumerate(MONOMIALS)}
_CONJ_SLOT = (1, 0, 3, 2)

# real slots 0..3 are dx1, dy1, dx2, dy2; this ordering of the six real
# monomials is the coordinate convention for torus classes throughout
TORUS_BASIS = ((0, 1), (2, 3), (0, 2), (0, 3), (1, 2), (1, 3))
_TORUS_INDEX = {m: k for k, m in enumerate(TORUS_BASIS)}

NUM_EXCEPTIONAL = 16


def _perm_sign(p) -> int:
    inv = sum(
        1 for i in range(len(p)) for j in range(i + 1, len(p)) if p[i] > p[j]
    )
    return -1 if inv % 2 else 1


def _check_sign(sign: int) -> None:
    if sign not in (1, -1):
        raise ValueError("sign must be +1 or -1")


def _fold(i: int, j: int, index: dict) -> tuple[int, int]:
    """slot_i ^ slot_j as (sign, k) with slot_i ^ slot_j = sign * basis[k]."""
    return (1, index[(i, j)]) if i < j else (-1, index[(j, i)])


def _wedge_gram(monomials) -> IntMatrix:
    """Coefficient of the top slot monomial (0, 1, 2, 3) in m1 ^ m2."""
    return IntMatrix(
        [
            [_perm_sign(m1 + m2) if len(set(m1 + m2)) == 4 else 0 for m2 in monomials]
            for m1 in monomials
        ]
    )


# on either basis, u^T G v is the coefficient of the top monomial in u ^ v
WEDGE_LATTICE = Lattice("wedge", _wedge_gram(MONOMIALS))
TORUS_LATTICE = Lattice("torus", _wedge_gram(TORUS_BASIS))

# the sixteen disjoint exceptional spheres, each of self-intersection -2
EXCEPTIONAL_LATTICE = Lattice(
    "exceptional",
    IntMatrix([[-2 * (i == j) for j in range(NUM_EXCEPTIONAL)] for i in range(NUM_EXCEPTIONAL)]),
)

# conjugation swaps dz_j and dzbar_j: MONOMIALS[k] goes to sign * MONOMIALS[kk]
_CONJ = tuple(_fold(_CONJ_SLOT[i], _CONJ_SLOT[j], _MONO_INDEX) for i, j in MONOMIALS)


def _permuted(v: RationalVector, sign: int) -> RationalVector:
    nums = [0] * len(MONOMIALS)
    for x, (s, kk) in zip(v.nums, _CONJ):
        nums[kk] = sign * s * x
    return RationalVector(WEDGE_LATTICE, tuple(nums), v.den)


def _check_part(v, lattice: Lattice) -> None:
    if not isinstance(v, RationalVector) or (v.lattice is not lattice and v.lattice != lattice):
        raise ValueError(f"expected a RationalVector of the {lattice.name} lattice")


class InvariantForm(Frozen):
    """Translation-invariant 2-form re + i * im on MONOMIALS."""

    _fields = ("re", "im")

    def __init__(self, re: RationalVector, im: RationalVector):
        _check_part(re, WEDGE_LATTICE)
        _check_part(im, WEDGE_LATTICE)
        object.__setattr__(self, "re", re)
        object.__setattr__(self, "im", im)

    @staticmethod
    def from_terms(terms: dict) -> "InvariantForm":
        """Build from {(slot, slot): coefficient} with rational or (re, im) values.

        Reversed slot order is accepted and contributes with a sign flip.
        Int values are summed as ints; any other value is read exactly as
        Fraction(value), so a float term is never summed as a float.
        """
        re = [0] * len(MONOMIALS)
        im = [0] * len(MONOMIALS)
        for (i, j), val in terms.items():
            if not 0 <= min(i, j) < max(i, j) <= 3:
                raise ValueError(f"not a wedge monomial: ({i}, {j})")
            sign, k = _fold(i, j, _MONO_INDEX)
            x, y = val if isinstance(val, tuple) else (val, 0)
            re[k] += sign * (x if type(x) is int else Fraction(x))
            im[k] += sign * (y if type(y) is int else Fraction(y))
        return InvariantForm(
            WEDGE_LATTICE.rational_vector(re), WEDGE_LATTICE.rational_vector(im)
        )

    def __add__(self, other: "InvariantForm") -> "InvariantForm":
        return InvariantForm(self.re + other.re, self.im + other.im)

    def __neg__(self) -> "InvariantForm":
        return InvariantForm(-self.re, -self.im)

    def __sub__(self, other: "InvariantForm") -> "InvariantForm":
        return InvariantForm(self.re - other.re, self.im - other.im)

    def scale(self, x, y=0) -> "InvariantForm":
        """Multiply by the exact complex scalar x + y*i."""
        re, im = self.re, self.im
        return InvariantForm(re.scale(x) - im.scale(y), im.scale(x) + re.scale(y))

    def conjugate(self) -> "InvariantForm":
        return InvariantForm(_permuted(self.re, 1), _permuted(self.im, -1))

    def is_real(self) -> bool:
        return self == self.conjugate()

    def is_zero(self) -> bool:
        return self.re.is_zero() and self.im.is_zero()


def volume_real_form() -> InvariantForm:
    """dz1 dz2 + dz1bar dz2bar: twice the real part of the complex volume form."""
    return InvariantForm.from_terms({(0, 2): 1, (1, 3): 1})


def area_sum_form() -> InvariantForm:
    """i dz1 dz1bar + i dz2 dz2bar = 2(dx1 dy1 + dx2 dy2)."""
    return InvariantForm.from_terms({(0, 1): (0, 1), (2, 3): (0, 1)})


def symplectic_family_form(sign: int, t) -> InvariantForm:
    """volume_real_form + sign * t * area_sum_form.

    Every member is real and symplectic: its self-integral is 8(1 + t^2) > 0.
    """
    _check_sign(sign)
    return volume_real_form() + area_sum_form().scale(Fraction(t) * sign)


def wedge_integrate(a: InvariantForm, b: InvariantForm) -> Fraction:
    """Integral of a wedge b over the unit-period torus.

    The top coefficient of a ^ b is (R_a + i I_a)^T G (R_b + i I_b) for the
    Gram G of WEDGE_LATTICE.  dz_j ^ dzbar_j = -2i dx_j ^ dy_j, so the top
    monomial in slot order carries (-2i)^2 = -4 against
    int dx1 dy1 dx2 dy2 = 1.  The return type is a plain rational; a nonzero
    imaginary part (R_a, I_b) + (I_a, R_b) raises.  Each part is r / d, so
    both sums are taken on numerators over the product of the denominators.
    """
    ra, ia, rb, ib = a.re, a.im, b.re, b.im
    if pairing_nums(ra, ib) * ia.den * rb.den + pairing_nums(ia, rb) * ra.den * ib.den:
        raise ValueError("wedge integral is not real")
    real = pairing_nums(ra, rb) * ia.den * ib.den - pairing_nums(ia, ib) * ra.den * rb.den
    return Fraction(-4 * real, ra.den * rb.den * ia.den * ib.den)


# dz1 = dx1 + i dy1 and friends: (real slot, power of i) for each term
_DZ = (
    ((0, 0), (1, 1)),
    ((0, 0), (1, 3)),
    ((2, 0), (3, 1)),
    ((2, 0), (3, 3)),
)
_I_POWERS = ((1, 0), (0, 1), (-1, 0), (0, -1))  # i^e as (re, im)


def _expansion() -> tuple[tuple[tuple[int, ...], ...], tuple[tuple[int, ...], ...]]:
    """Integer X, Y with MONOMIALS[k] = sum_kk (X + i Y)[kk][k] TORUS_BASIS[kk]."""
    x = [[0] * len(MONOMIALS) for _ in TORUS_BASIS]
    y = [[0] * len(MONOMIALS) for _ in TORUS_BASIS]
    for k, (i, j) in enumerate(MONOMIALS):
        for ri, ei in _DZ[i]:
            for rj, ej in _DZ[j]:
                if ri != rj:
                    sign, kk = _fold(ri, rj, _TORUS_INDEX)
                    re, im = _I_POWERS[(ei + ej) % 4]
                    x[kk][k] += sign * re
                    y[kk][k] += sign * im
    return tuple(map(tuple, x)), tuple(map(tuple, y))


_X, _Y = _expansion()


def form_to_torus_class(a: InvariantForm) -> RationalVector:
    """Coordinates X R - Y I of a real form R + i I in the integral torus
    basis; the imaginary part Y R + X I vanishes by realness."""
    if not a.is_real():
        raise ValueError("form is not real")
    (r, dr), (i, di) = (a.re.nums, a.re.den), (a.im.nums, a.im.den)
    if any(di * sum(map(mul, y, r)) + dr * sum(map(mul, x, i)) for x, y in zip(_X, _Y)):
        raise InvariantError("real form has a non-real torus coordinate")
    nums = tuple(di * sum(map(mul, x, r)) - dr * sum(map(mul, y, i)) for x, y in zip(_X, _Y))
    return RationalVector(TORUS_LATTICE, nums, dr * di)


class KummerClass(Frozen):
    """Blowup class: a torus pullback plus 16 exceptional coefficients.

    torus_part records the pullback to the torus of the downstairs class,
    which is what makes all coordinates rational; the quotient-level pairing
    is recovered by the factor 1/2 in pairing().  exc lies in
    EXCEPTIONAL_LATTICE.
    """

    _fields = ("torus_part", "exc")

    def __init__(self, torus_part: RationalVector, exc: RationalVector):
        _check_part(torus_part, TORUS_LATTICE)
        _check_part(exc, EXCEPTIONAL_LATTICE)
        object.__setattr__(self, "torus_part", torus_part)
        object.__setattr__(self, "exc", exc)

    def __add__(self, other: "KummerClass") -> "KummerClass":
        return KummerClass(self.torus_part + other.torus_part, self.exc + other.exc)

    def __sub__(self, other: "KummerClass") -> "KummerClass":
        return KummerClass(self.torus_part - other.torus_part, self.exc - other.exc)

    def __neg__(self) -> "KummerClass":
        return KummerClass(-self.torus_part, -self.exc)

    def scale(self, c) -> "KummerClass":
        return KummerClass(self.torus_part.scale(c), self.exc.scale(c))


def pairing(a: KummerClass, b: KummerClass) -> Fraction:
    """Half the torus pairing of the pullback parts, plus -2 per matched sphere,
    on numerators: t / (2 dt) + e / de = (t de + 2 e dt) / (2 dt de)."""
    ta, tb, ea, eb = a.torus_part, b.torus_part, a.exc, b.exc
    dt, de = ta.den * tb.den, ea.den * eb.den
    return Fraction(
        pairing_nums(ta, tb) * de + 2 * pairing_nums(ea, eb) * dt, 2 * dt * de
    )


_ZERO_TORUS = TORUS_LATTICE.rational_vector((0,) * len(TORUS_BASIS))
_ZERO_EXC = EXCEPTIONAL_LATTICE.rational_vector((0,) * NUM_EXCEPTIONAL)


def pullback(y: RationalVector) -> KummerClass:
    """The blowup class of a downstairs class, given through its torus pullback."""
    return KummerClass(y, _ZERO_EXC)


def exceptional(i: int) -> KummerClass:
    """The i-th exceptional sphere class, 0-indexed."""
    if not 0 <= i < NUM_EXCEPTIONAL:
        raise ValueError("exceptional index out of range")
    exc = [0] * NUM_EXCEPTIONAL
    exc[i] = 1
    return KummerClass(_ZERO_TORUS, RationalVector(EXCEPTIONAL_LATTICE, tuple(exc)))


def kappa_hat() -> KummerClass:
    """Pullback of the volume real part plus half the sum of the spheres."""
    return KummerClass(
        form_to_torus_class(volume_real_form()),
        RationalVector(EXCEPTIONAL_LATTICE, (1,) * NUM_EXCEPTIONAL, 2),
    )


def eta_hat(sign: int) -> KummerClass:
    """Minus the pullback of the area sum, with sign/2 times the sphere sum."""
    _check_sign(sign)
    return KummerClass(
        -form_to_torus_class(area_sum_form()),
        RationalVector(EXCEPTIONAL_LATTICE, (sign,) * NUM_EXCEPTIONAL, 2),
    )


def sigma_class(sign: int, t) -> KummerClass:
    """kappa_hat - t * eta_hat(sign); self-pairing -4 + sign*16t - 4t^2."""
    _check_sign(sign)
    return kappa_hat() - eta_hat(sign).scale(Fraction(t))


def primitive_pair_check(y_torus_half: RationalVector, x: KummerClass) -> bool:
    """Sufficient condition for the pair (downstairs y, x) to span primitively.

    y_torus_half is the candidate pullback of y/2.  It must be an integral
    primitive torus class, and x must meet some exceptional sphere with
    pairing exactly +-1.
    """
    if not y_torus_half.is_primitive():
        return False
    return any(
        pairing(exceptional(i), x) in (1, -1) for i in range(NUM_EXCEPTIONAL)
    )
