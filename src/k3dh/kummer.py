"""H^2 of the four-torus via translation-invariant forms, and its blowup.

Forms carry exact complex-rational coefficients on the six degree-2 wedge
monomials in dz1, dz1bar, dz2, dz2bar.  The torus has unit periods, so the
single normalization int dx1 dy1 dx2 dy2 = 1 fixes every constant in this
module.  A torus class is a RationalVector of TORUS_LATTICE.  Blowup
classes consist of a rational torus pullback plus a RationalVector of
EXCEPTIONAL_LATTICE, one coefficient per sphere; pullbacks pair at half the
torus value and the exceptional spheres pair as -2 times the identity.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .exact_linalg import IntMatrix, InvariantError
from .lattice import Lattice, RationalVector
from .lattice import pairing as lattice_pairing

# slots 0..3 are dz1, dz1bar, dz2, dz2bar
MONOMIALS = ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3))
_MONO_INDEX = {m: k for k, m in enumerate(MONOMIALS)}
_CONJ_SLOT = (1, 0, 3, 2)

NUM_EXCEPTIONAL = 16


# exact complex scalars as (re, im) pairs of Fractions
def _c(re, im=0) -> tuple[Fraction, Fraction]:
    return (Fraction(re), Fraction(im))


_C0 = _c(0)


def _cadd(a, b):
    return (a[0] + b[0], a[1] + b[1])


def _cmul(a, b):
    return (a[0] * b[0] - a[1] * b[1], a[0] * b[1] + a[1] * b[0])


def _perm_sign(p) -> int:
    inv = sum(
        1 for i in range(len(p)) for j in range(i + 1, len(p)) if p[i] > p[j]
    )
    return -1 if inv % 2 else 1


def _check_sign(sign: int) -> None:
    if sign not in (1, -1):
        raise ValueError("sign must be +1 or -1")


@dataclass(frozen=True)
class InvariantForm:
    """Translation-invariant 2-form; coeffs[k] is the (re, im) pair on MONOMIALS[k]."""

    coeffs: tuple

    def __post_init__(self):
        if len(self.coeffs) != len(MONOMIALS):
            raise ValueError("expected one coefficient per monomial")
        object.__setattr__(
            self, "coeffs", tuple(_c(re, im) for re, im in self.coeffs)
        )

    @staticmethod
    def from_terms(terms: dict) -> "InvariantForm":
        """Build from {(slot, slot): coefficient} with rational or (re, im) values.

        Reversed slot order is accepted and contributes with a sign flip.
        """
        acc = [_C0] * len(MONOMIALS)
        for (i, j), val in terms.items():
            sign = 1
            if i > j:
                i, j, sign = j, i, -1
            if not (0 <= i < j <= 3):
                raise ValueError(f"not a wedge monomial: ({i}, {j})")
            c = _c(*val) if isinstance(val, tuple) else _c(val)
            k = _MONO_INDEX[(i, j)]
            acc[k] = _cadd(acc[k], (sign * c[0], sign * c[1]))
        return InvariantForm(tuple(acc))

    def __add__(self, other: "InvariantForm") -> "InvariantForm":
        return InvariantForm(
            tuple(_cadd(a, b) for a, b in zip(self.coeffs, other.coeffs))
        )

    def __neg__(self) -> "InvariantForm":
        return self.scale(-1)

    def __sub__(self, other: "InvariantForm") -> "InvariantForm":
        return self + (-other)

    def scale(self, re, im=0) -> "InvariantForm":
        """Multiply by the exact complex scalar re + im*i."""
        s = _c(re, im)
        return InvariantForm(tuple(_cmul(s, c) for c in self.coeffs))

    def conjugate(self) -> "InvariantForm":
        acc = [_C0] * len(MONOMIALS)
        for k, (i, j) in enumerate(MONOMIALS):
            re, im = self.coeffs[k]
            ci, cj = _CONJ_SLOT[i], _CONJ_SLOT[j]
            sign = 1
            if ci > cj:
                ci, cj, sign = cj, ci, -1
            kk = _MONO_INDEX[(ci, cj)]
            acc[kk] = _cadd(acc[kk], (sign * re, -sign * im))
        return InvariantForm(tuple(acc))

    def is_real(self) -> bool:
        return self == self.conjugate()

    def is_zero(self) -> bool:
        return all(c == _C0 for c in self.coeffs)


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

    dz_j ^ dzbar_j = -2i dx_j ^ dy_j, so the top monomial in slot order
    carries (-2i)^2 = -4 against int dx1 dy1 dx2 dy2 = 1.  The return type
    is a plain rational; a nonzero imaginary part raises.
    """
    top = _C0
    for k1, (i1, j1) in enumerate(MONOMIALS):
        c1 = a.coeffs[k1]
        if c1 == _C0:
            continue
        for k2, (i2, j2) in enumerate(MONOMIALS):
            if len({i1, j1, i2, j2}) != 4:
                continue
            c2 = b.coeffs[k2]
            if c2 == _C0:
                continue
            s = _perm_sign((i1, j1, i2, j2))
            prod = _cmul(c1, c2)
            top = _cadd(top, (s * prod[0], s * prod[1]))
    re, im = -4 * top[0], -4 * top[1]
    if im != 0:
        raise ValueError("wedge integral is not real")
    return re


# real slots 0..3 are dx1, dy1, dx2, dy2; this ordering of the six real
# monomials is the coordinate convention for torus classes throughout
TORUS_BASIS = ((0, 1), (2, 3), (0, 2), (0, 3), (1, 2), (1, 3))
_TORUS_INDEX = {m: k for k, m in enumerate(TORUS_BASIS)}

# dz1 = dx1 + i dy1 and friends, as complex combinations of the real slots
_DZ = (
    {0: _c(1), 1: _c(0, 1)},
    {0: _c(1), 1: _c(0, -1)},
    {2: _c(1), 3: _c(0, 1)},
    {2: _c(1), 3: _c(0, -1)},
)


def _real_expansion(mono) -> tuple:
    """Complex wedge monomial -> complex coefficients on TORUS_BASIS."""
    i, j = mono
    out = [_C0] * len(TORUS_BASIS)
    for ri, ci in _DZ[i].items():
        for rj, cj in _DZ[j].items():
            if ri == rj:
                continue
            a, b, sign = (ri, rj, 1) if ri < rj else (rj, ri, -1)
            c = _cmul(ci, cj)
            k = _TORUS_INDEX[(a, b)]
            out[k] = _cadd(out[k], (sign * c[0], sign * c[1]))
    return tuple(out)


_EXPANSION = {m: _real_expansion(m) for m in MONOMIALS}


def _torus_gram() -> IntMatrix:
    rows = []
    for m1 in TORUS_BASIS:
        row = []
        for m2 in TORUS_BASIS:
            quad = m1 + m2
            row.append(_perm_sign(quad) if len(set(quad)) == 4 else 0)
        rows.append(row)
    return IntMatrix(rows)


TORUS_LATTICE = Lattice("torus", _torus_gram())


# the sixteen disjoint exceptional spheres, each of self-intersection -2
EXCEPTIONAL_LATTICE = Lattice(
    "exceptional",
    IntMatrix([[-2 * (i == j) for j in range(NUM_EXCEPTIONAL)] for i in range(NUM_EXCEPTIONAL)]),
)


def form_to_torus_class(a: InvariantForm) -> RationalVector:
    """Coordinates of a real form in the integral torus basis."""
    if not a.is_real():
        raise ValueError("form is not real")
    out = [_C0] * len(TORUS_BASIS)
    for k, mono in enumerate(MONOMIALS):
        c = a.coeffs[k]
        if c == _C0:
            continue
        for kk, e in enumerate(_EXPANSION[mono]):
            out[kk] = _cadd(out[kk], _cmul(c, e))
    if any(im != 0 for _, im in out):  # excluded by realness
        raise InvariantError("real form has a non-real torus coordinate")
    return TORUS_LATTICE.rational_vector(re for re, _ in out)


def _check_part(v, lattice: Lattice) -> None:
    if not isinstance(v, RationalVector) or v.lattice != lattice:
        raise ValueError(f"expected a RationalVector of the {lattice.name} lattice")


@dataclass(frozen=True)
class KummerClass:
    """Blowup class: a torus pullback plus 16 exceptional coefficients.

    torus_part records the pullback to the torus of the downstairs class,
    which is what makes all coordinates rational; the quotient-level pairing
    is recovered by the factor 1/2 in pairing().  exc lies in
    EXCEPTIONAL_LATTICE.
    """

    torus_part: RationalVector
    exc: RationalVector

    def __post_init__(self):
        _check_part(self.torus_part, TORUS_LATTICE)
        _check_part(self.exc, EXCEPTIONAL_LATTICE)

    def __add__(self, other: "KummerClass") -> "KummerClass":
        return KummerClass(self.torus_part + other.torus_part, self.exc + other.exc)

    def __sub__(self, other: "KummerClass") -> "KummerClass":
        return KummerClass(self.torus_part - other.torus_part, self.exc - other.exc)

    def __neg__(self) -> "KummerClass":
        return KummerClass(-self.torus_part, -self.exc)

    def scale(self, c) -> "KummerClass":
        return KummerClass(self.torus_part.scale(c), self.exc.scale(c))


def pairing(a: KummerClass, b: KummerClass) -> Fraction:
    """Half the torus pairing of the pullback parts, plus -2 per matched sphere."""
    torus = lattice_pairing(a.torus_part, b.torus_part)
    return Fraction(torus, 2) + lattice_pairing(a.exc, b.exc)


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
    return KummerClass(_ZERO_TORUS, EXCEPTIONAL_LATTICE.rational_vector(exc))


def kappa_hat() -> KummerClass:
    """Pullback of the volume real part plus half the sum of the spheres."""
    return KummerClass(
        form_to_torus_class(volume_real_form()),
        EXCEPTIONAL_LATTICE.rational_vector((Fraction(1, 2),) * NUM_EXCEPTIONAL),
    )


def eta_hat(sign: int) -> KummerClass:
    """Minus the pullback of the area sum, with sign/2 times the sphere sum."""
    _check_sign(sign)
    return KummerClass(
        -form_to_torus_class(area_sum_form()),
        EXCEPTIONAL_LATTICE.rational_vector((Fraction(sign, 2),) * NUM_EXCEPTIONAL),
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
