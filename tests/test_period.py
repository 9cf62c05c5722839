import random
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import k3dh.period
from k3dh.lattice import direct_sum, make_H, make_K3, k3_e, k3_f, norm, pairing
from k3dh.period import (
    InvariantError,
    OrientedPlane,
    PeriodPoint,
    is_in_k_omega,
    is_in_k_omega_generic,
    is_in_ktilde_omega,
    is_in_ktilde_omega_generic,
    is_in_omega,
    project_to_alpha_perp,
    same_component,
    standard_plane,
)

K3 = make_K3()
H3 = direct_sum("H+H+H", make_H(), make_H(), make_H())


def hyperbolic(lattice, i, a, b):
    return a * k3_e(lattice, i) + b * k3_f(lattice, i)


def standard_point(lattice) -> PeriodPoint:
    return PeriodPoint(
        hyperbolic(lattice, 0, 1, 1).to_rational(),
        hyperbolic(lattice, 1, 1, 1).to_rational(),
    )


def rotated_point(u, v, a, b) -> PeriodPoint:
    """Rational rotation inside the positive plane span(u, v)."""
    ur, vr = u.to_rational(), v.to_rational()
    re = ur.scale(a) + vr.scale(b)
    im = ur.scale(-b) + vr.scale(a)
    return PeriodPoint(re, im)


def random_rational_vector(rng, lattice):
    coords = tuple(
        Fraction(rng.randint(-3, 3), rng.randint(1, 4))
        for _ in range(lattice.rank)
    )
    return lattice.rational_vector(coords)


def test_omega_membership_examples():
    e1, f1 = k3_e(K3, 0), k3_f(K3, 0)
    e2, f2 = k3_e(K3, 1), k3_f(K3, 1)
    assert is_in_omega(e1 + f1, e2 + f2)
    assert not is_in_omega(e1, e2)
    assert not is_in_omega(e1 + f1, e1 + f1)
    with pytest.raises(ValueError):
        PeriodPoint(e1.to_rational(), e2.to_rational())


def test_rotated_points_stay_in_omega():
    u = hyperbolic(K3, 0, 1, 1)
    v = hyperbolic(K3, 1, 1, 1)
    for a, b in ((1, 0), (3, 4), (Fraction(1, 2), Fraction(5, 3))):
        pt = rotated_point(u, v, a, b)
        assert is_in_omega(pt.re, pt.im)
        assert pt.hermitian_norm() == 2 * norm(pt.re)


def test_projection_examples():
    pt = standard_point(K3)
    kappa = hyperbolic(K3, 2, 1, 1)
    assert project_to_alpha_perp(kappa, pt) == kappa.to_rational()
    assert project_to_alpha_perp(pt.re, pt).is_zero()

    e1 = k3_e(K3, 0)
    khat = project_to_alpha_perp(e1, pt)
    half = Fraction(1, 2)
    expected = e1.to_rational() - pt.re.scale(half)
    assert khat == expected
    assert norm(khat) == Fraction(-1, 2)
    # both sides of the projected-norm identity, computed separately
    rhs = norm(e1) - 2 * pt.pairing_square(e1) / pt.hermitian_norm()
    assert norm(khat) == rhs


def test_cone_membership_examples():
    pt = standard_point(K3)
    kappa = hyperbolic(K3, 2, 1, 1)
    assert is_in_ktilde_omega(kappa, pt)
    assert is_in_k_omega(kappa, pt)
    # boundary: kappa on the line itself gives equality, not membership
    assert norm(pt.re) * pt.hermitian_norm() == 2 * pt.pairing_square(pt.re)
    assert not is_in_ktilde_omega(pt.re, pt)
    zero = K3.vector([0] * K3.rank)
    assert not is_in_ktilde_omega(zero, pt)
    assert not is_in_k_omega(zero, pt)
    # in the big cone but not orthogonal
    tilted = kappa + k3_e(K3, 0)
    assert is_in_ktilde_omega(tilted, pt)
    assert not is_in_k_omega(tilted, pt)


def test_projected_norm_identity_randomized():
    rng = random.Random(41)
    u0 = hyperbolic(K3, 0, 1, 1)
    v0 = hyperbolic(K3, 1, 1, 1)
    u1 = hyperbolic(K3, 0, 2, 1)
    v1 = hyperbolic(K3, 1, 2, 1)
    for _ in range(100):
        a = Fraction(rng.randint(-5, 5), rng.randint(1, 3))
        b = Fraction(rng.randint(-5, 5), rng.randint(1, 3))
        if a == 0 and b == 0:
            continue
        u, v = (u0, v0) if rng.random() < 0.5 else (u1, v1)
        pt = rotated_point(u, v, a, b)
        kappa = random_rational_vector(rng, K3)
        khat = project_to_alpha_perp(kappa, pt)
        assert norm(khat) == norm(kappa) - 2 * pt.pairing_square(
            kappa
        ) / pt.hermitian_norm()
        # projecting lands in the small cone iff we started in the big one
        assert is_in_ktilde_omega(kappa, pt) == is_in_k_omega(khat, pt)


def test_cone_equivalence_failure_raises(monkeypatch):
    pt = standard_point(K3)
    kappa = hyperbolic(K3, 2, 1, 1)
    monkeypatch.setattr(k3dh.period, "is_in_k_omega", lambda k, p: False)
    with pytest.raises(InvariantError, match="cone membership"):
        is_in_ktilde_omega(kappa, pt)


def test_non_orthogonal_projection_raises(monkeypatch):
    pt = standard_point(K3)
    monkeypatch.setattr(k3dh.period, "pairing", lambda u, v: Fraction(1))
    with pytest.raises(InvariantError, match="not orthogonal"):
        project_to_alpha_perp(k3_e(K3, 0), pt)


def test_projection_rejects_foreign_lattice():
    with pytest.raises(ValueError, match="different lattices"):
        project_to_alpha_perp(hyperbolic(H3, 0, 1, 1), standard_point(K3))


def test_generic_membership_on_small_lattice():
    # asymmetric hyperbolic coefficients leave no room for a -2-vector
    pt = rotated_point(hyperbolic(H3, 0, 2, 1), hyperbolic(H3, 1, 2, 1), 1, 0)
    kappa = hyperbolic(H3, 2, 2, 1)
    assert is_in_ktilde_omega_generic(kappa, pt)
    assert is_in_k_omega_generic(kappa, pt)
    # the diagonal plane is orthogonal to each e_i - f_i
    std = standard_point(H3)
    diag = hyperbolic(H3, 2, 1, 1)
    assert is_in_ktilde_omega(diag, std)
    assert not is_in_ktilde_omega_generic(diag, std)
    assert not is_in_k_omega_generic(diag, std)
    # non-members are rejected before any enumeration
    assert not is_in_k_omega_generic(k3_e(H3, 0), std)
    assert not is_in_ktilde_omega_generic(k3_e(H3, 0), std)


def test_oriented_plane_validation():
    e1, f1 = k3_e(K3, 0), k3_f(K3, 0)
    with pytest.raises(ValueError, match="three"):
        OrientedPlane((hyperbolic(K3, 0, 1, 1), hyperbolic(K3, 1, 1, 1)))
    with pytest.raises(ValueError):
        OrientedPlane(
            (e1.to_rational(), k3_e(K3, 1).to_rational(), k3_e(K3, 2).to_rational())
        )
    with pytest.raises(ValueError):
        OrientedPlane(
            (
                (e1 - f1).to_rational(),
                hyperbolic(K3, 1, 1, 1).to_rational(),
                hyperbolic(K3, 2, 1, 1).to_rational(),
            )
        )


def test_component_comparison():
    p = standard_plane(K3)
    assert same_component(p, p)
    swapped = OrientedPlane((p.basis[1], p.basis[0], p.basis[2]))
    assert not same_component(p, swapped)
    # negate the third hyperbolic summand: an orientation-reversing image
    flipped = OrientedPlane((p.basis[0], p.basis[1], -p.basis[2]))
    assert not same_component(p, flipped)
    # a nearby tilted plane stays co-oriented
    pt = standard_point(K3)
    q = OrientedPlane((hyperbolic(K3, 2, 1, 1) + K3.vector(pt.re.nums), pt.re, pt.im))
    assert same_component(p, q)
    # orthogonal positive 3-planes of H^6 have a zero mutual pairing
    h6 = direct_sum("H^6", *[make_H()] * 6)
    diagonals = [h6.basis_vector(2 * i) + h6.basis_vector(2 * i + 1) for i in range(6)]
    with pytest.raises(ValueError, match="singular"):
        same_component(OrientedPlane(diagonals[:3]), OrientedPlane(diagonals[3:]))


def test_component_comparison_is_an_equivalence():
    pt = standard_point(K3)
    p = standard_plane(K3)
    planes = [
        p,
        OrientedPlane((hyperbolic(K3, 2, 1, 1) + K3.vector(pt.re.nums), pt.re, pt.im)),
        OrientedPlane((p.basis[0], p.basis[1], -p.basis[2])),
        OrientedPlane((p.basis[1], p.basis[0], p.basis[2])),
        OrientedPlane((hyperbolic(K3, 2, 3, 2), pt.re, pt.im)),
    ]
    for a in planes:
        assert same_component(a, a)
        for b in planes:
            assert same_component(a, b) == same_component(b, a)
            for c in planes:
                if same_component(a, b) and same_component(b, c):
                    assert same_component(a, c)
    # exactly two classes on this set
    classes = {tuple(same_component(a, b) for b in planes) for a in planes}
    assert len(classes) == 2


@settings(deadline=None, max_examples=60)
@given(
    a=st.fractions(min_value=-4, max_value=4, max_denominator=3),
    b=st.fractions(min_value=-4, max_value=4, max_denominator=3),
    coeffs=st.lists(
        st.integers(min_value=-2, max_value=2), min_size=8, max_size=8
    ),
)
def test_projection_is_idempotent_and_orthogonal(a, b, coeffs):
    assume(a != 0 or b != 0)
    pt = rotated_point(
        hyperbolic(K3, 0, 1, 1), hyperbolic(K3, 1, 1, 1), a, b
    )
    slots = (0, 1, 2, 3, 4, 5, 8, 17)
    coords = [0] * K3.rank
    for s, c in zip(slots, coeffs):
        coords[s] = c
    kappa = K3.vector(coords)
    khat = project_to_alpha_perp(kappa, pt)
    assert pairing(khat, pt.re) == 0
    assert pairing(khat, pt.im) == 0
    assert project_to_alpha_perp(khat, pt) == khat
