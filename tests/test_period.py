import random
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import k3dh.lattice
import k3dh.period
from k3dh.exact_linalg import IntMatrix, InvariantError, rat_det
from k3dh.isometry import OrientedPlane, flip_third_H, same_component, standard_plane
from k3dh.lattice import (
    Lattice, RationalVector, direct_sum, make_H, make_K3, k3_e, k3_f, norm, pairing, rescale,
)
from k3dh.period import (
    PeriodPoint,
    is_in_k_omega,
    is_in_ktilde_omega,
    is_in_omega,
    project_to_alpha_perp,
)
from k3dh.shortvec import is_in_k_omega_generic, is_in_ktilde_omega_generic

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
    # the boundary again, on re = 3 e0 + f0/3 and im = e1/2 + 2 f1 (norm 2,
    # denominators 3 and 2) and kappa with a third denominator
    e0, f0, e1, f1 = (
        v.to_rational() for v in (k3_e(K3, 0), k3_f(K3, 0), k3_e(K3, 1), k3_f(K3, 1))
    )
    pt = PeriodPoint(e0.scale(3) + f0.scale(Fraction(1, 3)), e1.scale(Fraction(1, 2)) + f1.scale(2))
    on_line = pt.re.scale(Fraction(2, 7)) + pt.im.scale(Fraction(5, 11))
    assert norm(on_line) * pt.hermitian_norm() == 2 * pt.pairing_square(on_line)
    assert not is_in_ktilde_omega(on_line, pt)
    assert not is_in_ktilde_omega(zero, pt)


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
    monkeypatch.setattr(k3dh.period, "pairing_nums", lambda u, v: 1)
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
    for i in (1, 2):
        mixed = [hyperbolic(K3, j, 1, 1) for j in range(3)]
        mixed[i] = hyperbolic(H3, i, 1, 1)
        with pytest.raises(ValueError, match="different lattices"):
            OrientedPlane(tuple(mixed))
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


def test_oriented_plane_reads_every_term_of_the_third_minor():
    # Gram [[2, 2, 2], [2, 4, 0], [2, 0, 2]]: leading minors 2, 4 and
    # 2 * 8 - 2 * (4 - 0) + 2 * (0 - 8) = -8, so the span is not positive,
    # and the b(bf - ce) term is nonzero, so its sign decides the third minor
    gram = Lattice("minors", IntMatrix([[2, 2, 2], [2, 4, 0], [2, 0, 2]]))
    with pytest.raises(ValueError, match="positive 3-plane"):
        OrientedPlane(tuple(gram.basis_vector(i) for i in range(3)))


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


def test_a_lattice_hashes_its_gram_matrix_once(monkeypatch):
    # standard_plane and flip_third_H are functools.cache'd on their lattice,
    # so every call hashes it; a lattice hashes its Gram matrix on its first
    # hash only and keeps the value
    lattices = [make_K3(), make_K3(), direct_sum("H+H+H", make_H(), make_H(), make_H())]
    hashed = []
    frozen_hash = IntMatrix.__hash__
    monkeypatch.setattr(IntMatrix, "__hash__", lambda m: hashed.append(m) or frozen_hash(m))
    for _ in range(5):
        for lattice in lattices:
            standard_plane(lattice)
            flip_third_H(lattice)
    assert len(hashed) == len(lattices)
    assert all(any(m is lattice.gram for m in hashed) for lattice in lattices)
    monkeypatch.undo()
    for lattice in lattices:
        assert hash(lattice) == hash((lattice.name, lattice.gram))
    assert hash(lattices[0]) == hash(lattices[1])


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


# -- the former Fraction predicates, kept as test-only oracles ----------------


def oracle_is_in_omega(re, im):
    return pairing(re, im) == 0 and norm(re) == norm(im) and norm(re) > 0


def oracle_hermitian_norm(point):
    return Fraction(norm(point.re) + norm(point.im))


def oracle_pairing_square(point, kappa):
    return Fraction(pairing(kappa, point.re) ** 2 + pairing(kappa, point.im) ** 2)


def oracle_is_in_k_omega(kappa, point):
    return (
        norm(kappa) > 0
        and pairing(kappa, point.re) == 0
        and pairing(kappa, point.im) == 0
    )


def oracle_is_in_ktilde_omega(kappa, point):
    return norm(kappa) * oracle_hermitian_norm(point) > 2 * oracle_pairing_square(point, kappa)


small = st.fractions(min_value=-6, max_value=6, max_denominator=12)
nonzero = small.filter(bool)
positive_norms = st.fractions(min_value=Fraction(1, 12), max_value=6, max_denominator=12)
non_positive_norms = st.fractions(min_value=-6, max_value=0, max_denominator=12)


@st.composite
def period_pairs(draw, norms):
    """re = x0 (e0+f0) + y0 (e0-f0), im = x1 (e1+f1) + y1 (e1-f1), with
    x^2 - y^2 = n on both sides (x - y = s, x + y = n/s), then rotated.

    Each side draws its own s, so re and im have different denominators;
    both norms are 2n times a^2 + b^2 of the rotation, and the pair is a
    period exactly when n > 0.
    """
    n = draw(norms)
    sides = []
    for i in (0, 1):
        s = draw(nonzero)
        x, y = (s + n / s) / 2, (n / s - s) / 2
        e, f = k3_e(K3, i).to_rational(), k3_f(K3, i).to_rational()
        sides.append((e + f).scale(x) + (e - f).scale(y))
    re, im = sides
    a, b = draw(small), draw(small)
    if a or b:
        re, im = re.scale(a) + im.scale(b), re.scale(-b) + im.scale(a)
    return re, im


@st.composite
def kappas(draw, re, im):
    kind = draw(st.sampled_from(("random", "tilted", "span", "zero", "orthogonal")))
    if kind == "zero":
        return K3.rational_vector([0] * K3.rank)
    if kind == "span":  # the equality boundary of the tame cone
        return re.scale(draw(small)) + im.scale(draw(small))
    e2, f2 = k3_e(K3, 2).to_rational(), k3_f(K3, 2).to_rational()
    positive = (e2 + f2).scale(draw(st.integers(1, 8))) + (e2 - f2).scale(draw(small) / 8)
    if kind == "orthogonal":
        return positive
    noise = K3.rational_vector(draw(st.lists(small, min_size=K3.rank, max_size=K3.rank)))
    if kind == "random":
        return noise
    return positive + noise.scale(Fraction(1, draw(st.integers(4, 40))))


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_integer_predicates_match_fraction_oracles(data):
    re, im = data.draw(period_pairs(positive_norms))
    assert is_in_omega(re, im) and oracle_is_in_omega(re, im)
    # non-periods: norms <= 0, unequal norms, a shared direction, a tilted
    # imaginary part; (c im, re) is a period again for c = +-1
    c = data.draw(nonzero)
    non_periods = [data.draw(period_pairs(non_positive_norms))]
    non_periods += [(re, im.scale(2)), (re, re), (re, im + re.scale(c)), (im.scale(c), re)]
    for u, v in non_periods:
        assert is_in_omega(u, v) == oracle_is_in_omega(u, v)
    point = PeriodPoint(re, im)
    assert point.hermitian_norm() == oracle_hermitian_norm(point)
    kappa = data.draw(kappas(re, im))
    for k in (kappa, kappa.scale(data.draw(nonzero))):
        assert point.pairing_square(k) == oracle_pairing_square(point, k)
        assert is_in_k_omega(k, point) == oracle_is_in_k_omega(k, point)
        assert is_in_ktilde_omega(k, point) == oracle_is_in_ktilde_omega(k, point)
        lhs = norm(k) * oracle_hermitian_norm(point)
        if lhs == 2 * oracle_pairing_square(point, k):
            assert not is_in_ktilde_omega(k, point)


def test_predicates_reject_a_foreign_lattice():
    pt = standard_point(K3)
    k3_twice = rescale(K3, 2)  # same rank, another form
    for foreign in (H3, k3_twice):
        kappa = hyperbolic(foreign, 2, 1, 1)
        for call in (
            lambda: is_in_omega(pt.re, kappa),
            lambda: is_in_omega(kappa.to_rational(), pt.im),
            lambda: PeriodPoint(pt.re, kappa),
            lambda: pt.pairing_square(kappa),
            lambda: is_in_k_omega(kappa, pt),
            lambda: is_in_ktilde_omega(kappa, pt),
            lambda: is_in_k_omega_generic(kappa, pt),
            lambda: is_in_ktilde_omega_generic(kappa, pt),
            lambda: project_to_alpha_perp(kappa, pt),
        ):
            with pytest.raises(ValueError, match="different lattices"):
                call()


def test_predicates_build_no_fraction(monkeypatch):
    u, v = hyperbolic(K3, 0, 2, 1), hyperbolic(K3, 1, 2, 1)
    re = u.to_rational().scale(Fraction(3, 5)) + v.to_rational().scale(Fraction(4, 7))
    im = u.to_rational().scale(Fraction(-4, 7)) + v.to_rational().scale(Fraction(3, 5))
    kappa = K3.rational_vector([Fraction(i % 5 - 2, i % 4 + 1) for i in range(K3.rank)])
    lattice_kappa = hyperbolic(K3, 2, 3, 1)
    made = []
    new = Fraction.__new__

    def counting_new(cls, *args, **kwargs):
        made.append(args)
        return new(cls, *args, **kwargs)

    monkeypatch.setattr(Fraction, "__new__", counting_new)
    point = PeriodPoint(re, im)
    is_in_omega(re, im)
    for k in (kappa, lattice_kappa):
        is_in_k_omega(k, point)
        is_in_ktilde_omega(k, point)
        project_to_alpha_perp(k, point)
    assert made == []
    # the returned values are the only Fractions: one each
    point.hermitian_norm()
    assert len(made) == 1
    point.pairing_square(kappa)
    assert len(made) == 2
    monkeypatch.undo()
    assert point.hermitian_norm() == oracle_hermitian_norm(point)
    assert point.pairing_square(kappa) == oracle_pairing_square(point, kappa)


def count_pairings(monkeypatch):
    """Record the operands of every pairing_nums call the period module makes."""
    calls = []
    exact = k3dh.period.pairing_nums

    def counted(u, v):
        calls.append((u, v))
        return exact(u, v)

    monkeypatch.setattr(k3dh.period, "pairing_nums", counted)
    return calls


def operand_ids(calls):
    """The pairs of operands as object identities, since equal vectors of
    different identity compare equal."""
    return [(id(u), id(v)) for u, v in calls]


def test_period_point_keeps_its_self_pairings(monkeypatch):
    u, v = hyperbolic(K3, 0, 2, 1), hyperbolic(K3, 1, 2, 1)
    re = u.to_rational().scale(Fraction(3, 5)) + v.to_rational().scale(Fraction(4, 7))
    im = u.to_rational().scale(Fraction(-4, 7)) + v.to_rational().scale(Fraction(3, 5))
    noise = K3.rational_vector([Fraction(i % 5 - 2, i % 4 + 1) for i in range(K3.rank)])
    kappa = hyperbolic(K3, 2, 3, 1) + noise.scale(Fraction(1, 40))  # in the tame cone
    calls = count_pairings(monkeypatch)
    point = PeriodPoint(re, im)
    assert len(calls) == 3  # (R, R), (I, I) and (R, I), once each
    assert (point.re.vv, point.im.vv) == (pairing(re, re) * 35**2, pairing(im, im) * 35**2)
    del calls[:]
    point.hermitian_norm()
    assert calls == []
    project_to_alpha_perp(kappa, point)
    assert len(calls) == 4  # (K, R), (K, I) and the two orthogonality checks
    assert is_in_ktilde_omega(kappa, point)
    # (K, K) and the projection's (V, V): the projection is the one the
    # point kept from the call above, so it makes no pairing, (K, R) and
    # (K, I) are read from it, and its orthogonality was checked there
    assert len(calls) == 4 + 2
    own = {id(point.re), id(point.im)}
    assert not any(id(a) in own and id(b) in own for a, b in calls)
    monkeypatch.undo()
    assert point.hermitian_norm() == oracle_hermitian_norm(point)
    assert point == PeriodPoint(re, im) and "rr" not in repr(point)


def oracle_projection(kappa, point):
    """Test-only oracle: the projection in Fraction coordinates, paired by a
    dense double loop over the Gram rows."""
    def dot(x, y):
        return sum(a * g * b for a, row in zip(x, K3.gram.rows) for g, b in zip(row, y))

    k = [Fraction(c) for c in kappa.coords]
    re, im = point.re.coords, point.im.coords
    a, b = dot(k, re) / dot(re, re), dot(k, im) / dot(im, im)
    return tuple(x - a * y - b * z for x, y, z in zip(k, re, im))


def tame_kappa(shift):
    noise = K3.rational_vector([Fraction((i + shift) % 5 - 2, i % 4 + 1) for i in range(K3.rank)])
    return hyperbolic(K3, 2, 3, 1) + noise.scale(Fraction(1, 40))


def test_projection_memo_keys_on_the_kappa_object():
    p = standard_point(K3)
    q = rotated_point(hyperbolic(K3, 0, 2, 1), hyperbolic(K3, 1, 2, 1), 3, 4)
    kappa, other = tame_kappa(0), tame_kappa(1)
    twin = RationalVector(K3, kappa.nums, kappa.den)  # equal, another object
    assert twin == kappa and twin is not kappa
    cases = [
        (kappa, p), (twin, p),  # an equal kappa that is a distinct object
        (other, p), (kappa, p),  # another kappa on the same point, and back
        (kappa, q), (kappa, p),  # two points that share one kappa
    ]
    for k, point in cases:
        khat = project_to_alpha_perp(k, point)
        assert khat.coords == oracle_projection(k, point)
        assert project_to_alpha_perp(k, point) is khat
        assert is_in_ktilde_omega(k, point) == is_in_k_omega(khat, point)
    assert oracle_projection(kappa, p) != oracle_projection(kappa, q)
    assert oracle_projection(kappa, p) != oracle_projection(other, p)


def oracle_projected_norm(point, kappa):
    return norm(kappa) - 2 * oracle_pairing_square(point, kappa) / oracle_hermitian_norm(point)


def test_projection_memo_is_set_only_after_the_orthogonality_check(monkeypatch):
    # a faulted pairing fails the exit check, and neither the projection nor
    # the faulted (K, R) = (K, I) = 1 is stored: the pairing square and the
    # projected norm read none of them afterwards, nor a memo left by an
    # earlier kappa
    pt, kappa, earlier = standard_point(K3), tame_kappa(0), tame_kappa(1)
    for before in (None, earlier):
        if before is not None:
            project_to_alpha_perp(before, pt)
        memo = pt._projection
        monkeypatch.setattr(k3dh.period, "pairing_nums", lambda u, v: 1)
        with pytest.raises(InvariantError, match="not orthogonal"):
            project_to_alpha_perp(kappa, pt)
        assert pt._projection is memo and (memo is None or memo[0] is earlier)
        monkeypatch.undo()
        assert pt.pairing_square(kappa) == oracle_pairing_square(pt, kappa)
        assert pt.projected_norm(kappa) == oracle_projected_norm(pt, kappa)
    assert project_to_alpha_perp(kappa, pt).coords == oracle_projection(kappa, pt)
    assert pt.pairing_square(kappa) == oracle_pairing_square(pt, kappa)
    assert pt.projected_norm(kappa) == oracle_projected_norm(pt, kappa)


def test_an_equal_kappa_object_is_paired_again(monkeypatch):
    # the stored (K, R) and (K, I) are read only for the memo's kappa object
    pt, kappa = standard_point(K3), tame_kappa(0)
    project_to_alpha_perp(kappa, pt)
    twin = RationalVector(K3, kappa.nums, kappa.den)
    assert twin == kappa and twin is not kappa
    calls = count_pairings(monkeypatch)
    assert pt.pairing_square(kappa) == oracle_pairing_square(pt, kappa)
    assert calls == []
    assert pt.pairing_square(twin) == oracle_pairing_square(pt, kappa)
    assert operand_ids(calls) == operand_ids([(twin, pt.re), (twin, pt.im)])
    del calls[:]
    assert pt.projected_norm(twin) == oracle_projected_norm(pt, kappa)
    assert operand_ids(calls) == operand_ids([(twin, pt.re), (twin, pt.im), (twin, twin)])
    assert pt._projection[0] is kappa


def test_an_equal_projection_object_is_paired_in_full(monkeypatch):
    # only the stored projection object skips the two orthogonality pairings;
    # a copy of it makes all three, and a vector that is not orthogonal to
    # the line, however positive, is outside the cone
    pt, kappa = standard_point(K3), tame_kappa(0)
    khat = project_to_alpha_perp(kappa, pt)
    copy = RationalVector(K3, khat.nums, khat.den)
    tilted = khat + pt.re
    assert copy == khat and copy is not khat and norm(tilted) > 0
    calls = count_pairings(monkeypatch)
    assert is_in_k_omega(khat, pt)
    assert operand_ids(calls) == operand_ids([(khat, khat)])
    del calls[:]
    assert is_in_k_omega(copy, pt)
    assert operand_ids(calls) == operand_ids([(copy, copy), (copy, pt.re), (copy, pt.im)])
    del calls[:]
    assert not is_in_k_omega(tilted, pt)
    assert operand_ids(calls) == operand_ids([(tilted, tilted), (tilted, pt.re)])
    assert not oracle_is_in_k_omega(tilted, pt)


@pytest.mark.parametrize("tame", [True, False])
def test_wrong_projection_still_raises(monkeypatch, tame):
    # the cone re-check runs on every call, also after the point has kept
    # the right projection: a wrong one is caught, whichever side it errs on
    pt = standard_point(K3)
    kappa = tame_kappa(0) if tame else k3_e(K3, 2) - k3_f(K3, 2)
    khat = project_to_alpha_perp(kappa, pt)
    assert is_in_ktilde_omega(kappa, pt) is tame
    # not orthogonal to the line when kappa is tame, in the small cone when not
    wrong = khat + pt.re if tame else hyperbolic(K3, 2, 1, 1).to_rational()
    monkeypatch.setattr(k3dh.period, "project_to_alpha_perp", lambda k, p: wrong)
    with pytest.raises(InvariantError, match="cone membership"):
        is_in_ktilde_omega(kappa, pt)


def test_one_period_record_pairs_each_vector_once(monkeypatch):
    # the op sequence of the period-sampling benchmark on one record: one
    # projection is built, and each self-pairing is computed once
    u, v = hyperbolic(K3, 0, 2, 1), hyperbolic(K3, 1, 2, 1)
    re_coords = [Fraction(3, 5) * a + Fraction(4, 7) * b for a, b in zip(u.coords, v.coords)]
    im_coords = [Fraction(-4, 7) * a + Fraction(3, 5) * b for a, b in zip(u.coords, v.coords)]
    kappa_coords = tame_kappa(0).coords
    built, self_paired = [], []
    check = RationalVector.__post_init__
    compute = k3dh.lattice._self_pairing

    def counted_check(vector):
        built.append(vector)
        check(vector)

    def counted_compute(vector):
        self_paired.append(vector)
        return compute(vector)

    monkeypatch.setattr(RationalVector, "__post_init__", counted_check)
    monkeypatch.setattr(k3dh.lattice, "_self_pairing", counted_compute)
    paired = count_pairings(monkeypatch)
    kappa = K3.rational_vector(kappa_coords)
    point = PeriodPoint(K3.rational_vector(re_coords), K3.rational_vector(im_coords))
    khat = project_to_alpha_perp(kappa, point)
    lhs = norm(khat)
    rhs = norm(kappa) - 2 * point.pairing_square(kappa) / point.hermitian_norm()
    tame = is_in_ktilde_omega(kappa, point)
    cone = is_in_k_omega(khat, point)
    assert len(built) == 1 and built[0] is khat
    assert [id(w) for w in self_paired] == [id(point.re), id(point.im), id(khat), id(kappa)]
    # every pairing the period module makes on the record: the point's three,
    # the projection's (K, R), (K, I) and its two orthogonality checks, then
    # only self-pairings, which read the cached vv: the pairing square and
    # the tame-cone test read (K, R) and (K, I) from the projection, and the
    # positive-cone tests on it read that it is orthogonal to the line
    re, im = point.re, point.im
    expected = [(re, re), (im, im), (re, im), (kappa, re), (kappa, im), (khat, re), (khat, im),
                (kappa, kappa), (khat, khat), (khat, khat)]
    assert operand_ids(paired) == operand_ids(expected)
    monkeypatch.undo()
    assert khat.coords == oracle_projection(kappa, point)
    assert lhs == rhs and tame and cone


def oracle_is_positive_plane(basis):
    """Test-only oracle: the former Sylvester check, leading minors of the
    Fraction Gram matrix by rat_det."""
    g = [[Fraction(pairing(u, v)) for v in basis] for u in basis]
    return all(rat_det([row[:k] for row in g[:k]]) > 0 for k in (1, 2, 3))


def is_positive_plane(basis):
    try:
        OrientedPlane(basis)
    except ValueError as exc:
        assert "positive 3-plane" in str(exc)
        return False
    return True


ratios = st.builds(Fraction, st.integers(-6, 6), st.integers(1, 12))


@st.composite
def triples(draw):
    """Three rational vectors of K3 with denominators 1-12: near the diagonal
    positive 3-plane, on random hyperbolic and E8 coordinates, negative
    (anti-diagonals and E8 roots), of rank 2, or led by an isotropic vector."""
    kind = draw(st.sampled_from(("positive", "random", "negative", "rank2", "isotropic")))

    def vec(support):
        coords = [Fraction(0)] * K3.rank
        for i in support:
            coords[i] = draw(ratios)
        return coords

    def add(x, y, c=1):
        return [a + c * b for a, b in zip(x, y)]

    rows = [vec((0, 1, 2, 3, 4, 5, 6)) for _ in range(3)]
    if kind == "positive":
        for i, row in enumerate(rows):
            diag = [Fraction(0)] * K3.rank
            diag[2 * i] = diag[2 * i + 1] = Fraction(draw(st.integers(1, 12)), draw(st.integers(1, 12)))
            rows[i] = add(diag, row, Fraction(1, 24))
    elif kind == "negative":
        for i, row in enumerate(rows):
            anti = [Fraction(0)] * K3.rank
            anti[2 * i], anti[2 * i + 1] = Fraction(1, i + 1), Fraction(-1, i + 1)
            rows[i] = add(anti, vec((6 + i, 14 + i)))
    elif kind == "rank2":
        rows[2] = add(rows[0], rows[1], draw(ratios))
    elif kind == "isotropic":
        rows[0] = vec((0,))
    return tuple(K3.rational_vector(row) for row in rows)


def plane(*rows):
    return tuple(K3.rational_vector(row + [0] * (K3.rank - len(row))) for row in rows)


half, third = Fraction(1, 2), Fraction(1, 3)


@settings(max_examples=200, deadline=None)
@given(triples())
@example(plane([1, 1], [0, 0, 1, 1], [0, 0, 0, 0, 1, 1]))  # positive
@example(plane([half, half], [third, third, 1, 1], [0, 0, 0, 0, 2, 2]))  # positive, shared support
@example(plane([1, 1], [0, 0, 1, 1], [0, 0, 0, 0, 1, -1]))  # indefinite: third minor < 0
@example(plane([1, -1], [0, 0, 1, -1], [0, 0, 0, 0, 1, -1]))  # negative
@example(plane([1, 1], [0, 0, 1, 1], [1, 1, third, third]))  # rank 2: third minor 0
@example(plane([1, 1], [half, half], [0, 0, 0, 0, 1, 1]))  # second minor 0
@example(plane([1], [0, 0, 1, 1], [0, 0, 0, 0, 1, 1]))  # isotropic: first minor 0
@example(plane([1, 1], [1, 0], [0, 0, 1, -1]))  # second minor < 0, third > 0
def test_integer_sylvester_matches_rat_det_oracle(basis):
    assert is_positive_plane(basis) == oracle_is_positive_plane(basis)
