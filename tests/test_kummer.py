from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from k3dh import kummer
from k3dh.exact_linalg import IntMatrix, det
from k3dh.lattice import Lattice, make_K3
from k3dh.lattice import pairing as lattice_pairing
from k3dh.kummer import (
    EXCEPTIONAL_LATTICE,
    KUMMER_LATTICE,
    NUM_EXCEPTIONAL,
    NUM_TORUS,
    TORUS_BASIS,
    TORUS_LATTICE,
    area_sum_form,
    eta_hat,
    exceptional,
    from_terms,
    kappa_hat,
    pairing,
    primitive_pair_check,
    pullback,
    sigma_class,
    symplectic_family_form,
    volume_real_form,
    wedge_integrate,
)

HALF = Fraction(1, 2)


def real_terms(a, b, c, d, e, f) -> dict:
    """Terms of the general real invariant 2-form from six rational parameters."""
    return {
        (0, 1): (0, a),
        (2, 3): (0, b),
        (0, 2): (c, d),
        (1, 3): (c, -d),
        (0, 3): (e, f),
        (1, 2): (e, -f),
    }


def real_form(*params):
    return from_terms(real_terms(*params))


six_ints = st.tuples(*[st.integers(-5, 5)] * 6)


def test_torus_basis_gram():
    # the module-load assertion re-stated where the suite can see it
    assert TORUS_LATTICE.rank == 6
    assert TORUS_LATTICE.is_even()
    assert TORUS_LATTICE.is_unimodular()
    assert TORUS_LATTICE.signature() == (3, 3)


def test_reference_integrals():
    vol, area = volume_real_form(), area_sum_form()
    assert wedge_integrate(vol, vol) == 8
    assert wedge_integrate(area, area) == 8
    assert wedge_integrate(vol, area) == 0
    for t in (0, 1, -2, Fraction(3, 7)):
        for sign in (1, -1):
            omega = symplectic_family_form(sign, t)
            assert wedge_integrate(omega, omega) == 8 + 8 * Fraction(t) ** 2


def test_realness_and_conjugation():
    # a form plus its conjugate is real: the conjugate of c dz1 dz2 is
    # conj(c) dz1bar dz2bar
    vol = volume_real_form()
    assert vol == from_terms({(0, 2): 1, (1, 3): 1})
    assert from_terms({(0, 2): (0, 1), (1, 3): (0, -1)}).coords == (0, 0, 0, -2, -2, 0)
    assert from_terms({(0, 2): (3, 5), (1, 3): (3, -5)}) == (
        vol.scale(3) + from_terms({(0, 2): (0, 1), (1, 3): (0, -1)}).scale(5))
    # reversed slot order folds in with a sign
    assert from_terms({(2, 0): -1, (3, 1): -1}) == vol
    assert from_terms({(1, 0): (0, -1), (3, 2): (0, -1)}) == area_sum_form()
    with pytest.raises(ValueError):
        from_terms({(1, 1): 1})
    with pytest.raises(ValueError, match="not a wedge monomial"):
        from_terms({(0, 4): 1})
    # a slot is exactly an int: 1.0 is not taken as slot 1, and 0.5 is
    # refused by the integer rule rather than by a failed table lookup
    for bad in (1.0, 0.5, True, "1"):
        with pytest.raises(TypeError, match="integer slot expected"):
            from_terms({(bad, 2): 1})


def test_non_real_integral_rejected():
    # a form that is not real has no torus class, so it is refused where it
    # is built: dz1 dz2 alone, its conjugate alone, i times the volume form,
    # dz1 dz1bar = -2i dx1 dy1, and dz1 dz2 with a non-conjugate partner
    for terms in ({(0, 2): 1}, {(1, 3): 1}, {(0, 2): (0, 1), (1, 3): (0, 1)},
                  {(0, 1): 1}, {(0, 2): 1, (1, 3): (1, Fraction(1, 7))}):
        with pytest.raises(ValueError, match="form is not real"):
            from_terms(terms)


def test_torus_class_examples():
    vol, area = volume_real_form(), area_sum_form()
    assert vol.coords == (0, 0, 2, 0, 0, -2)
    assert area.coords == (2, 2, 0, 0, 0, 0)
    half_sum = (vol + area).scale(HALF)
    assert half_sum.coords == (1, 1, 1, 0, 0, -1)
    assert half_sum.is_primitive()
    assert not vol.is_primitive()  # gcd 2
    assert vol.scale(HALF).is_primitive()
    assert from_terms({}).coords == (0,) * 6
    assert not TORUS_LATTICE.rational_vector((0,) * 6).is_primitive()


@settings(max_examples=60, deadline=None)
@given(six_ints, six_ints, st.integers(-3, 3), st.integers(-3, 3))
def test_integration_matches_torus_pairing(u, v, r, s):
    """Two routes to the same number: the former complex wedge expansion vs
    the torus Gram pairing of the classes."""
    a, b = real_form(*u), real_form(*v)
    assert wedge_integrate(a, b) == wedge_integrate(b, a)
    combo = a.scale(r) + b.scale(s)
    assert wedge_integrate(combo, combo) == (
        r * r * wedge_integrate(a, a)
        + 2 * r * s * wedge_integrate(a, b)
        + s * s * wedge_integrate(b, b)
    )
    expected = former_wedge(former_from_terms(real_terms(*u)), former_from_terms(real_terms(*v)))
    assert wedge_integrate(a, b) == expected == lattice_pairing(a, b)
    assert pairing(pullback(a), pullback(b)) == lattice_pairing(a, b) / 2


@settings(max_examples=40, deadline=None)
@given(six_ints, six_ints)
def test_differences_of_forms_and_classes(u, v):
    a, b = real_form(*u), real_form(*v)
    assert (a - b) + b == a and -(-a) == a
    zero = from_terms({})
    assert a - a == zero and (a - b == zero) == (u == v)
    assert (a == zero) == (u == (0,) * 6)
    # from_terms is linear in the coefficients
    assert a - b == real_form(*(x - y for x, y in zip(u, v)))
    assert lattice_pairing(a - b, a - b) == wedge_integrate(a - b, a - b)


def test_shapes_are_validated():
    # the wedge integral takes two RationalVectors of the torus lattice
    zero_torus = TORUS_LATTICE.rational_vector((0,) * 6)
    zero_exc = EXCEPTIONAL_LATTICE.rational_vector((0,) * NUM_EXCEPTIONAL)
    for other in (zero_exc, ((1, 0),) * 6, TORUS_LATTICE.vector((0,) * 6), exceptional(0)):
        for a, b in ((other, zero_torus), (zero_torus, other)):
            with pytest.raises(ValueError, match="torus lattice"):
                wedge_integrate(a, b)
    with pytest.raises(ValueError, match="rank"):
        TORUS_LATTICE.rational_vector((1,) * 7)
    with pytest.raises(ValueError, match="rank"):
        EXCEPTIONAL_LATTICE.rational_vector((0,) * 15)
    with pytest.raises(ValueError, match="rank"):
        KUMMER_LATTICE.rational_vector((0,) * 21)
    # a pullback takes a RationalVector of the torus lattice, and the blowup
    # pairing two RationalVectors of the kummer lattice
    for y in (zero_exc, TORUS_LATTICE.vector((0,) * 6), (0,) * 6):
        with pytest.raises(ValueError, match="torus lattice"):
            pullback(y)
    for other in (zero_torus, zero_exc, make_K3().rational_vector((0,) * 22),
                  KUMMER_LATTICE.basis_vector(0), (0,) * 22):
        for a, b in ((other, exceptional(0)), (exceptional(0), other)):
            with pytest.raises(ValueError, match="kummer lattice"):
                pairing(a, b)


def test_intersection_table():
    k, ep, em = kappa_hat(), eta_hat(1), eta_hat(-1)
    assert pairing(k, k) == -4
    assert pairing(ep, ep) == -4
    assert pairing(em, em) == -4
    assert pairing(ep, k) == -8
    assert pairing(em, k) == 8
    for i in range(NUM_EXCEPTIONAL):
        assert pairing(exceptional(i), k) == -1
        assert pairing(exceptional(i), ep) == -1
        assert pairing(exceptional(i), em) == 1
        assert pairing(pullback(volume_real_form()), exceptional(i)) == 0
        for j in range(NUM_EXCEPTIONAL):
            assert pairing(exceptional(i), exceptional(j)) == (-2 if i == j else 0)


def test_sigma_polynomials():
    k = kappa_hat()
    for sign, c1 in ((1, 16), (-1, -16)):
        e = eta_hat(sign)
        # exact polynomial coefficients of pairing(k - t e, k - t e)
        assert pairing(k, k) == -4
        assert -2 * pairing(k, e) == c1
        assert pairing(e, e) == -4
        for t in (0, 1, -1, HALF, Fraction(-7, 3)):
            s = sigma_class(sign, t)
            t = Fraction(t)
            assert pairing(s, s) == -4 + c1 * t - 4 * t * t
            # half the torus integral of the form family, shifted by the spheres
            omega = symplectic_family_form(sign, t)
            assert wedge_integrate(omega, omega) / 2 == 4 + 4 * t * t


def test_sigma_class_at_the_wall():
    s = sigma_class(1, 1)
    assert not any(s.nums[NUM_TORUS:])
    assert s == pullback(symplectic_family_form(1, 1))
    assert pairing(s, s) == 8
    m = sigma_class(-1, -1)
    assert not any(m.nums[NUM_TORUS:])
    assert pairing(m, m) == 8


def test_sign_validation():
    with pytest.raises(ValueError):
        eta_hat(0)
    with pytest.raises(ValueError):
        sigma_class(2, 1)
    with pytest.raises(ValueError):
        symplectic_family_form(-2, 1)
    with pytest.raises(ValueError):
        exceptional(NUM_EXCEPTIONAL)
    # a sign or sphere index that is not exactly an int is refused with the
    # TypeError of exact_linalg.int_tuple, not taken as the int it equals
    for bad in (True, 1.0, Fraction(1), "1"):
        for make in (lambda: exceptional(bad), lambda: eta_hat(bad),
                     lambda: sigma_class(bad, 1), lambda: symplectic_family_form(bad, 1)):
            with pytest.raises(TypeError, match="integer (sign|sphere index) expected"):
                make()


def test_primitive_pair_check():
    y = (volume_real_form() + area_sum_form()).scale(HALF)
    assert primitive_pair_check(y, eta_hat(1))
    assert primitive_pair_check(y, eta_hat(-1))
    # gcd 2, not primitive
    assert not primitive_pair_check(volume_real_form(), eta_hat(1))
    # non-integral candidate
    half = TORUS_LATTICE.rational_vector((HALF, 0, 0, 0, 0, 0))
    assert not primitive_pair_check(half, eta_hat(1))
    # no exceptional sphere pairs to a unit
    assert not primitive_pair_check(y, pullback(y))
    assert not primitive_pair_check(y, kappa_hat() - eta_hat(1))


def test_rank_bookkeeping_signature():
    """Torus part plus sixteen spheres: rank 22, signature (3,19).

    The full pairing is half-integral, so the assertion runs on the doubled
    Gram matrix, which has the same signature.
    """
    basis = [pullback(TORUS_LATTICE.rational_vector(int(i == k) for i in range(6)))
             for k in range(6)]
    basis += [exceptional(i) for i in range(NUM_EXCEPTIONAL)]
    doubled = IntMatrix(
        [[int(2 * pairing(x, y)) for y in basis] for x in basis]
    )
    blowup = Lattice("doubled blowup pairing", doubled)
    assert blowup.rank == 22
    assert blowup.is_even()
    assert blowup.signature() == (3, 19)


def test_kummer_lattice_invariants():
    """pi_* H^2(T, Z) + <E_1, ..., E_16>: even, rank 22, signature (3, 19),
    |det| = 2^22, so of index 2^11 in the unimodular H^2(Km A, Z)."""
    assert KUMMER_LATTICE.rank == NUM_TORUS + NUM_EXCEPTIONAL == 22
    assert KUMMER_LATTICE.is_even()
    assert KUMMER_LATTICE.signature() == (3, 19)
    assert abs(det(KUMMER_LATTICE.gram)) == 2 ** 22
    assert not KUMMER_LATTICE.is_unimodular()


@settings(max_examples=40, deadline=None)
@given(six_ints)
def test_pushforward_of_an_integral_torus_class(x):
    # the lattice vector with torus coordinates x is the class with pullback
    # 2x, and pairs with itself at 2 x^T T x; the class with pullback x at half
    # of x^T T x
    y = TORUS_LATTICE.vector(x)
    v = KUMMER_LATTICE.vector((*x, *(0,) * NUM_EXCEPTIONAL))
    assert v.to_rational() == pullback(y.to_rational().scale(2))
    assert lattice_pairing(v, v) == 2 * lattice_pairing(y, y)
    assert pairing(pullback(y.to_rational()), pullback(y.to_rational())) == Fraction(
        lattice_pairing(y, y), 2)


# -- the former Fraction formula as oracle ------------------------------------

FRAC = st.builds(Fraction, st.integers(-9, 9), st.integers(1, 6))
kummer_coords = st.tuples(
    st.lists(FRAC, min_size=6, max_size=6),
    st.lists(FRAC, min_size=NUM_EXCEPTIONAL, max_size=NUM_EXCEPTIONAL),
)


def kummer_class(coords):
    """The blowup class of the former coordinates: the Fractions of its
    torus pullback y, then of its sphere coefficients; the lattice holds
    y / 2."""
    torus, exc = coords
    return KUMMER_LATTICE.rational_vector([Fraction(y) / 2 for y in torus] + list(exc))


def former_pairing(a, b) -> Fraction:
    """Half the torus Gram pairing of the Fraction coordinates, minus twice
    the dot product of the exceptional coefficients."""
    (ta, ea), (tb, eb) = a, b
    gram = TORUS_LATTICE.gram
    torus = sum(
        (ta[i] * gram[i, j] * tb[j] for i in range(6) for j in range(6)), start=Fraction(0)
    )
    exc = sum((x * y for x, y in zip(ea, eb)), start=Fraction(0))
    return torus / 2 - 2 * exc


@settings(max_examples=60, deadline=None)
@given(kummer_coords, kummer_coords, FRAC)
def test_pairing_matches_the_former_fraction_formula(u, v, c):
    a, b = kummer_class(u), kummer_class(v)
    result = pairing(a, b)
    assert type(result) is Fraction and result == former_pairing(u, v)
    # the arithmetic acts coordinate by coordinate, in the former coordinates too
    assert a + b == kummer_class(tuple([x + y for x, y in zip(p, q)] for p, q in zip(u, v)))
    assert a - b == kummer_class(tuple([x - y for x, y in zip(p, q)] for p, q in zip(u, v)))
    assert -a == kummer_class(tuple([-x for x in p] for p in u))
    assert a.scale(c) == kummer_class(tuple([c * x for x in p] for p in u))


@settings(max_examples=60, deadline=None)
@given(st.lists(FRAC, min_size=6, max_size=6))
def test_pullback_of_a_rational_torus_class(y):
    # the blowup class with torus pullback y holds y / 2, over twice the
    # denominator of y; integral classes alone cannot tell 2 * den from
    # 2 // den
    zero = [Fraction(0)] * NUM_EXCEPTIONAL
    for v in (area_sum_form().scale(Fraction(1, 4)), TORUS_LATTICE.rational_vector(y)):
        assert pullback(v) == kummer_class((list(v.coords), zero))
        assert pairing(pullback(v), pullback(v)) == former_pairing(
            (v.coords, zero), (v.coords, zero)) == lattice_pairing(v, v) / 2
    quarter = pullback(area_sum_form().scale(Fraction(1, 4)))
    assert (quarter.nums, quarter.den) == ((1, 1, 0, 0, 0, 0, *zero), 4)


# -- the former complex-Fraction forms as oracle ------------------------------
# A form was six (re, im) pairs of Fractions, one per monomial in dz1, dz1bar,
# dz2, dz2bar, with its own complex arithmetic; these are its operations,
# kept verbatim in substance.

MONOMIALS = ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3))


def _c(re, im=0):
    return (Fraction(re), Fraction(im))


_C0 = _c(0)


def _cadd(a, b):
    return (a[0] + b[0], a[1] + b[1])


def _cmul(a, b):
    return (a[0] * b[0] - a[1] * b[1], a[0] * b[1] + a[1] * b[0])


def _perm_sign(p):
    inv = sum(1 for i in range(len(p)) for j in range(i + 1, len(p)) if p[i] > p[j])
    return -1 if inv % 2 else 1


def _fold(i, j, basis):
    return (basis.index((i, j)), 1) if i < j else (basis.index((j, i)), -1)


def former_from_terms(terms):
    acc = [_C0] * 6
    for (i, j), val in terms.items():
        k, sign = _fold(i, j, MONOMIALS)
        c = _c(*val) if isinstance(val, tuple) else _c(val)
        acc[k] = _cadd(acc[k], (sign * c[0], sign * c[1]))
    return tuple(acc)


def former_add(a, b):
    return tuple(_cadd(x, y) for x, y in zip(a, b))


def former_scale(a, re, im=0):
    return tuple(_cmul(_c(re, im), x) for x in a)


def former_conjugate(a):
    acc = [_C0] * 6
    for (i, j), (re, im) in zip(MONOMIALS, a):
        kk, sign = _fold((1, 0, 3, 2)[i], (1, 0, 3, 2)[j], MONOMIALS)
        acc[kk] = _cadd(acc[kk], (sign * re, -sign * im))
    return tuple(acc)


def former_wedge(a, b):
    top = _C0
    for (i1, j1), c1 in zip(MONOMIALS, a):
        for (i2, j2), c2 in zip(MONOMIALS, b):
            if len({i1, j1, i2, j2}) == 4:
                s = _perm_sign((i1, j1, i2, j2))
                prod = _cmul(c1, c2)
                top = _cadd(top, (s * prod[0], s * prod[1]))
    if top[1] != 0:
        raise ValueError("wedge integral is not real")
    return -4 * top[0]


_FORMER_DZ = (
    {0: _c(1), 1: _c(0, 1)},
    {0: _c(1), 1: _c(0, -1)},
    {2: _c(1), 3: _c(0, 1)},
    {2: _c(1), 3: _c(0, -1)},
)


def as_pairs(a):
    """A former form in the real torus basis, as six (re, im) pairs."""
    out = [_C0] * 6
    for (i, j), c in zip(MONOMIALS, a):
        for ri, ci in _FORMER_DZ[i].items():
            for rj, cj in _FORMER_DZ[j].items():
                if ri != rj:
                    kk, sign = _fold(ri, rj, TORUS_BASIS)
                    e = _cmul(ci, cj)
                    out[kk] = _cadd(out[kk], _cmul(c, (sign * e[0], sign * e[1])))
    return tuple(out)


def former_torus_class(a):
    if a != former_conjugate(a):
        raise ValueError("form is not real")
    out = as_pairs(a)
    assert all(im == 0 for _, im in out)
    return tuple(re for re, _ in out)


def former_real_part(terms):
    """The real part of the former form of the terms in the real basis, or
    None when its imaginary part is nonzero."""
    pairs = as_pairs(former_from_terms(terms))
    if any(im for _, im in pairs):
        return None
    return tuple(re for re, _ in pairs)


def assert_from_terms_matches_the_former_form(terms):
    expected = former_real_part(terms)
    if expected is None:
        with pytest.raises(ValueError, match="form is not real"):
            from_terms(terms)
    else:
        assert from_terms(terms).coords == expected


SLOT_PAIRS = [(i, j) for i in range(4) for j in range(4) if i != j]
complex_terms = st.dictionaries(
    st.sampled_from(SLOT_PAIRS), st.one_of(FRAC, st.tuples(FRAC, FRAC)), max_size=6
)


def real_part_terms(former) -> dict:
    """Terms of a + conj(a) for a former form a: real by construction."""
    return dict(zip(MONOMIALS, former_add(former, former_conjugate(former))))


@settings(max_examples=150, deadline=None)
@given(complex_terms, complex_terms, FRAC)
def test_forms_match_the_former_complex_fractions(ta, tb, x):
    # a form is real exactly when the former form equals its conjugate, and
    # from_terms raises exactly when the former imaginary part is nonzero
    fa, fb = former_from_terms(ta), former_from_terms(tb)
    assert (former_real_part(ta) is not None) == (fa == former_conjugate(fa))
    assert_from_terms_matches_the_former_form(ta)
    # a + conj(a) is real, and the arithmetic and the integral of the
    # classes are those of the former forms
    ra, rb = real_part_terms(fa), real_part_terms(fb)
    a, b = from_terms(ra), from_terms(rb)
    ga, gb = former_from_terms(ra), former_from_terms(rb)
    assert a.coords == former_torus_class(ga) == former_real_part(ra)
    assert (a + b).coords == former_torus_class(former_add(ga, gb))
    assert (a - b).coords == former_torus_class(former_add(ga, former_scale(gb, -1)))
    assert (-a).coords == former_torus_class(former_scale(ga, -1))
    assert a.scale(x).coords == former_torus_class(former_scale(ga, x))
    assert wedge_integrate(a, b) == former_wedge(ga, gb)


# -- exact reading of every value type, and the builders on integers ----------

DECIMAL_STRINGS = st.sampled_from(("0.25", "-1.5", "3", " 2/7 ", "1e-3", "-0.125"))
FLOATS = st.floats(-8, 8, allow_nan=False, allow_infinity=False, width=64)
ANY_VALUE = st.one_of(
    st.integers(-9, 9), FRAC, FLOATS, st.booleans(), FRAC.map(str), DECIMAL_STRINGS
)
any_terms = st.dictionaries(
    st.sampled_from(SLOT_PAIRS), st.one_of(ANY_VALUE, st.tuples(ANY_VALUE, ANY_VALUE)),
    max_size=8,
)
# one value v in each of these term sets gives a real form: v times the
# volume form, i v dz1 dz1bar, i v dz2 dz2bar, v (dz1 dz2bar + dz1bar dz2),
# and the first two again in reversed slot order; their slots are disjoint
REAL_TEMPLATES = (
    lambda v: {(0, 2): v, (1, 3): v},
    lambda v: {(0, 1): (0, v)},
    lambda v: {(2, 3): (0, v)},
    lambda v: {(0, 3): v, (1, 2): v},
    lambda v: {(2, 0): v, (3, 1): v},
    lambda v: {(1, 0): (0, v)},
)
real_any_terms = st.tuples(*[st.one_of(st.none(), ANY_VALUE)] * len(REAL_TEMPLATES)).map(
    lambda values: {k: w for make, v in zip(REAL_TEMPLATES, values) if v is not None
                    for k, w in make(v).items()}
)


@settings(max_examples=150, deadline=None)
@given(any_terms, real_any_terms)
def test_from_terms_reads_every_value_type_exactly(terms, real):
    # floats, strings, bools and Fractions, alone or as (re, im), give the
    # real part of the former complex-Fraction builder's form, or raise
    # when its imaginary part is nonzero
    assert_from_terms_matches_the_former_form(terms)
    assert former_real_part(real) is not None
    assert_from_terms_matches_the_former_form(real)


def test_from_terms_never_sums_floats():
    # 0.1 + 0.2 rounds as a float sum; (0, 1) and (1, 0) fold onto one
    # monomial, so the exact sum of the two binary values must come out:
    # i exact dz1 dz1bar = i exact (-2i) dx1 dy1, and i True dz2 dz2bar is
    # 2 dx2 dy2
    terms = {(0, 1): (0, 0.1), (1, 0): (0, -0.2), (2, 3): (0, True)}
    form = from_terms(terms)
    exact = Fraction(0.1) + Fraction(0.2)
    assert exact != Fraction(0.1 + 0.2)
    assert form.coords[:2] == (2 * exact, 2)
    assert form.coords == former_real_part(terms)
    assert all(type(c) is int for c in (*form.nums, form.den))


def test_kummer_builders_match_the_former_fraction_built_classes():
    # the former coordinates of each class: its torus pullback and its
    # sphere coefficients, as Fractions
    zero = [Fraction(0)] * 6
    built = {f"E{i}": exceptional(i) for i in range(NUM_EXCEPTIONAL)}
    former = {
        f"E{i}": (zero, [Fraction(int(j == i)) for j in range(NUM_EXCEPTIONAL)])
        for i in range(NUM_EXCEPTIONAL)
    }
    vol = former_torus_class(former_from_terms({(0, 2): 1, (1, 3): 1}))
    area = former_torus_class(former_from_terms({(0, 1): (0, 1), (2, 3): (0, 1)}))
    built["kappa"] = kappa_hat()
    former["kappa"] = (vol, [HALF] * NUM_EXCEPTIONAL)
    for sign in (1, -1):
        built[f"eta{sign}"] = eta_hat(sign)
        former[f"eta{sign}"] = ([-x for x in area], [sign * HALF] * NUM_EXCEPTIONAL)
    for name, c in built.items():
        f = kummer_class(former[name])
        assert c == f, name
        assert c.lattice is f.lattice is KUMMER_LATTICE
        assert (c.nums, c.den) == (f.nums, f.den)
        assert all(type(x) is int for x in (*c.nums, c.den))
    # every pairing of the builders, self-pairings included, is the former one
    for a in ("kappa", "eta1", "eta-1", "E0", "E15"):
        for b in ("kappa", "eta1", "eta-1", "E0", "E15"):
            assert pairing(built[a], built[b]) == former_pairing(former[a], former[b])


def test_hat_torus_classes_are_built_once(monkeypatch):
    # kappa_hat and eta_hat read two torus classes built at import, equal to
    # a fresh build; each call still pulls back into a fresh vector, so no
    # cached Gram image or self-pairing is shared between calls
    assert kummer._VOLUME_CLASS == volume_real_form()
    assert kummer._AREA_CLASS == area_sum_form()
    expected = {"kappa": kappa_hat(), 1: eta_hat(1), -1: eta_hat(-1)}
    for name in ("from_terms", "volume_real_form", "area_sum_form"):
        monkeypatch.setattr(kummer, name, None)
    for key, build in (("kappa", kappa_hat), (1, lambda: eta_hat(1)), (-1, lambda: eta_hat(-1))):
        first, second = build(), build()
        assert first == second == expected[key] and first is not second
        pairing(first, first)
        assert "vv" in first.__dict__ and "vv" not in second.__dict__


def test_wedge_integrate_on_mixed_denominators():
    # (x + iy) dz1 dz2 + (x - iy) dz1bar dz2bar against the same with
    # (u + iv): each is real, with denominators 6 and 10, and the integral
    # is the former one, 8 (x u + y v), since dz1 dz2 dz1bar dz2bar and
    # dz1bar dz2bar dz1 dz2 are each minus dz1 dz1bar dz2 dz2bar, which is
    # -4 times the top monomial
    x, y, u, v = Fraction(1, 3), Fraction(1, 4), Fraction(3, 5), Fraction(-9, 20)
    ta, tb = {(0, 2): (x, y), (1, 3): (x, -y)}, {(0, 2): (u, v), (1, 3): (u, -v)}
    a, b = from_terms(ta), from_terms(tb)
    assert (a.den, b.den) == (6, 10)
    result = wedge_integrate(a, b)
    assert result == former_wedge(former_from_terms(ta), former_from_terms(tb)) == 8 * (x * u + y * v)
    assert type(result) is Fraction and result == Fraction(7, 10)
    # one half alone is not real, and is refused where it is built
    with pytest.raises(ValueError, match="form is not real"):
        from_terms({(1, 3): (u, v)})
