import random
import sys
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from k3dh import sublattice
from k3dh.exact_linalg import IntMatrix, InvariantError, elementary_divisors
from k3dh.lattice import Lattice, make_H, make_K3, k3_e, k3_f, norm, pairing
from k3dh.sublattice import (
    Sublattice,
    integral_primitive,
    is_primitive_embedding,
    orthogonal_complement,
)
from oracles import sparse_row_lift

K3 = make_K3()
H = make_H()


def test_primitive_vector_examples():
    e1, f1 = k3_e(K3, 0), k3_f(K3, 0)
    assert gcd(*(e1 + 3 * f1).coords) == 1
    assert gcd(*(2 * e1).coords) == 2
    assert is_primitive_embedding([e1 + 3 * f1])
    assert not is_primitive_embedding([2 * e1])
    assert is_primitive_embedding([])


def test_standard_pair_family_is_primitive():
    rng = random.Random(3)
    e1, f1 = k3_e(K3, 0), k3_f(K3, 0)
    e2, f2 = k3_e(K3, 1), k3_f(K3, 1)
    for _ in range(50):
        l0, l1, l2 = (rng.randint(-9, 9) for _ in range(3))
        kappa = e1 + l0 * f1
        eta = -l1 * f1 + e2 + l2 * f2
        assert is_primitive_embedding([kappa, eta])


def test_dependent_input_rejected():
    e1 = k3_e(K3, 0)
    with pytest.raises(ValueError):
        is_primitive_embedding([e1, 2 * e1])
    with pytest.raises(ValueError, match="ambient"):
        Sublattice(K3, (e1, H.basis_vector(0)))
    with pytest.raises(ValueError, match="ambient"):
        is_primitive_embedding([e1, H.basis_vector(0)])


def test_complement_of_e1_in_h():
    comp = orthogonal_complement(H, [H.basis_vector(0)])
    assert comp.rank == 1
    assert tuple(map(abs, comp.basis[0].coords)) == (1, 0)
    assert comp.restricted_gram.rows == ((0,),)
    with pytest.raises(ValueError, match="ambient"):
        orthogonal_complement(H, [K3.basis_vector(0)])


def test_complement_of_empty_set_is_everything():
    for vectors in ([], [K3.vector([0] * 22), K3.rational_vector([0] * 22)]):
        comp = orthogonal_complement(K3, vectors)
        assert comp.rank == 22
        assert is_primitive_embedding(comp.basis)


def test_complement_of_positive_three_plane():
    plane = [k3_e(K3, i) + k3_f(K3, i) for i in range(3)]
    comp = orthogonal_complement(K3, plane)
    assert comp.rank == 19
    assert is_primitive_embedding(comp.basis)
    lat = Lattice("comp", comp.restricted_gram)
    assert lat.signature() == (0, 19)
    # e_i - f_i and both E8 blocks produce vectors of self-pairing -2 inside
    for i in range(3):
        d = k3_e(K3, i) - k3_f(K3, i)
        assert all(pairing(d, p) == 0 for p in plane)
        assert norm(d) == -2
    for idx in (6, 14):
        b = K3.basis_vector(idx)
        assert all(pairing(b, p) == 0 for p in plane)
        assert norm(b) == -2


def test_complement_orthogonality_random():
    rng = random.Random(10)
    for _ in range(30):
        k = rng.randint(1, 3)
        vecs = [
            K3.vector([rng.randint(-3, 3) for _ in range(22)]) for _ in range(k)
        ]
        comp = orthogonal_complement(K3, vecs)
        for b in comp.basis:
            for v in vecs:
                assert pairing(b, v) == 0
        assert is_primitive_embedding(comp.basis)
        nonzero = [v for v in vecs if not v.is_zero()]
        if nonzero:
            span_rank = elementary_divisors(IntMatrix([v.coords for v in nonzero]))
            assert comp.rank == 22 - len(span_rank)


def test_complement_accepts_rational_vectors():
    from fractions import Fraction

    v = K3.rational_vector([Fraction(1, 2)] + [0] * 21)
    comp = orthogonal_complement(K3, [v])
    comp_int = orthogonal_complement(K3, [K3.basis_vector(0)])
    assert {b.coords for b in comp.basis} == {b.coords for b in comp_int.basis}


def test_integral_primitive():
    from fractions import Fraction

    v = K3.rational_vector([Fraction(2, 3), Fraction(4, 3)] + [0] * 20)
    p = integral_primitive(v)
    assert p.coords[:2] == (1, 2)
    with pytest.raises(ValueError):
        integral_primitive(K3.rational_vector([0] * 22))
    assert integral_primitive(4 * k3_e(K3, 0)).coords == k3_e(K3, 0).coords


@settings(max_examples=30, deadline=None)
@given(st.lists(st.integers(-6, 6), min_size=22, max_size=22), st.integers(2, 5))
def test_scaled_vector_saturates_to_line(coords, c):
    # c v spans the same line as v, and the line's primitive generator has content 1
    v = K3.vector(coords)
    if v.is_zero():
        return
    prim = integral_primitive(c * v)
    assert prim == integral_primitive(v) and gcd(*prim.coords) == 1
    assert gcd(*v.coords) * prim == v


def test_member_from_coefficients():
    plane = orthogonal_complement(K3, [k3_e(K3, i) + k3_f(K3, i) for i in range(3)])
    v = plane.member_from_coefficients([1] + [0] * 18)
    assert v.coords == plane.basis[0].coords
    with pytest.raises(ValueError):
        plane.member_from_coefficients([1, 2])
    for bad in (True, 0.0, Fraction(1)):
        for at in (0, 18):
            coeffs = [1] * 19
            coeffs[at] = bad
            with pytest.raises(TypeError, match="integer coefficient"):
                plane.member_from_coefficients(coeffs)


@settings(max_examples=40, deadline=None)
@given(st.lists(st.integers(-4, 4), min_size=19, max_size=19))
def test_member_from_coefficients_matches_vector_fold(coeffs):
    plane = orthogonal_complement(K3, [k3_e(K3, i) + k3_f(K3, i) for i in range(3)])
    fold = K3.vector([0] * K3.rank)
    for c, b in zip(coeffs, plane.basis):
        fold = fold + c * b
    assert plane.member_from_coefficients(coeffs) == fold


def random_sublattice(rng: random.Random, ambient: Lattice, rank: int, untouched=()):
    """`rank` random basis vectors of varying support, with coordinates in
    `untouched` left 0 in all of them (they need not be independent)."""
    basis = []
    for _ in range(rank):
        p = rng.choice([0.1, 0.4, 1.0])
        basis.append(ambient.vector([
            0 if j in untouched or rng.random() > p else rng.randint(-7, 7)
            for j in range(ambient.rank)
        ]))
    return Sublattice(ambient, tuple(basis))


def test_compiled_lift_matches_the_sparse_row_loop():
    rng = random.Random(28)
    diag = Lattice("diag", IntMatrix([[(i + 1) * (i == j) for j in range(5)] for i in range(5)]))
    subs = [random_sublattice(rng, K3, rng.randint(1, 22)) for _ in range(12)]
    subs += [random_sublattice(rng, diag, k) for k in (1, 3, 5, 7)]
    subs.append(orthogonal_complement(K3, [k3_e(K3, i) + k3_f(K3, i) for i in range(3)]))
    # ambient coordinates that no basis vector touches lift to 0
    untouched = set(rng.sample(range(22), 6))
    subs.append(random_sublattice(rng, K3, 9, untouched))
    for sub in subs:
        lift = sub._lift
        for p in (0.0, 0.3, 1.0):
            for _ in range(6):
                coeffs = [rng.randint(-9, 9) if rng.random() < p else 0 for _ in range(sub.rank)]
                v = sub.member_from_coefficients(coeffs)
                assert v.coords == sparse_row_lift(sub, coeffs)
                assert type(v.coords) is tuple and len(v.coords) == sub.ambient.rank
        assert sub._lift is lift  # compiled once per sublattice
    lifted = subs[-1].member_from_coefficients([5] * 9)
    assert all(lifted.coords[j] == 0 for j in untouched)
    assert any(lifted.coords[j] for j in range(22) if j not in untouched)


def test_rank_zero_sublattice_lifts_to_the_zero_vector():
    for ambient in (K3, H):
        sub = Sublattice(ambient, ())
        v = sub.member_from_coefficients(())
        assert v.coords == (0,) * ambient.rank == sparse_row_lift(sub, ())
        with pytest.raises(ValueError, match="rank"):
            sub.member_from_coefficients((1,))


def test_compiled_lift_takes_entries_past_the_digit_limit():
    # a basis entry with more digits than int -> str allows enters the
    # kernel as a closure variable, never as a literal
    limit = getattr(sys, "get_int_max_str_digits", lambda: 4300)() or 4300
    huge = 10 ** (limit + 1) + 3
    b0 = [0] * 22
    b0[0], b0[7], b0[21] = huge, -huge, 1
    b1 = [0] * 22
    b1[7], b1[8] = -1, 2 * huge
    sub = Sublattice(K3, (K3.vector(b0), K3.vector(b1)))
    for coeffs in ((1, 0), (0, 1), (3, -huge), (-huge, huge)):
        assert sub.member_from_coefficients(coeffs).coords == sparse_row_lift(sub, coeffs)


def _doubled(m: IntMatrix) -> IntMatrix:
    return IntMatrix([[2 * x for x in row] for row in m.rows])


def test_orthogonal_complement_check_raises(monkeypatch):
    snf = sublattice.smith_normal_form

    def faulty(m):
        d, v = snf(m)
        return d, _doubled(v)

    monkeypatch.setattr(sublattice, "smith_normal_form", faulty)
    with pytest.raises(InvariantError, match="orthogonal complement"):
        orthogonal_complement(K3, [k3_e(K3, 0)])


def _shear(cols):
    # the trailing column plus a leading one: V stays unimodular, but that
    # basis vector no longer pairs to zero with the plane
    cols[-1] = [x + y for x, y in zip(cols[-1], cols[0])]


def _double_last(cols):
    # a trailing column doubled: still orthogonal, but det V = +-2
    cols[-1] = [2 * x for x in cols[-1]]


@pytest.mark.parametrize("change, message", [(_shear, "not orthogonal"), (_double_last, "not saturated")])
def test_complement_exit_check_catches_a_faulty_transform(monkeypatch, change, message):
    snf = sublattice.smith_normal_form

    def faulty(m):
        d, v = snf(m)
        cols = [list(c) for c in v.transpose().rows]
        change(cols)
        return d, IntMatrix(cols).transpose()

    monkeypatch.setattr(sublattice, "smith_normal_form", faulty)
    plane = [k3_e(K3, i) + k3_f(K3, i) for i in range(3)]
    with pytest.raises(InvariantError, match=message):
        orthogonal_complement(K3, plane)


def test_complement_basis_is_the_trailing_snf_columns():
    # the exit check changes no basis: it is the columns r, ..., n - 1 of
    # the SNF transform, and the former full-SNF saturation test holds
    rng = random.Random(27)
    planes = [[k3_e(K3, i) + k3_f(K3, i) for i in range(3)]]
    for _ in range(12):
        planes.append(
            [K3.vector([rng.randint(-3, 3) for _ in range(22)]) for _ in range(rng.randint(1, 3))]
        )
    for plane in planes:
        m = IntMatrix([v.gv for v in plane])
        _, v = sublattice.smith_normal_form(m)
        r = len(elementary_divisors(m))
        comp = orthogonal_complement(K3, plane)
        assert [b.coords for b in comp.basis] == list(v.transpose().rows[r:])
        assert elementary_divisors(IntMatrix([b.coords for b in comp.basis])) == (1,) * (22 - r)


def test_complement_of_a_dense_plane_runs_no_second_snf():
    # three dense vectors with entries in [-4, 4]: a full SNF of the 19 x 22
    # basis, the former saturation check, did not finish within 20 s on this
    # plane, while the exit check is one Bareiss elimination of V
    plane = [K3.vector(c) for c in (
        (-3, -4, 3, -2, 4, -3, 1, -1, 3, 2, -1, 3, -3, -4, -1, -2, -3, -3, 1, -2, 1, -3),
        (3, 1, -2, 4, -3, 1, -3, -3, -1, -1, 1, 1, -2, 3, -3, -1, 2, 4, 3, 2, -4, -3),
        (1, -2, -4, 3, 2, 1, -3, 3, 0, -4, -3, 3, 1, -1, 1, 2, -2, 0, 3, -3, -3, 0),
    )]
    comp = orthogonal_complement(K3, plane)
    assert comp.rank == 19
    assert all(pairing(b, v) == 0 for b in comp.basis for v in plane)


def dense_pairing(u, v):
    """Test-only oracle: u^T G v by a dense double loop over the Gram rows."""
    return sum(a * g * b for a, row in zip(u.coords, K3.gram.rows) for g, b in zip(row, v.coords))


def test_restricted_gram_matches_the_pairwise_oracle(monkeypatch):
    # B^T (G B) as one row-sparse product against the matrix of all ordered
    # pairwise pairings, on ranks 0, 1 and 19 and on seeded random bases;
    # it makes one IntMatrix.mul and is computed once
    products = []
    mul = IntMatrix.mul
    monkeypatch.setattr(IntMatrix, "mul", lambda a, b: products.append(a) or mul(a, b))
    rng = random.Random(19)
    standard = [k3_e(K3, i) + k3_f(K3, i) for i in range(3)]
    subs = [
        Sublattice(K3, ()),
        Sublattice(K3, (k3_e(K3, 0),)),
        Sublattice(K3, (K3.vector([rng.randint(-3, 3) for _ in range(22)]),)),
        orthogonal_complement(K3, standard),
    ]
    for _ in range(6):
        plane = [K3.vector([rng.randint(-2, 2) for _ in range(22)])
                 for _ in range(rng.randint(1, 3))]
        comp = orthogonal_complement(K3, plane)
        picked = rng.sample(comp.basis, rng.randint(0, comp.rank))
        subs += [comp, Sublattice(K3, tuple(picked))]
    assert {0, 1, 19} <= {sub.rank for sub in subs}
    for sub in subs:
        products.clear()
        gram = sub.restricted_gram
        assert len(products) == 1
        assert gram.rows == tuple(
            tuple(dense_pairing(u, v) for v in sub.basis) for u in sub.basis
        )
        assert all(type(x) is int for row in gram.rows for x in row)
        assert gram.is_symmetric() and sub.restricted_gram is gram
