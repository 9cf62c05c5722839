import random
import sys
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from k3dh import shortvec, sublattice
from k3dh.exact_linalg import IntMatrix, InvariantError, elementary_divisors
from k3dh.lattice import Lattice, _gram_kernel, make_H, make_K3, k3_e, k3_f, norm, pairing
from k3dh.shortvec import IndefiniteGramError, roots_orthogonal_to
from k3dh.sublattice import integral_primitive, is_primitive_embedding, orthogonal_complement
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
        is_primitive_embedding([e1, H.basis_vector(0)])


def test_complement_of_e1_in_h():
    comp = orthogonal_complement(H, [H.basis_vector(0)])
    assert len(comp) == 1
    assert tuple(map(abs, comp[0].coords)) == (1, 0)
    assert norm(comp[0]) == 0
    with pytest.raises(ValueError, match="ambient"):
        orthogonal_complement(H, [K3.basis_vector(0)])


def test_complement_of_empty_set_is_everything():
    for vectors in ([], [K3.vector([0] * 22), K3.rational_vector([0] * 22)]):
        comp = orthogonal_complement(K3, vectors)
        assert comp == tuple(K3.basis_vector(i) for i in range(22))
        assert is_primitive_embedding(comp)


def test_complement_of_positive_three_plane():
    plane = [k3_e(K3, i) + k3_f(K3, i) for i in range(3)]
    comp = orthogonal_complement(K3, plane)
    assert len(comp) == 19
    assert is_primitive_embedding(comp)
    lat = Lattice("comp", IntMatrix([[pairing(u, v) for v in comp] for u in comp]))
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
        for b in comp:
            for v in vecs:
                assert pairing(b, v) == 0
        assert is_primitive_embedding(comp)
        nonzero = [v for v in vecs if not v.is_zero()]
        if nonzero:
            span_rank = elementary_divisors(IntMatrix([v.coords for v in nonzero]))
            assert len(comp) == 22 - len(span_rank)


def test_complement_accepts_rational_vectors():
    from fractions import Fraction

    v = K3.rational_vector([Fraction(1, 2)] + [0] * 21)
    comp = orthogonal_complement(K3, [v])
    comp_int = orthogonal_complement(K3, [K3.basis_vector(0)])
    assert {b.coords for b in comp} == {b.coords for b in comp_int}


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


def compiled_lift(ambient: Lattice, basis):
    """c -> sum_k c_k b_k as roots_orthogonal_to compiles it: the sparse rows
    of the transposed basis, one per ambient coordinate j holding (k, b_k[j])
    for b_k[j] != 0, through the Gram kernel compiler."""
    coords = [b.coords for b in basis]
    return _gram_kernel(tuple(
        tuple((k, b[j]) for k, b in enumerate(coords) if b[j]) for j in range(ambient.rank)
    ))


@settings(max_examples=40, deadline=None)
@given(st.lists(st.integers(-4, 4), min_size=19, max_size=19))
def test_compiled_lift_matches_vector_fold(coeffs):
    basis = orthogonal_complement(K3, [k3_e(K3, i) + k3_f(K3, i) for i in range(3)])
    fold = K3.vector([0] * K3.rank)
    for c, b in zip(coeffs, basis):
        fold = fold + c * b
    assert compiled_lift(K3, basis)(coeffs) == fold.coords


def random_basis(rng: random.Random, ambient: Lattice, rank: int, untouched=()):
    """`rank` random basis vectors of varying support, with coordinates in
    `untouched` left 0 in all of them (they need not be independent)."""
    basis = []
    for _ in range(rank):
        p = rng.choice([0.1, 0.4, 1.0])
        basis.append(ambient.vector([
            0 if j in untouched or rng.random() > p else rng.randint(-7, 7)
            for j in range(ambient.rank)
        ]))
    return tuple(basis)


def test_compiled_lift_matches_the_sparse_row_loop():
    rng = random.Random(28)
    diag = Lattice("diag", IntMatrix([[(i + 1) * (i == j) for j in range(5)] for i in range(5)]))
    bases = [(K3, random_basis(rng, K3, rng.randint(1, 22))) for _ in range(12)]
    bases += [(diag, random_basis(rng, diag, k)) for k in (1, 3, 5, 7)]
    bases.append((K3, orthogonal_complement(K3, [k3_e(K3, i) + k3_f(K3, i) for i in range(3)])))
    # ambient coordinates that no basis vector touches lift to 0
    untouched = set(rng.sample(range(22), 6))
    bases.append((K3, random_basis(rng, K3, 9, untouched)))
    for ambient, basis in bases:
        lift = compiled_lift(ambient, basis)
        for p in (0.0, 0.3, 1.0):
            for _ in range(6):
                coeffs = [rng.randint(-9, 9) if rng.random() < p else 0 for _ in range(len(basis))]
                v = lift(coeffs)
                assert v == sparse_row_lift(ambient, basis, coeffs)
                assert type(v) is tuple and len(v) == ambient.rank
        assert compiled_lift(ambient, basis) is lift  # compiled once per transposed basis
    lifted = compiled_lift(K3, bases[-1][1])([5] * 9)
    assert all(lifted[j] == 0 for j in untouched)
    assert any(lifted[j] for j in range(22) if j not in untouched)


def test_rank_zero_sublattice_lifts_to_the_zero_vector():
    for ambient in (K3, H):
        lifted = compiled_lift(ambient, ())(())
        assert lifted == (0,) * ambient.rank == sparse_row_lift(ambient, (), ())


def test_compiled_lift_takes_entries_past_the_digit_limit():
    # a basis entry with more digits than int -> str allows enters the
    # kernel as a closure variable, never as a literal
    limit = getattr(sys, "get_int_max_str_digits", lambda: 4300)() or 4300
    huge = 10 ** (limit + 1) + 3
    b0 = [0] * 22
    b0[0], b0[7], b0[21] = huge, -huge, 1
    b1 = [0] * 22
    b1[7], b1[8] = -1, 2 * huge
    basis = (K3.vector(b0), K3.vector(b1))
    for coeffs in ((1, 0), (0, 1), (3, -huge), (-huge, huge)):
        assert compiled_lift(K3, basis)(coeffs) == sparse_row_lift(K3, basis, coeffs)


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
        assert [b.coords for b in comp] == list(v.transpose().rows[r:])
        assert elementary_divisors(IntMatrix([b.coords for b in comp])) == (1,) * (22 - r)


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
    assert len(comp) == 19
    assert all(pairing(b, v) == 0 for b in comp for v in plane)


def dense_pairing(u, v):
    """Test-only oracle: u^T G v by a dense double loop over the Gram rows."""
    rows = u.lattice.gram.rows
    return sum(a * g * b for a, row in zip(u.coords, rows) for g, b in zip(row, v.coords))


def test_restricted_gram_matches_the_pairwise_oracle(monkeypatch):
    # roots_orthogonal_to hands DefiniteGram B^T (G B) for the complement
    # basis B, made by one IntMatrix.mul; it equals the matrix of all ordered
    # pairwise pairings on complements of rank 0, 1, 19, 20 and 21, definite
    # or not (an indefinite one raises after the spy has seen it)
    grams, products = [], []
    definite, mul = shortvec.DefiniteGram, IntMatrix.mul
    monkeypatch.setattr(shortvec, "DefiniteGram", lambda m: grams.append(m) or definite(m))
    monkeypatch.setattr(IntMatrix, "mul", lambda a, b: products.append(a) or mul(a, b))
    a1 = Lattice("A1", IntMatrix([[2]]))
    e, f = H.basis_vector(0), H.basis_vector(1)
    cases = [
        (a1, [a1.basis_vector(0)]),
        (H, [e + f]),
        (K3, [k3_e(K3, i) + k3_f(K3, i) for i in range(3)]),
        (K3, [k3_e(K3, 0) + k3_f(K3, 0)]),
    ]
    rng = random.Random(19)
    while len(cases) < 10:
        # random hyperbolic coordinates and one E8 coordinate, so that a
        # positive plane is drawn often; the complement is then indefinite
        plane = []
        for _ in range(rng.randint(1, 2)):
            coords = [rng.randint(-2, 2) for _ in range(6)] + [0] * 16
            coords[rng.randrange(6, 22)] = rng.randint(-1, 1)
            plane.append(K3.vector(coords))
        g = [[pairing(u, v) for v in plane] for u in plane]
        if g[0][0] > 0 and (len(plane) == 1 or g[0][0] * g[1][1] > g[0][1] ** 2):
            cases.append((K3, plane))
    ranks = set()
    for lattice, plane in cases:
        grams.clear()
        products.clear()
        try:
            roots = roots_orthogonal_to(lattice, plane)
        except IndefiniteGramError:
            roots = None
        basis = orthogonal_complement(lattice, plane)
        ranks.add(len(basis))
        # the plane's Gram, then the complement's, unless it has rank 0
        assert len(grams) == 1 + bool(basis) and len(products) == bool(basis)
        if not basis:
            assert roots == ()
            continue
        gram = grams[-1]
        assert gram.rows == tuple(tuple(dense_pairing(u, v) for v in basis) for u in basis)
        assert all(type(x) is int for row in gram.rows for x in row)
        assert gram.is_symmetric()
    assert ranks == {0, 1, 19, 20, 21}
    assert set(roots_orthogonal_to(H, [e + f])) == {e - f, f - e}
