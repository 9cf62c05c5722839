import dataclasses
import os
import random
import subprocess
import sys
from fractions import Fraction
from math import gcd, lcm
from operator import mul
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import k3dh.lattice
from k3dh.exact_linalg import FrozenError, IntMatrix, det
from k3dh.lattice import (
    K3_BLOCKS,
    Lattice,
    LatticeVector,
    RationalVector,
    direct_sum,
    k3_e,
    k3_f,
    lattice_from_json_dict,
    make_E8,
    make_H,
    make_K3,
    norm,
    pairing,
    pairing_nums,
    reference_pair,
    rescale,
)
from k3dh.isometry import Isometry, eichler_transvection, identity_isometry
from k3dh.kummer import EXCEPTIONAL_LATTICE, KUMMER_LATTICE, TORUS_LATTICE
from k3dh.period import PeriodPoint, project_to_alpha_perp
from k3dh.sublattice import integral_primitive

K3 = make_K3()


def pairing_oracle(l, u, v):
    """Dense double-loop evaluation, independent of the sparse hot path."""
    g = l.gram.rows
    return sum(u[i] * g[i][j] * v[j] for i in range(l.rank) for j in range(l.rank))


def gram_entries_oracle(l, u, v):
    """The former pairing kernel: a generator sum over the sparse Gram entries."""
    return sum(
        (g * u[i] * v[j] for i, row in enumerate(l._gram_entries) for j, g in row),
        start=0,
    )


def test_h_lattice():
    h = make_H()
    assert h.rank == 2
    assert det(h.gram) == -1
    assert h.is_even()
    assert h.is_unimodular()
    assert h.signature() == (1, 1)


def test_e8_lattice():
    e8 = make_E8()
    assert e8.rank == 8
    assert det(e8.gram) == 1
    assert e8.is_even()
    assert e8.is_unimodular()
    assert e8.signature() == (8, 0)
    assert rescale(e8, -1).signature() == (0, 8)


def test_lattice_repr_names_the_rank_not_the_gram():
    assert repr(K3) == "Lattice('K3', rank=22)"
    assert repr(rescale(make_E8(), -1)) == "Lattice('E8(-1)', rank=8)"
    assert repr(Lattice("odd's", IntMatrix([[1]]))) == "Lattice(\"odd's\", rank=1)"


def test_k3_lattice_shape():
    assert K3.rank == 22
    assert K3.is_even()
    assert K3.is_unimodular()
    assert det(K3.gram) == -1
    assert K3.signature() == (3, 19)


def test_k3_block_tags():
    for i in range(3):
        e, f = k3_e(K3, i), k3_f(K3, i)
        assert norm(e) == 0
        assert norm(f) == 0
        assert pairing(e, f) == 1
    for block in K3_BLOCKS:
        assert len(block) == 8
        for idx in block:
            assert K3.gram[idx, idx] == -2
    # blocks are mutually orthogonal
    for i in range(3):
        for idx in K3_BLOCKS[0] + K3_BLOCKS[1]:
            assert pairing(k3_e(K3, i), K3.basis_vector(idx)) == 0
    for a in K3_BLOCKS[0]:
        for b in K3_BLOCKS[1]:
            assert K3.gram[a, b] == 0


def test_standard_kappa_norm():
    # e1 + l0*f1 has self-pairing 2*l0
    for l0 in (-3, -2, 0, 1, 5, 41):
        kappa = k3_e(K3, 0) + l0 * k3_f(K3, 0)
        assert norm(kappa) == 2 * l0


def test_reference_pair_is_the_basis_combination():
    # the one builder of the reference position, against basis arithmetic;
    # its Gram data are 2 l0, m and 2 l2
    e, f = [k3_e(K3, i) for i in range(2)], [k3_f(K3, i) for i in range(2)]
    for l0, m, l2 in ((0, 0, 0), (-3, 2, 5), (41, -7, -1)):
        kappa, eta = reference_pair(K3, l0, m, l2)
        assert (kappa, eta) == (e[0] + l0 * f[0], m * f[0] + e[1] + l2 * f[1])
        assert (norm(kappa), pairing(kappa, eta), norm(eta)) == (2 * l0, m, 2 * l2)
    with pytest.raises(TypeError):
        reference_pair(K3, 1.0, 0, 0)
    with pytest.raises(TypeError):
        reference_pair(K3, 0, True, 0)


def test_pairing_matches_dense_oracle():
    rng = random.Random(5)
    for _ in range(50):
        u = [rng.randint(-9, 9) for _ in range(22)]
        v = [rng.randint(-9, 9) for _ in range(22)]
        assert pairing(K3.vector(u), K3.vector(v)) == pairing_oracle(K3, u, v)
    with pytest.raises(ValueError, match="rank"):
        pairing(K3.rational_vector([1] * 21), K3.vector([1] * 22))


@settings(max_examples=40, deadline=None)
@given(
    st.lists(st.integers(-30, 30), min_size=22, max_size=22),
    st.lists(st.integers(-30, 30), min_size=22, max_size=22),
    st.lists(st.integers(-30, 30), min_size=22, max_size=22),
    st.integers(-5, 5),
)
def test_pairing_symmetric_bilinear(u, v, w, c):
    vu = K3.vector(u)
    vv = K3.vector(v)
    vw = K3.vector(w)
    assert pairing(vu, vv) == pairing(vv, vu)
    assert pairing(vu + c * vw, vv) == pairing(vu, vv) + c * pairing(vw, vv)


def test_even_norms_property():
    rng = random.Random(6)
    for _ in range(100):
        v = K3.vector([rng.randint(-7, 7) for _ in range(22)])
        assert norm(v) % 2 == 0


def test_vector_arithmetic_and_validation():
    e = k3_e(K3, 0)
    f = k3_f(K3, 0)
    assert (e + f - e).coords == f.coords
    assert (-e).coords[0] == -1
    assert (3 * e).coords[0] == 3
    with pytest.raises(TypeError):
        e * Fraction(1, 2)
    r = e.to_rational().scale(Fraction(1, 2))
    assert r.coords[0] == Fraction(1, 2)
    assert not r.is_integral()
    assert (r + r).is_integral() and (r + r).nums == e.coords
    with pytest.raises(TypeError):
        K3.vector([0.5] + [0] * 21)
    with pytest.raises(ValueError):
        K3.vector([1, 2, 3])


def test_cross_lattice_rejected():
    h = make_H()
    with pytest.raises(ValueError):
        pairing(h.vector([1, 0]), make_E8().vector([1, 0, 0, 0, 0, 0, 0, 0]))
    with pytest.raises(ValueError):
        h.vector([1, 0]) + make_K3().vector([0] * 22)


def test_rescaled_lattice_has_no_roots_norm():
    doubled = rescale(K3, 2)
    assert doubled.is_even()
    rng = random.Random(8)
    for _ in range(50):
        v = doubled.vector([rng.randint(-5, 5) for _ in range(22)])
        assert norm(v) % 4 == 0  # so no vector of self-pairing -2 exists


def test_direct_sum_blocks():
    l = direct_sum("HH", make_H(), make_H())
    assert l.rank == 4
    assert l.signature() == (2, 2)
    assert pairing(l.basis_vector(0), l.basis_vector(3)) == 0


def test_degenerate_signature_rejected():
    bad = Lattice("bad", IntMatrix([[0, 0], [0, 2]]))
    with pytest.raises(ValueError):
        bad.signature()
    # det G = 0: the elimination raises "degenerate form", which makes
    # is_unimodular False, before or after signature raises
    for rows in ([[0, 0], [0, 2]], [[2, 2], [2, 2]]):
        dup = Lattice("dup", IntMatrix(rows))
        assert dup.is_unimodular() is False
        with pytest.raises(ValueError, match="degenerate form"):
            dup.signature()
        assert dup.is_unimodular() is False
    # rank 0: the empty Gram has det 1 and signature (0, 0)
    empty = Lattice("empty", IntMatrix([]))
    assert empty.is_unimodular() and empty.signature() == (0, 0)
    with pytest.raises(ValueError):
        Lattice("asym", IntMatrix([[0, 1], [2, 0]]))


def test_signature_zero_diagonal_paths():
    # forms needing the symmetric row/column repair, both signs
    l1 = Lattice("z1", IntMatrix([[0, 1], [1, 0]]))
    assert l1.signature() == (1, 1)
    l2 = Lattice("z2", IntMatrix([[0, 1], [1, -2]]))
    assert l2.signature() == (1, 1)
    l3 = Lattice("z3", IntMatrix([[0, -1], [-1, 2]]))
    assert l3.signature() == (1, 1)


def fraction_signature(rows):
    """Test-only oracle: the former Fraction elimination of Lattice.signature."""
    n = len(rows)
    a = [[Fraction(x) for x in row] for row in rows]
    pos = neg = 0
    for k in range(n):
        if a[k][k] == 0:
            j = next((j for j in range(k + 1, n) if a[k][j] != 0), None)
            if j is None:
                raise ValueError("degenerate form")
            s = 1 if 2 * a[k][j] + a[j][j] != 0 else -1
            for i in range(n):
                a[k][i] += s * a[j][i]
            for i in range(n):
                a[i][k] += s * a[i][j]
        d = a[k][k]
        if d > 0:
            pos += 1
        else:
            neg += 1
        for i in range(k + 1, n):
            if a[i][k] != 0:
                f = a[i][k] / d
                for j in range(k, n):
                    a[i][j] -= f * a[k][j]
                for j in range(k, n):
                    a[j][i] -= f * a[j][k]
    return pos, neg


@st.composite
def symmetric_rows(draw):
    """Symmetric integer rows of rank 1-7, about half the entries zero; in
    about a quarter of them the whole diagonal is zero."""
    n = draw(st.integers(1, 7))
    rows = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            rows[i][j] = rows[j][i] = draw(st.integers(-6, 6)) if draw(st.booleans()) else 0
    if draw(st.integers(0, 3)) == 0:
        for i in range(n):
            rows[i][i] = 0
    return rows


@settings(max_examples=400, deadline=None)
@given(symmetric_rows())
def test_signature_matches_fraction_oracle(rows):
    lattice = Lattice("sym", IntMatrix(rows))
    try:
        expected = fraction_signature(rows)
    except ValueError:
        with pytest.raises(ValueError, match="degenerate"):
            lattice.signature()
        return
    assert lattice.signature() == expected


@st.composite
def gram_rows(draw):
    """Symmetric integer rows of rank 1-6: random, unimodular (P^T D P for an
    upper unitriangular P, so P e_0 = e_0, and D a diagonal of +-1 or H plus
    one), or degenerate (the last basis vector repeats the first, so
    e_0 - e_{n-1} is in the kernel).  The leading entry is zero in about half
    of them, and then the congruence repair of symmetric_bareiss runs."""
    kind = draw(st.sampled_from(("random", "unimodular", "degenerate")))
    n = draw(st.integers(1, 6))
    zero_lead = draw(st.booleans())
    if kind == "unimodular":
        d = [[0] * n for _ in range(n)]
        for i in range(n):
            d[i][i] = draw(st.sampled_from((1, -1)))
        if zero_lead and n >= 2:
            d[0][0] = d[1][1] = 0
            d[0][1] = d[1][0] = 1
        p = [[int(i == j) for j in range(n)] for i in range(n)]
        for i in range(n):
            for j in range(i + 1, n):
                p[i][j] = draw(st.integers(-2, 2))
        pt = list(zip(*p))
        return [[sum(pt[i][a] * d[a][b] * p[b][j] for a in range(n) for b in range(n))
                 for j in range(n)] for i in range(n)]
    m = n - 1 if kind == "degenerate" and n >= 2 else n
    rows = [[0] * m for _ in range(m)]
    for i in range(m):
        for j in range(i, m):
            rows[i][j] = rows[j][i] = draw(st.integers(-4, 4))
    if zero_lead:
        rows[0][0] = 0
    if kind == "degenerate":
        if n == 1:
            return [[0]]
        for row in rows:
            row.append(row[0])
        rows.append(list(rows[0]))
    return rows


@settings(max_examples=300, deadline=None)
@given(gram_rows())
def test_one_elimination_gives_signature_and_unimodularity(rows):
    # is_unimodular reads |det G| off the last symmetric_bareiss pivot, which
    # signature shares; both agree with their independent oracles
    lattice = Lattice("sym", IntMatrix(rows))
    assert lattice.is_unimodular() == (abs(det(IntMatrix(rows))) == 1)
    try:
        expected = fraction_signature(rows)
    except ValueError:
        with pytest.raises(ValueError, match="degenerate form"):
            lattice.signature()
        return
    assert lattice.signature() == expected
    assert Lattice("sym", IntMatrix(rows)).signature() == expected


def test_each_lattice_eliminates_once(monkeypatch):
    # the pivots are cached on the lattice object, not across objects
    calls = []
    kernel = k3dh.lattice.symmetric_bareiss

    def counted(m):
        calls.append(m.nrows)
        return kernel(m)

    monkeypatch.setattr(k3dh.lattice, "symmetric_bareiss", counted)
    k3 = make_K3()
    assert k3.signature() == (3, 19) and k3.is_unimodular() and k3.signature() == (3, 19)
    assert calls == [22]
    assert make_K3().is_unimodular()
    assert calls == [22, 22]
    bad = Lattice("dup", IntMatrix([[2, 2], [2, 2]]))
    assert not bad.is_unimodular() and not bad.is_unimodular()
    assert calls == [22, 22, 2]


def test_json_round_trip():
    d = {"rank": 22, "gram": [list(row) for row in K3.gram.rows]}
    assert lattice_from_json_dict(d).gram.rows == K3.gram.rows
    with pytest.raises(ValueError):
        lattice_from_json_dict({"gram": [[1, 2]]})
    with pytest.raises(ValueError):
        lattice_from_json_dict({"rank": 3, "gram": [[2]]})
    with pytest.raises(ValueError):
        lattice_from_json_dict([1, 2])
    with pytest.raises(ValueError, match="list of integer rows"):
        lattice_from_json_dict({"gram": "[[2]]"})


# -- fraction-free RationalVector against the plain Fraction representation --


@dataclasses.dataclass(frozen=True)
class FractionVector:
    """Test-only oracle: one Fraction per coordinate, dense Gram pairing."""

    coords: tuple

    def __add__(self, other):
        return FractionVector(tuple(a + b for a, b in zip(self.coords, other.coords)))

    def __sub__(self, other):
        return FractionVector(tuple(a - b for a, b in zip(self.coords, other.coords)))

    def scale(self, c):
        return FractionVector(tuple(Fraction(c) * a for a in self.coords))

    def pair(self, other):
        return Fraction(pairing_oracle(K3, self.coords, other.coords))

    def project(self, re, im):
        cr = self.pair(re) / re.pair(re)
        ci = self.pair(im) / im.pair(im)
        return self - re.scale(cr) - im.scale(ci)


def oracle(v) -> FractionVector:
    return FractionVector(tuple(Fraction(c) for c in v.coords))


def assert_canonical(v: RationalVector):
    assert v.den > 0
    assert gcd(v.den, *v.nums) == 1
    assert all(type(c) is int for c in v.nums)
    assert all(type(c) is Fraction for c in v.coords)


fractions = st.fractions(min_value=-40, max_value=40, max_denominator=12)
integral = st.lists(st.integers(-30, 30), min_size=22, max_size=22).map(K3.vector)
rational = st.lists(fractions, min_size=22, max_size=22).map(K3.rational_vector)
zero = st.sampled_from([K3.vector([0] * 22), K3.rational_vector([0] * 22)])
vectors = st.one_of(integral, rational, integral.map(LatticeVector.to_rational), zero)
scalars = st.one_of(st.integers(-6, 6), fractions, st.just(0))


@settings(max_examples=60, deadline=None)
@given(vectors, vectors, scalars)
def test_rational_vector_matches_fraction_oracle(u, v, c):
    ou, ov = oracle(u), oracle(v)
    assert pairing(u, v) == ou.pair(ov)
    assert norm(u) == ou.pair(ou)
    for result, expected in ((u + v, ou + ov), (u - v, ou - ov), (v - u, ov - ou)):
        assert result.coords == expected.coords
    if isinstance(u, RationalVector):
        scaled = u.scale(c)
        assert scaled.coords == ou.scale(c).coords
        assert_canonical(scaled)
        assert (-u).coords == ou.scale(-1).coords
        assert u.is_zero() == (not any(ou.coords))
        assert u.is_integral() == all(x.denominator == 1 for x in ou.coords)
    for w in (u + v, u - v, v - u):
        if isinstance(w, RationalVector):
            assert_canonical(w)


@settings(max_examples=40, deadline=None)
@given(vectors, fractions, fractions, st.integers(1, 3))
def test_projection_matches_fraction_oracle(kappa, a, b, c):
    if a == 0 and b == 0:
        a = Fraction(1)
    u = (c * (k3_e(K3, 0) + k3_f(K3, 0))).to_rational()
    v = (c * (k3_e(K3, 1) + k3_f(K3, 1))).to_rational()
    point = PeriodPoint(u.scale(a) + v.scale(b), u.scale(-b) + v.scale(a))
    khat = project_to_alpha_perp(kappa, point)
    assert_canonical(khat)
    assert khat.coords == oracle(kappa).project(oracle(point.re), oracle(point.im)).coords


@settings(max_examples=40, deadline=None)
@given(st.lists(fractions, min_size=22, max_size=22), st.integers(-9, 9).filter(bool))
def test_rational_vector_canonical_and_hashable(coords, k):
    v = K3.rational_vector(coords)
    assert_canonical(v)
    assert v.coords == tuple(coords)
    # the same point written with a common factor normalizes to the same value
    w = RationalVector(K3, tuple(k * x for x in v.nums), k * v.den)
    assert w == v and hash(w) == hash(v)
    assert w.nums == v.nums and w.den == v.den
    if v.is_integral():
        assert v == K3.vector(v.nums).to_rational()


def test_rational_vector_is_immutable_and_validated():
    v = K3.rational_vector([Fraction(1, 2)] + [0] * 21)
    assert v.coords[0] == Fraction(1, 2)  # builds the cached coordinates
    for name, value in (("nums", (0,) * 22), ("den", 3), ("coords", ()), ("other", 1)):
        with pytest.raises(FrozenError):
            setattr(v, name, value)
    assert v.nums == (1,) + (0,) * 21 and v.den == 2
    with pytest.raises(TypeError):
        RationalVector(K3, (Fraction(1, 2),) + (0,) * 21)
    with pytest.raises(ZeroDivisionError):
        RationalVector(K3, (1,) * 22, 0)
    with pytest.raises(ValueError):
        RationalVector(K3, (1, 2, 3))
    neg = RationalVector(K3, (2,) + (0,) * 21, -4)
    assert (neg.nums[0], neg.den) == (-1, 2)
    zero = RationalVector(K3, (0,) * 22, -7)
    assert zero.den == 1 and zero == K3.vector([0] * 22).to_rational()


def test_mixed_lattice_and_rational_operands():
    e, f = k3_e(K3, 0), k3_f(K3, 0)
    half = e.to_rational().scale(Fraction(1, 2))
    assert isinstance(f + half, RationalVector)
    assert (f + half) == (half + f)
    assert (f - half).coords[:2] == (Fraction(-1, 2), 1)
    assert (half - f).coords[:2] == (Fraction(1, 2), -1)
    assert pairing(half, f) == Fraction(1, 2) and pairing(f, half) == Fraction(1, 2)
    assert type(pairing(e, f)) is int
    with pytest.raises(ValueError):
        half + make_H().vector([1, 0])
    with pytest.raises(ValueError):
        make_H().vector([1, 0]) + half


# -- the cached Gram image and the unchecked constructor ----------------------


def fresh(v):
    """A copy of v with no cached Gram image."""
    if isinstance(v, LatticeVector):
        return K3.vector(v.coords)
    return RationalVector(K3, v.nums, v.den)


@settings(max_examples=60, deadline=None)
@given(vectors, vectors, st.sampled_from(["neither", "left", "right", "both"]))
def test_pairing_matches_gram_entries_oracle(u, v, cached):
    u, v = fresh(u), fresh(v)
    if cached in ("left", "both"):
        assert u.gv == K3.gram_times(u.nums)
    if cached in ("right", "both"):
        assert v.gv == K3.gram_times(v.nums)
    expected = Fraction(gram_entries_oracle(K3, u.nums, v.nums), u.den * v.den)
    assert sum(map(mul, u.nums, K3.gram_times(v.nums))) == gram_entries_oracle(K3, u.nums, v.nums)
    result = pairing(u, v)
    assert result == expected and pairing(v, u) == expected
    integral = isinstance(u, LatticeVector) and isinstance(v, LatticeVector)
    assert type(result) is (int if integral else Fraction)
    # a pairing reads the cached side and leaves the other side uncached
    if cached == "left":
        assert "gv" not in v.__dict__
    assert norm(fresh(u)) == Fraction(gram_entries_oracle(K3, u.nums, u.nums), u.den**2)


def test_gram_times_is_the_gram_matrix_product():
    rng = random.Random(11)
    for lattice in (K3, make_E8(), make_H(), Lattice("odd", IntMatrix([[3, 1], [1, -5]]))):
        for _ in range(20):
            x = [rng.randint(-9, 9) if rng.random() < 0.5 else 0 for _ in range(lattice.rank)]
            assert lattice.gram_times(x) == tuple(
                sum(g * c for g, c in zip(row, x)) for row in lattice.gram.rows
            )


def random_symmetric_lattice(rng, n):
    """A seeded symmetric Gram of rank n, with negative off-diagonal
    entries and at least one zero row."""
    rows = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            if rng.random() < 0.4:
                rows[i][j] = rows[j][i] = rng.randint(-9, 9)
    zero = rng.randrange(n)
    for j in range(n):
        rows[zero][j] = rows[j][zero] = 0
    others = [k for k in range(n) if k != zero]
    if len(others) > 1:
        i, j = others[:2]
        rows[i][j] = rows[j][i] = -rng.randint(1, 9)
    return Lattice(f"random{n}", IntMatrix(rows))


def former_gram_times(l, v):
    """Test-only oracle: the former body of Lattice.gram_times, the sum of
    the sparse Gram rows in supp(v), each scaled by its coordinate."""
    out = [0] * l.rank
    for c, row in zip(v, l._gram_entries):
        if c:
            for j, g in row:
                out[j] += g * c
    return tuple(out)


def test_compiled_kernel_matches_the_former_loop():
    rng = random.Random(23)
    randoms = [random_symmetric_lattice(rng, n) for n in (1, 2, 3, 6, 13, 22)]
    lattices = (
        K3, make_E8(), make_H(), Lattice("odd", IntMatrix([[3, 1], [1, -5]])),
        TORUS_LATTICE, EXCEPTIONAL_LATTICE, KUMMER_LATTICE,
        Lattice("empty", IntMatrix([])), *randoms,
    )
    for lattice in lattices:
        basis = [[int(i == j) for j in range(lattice.rank)] for i in range(lattice.rank)]
        draws = [
            [rng.randint(-9, 9) if rng.random() < p else 0 for _ in range(lattice.rank)]
            for p in (0.0, 0.2, 0.6, 1.0) for _ in range(5)
        ]
        for x in basis + draws:
            expected = former_gram_times(lattice, x)
            assert lattice.gram_times(x) == lattice.gram_times(tuple(x)) == expected
            assert type(lattice.gram_times(x)) is tuple
    assert Lattice("empty", IntMatrix([])).gram_times(()) == ()
    # one kernel per distinct Gram matrix, shared by equal lattices
    assert make_K3()._kernel is K3._kernel
    assert make_E8()._kernel is not K3._kernel


def test_compiled_kernel_takes_long_rows_and_huge_entries():
    # a row of 5,000 nonzero entries nests its sums instead of chaining
    # them, so the compiler does not run out of recursion depth
    n = 5000
    row = tuple((j, (-1) ** j * (j % 5)) for j in range(n) if j % 5) + tuple(
        (j, (-1) ** (j // 5)) for j in range(0, n, 5)
    )
    row = tuple(sorted(row))
    assert len(row) == n
    v = tuple((j * 7919) % 23 - 11 for j in range(n))
    kernel = k3dh.lattice._gram_kernel((row, ((0, 3),), ()))
    assert kernel(v) == (sum(g * v[j] for j, g in row), 3 * v[0], 0)
    assert kernel(list(v)) == kernel(v)
    # an entry with more digits than int -> str allows: no coefficient
    # reaches the kernel as a literal
    limit = getattr(sys, "get_int_max_str_digits", lambda: 4300)() or 4300
    huge = 10 ** (limit + 1) + 7
    lattice = Lattice("huge", IntMatrix([[huge, -huge, 0], [-huge, 2, 1], [0, 1, huge]]))
    for x in ([1, 0, 0], [3, -2, 5], (0, 7, -1)):
        assert lattice.gram_times(x) == former_gram_times(lattice, x)
    assert lattice.vector([1, 1, 1]).vv == huge + 2 * -huge + 2 + 2 + huge


def test_no_kernel_is_compiled_before_the_first_pairing():
    # a fresh interpreter imports every module and builds the standard
    # lattices and the packaged model without compiling a kernel
    code = (
        "import k3dh.cli, k3dh.lattice as l\n"
        "from k3dh.moment import packaged_model\n"
        "l.make_K3(); l.make_E8(); packaged_model()\n"
        "print(l._gram_kernel.cache_info().currsize)\n"
        "l.make_H().basis_vector(0).vv\n"
        "print(l._gram_kernel.cache_info().currsize)\n"
    )
    src = str(Path(k3dh.lattice.__file__).resolve().parents[1])
    out = subprocess.run(
        [sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": src},
        capture_output=True, text=True, check=True,
    ).stdout
    assert out.split() == ["0", "1"]


def test_memoized_attributes_are_computed_once_and_stored(monkeypatch):
    cases = (
        (Lattice, "_gram_entries", lambda: Lattice("H", IntMatrix([[0, 1], [1, 0]]))),
        # both vector flavors inherit their caches from one base class
        (k3dh.lattice._Vector, "gv", lambda: K3.vector([1, 2] + [0] * 20)),
        (k3dh.lattice._Vector, "vv", lambda: K3.rational_vector([Fraction(1, 3)] * 22)),
        # an unchecked isometry, as the full check reads the columns itself
        (Isometry, "_cols", lambda: identity_isometry(K3)),
    )
    for cls, name, build in cases:
        descriptor = vars(cls)[name]
        assert isinstance(descriptor, k3dh.lattice.memoized)
        assert getattr(cls, name) is descriptor  # class access
        calls = []
        compute = descriptor.fn

        def counted(obj, compute=compute):
            calls.append(obj)
            return compute(obj)

        monkeypatch.setattr(descriptor, "fn", counted)
        obj = build()
        assert name not in obj.__dict__
        first = getattr(obj, name)
        assert obj.__dict__[name] is first and getattr(obj, name) is first
        assert calls == [obj]
        # frozen: the stored value is read-only
        with pytest.raises(FrozenError):
            setattr(obj, name, first)
        monkeypatch.undo()


def test_self_pairing_matches_dense_oracle(monkeypatch):
    rng = random.Random(19)
    randoms = [random_symmetric_lattice(rng, n) for n in (1, 2, 3, 6, 22)]
    assert all(any(not any(row) for row in l.gram.rows) for l in randoms)
    assert sum(g < 0 for l in randoms for i, row in enumerate(l.gram.rows)
               for j, g in enumerate(row) if i != j) > 10
    lattices = (K3, make_E8(), make_H(), Lattice("odd", IntMatrix([[3, 1], [1, -5]])), *randoms)
    compute = k3dh.lattice._self_pairing
    computed = []

    def counted(v):
        computed.append(v)
        return compute(v)

    monkeypatch.setattr(k3dh.lattice, "_self_pairing", counted)
    for lattice in lattices:
        for _ in range(20):
            x = [rng.randint(-9, 9) if rng.random() < 0.6 else 0 for _ in range(lattice.rank)]
            den = rng.randint(1, 6)
            for image_first in (True, False):
                for v in (lattice.vector(x), lattice.rational_vector([Fraction(c, den) for c in x])):
                    expected = pairing_oracle(lattice, v.nums, v.nums)
                    del computed[:]
                    if image_first:
                        assert v.gv == lattice.gram_times(v.nums)
                    assert pairing_nums(v, v) == expected
                    assert norm(v) == Fraction(expected, v.den**2)
                    assert pairing(v, v) == norm(v)
                    # computed once, from the Gram image the vector caches
                    assert computed == [v]
                    assert v.vv == expected == sum(map(mul, v.nums, v.gv))
                    assert v.gv == lattice.gram_times(v.nums)


def test_lattice_vector_stores_its_coordinates_as_a_tuple():
    # a list argument is stored as the checked tuple, so the vector equals
    # and hashes as the tuple-built one, and to_rational, which shares the
    # coordinates unchecked, gives canonical numerators over 1
    coords = [3, -1] + [0] * 20
    v, w = LatticeVector(K3, coords), K3.vector(coords)
    assert type(v.coords) is tuple and v == w and hash(v) == hash(w)
    r = v.to_rational()
    assert r.nums is v.coords and r == RationalVector(K3, coords) and r.den == 1


def assert_validated_ints(v):
    assert type(v) is LatticeVector
    assert all(type(c) is int for c in v.coords)
    assert v == LatticeVector(v.lattice, v.coords)


@settings(max_examples=40, deadline=None)
@given(integral, integral, st.integers(-6, 6), st.integers(0, 21))
def test_unchecked_constructions_match_validated_ones(u, v, c, i):
    sites = [
        (u + v, [a + b for a, b in zip(u.coords, v.coords)]),
        (u - v, [a - b for a, b in zip(u.coords, v.coords)]),
        (-u, [-a for a in u.coords]),
        (c * u, [c * a for a in u.coords]),
        (K3.basis_vector(i), [int(j == i) for j in range(22)]),
    ]
    t = eichler_transvection(k3_e(K3, 0), K3.vector([0, 0] + list(u.coords[2:])))
    sites.append((t.apply(v), [sum(r * x for r, x in zip(row, v.coords)) for row in t.matrix.rows]))
    if not u.is_zero():
        g = gcd(*u.coords)
        prim = [a // g for a in u.coords]
        sites.append((integral_primitive(u), prim))
        sites.append((integral_primitive(6 * u), prim))
        sites.append((integral_primitive(u.to_rational().scale(Fraction(5, 7))), prim))
    for got, coords in sites:
        assert_validated_ints(got)
        assert got == K3.vector(coords)
    with pytest.raises(TypeError, match="integer"):
        u * True
    fracs = [Fraction(a, 1 + abs(b)) for a, b in zip(u.coords, v.coords)]
    mixed = [x if j % 2 else a for j, (a, x) in enumerate(zip(u.coords, fracs))]
    for coords in (u.coords, fracs, mixed, [c] * 22):
        got = K3.rational_vector(coords)
        validated = RationalVector(K3, got.nums, got.den)  # normalizes, if needed
        assert type(got) is RationalVector and all(type(x) is int for x in got.nums)
        assert (got.nums, got.den) == (validated.nums, validated.den)
        assert got.coords == tuple(Fraction(x) for x in coords)
    for short_or_long in (fracs[:21], mixed + [1]):
        with pytest.raises(ValueError, match="rank"):
            K3.rational_vector(short_or_long)
    assert K3.basis_vector(i) is K3.basis_vector(i)  # built once per lattice


def former_rational_vector(lattice, coords):
    """The previous Lattice.rational_vector: Fraction(c) for every input."""
    fracs = [Fraction(c) for c in coords]
    den = lcm(*(c.denominator for c in fracs))
    return RationalVector(
        lattice, tuple(c.numerator * (den // c.denominator) for c in fracs), den
    )


inputs = st.one_of(st.integers(-40, 40), fractions)


@settings(max_examples=60, deadline=None)
@given(st.lists(inputs, min_size=22, max_size=22))
def test_rational_vector_reads_ints_and_fractions_directly(coords):
    got, expected = K3.rational_vector(coords), former_rational_vector(K3, coords)
    assert got == expected and (got.nums, got.den) == (expected.nums, expected.den)
    assert_canonical(got)
    for bad in ("x", float("nan"), float("inf"), None):
        with pytest.raises(TypeError, match="integer or Fraction coordinate"):
            K3.rational_vector([bad] + coords[1:])


def test_rational_vector_refuses_floats_and_strings():
    # the former reading went through Fraction(c): 0.5 became 1/2, "1/3"
    # became 1/3 and 1e300 a 301-digit integer; RationalVector refuses each
    for bad in (0.5, 1.0, 1e300, "1/3", "2"):
        coords = [Fraction(1, 2)] + [bad] + [0] * 20
        with pytest.raises(TypeError, match="integer or Fraction coordinate expected"):
            K3.rational_vector(coords)
        with pytest.raises(TypeError, match="integer"):
            RationalVector(K3, [1, bad] + [0] * 20)
    # a generator is read once, and the error names the value
    with pytest.raises(TypeError, match=r"got '1/3'"):
        K3.rational_vector(c for c in [0] * 21 + ["1/3"])


def test_rational_vector_is_primitive():
    h = make_H()
    assert h.rational_vector([3, 2]).is_primitive()
    assert h.rational_vector([Fraction(6, 2), -1]).is_primitive()  # reduced to ints
    assert not h.rational_vector([4, 2]).is_primitive()  # content 2
    assert not h.rational_vector([Fraction(1, 2), 1]).is_primitive()  # not integral
    assert not h.rational_vector([0, 0]).is_primitive()
