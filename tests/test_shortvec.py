import random
from fractions import Fraction
from math import isqrt, prod
from operator import mul

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from k3dh import shortvec
from k3dh.exact_linalg import IntMatrix, InvariantError, det, symmetric_bareiss
from k3dh.lattice import (
    Lattice,
    direct_sum,
    make_E8,
    make_H,
    make_K3,
    k3_e,
    k3_f,
    norm,
    pairing,
    pairing_nums,
)
from k3dh.shortvec import (
    DefiniteGram,
    IndefiniteGramError,
    enumerate_norm,
    is_generic_plane,
    roots_orthogonal_to,
)
from k3dh.sublattice import orthogonal_complement
from oracles import _box_radii, naive_enumerate, sparse_row_lift

K3 = make_K3()
E8 = make_E8()

# A_n Gram matrices, the seed shapes for randomized definite forms
BLOCKS = {
    1: [[2]],
    2: [[2, -1], [-1, 2]],
    3: [[2, -1, 0], [-1, 2, -1], [0, -1, 2]],
    4: [[2, 0, -1, 0], [0, 2, -1, 0], [-1, -1, 2, -1], [0, 0, -1, 2]],
}

# pairs 1 with every basis vector of E8, hence nonzero with every root
WEYL_COEFFS = (46, 68, 91, 135, 110, 84, 57, 29)


def fraction_ldl(gram: IntMatrix):
    """Rational LDL^T: Q(x) = sum_i d_i (x_i + sum_{j>i} c_ij x_j)^2."""
    n = gram.nrows
    q = [[Fraction(x) for x in row] for row in gram.rows]
    d = [Fraction(0)] * n
    c = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        d[i] = q[i][i]
        for j in range(i + 1, n):
            c[i][j] = q[i][j] / q[i][i]
        for k in range(i + 1, n):
            for l in range(k, n):
                q[k][l] -= q[i][k] * q[i][l] / q[i][i]
                q[l][k] = q[k][l]
    return d, c


def floor_plus_sqrt(t: Fraction, r: Fraction) -> int:
    """floor(t + sqrt(r)) for rationals with r >= 0, exactly."""
    g = (t.numerator // t.denominator) + isqrt(int(r))
    while True:
        step = g + 1 - t
        if step <= 0 or step * step <= r:
            g += 1
        else:
            break
    while True:
        step = g - t
        if step <= 0 or step * step <= r:
            break
        g -= 1
    return g


def fraction_oracle(gram: DefiniteGram, target: int):
    """The rational Fincke-Pohst enumerator the integer one replaced."""
    t = -target if gram.negated else target
    d, c = fraction_ldl(gram.matrix)
    n = gram.rank
    out = []
    chosen = [0] * n

    def level(i, rem):
        s = sum((c[i][j] * chosen[j] for j in range(i + 1, n)), start=Fraction(0))
        r = rem / d[i]
        for x in range(-floor_plus_sqrt(s, r), floor_plus_sqrt(-s, r) + 1):
            rem2 = rem - d[i] * (x + s) ** 2
            chosen[i] = x
            if i == 0:
                if rem2 == 0:
                    out.append(tuple(chosen))
            else:
                level(i - 1, rem2)
        chosen[i] = 0

    level(n - 1, Fraction(t))
    return tuple(sorted(out))


def fraction_inverse(gram: IntMatrix):
    """Gauss-Jordan on [G | I] over Fraction, for a nonsingular G."""
    n = gram.nrows
    a = [[Fraction(x) for x in row] + [Fraction(int(i == j)) for j in range(n)]
         for i, row in enumerate(gram.rows)]
    for c in range(n):
        p = next(i for i in range(c, n) if a[i][c])
        a[c], a[p] = a[p], a[c]
        a[c] = [x / a[c][c] for x in a[c]]
        for i in range(n):
            if i != c and a[i][c]:
                f = a[i][c]
                a[i] = [x - f * y for x, y in zip(a[i], a[c])]
    return [row[n:] for row in a]


def fraction_radii(gram: DefiniteGram, target: int) -> list[int]:
    """The former box radii of naive_enumerate: isqrt(int(t * (G^-1)_ii))."""
    ginv = fraction_inverse(gram.matrix)
    return [isqrt(int(target * ginv[i][i])) for i in range(gram.rank)]


def box_points(gram: DefiniteGram, target: int) -> int:
    """Size of the search box naive_enumerate would visit."""
    return prod(2 * r + 1 for r in fraction_radii(gram, target))


def random_definite(rng: random.Random, n: int) -> DefiniteGram:
    # conjugate a seed block by a few elementary unimodular moves; cap the
    # naive search box so the oracle comparison stays cheap
    while True:
        g = [row[:] for row in BLOCKS[n]]
        for _ in range(rng.randint(0, 3)):
            if n == 1:
                break
            i, j = rng.sample(range(n), 2)
            c = rng.choice([-1, 1])
            for r in range(n):
                g[r][j] += c * g[r][i]
            for r in range(n):
                g[j][r] += c * g[i][r]
        if rng.random() < 0.5:
            g = [[-x for x in row] for row in g]
        dg = DefiniteGram(IntMatrix(g))
        if box_points(dg, 6) <= 4000:
            return dg


def norm_of(gram: DefiniteGram, x) -> int:
    """x^T G x in the sign convention of the original matrix, by the dense
    double loop; independent of the enumerator's LDL data."""
    n = gram.rank
    q = sum(gram.matrix[i, j] * x[i] * x[j] for i in range(n) for j in range(n))
    return -q if gram.negated else q


def embedded(block_start: int, coeffs) -> "object":
    v = [0] * K3.rank
    for i, c in enumerate(coeffs):
        v[block_start + i] = c
    return K3.vector(v)


def test_rank_one_even_form():
    dg = DefiniteGram(IntMatrix([[2]]))
    assert enumerate_norm(dg, 2) == ((-1,), (1,))
    assert enumerate_norm(dg, 8) == ((-2,), (2,))
    assert enumerate_norm(dg, 1) == ()
    assert enumerate_norm(dg, 4) == ()


def test_rank_one_odd_form():
    dg = DefiniteGram(IntMatrix([[1]]))
    assert enumerate_norm(dg, 1) == ((-1,), (1,))
    assert enumerate_norm(dg, 3) == ()


def test_negative_definite_sign_convention():
    dg = DefiniteGram(IntMatrix([[-2, 1], [1, -2]]))
    assert dg.negated
    assert norm_of(dg, (1, 0)) == -2
    vecs = enumerate_norm(dg, -2)
    assert len(vecs) == 6
    assert all(norm_of(dg, v) == -2 for v in vecs)


def test_results_sorted_and_negation_closed():
    vecs = enumerate_norm(DefiniteGram(E8.gram), 2)
    assert vecs == tuple(sorted(vecs))
    assert len(set(vecs)) == len(vecs)
    found = set(vecs)
    assert all(tuple(-x for x in v) in found for v in vecs)


def test_matches_naive_oracle_on_random_forms():
    rng = random.Random(20260814)
    for _ in range(60):
        n = rng.randint(1, 4)
        dg = random_definite(rng, n)
        for t in (2, 4, 6):
            tt = -t if dg.negated else t
            assert enumerate_norm(dg, tt) == naive_enumerate(dg, tt)


def test_e8_root_count():
    vecs = enumerate_norm(DefiniteGram(E8.gram), 2)
    assert len(vecs) == 240


def test_e8_norm_four_count():
    # second shell of E8
    vecs = enumerate_norm(DefiniteGram(E8.gram), 4)
    assert len(vecs) == 2160


def test_direct_sum_roots_live_in_one_summand():
    ee = direct_sum("E8+E8", E8, E8)
    vecs = enumerate_norm(DefiniteGram(ee.gram), 2)
    assert len(vecs) == 480
    for v in vecs:
        left = any(x != 0 for x in v[:8])
        right = any(x != 0 for x in v[8:])
        assert left != right


def test_standard_plane_complement_roots():
    plane = [k3_e(K3, i) + k3_f(K3, i) for i in range(3)]
    roots = roots_orthogonal_to(K3, plane)
    assert len(roots) == 486
    coords = {r.coords for r in roots}
    assert all(tuple(-x for x in c) in coords for c in coords)
    assert not is_generic_plane(K3, plane)


def test_weyl_perturbed_plane_is_generic():
    # the deep-hole trick: add the dual-of-ones vector of each E8 block and
    # pick hyperbolic coefficients larger than any root pairing with it
    rho = E8.vector(WEYL_COEFFS)
    assert all(pairing(rho, E8.basis_vector(i)) == 1 for i in range(8))
    v1 = 31 * k3_e(K3, 0) + 30 * k3_f(K3, 0) + embedded(6, WEYL_COEFFS)
    v2 = 31 * k3_e(K3, 1) + 30 * k3_f(K3, 1) + embedded(14, WEYL_COEFFS)
    v3 = 2 * k3_e(K3, 2) + k3_f(K3, 2)
    gram = [[pairing(u, v) for v in (v1, v2, v3)] for u in (v1, v2, v3)]
    assert gram == [[1240, 0, 0], [0, 1240, 0], [0, 0, 4]]
    assert roots_orthogonal_to(K3, [v1, v2, v3]) == ()
    assert is_generic_plane(K3, [v1, v2, v3])


def test_indefinite_gram_rejected():
    with pytest.raises(IndefiniteGramError):
        DefiniteGram(make_H().gram)
    with pytest.raises(IndefiniteGramError):
        DefiniteGram(IntMatrix([[0]]))
    with pytest.raises(IndefiniteGramError):
        DefiniteGram(IntMatrix([[1, 0], [1, 1]]))  # not symmetric
    with pytest.raises(IndefiniteGramError, match="empty"):
        DefiniteGram(IntMatrix([]))
    # semidefinite, and signatures (1, 1) and (1, 2) with no zero pivot
    for m in ([[1, 1], [1, 1]], [[1, 0], [0, -1]], [[-1, 0, 0], [0, -1, 0], [0, 0, 1]]):
        with pytest.raises(IndefiniteGramError):
            DefiniteGram(IntMatrix(m))


def test_non_positive_plane_rejected():
    e1, f1 = k3_e(K3, 0), k3_f(K3, 0)
    root = e1 - f1  # norm -2
    with pytest.raises(IndefiniteGramError):
        roots_orthogonal_to(K3, [root])
    with pytest.raises(IndefiniteGramError):
        roots_orthogonal_to(K3, [e1])  # isotropic


def test_wrong_sign_target_rejected():
    pos = DefiniteGram(IntMatrix([[2]]))
    neg = DefiniteGram(IntMatrix([[-2]]))
    for dg, bad in ((pos, -2), (pos, 0), (neg, 2), (neg, 0)):
        with pytest.raises(ValueError):
            enumerate_norm(dg, bad)
        with pytest.raises(ValueError, match="sign of the form"):
            naive_enumerate(dg, bad)


def test_target_must_be_an_int():
    # the one integer rule: no bool or IntEnum read as a number, and no float
    # or string passed on to the enumeration
    from enum import IntEnum

    class Norm(IntEnum):
        TWO = 2

    dg = DefiniteGram(IntMatrix([[2, 1], [1, 2]]))
    assert len(enumerate_norm(dg, 2)) == 6
    for bad in (True, Norm.TWO, 2.0, "2"):
        with pytest.raises(TypeError, match="integer target norm"):
            enumerate_norm(dg, bad)


def test_plane_spanning_a_definite_lattice_has_no_complement():
    # a full basis of E8 leaves the zero complement, so there is no root
    basis = [E8.basis_vector(i) for i in range(8)]
    assert roots_orthogonal_to(E8, basis) == ()
    assert is_generic_plane(E8, basis)


def test_positive_definite_complement_rejected():
    # one vector of the positive definite E8 leaves a positive complement
    with pytest.raises(IndefiniteGramError, match="not negative definite"):
        roots_orthogonal_to(E8, [E8.basis_vector(0)])


@settings(deadline=None, max_examples=60)
@given(
    n=st.integers(min_value=1, max_value=3),
    data=st.data(),
)
def test_every_constructed_vector_is_found(n, data):
    dg = DefiniteGram(IntMatrix(BLOCKS[n]))
    x = tuple(
        data.draw(st.integers(min_value=-3, max_value=3)) for _ in range(n)
    )
    t = norm_of(dg, x)
    if t == 0:
        return
    assert x in enumerate_norm(dg, t)


@settings(deadline=None, max_examples=60)
@given(
    n=st.integers(min_value=1, max_value=4),
    rng=st.randoms(use_true_random=False),
    target=st.integers(min_value=1, max_value=8),
)
def test_matches_fraction_and_naive_oracles(n, rng, target):
    dg = random_definite(rng, n)  # negative definite about half the time
    t = -target if dg.negated else target
    found = enumerate_norm(dg, t)
    assert found == fraction_oracle(dg, t)
    assert found == naive_enumerate(dg, t)


@st.composite
def definite_grams(draw):
    """+-A^T A for a nonsingular integer A of rank 1-5, either sign."""
    n = draw(st.integers(1, 5))
    a = draw(st.lists(st.lists(st.integers(-3, 3), min_size=n, max_size=n),
                      min_size=n, max_size=n))
    assume(det(IntMatrix(a)) != 0)
    sign = draw(st.sampled_from((1, -1)))
    g = [[sign * sum(a[k][i] * a[k][j] for k in range(n)) for j in range(n)] for i in range(n)]
    return DefiniteGram(IntMatrix(g))


@settings(deadline=None, max_examples=150)
@given(definite_grams(), st.integers(1, 12))
def test_integer_box_radii_match_fraction_inverse(dg, t):
    # naive_enumerate's radii isqrt(t * C_ii // det G) against the former
    # Fraction-inverse radii, on the normalized positive definite matrix
    assert _box_radii(dg.matrix, t) == fraction_radii(dg, t)


def former_ldl(gram: IntMatrix):
    """Test-only oracle: the former shortvec._ldl, symmetric Bareiss on the
    upper triangle that gives up (None) at the first zero pivot."""
    n = gram.nrows
    q = [list(row) for row in gram.rows]
    prev = 1
    for k in range(n):
        qk = q[k]
        pk = qk[k]
        if pk == 0:
            return None
        for i in range(k + 1, n):
            qi, qki = q[i], qk[i]
            for j in range(i, n):
                qi[j] = (pk * qi[j] - qki * qk[j]) // prev
        prev = pk
    return tuple(tuple(q[k][k:]) for k in range(n))


@settings(deadline=None, max_examples=150)
@given(definite_grams())
def test_symmetric_bareiss_matches_former_ldl(dg):
    # a definite form of either sign never needs a pivot repair, so the
    # shared kernel gives the former rows exactly, and DefiniteGram keeps them
    for sign in (1, -1):
        m = IntMatrix([[sign * x for x in row] for row in dg.matrix.rows])
        rows = former_ldl(m)
        assert rows is not None and symmetric_bareiss(m) == rows
        again = DefiniteGram(m)
        assert again.negated == (sign < 0) and again.matrix == dg.matrix
        assert again.rows == (rows if sign > 0 else dg.rows)


@settings(deadline=None, max_examples=60)
@given(
    n=st.integers(min_value=1, max_value=4),
    rng=st.randoms(use_true_random=False),
    data=st.data(),
)
def test_scaled_ldl_identity(n, rng, data):
    # M * Q(x) = sum_k W_k y_k^2 with y_k = sum_{j>=k} a[k][j] x_j
    dg = random_definite(rng, n)
    x = data.draw(st.lists(st.integers(-50, 50), min_size=n, max_size=n))
    q = sum(dg.matrix[i, j] * x[i] * x[j] for i in range(n) for j in range(n))
    ys = [sum(map(mul, row, x[k:])) for k, row in enumerate(dg.rows)]
    assert dg.scale * q == sum(w * y * y for w, y in zip(dg.weights, ys))
    assert all(row[0] > 0 for row in dg.rows)


def test_root_norm_check_raises(monkeypatch):
    # roots_orthogonal_to lifts enumerate_norm's tuples through the
    # compiled lift of the complement basis; a lift that doubles each root
    # must fail the norm check
    compile_ = shortvec._gram_kernel
    monkeypatch.setattr(
        shortvec, "_gram_kernel", lambda rows: lambda c: tuple(2 * x for x in compile_(rows)(c))
    )
    plane = [k3_e(K3, i) + k3_f(K3, i) for i in range(3)]
    with pytest.raises(InvariantError, match="norm -2"):
        roots_orthogonal_to(K3, plane)


def dense_self_pairing(lattice: Lattice, x) -> int:
    """Test-only oracle: x^T G x as the double sum over every Gram entry."""
    n = lattice.rank
    return sum(lattice.gram[i, j] * x[i] * x[j] for i in range(n) for j in range(n))


def spy_root_checks(monkeypatch) -> list[tuple[Lattice, tuple[int, ...], int]]:
    """Record each Lattice.gram_times call made after the last enumerate_norm
    as (lattice, v, v^T G v): the root checks of roots_orthogonal_to."""
    calls = []
    kernel, enumerate_ = Lattice.gram_times, shortvec.enumerate_norm

    def spy(self, v):
        out = kernel(self, v)
        calls.append((self, tuple(v), sum(map(mul, v, out))))
        return out

    def enumerated(gram, target):
        out = enumerate_(gram, target)
        calls.clear()
        return out

    monkeypatch.setattr(Lattice, "gram_times", spy)
    monkeypatch.setattr(shortvec, "enumerate_norm", enumerated)
    return calls


def test_root_check_matches_the_kernel_on_the_standard_roots(monkeypatch):
    # roots_orthogonal_to checks each lifted root by pairing its ambient
    # coordinates on the ambient lattice; on all 486 roots orthogonal to the
    # standard plane that equals the self-pairing of a fresh vector and the
    # dense sum
    calls = spy_root_checks(monkeypatch)
    plane = [k3_e(K3, i) + k3_f(K3, i) for i in range(3)]
    roots = roots_orthogonal_to(K3, plane)
    assert len(roots) == 486
    assert [(lat, v) for lat, v, _ in calls] == [(K3, r.coords) for r in roots[:243]]
    assert {value for _, _, value in calls} == {-2}
    for r in roots:
        fresh = K3.vector(r.coords)
        assert sum(map(mul, r.coords, K3.gram_times(r.coords))) == pairing_nums(fresh, fresh) == -2
        assert dense_self_pairing(K3, r.coords) == -2
    # and on vectors that are not roots, with supports of every size
    rng = random.Random(21)
    for size in range(K3.rank + 1):
        coords = [0] * K3.rank
        for j in rng.sample(range(K3.rank), size):
            coords[j] = rng.randint(-9, 9)
        fresh = K3.vector(coords)
        assert sum(map(mul, coords, K3.gram_times(coords))) == pairing_nums(fresh, fresh)
        assert pairing_nums(fresh, fresh) == dense_self_pairing(K3, coords)


def test_root_check_matches_the_kernel_on_a_dense_gram(monkeypatch):
    # H + (-A2) in the basis of the columns of a unimodular U: the Gram
    # U^T G0 U has no zero entry, so each Gram row is dense and a root's
    # support is all of it.  The plane vector w has norm 2; its complement
    # is -A1 + -A2, with 2 + 6 roots
    g0 = IntMatrix([[0, 1, 0, 0], [1, 0, 0, 0], [0, 0, -2, 1], [0, 0, 1, -2]])
    u = IntMatrix([[0, 0, -1, 0], [-1, 0, -2, 1], [1, 1, 2, 0], [-1, -1, 1, -1]])
    assert abs(det(u)) == 1
    lattice = Lattice("dense", u.transpose().mul(g0).mul(u))
    assert all(all(row) for row in lattice.gram.rows)
    w = lattice.vector([1, -2, 2, 0])
    assert norm(w) == 2
    calls = spy_root_checks(monkeypatch)
    assert not is_generic_plane(lattice, [w])
    assert len(calls) == 4
    for lat, v, value in list(calls):  # the pairings below add calls
        fresh = lattice.vector(v)
        assert lat is lattice and value == -2
        assert value == pairing_nums(fresh, fresh) == dense_self_pairing(lattice, v)
        assert pairing(fresh, w) == 0
    rng = random.Random(8)
    for _ in range(50):
        coords = [rng.randint(-5, 5) for _ in range(lattice.rank)]
        fresh = lattice.vector(coords)
        assert sum(map(mul, coords, lattice.gram_times(coords))) == pairing_nums(fresh, fresh)
        assert pairing_nums(fresh, fresh) == dense_self_pairing(lattice, coords)


def former_level(rows, weights, i, r, x, out):
    """Test-only oracle: the former shortvec._enumerate_level, which walks
    the full tree, loops over the whole range at level 0 too, and sums
    S over the whole row, zero entries included."""
    row = rows[i]
    p, w = row[0], weights[i]
    s = sum(map(mul, row, x[i:]))
    b = isqrt(r // w)
    for xi in range(-((s + b) // p), (b - s) // p + 1):
        y = p * xi + s
        r2 = r - w * y * y
        x[i] = xi
        if i == 0:
            if r2 == 0:
                out.append(tuple(x))
        else:
            former_level(rows, weights, i - 1, r2, x, out)
    x[i] = 0


def former_enumerate(gram: DefiniteGram, target: int):
    t = -target if gram.negated else target
    n = gram.rank
    out = []
    former_level(gram.rows, gram.weights, n - 1, gram.scale * t, [0] * n, out)
    return tuple(sorted(out))


def complement_gram(plane) -> DefiniteGram:
    """The definite Gram of the plane's complement, from dense pairings."""
    basis = orthogonal_complement(K3, plane)
    return DefiniteGram(IntMatrix([[pairing(u, v) for v in basis] for u in basis]))


def standard_plane_complement_gram() -> DefiniteGram:
    return complement_gram([k3_e(K3, i) + k3_f(K3, i) for i in range(3)])


def test_half_tree_matches_full_tree_on_the_root_systems():
    e8 = DefiniteGram(E8.gram)
    ee = DefiniteGram(direct_sum("E8+E8", E8, E8).gram)
    cases = [(e8, 2, 240), (e8, 4, 2160), (e8, 6, 6720), (ee, 2, 480),
             (standard_plane_complement_gram(), -2, 486)]
    for dg, t, count in cases:
        found = enumerate_norm(dg, t)
        assert len(found) == count
        assert found == former_enumerate(dg, t)


def random_definite_large(rng: random.Random, n: int) -> DefiniteGram:
    # A_n plus a random 0/1 diagonal, so odd norms occur too, conjugated by
    # a few elementary unimodular moves and negated half the time
    g = [[2 if i == j else -1 if abs(i - j) == 1 else 0 for j in range(n)]
         for i in range(n)]
    for i in range(n):
        g[i][i] += rng.randint(0, 1)
    for _ in range(rng.randint(0, 3) if n > 1 else 0):
        i, j = rng.sample(range(n), 2)
        c = rng.choice([-1, 1])
        for r in range(n):
            g[r][j] += c * g[r][i]
        for r in range(n):
            g[j][r] += c * g[i][r]
    if rng.random() < 0.5:
        g = [[-x for x in row] for row in g]
    return DefiniteGram(IntMatrix(g))


def test_half_tree_matches_full_tree_on_random_forms():
    # odd targets on the even forms take the leaf's no-solution branches
    rng = random.Random(20261018)
    signs = set()
    for _ in range(16):
        dg = random_definite_large(rng, rng.randint(5, 8))
        signs.add(dg.negated)
        for target in range(1, 9):
            t = -target if dg.negated else target
            assert enumerate_norm(dg, t) == former_enumerate(dg, t)
    assert signs == {False, True}


def direct_sum_gram(rng: random.Random, blocks: list[IntMatrix]) -> IntMatrix:
    # block-diagonal, then half the time a seeded coordinate permutation
    # (P^T G P), so the blocks no longer sit in contiguous coordinates
    n = sum(b.nrows for b in blocks)
    g = [[0] * n for _ in range(n)]
    at = 0
    for b in blocks:
        for i, row in enumerate(b.rows):
            g[at + i][at:at + len(row)] = row
        at += b.nrows
    if rng.random() < 0.5:
        perm = rng.sample(range(n), n)
        g = [[g[perm[i]][perm[j]] for j in range(n)] for i in range(n)]
    return IntMatrix(g)


def test_decoupled_tail_matches_the_oracles_on_direct_sums():
    # targets of 4 or more put vectors on two blocks at once; the diagonal
    # form splits at every level
    rng = random.Random(20261019)
    forms = [IntMatrix([[1, 0, 0, 0], [0, 2, 0, 0], [0, 0, 1, 0], [0, 0, 0, 3]])]
    for _ in range(24):
        ranks = [rng.randint(1, 4) for _ in range(rng.randint(2, 3))]
        blocks = [random_definite_large(rng, k).matrix for k in ranks]
        forms.append(direct_sum_gram(rng, blocks))
    seen = {"split": False, "negated": False, "naive": 0}
    for g in forms:
        if rng.random() < 0.5:
            g = IntMatrix([[-x for x in row] for row in g.rows])
        dg = DefiniteGram(g)
        # split[i] iff rows 0..i of the Bareiss data have no entry beyond column i
        n = dg.rank
        full = [[0] * k + list(row) for k, row in enumerate(dg.rows)]
        assert dg.split == tuple(
            all(full[k][j] == 0 for k in range(i + 1) for j in range(i + 1, n))
            for i in range(n)
        )
        seen["split"] |= any(dg.split[:-1])
        seen["negated"] |= dg.negated
        small = dg.rank <= 6 and box_points(dg, 8) <= 20000
        for target in range(1, 9):
            t = -target if dg.negated else target
            found = enumerate_norm(dg, t)
            assert found == former_enumerate(dg, t)
            if small:
                assert found == naive_enumerate(dg, t)
                seen["naive"] += 1
    assert DefiniteGram(forms[0]).split == (True,) * 4
    assert seen["split"] and seen["negated"] and seen["naive"] >= 40


def level_calls(monkeypatch) -> dict[str, list[int]]:
    """The levels of the _enumerate_level calls of the three root counts,
    wrapped through the module global, as bench/tracer.py counts them."""
    level = shortvec._enumerate_level
    calls: list[int] = []

    def counted(*args):
        calls.append(args[2])
        return level(*args)

    monkeypatch.setattr(shortvec, "_enumerate_level", counted)
    plane = [k3_e(K3, i) + k3_f(K3, i) for i in range(3)]
    runs = {
        "E8": lambda: enumerate_norm(DefiniteGram(E8.gram), 2),
        "E8+E8": lambda: enumerate_norm(DefiniteGram(direct_sum("E8+E8", E8, E8).gram), 2),
        "complement": lambda: roots_orthogonal_to(K3, plane),
    }
    out = {}
    for name, run in runs.items():
        calls.clear()
        run()
        out[name] = calls[:]
    return out


# _enumerate_level calls at the parent of the half tree, which walked the
# full tree and looped over the last level
FULL_TREE_CALLS = {"E8": 510, "E8+E8": 2940, "complement": 4389}
# and those of the half tree before the decoupled-tail leaf
HALF_TREE_CALLS = {"E8": 259, "E8+E8": 1478, "complement": 2204}


def test_half_tree_halves_the_calls(monkeypatch):
    # more than one call each shows the recursion still goes through the
    # module global
    for name, calls in level_calls(monkeypatch).items():
        assert 1 < len(calls) <= 0.55 * FULL_TREE_CALLS[name], name
        assert 0 in calls


def test_decoupled_tail_halves_the_half_tree(monkeypatch):
    # E8 splits only at its last level, so its walk is unchanged
    calls = level_calls(monkeypatch)
    assert len(calls["E8"]) == HALF_TREE_CALLS["E8"]
    for name in ("E8+E8", "complement"):
        assert 1 < len(calls[name]) <= 0.5 * HALF_TREE_CALLS[name], name
    assert all(0 in c for c in calls.values())


# _enumerate_level calls of the three root counts since the decoupled-tail
# leaf; reading S from the sparse tails walks the same tree
LEVEL_CALLS = {"E8": 259, "E8+E8": 638, "complement": 763}


def test_sparse_tails_walk_the_same_tree(monkeypatch):
    calls = level_calls(monkeypatch)
    assert {name: len(c) for name, c in calls.items()} == LEVEL_CALLS


def random_sparse_form(rng: random.Random, n: int, density: float) -> IntMatrix:
    """A strictly diagonally dominant, hence positive definite, form: each
    off-diagonal entry is +-1 with probability `density`, and each diagonal
    entry exceeds its row's off-diagonal absolute sum by 1 or 2.  Half the
    time it is conjugated by a few elementary unimodular moves, which fill
    in the Bareiss rows, and half the time negated."""
    g = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i):
            if rng.random() < density:
                g[i][j] = g[j][i] = rng.choice([-1, 1])
    for i in range(n):
        g[i][i] = sum(map(abs, g[i])) + rng.randint(1, 2)
    if n > 1 and rng.random() < 0.5:
        for _ in range(rng.randint(1, 2)):
            i, j = rng.sample(range(n), 2)
            c = rng.choice([-1, 1])
            for r in range(n):
                g[r][j] += c * g[r][i]
            for r in range(n):
                g[j][r] += c * g[i][r]
    if rng.random() < 0.5:
        g = [[-x for x in row] for row in g]
    return IntMatrix(g)


@settings(deadline=None, max_examples=80)
@given(
    n=st.integers(min_value=1, max_value=12),
    density=st.sampled_from([0.0, 0.15, 0.5, 1.0]),
    rng=st.randoms(use_true_random=False),
)
def test_tails_are_the_nonzero_off_diagonal_entries(n, density, rng):
    dg = DefiniteGram(random_sparse_form(rng, n, density))
    full = [[0] * k + list(row) for k, row in enumerate(dg.rows)]
    assert dg.tails == tuple(
        tuple((j, full[k][j]) for j in range(k + 1, n) if full[k][j]) for k in range(n)
    )
    assert all(full[k][k] == dg.rows[k][0] > 0 for k in range(n))
    # split reads the same sparse data: no row 0..i reaches past column i
    assert dg.split == tuple(
        all(j <= i for k in range(i + 1) for j, _ in dg.tails[k]) for i in range(n)
    )


def test_sparse_walk_matches_the_dense_walk_on_random_forms():
    # sparse and dense definite forms of both signs and ranks 1-9; each
    # target runs up to past the largest diagonal entry, so e_i is found
    rng = random.Random(20261020)
    seen = set()
    for _ in range(40):
        n, density = rng.randint(1, 9), rng.choice([0.0, 0.15, 0.5, 1.0])
        dg = DefiniteGram(random_sparse_form(rng, n, density))
        filled = sum(map(len, dg.tails)) / max(1, n * (n - 1) // 2)
        seen.add((n == 1, dg.negated, filled > 0.5))
        top = max(abs(dg.matrix[i, i]) for i in range(n)) + 1
        for target in range(1, min(top, 9) + 1):
            t = -target if dg.negated else target
            assert enumerate_norm(dg, t) == former_enumerate(dg, t)
    assert {(s, d) for _, s, d in seen} == {(s, d) for s in (False, True) for d in (False, True)}
    assert any(rank_one for rank_one, _, _ in seen)


def criterion_03_planes(rng: random.Random, count: int):
    """Positive 3-planes shaped like the criterion-03 samples: a rotated
    period point in the first two hyperbolic pairs, and kappa on the third
    pair plus a few small E8 coordinates, so the root counts vary.  The
    three vectors are pairwise orthogonal, so the plane is positive when
    kappa is."""
    while count:
        c = rng.randint(1, 3)
        u = k3_e(K3, 0) + c * k3_f(K3, 0)
        v = k3_e(K3, 1) + c * k3_f(K3, 1)
        a, b = rng.randint(1, 5), rng.randint(-5, 5)
        coords = [0] * K3.rank
        for j in rng.sample(range(6, 22), 3):
            coords[j] = rng.randint(-1, 1)
        kappa = rng.randint(1, 4) * k3_e(K3, 2) + rng.randint(1, 4) * k3_f(K3, 2)
        kappa = kappa + K3.vector(coords)
        if norm(kappa) > 0:
            count -= 1
            yield [kappa, a * u + b * v, -b * u + a * v]


def test_half_lift_matches_the_full_lift():
    # roots_orthogonal_to lifts half the coefficient vectors and negates
    # them; the oracle lifts every coefficient vector and checks each norm
    planes = [[k3_e(K3, i) + k3_f(K3, i) for i in range(3)]]
    planes += criterion_03_planes(random.Random(3), 8)
    counts = set()
    for plane in planes:
        basis = orthogonal_complement(K3, plane)
        coords = enumerate_norm(complement_gram(plane), -2)
        full = tuple(K3.vector(sparse_row_lift(K3, basis, c)) for c in coords)
        assert all(norm(r) == -2 for r in full)
        assert all(pairing(r, p) == 0 for r in full for p in plane)
        roots = roots_orthogonal_to(K3, plane)
        assert roots == full
        assert all(type(r.coords) is tuple and all(type(x) is int for x in r.coords)
                   for r in roots)
        counts.add(len(full))
    assert 486 in counts and len(counts) >= 4
