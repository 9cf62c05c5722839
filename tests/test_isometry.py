import hashlib
import importlib.util
import json
import random
import sys
from fractions import Fraction
from itertools import product
from pathlib import Path

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from k3dh import isometry
from k3dh.cli import main
from k3dh.exact_linalg import IntMatrix, InvariantError, det
from k3dh.lattice import (
    K3_BLOCKS, Lattice, LatticeVector, RationalVector, make_E8, make_K3, k3_e, k3_f, norm, pairing,
)
from k3dh.isometry import (
    Isometry,
    OrientedPlane,
    StandardizationError,
    eichler_transvection,
    flip_third_H,
    identity_isometry,
    lemma_iso,
    map_pair_to_standard,
    preserves_components,
    same_component,
    standard_plane,
)
from k3dh.period import PeriodPoint, project_to_alpha_perp
from k3dh.sublattice import is_primitive_embedding

K3 = make_K3()
E = [k3_e(K3, i) for i in range(3)]
F = [k3_f(K3, i) for i in range(3)]

_PARTNER = {0: 1, 1: 0, 2: 3, 3: 2, 4: 5, 5: 4}


def minus_identity():
    n = K3.rank
    return Isometry(K3, IntMatrix([[-1 if i == j else 0 for j in range(n)] for i in range(n)]))


def random_transvection(rng, amp=2):
    """Transvection with a random hyperbolic base and orthogonal argument."""
    base_i = rng.choice(range(6))
    coords = [0] * K3.rank
    for i in range(K3.rank):
        if i == _PARTNER[base_i]:
            continue
        coords[i] = rng.randint(-amp, amp)
    return eichler_transvection(K3.basis_vector(base_i), K3.vector(coords))


def transvected_pair(rng, kap, eta, moves, amp=2):
    for _ in range(moves):
        t = random_transvection(rng, amp)
        kap, eta = t.apply(kap), t.apply(eta)
    return kap, eta


def standard_pair(l0, m, l2):
    return E[0] + l0 * F[0], m * F[0] + E[1] + l2 * F[1]


def test_isometry_construction_is_checked():
    ident = identity_isometry(K3)
    assert det(ident.matrix) == 1
    assert Isometry(K3, ident.matrix).matrix == ident.matrix
    with pytest.raises(ValueError):
        Isometry(K3, IntMatrix([[1, 0], [0, 1]]))
    # e1 -> f1, f1 -> -e1 flips the sign of the pairing on the first block
    n = K3.rank
    rows = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    rows[0][0], rows[0][1], rows[1][0], rows[1][1] = 0, -1, 1, 0
    with pytest.raises(ValueError):
        Isometry(K3, IntMatrix(rows))


def test_apply_compose_inverse():
    rng = random.Random(3)
    g = random_transvection(rng)
    h = random_transvection(rng)
    v = K3.vector([rng.randint(-3, 3) for _ in range(K3.rank)])
    assert g.compose(h).apply(v) == g.apply(h.apply(v))
    assert g.inverse().compose(g).matrix == IntMatrix.identity(K3.rank)
    assert norm(g.apply(v)) == norm(v)


def test_transvection_examples():
    t = eichler_transvection(E[0], E[1])
    assert t.apply(F[0]) == F[0] + E[1]
    assert t.apply(F[1]) == F[1] - E[0]
    assert t.apply(E[0]) == E[0]
    assert t.apply(E[1]) == E[1]
    assert det(t.matrix) == 1
    zero = K3.vector([0] * K3.rank)
    assert eichler_transvection(E[0], zero).matrix == IntMatrix.identity(K3.rank)
    with pytest.raises(ValueError):
        eichler_transvection(E[0] + F[0], E[1])  # base not isotropic
    with pytest.raises(ValueError):
        eichler_transvection(E[0], F[0])  # argument not orthogonal


def test_transvection_additive_in_argument():
    rng = random.Random(11)
    for _ in range(20):
        base_i = rng.choice(range(6))
        e = K3.basis_vector(base_i)

        def arg():
            coords = [0] * K3.rank
            for i in range(K3.rank):
                if i == _PARTNER[base_i]:
                    continue
                coords[i] = rng.randint(-2, 2)
            return K3.vector(coords)

        a, b = arg(), arg()
        lhs = eichler_transvection(e, a).compose(eichler_transvection(e, b))
        assert lhs.matrix == eichler_transvection(e, a + b).matrix
        # a run of 2-5 arguments is one transvection by their sum
        run = [arg() for _ in range(rng.randint(2, 5))]
        product, total = identity_isometry(K3), K3.vector([0] * K3.rank)
        for a in run:
            product, total = eichler_transvection(e, a).compose(product), total + a
        assert product.matrix == eichler_transvection(e, total).matrix
        # and a run whose arguments sum to 0 is the identity
        product = eichler_transvection(e, -1 * total).compose(product)
        assert product.matrix == IntMatrix.identity(K3.rank)


def test_preserves_components_calibration():
    assert preserves_components(identity_isometry(K3))
    assert not preserves_components(flip_third_H(K3))
    assert not preserves_components(minus_identity())
    rng = random.Random(5)
    for _ in range(5):
        assert preserves_components(random_transvection(rng))


def test_preserves_components_is_multiplicative():
    rng = random.Random(17)
    samples = [
        identity_isometry(K3),
        flip_third_H(K3),
        minus_identity(),
        random_transvection(rng),
        flip_third_H(K3).compose(random_transvection(rng)),
    ]
    for g in samples:
        for h in samples:
            assert preserves_components(g.compose(h)) == (
                preserves_components(g) == preserves_components(h)
            )


def test_map_pair_fixes_reference_pairs(monkeypatch):
    # both stages drive the coefficient of their reference slot to 1, so a
    # pair already in reference position records no move and builds no
    # factor; map_pair_to_standard and lemma_iso give such a pair the
    # identity without a mover at all
    movers, built = [], []

    class Watched(isometry._Mover):
        def __init__(self, v):
            super().__init__(v)
            movers.append(self)

    monkeypatch.setattr(isometry, "_Mover", Watched)
    monkeypatch.setattr(isometry, "eichler_transvection",
                        lambda e, a: built.append(a) or eichler_transvection(e, a))
    ident = IntMatrix.identity(K3.rank)
    for l0, m, l2 in product(range(-9, 10), repeat=3):
        assert recorded_mover(*standard_pair(l0, m, l2)).isometry().matrix == ident
    # the full paths add the primitivity and exit checks, on coarser grids
    for l0, m, l2 in product(range(-9, 10, 3), repeat=3):
        assert map_pair_to_standard(*standard_pair(l0, m, l2)).matrix == ident
    for l0, m, l2 in product(range(-9, 10, 6), repeat=3):
        ref = standard_pair(l0, m, l2)
        assert lemma_iso(*ref, *ref, preserve=True).matrix == ident
        assert lemma_iso(*ref, *ref, preserve=False).matrix == flip_third_H(K3).matrix
    assert len(movers) == 19 ** 3
    # a reversing lemma_iso composes the flip after the build, not as a move
    assert all(mover.moves == [] for mover in movers)
    assert built == []


def standardizer_spies(monkeypatch):
    """Counts of the movers created and the primitivity tests run by k3dh.isometry."""
    counts = {"movers": 0, "primitivity": 0}
    primitive = isometry.is_primitive_embedding

    class Watched(isometry._Mover):
        def __init__(self, v):
            counts["movers"] += 1
            super().__init__(v)

    def watched(vectors):
        counts["primitivity"] += 1
        return primitive(vectors)

    monkeypatch.setattr(isometry, "_Mover", Watched)
    monkeypatch.setattr(isometry, "is_primitive_embedding", watched)
    return counts


def test_reference_pairs_skip_the_standardizer(monkeypatch):
    # a pair in reference position maps by the identity with no mover and
    # no primitivity test, over the DH coefficient range of the battery
    counts = standardizer_spies(monkeypatch)
    ident = IntMatrix.identity(K3.rank)
    for l0, m, l2 in product(range(-9, 10), repeat=3):
        assert map_pair_to_standard(*standard_pair(l0, m, l2)).matrix == ident
    assert counts == {"movers": 0, "primitivity": 0}
    # a pair one transvection away still takes both, and is moved back
    ref = standard_pair(3, -5, 2)
    moved = transvected_pair(random.Random(37), *ref, 1)
    assert moved != ref
    g = map_pair_to_standard(*moved)
    assert (g.apply(moved[0]), g.apply(moved[1])) == ref
    assert counts["primitivity"] == 1 and counts["movers"] >= 1


FAR = st.integers(10, 10**30) | st.integers(-10**30, -10)


@settings(max_examples=30, deadline=None)
@given(l0=FAR, m=FAR, l2=FAR)
@example(l0=10, m=-10, l2=10)
def test_far_reference_pairs_skip_the_standardizer(l0, m, l2):
    with pytest.MonkeyPatch.context() as patch:
        counts = standardizer_spies(patch)
        g = map_pair_to_standard(*standard_pair(l0, m, l2))
    assert g.matrix == IntMatrix.identity(K3.rank)
    assert counts == {"movers": 0, "primitivity": 0}


def test_map_pair_round_trip_randomized():
    rng = random.Random(20260814)
    for _ in range(15):
        kap0, eta0 = standard_pair(
            rng.randint(-6, 6), rng.randint(-6, 6), rng.randint(-6, 6)
        )
        kap, eta = transvected_pair(rng, kap0, eta0, rng.randint(1, 5))
        g = map_pair_to_standard(kap, eta)
        assert g.apply(kap) == kap0
        assert g.apply(eta) == eta0


def test_map_pair_rejects_non_primitive():
    with pytest.raises(ValueError):
        map_pair_to_standard(E[0] + F[0], 2 * E[1])
    with pytest.raises(ValueError):
        map_pair_to_standard(E[0], E[0])  # dependent


def test_lemma_iso_reference_case_both_modes():
    kap = E[0] - 2 * F[0]
    eta = -8 * F[0] + E[1] - 2 * F[1]
    assert (norm(kap), norm(eta), pairing(kap, eta)) == (-4, -4, -8)
    rng = random.Random(29)
    kp, ep = transvected_pair(rng, kap, eta, 3)
    for preserve in (True, False):
        phi = lemma_iso(kap, eta, kp, ep, preserve=preserve)
        assert phi.apply(kp) == kap
        assert phi.apply(ep) == eta
        assert preserves_components(phi) == preserve


def test_lemma_iso_rejects_mismatched_gram_data():
    kap, eta = standard_pair(1, 2, 3)
    kap2, eta2 = standard_pair(1, 2, 4)
    with pytest.raises(ValueError):
        lemma_iso(kap, eta, kap2, eta2)


@settings(max_examples=15, deadline=None)
@given(
    l0=st.integers(-5, 5),
    m=st.integers(-5, 5),
    l2=st.integers(-5, 5),
    seed=st.integers(0, 10**6),
)
def test_map_pair_round_trip_property(l0, m, l2, seed):
    rng = random.Random(seed)
    kap0, eta0 = standard_pair(l0, m, l2)
    kap, eta = transvected_pair(rng, kap0, eta0, rng.randint(1, 3))
    g = map_pair_to_standard(kap, eta)
    assert g.apply(kap) == kap0
    assert g.apply(eta) == eta0


def transvection_by_images(e, a):
    """Test-only oracle: the former construction, one basis image at a time."""
    lattice = e.lattice
    half = norm(a) // 2
    cols = []
    for j in range(lattice.rank):
        x = lattice.basis_vector(j)
        xe, xa = pairing(x, e), pairing(x, a)
        cols.append((x + xe * a - (xa + half * xe) * e).coords)
    return IntMatrix(zip(*cols))


@settings(max_examples=60, deadline=None)
@given(
    i=st.integers(0, 5),
    j=st.integers(0, 5),
    s=st.integers(-3, 3),
    t=st.integers(-3, 3),
    x=st.lists(st.integers(-3, 3), min_size=22, max_size=22),
    y=st.lists(st.integers(-3, 3), min_size=22, max_size=22),
)
def test_transvection_matches_basis_image_oracle(i, j, s, t, x, y):
    # basis vectors from different hyperbolic planes are isotropic and
    # orthogonal, so s b_i + t b_j is isotropic; (x,e) y - (y,e) x is ⊥ e
    e = K3.basis_vector(i)
    if i // 2 != j // 2:
        e = s * e + t * K3.basis_vector(j)
    xv, yv = K3.vector(x), K3.vector(y)
    a = pairing(xv, e) * yv - pairing(yv, e) * xv
    assert eichler_transvection(e, a).matrix == transvection_by_images(e, a)


def test_transvection_rejects_odd_argument():
    odd = Lattice("H+<1>", IntMatrix([[0, 1, 0], [1, 0, 0], [0, 0, 1]]))
    with pytest.raises(ValueError, match="even norm"):
        eichler_transvection(odd.basis_vector(0), odd.basis_vector(2))


def test_apply_and_compose_reject_foreign_lattices():
    g = random_transvection(random.Random(41))
    e8 = make_E8()
    copy = Lattice("K3 copy", K3.gram)  # same rank and Gram, another lattice
    for v in (e8.vector([1] + [0] * 7), e8.rational_vector([0] * 8),
              copy.vector([0] * K3.rank)):
        with pytest.raises(ValueError, match="lattice"):
            g.apply(v)
    # compose is unchecked only because both factors preserve one Gram matrix
    with pytest.raises(ValueError, match="lattices"):
        g.compose(identity_isometry(copy))
    with pytest.raises(ValueError, match="lattices"):
        identity_isometry(e8).compose(g)


@pytest.mark.parametrize("call", ["apply", "compose", "project_to_alpha_perp"])
def test_operands_of_two_lattices_are_refused_by_the_one_check(call):
    # each call refuses through lattice._check_same_lattice, and so with its
    # message, also for a lattice equal to K3 in rank and Gram matrix
    copy = Lattice("K3 copy", K3.gram)
    g = identity_isometry(K3)
    point = PeriodPoint(E[0] + F[0], E[1] + F[1])
    refused = {
        "apply": lambda: g.apply(copy.basis_vector(0)),
        "compose": lambda: g.compose(identity_isometry(copy)),
        "project_to_alpha_perp": lambda: project_to_alpha_perp(copy.basis_vector(4), point),
    }[call]
    with pytest.raises(ValueError, match="different lattices"):
        refused()


def test_same_component_refuses_planes_of_two_lattices():
    # same_component pairs the integer numerators, which carry no lattice,
    # so it checks the two planes' lattice once, with the same message
    copy = Lattice("K3 copy", K3.gram)
    with pytest.raises(ValueError, match="different lattices"):
        same_component(standard_plane(K3), standard_plane(copy))


@pytest.mark.parametrize("method", ["compose", "inverse", "_transvected"])
def test_exit_check_catches_faulty_products(monkeypatch, method):
    # the fault adds e1 to the image of the last E8 basis vector; the pairs
    # have no E8 part, so their images stay right and only M^T G M = G sees
    # it.  A reference pair takes no move, so the pair is moved off it by
    # transvections inside H^3 to make its standardization build a product.
    # The mover builds its product with the row-update kernel _transvected,
    # so a faulty kernel reaches both exit checks; only lemma_iso inverts
    # and composes (phi = g^-1 gp), so a faulty inverse or compose reaches
    # its exit check alone
    def faulty_rows(rows):
        rows = [list(r) for r in rows]
        rows[0][-1] += 1
        return tuple(map(tuple, rows))

    if method == "_transvected":
        owner, kernel = isometry, isometry._transvected

        def faulty(*args):
            return faulty_rows(kernel(*args))
    else:
        owner, exact = Isometry, getattr(Isometry, method)

        def faulty(self, *other):
            rows = faulty_rows(exact(self, *other).matrix.rows)
            return Isometry._unchecked(self.lattice, IntMatrix(rows))

    kap, eta = standard_pair(2, 1, -1)
    kp, ep = kap, eta
    for t in (eichler_transvection(E[1], 2 * E[2] - F[0]),
              eichler_transvection(F[2], E[0] + 3 * F[1])):
        kp, ep = t.apply(kp), t.apply(ep)
    monkeypatch.setattr(owner, method, faulty)
    if method == "_transvected":
        with pytest.raises(InvariantError, match="exit check"):
            map_pair_to_standard(kp, ep)
    with pytest.raises(InvariantError, match="exit check"):
        lemma_iso(kap, eta, kp, ep)


def test_exit_invariants_catch_faulty_parts(monkeypatch):
    # each InvariantError raised before an exit check, reached by one faulty part
    kap, eta = standard_pair(2, 1, -1)
    kp, ep = transvected_pair(random.Random(29), kap, eta, 3)
    with monkeypatch.context() as patch:
        patch.setattr(isometry._Mover, "isometry", lambda self: identity_isometry(K3))
        with pytest.raises(InvariantError, match="missed the reference pair"):
            map_pair_to_standard(kp, ep)
    with monkeypatch.context() as patch:
        patch.setattr(isometry, "preserves_components", lambda phi: False)
        with pytest.raises(InvariantError, match="predicted orientation"):
            lemma_iso(kap, eta, kp, ep)
    # lemma_iso standardizes its source pair without map_pair_to_standard, so
    # the faulty g is that of a moved target
    with monkeypatch.context() as patch:
        patch.setattr(isometry, "map_pair_to_standard", lambda k, e: identity_isometry(K3))
        with pytest.raises(InvariantError, match="misses the target pair"):
            lemma_iso(kp, ep, kap, eta)


@pytest.mark.parametrize("budget", [0, 1])
def test_step_budget_is_the_one_failure_site(monkeypatch, tmp_path, capsys, budget):
    # the step bound of _unitize, computed from its input, is proven never
    # to run out on a primitive pair; a bound that does is reported as a
    # failed construction, not as a wrong answer
    monkeypatch.setattr(isometry, "_step_bound", lambda m, slots: budget)
    kap, eta = standard_pair(2, 1, -1)
    kp, ep = transvected_pair(random.Random(29), kap, eta, 3)
    with pytest.raises(StandardizationError, match=f"in {budget} steps"):
        map_pair_to_standard(kp, ep)
    with pytest.raises(StandardizationError):
        lemma_iso(kap, eta, kp, ep)
    doc = {"kappa": kap.coords, "eta": eta.coords, "kappa_p": kp.coords, "eta_p": ep.coords}
    path = tmp_path / "pairs.json"
    path.write_text(json.dumps(doc))
    assert main(["isometry", "--pairs", str(path)]) == 1
    out = capsys.readouterr().out
    assert "[PASS] isometry:gram-data" in out
    assert "[FAIL] isometry:construction" in out


class EagerMover:
    """Test-only oracle: the former mover.  Every move is built as a matrix,
    checked in full (M^T G M = G) and composed into the running product at
    once; the working coordinates are moved by that matrix, in place in one
    list, as _Mover keeps them."""

    def __init__(self, v):
        self.lattice = v.lattice
        self.coords = list(v.coords)
        self.iso = identity_isometry(v.lattice)

    def push(self, g):
        self.coords[:] = g.apply(self.lattice.vector(self.coords)).coords
        self.iso = g.compose(self.iso)

    def transvect(self, e, a):
        if any(a.coords):
            t = eichler_transvection(e, a)
            self.push(Isometry(t.lattice, t.matrix))

    def move(self, mapping):
        n = self.lattice.rank
        rows = [[0] * n for _ in range(n)]
        for j in range(n):
            k, s = mapping.get(j, (j, 1))
            rows[k][j] = s
        self.push(Isometry(self.lattice, IntMatrix(rows)))

    def restart(self, v):
        self.coords[:] = self.iso.apply(v).coords

    def isometry(self):
        return self.iso

    def block_part(self, b):
        coords = [0] * self.lattice.rank
        for i in K3_BLOCKS[b]:
            coords[i] = self.coords[i]
        return self.lattice.vector(coords)


def eager_map_pair(kap, eta):
    """map_pair_to_standard driven by the eager oracle mover."""
    recorded = isometry._Mover
    isometry._Mover = EagerMover
    try:
        return map_pair_to_standard(kap, eta)
    finally:
        isometry._Mover = recorded


def per_move_product(mover):
    """Test-only oracle: the former build, one product per recorded move
    (every transvection its own factor, composed onto the identity)."""
    acc = identity_isometry(mover.lattice)
    for move in mover.moves:
        if isinstance(move, dict):
            rows = list(acc.matrix.rows)
            for j, (k, s) in move.items():
                rows[k] = tuple(s * y for y in acc.matrix.rows[j])
            acc = Isometry(mover.lattice, IntMatrix(rows))
        else:
            acc = eichler_transvection(*move[:2]).compose(acc)
    return acc


def recorded_mover(kap, eta):
    """The mover of map_pair_to_standard(kap, eta) after both stages."""
    m = isometry._Mover(kap)
    isometry._standardize_vector(m)
    m.restart(eta)
    isometry._standardize_partner(m, norm(kap) // 2)
    return m


def same_base_neighbours(mover):
    """Recorded transvections that directly follow one with the same base."""
    return sum(
        1 for prev, mv in zip(mover.moves, mover.moves[1:])
        if not isinstance(prev, dict) and not isinstance(mv, dict)
        and prev[0].coords == mv[0].coords
    )


def bench_law_pair(rng):
    """The isometry-pairs benchmark law: e1 + l0 f1 and -l1 f1 + e2 + l2 f2,
    moved by 1-4 transvections whose base is a hyperbolic basis vector and
    whose argument gets three random bumps off the base's partner."""
    l0, l1, l2 = (rng.randint(-9, 9) for _ in range(3))
    kap, eta = standard_pair(l0, -l1, l2)
    for _ in range(rng.randint(1, 4)):
        base_i = rng.randrange(6)
        arg = [0] * K3.rank
        for _ in range(3):
            j = rng.randrange(K3.rank)
            if j != _PARTNER[base_i]:
                arg[j] += rng.randint(-2, 2)
        t = eichler_transvection(K3.basis_vector(base_i), K3.vector(arg))
        kap, eta = t.apply(kap), t.apply(eta)
    return kap, eta


def test_recorded_moves_match_eager_oracle():
    rng = random.Random(7919)
    for _ in range(25):
        kap, eta = bench_law_pair(rng)
        g = map_pair_to_standard(kap, eta)
        assert g.matrix == eager_map_pair(kap, eta).matrix
        assert (g.apply(kap), g.apply(eta)) == standard_pair(
            norm(kap) // 2, pairing(kap, eta), norm(eta) // 2)


def sparse_coords(entries):
    coords = [0] * K3.rank
    for i, c in entries.items():
        coords[i] = c
    return coords


SPARSE = st.lists(st.one_of(st.just(0), st.integers(-50, 50)), min_size=22, max_size=22)


# the examples reach each exit of the q == 0 spare-slot loop in _unitize
# (a nonzero e slot, a nonzero f slot, an empty spare plane -> content pull)
@settings(max_examples=40, deadline=None)
@given(k=SPARSE, e=SPARSE)
@example(k=sparse_coords({2: 2, 5: 3}), e=sparse_coords({0: 1}))
@example(k=sparse_coords({3: 2, 5: 3}), e=sparse_coords({0: 1}))
@example(k=sparse_coords({6: 1}), e=sparse_coords({14: 1}))
def test_random_primitive_pairs_standardize(k, e):
    # primitive embeddings of one rank-2 Gram datum form one orbit
    # (Nikulin, Thm. 1.14.4), so every such pair must reach the reference pair
    assume(any(k[i] * e[j] != k[j] * e[i] for i in range(K3.rank) for j in range(i)))
    kap, eta = K3.vector(k), K3.vector(e)
    assume(is_primitive_embedding([kap, eta]))
    ref = standard_pair(norm(kap) // 2, pairing(kap, eta), norm(eta) // 2)
    g = map_pair_to_standard(kap, eta)
    assert (g.apply(kap), g.apply(eta)) == ref
    assert g.matrix == eager_map_pair(kap, eta).matrix
    m = recorded_mover(kap, eta)
    assert m.isometry().matrix == per_move_product(m).matrix == g.matrix
    for preserve in (True, False):
        phi = lemma_iso(*ref, kap, eta, preserve=preserve)
        assert (phi.apply(kap), phi.apply(eta)) == ref
        assert preserves_components(phi) == preserve


def large_pair(bits, seed):
    """22 integers per vector from random.Random(seed).randint(-2^bits, 2^bits),
    kappa then eta."""
    rng = random.Random(seed)
    return tuple(K3.vector([rng.randint(-2**bits, 2**bits) for _ in range(K3.rank)])
                 for _ in range(2))


@pytest.mark.parametrize("bits, seed", [(26, 1), (32, 2), (40, 3)])
def test_pairs_with_large_entries_standardize(bits, seed, tmp_path, capsys):
    # A fixed budget of 60 passes of _unitize refused 5, 11 and 22 of 40
    # such pairs at 26, 28 and 30 bits, and each of these three; the bound
    # from the input's bit length admits every primitive pair.  The three
    # cases take about 2.4 s, most of it at 40 bits; larger pairs stay out,
    # as each spends about 0.1 s in is_primitive_embedding's Smith form.
    kap, eta = large_pair(bits, seed)
    assert is_primitive_embedding([kap, eta])
    g = map_pair_to_standard(kap, eta)
    assert (g.apply(kap), g.apply(eta)) == standard_pair(
        norm(kap) // 2, pairing(kap, eta), norm(eta) // 2)
    # a target moved by a known transvection chain, orientation reversed
    target = kap, eta
    for t in (eichler_transvection(E[1], 2 * E[2] - F[0] + K3.basis_vector(9)),
              eichler_transvection(F[2], E[0] + 3 * F[1] - K3.basis_vector(14))):
        target = tuple(map(t.apply, target))
    phi = lemma_iso(*target, kap, eta, preserve=False)
    assert (phi.apply(kap), phi.apply(eta)) == target
    assert not preserves_components(phi)
    # the identity request through the command line
    doc = {"kappa": kap.coords, "eta": eta.coords, "kappa_p": kap.coords, "eta_p": eta.coords}
    path = tmp_path / "pairs.json"
    path.write_text(json.dumps(doc))
    assert main(["isometry", "--pairs", str(path)]) == 0
    out = capsys.readouterr().out
    assert "[PASS] isometry:images" in out and "[FAIL]" not in out


def gram_is_preserved(m):
    """M^T G M == G by plain sums over the Gram rows, without IntMatrix.mul."""
    g, n = K3.gram.rows, K3.rank
    gm = [[sum(g[i][k] * m[k][j] for k in range(n)) for j in range(n)] for i in range(n)]
    return all(
        sum(m[k][i] * gm[k][j] for k in range(n)) == g[i][j] for i in range(n) for j in range(n)
    )


@settings(max_examples=40, deadline=None)
@given(
    plane=st.integers(0, 2),
    v=st.lists(st.integers(-2, 2), min_size=22, max_size=22),
    x=st.lists(st.integers(-3, 3), min_size=22, max_size=22),
    y=st.lists(st.integers(-3, 3), min_size=22, max_size=22),
)
@example(plane=0, v=sparse_coords({2: 1}), x=sparse_coords({1: 1}), y=sparse_coords({3: 1}))
def test_transvection_preserves_the_form(plane, v, x, y):
    # e = e_i + k f_i + r with r ⊥ H_i and k = -(r,r)/2 is isotropic, and
    # not a basis vector unless r = 0 (the example is e1 + e2);
    # a = (x,e) y - (y,e) x is orthogonal to e
    v[2 * plane] = v[2 * plane + 1] = 0
    r = K3.vector(v)
    e = E[plane] + (-norm(r) // 2) * F[plane] + r
    xv, yv = K3.vector(x), K3.vector(y)
    a = pairing(xv, e) * yv - pairing(yv, e) * xv
    assert norm(e) == 0 and pairing(e, a) == 0
    t = eichler_transvection(e, a)
    assert gram_is_preserved(t.matrix.rows)
    assert t.matrix == transvection_by_images(e, a)


@pytest.mark.parametrize("preserve", [True, False])
def test_lemma_iso_checks_each_result_once(monkeypatch, preserve):
    # each non-identity matrix that leaves the module is checked once in
    # full: g when it moves (a model pair maps by the identity), and phi.
    # gp, the product of the source pair's moves, stays inside lemma_iso
    # and is built unchecked, so its matrix meets a full check only as
    # phi's, which it is whenever g is the identity: the flip, when needed,
    # is gp's last move.  The orientation is decided before the build, so
    # each call checks it once, on phi.  A pair in reference position builds
    # nothing, so the mover builds g only for a moved target and gp only
    # for a moved source.  The flip negates two rows of gp and builds no
    # checked isometry
    ref = standard_pair(-2, -8, -2)
    moved = transvected_pair(random.Random(29), *ref, 3)
    cases = {
        "model": (ref, moved, 1),
        "moved": (transvected_pair(random.Random(31), *ref, 2), moved, 2),
        "reference": (ref, ref, 0 if preserve else 1),
    }
    full_check = Isometry.__post_init__
    build = isometry._Mover.isometry
    calls, oriented, built = [], [], []

    def counted(self):
        calls.append(self.matrix)
        full_check(self)

    monkeypatch.setattr(Isometry, "__post_init__", counted)
    monkeypatch.setattr(isometry._Mover, "isometry",
                        lambda m: built.append(build(m)) or built[-1])
    monkeypatch.setattr(isometry, "preserves_components",
                        lambda phi: oriented.append(phi.matrix) or preserves_components(phi))
    for case, (target, source, checks) in cases.items():
        calls.clear()
        oriented.clear()
        built.clear()
        phi = lemma_iso(*target, *source, preserve=preserve)
        assert len(calls) == len(set(calls)) == checks, case
        assert phi.matrix in calls or phi.matrix == IntMatrix.identity(K3.rank), case
        assert len(built) == {"model": 1, "moved": 2, "reference": 0}[case], case
        for gp in built[-1:]:  # g when the target moved, then gp
            assert gp.matrix not in calls or gp.matrix == phi.matrix, case
        assert oriented == [phi.matrix], case


def test_merged_runs_match_per_move_oracle():
    rng = random.Random(7919)
    merged = 0
    for _ in range(25):
        kap, eta = bench_law_pair(rng)
        m = recorded_mover(kap, eta)
        assert m.isometry().matrix == per_move_product(m).matrix
        assert m.isometry().matrix == map_pair_to_standard(kap, eta).matrix
        merged += same_base_neighbours(m)
    assert merged > 0  # the law does produce same-base runs


def test_zero_sum_run_adds_no_factor(monkeypatch):
    # every factor passes the row-update kernel once: the first through
    # eichler_transvection (the kernel on I), each later one directly
    built = []
    kernel = isometry._transvected
    monkeypatch.setattr(isometry, "_transvected",
                        lambda rows, e, a, ge, w: built.append(a) or kernel(rows, e, a, ge, w))
    a = K3.vector(sparse_coords({2: 1, 6: 1, 7: -1}))
    m = isometry._Mover(E[1] + 3 * F[1])
    m.transvect(E[0], a)
    m.transvect(E[0], -1 * a)
    assert m.coords == list((E[1] + 3 * F[1]).coords)
    assert m.isometry().matrix == IntMatrix.identity(K3.rank)
    assert built == []
    # a run of one base is one factor by the sum; a new base starts a new run
    m.transvect(E[0], a)
    m.transvect(E[0], a)
    m.transvect(F[2], a)
    g = m.isometry()
    assert [b.coords for b in built] == [(2 * a).coords, a.coords]
    assert g.matrix == per_move_product(m).matrix


def test_a_run_of_one_move_reuses_its_recorded_data(monkeypatch):
    # building the product checks the data of a first factor (through
    # eichler_transvection) and of each merged run, by its summed argument;
    # a later run of one move is applied with the data checked when it was
    # recorded
    a = K3.vector(sparse_coords({2: 1, 6: 1, 7: -1}))
    b = K3.vector(sparse_coords({9: 2, 12: -1}))
    data = isometry._transvection_data
    checked = []
    for moves, expected in (
        ([(E[0], a), (F[2], b), (E[1], a)], [a]),
        ([(E[0], a), (E[0], b), (F[2], b), (E[1], a), (E[1], b)], [a + b, a + b]),
        ([(F[2], b), (E[0], a), (E[0], a), (F[2], a)], [b, 2 * a]),
    ):
        m = isometry._Mover(E[1] + 3 * F[1])
        for e, arg in moves:
            m.transvect(e, arg)
        checked.clear()
        monkeypatch.setattr(isometry, "_transvection_data",
                            lambda e, arg: checked.append(arg) or data(e, arg))
        g = m.isometry()
        monkeypatch.undo()
        assert checked == expected
        assert g.matrix == per_move_product(m).matrix


def test_replay_does_not_recheck_recorded_moves(monkeypatch):
    # restart replays each move with the data kept when it was recorded
    kap, eta = bench_law_pair(random.Random(3))
    m = isometry._Mover(kap)
    isometry._standardize_vector(m)
    recorded = len(m.moves)
    checked = []
    data = isometry._transvection_data
    monkeypatch.setattr(isometry, "_transvection_data",
                        lambda e, a: checked.append(a) or data(e, a))
    m.restart(eta)
    assert any(not isinstance(mv, dict) for mv in m.moves)
    assert len(m.moves) == recorded and checked == []


def former_lemma_iso(kappa, eta, kappa_p, eta_p, preserve=True):
    """Test-only oracle: the former lemma_iso, which built gp, checked the
    orientation of g^-1 gp and, when it was wrong, composed the flip after
    the build, g^-1 (flip gp), and checked the orientation again."""
    if (norm(kappa), norm(eta), pairing(kappa, eta)) != (
            norm(kappa_p), norm(eta_p), pairing(kappa_p, eta_p)):
        raise ValueError("pairs have different Gram data")
    g = map_pair_to_standard(kappa, eta)
    gp = map_pair_to_standard(kappa_p, eta_p)
    g_inv = g.inverse()
    phi = g_inv.compose(gp)
    if preserves_components(phi) != preserve:
        phi = g_inv.compose(flip_third_H(g.lattice).compose(gp))
        if preserves_components(phi) != preserve:
            raise InvariantError("lemma_iso: the third-plane flip did not fix the orientation")
    if phi.apply(kappa_p) != kappa or phi.apply(eta_p) != eta:
        raise InvariantError("lemma_iso: the isometry misses the target pair")
    return isometry._exit_check(phi)


def test_lemma_iso_matches_the_former_formula():
    # the flip decided from the characters of g and gp gives the matrix of
    # the former formula, on pairs of the isometry-pairs law sent to their
    # model pair (g is the identity) and to a moved copy of it (g moves
    # too), in both modes; all four sign pairs (char g, char gp) occur
    rng = random.Random(1)
    ident = IntMatrix.identity(K3.rank).rows
    signs = set()
    for _ in range(40):
        kp, ep = bench_law_pair(rng)
        ref = standard_pair(norm(kp) // 2, pairing(kp, ep), norm(ep) // 2)
        assert map_pair_to_standard(*ref).matrix.rows == ident
        gp_sign = preserves_components(map_pair_to_standard(kp, ep))
        for target in (ref, transvected_pair(rng, *ref, 2)):
            signs.add((preserves_components(map_pair_to_standard(*target)), gp_sign))
            for preserve in (True, False):
                phi = lemma_iso(*target, kp, ep, preserve=preserve)
                assert phi.matrix == former_lemma_iso(*target, kp, ep, preserve).matrix
    assert signs == set(product((True, False), repeat=2))


def test_perm_characters_match_preserves_components():
    # the character of the matrix itself: transvections +1, the rest by sign
    rng = random.Random(5)
    for g in (random_transvection(rng), minus_identity(), flip_third_H(K3),
              flip_third_H(K3).compose(random_transvection(rng))):
        assert isometry._character(g.matrix.rows) == (1 if preserves_components(g) else -1)


@pytest.mark.parametrize("preserve", [True, False])
def test_wrong_character_is_caught(monkeypatch, preserve):
    # a wrong character of gp puts the flip where it does not belong; the
    # orientation exit check on phi refuses the result.  Negating every
    # call would cancel in the product char(g) char(gp), so only the second
    # call of each lemma_iso, gp's factor, is negated
    calls = []
    character = isometry._character

    def wrong(rows):
        calls.append(rows)
        return -character(rows) if len(calls) % 2 == 0 else character(rows)

    monkeypatch.setattr(isometry, "_character", wrong)
    ref = standard_pair(2, 1, -1)
    moved = transvected_pair(random.Random(29), *ref, 3)
    for target, source in ((ref, ref), (ref, moved), (moved, ref)):
        with pytest.raises(InvariantError, match="predicted orientation"):
            lemma_iso(*target, *source, preserve=preserve)
    assert len(calls) == 6


@settings(max_examples=25, deadline=None)
@given(k=SPARSE, e=SPARSE)
@example(k=sparse_coords({2: 2, 5: 3}), e=sparse_coords({0: 1}))
def test_standardizing_is_idempotent(k, e):
    # the image (g kappa, g eta) of a primitive pair is a reference pair
    assume(any(k[i] * e[j] != k[j] * e[i] for i in range(K3.rank) for j in range(i)))
    kap, eta = K3.vector(k), K3.vector(e)
    assume(is_primitive_embedding([kap, eta]))
    g = map_pair_to_standard(kap, eta)
    image = g.apply(kap), g.apply(eta)
    assert recorded_mover(*image).moves == []
    assert map_pair_to_standard(*image).matrix == IntMatrix.identity(K3.rank)


def test_transvected_model_pairs_take_few_moves():
    # 40 pairs of the isometry-pairs law take 413 moves in all, against 763
    # when stage one drove the f1 coefficient to 1 and then swapped e1, f1
    rng = random.Random(1)
    pairs = [bench_law_pair(rng) for _ in range(40)]
    assert sum(len(recorded_mover(kap, eta).moves) for kap, eta in pairs) <= 413


def test_lemma_iso_matrices_match_the_recorded_digest():
    # sha256 over str(rows) of the first 300 isometry-pairs records of seeds
    # 1 and 7919.  The matrices change with the move sequence; each record
    # of a re-recording is first checked by the bench's own arithmetic
    # (images, M^T G M = G, a 3x3 orientation determinant).  Recorded with
    # least-absolute-remainder quotients in _unitize
    path = Path(__file__).resolve().parents[1] / "bench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("_bench_workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(sys, "dont_write_bytecode", True)
        patch.setitem(sys.modules, spec.name, workloads)
        spec.loader.exec_module(workloads)
    digest = hashlib.sha256()
    for seed in (1, 7919):
        records = workloads.Stream(seed, workloads.isometry_maker())
        for i in range(300):
            digest.update(str(workloads.run_isometry(isometry, K3, records[i])).encode())
    assert digest.hexdigest() == "0c1b382b5aaba89f1cec7879d82249a7d630bda836163252f07c9f7bb2528e9e"


def former_apply(phi, v):
    """Test-only oracle: the former apply, a dense dot product of each
    matrix row with v's numerators over v's denominator."""
    image = tuple(sum(a * b for a, b in zip(row, v.nums)) for row in phi.matrix.rows)
    if isinstance(v, LatticeVector):
        return LatticeVector(phi.lattice, image)
    return RationalVector(phi.lattice, image, v.den)


def lemma_iso_results(rng, count):
    """count non-identity lemma_iso results: pairs of the isometry-pairs law
    sent to a moved copy of their model pair, in a random mode."""
    out = []
    while len(out) < count:
        kp, ep = bench_law_pair(rng)
        ref = standard_pair(norm(kp) // 2, pairing(kp, ep), norm(ep) // 2)
        phi = lemma_iso(*transvected_pair(rng, *ref, 2), kp, ep, preserve=rng.random() < 0.5)
        if phi.matrix != IntMatrix.identity(K3.rank):
            out.append(phi)
    return out


def test_full_check_refuses_every_single_entry_perturbation():
    # the column-wise M^T (G M) of Isometry.__post_init__ against the dense
    # oracle: three lemma_iso results pass, and each of the 484 entries of
    # each, moved by +-1, gives a matrix that both refuse
    rng = random.Random(43)
    for phi in lemma_iso_results(rng, 3):
        rows = phi.matrix.rows
        assert gram_is_preserved(rows)
        assert Isometry(K3, phi.matrix).matrix == phi.matrix
        for i, j in product(range(K3.rank), repeat=2):
            bumped = [list(r) for r in rows]
            bumped[i][j] += rng.choice((1, -1))
            with pytest.raises(ValueError, match="does not preserve the pairing"):
                Isometry(K3, IntMatrix(bumped))
            assert not gram_is_preserved(bumped), (i, j)


def test_apply_matches_the_dense_row_oracle():
    # the image is the combination of the columns at v's nonzero coordinates:
    # the type of v, a rational image keeps v's denominator, and entries
    # too long for str() are never converted
    rng = random.Random(47)
    huge = 7 ** (3 * getattr(sys, "get_int_max_str_digits", lambda: 4300)())
    isometries = (*lemma_iso_results(rng, 3), minus_identity(), flip_third_H(K3),
                  identity_isometry(K3))
    for phi in isometries:
        vectors = (
            K3.vector([0] * K3.rank),
            K3.rational_vector([0] * K3.rank),
            K3.vector([rng.randint(-5, 5) for _ in range(K3.rank)]),
            K3.vector(sparse_coords({rng.randrange(6): 1, rng.randrange(6, 22): -3})),
            K3.rational_vector([Fraction(rng.randint(-9, 9), rng.randint(1, 6))
                                for _ in range(K3.rank)]),
            K3.vector(sparse_coords({0: huge, 7: -huge, 21: 1})),
            K3.rational_vector(sparse_coords({1: Fraction(huge, 3), 14: 1})),
        )
        for v in vectors:
            image = phi.apply(v)
            assert type(image) is type(v) and image.den == v.den
            assert image == former_apply(phi, v)


def former_preserves_components(phi):
    """Test-only oracle: the former route, the dense images of the rational
    standard plane's basis, then same_component."""
    p = standard_plane(K3)
    return same_component(p, OrientedPlane(tuple(former_apply(phi, b) for b in p.basis)))


def test_preserves_components_matches_the_former_route():
    # the image of e_i + f_i is the sum of two columns; products of 1-3
    # transvections with the flip or -1 on either side give both characters
    rng = random.Random(53)
    signs = (identity_isometry(K3), flip_third_H(K3), minus_identity())
    seen = set()
    for _ in range(200):
        phi = rng.choice(signs)
        for _ in range(rng.randint(1, 3)):
            phi = random_transvection(rng).compose(phi)
        phi = rng.choice(signs).compose(phi)
        expected = former_preserves_components(phi)
        assert preserves_components(phi) == expected
        seen.add(expected)
    assert seen == {True, False}


def test_compose_after_the_shared_identity_is_the_other_factor():
    # g^-1 of a target in reference position is the shared identity, which
    # int_inverse returns unchanged; an identity built elsewhere multiplies
    g = random_transvection(random.Random(59))
    ident = identity_isometry(K3)
    assert ident.compose(g) is g and ident.inverse().compose(g) is g
    other = Isometry(K3, IntMatrix.identity(K3.rank))
    assert other.matrix.rows is not ident.matrix.rows
    product = other.compose(g)
    assert product is not g and product.matrix == g.matrix
