"""Integral isometries and the constructive standardization of pairs.

An Isometry wraps an integer matrix that provably preserves the Gram
matrix; every constructor re-checks this, so no unverified isometry can
escape the module.

map_pair_to_standard moves a primitive pair (kappa, eta) onto the
reference pair

    e1 + (kappa,kappa)/2 * f1,
    (kappa,eta) * f1 + e2 + (eta,eta)/2 * f2

by a finite product of Eichler transvections and hyperbolic block
moves.  The core is a euclidean reduction on the hyperbolic
coefficients (transvections with isotropic arguments shift them with no
quadratic correction), with the definite blocks acting as content
reservoirs when the hyperbolic gcd bottoms out above 1.  Every branch
ends in a direct verification of the result; if no sequence is found
the failure is an explicit StandardizationError, never a wrong answer.
"""

import random
from dataclasses import dataclass
from functools import cached_property
from math import gcd

from .exact_linalg import IntMatrix, content, det, int_inverse, xgcd_vector
from .lattice import (
    K3_TAGS,
    Lattice,
    LatticeVector,
    RationalVector,
    norm,
    pairing,
)
from .period import OrientedPlane, same_component, standard_plane
from .sublattice import is_primitive_embedding

E1, F1, E2, F2, E3, F3 = 0, 1, 2, 3, 4, 5

_MAX_ROUNDS = 12
_STEP_BUDGET = 60


class StandardizationError(Exception):
    """No move sequence was found; the input is outside the certified range."""


@dataclass(frozen=True)
class Isometry:
    lattice: Lattice
    matrix: IntMatrix

    def __post_init__(self):
        n = self.lattice.rank
        if self.matrix.nrows != n or self.matrix.ncols != n:
            raise ValueError("matrix shape does not match the lattice rank")
        g = self.lattice.gram
        if self.matrix.transpose().mul(g).mul(self.matrix) != g:
            raise ValueError("matrix does not preserve the pairing")

    @cached_property
    def det(self) -> int:
        d = det(self.matrix)
        assert d in (1, -1)
        return d

    def apply(self, v):
        nums = v.nums
        image = tuple(sum(a * x for a, x in zip(row, nums)) for row in self.matrix.rows)
        if isinstance(v, LatticeVector):
            return LatticeVector(self.lattice, image)
        # an integral matrix acts on the numerators; the denominator is kept
        return RationalVector(self.lattice, image, v.den)

    def compose(self, other: "Isometry") -> "Isometry":
        """self after other (matrix product, column action)."""
        return Isometry(self.lattice, self.matrix.mul(other.matrix))

    def inverse(self) -> "Isometry":
        return Isometry(self.lattice, int_inverse(self.matrix))


def verify(m: IntMatrix, lattice: Lattice) -> Isometry:
    return Isometry(lattice, m)


def identity_isometry(lattice: Lattice) -> Isometry:
    return Isometry(lattice, IntMatrix.identity(lattice.rank))


def _from_images(lattice: Lattice, images) -> Isometry:
    # images[j] is where basis vector j goes; columns of the matrix
    n = lattice.rank
    rows = [[images[j].coords[i] for j in range(n)] for i in range(n)]
    return Isometry(lattice, IntMatrix(rows))


def eichler_transvection(e: LatticeVector, a: LatticeVector) -> Isometry:
    """x |-> x + (x,e)a - (x,a)e - (a,a)/2 (x,e)e for isotropic e with e ⊥ a."""
    lattice = e.lattice
    if norm(e) != 0:
        raise ValueError("transvection base must be isotropic")
    if pairing(e, a) != 0:
        raise ValueError("transvection argument must be orthogonal to the base")
    half = norm(a) // 2
    assert 2 * half == norm(a)
    images = []
    for j in range(lattice.rank):
        x = lattice.basis_vector(j)
        xe = pairing(x, e)
        xa = pairing(x, a)
        images.append(x + xe * a - (xa + half * xe) * e)
    return _from_images(lattice, images)


def _signed_basis_images(lattice: Lattice, mapping) -> Isometry:
    # mapping: index -> (index, sign); identity elsewhere
    images = []
    for j in range(lattice.rank):
        k, s = mapping.get(j, (j, 1))
        v = lattice.basis_vector(k)
        images.append(v if s == 1 else -1 * v)
    return _from_images(lattice, images)


def flip_third_H(lattice: Lattice) -> Isometry:
    """Negate the third hyperbolic summand; reverses plane orientation."""
    return _signed_basis_images(lattice, {E3: (E3, -1), F3: (F3, -1)})


def _negate_pair(lattice: Lattice, ef) -> Isometry:
    e, f = ef
    return _signed_basis_images(lattice, {e: (e, -1), f: (f, -1)})


def _swap_pair(lattice: Lattice, ef) -> Isometry:
    e, f = ef
    return _signed_basis_images(lattice, {e: (f, 1), f: (e, 1)})


def _swap_pairs(lattice: Lattice, ef1, ef2) -> Isometry:
    """Exchange two hyperbolic pairs, first slot with first slot."""
    return _signed_basis_images(
        lattice,
        {ef1[0]: (ef2[0], 1), ef1[1]: (ef2[1], 1),
         ef2[0]: (ef1[0], 1), ef2[1]: (ef1[1], 1)},
    )


def preserves_components(phi: Isometry) -> bool:
    p = standard_plane(phi.lattice)
    image = OrientedPlane(tuple(phi.apply(b) for b in p.basis))
    return same_component(p, image)


# ---------------------------------------------------------------------------
# standardization machinery


class _Mover:
    """Working vector plus the isometry accumulated so far."""

    def __init__(self, v: LatticeVector):
        self.lattice = v.lattice
        self.vector = v
        self.iso = identity_isometry(v.lattice)

    def push(self, iso: Isometry):
        self.vector = iso.apply(self.vector)
        self.iso = iso.compose(self.iso)

    def transvect(self, e: LatticeVector, a: LatticeVector):
        if not a.coords or all(c == 0 for c in a.coords):
            return
        self.push(eichler_transvection(e, a))

    def basis(self, i: int) -> LatticeVector:
        return self.lattice.basis_vector(i)

    def coeff(self, i: int) -> int:
        return self.vector.coords[i]

    def block_part(self, b: int) -> LatticeVector:
        coords = [0] * self.lattice.rank
        for i in K3_TAGS.blocks[b]:
            coords[i] = self.vector.coords[i]
        return self.lattice.vector(coords)


def _block_functional(m: _Mover, b: int):
    """Content of the pairing functional of the block part, and a vector
    realizing it: (part, u) = content.  Returns (0, None) on empty part."""
    idx = list(K3_TAGS.blocks[b])
    part = [m.vector.coords[i] for i in idx]
    if all(c == 0 for c in part):
        return 0, None
    g = m.lattice.gram.rows
    fs = [sum(part[r] * g[idx[r]][j] for r in range(len(idx))) for j in idx]
    c, coeffs = xgcd_vector(fs)
    coords = [0] * m.lattice.rank
    for j, co in zip(idx, coeffs):
        coords[j] = co
    return c, m.lattice.vector(coords)


def _scramble_full(m: _Mover, round_: int):
    rng = random.Random(7919 * round_ + 11)
    slots = list(range(m.lattice.rank))
    partner = {E1: F1, F1: E1, E2: F2, F2: E2, E3: F3, F3: E3}
    for _ in range(round_):
        base_i = rng.choice((E1, F1, E2, F2, E3, F3))
        coords = [0] * m.lattice.rank
        for i in slots:
            if i == partner[base_i]:
                continue
            coords[i] = rng.randint(-1, 1)
        arg = m.lattice.vector(coords)
        if pairing(m.basis(base_i), arg) != 0:
            continue
        m.transvect(m.basis(base_i), arg)


def _standard_first(lattice: Lattice, l0: int) -> LatticeVector:
    return lattice.basis_vector(E1) + l0 * lattice.basis_vector(F1)


@dataclass(frozen=True)
class _Roles:
    """Index bookkeeping for the unitizer.

    h1 is the hyperbolic pair whose second coordinate gets driven to 1,
    spares are the free hyperbolic pairs, blocks index the definite
    summands, and extra is an optional vector orthogonal to all of the
    above that acts as a rank-one content reservoir.  Stage two passes
    the vector that must stay fixed alongside the first target as extra;
    every move the engine emits is then automatically orthogonal to it.
    """

    h1: tuple
    spares: tuple
    blocks: tuple
    extra: LatticeVector | None = None


def _channels(m: _Mover, roles: _Roles):
    """Available content channels as (value, u) with (v, u) = value > 0."""
    out = []
    for b in roles.blocks:
        c, u = _block_functional(m, b)
        if u is not None:
            out.append((c, u))
    if roles.extra is not None:
        r = pairing(m.vector, roles.extra)
        if r > 0:
            out.append((r, roles.extra))
        elif r < 0:
            out.append((-r, -1 * roles.extra))
    return out


def _pull_content(m: _Mover, roles: _Roles) -> bool:
    """Write the gcd of the content channels into the first spare slot.

    The caller guarantees the spare plane is empty, which keeps every
    pull linear: no quadratic correction, no write-back into the
    reservoirs, and the channel values stay valid across pulls."""
    chans = _channels(m, roles)
    if not chans:
        return False
    ei, _ = roles.spares[0]
    _, coeffs = xgcd_vector([val for val, u in chans])
    for (val, u), co in zip(chans, coeffs):
        if co:
            m.transvect(m.basis(ei), (-co) * u)
    return True


def _unitize(m: _Mover, roles: _Roles) -> bool:
    """Drive m.coeff(roles.h1[1]) to exactly 1.

    Euclidean strategy: transvections with isotropic arguments shift one
    hyperbolic coefficient by an integer multiple of another with no
    quadratic correction, so the working coefficient q and the spare
    coefficients can run the euclidean algorithm exactly, with all the
    junk landing in coefficients the algorithm never reads.  When the
    hyperbolic part bottoms out at a gcd > 1, one clean content pull
    injects the reservoir gcd, which is coprime to it whenever the input
    is primitive across the role summands, and the reduction restarts.
    |q| strictly decreases between pulls, so this terminates well inside
    the step budget.

    Every move is an Eichler transvection or a block sign/swap whose
    base and argument lie inside the role summands, so whatever is
    orthogonal to all of them stays fixed.
    """
    lattice = m.lattice
    e1i, f1i = roles.h1
    e1, f1 = m.basis(e1i), m.basis(f1i)
    for _ in range(_STEP_BUDGET):
        q = m.coeff(f1i)
        if q == 1:
            return True
        if q == -1:
            m.push(_negate_pair(lattice, roles.h1))
            continue
        # a unit spare coefficient finishes in one anchor transvection:
        # E(f_sp, λ f1) adds λ * a to q, E(e_sp, λ f1) adds λ * b
        done = False
        for ei, fi in roles.spares:
            a, b = m.coeff(ei), m.coeff(fi)
            if a in (1, -1):
                m.transvect(m.basis(fi), ((1 - q) * a) * f1)
                done = True
                break
            if b in (1, -1):
                m.transvect(m.basis(ei), ((1 - q) * b) * f1)
                done = True
                break
        if done:
            continue
        if q == 0:
            if m.coeff(e1i) != 0:
                m.push(_swap_pair(lattice, roles.h1))
                continue
            for ei, fi in roles.spares:
                if m.coeff(ei) != 0:
                    m.transvect(m.basis(fi), f1)  # q += a, clean: p = 0
                    break
                if m.coeff(fi) != 0:
                    m.transvect(m.basis(ei), f1)
                    break
            else:
                if not _pull_content(m, roles):
                    return False
            continue
        # |q| >= 2: reduce every spare coefficient mod q (E(e1, t e_sp)
        # adds t q to a, polluting only p), then swap the smallest
        # nonzero remainder into the q slot
        for ei, fi in roles.spares:
            for idx in (ei, fi):
                t = -(m.coeff(idx) // q)
                if t:
                    m.transvect(e1, t * m.basis(idx))
        best = None
        for ei, fi in roles.spares:
            for idx in (ei, fi):
                a = m.coeff(idx)
                if a != 0 and (best is None or abs(a) < abs(m.coeff(best))):
                    best = idx
        if best is None:
            # hyperbolic part is p e1 + q f1; euclid on (p, q) rides in
            # a spare slot (the write is clean because the plane is empty)
            ei, fi = roles.spares[0]
            m.transvect(f1, m.basis(ei))  # a += p
            t = -(m.coeff(ei) // q)
            if t:
                m.transvect(e1, t * m.basis(ei))
            if m.coeff(ei) == 0:
                # q divides the whole hyperbolic part; bring in the
                # reservoir gcd, coprime to q by primitivity
                if not _pull_content(m, roles):
                    return False
            continue
        for ei, fi in roles.spares:
            if best == ei:
                m.push(_swap_pair(lattice, (ei, fi)))
                best = fi
            if best == fi:
                m.push(_swap_pairs(lattice, roles.h1, (ei, fi)))
                break
    return False


_FIRST_ROLES = _Roles(h1=(E1, F1), spares=((E2, F2), (E3, F3)), blocks=(0, 1))


def _standardize_vector(kappa: LatticeVector) -> Isometry:
    """Isometry taking kappa to e1 + (kappa,kappa)/2 f1."""
    lattice = kappa.lattice
    l0 = norm(kappa) // 2
    target = _standard_first(lattice, l0)
    for round_ in range(_MAX_ROUNDS):
        m = _Mover(kappa)
        if round_:
            _scramble_full(m, round_)
        if not _unitize(m, _FIRST_ROLES):
            continue
        # v = p e1 + f1 + w; E(e1, -w) empties w, then the norm pins p
        w = m.vector - m.coeff(E1) * m.basis(E1) - m.basis(F1)
        m.transvect(m.basis(E1), -1 * w)
        m.push(_swap_pair(lattice, (E1, F1)))
        if m.vector == target:
            return m.iso
    raise StandardizationError("first vector: no move sequence found")


def _scramble_fixing_first(m: _Mover, round_: int, c: LatticeVector):
    # bases and arguments orthogonal to e1 + l0 f1
    rng = random.Random(104729 * round_ + 5)
    partner = {E2: F2, F2: E2, E3: F3, F3: E3}
    free = [E2, F2, E3, F3] + [i for b in K3_TAGS.blocks for i in b]
    for _ in range(round_):
        base_i = rng.choice((E2, F2, E3, F3))
        coords = [0] * m.lattice.rank
        for i in free:
            if i == partner[base_i]:
                continue
            coords[i] = rng.randint(-1, 1)
        arg = m.lattice.vector(coords) + rng.randint(-1, 1) * c
        if pairing(m.basis(base_i), arg) != 0:
            continue
        m.transvect(m.basis(base_i), arg)


def _standardize_partner(m: _Mover, l0: int) -> bool:
    """Assuming the first vector is already e1 + l0 f1, finish eta.

    Same engine as stage one, with the roles shifted down one plane:
    H2 carries the target coordinate, H3 is the only spare, and the
    (-2 l0)-vector c = e1 - l0 f1 joins the definite blocks as a content
    channel.  Primitivity of the pair makes the reservoir gcd coprime to
    whatever the hyperbolic reduction bottoms out at, so the content
    pull inside _unitize always restarts it."""
    lattice = m.lattice
    coords = [0] * lattice.rank
    coords[E1], coords[F1] = 1, -l0
    c = lattice.vector(coords)  # e1 - l0 f1, orthogonal to e1 + l0 f1
    roles = _Roles(h1=(F2, E2), spares=((E3, F3),), blocks=(0, 1), extra=c)
    if not _unitize(m, roles):
        return False
    # kill order matters: each step must not disturb what is already clean
    f2 = m.basis(F2)
    m.transvect(f2, -m.coeff(F3) * m.basis(F3))
    m.transvect(f2, -m.coeff(E3) * m.basis(E3))
    m.transvect(f2, -1 * m.block_part(0))
    m.transvect(f2, -1 * m.block_part(1))
    m.transvect(f2, -m.coeff(E1) * c)
    return True


def map_pair_to_standard(kappa: LatticeVector, eta: LatticeVector) -> Isometry:
    """Isometry g with g(kappa), g(eta) in the reference position.

    Raises StandardizationError when the staged search exhausts its
    budget; the returned isometry is always verified.
    """
    lattice = kappa.lattice
    if not is_primitive_embedding([kappa, eta]):
        raise ValueError("pair is not a primitive embedding")
    l0 = norm(kappa) // 2
    mval = pairing(kappa, eta)
    half_eta = norm(eta) // 2
    e1, f1 = lattice.basis_vector(E1), lattice.basis_vector(F1)
    e2, f2 = lattice.basis_vector(E2), lattice.basis_vector(F2)
    target_k = e1 + l0 * f1
    target_e = mval * f1 + e2 + half_eta * f2

    g1 = _standardize_vector(kappa)
    for round_ in range(_MAX_ROUNDS):
        m = _Mover(g1.apply(eta))
        coords = [0] * lattice.rank
        coords[E1], coords[F1] = 1, -l0
        if round_:
            _scramble_fixing_first(m, round_, lattice.vector(coords))
        if not _standardize_partner(m, l0):
            continue
        g = m.iso.compose(g1)
        if g.apply(kappa) == target_k and g.apply(eta) == target_e:
            return g
    raise StandardizationError("second vector: no move sequence found")


def lemma_iso(
    kappa: LatticeVector,
    eta: LatticeVector,
    kappa_p: LatticeVector,
    eta_p: LatticeVector,
    preserve: bool = True,
) -> Isometry:
    """Verified isometry taking (kappa_p, eta_p) to (kappa, eta) and
    preserving (or reversing) the orientation of positive 3-planes."""
    if (
        norm(kappa) != norm(kappa_p)
        or norm(eta) != norm(eta_p)
        or pairing(kappa, eta) != pairing(kappa_p, eta_p)
    ):
        raise ValueError("pairs have different Gram data")
    g = map_pair_to_standard(kappa, eta)
    gp = map_pair_to_standard(kappa_p, eta_p)
    phi = g.inverse().compose(gp)
    if preserves_components(phi) != preserve:
        phi = g.inverse().compose(flip_third_H(g.lattice)).compose(gp)
    assert phi.apply(kappa_p) == kappa and phi.apply(eta_p) == eta
    assert preserves_components(phi) == preserve
    return phi
