"""Integral isometries and the constructive standardization of pairs.

An Isometry wraps an integer matrix M with M^T G M = G.  The invariant is
kept in three ways:

- every matrix built from data (the constructor, transvections, signed
  basis permutations) is checked explicitly on construction;
- compose and inverse are not re-checked, because they are isometries by
  algebra: if A^T G A = G and B^T G B = G then
  (AB)^T G (AB) = B^T (A^T G A) B = G, and multiplying A^T G A = G by
  A^-T on the left and A^-1 on the right gives (A^-1)^T G A^-1 = G;
- map_pair_to_standard and lemma_iso re-check the isometry they return
  once, in full, so a fault anywhere in the move engine surfaces as an
  InvariantError instead of a wrong answer.

map_pair_to_standard moves a primitive pair (kappa, eta) onto the
reference pair

    e1 + (kappa,kappa)/2 * f1,
    (kappa,eta) * f1 + e2 + (eta,eta)/2 * f2

by a finite product of Eichler transvections and hyperbolic block
moves.  The core is a euclidean reduction on the hyperbolic
coefficients (transvections with isotropic arguments shift them with no
quadratic correction), with the definite blocks acting as content
reservoirs when the hyperbolic gcd bottoms out above 1.  One pass either
reaches the reference pair or raises StandardizationError; it never
returns a wrong answer.
"""

from dataclasses import dataclass
from functools import cached_property

from .exact_linalg import IntMatrix, det, int_inverse, xgcd_vector
from .lattice import (
    K3_TAGS,
    Lattice,
    LatticeVector,
    RationalVector,
    norm,
    pairing,
)
from .period import InvariantError, OrientedPlane, same_component, standard_plane
from .sublattice import is_primitive_embedding

E1, F1, E2, F2, E3, F3 = 0, 1, 2, 3, 4, 5

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
        # M^T (G M): G is sparse and the row-sparse product makes a
        # near-identity M cheap
        if self.matrix.transpose().mul(g.mul(self.matrix)) != g:
            raise ValueError("matrix does not preserve the pairing")

    @classmethod
    def _unchecked(cls, lattice: Lattice, matrix: IntMatrix) -> "Isometry":
        # only for products and inverses of isometries (module docstring)
        iso = object.__new__(cls)
        object.__setattr__(iso, "lattice", lattice)
        object.__setattr__(iso, "matrix", matrix)
        return iso

    @cached_property
    def det(self) -> int:
        d = det(self.matrix)
        if d not in (1, -1):
            raise ValueError(f"determinant {d} is not +-1: the lattice is degenerate")
        return d

    def apply(self, v):
        if v.lattice is not self.lattice and v.lattice != self.lattice:
            raise ValueError("vector does not live in the isometry's lattice")
        nums = v.nums
        image = tuple(sum(a * x for a, x in zip(row, nums)) for row in self.matrix.rows)
        if isinstance(v, LatticeVector):
            return LatticeVector(self.lattice, image)
        # an integral matrix acts on the numerators; the denominator is kept
        return RationalVector(self.lattice, image, v.den)

    def compose(self, other: "Isometry") -> "Isometry":
        """self after other (matrix product, column action)."""
        if other.lattice is not self.lattice and other.lattice != self.lattice:
            raise ValueError("isometries of different lattices do not compose")
        return Isometry._unchecked(self.lattice, self.matrix.mul(other.matrix))

    def inverse(self) -> "Isometry":
        return Isometry._unchecked(self.lattice, int_inverse(self.matrix))


def _exit_check(phi: Isometry) -> Isometry:
    """The full M^T G M = G check on an isometry leaving the module; a
    failure is a fault in the move engine, not bad input."""
    try:
        return Isometry(phi.lattice, phi.matrix)
    except ValueError as exc:
        raise InvariantError(f"constructed isometry fails its exit check: {exc}") from None


def identity_isometry(lattice: Lattice) -> Isometry:
    return Isometry(lattice, IntMatrix.identity(lattice.rank))


def eichler_transvection(e: LatticeVector, a: LatticeVector) -> Isometry:
    """x |-> x + (x,e)a - (x,a)e - (a,a)/2 (x,e)e for isotropic e with e ⊥ a.

    With ge = G e and w = G a + (a,a)/2 G e the matrix is the rank-2 update
    I + a ge^T - e w^T; for a basis vector e it is the identity plus one
    row and one column."""
    lattice = e.lattice
    if norm(e) != 0:
        raise ValueError("transvection base must be isotropic")
    if pairing(e, a) != 0:
        raise ValueError("transvection argument must be orthogonal to the base")
    na = norm(a)
    if na % 2:
        raise ValueError("transvection argument must have even norm")
    ge = lattice.gram.mul_vec(e.coords)
    w = [y + (na // 2) * x for x, y in zip(ge, lattice.gram.mul_vec(a.coords))]
    rows = []
    for i, (ai, ei) in enumerate(zip(a.coords, e.coords)):
        row = [ai * x - ei * y for x, y in zip(ge, w)]
        row[i] += 1
        rows.append(tuple(row))
    return Isometry(lattice, IntMatrix._trusted(tuple(rows)))


def _signed_basis_images(lattice: Lattice, mapping) -> Isometry:
    # mapping: j -> (k, sign) sends basis vector j to sign * basis vector k,
    # the column j of the matrix; identity elsewhere
    n = lattice.rank
    rows = [[0] * n for _ in range(n)]
    for j in range(n):
        k, s = mapping.get(j, (j, 1))
        rows[k][j] = s
    return Isometry(lattice, IntMatrix(rows))


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
    m = _Mover(kappa)
    if not _unitize(m, _FIRST_ROLES):
        raise StandardizationError("first vector: no move sequence found")
    # v = p e1 + f1 + w; E(e1, -w) empties w, then the norm pins p
    # (map_pair_to_standard checks the image of kappa)
    w = m.vector - m.coeff(E1) * m.basis(E1) - m.basis(F1)
    m.transvect(m.basis(E1), -1 * w)
    m.push(_swap_pair(kappa.lattice, (E1, F1)))
    return m.iso


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
    m = _Mover(g1.apply(eta))
    if not _standardize_partner(m, l0):
        raise StandardizationError("second vector: no move sequence found")
    g = m.iso.compose(g1)
    if g.apply(kappa) != target_k or g.apply(eta) != target_e:
        raise InvariantError("standardization missed the reference pair")
    return _exit_check(g)


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
    g_inv = g.inverse()
    phi = g_inv.compose(gp)
    if preserves_components(phi) != preserve:
        phi = g_inv.compose(flip_third_H(g.lattice)).compose(gp)
        if preserves_components(phi) != preserve:
            raise InvariantError("lemma_iso: the third-plane flip did not fix the orientation")
    if phi.apply(kappa_p) != kappa or phi.apply(eta_p) != eta:
        raise InvariantError("lemma_iso: the isometry misses the target pair")
    return _exit_check(phi)
