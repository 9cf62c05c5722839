"""Integral isometries and the constructive standardization of pairs.

An Isometry wraps an integer matrix M with M^T G M = G.  The invariant is
kept without re-checking intermediate products:

- a matrix given as data (the constructor, flip_third_H) is checked;
- an Eichler transvection checks its preconditions, which make it an
  isometry by algebra (proof in eichler_transvection); swaps and sign
  changes of hyperbolic basis vectors are isometries by construction;
  products and inverses of isometries are isometries by algebra:
  (AB)^T G (AB) = B^T (A^T G A) B = G, and (A^-1)^T G A^-1 = G follows
  from A^T G A = G by multiplying with A^-T and A^-1;
- each distinct matrix that map_pair_to_standard or lemma_iso returns is
  checked once, in full, so a fault in the move engine surfaces as an
  InvariantError instead of a wrong answer.  Two returns are not checked
  again: the identity, an isometry by construction, which is what
  map_pair_to_standard returns for a pair in reference position; and a
  phi of lemma_iso whose matrix is that of gp, which _built checked (or
  found to be the identity) in the same call.  Every other phi, a product
  with a moved g^-1, is checked, so a faulty compose or inverse still
  meets a full check.

lemma_iso decides the flip of the third hyperbolic summand before it builds
a matrix.  The orientation character of an isometry, +1 when it keeps the
two components of positive 3-planes and -1 when it swaps them, is
multiplicative, so char(g^-1) = char(g).  An Eichler transvection has
character +1: for real t in [0, 1], E(e, t a) is a real isometry (the
proof in eichler_transvection holds for real h), so t |-> E(e, t a) is a
path from the identity, and the character, the sign of a determinant that
never vanishes (same_component), is constant along it.  A merged run is a
transvection too.  So the character of gp is the product of the fixed
characters of its signed permutations, and phi = g^-1 gp has char(g) times
that (Huybrechts, Lectures on K3 Surfaces, CUP 2016, Ch. 14;
Gritsenko-Hulek-Sankaran, J. Algebra 322, 2009).  When the product
disagrees with the requested orientation, the flip, which fixes the
reference pair, becomes gp's last move, and gp is built once.
preserves_components(phi) stays as the exit check, so a wrong prediction
raises InvariantError instead of returning a wrong answer.

map_pair_to_standard moves a primitive pair (kappa, eta) onto the
reference pair

    e1 + (kappa,kappa)/2 * f1,
    (kappa,eta) * f1 + e2 + (eta,eta)/2 * f2

by Eichler transvections and signed permutations of hyperbolic basis
vectors.  Each stage drives the coefficient of its reference slot, e1 for
kappa and e2 for eta, to 1 and then clears the rest, so a pair already in
reference position takes no move and maps by the identity: standardizing
is idempotent.  The moves act on a working vector and are recorded; the
matrix of their product is built once.  Consecutive transvections with one
isotropic base e merge into one factor: for a, b in e^⊥,
E(e, a) E(e, b) = E(e, a + b) (Eichler; Gritsenko-Hulek-Sankaran,
J. Algebra 322, 2009), so a run of them costs one product, and none when
its arguments sum to 0.  The core is a euclidean reduction on the
hyperbolic coefficients (isotropic transvection arguments shift them with
no quadratic correction), with the definite blocks as content reservoirs
when the hyperbolic gcd bottoms out above 1.  One pass either reaches the
reference pair or raises StandardizationError, from the one failure site:
the step budget of _unitize.  It never returns a wrong answer.
"""

from dataclasses import dataclass
from functools import cache
from itertools import groupby
from operator import mul

from .exact_linalg import IntMatrix, InvariantError, int_inverse, xgcd_vector
from .lattice import (
    E1, E2, E3, F1, F2, F3, K3_BLOCKS,
    Lattice,
    LatticeVector,
    RationalVector,
    _check_same_lattice,
    norm,
    pairing,
)
from .period import OrientedPlane, same_component, standard_plane
from .sublattice import is_primitive_embedding

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
        # only for isometries by algebra or by construction (module docstring)
        iso = object.__new__(cls)
        object.__setattr__(iso, "lattice", lattice)
        object.__setattr__(iso, "matrix", matrix)
        return iso

    def apply(self, v):
        if v.lattice is not self.lattice and v.lattice != self.lattice:
            raise ValueError("vector does not live in the isometry's lattice")
        nums = v.nums
        image = tuple([sum(map(mul, row, nums)) for row in self.matrix.rows])
        if isinstance(v, LatticeVector):
            return LatticeVector._trusted(self.lattice, image)
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
    return Isometry._unchecked(lattice, IntMatrix._trusted(_identity_rows(lattice.rank)))


@cache
def _identity_rows(n: int) -> tuple[tuple[int, ...], ...]:
    return IntMatrix.identity(n).rows


def _dot(u, v) -> int:
    return sum(map(mul, u, v))


def _run_key(mv):
    # consecutive transvections with one base form a run; a permutation
    # keys by itself
    return mv if isinstance(mv, dict) else mv[0].coords


def _permuted(rows, perm) -> tuple:
    """The rows of P M for the signed permutation perm = {j: (k, sign)}:
    row k of P M is sign * row j of M."""
    out = list(rows)
    for j, (k, s) in perm.items():
        out[k] = rows[j] if s == 1 else tuple(-y for y in rows[j])
    return tuple(out)


def _transvection_data(e: LatticeVector, a: LatticeVector):
    """G e and w = G a + (a,a)/2 G e, after checking the preconditions of a
    transvection; G e and G a are the images cached on e and a."""
    _check_same_lattice(e, a)
    ge, ga = e.gv, a.gv
    if _dot(ge, e.coords) != 0:
        raise ValueError("transvection base must be isotropic")
    if _dot(ge, a.coords) != 0:
        raise ValueError("transvection argument must be orthogonal to the base")
    na = _dot(ga, a.coords)
    if na % 2:
        raise ValueError("transvection argument must have even norm")
    return ge, [y + (na // 2) * x for x, y in zip(ge, ga)]


def eichler_transvection(e: LatticeVector, a: LatticeVector) -> Isometry:
    """x |-> x + (x,e)a - ((x,a) + (a,a)/2 (x,e))e for isotropic e with e ⊥ a.

    With ge = G e and w = G a + (a,a)/2 G e the matrix is the rank-2 update
    I + a ge^T - e w^T; only its rows in supp(a) ∪ supp(e) differ from I.
    Only the preconditions are checked, because they make T an isometry:
    h = (a,a)/2 is an integer, so T is integral, and with s = (x,e),
    t = (x,a), s' = (y,e), t' = (y,a), and (e,e) = (e,a) = 0, (a,a) = 2h,
        (Tx, Ty) = (x,y) + s't + s t' + 2h s s' - s(t' + h s') - s'(t + h s)
                 = (x,y),
    so M^T G M = G."""
    ge, w = _transvection_data(e, a)
    rows = list(_identity_rows(len(ge)))
    for i, (ai, ei) in enumerate(zip(a.coords, e.coords)):
        if ai or ei:
            row = [ai * x - ei * y for x, y in zip(ge, w)]
            row[i] += 1
            rows[i] = tuple(row)
    return Isometry._unchecked(e.lattice, IntMatrix._trusted(tuple(rows)))


# the signed permutation that negates the third hyperbolic summand; it fixes
# the reference pair, which has no e3 or f3 part
_FLIP = {E3: (E3, -1), F3: (F3, -1)}


@cache
def flip_third_H(lattice: Lattice) -> Isometry:
    """Negate the third hyperbolic summand; reverses plane orientation.

    Built and checked once per lattice."""
    return Isometry(lattice, IntMatrix(_permuted(_identity_rows(lattice.rank), _FLIP)))


def preserves_components(phi: Isometry) -> bool:
    p = standard_plane(phi.lattice)
    image = OrientedPlane(tuple(phi.apply(b) for b in p.basis))
    return same_component(p, image)


_PLANES = ((E1, F1), (E2, F2), (E3, F3))


def _character(rows) -> int:
    """The orientation character of the isometry with matrix rows: +1 when
    it preserves the components of positive 3-planes, -1 when it swaps them.

    It is the sign of det((b_i, M b_j)) for the basis b_i = e_i + f_i of
    the standard plane, the determinant that same_component takes in
    Fractions, here on integers.  In H, (e_i + f_i, x) = x_{e_i} + x_{f_i},
    so each entry is a sum of four matrix entries."""
    (a, b, c), (d, e, f), (g, h, k) = [
        [rows[r][t] + rows[r][u] + rows[s][t] + rows[s][u] for t, u in _PLANES]
        for r, s in _PLANES]
    return 1 if a * (e * k - f * h) - b * (d * k - f * g) + c * (d * h - e * g) > 0 else -1


@cache
def _perm_character(rank: int, perm: tuple) -> int:
    """_character of a signed permutation, given as its items, once each."""
    return _character(_permuted(_identity_rows(rank), dict(perm)))


# ---------------------------------------------------------------------------
# standardization machinery


class _Mover:
    """Working vector plus the moves applied to it so far: transvections
    (e, a, ge, w), kept with the data of _transvection_data, and signed
    basis permutations {j: (k, sign)}, which send basis vector j to
    sign * basis vector k and fix the others.  A move acts on the working
    coordinates only and is checked once, when it is recorded; isometry()
    builds the matrix of the product once."""

    def __init__(self, v: LatticeVector):
        self.lattice = v.lattice
        self.moves = []
        self.restart(v)

    def restart(self, v: LatticeVector):
        """Make the image of v under the moves so far the working vector."""
        moves, self.moves, self.coords = self.moves, [], list(v.coords)
        for move in moves:
            self.move(move)

    def transvect(self, e: LatticeVector, a: LatticeVector):
        if any(a.coords):
            self.move((e, a, *_transvection_data(e, a)))

    def move(self, mv):
        self.moves.append(mv)
        x = self.coords
        if isinstance(mv, dict):
            for k, c in [(k, s * x[j]) for j, (k, s) in mv.items()]:
                x[k] = c
            return
        e, a, ge, w = mv
        xe, xw = _dot(ge, x), _dot(w, x)
        for i, (ai, ei) in enumerate(zip(a.coords, e.coords)):
            if ai or ei:
                x[i] += xe * ai - xw * ei

    def isometry(self) -> Isometry:
        """The product of the recorded moves; unchecked, since every factor
        is an isometry (module docstring).

        A run of consecutive transvections with one base e is built as the
        single factor E(e, a_1 + ... + a_k), which eichler_transvection
        checks again, and as no factor when the arguments sum to 0."""
        acc = None
        for base, run in groupby(self.moves, key=_run_key):
            if isinstance(base, dict):
                for perm in run:
                    rows = _identity_rows(self.lattice.rank) if acc is None else acc.matrix.rows
                    acc = Isometry._unchecked(self.lattice, IntMatrix._trusted(_permuted(rows, perm)))
                continue
            (e, a, *_), *rest = run
            for mv in rest:
                a = a + mv[1]
            if any(a.coords):
                t = eichler_transvection(e, a)
                acc = t if acc is None else t.compose(acc)
        return identity_isometry(self.lattice) if acc is None else acc

    def basis(self, i: int) -> LatticeVector:
        return self.lattice.basis_vector(i)

    def coeff(self, i: int) -> int:
        return self.coords[i]

    def block_part(self, b: int) -> LatticeVector:
        block = K3_BLOCKS[b]
        return LatticeVector._trusted(
            self.lattice, tuple([c if i in block else 0 for i, c in enumerate(self.coords)]))


def _block_functional(m: _Mover, b: int):
    """Content of the pairing functional of the block part, and a vector
    realizing it: (part, u) = content.  Returns (0, None) on empty part."""
    idx = K3_BLOCKS[b]
    part = m.block_part(b)
    if part.is_zero():
        return 0, None
    gv = part.gv
    fs = [gv[j] for j in idx]
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
        r = _dot(m.coords, roles.extra.gv)
        if r:
            out.append((abs(r), (1 if r > 0 else -1) * roles.extra))
    return out


def _pull_content(m: _Mover, roles: _Roles):
    """Write the gcd of the content channels into the first spare slot.

    The caller guarantees the spare plane is empty, which keeps every
    pull linear: no quadratic correction, no write-back into the
    reservoirs, and the channel values stay valid across pulls.  With no
    channel it makes no move."""
    chans = _channels(m, roles)
    ei, _ = roles.spares[0]
    _, coeffs = xgcd_vector([val for val, u in chans])
    for (val, u), co in zip(chans, coeffs):
        if co:
            m.transvect(m.basis(ei), (-co) * u)


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
    the step budget; running out of it raises StandardizationError, the one
    failure site of the standardizer.

    Every move is an Eichler transvection or a block sign/swap whose
    base and argument lie inside the role summands, so whatever is
    orthogonal to all of them stays fixed.
    """
    e1i, f1i = roles.h1
    e1, f1 = m.basis(e1i), m.basis(f1i)
    slots = [idx for pair in roles.spares for idx in pair]
    for _ in range(_STEP_BUDGET):
        q = m.coeff(f1i)
        if q == 1:
            return True
        if q == -1:
            m.move({e1i: (e1i, -1), f1i: (f1i, -1)})
            continue
        # a unit spare coefficient finishes in one anchor transvection:
        # E(f_sp, λ f1) adds λ * a to q, E(e_sp, λ f1) adds λ * b
        units = [(i, j) for ei, fi in roles.spares for i, j in ((ei, fi), (fi, ei))
                 if m.coeff(i) in (1, -1)]
        if units:
            i, j = units[0]
            m.transvect(m.basis(j), ((1 - q) * m.coeff(i)) * f1)
            continue
        if q == 0:
            if m.coeff(e1i) != 0:
                m.move({e1i: (f1i, 1), f1i: (e1i, 1)})
                continue
            for ei, fi in roles.spares:
                if m.coeff(ei) != 0:
                    m.transvect(m.basis(fi), f1)  # q += a, clean: p = 0
                    break
                if m.coeff(fi) != 0:
                    m.transvect(m.basis(ei), f1)
                    break
            else:
                _pull_content(m, roles)
            continue
        # |q| >= 2: reduce every spare coefficient mod q (E(e1, t e_sp)
        # adds t q to a, polluting only p), then swap the smallest
        # nonzero remainder into the q slot
        for idx in slots:
            quo = m.coeff(idx) // q
            if quo:
                m.transvect(e1, -quo * m.basis(idx))
        best = min((idx for idx in slots if m.coeff(idx)), key=lambda idx: abs(m.coeff(idx)),
                   default=None)
        if best is None:
            # hyperbolic part is p e1 + q f1; euclid on (p, q) rides in
            # a spare slot (the write is clean because the plane is empty)
            ei, fi = roles.spares[0]
            m.transvect(f1, m.basis(ei))  # a += p
            quo = m.coeff(ei) // q
            if quo:
                m.transvect(e1, -quo * m.basis(ei))
            if m.coeff(ei) == 0:
                # q divides the whole hyperbolic part; bring in the
                # reservoir gcd, coprime to q by primitivity
                _pull_content(m, roles)
            continue
        for ei, fi in roles.spares:
            if best == ei:
                m.move({ei: (fi, 1), fi: (ei, 1)})
                best = fi
            if best == fi:
                # exchange the pairs, first slot with first slot
                m.move({e1i: (ei, 1), f1i: (fi, 1), ei: (e1i, 1), fi: (f1i, 1)})
                break
    raise StandardizationError(f"no move sequence found in {_STEP_BUDGET} steps")


_FIRST_ROLES = _Roles(h1=(F1, E1), spares=((E2, F2), (E3, F3)), blocks=(0, 1))


def _standardize_vector(m: _Mover):
    """Move the working vector kappa to e1 + (kappa,kappa)/2 f1.

    The unitizer drives the e1 coefficient, the reference slot, to 1, as
    stage two does for e2, so a vector already in reference position takes
    no move."""
    _unitize(m, _FIRST_ROLES)
    # v = e1 + q f1 + w; E(f1, -w) empties w, then the norm pins q
    # (map_pair_to_standard checks the image of kappa)
    v = LatticeVector._trusted(m.lattice, tuple(m.coords))
    w = v - m.basis(E1) - m.coeff(F1) * m.basis(F1)
    m.transvect(m.basis(F1), -1 * w)


def _standardize_partner(m: _Mover, l0: int):
    """Assuming the first vector is already e1 + l0 f1, finish eta.

    Same engine as stage one, with the roles shifted down one plane:
    H2 carries the target coordinate, H3 is the only spare, and the
    (-2 l0)-vector c = e1 - l0 f1 joins the definite blocks as a content
    channel.  Primitivity of the pair makes the reservoir gcd coprime to
    whatever the hyperbolic reduction bottoms out at, so the content
    pull inside _unitize always restarts it."""
    c = m.basis(E1) - l0 * m.basis(F1)  # orthogonal to e1 + l0 f1
    roles = _Roles(h1=(F2, E2), spares=((E3, F3),), blocks=(0, 1), extra=c)
    _unitize(m, roles)
    # kill order matters: each step must not disturb what is already clean;
    # a zero coefficient needs no move, so its argument is never built
    f2 = m.basis(F2)
    for i in (F3, E3):
        if m.coeff(i):
            m.transvect(f2, -m.coeff(i) * m.basis(i))
    m.transvect(f2, -1 * m.block_part(0))
    m.transvect(f2, -1 * m.block_part(1))
    if m.coeff(E1):
        m.transvect(f2, -m.coeff(E1) * c)


def _standardized(kappa: LatticeVector, eta: LatticeVector) -> _Mover:
    """The mover after both stages on a primitive pair; no matrix is built."""
    if not is_primitive_embedding([kappa, eta]):
        raise ValueError("pair is not a primitive embedding")
    m = _Mover(kappa)
    _standardize_vector(m)
    m.restart(eta)
    _standardize_partner(m, norm(kappa) // 2)
    return m


def _built(m: _Mover, kappa: LatticeVector, eta: LatticeVector) -> Isometry:
    """The product of m's moves, checked to send (kappa, eta) to the
    reference pair; the identity by construction, any other matrix by the
    full exit check."""
    l0 = norm(kappa) // 2
    e1, f1, e2, f2 = (kappa.lattice.basis_vector(i) for i in (E1, F1, E2, F2))
    target_k, target_e = e1 + l0 * f1, pairing(kappa, eta) * f1 + e2 + norm(eta) // 2 * f2
    g = m.isometry()
    if g.apply(kappa) != target_k or g.apply(eta) != target_e:
        raise InvariantError("standardization missed the reference pair")
    if g.matrix.rows == _identity_rows(kappa.lattice.rank):
        return g
    return _exit_check(g)


def map_pair_to_standard(kappa: LatticeVector, eta: LatticeVector) -> Isometry:
    """Isometry g with g(kappa), g(eta) in the reference position.

    Raises StandardizationError when the staged search exhausts its
    budget; the returned isometry is always verified: the identity by
    construction, any other matrix by the full exit check.
    """
    return _built(_standardized(kappa, eta), kappa, eta)


def _predicted_character(g: Isometry, m: _Mover) -> int:
    """The orientation character of g^-1 gp, where gp is the product of m's
    moves: char(g) times the characters of m's signed permutations, since
    the character is multiplicative, char(g^-1) = char(g), and every
    transvection has character +1 (module docstring)."""
    sign = _character(g.matrix.rows)
    for mv in m.moves:
        if isinstance(mv, dict):
            sign *= _perm_character(m.lattice.rank, tuple(mv.items()))
    return sign


def lemma_iso(kappa: LatticeVector, eta: LatticeVector, kappa_p: LatticeVector,
              eta_p: LatticeVector, preserve: bool = True) -> Isometry:
    """Verified isometry taking (kappa_p, eta_p) to (kappa, eta) and
    preserving (or reversing) the orientation of positive 3-planes."""
    if (norm(kappa), norm(eta), pairing(kappa, eta)) != (
            norm(kappa_p), norm(eta_p), pairing(kappa_p, eta_p)):
        raise ValueError("pairs have different Gram data")
    g = map_pair_to_standard(kappa, eta)
    m = _standardized(kappa_p, eta_p)
    if (_predicted_character(g, m) == 1) != preserve:
        m.move(_FLIP)
    gp = _built(m, kappa_p, eta_p)
    phi = g.inverse().compose(gp)
    if preserves_components(phi) != preserve:
        raise InvariantError("lemma_iso: the predicted orientation character is wrong")
    if phi.apply(kappa_p) != kappa or phi.apply(eta_p) != eta:
        raise InvariantError("lemma_iso: the isometry misses the target pair")
    # gp's matrix was verified by _built a few lines above
    return phi if phi.matrix == gp.matrix else _exit_check(phi)
