"""Integral isometries, oriented positive 3-planes and the constructive
standardization of pairs.

An Isometry wraps an integer matrix M with M^T G M = G.  The invariant is
kept without re-checking intermediate products:

- a matrix given as data (the constructor, flip_third_H) is checked;
- an Eichler transvection checks its preconditions, which make it an
  isometry by algebra (proof in eichler_transvection); swaps and sign
  changes of hyperbolic basis vectors are isometries by construction;
  products and inverses of isometries are isometries by algebra:
  (AB)^T G (AB) = B^T (A^T G A) B = G, and (A^-1)^T G A^-1 = G follows
  from A^T G A = G by multiplying with A^-T and A^-1;
- each matrix that map_pair_to_standard or lemma_iso returns is checked
  once, in full (_exit_check), so a fault in the move engine surfaces as
  an InvariantError instead of a wrong answer.  The identity is not: it
  is an isometry by construction.  gp, the product of lemma_iso's
  source moves and the flip when it is needed, never leaves the module
  and is built unchecked: g was checked when it left
  map_pair_to_standard, and phi = g^-1 gp is an isometry that hits the
  target pair exactly when gp is one that hits the reference pair.  So
  the images, orientation and full checks on phi cover gp, and a faulty
  compose or inverse still meets them.

An OrientedPlane is an ordered basis of a positive 3-plane, accepted by
Sylvester's criterion on the integer pairings of its numerators.
same_component tells whether two maximal positive planes lie in one
component of the oriented Grassmannian, and preserves_components asks it
of standard_plane and its image.

The checks read a matrix M by its columns, the images of the basis
vectors, which an Isometry computes once (_cols).  The full check forms G M
one column at a time with the compiled Gram kernel (Lattice.gram_times),
then M^T (G M) with the row-sparse IntMatrix.mul on the columns of M, where
a unit column shares a row of G M, and compares it with G entry by entry.
apply takes M v as the combination of the columns at v's nonzero
coordinates, and preserves_components the image of e_i + f_i as the sum of
two columns.  A product after the shared identity, g^-1 for a target in
reference position, is the other factor itself.

A pair already in reference position, as every model pair is, maps by
the identity without a primitivity test, a mover or a product; no check
is lost (proof in _to_reference).

lemma_iso reads the orientation off the matrices it builds.  The
orientation character of an isometry, +1 when it keeps the two components
of positive 3-planes and -1 when it swaps them, is multiplicative, so
char(g^-1) = char(g) and phi = g^-1 gp has character char(g) char(gp)
(Huybrechts, Lectures on K3 Surfaces, CUP 2016, Ch. 14).  When that product
disagrees with the requested orientation, gp is replaced by flip gp: the
flip negates the third hyperbolic summand, has character -1 and fixes the
reference pair, so phi still hits the target pair.  It is a signed
permutation, so flip gp is gp with its rows e3 and f3 negated.
preserves_components(phi) stays as the exit check, so a wrong character
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
matrix of their product is built once, each factor acting on the rows
built so far.  Consecutive transvections with one isotropic base e merge
into one factor: for a, b in e^⊥, E(e, a) E(e, b) = E(e, a + b) (Eichler;
Gritsenko-Hulek-Sankaran, J. Algebra 322, 2009), so a run of them costs
one factor, and none when its arguments sum to 0.  A factor E(e, a) is
the rank-two update E(e, a) A = A + a (G e)^T A - e w^T A of the rows of A,
w = G a + (a,a)/2 G e: two sparse row combinations, then the rows in
supp(a) ∪ supp(e); a signed permutation moves rows.  The core is a euclidean reduction on the
hyperbolic coefficients (isotropic transvection arguments shift them with
no quadratic correction), with the definite blocks as content reservoirs
when the hyperbolic gcd bottoms out above 1.  One pass either reaches the
reference pair or raises StandardizationError, from the one failure site:
the step bound of _unitize, computed from the bit length of its input and
proven unreachable on a primitive pair.  It never returns a wrong answer.
"""

from functools import cache
from itertools import groupby
from operator import add, mul

from .exact_linalg import (
    Frozen, IntMatrix, InvariantError, _identity_rows, int_inverse, rat_det, row_combination,
    xgcd_vector,
)
from .lattice import (
    E1, E2, E3, F1, F2, F3, K3_BLOCKS,
    AnyVector,
    Lattice,
    LatticeVector,
    RationalVector,
    _check_same_lattice,
    memoized,
    norm,
    pairing,
    pairing_nums,
    reference_pair,
)
from .sublattice import is_primitive_embedding


class StandardizationError(InvariantError):
    """_unitize ran past its step bound, which the proof in its docstring
    makes unreachable on a primitive pair: a fault in the move engine."""


class Isometry(Frozen):
    """An integer matrix M with M^T G M = G, acting on column vectors.

    The constructor checks M^T G M = G in full, from the columns of M; they
    are computed once per isometry (_cols), and apply and
    preserves_components read them too."""

    _fields = ("lattice", "matrix")

    def __init__(self, lattice: Lattice, matrix: IntMatrix):
        object.__setattr__(self, "lattice", lattice)
        object.__setattr__(self, "matrix", matrix)
        self.__post_init__()

    def __post_init__(self):
        lattice = self.lattice
        n = lattice.rank
        if self.matrix.nrows != n or self.matrix.ncols != n:
            raise ValueError("matrix shape does not match the lattice rank")
        # M^T G M = G on the full Gram matrix, computed from scratch: G M
        # column by column through the compiled Gram kernel, then M^T (G M)
        # by the row-sparse product on the columns of M, where a unit column
        # shares a row of G M
        gm = IntMatrix._trusted(tuple(zip(*map(lattice.gram_times, self._cols))))
        if IntMatrix._trusted(self._cols).mul(gm) != lattice.gram:
            raise ValueError("matrix does not preserve the pairing")

    @classmethod
    def _unchecked(cls, lattice: Lattice, matrix: IntMatrix) -> "Isometry":
        # only for isometries by algebra or by construction (module docstring)
        iso = object.__new__(cls)
        object.__setattr__(iso, "lattice", lattice)
        object.__setattr__(iso, "matrix", matrix)
        return iso

    @memoized
    def _cols(self) -> tuple[tuple[int, ...], ...]:
        """The columns of the matrix, the images of the basis vectors."""
        return tuple(zip(*self.matrix.rows))

    def apply(self, v):
        """M v, the combination of the columns at v's nonzero coordinates."""
        _check_same_lattice(self, v)
        image = row_combination(v.nums, self._cols)
        if isinstance(v, LatticeVector):
            return LatticeVector._trusted(self.lattice, image)
        # an integral matrix acts on the numerators; the denominator is kept
        return RationalVector(self.lattice, image, v.den)

    def compose(self, other: "Isometry") -> "Isometry":
        """self after other (matrix product, column action); other itself
        when self is the shared identity, as g^-1 is for a reference target."""
        _check_same_lattice(self, other)
        if self.matrix.rows is _identity_rows(self.lattice.rank):
            return other
        return Isometry._unchecked(self.lattice, self.matrix.mul(other.matrix))

    def inverse(self) -> "Isometry":
        return Isometry._unchecked(self.lattice, int_inverse(self.matrix))


def _exit_check(phi: Isometry) -> Isometry:
    """The full M^T G M = G check on an isometry leaving the module, except
    the identity, an isometry by construction; a failure is a fault in the
    move engine, not bad input."""
    if phi.matrix.rows == _identity_rows(phi.lattice.rank):
        return phi
    try:
        phi.__post_init__()  # in place, on the columns phi has computed
    except ValueError as exc:
        raise InvariantError(f"constructed isometry fails its exit check: {exc}") from None
    return phi


def identity_isometry(lattice: Lattice) -> Isometry:
    return Isometry._unchecked(lattice, IntMatrix._trusted(_identity_rows(lattice.rank)))


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
    """G e, w = G a + (a,a)/2 G e and the terms (i, a_i, e_i) over
    supp(a) ∪ supp(e), after checking the preconditions of a transvection.
    G e and G a are the images cached on e and a; the three pairings read
    only the terms, and so does _Mover.move."""
    _check_same_lattice(e, a)
    ge, ga = e.gv, a.gv
    terms = [(i, ai, ei) for i, (ai, ei) in enumerate(zip(a.coords, e.coords)) if ai or ei]
    if sum([ge[i] * ei for i, _, ei in terms]) != 0:
        raise ValueError("transvection base must be isotropic")
    if sum([ge[i] * ai for i, ai, _ in terms]) != 0:
        raise ValueError("transvection argument must be orthogonal to the base")
    na = sum([ga[i] * ai for i, ai, _ in terms])
    if na % 2:
        raise ValueError("transvection argument must have even norm")
    return ge, [y + (na // 2) * x for x, y in zip(ge, ga)], terms


def _transvected(rows, e: LatticeVector, a: LatticeVector, ge, w) -> tuple:
    """The rows of E(e, a) A = A + a (ge^T A) - e (w^T A) for the rows of A,
    with ge and w from _transvection_data: two sparse row combinations of A,
    then an update of the rows in supp(a) ∪ supp(e); the others are shared."""
    x, y = row_combination(ge, rows), row_combination(w, rows)
    out = list(rows)
    for i, (ai, ei) in enumerate(zip(a.coords, e.coords)):
        if ai and ei:
            out[i] = tuple([r + ai * p - ei * q for r, p, q in zip(rows[i], x, y)])
        elif ai:
            out[i] = tuple([r + ai * p for r, p in zip(rows[i], x)])
        elif ei:
            out[i] = tuple([r - ei * q for r, q in zip(rows[i], y)])
    return tuple(out)


def eichler_transvection(e: LatticeVector, a: LatticeVector) -> Isometry:
    """x |-> x + (x,e)a - ((x,a) + (a,a)/2 (x,e))e for isotropic e with e ⊥ a.

    With ge = G e and w = G a + (a,a)/2 G e the matrix is the rank-2 update
    I + a ge^T - e w^T, _transvected applied to I; only its rows in
    supp(a) ∪ supp(e) differ from I.
    Only the preconditions are checked, because they make T an isometry:
    h = (a,a)/2 is an integer, so T is integral, and with s = (x,e),
    t = (x,a), s' = (y,e), t' = (y,a), and (e,e) = (e,a) = 0, (a,a) = 2h,
        (Tx, Ty) = (x,y) + s't + s t' + 2h s s' - s(t' + h s') - s'(t + h s)
                 = (x,y),
    so M^T G M = G."""
    ge, w, _ = _transvection_data(e, a)
    rows = _transvected(_identity_rows(len(ge)), e, a, ge, w)
    return Isometry._unchecked(e.lattice, IntMatrix._trusted(rows))


# the signed permutation negating the third hyperbolic summand
_FLIP = {E3: (E3, -1), F3: (F3, -1)}


@cache
def flip_third_H(lattice: Lattice) -> Isometry:
    """Negate the third hyperbolic summand; reverses plane orientation and
    fixes the reference pair, which has no e3 or f3 part.

    Built and checked once per lattice."""
    return Isometry(lattice, IntMatrix(_permuted(_identity_rows(lattice.rank), _FLIP)))


_PLANES = ((E1, F1), (E2, F2), (E3, F3))


class OrientedPlane(Frozen):
    """Ordered basis of a positive-definite 3-plane; order is orientation."""

    _fields = ("basis",)

    def __init__(self, basis: tuple[AnyVector, AnyVector, AnyVector]):
        """Sylvester's criterion on the numerator Gram matrix.

        With basis vectors u_i = U_i / d_i, N_ij = (U_i, U_j) is d_i d_j G_ij
        for the Gram matrix G_ij = (u_i, u_j), so N = D G D with
        D = diag(d_i) > 0, and the leading minor of order k is
        det N_k = (d_1 ... d_k)^2 det G_k: the same sign.  So the basis spans
        a positive 3-plane exactly when the three leading minors of N are
        positive."""
        basis = tuple(v.to_rational() if isinstance(v, LatticeVector) else v for v in basis)
        if len(basis) != 3:
            raise ValueError("need exactly three spanning vectors")
        u, v, w = basis
        _check_same_lattice(u, v)
        _check_same_lattice(u, w)
        object.__setattr__(self, "basis", basis)
        a, b, c = pairing_nums(u, u), pairing_nums(u, v), pairing_nums(u, w)
        d, e, f = pairing_nums(v, v), pairing_nums(v, w), pairing_nums(w, w)
        minors = (a, a * d - b * b, a * (d * f - e * e) - b * (b * f - c * e) + c * (b * e - c * d))
        if min(minors) <= 0:
            raise ValueError("basis does not span a positive 3-plane")


def same_component(p: OrientedPlane, q: OrientedPlane) -> bool:
    """Co-orientation test for maximal positive planes.

    The mutual pairing matrix of two maximal positive subspaces is
    nonsingular, and its determinant sign is constant on components of
    the oriented Grassmannian, positive exactly on the diagonal.  It is
    taken on the integer pairings of the numerators, N = D M D' for the
    mutual pairing matrix M and the positive diagonal D, D' of the
    denominators (as in OrientedPlane), so det N has the sign of det M.
    """
    _check_same_lattice(p.basis[0], q.basis[0])
    d = rat_det([[pairing_nums(u, v) for v in q.basis] for u in p.basis])
    if d == 0:
        raise ValueError("singular mutual pairing: planes are not both maximal positive")
    return d > 0


@cache
def standard_plane(lattice: Lattice) -> OrientedPlane:
    """Reference orientation: the diagonal vectors e_i + f_i of the hyperbolic
    summands.

    Built once per lattice, so its vectors keep their cached Gram images."""
    return OrientedPlane(tuple(
        (lattice.basis_vector(e) + lattice.basis_vector(f)).to_rational() for e, f in _PLANES))


def preserves_components(phi: Isometry) -> bool:
    """Whether phi keeps the component of the standard plane: the image of
    its basis vector e_i + f_i is the sum of columns e_i and f_i."""
    p = standard_plane(phi.lattice)
    cols, lattice = phi._cols, phi.lattice
    image = OrientedPlane(tuple(
        LatticeVector._trusted(lattice, tuple(map(add, cols[e], cols[f]))) for e, f in _PLANES))
    return same_component(p, image)


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


# ---------------------------------------------------------------------------
# standardization machinery


class _Mover:
    """Working vector plus the moves applied to it so far: transvections
    (e, a, ge, w, terms), kept with the data of _transvection_data, and
    signed basis permutations {j: (k, sign)}, which send basis vector j to
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
        _, _, ge, w, terms = mv
        xe, xw = _dot(ge, x), _dot(w, x)
        for i, ai, ei in terms:
            x[i] += xe * ai - xw * ei

    def isometry(self) -> Isometry:
        """The product of the recorded moves; unchecked, since every factor
        is an isometry (module docstring).

        A run of consecutive transvections with one base e is the single
        factor E(e, a_1 + ... + a_k), whose preconditions
        _transvection_data checks again, and no factor when the arguments
        sum to 0; a run of one move is its recorded factor, with the G e, w
        and terms recorded with it.  Each factor acts on the rows built so
        far: a signed permutation moves rows, a transvection is the rank-two
        row update of _transvected.  A first factor is the product itself, so it
        is the permuted identity or eichler_transvection's matrix."""
        rows = None
        for base, run in groupby(self.moves, key=_run_key):
            if isinstance(base, dict):
                for perm in run:
                    rows = _permuted(_identity_rows(self.lattice.rank) if rows is None else rows, perm)
                continue
            (e, a, ge, w, _), *rest = run
            for mv in rest:
                a = a + mv[1]
            if not any(a.coords):
                continue
            if rows is None:
                rows = eichler_transvection(e, a).matrix.rows
            else:
                if rest:
                    ge, w, _ = _transvection_data(e, a)
                rows = _transvected(rows, e, a, ge, w)
        if rows is None:
            return identity_isometry(self.lattice)
        return Isometry._unchecked(self.lattice, IntMatrix._trusted(rows))

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


def _channels(m: _Mover, extra: LatticeVector | None):
    """Available content channels as (value, u) with (v, u) = value > 0."""
    out = []
    for b in range(len(K3_BLOCKS)):
        c, u = _block_functional(m, b)
        if u is not None:
            out.append((c, u))
    if extra is not None:
        r = _dot(m.coords, extra.gv)
        if r:
            out.append((abs(r), (1 if r > 0 else -1) * extra))
    return out


def _pull_content(m: _Mover, spares: tuple, extra: LatticeVector | None):
    """Write the gcd of the content channels into the first spare slot.

    The caller guarantees the spare plane is empty, which keeps every
    pull linear: no quadratic correction, no write-back into the
    reservoirs, and the channel values stay valid across pulls.  With no
    channel it makes no move."""
    chans = _channels(m, extra)
    ei, _ = spares[0]
    _, coeffs = xgcd_vector([val for val, u in chans])
    for (val, u), co in zip(chans, coeffs):
        if co:
            m.transvect(m.lattice.basis_vector(ei), (-co) * u)


def _step_bound(m: _Mover, slots: tuple) -> int:
    """2b + 3 passes for b the bit length of the largest |coordinate| of the
    working vector in slots, the bound proven in _unitize."""
    return 2 * max(abs(m.coords[i]) for i in slots).bit_length() + 3


def _unitize(m: _Mover, h1: tuple, spares: tuple, extra: LatticeVector | None = None) -> bool:
    """Drive m.coords[h1[1]] to exactly 1.

    h1 is the hyperbolic pair whose second coordinate gets driven to 1,
    spares are the free hyperbolic pairs, and extra is an optional vector
    orthogonal to them and to the two definite blocks that acts as a
    rank-one content reservoir.  Stage two passes the vector that must
    stay fixed alongside the first target as extra; every move the engine
    emits is then automatically orthogonal to it.

    Euclidean strategy: transvections with isotropic arguments shift one
    hyperbolic coefficient by an integer multiple of another with no
    quadratic correction, so the working coefficient q and the spare
    coefficients can run the euclidean algorithm exactly, with all the
    junk landing in coefficients the algorithm never reads.  Each quotient
    is the nearest integer to c/q, (2c + q) // (2q) for either sign of q,
    so every remainder r has |r| <= |q|/2 (Knuth, TAOCP vol. 2, §4.5.3).
    When the hyperbolic part bottoms out at a gcd > 1, one clean content
    pull injects the reservoir gcd, which is coprime to it whenever the
    input is primitive across the role summands, and the reduction
    restarts.

    Step bound: with b the bit length of the largest |coordinate| in h1
    and the spares at entry, a primitive input returns within 2b + 3
    passes of the loop.  Write p for the partner coefficient, h1[0].
    - A zero q, only possible at entry, takes a nonzero p by a swap or a
      nonzero spare coefficient by a transvection: one pass, and after it
      0 < |q| <= N for N < 2^b that largest coordinate.  When all of them
      are 0 (b = 0), a pull writes the reservoir gcd into a spare, and it
      is 1 by primitivity, so the next pass finds a unit.
    - While |q| >= 2, a pass either exchanges q with a nonzero remainder,
      so |q| at least halves, or rides p into an empty spare plane first.
      The ridden remainder is nonzero, or a pull writes the reservoir gcd
      there, coprime to q and so with a nonzero remainder; the next pass
      exchanges, unless it finds a unit.  So there are at most b - 1
      exchanges and 2b - 1 such passes.
    - A unit q = -1 or a unit spare coefficient takes one move to q = 1,
      and the pass that reads q = 1 returns.
    That is at most 1 + (2b - 1) + 2 passes, or 3 when b = 0.  The bound
    is computed from the input of each call (_step_bound), so no fixed
    budget refuses a pair with large entries.  Running past it raises
    StandardizationError, the one failure site of the standardizer, which
    the proof makes unreachable on primitive input.

    Every move is an Eichler transvection or a block sign/swap whose
    base and argument lie inside the role summands, so whatever is
    orthogonal to all of them stays fixed.
    """
    basis = m.lattice.basis_vector
    e1i, f1i = h1
    e1, f1 = basis(e1i), basis(f1i)
    slots = [idx for pair in spares for idx in pair]
    bound = _step_bound(m, (e1i, f1i, *slots))
    for _ in range(bound):
        q = m.coords[f1i]
        if q == 1:
            return True
        if q == -1:
            m.move({e1i: (e1i, -1), f1i: (f1i, -1)})
            continue
        # a unit spare coefficient finishes in one anchor transvection:
        # E(f_sp, λ f1) adds λ * a to q, E(e_sp, λ f1) adds λ * b
        units = [(i, j) for ei, fi in spares for i, j in ((ei, fi), (fi, ei))
                 if m.coords[i] in (1, -1)]
        if units:
            i, j = units[0]
            m.transvect(basis(j), ((1 - q) * m.coords[i]) * f1)
            continue
        if q == 0:
            if m.coords[e1i] != 0:
                m.move({e1i: (f1i, 1), f1i: (e1i, 1)})
                continue
            for ei, fi in spares:
                if m.coords[ei] != 0:
                    m.transvect(basis(fi), f1)  # q += a, clean: p = 0
                    break
                if m.coords[fi] != 0:
                    m.transvect(basis(ei), f1)
                    break
            else:
                _pull_content(m, spares, extra)
            continue
        # |q| >= 2: reduce every spare coefficient to its least absolute
        # remainder mod q (E(e1, t e_sp) adds t q to a, polluting only p),
        # then swap the smallest nonzero remainder into the q slot
        for idx in slots:
            quo = (2 * m.coords[idx] + q) // (2 * q)
            if quo:
                m.transvect(e1, -quo * basis(idx))
        best = min((idx for idx in slots if m.coords[idx]), key=lambda idx: abs(m.coords[idx]),
                   default=None)
        if best is None:
            # hyperbolic part is p e1 + q f1; euclid on (p, q) rides in
            # a spare slot (the write is clean because the plane is empty)
            ei, fi = spares[0]
            m.transvect(f1, basis(ei))  # a += p
            quo = (2 * m.coords[ei] + q) // (2 * q)
            if quo:
                m.transvect(e1, -quo * basis(ei))
            if m.coords[ei] == 0:
                # q divides the whole hyperbolic part; bring in the
                # reservoir gcd, coprime to q by primitivity
                _pull_content(m, spares, extra)
            continue
        for ei, fi in spares:
            if best == ei:
                m.move({ei: (fi, 1), fi: (ei, 1)})
                best = fi
            if best == fi:
                # exchange the pairs, first slot with first slot
                m.move({e1i: (ei, 1), f1i: (fi, 1), ei: (e1i, 1), fi: (f1i, 1)})
                break
    raise StandardizationError(f"no move sequence found in {bound} steps")


def _standardize_vector(m: _Mover):
    """Move the working vector kappa to e1 + (kappa,kappa)/2 f1.

    The unitizer drives the e1 coefficient, the reference slot, to 1, as
    stage two does for e2, so a vector already in reference position takes
    no move."""
    _unitize(m, (F1, E1), ((E2, F2), (E3, F3)))
    # v = e1 + q f1 + w; E(f1, -w) empties w, then the norm pins q
    # (map_pair_to_standard checks the image of kappa)
    basis = m.lattice.basis_vector
    v = LatticeVector._trusted(m.lattice, tuple(m.coords))
    w = v - basis(E1) - m.coords[F1] * basis(F1)
    m.transvect(basis(F1), -1 * w)


def _standardize_partner(m: _Mover, l0: int):
    """Assuming the first vector is already e1 + l0 f1, finish eta.

    Same engine as stage one, with the roles shifted down one plane:
    H2 carries the target coordinate, H3 is the only spare, and the
    (-2 l0)-vector c = e1 - l0 f1 joins the definite blocks as a content
    channel.  Primitivity of the pair makes the reservoir gcd coprime to
    whatever the hyperbolic reduction bottoms out at, so the content
    pull inside _unitize always restarts it."""
    basis = m.lattice.basis_vector
    c = basis(E1) - l0 * basis(F1)  # orthogonal to e1 + l0 f1
    _unitize(m, (F2, E2), ((E3, F3),), c)
    # kill order matters: each step must not disturb what is already clean;
    # a zero coefficient needs no move, so its argument is never built
    f2 = basis(F2)
    for i in (F3, E3):
        if m.coords[i]:
            m.transvect(f2, -m.coords[i] * basis(i))
    m.transvect(f2, -1 * m.block_part(0))
    m.transvect(f2, -1 * m.block_part(1))
    if m.coords[E1]:
        m.transvect(f2, -m.coords[E1] * c)


def _standardized(kappa: LatticeVector, eta: LatticeVector) -> _Mover:
    """The mover after both stages on a primitive pair; no matrix is built."""
    if not is_primitive_embedding([kappa, eta]):
        raise ValueError("pair is not a primitive embedding")
    m = _Mover(kappa)
    _standardize_vector(m)
    m.restart(eta)
    _standardize_partner(m, norm(kappa) // 2)
    return m


def _to_reference(kappa: LatticeVector, eta: LatticeVector, target: tuple) -> Isometry:
    """An unchecked isometry taking (kappa, eta) to target, its reference pair.

    The identity when the pair is target, which loses no check: target is
    primitive, as the minor of its e1, e2 coordinates is 1, and the
    identity is an isometry fixing it."""
    if (kappa, eta) == target:
        return identity_isometry(kappa.lattice)
    return _standardized(kappa, eta).isometry()


def map_pair_to_standard(kappa: LatticeVector, eta: LatticeVector) -> Isometry:
    """Isometry g with g(kappa), g(eta) in the reference position.

    Raises StandardizationError when the staged search runs past its step
    bound, a fault; the returned isometry is always verified: its images
    here, and its matrix by the exit check; an identity's images are the
    pair itself.
    """
    target = reference_pair(kappa.lattice, norm(kappa) // 2, pairing(kappa, eta), norm(eta) // 2)
    g = _to_reference(kappa, eta, target)
    if g.matrix.rows == _identity_rows(g.lattice.rank):
        images = (kappa, eta)
    else:
        images = (g.apply(kappa), g.apply(eta))
    if images != target:
        raise InvariantError("standardization missed the reference pair")
    return _exit_check(g)


def lemma_iso(kappa: LatticeVector, eta: LatticeVector, kappa_p: LatticeVector,
              eta_p: LatticeVector, preserve: bool = True) -> Isometry:
    """Verified isometry taking (kappa_p, eta_p) to (kappa, eta) and
    preserving (or reversing) the orientation of positive 3-planes."""
    nk, ne, m = norm(kappa), norm(eta), pairing(kappa, eta)
    if (nk, ne, m) != (norm(kappa_p), norm(eta_p), pairing(kappa_p, eta_p)):
        raise ValueError("pairs have different Gram data")
    g = map_pair_to_standard(kappa, eta)
    # equal Gram data, so the source pair has the target pair's reference pair
    gp = _to_reference(kappa_p, eta_p, reference_pair(kappa.lattice, nk // 2, m, ne // 2))
    if (_character(g.matrix.rows) * _character(gp.matrix.rows) == 1) != preserve:
        # the flip after gp: its rows e3 and f3 negated, no matrix product
        gp = Isometry._unchecked(gp.lattice, IntMatrix._trusted(_permuted(gp.matrix.rows, _FLIP)))
    phi = g.inverse().compose(gp)
    if preserves_components(phi) != preserve:
        raise InvariantError("lemma_iso: the predicted orientation character is wrong")
    if phi.apply(kappa_p) != kappa or phi.apply(eta_p) != eta:
        raise InvariantError("lemma_iso: the isometry misses the target pair")
    return _exit_check(phi)
