"""Integral lattices with an exact symmetric bilinear form.

A Lattice is Z^n equipped with an integer Gram matrix.  Vectors come in two
flavors: LatticeVector (integer coordinates) and RationalVector (a point of
the ambient rational quadratic space).  A RationalVector is stored
fraction-free, as integer numerators over one common denominator in lowest
terms, so pairing two of them is one integer dot product against a cached
Gram image followed by a single Fraction; its Fraction coordinates are
built only on request.  A LatticeVector takes part in mixed arithmetic as
numerators over the denominator 1.  Both carry a reference to their lattice
so that cross-lattice arithmetic is rejected instead of silently producing
garbage.

Every pairing goes through one kernel: Lattice.gram_times computes G v once
per vector and caches it on the vector as `gv`, and a pairing is then one
dot product of the other side's numerators with that image.  The kernel is
compiled once per distinct Gram matrix, on its first pairing, into one
straight-line tuple expression over the nonzero Gram entries.  A vector also
caches its self-pairing `vv`, that dot product with its own image, so
pairing a vector with itself again is a lookup.
"""
from __future__ import annotations

from fractions import Fraction
from functools import lru_cache, partial
from math import gcd, lcm
from operator import mul, neg
from typing import ClassVar, Iterable, Sequence, Union

from .exact_linalg import (
    Frozen,
    IntMatrix,
    as_ratio,
    clip_repr,
    int_tuple,
    ratio_of,
    symmetric_bareiss,
)

Coord = Union[int, Fraction]


class memoized:
    """An attribute computed on first access and stored in the instance
    __dict__, where later lookups find it without calling the descriptor.
    Unlike functools.cached_property on Python < 3.12 it takes no lock: two
    threads racing on a miss both compute the same value."""

    def __init__(self, fn):
        self.fn = fn
        self.name = fn.__name__
        self.__doc__ = fn.__doc__

    def __get__(self, obj, owner=None):
        if obj is None:
            return self
        value = obj.__dict__[self.name] = self.fn(obj)
        return value


# terms per left-deep sum in a compiled kernel; longer rows nest sums of
# sums, so the expression depth grows with the log of the row length
_KERNEL_GROUP = 16


@lru_cache(maxsize=64)
def _gram_kernel(entries: tuple[tuple[tuple[int, int], ...], ...]):
    """v -> G v for the sparse rows `entries` of an integer matrix G, row i
    holding (j, G_ij) for G_ij != 0, compiled to one tuple expression such
    as (v[1], v[0], ..., c0 * v[6] + v[8], ...).  G is a Gram matrix here,
    or the transposed basis of an orthogonal complement, the coefficient
    lift of shortvec.roots_orthogonal_to.  An entry other than +-1 enters
    as a closure variable, never as a literal, so no coefficient is
    converted to a string."""
    names: dict[int, str] = {}
    rows = []
    for row in entries:
        terms = [
            f"v[{j}]" if g == 1 else f"-v[{j}]" if g == -1
            else f"{names.setdefault(g, f'c{len(names)}')} * v[{j}]"
            for j, g in row
        ]
        while len(terms) > _KERNEL_GROUP:
            terms = [
                "(" + " + ".join(terms[i:i + _KERNEL_GROUP]) + ")"
                for i in range(0, len(terms), _KERNEL_GROUP)
            ]
        rows.append(" + ".join(terms) or "0")
    source = f"lambda {', '.join(names.values())}: lambda v: ({''.join(r + ', ' for r in rows)})"
    return eval(source, {"__builtins__": {}})(*names)


# the fallback of ratio_of in Lattice.rational_vector: as_ratio refuses c
_refuse_coordinate = partial(as_ratio, what="coordinate")


class Lattice(Frozen):
    """Free Z-module of finite rank with an integer-valued pairing."""

    _fields = ("name", "gram")

    def __init__(self, name: str, gram: IntMatrix):
        if not gram.is_symmetric():
            raise ValueError("Gram matrix must be symmetric")
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "gram", gram)

    def __hash__(self):
        # computed once: cached builders hash their lattice on every call
        return self._hash

    @memoized
    def _hash(self) -> int:
        return hash(self._key(self))

    @memoized
    def rank(self) -> int:
        return self.gram.nrows

    @memoized
    def _gram_entries(self) -> tuple[tuple[tuple[int, int], ...], ...]:
        # sparse rows of the Gram matrix: row i holds (j, G_ij) for G_ij != 0
        return tuple(
            tuple((j, g) for j, g in enumerate(row) if g) for row in self.gram.rows
        )

    @memoized
    def _kernel(self):
        # shared by every lattice with the same Gram matrix
        return _gram_kernel(self._gram_entries)

    def gram_times(self, v: Sequence[int]) -> tuple[int, ...]:
        """G v for integer coordinates or numerators, the one pairing kernel:
        row i of G dotted with v, for a sequence v of the lattice's rank."""
        return self._kernel(v)

    @memoized
    def _basis(self) -> tuple["LatticeVector", ...]:
        # built once per lattice, so each basis vector caches its gv once
        n = self.rank
        return tuple(
            LatticeVector._trusted(self, tuple(int(i == j) for j in range(n)))
            for i in range(n)
        )

    def basis_vector(self, i: int) -> "LatticeVector":
        return self._basis[i]

    def vector(self, coords: Iterable[int]) -> "LatticeVector":
        return LatticeVector(self, tuple(coords))

    def rational_vector(self, coords: Iterable) -> "RationalVector":
        """Numerators over the lcm of the reduced denominators.

        Each input is read once as a reduced ratio n/d with d > 0, by the
        rational rule of exact_linalg.ratio_of, so a bool, an IntEnum member,
        a float or a string raises TypeError instead of being coerced; ratio_of
        is called inline, since as_ratio would add a call per coordinate, and
        as_ratio only raises here.  The result is already
        canonical: a prime p dividing den = lcm(d) divides some d_j to the
        full power it has in den, so p divides neither den // d_j nor n_j
        (coprime to d_j), nor their product."""
        ratios = [ratio_of(type(c), _refuse_coordinate)(c) for c in coords]
        if len(ratios) != self.rank:
            raise ValueError("coordinate length does not match lattice rank")
        den = lcm(*[d for _, d in ratios])
        return RationalVector._trusted(self, tuple([n * (den // d) for n, d in ratios]), den)

    def is_even(self) -> bool:
        return all(self.gram[i, i] % 2 == 0 for i in range(self.rank))

    @memoized
    def _pivots(self) -> tuple[int, ...] | None:
        """The pivots p_0, ..., p_{n-1} of symmetric_bareiss, computed once,
        or None when the elimination finds the form degenerate."""
        try:
            return tuple(row[0] for row in symmetric_bareiss(self.gram))
        except ValueError:
            return None

    def is_unimodular(self) -> bool:
        """|det G| = 1: the last pivot p_{n-1} is det G (see symmetric_bareiss),
        and a degenerate form has det G = 0."""
        pivots = self._pivots
        return pivots is not None and abs(pivots[-1] if pivots else 1) == 1

    def signature(self) -> tuple[int, int]:
        """(positive, negative) inertia indices; ValueError if degenerate.

        The negative index is the number of sign changes in 1, p_0, p_1, ...
        for the pivots p_k of symmetric_bareiss (Jacobi's rule; see there).
        """
        pivots = self._pivots
        if pivots is None:
            raise ValueError("degenerate form")
        signs = [1] + [1 if p > 0 else -1 for p in pivots]
        negative = sum(a != b for a, b in zip(signs, signs[1:]))
        return self.rank - negative, negative

    def __repr__(self):
        return f"Lattice({self.name!r}, rank={self.rank})"


def _check_same_lattice(u, v):
    """Refuse two vectors or isometries that do not share a lattice."""
    if u.lattice is not v.lattice and u.lattice != v.lattice:
        raise ValueError(
            f"operands from different lattices: {u.lattice.name} vs {v.lattice.name}"
        )


class _Vector(Frozen):
    """The caches and tests of both vector flavors, read from `nums`."""

    @memoized
    def gv(self) -> tuple[int, ...]:
        """G times the numerators, computed once."""
        return self.lattice.gram_times(self.nums)

    @memoized
    def vv(self) -> int:
        """Self-pairing of the numerators, computed once."""
        return _self_pairing(self)

    def is_zero(self) -> bool:
        return not any(self.nums)


class RationalVector(_Vector):
    """Vector nums / den in the rational span of a lattice.

    Stored fraction-free: integer numerators over one common denominator,
    kept canonical (den > 0 and gcd(den, *nums) == 1) so that equality and
    hashing stay structural.
    """

    _fields = ("lattice", "nums", "den")

    def __init__(self, lattice: Lattice, nums: Iterable[int], den: int = 1):
        nums = tuple(nums)
        if len(nums) != lattice.rank:
            raise ValueError("coordinate length does not match lattice rank")
        int_tuple((den, *nums), "numerator and denominator")
        if den == 0:
            raise ZeroDivisionError("zero denominator")
        g = gcd(den, *nums)
        if den < 0:
            g = -g
        if g != 1:
            nums = tuple(c // g for c in nums)
            den //= g
        object.__setattr__(self, "lattice", lattice)
        object.__setattr__(self, "nums", nums)
        object.__setattr__(self, "den", den)

    @classmethod
    def _trusted(cls, lattice: Lattice, nums: tuple[int, ...], den: int) -> "RationalVector":
        # nums is a tuple of ints of the lattice's rank and den > 0 with
        # gcd(den, *nums) == 1, so the checks and the normalization of
        # __init__ are skipped
        v = object.__new__(cls)
        object.__setattr__(v, "lattice", lattice)
        object.__setattr__(v, "nums", nums)
        object.__setattr__(v, "den", den)
        return v

    @memoized
    def coords(self) -> tuple[Fraction, ...]:
        den = self.den
        return tuple(Fraction(c, den) for c in self.nums)

    def _combine(self, other, sign: int) -> "RationalVector":
        _check_same_lattice(self, other)
        a, b = self.den, other.den
        if a == b:
            nums = tuple(x + sign * y for x, y in zip(self.nums, other.nums))
            return RationalVector(self.lattice, nums, a)
        m = lcm(a, b)
        fa, fb = m // a, sign * (m // b)
        nums = tuple(fa * x + fb * y for x, y in zip(self.nums, other.nums))
        return RationalVector(self.lattice, nums, m)

    def __add__(self, other):
        return self._combine(other, 1)

    __radd__ = __add__

    def __sub__(self, other):
        return self._combine(other, -1)

    def __rsub__(self, other):
        return (-self)._combine(other, 1)

    def __neg__(self):
        # negation keeps den > 0 and gcd(den, *nums) == 1
        return RationalVector._trusted(self.lattice, tuple(map(neg, self.nums)), self.den)

    def scale(self, c) -> "RationalVector":
        """c times the vector, for an int or a Fraction c (the rational rule)."""
        p, q = as_ratio(c, "scalar")
        return RationalVector(self.lattice, tuple(p * x for x in self.nums), q * self.den)

    def is_integral(self) -> bool:
        return self.den == 1

    def is_primitive(self) -> bool:
        """Integral with numerators of content 1, so not a multiple k * w of
        a lattice vector w with k > 1 (and not zero)."""
        return self.den == 1 and gcd(*self.nums) == 1


class LatticeVector(_Vector):
    """Vector with integer coordinates in its lattice basis."""

    _fields = ("lattice", "coords")
    den: ClassVar[int] = 1  # as an operand of rational arithmetic

    def __init__(self, lattice: Lattice, coords: tuple[int, ...]):
        if len(coords) != lattice.rank:
            raise ValueError("coordinate length does not match lattice rank")
        # stored as the checked tuple, so a list argument compares and hashes
        # as its tuple, and to_rational may share it
        coords = int_tuple(coords, "coordinate")
        object.__setattr__(self, "lattice", lattice)
        object.__setattr__(self, "coords", coords)

    @classmethod
    def _trusted(cls, lattice: Lattice, coords: tuple[int, ...]) -> "LatticeVector":
        # coords already is a tuple of ints of the lattice's rank computed
        # from validated ints, so the checks of __init__ are skipped
        v = object.__new__(cls)
        object.__setattr__(v, "lattice", lattice)
        object.__setattr__(v, "coords", coords)
        return v

    @property
    def nums(self) -> tuple[int, ...]:
        return self.coords

    def __add__(self, other):
        if not isinstance(other, LatticeVector):
            return NotImplemented
        _check_same_lattice(self, other)
        return LatticeVector._trusted(
            self.lattice, tuple(a + b for a, b in zip(self.coords, other.coords))
        )

    def __sub__(self, other):
        if not isinstance(other, LatticeVector):
            return NotImplemented
        _check_same_lattice(self, other)
        return LatticeVector._trusted(
            self.lattice, tuple(a - b for a, b in zip(self.coords, other.coords))
        )

    def __neg__(self):
        return LatticeVector._trusted(self.lattice, tuple(map(neg, self.coords)))

    def __mul__(self, c: int):
        # the one integer rule of exact_linalg.int_tuple: no bool, no IntEnum
        if type(c) is not int:
            raise TypeError(
                f"scale a LatticeVector by an integer, got {clip_repr(c)} (see to_rational)"
            )
        return LatticeVector._trusted(self.lattice, tuple([c * a for a in self.coords]))

    __rmul__ = __mul__

    def to_rational(self) -> RationalVector:
        # integers over the denominator 1 are always canonical
        return RationalVector._trusted(self.lattice, self.coords, 1)


AnyVector = Union[LatticeVector, RationalVector]


def _self_pairing(v: AnyVector) -> int:
    # the one dot product behind each vector's cached `vv`
    return sum(map(mul, v.nums, v.gv))


def pairing_nums(u: AnyVector, v: AnyVector) -> int:
    """Integer pairing of the numerators, (u, v) * u.den * v.den.

    A vector paired with itself reads its cached self-pairing `vv`.
    Otherwise one dot product with a cached Gram image: v's, unless only
    u's is cached (G is symmetric); v caches its image when neither has
    one.  The caller vouches that u and v share a lattice.
    """
    if u is v:
        return u.vv
    gu = u.__dict__.get("gv")
    if gu is not None and "gv" not in v.__dict__:
        return sum(map(mul, v.nums, gu))
    return sum(map(mul, u.nums, v.gv))


def pairing(u: AnyVector, v: AnyVector) -> Coord:
    """Bilinear pairing (u, v); int when both vectors are LatticeVectors."""
    _check_same_lattice(u, v)
    if isinstance(u, RationalVector) or isinstance(v, RationalVector):
        return Fraction(pairing_nums(u, v), u.den * v.den)
    return pairing_nums(u, v)


def norm(v: AnyVector) -> Coord:
    """Self-pairing (v, v)."""
    return pairing(v, v)


# -- standard lattices ------------------------------------------------------

# Bourbaki numbering: chain 1-3-4-5-6-7-8 with node 2 attached to node 4.
_E8_EDGES = ((0, 2), (2, 3), (3, 4), (4, 5), (5, 6), (6, 7), (1, 3))


def _e8_gram_rows() -> list[list[int]]:
    rows = [[2 if i == j else 0 for j in range(8)] for i in range(8)]
    for i, j in _E8_EDGES:
        rows[i][j] = rows[j][i] = -1
    return rows


def make_H() -> Lattice:
    """Even unimodular hyperbolic plane."""
    return Lattice("H", IntMatrix([[0, 1], [1, 0]]))


def make_E8() -> Lattice:
    """Positive definite even unimodular lattice of rank 8 (Cartan matrix)."""
    return Lattice("E8", IntMatrix(_e8_gram_rows()))


def direct_sum(name: str, *parts: Lattice) -> Lattice:
    total = sum(p.rank for p in parts)
    rows = [[0] * total for _ in range(total)]
    off = 0
    for p in parts:
        for i in range(p.rank):
            for j in range(p.rank):
                rows[off + i][off + j] = p.gram[i, j]
        off += p.rank
    return Lattice(name, IntMatrix(rows))


def rescale(l: Lattice, c: int, name: str | None = None) -> Lattice:
    """Same module with the pairing multiplied by c."""
    return Lattice(
        name or f"{l.name}({c})",
        IntMatrix([[c * x for x in row] for row in l.gram.rows]),
    )


def make_K3() -> Lattice:
    """H + H + H + (-E8) + (-E8): rank 22, even, unimodular, signature (3,19)."""
    h = make_H()
    me8 = rescale(make_E8(), -1, "-E8")
    return direct_sum("K3", h, h, h, me8, me8)


# Basis layout of make_K3: the isotropic pairs (e_i, f_i) of the three
# hyperbolic blocks, then the index ranges of the two -E8 blocks.
E1, F1, E2, F2, E3, F3 = range(6)
K3_BLOCKS = (tuple(range(6, 14)), tuple(range(14, 22)))


def k3_e(l: Lattice, i: int) -> LatticeVector:
    """Isotropic generator e_i of the i-th hyperbolic block (i = 0, 1, 2)."""
    return l.basis_vector((E1, E2, E3)[i])


def k3_f(l: Lattice, i: int) -> LatticeVector:
    """Isotropic generator f_i with (e_i, f_i) = 1."""
    return l.basis_vector((F1, F2, F3)[i])


def reference_pair(l: Lattice, l0: int, m: int, l2: int) -> tuple[LatticeVector, LatticeVector]:
    """The pair in reference position (e1 + l0 f1, m f1 + e2 + l2 f2): norms
    2 l0 and 2 l2, mutual pairing m."""
    int_tuple((l0, m, l2), "reference coefficient")
    kappa, eta = [0] * l.rank, [0] * l.rank
    kappa[E1], kappa[F1] = 1, l0
    eta[F1], eta[E2], eta[F2] = m, 1, l2
    return LatticeVector._trusted(l, tuple(kappa)), LatticeVector._trusted(l, tuple(eta))


# -- JSON interchange -------------------------------------------------------


def lattice_from_json_dict(data: dict) -> Lattice:
    if not isinstance(data, dict) or "gram" not in data:
        raise ValueError("lattice JSON must be an object with a 'gram' field")
    gram = data["gram"]
    if not isinstance(gram, list) or not all(isinstance(r, list) for r in gram):
        raise ValueError("'gram' must be a list of integer rows")
    m = IntMatrix(gram)
    if m.nrows != m.ncols:
        raise ValueError("'gram' must be square")
    if "rank" in data:
        if type(data["rank"]) is not int:
            raise ValueError(f"'rank' must be an integer, got {clip_repr(data['rank'])}")
        if data["rank"] != m.nrows:
            raise ValueError("'rank' does not match the Gram matrix size")
    return Lattice("lattice", m)
