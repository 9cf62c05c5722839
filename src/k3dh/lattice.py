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
dot product of the other side's numerators with that image.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import gcd, lcm
from operator import mul
from typing import ClassVar, Iterable, Sequence, Union

from .exact_linalg import IntMatrix, det, int_tuple, symmetric_bareiss

Coord = Union[int, Fraction]


@dataclass(frozen=True)
class Lattice:
    """Free Z-module of finite rank with an integer-valued pairing."""

    name: str
    gram: IntMatrix

    def __post_init__(self):
        if not self.gram.is_symmetric():
            raise ValueError("Gram matrix must be symmetric")

    @property
    def rank(self) -> int:
        return self.gram.nrows

    @cached_property
    def _gram_entries(self) -> tuple[tuple[tuple[int, int], ...], ...]:
        # sparse rows of the Gram matrix: row i holds (j, G_ij) for G_ij != 0
        return tuple(
            tuple((j, g) for j, g in enumerate(row) if g) for row in self.gram.rows
        )

    def gram_times(self, v: Sequence[int]) -> tuple[int, ...]:
        """G v for integer coordinates or numerators, the one pairing kernel.
        G is symmetric, so G v is the sum of the Gram rows in supp(v), each
        scaled by its coordinate."""
        out = [0] * self.rank
        for c, row in zip(v, self._gram_entries):
            if c:
                for j, g in row:
                    out[j] += g * c
        return tuple(out)

    @cached_property
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

        Each input is read once as a reduced ratio n/d with d > 0; ints and
        Fractions give theirs directly, other types go through Fraction(c).
        The result is already canonical: a prime p dividing den = lcm(d)
        divides some d_j to the full power it has in den, so p divides
        neither den // d_j nor n_j (coprime to d_j), nor their product."""
        ratios = [
            (c if type(c) is int or type(c) is Fraction else Fraction(c)).as_integer_ratio()
            for c in coords
        ]
        if len(ratios) != self.rank:
            raise ValueError("coordinate length does not match lattice rank")
        den = lcm(*(d for _, d in ratios))
        return RationalVector._trusted(self, tuple(n * (den // d) for n, d in ratios), den)

    def is_even(self) -> bool:
        return all(self.gram[i, i] % 2 == 0 for i in range(self.rank))

    def is_unimodular(self) -> bool:
        return abs(det(self.gram)) == 1

    def signature(self) -> tuple[int, int]:
        """(positive, negative) inertia indices; ValueError if degenerate.

        The negative index is the number of sign changes in 1, p_0, p_1, ...
        for the pivots p_k of symmetric_bareiss (Jacobi's rule; see there).
        """
        signs = [1] + [1 if row[0] > 0 else -1 for row in symmetric_bareiss(self.gram)]
        neg = sum(a != b for a, b in zip(signs, signs[1:]))
        return self.rank - neg, neg

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Lattice)
            and self.name == other.name
            and self.gram.rows == other.gram.rows
        )

    def __hash__(self):
        return hash((self.name, self.gram.rows))

    def __repr__(self):
        return f"Lattice({self.name!r}, rank={self.rank})"


def _check_same_lattice(u, v):
    if u.lattice is not v.lattice and u.lattice != v.lattice:
        raise ValueError(
            f"vectors from different lattices: {u.lattice.name} vs {v.lattice.name}"
        )


@dataclass(frozen=True)
class RationalVector:
    """Vector nums / den in the rational span of a lattice.

    Stored fraction-free: integer numerators over one common denominator,
    kept canonical (den > 0 and gcd(den, *nums) == 1) so that equality and
    hashing stay structural.
    """

    lattice: Lattice
    nums: tuple[int, ...]
    den: int = 1

    def __post_init__(self):
        nums = tuple(self.nums)
        if len(nums) != self.lattice.rank:
            raise ValueError("coordinate length does not match lattice rank")
        den = self.den
        int_tuple((den, *nums), "numerator and denominator")
        if den == 0:
            raise ZeroDivisionError("zero denominator")
        g = gcd(den, *nums)
        if den < 0:
            g = -g
        if g != 1:
            nums = tuple(c // g for c in nums)
            den //= g
        object.__setattr__(self, "nums", nums)
        object.__setattr__(self, "den", den)

    @classmethod
    def _trusted(cls, lattice: Lattice, nums: tuple[int, ...], den: int) -> "RationalVector":
        # nums is a tuple of ints of the lattice's rank and den > 0 with
        # gcd(den, *nums) == 1, so the checks and the normalization of
        # __post_init__ are skipped
        v = object.__new__(cls)
        object.__setattr__(v, "lattice", lattice)
        object.__setattr__(v, "nums", nums)
        object.__setattr__(v, "den", den)
        return v

    @cached_property
    def coords(self) -> tuple[Fraction, ...]:
        den = self.den
        return tuple(Fraction(c, den) for c in self.nums)

    @cached_property
    def gv(self) -> tuple[int, ...]:
        """G times the numerators, computed once."""
        return self.lattice.gram_times(self.nums)

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
        return RationalVector(self.lattice, tuple(-c for c in self.nums), self.den)

    def scale(self, c) -> "RationalVector":
        c = Fraction(c)
        p = c.numerator
        return RationalVector(
            self.lattice, tuple(p * x for x in self.nums), c.denominator * self.den
        )

    def is_zero(self) -> bool:
        return not any(self.nums)

    def is_integral(self) -> bool:
        return self.den == 1

    def is_primitive(self) -> bool:
        """Integral with numerators of content 1, so not a multiple k * w of
        a lattice vector w with k > 1 (and not zero)."""
        return self.den == 1 and gcd(*self.nums) == 1


@dataclass(frozen=True)
class LatticeVector:
    """Vector with integer coordinates in its lattice basis."""

    lattice: Lattice
    coords: tuple[int, ...]
    den: ClassVar[int] = 1  # as an operand of rational arithmetic

    def __post_init__(self):
        if len(self.coords) != self.lattice.rank:
            raise ValueError("coordinate length does not match lattice rank")
        int_tuple(self.coords, "coordinate")

    @classmethod
    def _trusted(cls, lattice: Lattice, coords: tuple[int, ...]) -> "LatticeVector":
        # coords already is a tuple of ints of the lattice's rank computed
        # from validated ints, so the checks of __post_init__ are skipped
        v = object.__new__(cls)
        object.__setattr__(v, "lattice", lattice)
        object.__setattr__(v, "coords", coords)
        return v

    @property
    def nums(self) -> tuple[int, ...]:
        return self.coords

    @cached_property
    def gv(self) -> tuple[int, ...]:
        """G times the coordinates, computed once."""
        return self.lattice.gram_times(self.coords)

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
        return LatticeVector._trusted(self.lattice, tuple(-a for a in self.coords))

    def __mul__(self, c: int):
        # the one integer rule of exact_linalg.int_tuple: no bool, no IntEnum
        if type(c) is not int:
            raise TypeError(f"scale a LatticeVector by an integer, got {c!r} (see to_rational)")
        return LatticeVector._trusted(self.lattice, tuple([c * a for a in self.coords]))

    __rmul__ = __mul__

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coords)

    def to_rational(self) -> RationalVector:
        return RationalVector(self.lattice, self.coords)


AnyVector = Union[LatticeVector, RationalVector]


def pairing_nums(u: AnyVector, v: AnyVector) -> int:
    """Integer pairing of the numerators, (u, v) * u.den * v.den.

    One dot product with a cached Gram image: v's, unless only u's is
    cached (G is symmetric); v caches its image when neither has one.  The
    caller vouches that u and v share a lattice.
    """
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
            raise ValueError(f"'rank' must be an integer, got {data['rank']!r}")
        if data["rank"] != m.nrows:
            raise ValueError("'rank' does not match the Gram matrix size")
    return Lattice("lattice", m)
