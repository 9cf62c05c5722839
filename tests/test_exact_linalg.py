import random
import re
from enum import IntEnum
from fractions import Fraction
from itertools import combinations
from math import gcd, prod

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from k3dh import cli, exact_linalg, kummer
from k3dh.exact_linalg import (
    IntMatrix,
    as_ratio,
    clip_repr,
    det,
    elementary_divisors,
    int_inverse,
    rat_det,
    rational,
    smith_normal_form,
    symmetric_bareiss,
    xgcd_vector,
)
from k3dh.isometry import eichler_transvection
from k3dh.lattice import RationalVector, make_K3
from k3dh.moment import (
    DHPolynomial,
    GluedModel,
    ModelError,
    Piece,
    Wall,
    is_positive_on,
    rational_from_json,
)

H_GRAM = [[0, 1], [1, 0]]

# Bourbaki-style E8 Cartan matrix: chain 1-3-4-5-6-7-8 with node 2 on node 4.
E8_EDGES = [(0, 2), (2, 3), (3, 4), (4, 5), (5, 6), (6, 7), (1, 3)]
E8_GRAM = [[2 if i == j else 0 for j in range(8)] for i in range(8)]
for _i, _j in E8_EDGES:
    E8_GRAM[_i][_j] = E8_GRAM[_j][_i] = -1


def det_cofactor(rows):
    """Independent oracle: determinant by cofactor expansion."""
    n = len(rows)
    if n == 0:
        return 1
    if n == 1:
        return rows[0][0]
    total = 0
    for j, x in enumerate(rows[0]):
        if x == 0:
            continue
        minor = [r[:j] + r[j + 1 :] for r in rows[1:]]
        total += (-1) ** j * x * det_cofactor(minor)
    return total


def determinantal_divisors(rows, ncols):
    """D_k = gcd of the k x k minors, k = 1..min(nrows, ncols), by cofactors."""
    return [
        gcd(*(
            det_cofactor([[rows[i][j] for j in cs] for i in rs])
            for rs in combinations(range(len(rows)), k)
            for cs in combinations(range(ncols), k)
        ))
        for k in range(1, min(len(rows), ncols) + 1)
    ]


def assert_snf_contract(m):
    d, v = smith_normal_form(m)
    # D: diagonal, nonnegative, d_1 | d_2 | ..., and d_1 ... d_k = D_k
    for i in range(d.nrows):
        for j in range(d.ncols):
            if i != j:
                assert d[i, j] == 0
    diag = [d[i, i] for i in range(min(d.nrows, d.ncols))]
    assert all(x >= 0 for x in diag)
    for a, b in zip(diag, diag[1:]):
        if a:
            assert b % a == 0
        else:
            assert b == 0
    assert [prod(diag[:k]) for k in range(1, len(diag) + 1)] == determinantal_divisors(
        m.rows, m.ncols
    )
    # V: unimodular, and m V = [B | 0] with rank B = r
    assert abs(det(v)) == 1
    r = sum(1 for x in diag if x)
    mv = m.mul(v).rows
    assert all(not any(row[r:]) for row in mv)
    if r:
        assert determinantal_divisors([row[:r] for row in mv], r)[r - 1] != 0
    return diag


def test_snf_diag_2_3():
    diag = assert_snf_contract(IntMatrix([[2, 0], [0, 3]]))
    assert diag == [1, 6]


def test_snf_small_known_cases():
    assert assert_snf_contract(IntMatrix([[1, 0], [0, 1]])) == [1, 1]
    assert assert_snf_contract(IntMatrix([[2, 4], [6, 8]])) == [2, 4]
    assert assert_snf_contract(IntMatrix([[0, 0], [0, 0]])) == [0, 0]
    assert assert_snf_contract(IntMatrix(H_GRAM)) == [1, 1]
    assert assert_snf_contract(IntMatrix(E8_GRAM)) == [1] * 8


def test_snf_rectangular_and_seeded_random():
    rng = random.Random(7)
    for _ in range(150):
        nr = rng.randint(1, 5)
        nc = rng.randint(1, 5)
        m = IntMatrix([[rng.randint(-9, 9) for _ in range(nc)] for _ in range(nr)])
        assert_snf_contract(m)


@settings(max_examples=60, deadline=None)
@given(
    st.lists(
        st.lists(st.integers(min_value=-50, max_value=50), min_size=3, max_size=3),
        min_size=2,
        max_size=4,
    )
)
def test_snf_property(rows):
    assert_snf_contract(IntMatrix(rows))


def former_smith_normal_form(m):
    """Test-only oracle: the former smith_normal_form, which carried V itself
    and applied each column operation to every row of V."""
    def row_addmul(a, dst, src, q):
        if q:
            a[dst] = [x + q * y for x, y in zip(a[dst], a[src])]

    def col_swap(a, i, j):
        for row in a:
            row[i], row[j] = row[j], row[i]

    def col_addmul(a, dst, src, q):
        if q:
            for row in a:
                row[dst] += q * row[src]

    R, C = m.nrows, m.ncols
    a = [list(row) for row in m.rows]
    v = [[int(i == j) for j in range(C)] for i in range(C)]
    k = 0
    while k < min(R, C):
        piv = None
        for i in range(k, R):
            for j in range(k, C):
                if a[i][j] and (piv is None or abs(a[i][j]) < abs(a[piv[0]][piv[1]])):
                    piv = (i, j)
        if piv is None:
            break
        a[k], a[piv[0]] = a[piv[0]], a[k]
        if piv[1] != k:
            col_swap(a, k, piv[1])
            col_swap(v, k, piv[1])
        while True:
            moved = False
            for i in range(R):
                if i != k and a[i][k]:
                    row_addmul(a, i, k, -(a[i][k] // a[k][k]))
                    if a[i][k]:
                        a[k], a[i] = a[i], a[k]
                        moved = True
            for j in range(C):
                if j != k and a[k][j]:
                    q = a[k][j] // a[k][k]
                    col_addmul(a, j, k, -q)
                    col_addmul(v, j, k, -q)
                    if a[k][j]:
                        col_swap(a, k, j)
                        col_swap(v, k, j)
                        moved = True
            if not moved and not any(a[i][k] for i in range(R) if i != k) and not any(
                    a[k][j] for j in range(C) if j != k):
                break
        bad = next(((i, j) for i in range(k + 1, R) for j in range(k + 1, C)
                    if a[i][j] % a[k][k]), None)
        if bad is None:
            k += 1
        else:
            row_addmul(a, k, bad[0], 1)
    for i in range(min(R, C)):
        if a[i][i] < 0:
            a[i] = [-x for x in a[i]]
    return IntMatrix(a), IntMatrix(v)


K3 = make_K3()
_PARTNER = {0: 1, 1: 0, 2: 3, 3: 2, 4: 5, 5: 4}
SPARSE_ENTRY = st.one_of(st.just(0), st.just(0), st.integers(-30, 30))


@st.composite
def snf_operands(draw):
    """Rows of a wide, tall or square matrix; the rows of a pair drawn by
    the isometry-pairs law (e1 + l0 f1 and -l1 f1 + e2 + l2 f2, moved by
    1-4 transvections with a hyperbolic base and three bumps of the
    argument off the base's partner), as is_primitive_embedding passes
    them; or three pairing functionals G v, as orthogonal_complement
    passes them for a 3-plane."""
    kind = draw(st.sampled_from(["wide", "tall", "square", "pair", "functionals"]))
    if kind == "pair":
        l0, l1, l2 = (draw(st.integers(-9, 9)) for _ in range(3))
        e1, f1, e2, f2 = (K3.basis_vector(i) for i in range(4))
        kap, eta = e1 + l0 * f1, -l1 * f1 + e2 + l2 * f2
        for _ in range(draw(st.integers(1, 4))):
            base_i = draw(st.integers(0, 5))
            arg = [0] * K3.rank
            for _ in range(3):
                j = draw(st.integers(0, K3.rank - 1))
                if j != _PARTNER[base_i]:
                    arg[j] += draw(st.integers(-2, 2))
            t = eichler_transvection(K3.basis_vector(base_i), K3.vector(arg))
            kap, eta = t.apply(kap), t.apply(eta)
        return [kap.coords, eta.coords]
    if kind == "functionals":
        vectors = draw(st.lists(st.lists(SPARSE_ENTRY, min_size=22, max_size=22),
                                min_size=3, max_size=3))
        return [K3.vector(v).gv for v in vectors]
    nrows, ncols = {
        "wide": (draw(st.integers(1, 3)), draw(st.integers(4, 22))),
        "tall": (draw(st.integers(4, 22)), draw(st.integers(1, 3))),
        "square": (draw(st.integers(1, 4)),) * 2,
    }[kind]
    row = st.lists(SPARSE_ENTRY, min_size=ncols, max_size=ncols)
    return draw(st.lists(row, min_size=nrows, max_size=nrows))


@settings(max_examples=150, deadline=None)
@given(snf_operands())
def test_snf_matches_the_former_column_operations(rows):
    # V carried as its transpose takes the same pivots: D and V are the
    # former ones, and V fixes the complement bases, hence root order
    m = IntMatrix(rows)
    assert smith_normal_form(m) == former_smith_normal_form(m)


def test_det_known_values():
    assert det(IntMatrix(H_GRAM)) == -1
    assert det(IntMatrix(E8_GRAM)) == 1
    assert det(IntMatrix.identity(5)) == 1
    assert det(IntMatrix([[2]])) == 2
    assert det(IntMatrix([])) == 1


def test_det_matches_cofactor_oracle():
    rng = random.Random(11)
    for _ in range(120):
        n = rng.randint(1, 5)
        rows = [[rng.randint(-8, 8) for _ in range(n)] for _ in range(n)]
        assert det(IntMatrix(rows)) == det_cofactor(rows)


def test_det_matches_snf_divisors_up_to_sign():
    rng = random.Random(13)
    for _ in range(60):
        n = rng.randint(1, 4)
        m = IntMatrix([[rng.randint(-6, 6) for _ in range(n)] for _ in range(n)])
        d = det(m)
        divisors = elementary_divisors(m)
        if len(divisors) < n:
            assert d == 0
        else:
            prod = 1
            for x in divisors:
                prod *= x
            assert abs(d) == prod


def test_det_rejects_non_square():
    with pytest.raises(ValueError):
        det(IntMatrix([[1, 2, 3], [4, 5, 6]]))
    with pytest.raises(ValueError, match="non-square"):
        int_inverse(IntMatrix([[1, 0, 0], [0, 1, 0]]))
    with pytest.raises(ValueError, match="non-square"):
        rat_det([[Fraction(1, 2), 0, 0], [0, 1, 0]])


def test_rat_det_agrees_with_int_det():
    rng = random.Random(17)
    for _ in range(60):
        n = rng.randint(1, 4)
        rows = [[rng.randint(-8, 8) for _ in range(n)] for _ in range(n)]
        assert rat_det(rows) == Fraction(det(IntMatrix(rows)))


def test_int_inverse_unimodular():
    rng = random.Random(19)
    for _ in range(40):
        n = rng.randint(1, 5)
        m = IntMatrix([[rng.randint(-5, 5) for _ in range(n)] for _ in range(n)])
        _, v = smith_normal_form(m)
        vinv = int_inverse(v)
        assert v.mul(vinv).rows == IntMatrix.identity(n).rows
        assert vinv.mul(v).rows == IntMatrix.identity(n).rows
    with pytest.raises(ValueError):
        int_inverse(IntMatrix([[2, 0], [0, 1]]))


def test_content_and_xgcd():
    rng = random.Random(31)
    for _ in range(200):
        vals = [rng.randint(-40, 40) for _ in range(rng.randint(1, 6))]
        g, coeffs = xgcd_vector(vals)
        assert g == gcd(*vals)
        assert sum(c * v for c, v in zip(coeffs, vals)) == g


@settings(max_examples=80, deadline=None)
@given(st.lists(st.integers(min_value=-10**9, max_value=10**9), min_size=1, max_size=5))
def test_xgcd_property(vals):
    g, coeffs = xgcd_vector(vals)
    assert sum(c * v for c, v in zip(coeffs, vals)) == g
    assert g == gcd(*vals)


def test_int_matrix_validation():
    with pytest.raises(TypeError):
        IntMatrix([[1.5]])
    with pytest.raises(ValueError):
        IntMatrix([[1, 2], [3]])
    with pytest.raises(ValueError, match="ragged"):
        rat_det([[Fraction(1, 2), 2], [3]])
    m = IntMatrix([[1, 2], [3, 4]])
    assert m.transpose().rows == ((1, 3), (2, 4))
    assert m.mul(IntMatrix.identity(2)).rows == m.rows
    assert m.is_symmetric() is False
    assert IntMatrix(H_GRAM).is_symmetric() is True


def former_is_symmetric(m: IntMatrix) -> bool:
    """Test-only oracle: the former IntMatrix.is_symmetric double loop."""
    return m.nrows == m.ncols and all(
        m.rows[i][j] == m.rows[j][i] for i in range(m.nrows) for j in range(i)
    )


def test_is_symmetric_matches_the_former_loop():
    # random square matrices, half of them symmetrized and some of those
    # with one entry broken, non-square matrices and the empty matrix
    rng = random.Random(28)
    cases = [IntMatrix([]), IntMatrix([[5]]), IntMatrix([[1, 2, 3]]), IntMatrix([[1], [2]])]
    for _ in range(300):
        n, k = rng.randint(1, 7), rng.randint(1, 7)
        rows = [[rng.randint(-3, 3) for _ in range(k)] for _ in range(n)]
        if n == k and rng.random() < 0.5:
            rows = [[rows[min(i, j)][max(i, j)] for j in range(n)] for i in range(n)]
            if n > 1 and rng.random() < 0.5:
                i, j = rng.sample(range(n), 2)
                rows[i][j] += rng.choice([-1, 1])
        cases.append(IntMatrix(rows))
    seen = set()
    for m in cases:
        assert m.is_symmetric() is former_is_symmetric(m)
        seen.add((m.nrows == m.ncols, m.is_symmetric()))
    assert seen == {(True, True), (True, False), (False, False)}
    assert IntMatrix([]).is_symmetric() is True


class Flag(IntEnum):
    ONE = 1


@pytest.mark.parametrize("bad", [True, Flag.ONE], ids=["bool", "IntEnum"])
def test_one_integer_rule(bad, monkeypatch, capsys):
    # every integer entry point applies the one rule type(x) is int: an int
    # subclass, such as bool or an IntEnum member, is refused, not coerced
    k3 = make_K3()
    coords = [bad] + [0] * 21
    entry_points = [
        lambda: IntMatrix([[1, bad]]),
        lambda: k3.vector(coords),
        lambda: RationalVector(k3, coords),
        lambda: RationalVector(k3, [1] + [0] * 21, bad),
        lambda: k3.rational_vector(coords),
        lambda: kummer.exceptional(bad),
        lambda: kummer.eta_hat(bad),
        lambda: kummer.sigma_class(bad, 1),
        lambda: kummer.symplectic_family_form(bad, 1),
        lambda: kummer.from_terms({(bad, 2): 1}),
        lambda: Wall(1, bad, (-2, 1, 1)),
        lambda: Wall(1, 16, (-2, bad, 1)),
        lambda: GluedModel((), (), fixed_points=bad),
        lambda: k3.basis_vector(0) * bad,
        lambda: bad * k3.basis_vector(0),
    ]
    for make in entry_points:
        with pytest.raises(TypeError, match="integer"):
            make()
    with pytest.raises(ModelError, match="exact rational"):
        rational_from_json(bad)
    # a JSON file cannot hold an IntEnum member, so the document is handed
    # to the command as the loader would return it
    doc = {key: [1] + [0] * 21 for key in ("kappa", "eta", "kappa_p", "eta_p")}
    doc["eta_p"] = coords
    monkeypatch.setattr(cli, "_load_json", lambda path: doc)
    assert cli.main(["isometry", "--pairs", "pairs.json"]) == 2
    assert "'eta_p' must contain integers only" in capsys.readouterr().err


POLY = DHPolynomial(1, 0, 1)
UNIT = make_K3().rational_vector([1] + [0] * 21)


# each value here used to be read through Fraction(x), which took 0.1 as
# 3602879701896397/36028797018963968, "1/3" as 1/3 and True as 1
@pytest.mark.parametrize(
    "make, bad",
    [
        (lambda: DHPolynomial(0.1, Fraction(1, 3), 1), "0.1"),
        (lambda: DHPolynomial(0, "1/3", 1), "'1/3'"),
        (lambda: DHPolynomial(0, 1, True), "True"),
        (lambda: POLY.evaluate(0.5), "0.5"),
        (lambda: POLY.translate("1/2"), "'1/2'"),
        (lambda: is_positive_on(POLY, 0.5, 1), "0.5"),
        (lambda: Wall(0.5, 16, (-2, 1, 1)), "0.5"),
        (lambda: Piece("1/2", 2, POLY), "'1/2'"),
        (lambda: Piece(0, 1e1, POLY), "10.0"),
        (lambda: GluedModel((), (), period=4.0), "4.0"),
        (lambda: UNIT.scale(0.5), "0.5"),
        (lambda: UNIT.scale(Flag.ONE), "<Flag.ONE: 1>"),
        (lambda: kummer.symplectic_family_form(1, 0.5), "0.5"),
        (lambda: kummer.sigma_class(1, "1"), "'1'"),
    ],
    ids=["dh-float", "dh-string", "dh-bool", "evaluate", "translate", "positive-on",
         "wall-level", "piece-lo", "piece-hi", "period", "scale-float", "scale-IntEnum",
         "family-t", "sigma-t"],
)
def test_one_rational_rule(make, bad):
    with pytest.raises(TypeError, match=rf"^integer or Fraction \w+ expected, got {re.escape(bad)}$"):
        make()


def test_the_rational_rule_reads_ints_and_fractions():
    # an int becomes a Fraction, and a Fraction is kept as it is
    third = Fraction(1, 3)
    assert rational(third, "x") is third
    assert type(rational(-4, "x")) is Fraction and rational(-4, "x") == -4
    assert as_ratio(Fraction(-6, 4), "x") == (-3, 2) and as_ratio(7, "x") == (7, 1)
    p = DHPolynomial(2, third, -4)
    assert [type(c) for c in p.coefficients] == [Fraction] * 3
    assert p.evaluate(3) == Fraction(-33) and p.translate(third) == DHPolynomial(
        Fraction(13, 9), Fraction(3), -4)
    assert type(Wall(1, 16, (-2, 1, 1)).level) is Fraction
    assert (Piece(0, third, POLY).lo, Piece(0, third, POLY).hi) == (0, third)
    assert GluedModel((), (), period=4).period == Fraction(4)
    assert UNIT.scale(Fraction(-3, 2)) == make_K3().rational_vector([Fraction(-3, 2)] + [0] * 21)
    assert kummer.sigma_class(1, 2) == kummer.sigma_class(1, Fraction(2))


# -- oracles for the row-sparse product and the fraction-free inverse -------


def naive_mul(a, b, ncols):
    """Test-only oracle: the textbook triple loop."""
    return tuple(
        tuple(sum(a[i][k] * b[k][j] for k in range(len(b))) for j in range(ncols))
        for i in range(len(a))
    )


# Test-only oracles: the former Fraction eliminations of exact_linalg.


def fraction_det(rows):
    """Gaussian elimination over Fraction, the former rat_det."""
    n = len(rows)
    a = [[Fraction(x) for x in row] for row in rows]
    result = Fraction(1)
    for k in range(n):
        p = next((i for i in range(k, n) if a[i][k] != 0), None)
        if p is None:
            return Fraction(0)
        if p != k:
            a[k], a[p] = a[p], a[k]
            result = -result
        result *= a[k][k]
        for i in range(k + 1, n):
            f = a[i][k] / a[k][k]
            a[i] = [x - f * y for x, y in zip(a[i], a[k])]
    return result


def fraction_rref(a):
    """In-place RREF over Fraction, the former _rref; returns the pivot columns."""
    pivots = []
    for c in range(len(a[0]) if a else 0):
        r = len(pivots)
        p = next((i for i in range(r, len(a)) if a[i][c] != 0), None)
        if p is None:
            continue
        a[r], a[p] = a[p], a[r]
        a[r] = [x / a[r][c] for x in a[r]]
        for i in range(len(a)):
            if i != r and a[i][c] != 0:
                f = a[i][c]
                a[i] = [x - f * y for x, y in zip(a[i], a[r])]
        pivots.append(c)
        if len(pivots) == len(a):
            break
    return pivots


def fraction_inverse(rows):
    """Gauss-Jordan on [m | I] over Fraction, the former int_inverse."""
    n = len(rows)
    a = [[Fraction(x) for x in row] + [Fraction(int(i == j)) for j in range(n)]
         for i, row in enumerate(rows)]
    if fraction_rref(a)[:n] != list(range(n)):
        raise ValueError("matrix is singular")
    return tuple(tuple(row[n:]) for row in a)


DENSE = st.integers(-50, 50)
SPARSE = st.sampled_from((0,) * 8 + (1, -1, 3))  # includes the unit fast path


@st.composite
def single_entry_row(draw, k):
    # zero rows and rows with one entry 1, -1 or 2: the unit fast path and
    # its nearest misses
    row = [0] * k
    if k:
        row[draw(st.integers(0, k - 1))] = draw(st.sampled_from((0, 1, 1, -1, 2)))
    return row


@st.composite
def product_operands(draw):
    r, k, c = (draw(st.integers(0, 6)) for _ in range(3))
    entry = draw(st.sampled_from((DENSE, SPARSE)))
    a = [
        draw(st.one_of(
            st.lists(entry, min_size=k, max_size=k), single_entry_row(k)
        ))
        for _ in range(r)
    ]
    b = [[draw(entry) for _ in range(c)] for _ in range(k)]
    return IntMatrix(a), IntMatrix(b)


@settings(max_examples=200, deadline=None)
@given(product_operands())
def test_mul_matches_triple_loop(operands):
    a, b = operands
    if a.ncols != b.nrows:  # an empty matrix forgets its column count
        with pytest.raises(ValueError):
            a.mul(b)
        return
    out = a.mul(b)
    assert out.rows == naive_mul(a.rows, b.rows, b.ncols)
    assert out == IntMatrix(out.rows)  # validated rebuild: same ints, same shape
    assert all(type(x) is int for row in out.rows for x in row)


def test_mul_transvection_shape_and_empty():
    rng = random.Random(37)
    n = 22
    dense = IntMatrix([[rng.randint(-9, 9) for _ in range(n)] for _ in range(n)])
    t = [[int(i == j) for j in range(n)] for i in range(n)]
    t[4] = [rng.randint(-3, 3) for _ in range(n)]
    for row in t:
        row[7] += rng.randint(-3, 3)
    t = IntMatrix(t)
    for a, b in ((t, dense), (dense, t), (dense, dense)):
        assert a.mul(b).rows == naive_mul(a.rows, b.rows, n)
    assert IntMatrix([]).mul(IntMatrix([])).rows == ()
    assert IntMatrix([[1, 2]]).mul(IntMatrix([[0], [0]])).rows == ((0,),)
    with pytest.raises(ValueError):
        IntMatrix([[1, 2]]).mul(IntMatrix([[1, 2]]))


@st.composite
def unimodular_rows(draw):
    """A random product of elementary matrices: add, swap, negate."""
    n = draw(st.integers(1, 7))
    rows = [[int(i == j) for j in range(n)] for i in range(n)]
    for _ in range(draw(st.integers(0, 30))):
        kind = draw(st.sampled_from(("add", "add", "swap", "negate")))
        i, j = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
        if kind == "add" and i != j:
            q = draw(st.integers(-4, 4))
            rows[i] = [x + q * y for x, y in zip(rows[i], rows[j])]
        elif kind == "swap":
            rows[i], rows[j] = rows[j], rows[i]
        elif kind == "negate":
            rows[i] = [-x for x in rows[i]]
    return rows


@settings(max_examples=150, deadline=None)
@given(unimodular_rows())
def test_int_inverse_matches_fraction_oracle(rows):
    m = IntMatrix(rows)
    inv = int_inverse(m)
    assert inv.rows == fraction_inverse(rows)
    assert m.mul(inv).rows == IntMatrix.identity(len(rows)).rows


@settings(max_examples=60, deadline=None)
@given(unimodular_rows(), st.sampled_from((0, 2, -2, 3, 7)), st.data())
def test_int_inverse_rejects_non_unimodular(rows, k, data):
    i = data.draw(st.integers(0, len(rows) - 1))
    rows[i] = [k * x for x in rows[i]]
    with pytest.raises(ValueError, match="not unimodular"):
        int_inverse(IntMatrix(rows))


def test_int_inverse_exactness_guard():
    assert int_inverse(IntMatrix([])).rows == ()


@pytest.mark.parametrize("rows", [[[1, 0], [0, -1]], [[2, 1], [1, 0]]])
def test_int_inverse_at_minus_one(rows):
    # both eliminations end at d = -1, where the right block is negated
    work = [[*row, int(i == 0), int(i == 1)] for i, row in enumerate(rows)]
    assert exact_linalg._bareiss_rref(work, 2)[1] == -1
    assert int_inverse(IntMatrix(rows)).rows == fraction_inverse(rows)
    with pytest.raises(ValueError, match="not unimodular"):
        int_inverse(IntMatrix([rows[0], [2 * x for x in rows[1]]]))


def test_int_inverse_of_the_identity():
    ident = IntMatrix.identity(22)
    assert int_inverse(ident).rows == ident.rows


def test_int_inverse_returns_an_identity_without_elimination(monkeypatch):
    # eliminating [I | I] changes nothing, so an identity comes back as it is
    eliminations = []
    rref = exact_linalg._bareiss_rref
    monkeypatch.setattr(exact_linalg, "_bareiss_rref",
                        lambda rows, n: eliminations.append(n) or rref(rows, n))
    for n in (0, 1, 2, 5, 22):
        for ident in (IntMatrix.identity(n), IntMatrix._trusted(exact_linalg._identity_rows(n))):
            assert int_inverse(ident) is ident
    assert eliminations == []
    # a matrix one entry away from the identity is eliminated and inverted
    # (test_int_inverse_unimodular inverts dense ones)
    rng = random.Random(23)
    for n in (1, 2, 5, 22):
        rows = [[int(r == c) for c in range(n)] for r in range(n)]
        i, j = rng.randrange(n), rng.randrange(n)
        # an off-diagonal entry, or a sign change on the diagonal
        rows[i][j] = rng.choice((-3, -1, 2)) if i != j else -1
        m = IntMatrix(rows)
        assert m.mul(int_inverse(m)).rows == exact_linalg._identity_rows(n)
    assert eliminations == [1, 2, 5, 22]
    # and a matrix that is not unimodular is still refused
    for rows in ([[2]], [[1, 0], [0, 2]], [[1, 0, 0], [0, 1, 0], [0, 0, 0]]):
        with pytest.raises(ValueError, match="not unimodular"):
            int_inverse(IntMatrix(rows))


# -- the fraction-free rat_det against the Fraction oracle -------------------

RAT = st.one_of(
    st.just(Fraction(0)),
    st.builds(Fraction, st.integers(-9, 9), st.sampled_from((1, 1, 2, 3, 4, 6, 7))),
)


@st.composite
def rational_rows(draw):
    """Square rational rows with denominators; some singular, some with zero rows."""
    nr = nc = draw(st.integers(0, 5))
    rows = [[draw(RAT) for _ in range(nc)] for _ in range(nr)]
    if nr >= 2 and draw(st.booleans()):  # a row combined from two others
        i, j, k = (draw(st.integers(0, nr - 1)) for _ in range(3))
        q = draw(RAT)
        rows[i] = [q * x + y for x, y in zip(rows[j], rows[k])]
    if nr and draw(st.booleans()):
        rows[draw(st.integers(0, nr - 1))] = [Fraction(0)] * nc
    return rows


@settings(max_examples=200, deadline=None)
@given(rational_rows())
def test_rat_det_matches_fraction_oracle(rows):
    d = rat_det(rows)
    assert type(d) is Fraction and d == fraction_det(rows)


# -- the symmetric elimination ----------------------------------------------


def leading_minors(rows):
    return [det_cofactor([r[: k + 1] for r in rows[: k + 1]]) for k in range(len(rows))]


def ldl_product(rows):
    """G'_ij = sum_k a[k][i] a[k][j] / (p_{k-1} p_k) over k <= min(i, j)."""
    n = len(rows)
    a = [[0] * k + list(row) for k, row in enumerate(rows)]
    p = [1] + [row[0] for row in rows]
    return [
        [sum(Fraction(a[k][i] * a[k][j], p[k] * p[k + 1]) for k in range(min(i, j) + 1))
         for j in range(n)]
        for i in range(n)
    ]


def test_symmetric_bareiss_pivots_and_repairs():
    rng = random.Random(43)
    seen = {"plain": 0, "repaired": 0, "degenerate": 0}
    for _ in range(400):
        n = rng.randint(1, 5)
        rows = [[0] * n for _ in range(n)]
        for i in range(n):
            for j in range(i, n):
                rows[i][j] = rows[j][i] = rng.choice((0, 0, 0, 1, -1, 2, -3))
        minors = leading_minors(rows)
        if det_cofactor(rows) == 0:
            seen["degenerate"] += 1
            with pytest.raises(ValueError, match="degenerate form"):
                symmetric_bareiss(IntMatrix(rows))
            continue
        out = symmetric_bareiss(IntMatrix(rows))
        assert [len(r) for r in out] == list(range(n, 0, -1))
        pivots = [r[0] for r in out]
        assert 0 not in pivots and pivots[-1] == minors[-1]  # det P = 1
        if 0 in minors:
            # the rows are the LDL^T data of an integer G' with det G' = det G
            seen["repaired"] += 1
            g2 = ldl_product(out)
            assert all(x.denominator == 1 for row in g2 for x in row)
            assert det_cofactor(g2) == minors[-1]
        else:
            # no repair: the rows are the bordered minors of the input
            seen["plain"] += 1
            for k, row in enumerate(out):
                for j, x in zip(range(k, n), row):
                    assert x == det_cofactor(
                        [r[:k] + [r[j]] for r in rows[: k + 1]]
                    )
    assert min(seen.values()) > 20, seen


def test_symmetric_bareiss_repair_example():
    # x_0 -> x_0 + x_1 turns H into [[2, 1], [1, 0]]
    assert symmetric_bareiss(IntMatrix(H_GRAM)) == ((2, 1), (-1,))
    assert symmetric_bareiss(IntMatrix([])) == ()
    with pytest.raises(ValueError, match="degenerate form"):
        symmetric_bareiss(IntMatrix([[0, 0], [0, 1]]))
    with pytest.raises(ValueError, match="non-square"):
        symmetric_bareiss(IntMatrix([[1, 2]]))


def test_clip_repr_bounds_long_values():
    # a repr of at most 60 characters prints in full, a longer one is cut
    # there and followed by its length
    for short in (7, "two", [1, 2], "x" * 58):
        assert clip_repr(short) == repr(short)
    assert clip_repr("x" * 59) == repr("x" * 59)[:60] + "... (61 chars)"
    assert clip_repr("9" * 5000) == "'" + "9" * 59 + "... (5002 chars)"
    with pytest.raises(TypeError) as refused:
        make_K3().basis_vector(0) * ("7" * 5000)
    assert len(str(refused.value)) <= 200
