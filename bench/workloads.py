"""Seeded inputs, operations and exact-output oracles for the three workloads.

Inputs are plain coordinate tuples (ints and Fractions) made from the
workload seed; the library only ever sees those.  Every oracle below uses
its own copy of the rank-22 Gram matrix and its own arithmetic, so a wrong
answer from the library cannot agree with it by sharing code.
"""
from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass
from fractions import Fraction

RANK = 22
# Bourbaki numbering: chain 1-3-4-5-6-7-8 with node 2 attached to node 4
E8_EDGES = ((0, 2), (2, 3), (3, 4), (4, 5), (5, 6), (6, 7), (1, 3))


def k3_gram_rows() -> tuple[tuple[int, ...], ...]:
    """H + H + H + (-E8) + (-E8) in the library's basis order."""
    rows = [[0] * RANK for _ in range(RANK)]
    for b in range(3):
        rows[2 * b][2 * b + 1] = rows[2 * b + 1][2 * b] = 1
    for off in (6, 14):
        for i in range(8):
            rows[off + i][off + i] = -2
        for i, j in E8_EDGES:
            rows[off + i][off + j] = rows[off + j][off + i] = 1
    return tuple(tuple(r) for r in rows)


GRAM = k3_gram_rows()
_ENTRIES = tuple((i, j, g) for i, row in enumerate(GRAM) for j, g in enumerate(row) if g)


def pair(u, v):
    return sum(g * u[i] * v[j] for i, j, g in _ENTRIES)


def unit(i: int) -> tuple[int, ...]:
    return tuple(1 if k == i else 0 for k in range(RANK))


def lin(*terms) -> tuple:
    """Linear combination of coordinate tuples: lin((c1, v1), (c2, v2), ...)."""
    return tuple(sum(c * v[k] for c, v in terms) for k in range(RANK))


def dot(u, v) -> int:
    return sum(a * b for a, b in zip(u, v))


def mat_vec(rows, v) -> tuple[int, ...]:
    return tuple(dot(row, v) for row in rows)


def det3(m) -> int:
    return (
        m[0][0] * (m[1][1] * m[2][2] - m[1][2] * m[2][1])
        - m[0][1] * (m[1][0] * m[2][2] - m[1][2] * m[2][0])
        + m[0][2] * (m[1][0] * m[2][1] - m[1][1] * m[2][0])
    )


class Stream:
    """Records made on demand from one seeded generator, cached by index, so
    a second pass over the same indices sees the same inputs."""

    def __init__(self, seed: int, make):
        self.rng = random.Random(seed)
        self.make = make
        self.records: list = []

    def __getitem__(self, i: int):
        while len(self.records) <= i:
            self.records.append(self.make(self.rng, len(self.records)))
        return self.records[i]


# -- verify-battery ----------------------------------------------------------


def run_battery(cli) -> str:
    """One in-process battery, rendered as the bytes `k3dh verify --json` prints."""
    return json.dumps(cli.run_verify_paper().to_json_dict(), indent=2) + "\n"


def check_stdout(text: str, ref: dict) -> str | None:
    """All checks pass and the canonical text matches the recorded digest."""
    summary = json.loads(text)["summary"]
    if (summary["passed"], summary["total"]) != (ref["checks"], ref["checks"]):
        return f"{summary['passed']}/{summary['total']} checks passed, expected all {ref['checks']}"
    digest = hashlib.sha256(text.encode()).hexdigest()
    if digest != ref["digest"]:
        return f"--json digest {digest} != reference {ref['digest']}"
    return None


# -- period-sampling ---------------------------------------------------------


@dataclass(frozen=True)
class PeriodRecord:
    re: tuple
    im: tuple
    kappa: tuple
    # oracle values
    khat: tuple
    proj_norm: Fraction

    @property
    def member(self) -> bool:
        return self.proj_norm > 0


def period_record(rng: random.Random, index: int) -> PeriodRecord:
    """Criterion 02/03 law: a rotated period point in H+H and a rational kappa.

    kappa has coordinates p/q with |p| <= 8 and q <= 3; every third record is
    scaled down and pulled toward the positive cone by a e_3 + b f_3, because a
    random vector of signature (3,19) almost never has positive norm.
    """
    c = rng.randint(1, 3)  # equal norms, so any rational rotation stays valid
    u, v = lin((1, unit(0)), (c, unit(1))), lin((1, unit(2)), (c, unit(3)))
    while True:
        a = Fraction(rng.randint(-5, 5), rng.randint(1, 3))
        b = Fraction(rng.randint(-5, 5), rng.randint(1, 3))
        if a or b:
            break
    re, im = lin((a, u), (b, v)), lin((-b, u), (a, v))
    kappa = tuple(Fraction(rng.randint(-8, 8), rng.randint(1, 3)) for _ in range(RANK))
    if index % 3 == 0:
        kappa = lin((Fraction(1, 8), kappa), (rng.randint(1, 4), unit(4)), (rng.randint(1, 4), unit(5)))
    # (re, im) = 0 and (re, re) = (im, im), so the projection is two rank-one steps
    n = pair(re, re)
    cr, ci = Fraction(pair(kappa, re), n), Fraction(pair(kappa, im), n)
    khat = lin((1, kappa), (-cr, re), (-ci, im))
    proj_norm = pair(kappa, kappa) - (pair(kappa, re) ** 2 + pair(kappa, im) ** 2) / n
    return PeriodRecord(re, im, kappa, khat, Fraction(proj_norm))


def run_period(period, lattice, k3, rec: PeriodRecord):
    """Project, test the norm identity and both cone memberships.

    Functions are looked up on the modules at call time, so the traced run's
    wrappers see these calls.
    """
    kappa = k3.rational_vector(rec.kappa)
    point = period.PeriodPoint(k3.rational_vector(rec.re), k3.rational_vector(rec.im))
    khat = period.project_to_alpha_perp(kappa, point)
    lhs = lattice.norm(khat)
    rhs = lattice.norm(kappa) - 2 * point.pairing_square(kappa) / point.hermitian_norm()
    tame = period.is_in_ktilde_omega(kappa, point)
    return khat.coords, lhs, rhs, tame, period.is_in_k_omega(khat, point)


def check_period(out, rec: PeriodRecord) -> str | None:
    khat, lhs, rhs, tame, cone = out
    if khat != rec.khat:
        return "projection coordinates differ from the oracle"
    if not lhs == rhs == rec.proj_norm:
        return f"projected norm identity: {lhs} vs {rhs}, oracle {rec.proj_norm}"
    if not tame == cone == rec.member:
        return f"cone membership: tame {tame}, projected {cone}, oracle {rec.member}"
    return None


# -- isometry-pairs ----------------------------------------------------------


@dataclass(frozen=True)
class IsometryRecord:
    kappa: tuple
    eta: tuple
    kappa_p: tuple
    eta_p: tuple
    preserve: bool
    depth: int


def transvect(e, a, x) -> tuple:
    """Eichler transvection x + (x,e)a - (x,a)e - (a,a)/2 (x,e)e."""
    xe, xa = pair(x, e), pair(x, a)
    return lin((1, x), (xe, a), (-(xa + pair(a, a) // 2 * xe), e))


def random_transvection(rng: random.Random) -> tuple[tuple, tuple]:
    """Criterion 04 law: isotropic base e_i or f_i, argument orthogonal to it."""
    i = rng.randrange(3)
    is_e = rng.random() < 0.5
    base = unit(2 * i if is_e else 2 * i + 1)
    dual = 2 * i + 1 if is_e else 2 * i
    arg = [0] * RANK
    for _ in range(3):
        j = rng.randrange(RANK)
        if j != dual:
            arg[j] += rng.randint(-2, 2)
    return base, tuple(arg)


L_RANGE = range(-9, 10)  # DH coefficients 2l in [-18, 18], the battery's round-trip law


def isometry_maker():
    """Record maker: pair_from_polynomial on a random even DH polynomial
    2 l0 + 2 l1 t + 2 l2 t^2, moved by a chain of 1-4 random transvections.

    lemma_iso's cost grows mostly with |l0| and is higher in reverse mode, so
    l0 runs through a fresh seeded permutation of L_RANGE in every block of
    19 records, and (depth, mode) cycles through its 8 combinations; every
    run then sees the same cost mix and seeds differ only within it.
    """
    order: list[int] = []

    def make(rng: random.Random, index: int) -> IsometryRecord:
        if not order:
            order.extend(rng.sample(L_RANGE, len(L_RANGE)))
        l0, l1, l2 = order.pop(), rng.choice(L_RANGE), rng.choice(L_RANGE)
        kappa = lin((1, unit(0)), (l0, unit(1)))
        eta = lin((-l1, unit(1)), (1, unit(2)), (l2, unit(3)))
        kp, ep = kappa, eta
        depth = 1 + (index // 2) % 4
        for _ in range(depth):
            e, a = random_transvection(rng)
            kp, ep = transvect(e, a, kp), transvect(e, a, ep)
        return IsometryRecord(kappa, eta, kp, ep, index % 2 == 0, depth)

    return make


def run_isometry(isometry, k3, rec: IsometryRecord):
    phi = isometry.lemma_iso(
        k3.vector(rec.kappa), k3.vector(rec.eta),
        k3.vector(rec.kappa_p), k3.vector(rec.eta_p),
        preserve=rec.preserve,
    )
    return phi.matrix.rows


_PLANE = tuple(lin((1, unit(2 * i)), (1, unit(2 * i + 1))) for i in range(3))


def check_isometry(rows, rec: IsometryRecord) -> str | None:
    if mat_vec(rows, rec.kappa_p) != rec.kappa or mat_vec(rows, rec.eta_p) != rec.eta:
        return "the matrix does not carry (kappa', eta') to (kappa, eta)"
    cols = tuple(zip(*rows))
    gm = tuple(mat_vec(GRAM, col) for col in cols)  # columns of G M
    if any(dot(cols[i], gm[j]) != GRAM[i][j] for i in range(RANK) for j in range(RANK)):
        return "M^T G M != G"
    image = [mat_vec(rows, p) for p in _PLANE]
    preserved = det3([[pair(p, q) for q in image] for p in _PLANE]) > 0
    if preserved != rec.preserve:
        return f"orientation {'preserved' if preserved else 'reversed'}, requested the other"
    return None
