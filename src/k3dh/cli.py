"""Command line front end.

Subcommands wrap the library modules one-to-one, plus `verify`, which runs
the consolidated battery of every reference value the package reproduces.
Exit codes are uniform: 0 all checks pass, 1 a mathematical check failed,
2 malformed input.  All numbers are printed exactly (integers or p/q);
there is no floating point anywhere.
"""
from __future__ import annotations

import argparse
import json
import random
import sys
from fractions import Fraction

from .exact_linalg import InvariantError
from .isometry import (
    StandardizationError,
    eichler_transvection,
    flip_third_H,
    identity_isometry,
    lemma_iso,
    preserves_components,
)
from .kummer import (
    NUM_EXCEPTIONAL,
    NUM_TORUS,
    area_sum_form,
    eta_hat,
    exceptional,
    kappa_hat,
    pairing as blowup_pairing,
    primitive_pair_check,
    pullback,
    sigma_class,
    symplectic_family_form,
    volume_real_form,
    wedge_integrate,
)
from .lattice import (
    E1,
    E2,
    E3,
    F1,
    F2,
    F3,
    Lattice,
    RationalVector,
    direct_sum,
    k3_e,
    k3_f,
    lattice_from_json_dict,
    make_E8,
    make_H,
    make_K3,
    norm,
    pairing,
)
from .moment import (
    Check,
    DHPolynomial,
    GluedModel,
    ModelError,
    Piece,
    Report,
    Wall,
    dh_from_pair,
    make_check,
    model_from_json_dict,
    packaged_model,
    pair_from_polynomial,
    rational_from_json,
    rational_to_str,
    validate,
)
from .period import PeriodPoint, is_in_ktilde_omega, project_to_alpha_perp
from .shortvec import DefiniteGram, IndefiniteGramError, enumerate_norm, roots_orthogonal_to

_STANDARD = {
    "h": make_H,
    "e8": make_E8,
    "e8+e8": lambda: direct_sum("E8+E8", make_E8(), make_E8()),
    "k3": make_K3,
}


class InputError(Exception):
    """Bad file, bad JSON, bad record shape: exit code 2."""


def _load_json(path: str):
    try:
        with open(path) as fh:
            return json.load(fh)
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc
    except (ValueError, RecursionError) as exc:
        # ValueError covers JSONDecodeError and an integer literal past the
        # int-string digit limit; RecursionError a too deeply nested document
        raise InputError(f"{path} is not valid JSON: {exc}") from exc


def _parse_lattice(data) -> Lattice:
    try:
        return lattice_from_json_dict(data)
    except (KeyError, TypeError, ValueError) as exc:
        raise InputError(f"bad lattice data: {exc}") from exc


def _resolve_lattice(args) -> Lattice:
    if getattr(args, "standard", None):
        return _STANDARD[args.standard]()
    return _parse_lattice(_load_json(args.file))


def _emit(args, report: Report, extra: dict | None = None, lines: tuple = ()) -> int:
    """Print the report as JSON, with the `extra` keys appended, or as text
    lines followed by `lines`; the exit code says whether every check passed."""
    if args.json:
        print(json.dumps({**report.to_json_dict(), **(extra or {})}, indent=2))
    else:
        for line in (*report.lines(), *lines):
            print(line)
    return 0 if report.all_passed() else 1


def _rats(*values) -> str:
    return "(" + ", ".join(rational_to_str(v) for v in values) + ")"


def _distinct(values) -> str:
    return ", ".join(sorted({rational_to_str(v) for v in values}))


# -- plain subcommands -------------------------------------------------------


def cmd_lattice_info(args) -> int:
    lattice = _resolve_lattice(args)
    try:
        sig = lattice.signature()
    except ValueError as exc:
        raise InputError(f"bad lattice data: {exc}") from exc
    info = {
        "name": lattice.name,
        "rank": lattice.rank,
        "even": lattice.is_even(),
        "unimodular": lattice.is_unimodular(),
        "signature": list(sig),
    }
    if args.json:
        print(json.dumps(info, indent=2))
        return 0
    for key, value in info.items():
        if isinstance(value, bool):
            value = str(value).lower()
        elif isinstance(value, list):
            value = tuple(value)
        print(f"{key}: {value}")
    return 0


def cmd_shortvec(args) -> int:
    lattice = _resolve_lattice(args)
    try:
        gram = DefiniteGram(lattice.gram)
        vectors = enumerate_norm(gram, args.norm)
    except (IndefiniteGramError, ValueError) as exc:
        raise InputError(str(exc)) from exc
    if args.json:
        doc = {"norm": args.norm, "count": len(vectors), "vectors": [list(v) for v in vectors]}
        print(json.dumps(doc, indent=2))
    else:
        for v in vectors:
            print(" ".join(str(x) for x in v))
        print(f"count: {len(vectors)}")
    return 0


def _rational_vector(lattice: Lattice, raw, what: str):
    if not isinstance(raw, list) or len(raw) != lattice.rank:
        raise InputError(f"'{what}' must be a list of {lattice.rank} entries")
    try:
        return lattice.rational_vector([rational_from_json(v) for v in raw])
    except ModelError as exc:
        raise InputError(f"bad '{what}': {exc}") from exc


def _period_checks(kappa, re, im) -> list[Check]:
    """The checks of one period record: re + i*im spans a period point, and
    then the projected-norm identity and the tame-cone equivalence.  The
    identity's right-hand side is PeriodPoint.projected_norm, computed from
    kappa's pairings with the line (the ones the projection stored) and with
    itself, not from the projected vector; the equivalence row records the
    exit check of is_in_ktilde_omega, which raises InvariantError unless its
    membership agrees with the positive-cone test on the projection.  An
    InvariantError of either library call is a fault in the period layer,
    reported as a failed projection row in place of those two rows."""
    checks = []
    try:
        point = PeriodPoint(re, im)
    except ValueError:
        point = None
    checks.append(
        make_check(
            "period:point",
            "re + i*im spans a period point",
            "(re,im) = 0 and (re,re) = (im,im) > 0",
            "true",
            "true" if point is not None else "false",
        )
    )
    if point is None:
        return checks
    try:
        khat = project_to_alpha_perp(kappa, point)
        lhs, rhs = norm(khat), point.projected_norm(kappa)
        member = "true" if is_in_ktilde_omega(kappa, point) else "false"
    except InvariantError as exc:
        checks.append(
            make_check(
                "period:projection",
                "kappa projects away from the period line",
                "the projection is orthogonal to the line and agrees with the tame-cone test",
                "projected",
                f"failed: {exc}",
            )
        )
        return checks
    checks.append(
        make_check(
            "period:projection-identity",
            "projected norm identity",
            "(proj k, proj k) = (k,k) - 2((k,re)^2 + (k,im)^2)/(re,re)",
            rational_to_str(lhs),
            rational_to_str(rhs),
        )
    )
    checks.append(
        make_check(
            "period:cone-equivalence",
            "tame membership matches projecting then testing the positive cone",
            "the two membership tests agree on this record",
            member,
            member,
        )
    )
    return checks


def cmd_period_check(args) -> int:
    data = _load_json(args.file)
    if not isinstance(data, dict):
        raise InputError("period record must be a JSON object")
    lattice = _parse_lattice(data["lattice"]) if "lattice" in data else make_K3()
    for key in ("kappa", "re", "im"):
        if key not in data:
            raise InputError(f"period record is missing '{key}'")
    kappa = _rational_vector(lattice, data["kappa"], "kappa")
    re = _rational_vector(lattice, data["re"], "re")
    im = _rational_vector(lattice, data["im"], "im")

    checks = _period_checks(kappa, re, im)
    lines = tuple(f"in tame cone: {c.expected}" for c in checks
                  if c.check_id == "period:cone-equivalence")
    return _emit(args, Report("period record", tuple(checks)), lines=lines)


def _isometry_checks(kappa, eta, kappa_p, eta_p, preserve: bool):
    """The checks of one isometry request, and the isometry phi taking
    (kappa_p, eta_p) to (kappa, eta), or None when none was constructed.
    The rows record lemma_iso's exit checks: it returns phi only after
    checking the images by application, M^T G M = G on the full Gram
    matrix and the requested orientation, and raises InvariantError when
    one fails, which is reported as a failed construction."""
    gram = ((norm(kappa), pairing(kappa, eta)), (pairing(kappa, eta), norm(eta)))
    gram_p = ((norm(kappa_p), pairing(kappa_p, eta_p)), (pairing(kappa_p, eta_p), norm(eta_p)))
    checks = [
        make_check(
            "isometry:gram-data",
            "both pairs share the same Gram data",
            "norms and mutual pairing agree, the precondition for mapping one onto the other",
            str(gram),
            str(gram_p),
        )
    ]
    phi = None
    if gram == gram_p:
        try:
            phi = lemma_iso(kappa, eta, kappa_p, eta_p, preserve=preserve)
        except (StandardizationError, ValueError, InvariantError) as exc:
            checks.append(
                make_check(
                    "isometry:construction",
                    "an isometry carrying one pair to the other exists",
                    "the move search succeeds on primitive input",
                    "constructed",
                    f"failed: {exc}",
                )
            )
        if phi is not None:
            mode = "preserved" if preserve else "reversed"
            for check_id, description, claim, value in (
                ("isometry:images", "matrix maps the primed pair to the unprimed pair",
                 "phi(kappa') = kappa and phi(eta') = eta, checked by application", "true"),
                ("isometry:pairing-preserved", "matrix preserves the lattice pairing",
                 "M^T G M = G on the full rank-22 Gram matrix", "true"),
                ("isometry:orientation", "orientation mode honored",
                 "positive 3-plane components preserved exactly when requested", mode),
            ):
                checks.append(make_check(check_id, description, claim, value, value))
    return checks, phi


def cmd_isometry(args) -> int:
    data = _load_json(args.pairs)
    if not isinstance(data, dict):
        raise InputError("pairs file must be a JSON object")
    lattice = make_K3()
    vecs = {}
    for key in ("kappa", "eta", "kappa_p", "eta_p"):
        raw = data.get(key)
        if not isinstance(raw, list) or len(raw) != lattice.rank:
            raise InputError(f"'{key}' must be a list of {lattice.rank} integers")
        try:
            vecs[key] = lattice.vector(raw)
        except TypeError as exc:
            raise InputError(f"'{key}' must contain integers only") from exc
    checks, phi = _isometry_checks(*vecs.values(), not args.reverse)
    report = Report("isometry construction", tuple(checks))
    if phi is None:
        return _emit(args, report)
    rows = phi.matrix.rows
    return _emit(
        args,
        report,
        {"matrix": [list(row) for row in rows]},
        ("matrix:", *("  " + " ".join(f"{x:3d}" for x in row) for row in rows)),
    )


# -- the verification battery ------------------------------------------------


def _branch_polynomial(sign: int) -> DHPolynomial:
    """Half the torus self-integral of the symplectic family, exactly.

    Quadratic in t, so three sample values pin the coefficients; the route
    is the torus pairing of sampled family forms, independent of the
    blowup pairing behind the other two branches.
    """
    values = {}
    for t in (0, 1, -1):
        omega = symplectic_family_form(sign, t)
        values[t] = wedge_integrate(omega, omega) / 2
    c0 = values[0]
    c2 = (values[1] + values[-1]) / 2 - c0
    c1 = (values[1] - values[-1]) / 2
    return DHPolynomial(c0, c1, c2)


def _kummer_checks() -> list[Check]:
    checks = []
    vol, area = volume_real_form(), area_sum_form()
    checks.append(
        make_check(
            "torus:integrals",
            "reference wedge integrals on the torus",
            "self-integrals 8 and 8, cross integral 0",
            "(8, 8, 0)",
            _rats(
                wedge_integrate(vol, vol),
                wedge_integrate(area, area),
                wedge_integrate(vol, area),
            ),
        )
    )
    khat, ep, em = kappa_hat(), eta_hat(1), eta_hat(-1)
    checks.append(
        make_check(
            "blowup:pairing-table",
            "blowup intersection numbers",
            "((k,k), (e+,e+), (e-,e-), (e+,k), (e-,k))",
            "(-4, -4, -4, -8, 8)",
            _rats(
                blowup_pairing(khat, khat),
                blowup_pairing(ep, ep),
                blowup_pairing(em, em),
                blowup_pairing(ep, khat),
                blowup_pairing(em, khat),
            ),
        )
    )
    plus_spheres = [blowup_pairing(exceptional(i), ep) for i in range(NUM_EXCEPTIONAL)]
    pulled = pullback(vol)
    pull_spheres = [blowup_pairing(pulled, exceptional(i)) for i in range(NUM_EXCEPTIONAL)]
    checks.append(
        make_check(
            "blowup:sphere-pairings",
            "exceptional sphere pairings",
            "(e+, E_i) = -1 for every i; classes pulled back from the torus miss the spheres",
            "-1 and 0",
            f"{_distinct(plus_spheres)} and {_distinct(pull_spheres)}",
        )
    )
    checks.append(
        make_check(
            "dh:plus-branch",
            "plus-branch squared-volume polynomial",
            "((k,k), -2(k,e+), (e+,e+)) as coefficients in t",
            DHPolynomial(-4, 16, -4),
            dh_from_pair(khat, ep),
        )
    )
    checks.append(
        make_check(
            "dh:minus-branch",
            "minus-branch squared-volume polynomial",
            "((k,k), -2(k,e-), (e-,e-)) as coefficients in t",
            DHPolynomial(-4, -16, -4),
            dh_from_pair(khat, em),
        )
    )
    checks.append(
        make_check(
            "dh:orbifold-branch",
            "half the torus self-integral of the symplectic family",
            "both signs integrate to the same even polynomial 4 + 4t^2",
            "((4, 0, 4), (4, 0, 4))",
            f"({_branch_polynomial(1)}, {_branch_polynomial(-1)})",
        )
    )
    half_sum = (vol + area).scale(Fraction(1, 2))
    checks.append(
        make_check(
            "primitive:half-sum",
            "the half-sum class is integral primitive with a unit sphere pairing",
            "coordinate gcd 1 and some (E_i, x) = +-1",
            "true",
            "true" if primitive_pair_check(half_sum, ep) else "false",
        )
    )
    wall_class = sigma_class(1, 1)
    checks.append(
        make_check(
            "primitive:wall-class",
            "the glued family class at t = 1",
            "no exceptional part left; self-pairing 8",
            "exc 0, self 8",
            "exc {}, self {}".format(
                max(abs(c) for c in wall_class.coords[NUM_TORUS:]),
                rational_to_str(blowup_pairing(wall_class, wall_class)),
            ),
        )
    )
    return checks


def _perturbed(model: GluedModel, what: str) -> GluedModel:
    """Corrupt exactly one fixture value; the report must notice."""
    pieces, walls = list(model.pieces), list(model.walls)
    if what == "dh":
        p = pieces[0]
        broken = DHPolynomial(p.dh.c0 + 2, p.dh.c1, p.dh.c2)
        pieces[0] = Piece(p.lo, p.hi, broken, p.class_pair, p.reduced_space)
    elif what == "wall":
        w = walls[0]
        walls[0] = Wall(w.level, w.count - 1, w.weights)
    elif what == "weight":
        w = walls[0]
        walls[0] = Wall(w.level, w.count, (w.weights[0] + 1 or 1,) + w.weights[1:])
    else:
        raise InputError(f"unknown perturbation: {what}")
    return GluedModel(tuple(pieces), tuple(walls), model.period, model.fixed_points, model.name)


_PERIOD_SAMPLES = 50
_SEED = 52706


def _period_samples(K3: Lattice):
    """The battery's seeded period records (kappa, re, im), built from ints.

    re = a (e1 + f1) + b (e2 + f2) and im = a (e2 + f2) - b (e1 + f1), with
    a in 1..5 and b in 0..5 from randint, span a period point: (re, im) = 0
    and (re, re) = (im, im) = 2 (a^2 + b^2) > 0.  Each coordinate of kappa is
    n / 6, n = getrandbits(5) - 16 in -16..15, and every second sample from
    the first adds 7 (e3 + f3): orthogonal to re and im, of norm 2, it raises
    the projected norm by 98 + 14 (kappa, e3 + f3) >= 98 - 14 * 32/6 > 0, so
    14 of the 50 samples lie in the tame cone and the other 36 do not.
    """
    rng = random.Random(_SEED)
    bits = rng.getrandbits
    n = K3.rank
    for i in range(_PERIOD_SAMPLES):
        a, b = rng.randint(1, 5), rng.randint(0, 5)
        re, im = [0] * n, [0] * n
        re[E1] = re[F1] = im[E2] = im[F2] = a
        re[E2] = re[F2] = b
        im[E1] = im[F1] = -b
        nums = [bits(5) - 16 for _ in range(n)]
        if i % 2 == 0:
            nums[E3] += 42
            nums[F3] += 42
        yield RationalVector(K3, nums, 6), RationalVector(K3, re), RationalVector(K3, im)


def run_verify_paper(perturb: str | None = None) -> Report:
    """The consolidated battery of every reference value in the package.

    `perturb` intentionally corrupts one glued-model fixture value (a
    coefficient, a wall count, or a weight) before validation, so the
    failure path is itself exercised end to end.
    """
    checks = []
    K3 = make_K3()

    checks.append(
        make_check(
            "lattice:shape",
            "standard rank-22 lattice invariants",
            "even, unimodular, signature (3, 19)",
            "rank 22, even, unimodular, signature (3, 19)",
            "rank {}, {}, {}, signature {}".format(
                K3.rank,
                "even" if K3.is_even() else "odd",
                "unimodular" if K3.is_unimodular() else "not unimodular",
                K3.signature(),
            ),
        )
    )

    e8 = make_E8()
    checks.append(
        make_check(
            "roots:e8",
            "E8 norm-2 vector count",
            "240 roots",
            240,
            len(enumerate_norm(DefiniteGram(e8.gram), 2)),
        )
    )
    checks.append(
        make_check(
            "roots:e8+e8",
            "E8+E8 norm-2 vector count",
            "an orthogonal sum doubles the count",
            480,
            len(enumerate_norm(DefiniteGram(direct_sum("E8+E8", e8, e8).gram), 2)),
        )
    )
    plane = [k3_e(K3, i) + k3_f(K3, i) for i in range(3)]
    checks.append(
        make_check(
            "roots:orthogonal-to-3plane",
            "roots orthogonal to the standard positive 3-plane",
            "480 block roots plus the six vectors +-(e_i - f_i)",
            486,
            len(roots_orthogonal_to(K3, plane)),
        )
    )

    good = sum(
        all(c.passed for c in _period_checks(kappa, re, im))
        for kappa, re, im in _period_samples(K3)
    )
    checks.append(
        make_check(
            "period:identity-sample",
            f"projected-norm identity and cone equivalence on {_PERIOD_SAMPLES} random samples",
            "(proj k, proj k) = (k,k) - 2((k,re)^2+(k,im)^2)/(re,re); memberships agree",
            f"{_PERIOD_SAMPLES}/{_PERIOD_SAMPLES}",
            f"{good}/{_PERIOD_SAMPLES}",
        )
    )

    kappa0, eta0 = pair_from_polynomial(DHPolynomial(-4, 16, -4))
    move = eichler_transvection(k3_e(K3, 2), k3_f(K3, 0) - 2 * k3_e(K3, 1) + k3_f(K3, 1))
    move = move.compose(eichler_transvection(k3_f(K3, 2), 3 * k3_e(K3, 0) - k3_e(K3, 1)))
    kappa_p, eta_p = move.apply(kappa0), move.apply(eta0)
    for mode, preserve in (("preserve", True), ("reverse", False)):
        lemma_checks, _ = _isometry_checks(kappa0, eta0, kappa_p, eta_p, preserve)
        ok = all(c.passed for c in lemma_checks)
        checks.append(
            make_check(
                f"isometry:lemma-{mode}",
                f"verified isometry onto a transvected copy of the model pair ({mode} mode)",
                "images, pairing preservation, and orientation all re-verified",
                "true",
                "true" if ok else "false",
            )
        )
    checks.append(
        make_check(
            "isometry:orientation-calibration",
            "component calibration of reference isometries",
            "identity preserves plane components; negating one hyperbolic summand does not",
            "(True, False)",
            str(tuple(preserves_components(ref)
                      for ref in (identity_isometry(K3), flip_third_H(K3)))),
        )
    )

    checks.extend(_kummer_checks())

    rng = random.Random(_SEED + 1)
    trips = 0
    for _ in range(20):
        p = DHPolynomial(*(Fraction(2 * rng.randint(-9, 9)) for _ in range(3)))
        ka, et = pair_from_polynomial(p)
        trips += 1 if dh_from_pair(ka, et) == p else 0
    checks.append(
        make_check(
            "dh:round-trip",
            "polynomial -> lattice pair -> polynomial on 20 random even polynomials",
            "dh_from_pair inverts pair_from_polynomial",
            "20/20",
            f"{trips}/20",
        )
    )

    model = packaged_model()
    if perturb is not None:
        model = _perturbed(model, perturb)
    for c in validate(model).checks:
        checks.append(
            Check("model:" + c.check_id, c.description, c.claim, c.expected, c.computed, c.passed)
        )

    return Report("verification battery", tuple(checks))


def cmd_kummer_report(args) -> int:
    return _emit(args, Report("blowup intersection numbers", tuple(_kummer_checks())))


def cmd_validate_model(args) -> int:
    data = _load_json(args.file)
    try:
        report = validate(model_from_json_dict(data))
    except ModelError as exc:
        raise InputError(str(exc)) from exc
    return _emit(args, report)


def cmd_verify(args) -> int:
    return _emit(args, run_verify_paper(perturb=args.perturb))


# -- parser ------------------------------------------------------------------


def _add_lattice_source(sub, file_flag: str):
    group = sub.add_mutually_exclusive_group(required=True)
    group.add_argument("--standard", choices=sorted(_STANDARD))
    group.add_argument(file_flag, dest="file", metavar="JSON")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="k3dh",
        description="Exact lattice, period, and reduced-space verification toolkit.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("lattice-info", help="rank, parity, unimodularity, signature")
    _add_lattice_source(p, "--file")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_lattice_info)

    p = sub.add_parser("shortvec", help="enumerate all vectors of a given norm")
    _add_lattice_source(p, "--gram")
    p.add_argument("--norm", type=int, required=True)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_shortvec)

    p = sub.add_parser("period-check", help="check a period record {kappa, re, im}")
    p.add_argument("file", metavar="JSON")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_period_check)

    p = sub.add_parser("isometry", help="construct a verified isometry between pairs")
    p.add_argument("--pairs", required=True, metavar="JSON")
    p.add_argument("--reverse", action="store_true")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_isometry)

    p = sub.add_parser("kummer-report", help="blowup intersection numbers, pass/fail")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_kummer_report)

    p = sub.add_parser("validate-model", help="validate a glued model file")
    p.add_argument("file", metavar="JSON")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_validate_model)

    p = sub.add_parser("verify", help="run the full verification battery")
    p.add_argument(
        "--perturb",
        choices=("dh", "wall", "weight"),
        help="corrupt one fixture value to exercise the failure path",
    )
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_verify)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
