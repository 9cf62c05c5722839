"""Duistermaat-Heckman data for 6-dimensional circle actions.

A DHPolynomial is the volume of the reduced space as a function of the
moment value, here always of degree at most two with exact rational
coefficients.  A GluedModel chains open intervals of regular values
(pieces) across walls of isolated fixed points, optionally closing up into
a circle-valued moment map, and validate() replays every numerical
compatibility the gluing has to satisfy.

The wall-crossing constant in dimension 6 is (t - level)^2 / (w1 w2 w3)
per fixed point with weights (w1, w2, w3); it is calibrated against the
two branch polynomials of the packaged reference model, and the
calibration is itself a test.
"""
from __future__ import annotations

import json
import re
from fractions import Fraction

from .exact_linalg import Frozen, clip_repr, int_tuple
from .lattice import LatticeVector, make_K3, pairing, reference_pair
from .sublattice import is_primitive_embedding

REPORT_SCHEMA_VERSION = 1


class ModelError(Exception):
    """Structurally malformed model or model file."""


def rational_to_str(x) -> str:
    if not isinstance(x, Fraction):
        x = Fraction(x)
    if x.denominator == 1:
        return str(x.numerator)
    return f"{x.numerator}/{x.denominator}"


def rational_from_json(v) -> Fraction:
    """Exact rational from an int or a 'p/q' string.

    Floats and decimal or exponent strings such as "4.0" are refused.
    """
    if type(v) is int or isinstance(v, str) and re.fullmatch(r"-?[0-9]+(/[0-9]+)?", v):
        try:
            return Fraction(v)
        except (ZeroDivisionError, ValueError):
            # a zero denominator, or more digits than int() converts
            pass
    raise ModelError(f"not an exact rational: {clip_repr(v)}")


class DHPolynomial(Frozen):
    """c0 + c1 t + c2 t^2 with exact rational coefficients."""

    _fields = ("c0", "c1", "c2")

    def __init__(self, c0, c1, c2):
        object.__setattr__(self, "c0", Fraction(c0))
        object.__setattr__(self, "c1", Fraction(c1))
        object.__setattr__(self, "c2", Fraction(c2))

    @property
    def coefficients(self) -> tuple[Fraction, Fraction, Fraction]:
        return (self.c0, self.c1, self.c2)

    def evaluate(self, t) -> Fraction:
        t = Fraction(t)
        return self.c0 + self.c1 * t + self.c2 * t * t

    def __add__(self, other: "DHPolynomial") -> "DHPolynomial":
        return DHPolynomial(
            self.c0 + other.c0, self.c1 + other.c1, self.c2 + other.c2
        )

    def __sub__(self, other: "DHPolynomial") -> "DHPolynomial":
        return self + (-other)

    def __neg__(self) -> "DHPolynomial":
        return DHPolynomial(-self.c0, -self.c1, -self.c2)

    def translate(self, s) -> "DHPolynomial":
        """The polynomial t -> p(t - s)."""
        s = Fraction(s)
        return DHPolynomial(
            self.c0 - self.c1 * s + self.c2 * s * s,
            self.c1 - 2 * self.c2 * s,
            self.c2,
        )

    def is_even_integral(self) -> bool:
        return all(
            c.denominator == 1 and c.numerator % 2 == 0
            for c in self.coefficients
        )

    def is_zero(self) -> bool:
        return self.coefficients == (0, 0, 0)

    def __str__(self):
        return "(" + ", ".join(rational_to_str(c) for c in self.coefficients) + ")"


def dh_from_pair(kappa, eta) -> DHPolynomial:
    """Exact coefficients ((kappa,kappa), -2(kappa,eta), (eta,eta)) of two
    vectors of one lattice, blowup classes included; lattice.pairing
    rejects a cross-lattice pair."""
    return DHPolynomial(
        pairing(kappa, kappa), -2 * pairing(kappa, eta), pairing(eta, eta)
    )


_K3 = make_K3()


def pair_from_polynomial(p: DHPolynomial) -> tuple[LatticeVector, LatticeVector]:
    """A standard-coordinate class pair whose DH polynomial is p.

    Writing p = 2l0 + 2l1 t + 2l2 t^2, the pair is e1 + l0 f1 and
    -l1 f1 + e2 + l2 f2.  Both unit hyperbolic coefficients survive into
    the pairing matrix against (f1, f2), so the span is always saturated.
    """
    if not p.is_even_integral():
        raise ValueError("coefficients must be even integers")
    l0, l1, l2 = (c.numerator // 2 for c in p.coefficients)
    return reference_pair(_K3, l0, -l1, l2)


def is_positive_on(p: DHPolynomial, a, b) -> bool:
    """Exact strict positivity on the closed interval [a, b]."""
    a, b = Fraction(a), Fraction(b)
    if a > b:
        raise ValueError("empty interval")
    return p.evaluate(a) > 0 and p.evaluate(b) > 0 and _positive_on_open(p, a, b)


def _positive_on_open(p: DHPolynomial, lo, hi) -> bool:
    """Strict positivity on the open interval; None means unbounded."""
    if p.is_zero():
        return False
    if lo is not None and p.evaluate(lo) < 0:
        return False
    if hi is not None and p.evaluate(hi) < 0:
        return False
    if p.c2 == 0 and p.c1 == 0:
        return p.c0 > 0
    if p.c2 == 0:
        # a linear function loses to whichever unbounded side it falls off
        if lo is None and p.c1 > 0:
            return False
        if hi is None and p.c1 < 0:
            return False
        return True
    vertex = -p.c1 / (2 * p.c2)
    inside = (lo is None or lo < vertex) and (hi is None or vertex < hi)
    if p.c2 > 0:
        return not inside or p.evaluate(vertex) > 0
    # concave: boundary values already pin the interior, unbounded sides lose
    return lo is not None and hi is not None


class Wall(Frozen):
    """Isolated fixed points at one moment level, crossed in increasing t."""

    _fields = ("level", "count", "weights")

    def __init__(self, level, count: int, weights):
        level, weights = Fraction(level), tuple(weights)
        int_tuple((count, *weights), "count and weights")
        if len(weights) != 3:
            raise ValueError("expected three weights")  # dimension 6 throughout
        if any(w == 0 for w in weights):
            raise ValueError("weights must be nonzero")
        if count < 0:
            raise ValueError("negative fixed point count")
        object.__setattr__(self, "level", level)
        object.__setattr__(self, "count", count)
        object.__setattr__(self, "weights", weights)


def wall_crossing_delta(w: Wall) -> DHPolynomial:
    """Jump of the DH polynomial across the wall: after minus before."""
    c = Fraction(w.count, w.weights[0] * w.weights[1] * w.weights[2])
    return DHPolynomial(c * w.level * w.level, -2 * c * w.level, c)


class Piece(Frozen):
    """One open interval of regular values with its reduced-space data.

    Endpoints are rational, or None on an unbounded side.  When a class
    pair is present, it is two integral vectors of one lattice, and its
    second member is the Euler class of the circle bundle over the reduced
    space.
    """

    _fields = ("lo", "hi", "dh", "class_pair", "reduced_space")

    def __init__(self, lo, hi, dh: DHPolynomial, class_pair: tuple | None = None,
                 reduced_space: str = "K3"):
        lo = None if lo is None else Fraction(lo)
        hi = None if hi is None else Fraction(hi)
        if lo is not None and hi is not None and lo >= hi:
            raise ValueError("empty interval")
        if reduced_space not in ("K3", "Kummer"):
            raise ValueError("unknown reduced space tag")
        if class_pair is not None:
            class_pair = tuple(class_pair)
            if len(class_pair) != 2:
                raise ValueError("class pair must have two members")
            kappa, eta = class_pair
            if not (isinstance(kappa, LatticeVector) and isinstance(eta, LatticeVector)
                    and kappa.lattice == eta.lattice):
                raise ValueError("class pair must be two integral vectors of one lattice")
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)
        object.__setattr__(self, "dh", dh)
        object.__setattr__(self, "class_pair", class_pair)
        object.__setattr__(self, "reduced_space", reduced_space)

    def interval_str(self) -> str:
        lo = "-inf" if self.lo is None else rational_to_str(self.lo)
        hi = "inf" if self.hi is None else rational_to_str(self.hi)
        return f"({lo}, {hi})"


class GluedModel(Frozen):
    """Pieces separated by walls, on a line or (with period set) a circle."""

    _fields = ("pieces", "walls", "period", "fixed_points", "name")

    def __init__(self, pieces, walls, period: Fraction | None = None,
                 fixed_points: int | None = None, name: str = "model"):
        pieces, walls = tuple(pieces), tuple(walls)
        if period is not None:
            period = Fraction(period)
        if fixed_points is not None:
            int_tuple((fixed_points,), "fixed point count")
            if fixed_points < 0:
                raise ValueError("negative fixed point count")
        object.__setattr__(self, "pieces", pieces)
        object.__setattr__(self, "walls", walls)
        object.__setattr__(self, "period", period)
        object.__setattr__(self, "fixed_points", fixed_points)
        object.__setattr__(self, "name", name)


class Check(Frozen):
    """One verified statement; passed is exactly `expected == computed`."""

    _fields = ("check_id", "description", "claim", "expected", "computed", "passed")

    def __init__(self, check_id: str, description: str, claim: str, expected: str,
                 computed: str, passed: bool):
        object.__setattr__(self, "check_id", check_id)
        object.__setattr__(self, "description", description)
        object.__setattr__(self, "claim", claim)
        object.__setattr__(self, "expected", expected)
        object.__setattr__(self, "computed", computed)
        object.__setattr__(self, "passed", passed)


def make_check(check_id: str, description: str, claim: str, expected, computed) -> Check:
    e, c = str(expected), str(computed)
    return Check(check_id, description, claim, e, c, e == c)


class Report(Frozen):
    _fields = ("title", "checks")

    def __init__(self, title: str, checks: tuple):
        object.__setattr__(self, "title", title)
        object.__setattr__(self, "checks", checks)

    @property
    def passed_count(self) -> int:
        return sum(1 for c in self.checks if c.passed)

    @property
    def failed_count(self) -> int:
        return len(self.checks) - self.passed_count

    def all_passed(self) -> bool:
        return self.failed_count == 0

    def to_json_dict(self) -> dict:
        return {
            "schema_version": REPORT_SCHEMA_VERSION,
            "title": self.title,
            "checks": [
                {
                    "id": c.check_id,
                    "description": c.description,
                    "claim": c.claim,
                    "expected": c.expected,
                    "computed": c.computed,
                    "passed": c.passed,
                }
                for c in self.checks
            ],
            "summary": {
                "total": len(self.checks),
                "passed": self.passed_count,
                "failed": self.failed_count,
            },
        }

    def lines(self) -> list[str]:
        out = []
        for c in self.checks:
            mark = "PASS" if c.passed else "FAIL"
            out.append(
                f"[{mark}] {c.check_id}: {c.description} "
                f"(expected {c.expected}, got {c.computed})"
            )
        out.append(
            f"{self.title}: {self.passed_count}/{len(self.checks)} checks passed"
        )
        return out


def _check_structure(model: GluedModel) -> None:
    pieces, walls = model.pieces, model.walls
    if not pieces:
        raise ModelError("model has no pieces")
    periodic = model.period is not None
    expected_walls = len(pieces) if periodic else len(pieces) - 1
    if len(walls) != expected_walls:
        raise ModelError(
            f"expected {expected_walls} walls for {len(pieces)} pieces, got {len(walls)}"
        )
    if periodic and model.period <= 0:
        raise ModelError("period must be positive")
    for i in range(len(pieces) - 1):
        level = walls[i].level
        if pieces[i].hi != level or pieces[i + 1].lo != level:
            raise ModelError(f"wall {i} level does not match piece endpoints")
    if periodic:
        if any(p.lo is None or p.hi is None for p in pieces):
            raise ModelError("periodic model cannot have unbounded pieces")
        wrap = walls[-1]
        if pieces[-1].hi != wrap.level:
            raise ModelError("wrap wall level does not match the last piece")
        if pieces[0].lo != wrap.level - model.period:
            raise ModelError("pieces do not tile one full period")


def validate(model: GluedModel) -> Report:
    """Replay every numerical compatibility of the glued model.

    Raises ModelError on structural malformation; every mathematical
    failure is a report entry instead.  Wall jumps are oriented after
    minus before in increasing t, the wrap wall comparing against the
    first piece shifted up by one period.
    """
    _check_structure(model)
    checks: list[Check] = []
    pieces, walls = model.pieces, model.walls
    periodic = model.period is not None

    for i in range(len(pieces) - 1):
        level = walls[i].level
        left = pieces[i].dh.evaluate(level)
        right = pieces[i + 1].dh.evaluate(level)
        checks.append(
            make_check(
                f"continuity:wall{i}",
                f"reduced volume continuous at t = {rational_to_str(level)}",
                "the one-sided limits of the reduced-space volume agree at the wall",
                rational_to_str(left),
                rational_to_str(right),
            )
        )

    for i, wall in enumerate(walls):
        wrap = i == len(pieces) - 1
        if wrap:
            after = pieces[0].dh.translate(model.period)
        else:
            after = pieces[i + 1].dh
        jump = after - pieces[i].dh
        checks.append(
            make_check(
                f"delta:wall{i}",
                f"wall crossing at t = {rational_to_str(wall.level)} "
                f"({wall.count} points, weights {wall.weights})",
                "the polynomial jump equals count*(t-level)^2 / (product of weights)",
                wall_crossing_delta(wall),
                jump,
            )
        )

    for i, piece in enumerate(pieces):
        checks.append(
            make_check(
                f"positivity:piece{i}",
                f"volume positive on {piece.interval_str()}",
                "the reduced-space volume polynomial is positive on the open interval",
                "true",
                "true" if _positive_on_open(piece.dh, piece.lo, piece.hi) else "false",
            )
        )
        checks.append(
            make_check(
                f"even:piece{i}",
                f"even integer coefficients on {piece.interval_str()}",
                "a volume polynomial coming from an integral class pair has even coefficients",
                "true",
                "true" if piece.dh.is_even_integral() else "false",
            )
        )

    for i, piece in enumerate(pieces):
        if piece.class_pair is None:
            continue
        kappa, eta = piece.class_pair
        checks.append(
            make_check(
                f"pair:piece{i}",
                f"class pair reproduces the volume polynomial on {piece.interval_str()}",
                "((kappa,kappa), -2(kappa,eta), (eta,eta)) equals the stored coefficients",
                piece.dh,
                dh_from_pair(kappa, eta),
            )
        )
        try:
            primitive = is_primitive_embedding([kappa, eta])
        except ValueError:
            primitive = False
        checks.append(
            make_check(
                f"primitive:piece{i}",
                f"class pair spans a saturated sublattice on {piece.interval_str()}",
                "the pair extends to no proper finite-index overlattice of its span",
                "true",
                "true" if primitive else "false",
            )
        )

    if periodic:
        level = walls[-1].level
        closing = pieces[0].dh.translate(model.period).evaluate(level)
        checks.append(
            make_check(
                "period-closure",
                f"circle closes up: values agree at t = {rational_to_str(level)} "
                f"and t - {rational_to_str(model.period)}",
                "the volume is well defined on the circle of circumference one period",
                rational_to_str(pieces[-1].dh.evaluate(level)),
                rational_to_str(closing),
            )
        )

    if model.fixed_points is not None:
        checks.append(
            make_check(
                "fixed-point-total",
                "total fixed point count",
                "the wall counts add up to the declared number of fixed points",
                model.fixed_points,
                sum(w.count for w in walls),
            )
        )

    return Report(f"model {model.name}", tuple(checks))


# -- JSON model files --------------------------------------------------------


def _endpoint_from_json(v, unbounded: str):
    """An interval end: None for `unbounded` ("-inf" below, "inf" above)."""
    if v == unbounded:
        return None
    if v in ("-inf", "inf"):
        raise ModelError(f"interval end {clip_repr(v)} on the wrong side")
    return rational_from_json(v)


def _field(raw, key: str, where: str):
    """raw[key] of the JSON object at `where`."""
    if not isinstance(raw, dict):
        raise ModelError(f"malformed model: {where} must be an object, got {clip_repr(raw)}")
    if key not in raw:
        raise ModelError(f"malformed model: {where} is missing {key!r}")
    return raw[key]


def _json_list(raw, key: str, where: str | None = None, length: int | None = None) -> list:
    """raw[key], which must be a JSON list, of `length` entries when given:
    a string would unpack by characters and read "404" as three
    coefficients.  `where` names an entry of the model, None the model."""
    v = _field(raw, key, where or "the model")
    at = f"malformed model: {where}: " if where else ""
    if not isinstance(v, list):
        raise ModelError(f"{at}{key!r} must be a list, got {clip_repr(v)}")
    if length is not None and len(v) != length:
        raise ModelError(f"{at}{key!r} must have {length} entries, got {len(v)}")
    return v


def _located(where: str, build, *args):
    """build(*args), with a value it refuses reported as a ModelError that
    names the entry or field at `where`."""
    try:
        return build(*args)
    except (ModelError, TypeError, ValueError) as exc:
        raise ModelError(f"malformed model: {where}: {exc}") from exc


def _piece_from_json(raw, where: str) -> Piece:
    lo, hi = _json_list(raw, "interval", where, 2)
    coeffs = _json_list(raw, "dh", where, 3)
    pair = None
    if "class_pair" in raw:
        at = f"{where}.class_pair"
        pair = tuple(
            _located(f"{at}.{key}", _K3.vector, _json_list(raw["class_pair"], key, at, _K3.rank))
            for key in ("kappa", "eta")
        )
    return _located(
        where,
        Piece,
        _located(f"{where}.interval", _endpoint_from_json, lo, "-inf"),
        _located(f"{where}.interval", _endpoint_from_json, hi, "inf"),
        DHPolynomial(*[_located(f"{where}.dh", rational_from_json, c) for c in coeffs]),
        pair,
        raw.get("reduced_space", "K3"),
    )


def _wall_from_json(raw, where: str) -> Wall:
    level = _located(f"{where}.level", rational_from_json, _field(raw, "level", where))
    count, weights = _field(raw, "count", where), _json_list(raw, "weights", where)
    return _located(where, Wall, level, count, tuple(weights))


def model_from_json_dict(data: dict) -> GluedModel:
    """Parse the model schema; every malformation raises ModelError, which
    names the entry (pieces[i], walls[i]) and the field it is in."""
    if not isinstance(data, dict):
        raise ModelError("model file must contain a JSON object")
    name = data.get("name", "model")
    if not isinstance(name, str):
        raise ModelError(f"'name' must be a string, got {clip_repr(name)}")
    pieces = tuple(_piece_from_json(raw, f"pieces[{i}]")
                   for i, raw in enumerate(_json_list(data, "pieces")))
    walls = tuple(_wall_from_json(raw, f"walls[{i}]")
                  for i, raw in enumerate(_json_list(data, "walls")))
    period = data.get("period")
    if period is not None:
        period = _located("period", rational_from_json, period)
    # the fixed point count is the one field that GluedModel checks
    return _located("fixed_points", GluedModel, pieces, walls, period, data.get("fixed_points"),
                    name)


def packaged_model() -> GluedModel:
    """Load the glued-model fixture shipped inside the package.

    importlib.resources is imported here, not with the module, so that
    importing the CLI does not pay for it: only this loader uses it."""
    from importlib import resources

    text = resources.files("k3dh").joinpath("data/theorem1.json").read_text()
    return model_from_json_dict(json.loads(text))
