import json
import re
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from k3dh.cli import main
from k3dh.exact_linalg import IntMatrix
from k3dh.kummer import KUMMER_LATTICE, NUM_TORUS, eta_hat, kappa_hat
from k3dh.lattice import Lattice, RationalVector, k3_e, k3_f, make_E8, make_H, make_K3, norm, pairing
from k3dh.moment import (
    DHPolynomial,
    GluedModel,
    ModelError,
    Piece,
    Wall,
    dh_from_pair,
    is_positive_on,
    model_from_json_dict,
    packaged_model,
    pair_from_polynomial,
    rational_from_json,
    validate,
    wall_crossing_delta,
    _positive_on_open,
)
from k3dh.sublattice import is_primitive_embedding

K3 = make_K3()

PLUS_BRANCH = DHPolynomial(-4, 16, -4)
MINUS_BRANCH = DHPolynomial(-4, -16, -4)
ORBIFOLD_BRANCH = DHPolynomial(4, 0, 4)


def test_dh_from_pair_examples():
    kappa = k3_e(K3, 0) + k3_f(K3, 0)
    eta = k3_e(K3, 1)
    assert dh_from_pair(kappa, eta) == DHPolynomial(2, 0, 0)
    assert dh_from_pair(kappa, 0 * eta) == DHPolynomial(2, 0, 0)
    assert dh_from_pair(kappa_hat(), eta_hat(1)) == PLUS_BRANCH
    assert dh_from_pair(kappa_hat(), eta_hat(-1)) == MINUS_BRANCH
    with pytest.raises(ValueError, match="different lattices: K3 vs kummer"):
        dh_from_pair(kappa, eta_hat(1))
    with pytest.raises(ValueError, match="different lattices"):
        dh_from_pair(kappa, make_H().basis_vector(0))


def test_pair_from_polynomial_reference_values():
    kappa, eta = pair_from_polynomial(DHPolynomial(2, 0, 0))
    assert kappa == k3_e(K3, 0) + k3_f(K3, 0)
    assert eta == k3_e(K3, 1)

    kappa, eta = pair_from_polynomial(PLUS_BRANCH)
    assert kappa == k3_e(K3, 0) - 2 * k3_f(K3, 0)
    assert eta == -8 * k3_f(K3, 0) + k3_e(K3, 1) - 2 * k3_f(K3, 1)
    assert norm(kappa) == -4
    assert pairing(kappa, eta) == -8
    assert norm(eta) == -4

    with pytest.raises(ValueError, match="even integers"):
        pair_from_polynomial(DHPolynomial(1, 1, 0))
    with pytest.raises(ValueError, match="even integers"):
        pair_from_polynomial(DHPolynomial(Fraction(1, 2), 2, 0))


@settings(max_examples=40, deadline=None)
@given(st.integers(-9, 9), st.integers(-9, 9), st.integers(-9, 9))
def test_pair_round_trip(l0, l1, l2):
    p = DHPolynomial(2 * l0, 2 * l1, 2 * l2)
    kappa, eta = pair_from_polynomial(p)
    assert dh_from_pair(kappa, eta) == p
    assert is_primitive_embedding([kappa, eta])


def test_is_positive_on():
    assert is_positive_on(PLUS_BRANCH, 1, 3)
    assert not is_positive_on(PLUS_BRANCH, 0, 4)
    assert is_positive_on(ORBIFOLD_BRANCH, -100, 100)
    # positive endpoints but a vertex dipping below zero in between
    dip = DHPolynomial(Fraction(3, 4), -2, 1)
    assert not is_positive_on(dip, 0, 2)
    assert is_positive_on(dip, 0, Fraction(1, 4))
    assert is_positive_on(DHPolynomial(2, 0, 0), 5, 5)
    with pytest.raises(ValueError, match="empty"):
        is_positive_on(ORBIFOLD_BRANCH, 1, 0)
    # a zero at one end only: t on [0, 1] and -t on [-1, 0]; the interval
    # is closed, so each is refused, while t on [1/2, 1] is positive
    assert not is_positive_on(DHPolynomial(0, 1, 0), 0, 1)
    assert not is_positive_on(DHPolynomial(0, -1, 0), -1, 0)
    assert is_positive_on(DHPolynomial(0, 1, 0), Fraction(1, 2), 1)


def test_positive_on_open_boundary_and_unbounded_cases():
    concave = DHPolynomial(0, 2, -1)  # t(2 - t), zero exactly at 0 and 2
    assert _positive_on_open(concave, 0, 2)
    assert not is_positive_on(concave, 0, 2)
    assert not _positive_on_open(concave, 0, None)
    assert not _positive_on_open(DHPolynomial(0, 0, 0), 0, 1)
    assert _positive_on_open(DHPolynomial(2, 0, 0), None, None)
    assert _positive_on_open(DHPolynomial(0, 1, 0), 0, None)
    assert not _positive_on_open(DHPolynomial(0, 1, 0), None, 1)
    # a line falling off an unbounded upper side
    assert _positive_on_open(DHPolynomial(5, -1, 0), None, 5)
    assert not _positive_on_open(DHPolynomial(5, -1, 0), 0, None)
    # a negative endpoint value decides before the shape is looked at: the
    # rising line t - 1 would otherwise pass on (0, inf)
    assert not _positive_on_open(DHPolynomial(-1, 1, 0), 0, None)
    assert not _positive_on_open(DHPolynomial(-1, -1, 0), None, 0)
    assert _positive_on_open(ORBIFOLD_BRANCH, None, None)
    # convex with a double root strictly inside is not positive
    assert not _positive_on_open(DHPolynomial(1, -2, 1), 0, 2)
    assert _positive_on_open(DHPolynomial(1, -2, 1), 1, 2)


def test_translate_matches_evaluation():
    p = DHPolynomial(3, Fraction(-5, 2), 7)
    for s in (0, 4, Fraction(-3, 2)):
        q = p.translate(s)
        for t in (-2, 0, Fraction(9, 4)):
            assert q.evaluate(t) == p.evaluate(Fraction(t) - Fraction(s))


def test_wall_crossing_calibration():
    """The jump constant reproduces both branch differences exactly."""
    up = Wall(1, 16, (-2, 1, 1))
    assert wall_crossing_delta(up) == PLUS_BRANCH - ORBIFOLD_BRANCH
    assert wall_crossing_delta(up) == DHPolynomial(-8, 16, -8)
    down = Wall(-1, 16, (2, -1, -1))
    assert wall_crossing_delta(down) == ORBIFOLD_BRANCH - MINUS_BRANCH
    assert wall_crossing_delta(down) == DHPolynomial(8, 16, 8)
    assert wall_crossing_delta(Wall(1, 0, (-2, 1, 1))).is_zero()
    with pytest.raises(ValueError, match="nonzero"):
        Wall(1, 16, (0, 1, 1))
    with pytest.raises(ValueError, match="three"):
        Wall(1, 16, (1, 1))


def test_packaged_model_validates():
    model = packaged_model()
    assert model.period == 4
    assert model.fixed_points == 32
    report = validate(model)
    assert report.all_passed()
    assert report.failed_count == 0
    ids = [c.check_id for c in report.checks]
    assert "continuity:wall0" in ids
    assert "delta:wall1" in ids
    assert "period-closure" in ids
    assert "fixed-point-total" in ids
    # both one-sided values at the interior wall are 8
    cont = next(c for c in report.checks if c.check_id == "continuity:wall0")
    assert cont.expected == cont.computed == "8"


def test_validate_is_monotone_under_faults():
    model = packaged_model()
    bad_wall = Wall(model.walls[0].level, 15, model.walls[0].weights)
    broken = GluedModel(
        model.pieces, (bad_wall, model.walls[1]), model.period,
        model.fixed_points, "broken",
    )
    report = validate(broken)
    failed = {c.check_id for c in report.checks if not c.passed}
    assert failed == {"delta:wall0", "fixed-point-total"}
    # unrelated checks keep passing
    for cid in ("continuity:wall0", "positivity:piece0", "pair:piece1", "period-closure"):
        assert next(c for c in report.checks if c.check_id == cid).passed


def test_validate_flags_corrupt_polynomial():
    model = packaged_model()
    orig = model.pieces[0]
    crooked = Piece(orig.lo, orig.hi, DHPolynomial(4, 1, 4), reduced_space="Kummer")
    report = validate(GluedModel((crooked, model.pieces[1]), model.walls, model.period, 32))
    failed = {c.check_id for c in report.checks if not c.passed}
    assert "continuity:wall0" in failed
    assert "even:piece0" in failed
    assert "fixed-point-total" not in failed


def test_single_piece_model():
    kappa, eta = pair_from_polynomial(DHPolynomial(2, 0, 0))
    piece = Piece(0, 1, DHPolynomial(2, 0, 0), class_pair=(kappa, eta))
    report = validate(GluedModel((piece,), ()))
    assert report.all_passed()
    assert {c.check_id for c in report.checks} == {
        "positivity:piece0", "even:piece0", "pair:piece0", "primitive:piece0",
    }


# pieces (2, 0, 2), (2, 0, 0) and (4, -4, 2) with two walls of 4 points:
# unlike in a 2-piece model, pieces i + 1 and i - 1 differ, so a wall check
# that reads the wrong neighbour of wall i fails here
THREE_PIECES = {
    "name": "three pieces",
    "pieces": [
        {"interval": ["-1", "0"], "dh": ["2", "0", "2"]},
        {"interval": ["0", "1"], "dh": ["2", "0", "0"]},
        {"interval": ["1", "2"], "dh": ["4", "-4", "2"]},
    ],
    "walls": [
        {"level": "0", "count": 4, "weights": [-2, 1, 1]},
        {"level": "1", "count": 4, "weights": [2, -1, -1]},
    ],
    "fixed_points": 8,
}


def test_three_piece_model_validates(capsys, tmp_path):
    report = validate(model_from_json_dict(THREE_PIECES))
    assert report.all_passed()
    ids = {c.check_id for c in report.checks}
    assert {"continuity:wall1", "delta:wall0", "delta:wall1", "positivity:piece2"} <= ids
    path = tmp_path / "three.json"
    path.write_text(json.dumps(THREE_PIECES))
    assert main(["validate-model", str(path)]) == 0
    assert "11/11 checks passed" in capsys.readouterr().out


def test_a_model_with_no_fixed_points_is_accepted():
    model = GluedModel((Piece(None, None, DHPolynomial(2, 0, 0)),), (), fixed_points=0)
    assert model.fixed_points == 0
    report = validate(model)
    assert report.all_passed() and "fixed-point-total" in {c.check_id for c in report.checks}


def test_structural_errors():
    model = packaged_model()
    with pytest.raises(ModelError, match="walls"):
        validate(GluedModel(model.pieces, model.walls[:1], model.period))
    with pytest.raises(ModelError, match="no pieces"):
        validate(GluedModel((), ()))
    shifted = Wall(2, 16, (-2, 1, 1))
    with pytest.raises(ModelError, match="level"):
        validate(GluedModel(model.pieces, (shifted, model.walls[1]), model.period))
    with pytest.raises(ModelError, match="tile"):
        validate(GluedModel(model.pieces, model.walls, period=6))
    with pytest.raises(ModelError, match="unbounded"):
        piece = Piece(None, 1, ORBIFOLD_BRANCH)
        validate(GluedModel((piece,), (Wall(1, 16, (-2, 1, 1)),), period=4))


def test_structural_errors_of_periods_and_pieces():
    model = packaged_model()
    for period in (0, -4):
        with pytest.raises(ModelError, match="period must be positive"):
            validate(GluedModel(model.pieces, model.walls, period=period))
    # interior wall at 1 matches, the wrap wall does not end the last piece
    moved = (model.walls[0], Wall(5, 16, (2, -1, -1)))
    with pytest.raises(ModelError, match="wrap wall"):
        validate(GluedModel(model.pieces, moved, model.period))
    with pytest.raises(ValueError, match="negative fixed point count"):
        Wall(1, -1, (-2, 1, 1))
    for lo, hi in ((1, 0), (1, 1)):
        with pytest.raises(ValueError, match="empty interval"):
            Piece(lo, hi, ORBIFOLD_BRANCH)
    with pytest.raises(ValueError, match="unknown reduced space"):
        Piece(0, 1, ORBIFOLD_BRANCH, reduced_space="Enriques")
    kappa, eta = pair_from_polynomial(DHPolynomial(2, 0, 0))
    with pytest.raises(ValueError, match="two members"):
        Piece(0, 1, DHPolynomial(2, 0, 0), class_pair=(kappa, eta, kappa))


def test_malformed_class_pairs_are_structural_errors():
    # a pair that is not two integral vectors of one lattice is refused when
    # the piece is built, with the ValueError of the other structural checks
    # (the model parser maps it to ModelError), so validate never meets it
    kappa, _ = pair_from_polynomial(DHPolynomial(2, 0, 0))
    e8 = make_E8().basis_vector(0)
    # rational vectors of any lattice, blowup classes included, and a blowup
    # class beside an integral vector of the blowup lattice are refused
    rational = kappa.to_rational()
    sphere = KUMMER_LATTICE.basis_vector(NUM_TORUS)
    for pair in ((1, 2), (kappa, e8), (e8, kappa), (kappa, kappa_hat()), (kappa_hat(), 1),
                 (rational, rational), (kappa_hat(), rational), (rational, kappa_hat()),
                 (kappa_hat(), sphere), (sphere, kappa_hat()), (kappa_hat(), eta_hat(1))):
        with pytest.raises(ValueError, match="two integral vectors of one lattice"):
            Piece(0, 1, DHPolynomial(2, 0, 2), class_pair=pair)
    # a well-formed pair is accepted
    Piece(0, 1, DHPolynomial(2, 0, 2), class_pair=(e8, 2 * e8))


def test_a_lattice_named_kummer_is_not_the_blowup_lattice():
    # no lattice is exempt from the integral rule, by its name or by its
    # Gram matrix: rational vectors of a lattice named kummer, and of one
    # equal to the blowup lattice, are refused, so validate never skips the
    # primitivity check of a pair; integral vectors of either are accepted
    impostor = Lattice("kummer", IntMatrix.identity(KUMMER_LATTICE.rank))
    copy = Lattice("kummer", KUMMER_LATTICE.gram)
    u, v = (impostor.basis_vector(i).to_rational() for i in range(2))
    k, e = (RationalVector(copy, c.nums, c.den) for c in (kappa_hat(), eta_hat(1)))
    for pair in ((u.scale(2), v), (k, e)):
        with pytest.raises(ValueError, match="two integral vectors of one lattice"):
            Piece(0, 1, DHPolynomial(2, 0, 2), class_pair=pair)
    for lattice in (impostor, copy):
        Piece(0, 1, DHPolynomial(2, 0, 2),
              class_pair=(lattice.basis_vector(0), lattice.basis_vector(1)))


def test_validate_reports_negative_endpoints_and_dependent_pairs():
    # t - 1 on (0, inf): negative at the closed end, rising on the open side
    rising = Piece(0, None, DHPolynomial(-2, 2, 0))
    report = validate(GluedModel((rising,), ()))
    assert {c.check_id for c in report.checks if not c.passed} == {"positivity:piece0"}
    # a dependent pair: its polynomial 2 (1 - 2t)^2 matches and is positive on
    # (0, 1/4), but the pair spans no rank-2 sublattice
    kappa, _ = pair_from_polynomial(DHPolynomial(2, 0, 0))
    dependent = Piece(0, Fraction(1, 4), DHPolynomial(2, -8, 8), class_pair=(kappa, 2 * kappa))
    report = validate(GluedModel((dependent,), ()))
    assert {c.check_id for c in report.checks if not c.passed} == {"primitive:piece0"}


def test_model_json_round_trip_and_errors():
    data = {
        "name": "theorem1",
        "pieces": [
            {"interval": ["-1", "1"], "dh": ["4", "0", "4"], "reduced_space": "Kummer"},
            {
                "interval": ["1", "3"],
                "dh": ["-4", "16", "-4"],
                "reduced_space": "K3",
                "class_pair": {"kappa": [1, -2] + [0] * 20, "eta": [0, -8, 1, -2] + [0] * 18},
            },
        ],
        "walls": [
            {"level": "1", "count": 16, "weights": [-2, 1, 1]},
            {"level": "3", "count": 16, "weights": [2, -1, -1]},
        ],
        "period": "4",
        "fixed_points": 32,
    }
    model = model_from_json_dict(data)
    assert model == packaged_model()
    assert model.pieces[1].class_pair == pair_from_polynomial(PLUS_BRANCH)
    with pytest.raises(ModelError, match="rational"):
        model_from_json_dict({"pieces": [{"interval": [0.5, 1], "dh": [1, 0, 0]}], "walls": []})
    with pytest.raises(ModelError, match="malformed"):
        model_from_json_dict({"walls": []})
    with pytest.raises(ModelError):
        model_from_json_dict({"pieces": [{"interval": ["0", "1"], "dh": ["2", "0"]}], "walls": []})
    with pytest.raises(ModelError, match="JSON object"):
        model_from_json_dict([1, 2])


def test_unbounded_ends_keep_their_side():
    data = {"pieces": [{"interval": ["-inf", "inf"], "dh": ["4", "0", "4"]}], "walls": []}
    assert model_from_json_dict(data) == GluedModel((Piece(None, None, ORBIFOLD_BRANCH),), ())


def test_readme_model_example_parses():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("## Glued-model files", 1)[1]
    block = re.search(r"```json\n(.*?)```", section, re.S).group(1)
    model = model_from_json_dict(json.loads(block))
    assert model == packaged_model()
    assert validate(model).all_passed()


def test_rational_from_json_is_strict():
    assert rational_from_json(-3) == -3
    assert rational_from_json("-7/2") == Fraction(-7, 2)
    for bad in (4.0, True, None, "4.0", "1e3", " 3", "+3", "3_0", "1/0", "1/-2"):
        with pytest.raises(ModelError, match="exact rational"):
            rational_from_json(bad)
    with pytest.raises(TypeError, match="integer"):
        Wall(1, 16.0, (-2, 1, 1))
    with pytest.raises(TypeError, match="integer"):
        GluedModel((), (), fixed_points=32.0)
