"""Value semantics of the library's immutable classes against dataclasses.

Each class built on exact_linalg.Frozen was once a @dataclass(frozen=True).
Its oracle is a twin made by dataclasses.make_dataclass from the former
fields and their compare/repr/init flags: on sample instances, ==, hash and
repr must agree with the twin's, every __init__ must take the twin's
parameters with the same defaults, and assignment and deletion must raise.
"""
import dataclasses
import inspect
from fractions import Fraction
from functools import cache

import pytest

from k3dh import kummer
from k3dh.exact_linalg import Frozen, FrozenError, IntMatrix
from k3dh.isometry import (
    Isometry, OrientedPlane, flip_third_H, identity_isometry, standard_plane,
)
from k3dh.lattice import Lattice, LatticeVector, RationalVector, make_E8, make_H, make_K3
from k3dh.moment import Check, DHPolynomial, GluedModel, Piece, Report, Wall, packaged_model
from k3dh.period import PeriodPoint, project_to_alpha_perp
from k3dh.shortvec import DefiniteGram

K3 = make_K3()
HIDDEN = {"repr": False, "compare": False}

# the former dataclass fields: a name, or (name, field flags)
FORMER_FIELDS = {
    IntMatrix: ["rows"],
    Lattice: ["name", "gram"],
    RationalVector: ["lattice", "nums", ("den", {"default": 1})],
    LatticeVector: ["lattice", "coords"],
    DefiniteGram: ["matrix", "negated"]
    + [(name, HIDDEN) for name in ("rows", "weights", "scale", "split", "tails")],
    PeriodPoint: ["re", "im", ("_projection", {"default": None, "init": False, **HIDDEN})],
    OrientedPlane: ["basis"],
    Isometry: ["lattice", "matrix"],
    kummer.InvariantForm: ["re", "im"],
    DHPolynomial: ["c0", "c1", "c2"],
    Wall: ["level", "count", "weights"],
    Piece: ["lo", "hi", "dh", ("class_pair", {"default": None}), ("reduced_space", {"default": "K3"})],
    GluedModel: [
        "pieces", "walls", ("period", {"default": None}),
        ("fixed_points", {"default": None}), ("name", {"default": "model"}),
    ],
    Check: ["check_id", "description", "claim", "expected", "computed", "passed"],
    Report: ["title", "checks"],
}
# these two kept their own __init__ as dataclasses too, so the twin's
# generated one says nothing about them
OWN_INIT = {IntMatrix, DefiniteGram}


def field_specs(cls):
    return [(f, {}) if isinstance(f, str) else f for f in FORMER_FIELDS[cls]]


@cache
def twin_class(cls):
    specs = [(name, object, dataclasses.field(**flags)) for name, flags in field_specs(cls)]
    # Lattice kept its own repr as a dataclass, and keeps it now
    namespace = {"__repr__": cls.__repr__} if cls is Lattice else None
    return dataclasses.make_dataclass(cls.__name__, specs, frozen=True, namespace=namespace)


def twin_of(obj):
    twin = twin_class(type(obj))
    kwargs = {name: getattr(obj, name) for name, flags in field_specs(type(obj))
              if flags.get("init", True)}
    t = twin(**kwargs)
    if type(obj) is Lattice:  # the repr reads the memoized rank
        object.__setattr__(t, "rank", obj.rank)
    return t


def h_vector(lattice, i):
    return lattice.basis_vector(2 * i) + lattice.basis_vector(2 * i + 1)


def samples():
    """Per class, instances with an equal but distinct pair among them."""
    e8 = make_E8()
    v = K3.vector([1, -2] + [0] * 20)
    r = K3.rational_vector([Fraction(1, 2), 3] + [0] * 20)
    dh = DHPolynomial(4, 0, 4)
    wall = Wall(1, 16, (1, 1, -1))
    kappa, eta = K3.vector([1, -2] + [0] * 20), K3.vector([0, -8, 1, -2] + [0] * 18)
    piece = Piece(-1, 1, dh, reduced_space="Kummer")
    check = Check("a:b", "description", "claim", "1", "1", True)
    return {
        IntMatrix: [IntMatrix([[1, 2], [3, 4]]), IntMatrix([[1, 2], [3, 4]]), IntMatrix([[5]]), IntMatrix([])],
        Lattice: [K3, make_K3(), e8, make_H()],
        RationalVector: [r, K3.rational_vector(r.coords), r.scale(2), RationalVector(K3, r.nums, den=r.den)],
        LatticeVector: [v, K3.vector(v.coords), -v],
        DefiniteGram: [DefiniteGram(e8.gram), DefiniteGram(make_E8().gram),
                       DefiniteGram(IntMatrix([[2, -1], [-1, 2]])), DefiniteGram(IntMatrix([[-2]]))],
        PeriodPoint: [PeriodPoint(h_vector(K3, 0), h_vector(K3, 1)),
                      PeriodPoint(h_vector(K3, 0).to_rational(), h_vector(K3, 1)),
                      PeriodPoint(h_vector(K3, 1), -h_vector(K3, 0))],
        OrientedPlane: [standard_plane(K3), OrientedPlane(standard_plane(K3).basis),
                        OrientedPlane(tuple(h_vector(K3, i) for i in (1, 0, 2)))],
        Isometry: [identity_isometry(K3), Isometry(K3, IntMatrix.identity(22)), flip_third_H(K3)],
        kummer.InvariantForm: [kummer.volume_real_form(), kummer.volume_real_form(),
                               kummer.symplectic_family_form(1, 2)],
        DHPolynomial: [dh, DHPolynomial(Fraction(4), 0, 4), DHPolynomial(-4, 16, -4)],
        Wall: [wall, Wall(Fraction(1), 16, [1, 1, -1]), Wall(3, 16, (1, -1, -1))],
        Piece: [piece, Piece(lo=-1, hi=1, dh=dh, class_pair=None, reduced_space="Kummer"),
                Piece(1, None, dh), Piece(1, 3, dh, (kappa, eta))],
        GluedModel: [GluedModel((piece,), (wall,)), GluedModel([piece], [wall], None, None, "model"),
                     GluedModel(pieces=(piece,), walls=(wall,), period=4, fixed_points=32, name="x"),
                     packaged_model()],
        Check: [check, Check(*(getattr(check, f) for f in Check._fields)),
                Check("a:b", "description", "claim", "1", "2", False)],
        Report: [Report("t", (check,)), Report("t", (check,)), Report("t", ())],
    }


SAMPLES = samples()


def test_every_library_value_class_is_sampled():
    # every Frozen subclass in the library with fields has an oracle here
    def subclasses(cls):
        for sub in cls.__subclasses__():
            yield sub
            yield from subclasses(sub)

    library = {c for c in subclasses(Frozen) if c.__module__.startswith("k3dh.") and c._fields}
    assert library == set(FORMER_FIELDS) == set(SAMPLES)
    assert len(library) == 15


@pytest.mark.parametrize("cls", list(FORMER_FIELDS), ids=lambda c: c.__name__)
def test_equality_hash_and_repr_match_the_dataclass_twin(cls):
    compared = [name for name, flags in field_specs(cls) if flags.get("compare", True)]
    assert list(cls._fields) == compared
    objs = SAMPLES[cls]
    twins = [twin_of(obj) for obj in objs]
    assert any(a is not b and a == b for a in objs for b in objs)
    assert any(a != b for a in objs for b in objs)
    for a, ta in zip(objs, twins):
        assert hash(a) == hash(ta)
        assert repr(a) == repr(ta)
        for b, tb in zip(objs, twins):
            assert (a == b) is (ta == tb)
            assert (a != b) is (ta != tb)
        # another class: NotImplemented both ways, so == falls back to identity
        assert a.__eq__(ta) is NotImplemented and ta.__eq__(a) is NotImplemented
        assert a != ta and not a == ta
        assert a.__eq__(object()) is NotImplemented


@pytest.mark.parametrize("cls", [c for c in FORMER_FIELDS if c not in OWN_INIT],
                         ids=lambda c: c.__name__)
def test_init_takes_the_dataclass_parameters_and_defaults(cls):
    def params(init):
        return [(p.name, p.kind, p.default) for p in inspect.signature(init).parameters.values()]

    assert params(cls.__init__) == params(twin_class(cls).__init__)


def test_keyword_construction_and_defaults():
    r = K3.rational_vector([Fraction(1, 3)] + [0] * 21)
    assert RationalVector(K3, r.nums, den=3) == RationalVector(lattice=K3, nums=r.nums, den=3) == r
    assert RationalVector(K3, (1,) + (0,) * 21).den == 1
    assert RationalVector(K3, (2,) + (0,) * 21, den=-4) == RationalVector(K3, (-1,) + (0,) * 21, 2)
    dh = DHPolynomial(0, 1, 0)
    piece = Piece(0, 1, dh)
    assert (piece.class_pair, piece.reduced_space) == (None, "K3")
    assert piece == Piece(lo=Fraction(0), hi=1, dh=dh, class_pair=None, reduced_space="K3")
    assert Piece(0, 1, dh, reduced_space="Kummer") != piece
    model = GluedModel([piece], ())
    assert (model.period, model.fixed_points, model.name) == (None, None, "model")
    assert model.pieces == (piece,) and model.walls == ()
    assert model == GluedModel(pieces=(piece,), walls=[], period=None, fixed_points=None, name="model")
    assert GluedModel((piece,), (), period=2).period == Fraction(2)
    assert GluedModel((piece,), (), name="other") != model


def test_cached_attributes_are_never_compared():
    r = K3.rational_vector([Fraction(1, 2), 3] + [0] * 20)
    twin = twin_of(K3.rational_vector(r.coords))
    assert r.gv and r.vv and r.coords and {"gv", "vv", "coords"} <= set(vars(r))
    other = K3.rational_vector([Fraction(1, 2), 3] + [0] * 20)
    assert r == other and hash(r) == hash(other) == hash(twin) and repr(r) == repr(other)
    lattice = make_K3()
    assert lattice.signature() == (3, 19) and lattice.rank == 22 and lattice._kernel
    assert lattice == make_K3() and hash(lattice) == hash(make_K3())
    # a projection kept on a period point is not a field
    point = PeriodPoint(h_vector(K3, 0), h_vector(K3, 1))
    plain = PeriodPoint(h_vector(K3, 0), h_vector(K3, 1))
    before = (hash(point), repr(point))
    project_to_alpha_perp(K3.basis_vector(4).to_rational(), point)
    assert point._projection is not None and plain._projection is None
    assert point == plain and (hash(point), repr(point)) == before == (hash(plain), repr(plain))
    assert repr(point) == repr(twin_of(plain))
    # the Bareiss data of a definite Gram matrix are not fields either
    gram = DefiniteGram(IntMatrix([[2, -1], [-1, 2]]))
    assert repr(gram) == f"DefiniteGram(matrix={gram.matrix!r}, negated=False)"


@pytest.mark.parametrize("cls", list(FORMER_FIELDS), ids=lambda c: c.__name__)
def test_assignment_and_deletion_raise(cls):
    assert issubclass(FrozenError, AttributeError)
    obj = SAMPLES[cls][0]
    fields = [name for name, _ in field_specs(cls)]
    # fields, values memoized in the instance __dict__, and a new name
    names = fields + sorted(set(vars(obj)) - set(fields)) + ["unknown"]
    state = dict(vars(obj))
    for name in names:
        with pytest.raises(FrozenError, match=f"cannot assign to field '{name}'"):
            setattr(obj, name, 0)
        with pytest.raises(FrozenError, match=f"cannot delete field '{name}'"):
            delattr(obj, name)
    assert vars(obj) == state
