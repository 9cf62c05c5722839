import contextlib
import hashlib
import io
import json
import os
import random
import subprocess
import sys
import tempfile
from fractions import Fraction
from importlib import resources
from pathlib import Path

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from k3dh import cli, isometry, period
from k3dh.cli import InputError, main, run_verify_paper
from k3dh.isometry import StandardizationError, eichler_transvection, flip_third_H
from k3dh.lattice import RationalVector, k3_e, k3_f, make_E8, make_K3, norm
from k3dh.moment import DHPolynomial, pair_from_polynomial, rational_to_str
from k3dh.period import PeriodPoint


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_json(tmp_path, name, doc):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


THEOREM1 = str(resources.files("k3dh") / "data" / "theorem1.json")


def test_lattice_info_standard(capsys):
    code, out, _ = run(capsys, "lattice-info", "--standard", "k3")
    assert code == 0
    assert "rank: 22" in out
    assert "signature: (3, 19)" in out

    code, out, _ = run(capsys, "lattice-info", "--standard", "e8+e8", "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["rank"] == 16
    assert doc["signature"] == [16, 0]
    assert doc["even"] and doc["unimodular"]


def test_lattice_info_from_file(capsys, tmp_path):
    path = write_json(tmp_path, "a1.json", {"rank": 1, "gram": [[2]]})
    code, out, _ = run(capsys, "lattice-info", "--file", path)
    assert code == 0
    assert "unimodular: false" in out

    bad = write_json(tmp_path, "bad.json", {"rank": 2, "gram": [[0, 1]]})
    code, _, err = run(capsys, "lattice-info", "--file", bad)
    assert code == 2
    assert "error:" in err

    code, _, err = run(capsys, "lattice-info", "--file", str(tmp_path / "missing.json"))
    assert code == 2

    (tmp_path / "a1.json").write_text("{not json")
    code, _, err = run(capsys, "lattice-info", "--file", path)
    assert code == 2
    assert "not valid JSON" in err

    # a degenerate form has no signature: an input error, not a traceback
    for gram in ([[0]], [[0, 0], [0, 2]]):
        path = write_json(tmp_path, "d.json", {"gram": gram})
        code, out, err = run(capsys, "lattice-info", "--file", path)
        assert (code, out) == (2, "")
        assert err.startswith("error:") and "degenerate" in err

    # only an int is a rank: no bool, no float
    for rank in (True, 1.0, "1"):
        path = write_json(tmp_path, "r.json", {"rank": rank, "gram": [[2]]})
        code, out, err = run(capsys, "lattice-info", "--file", path)
        assert (code, out) == (2, "")
        assert err.startswith("error:") and "'rank' must be an integer" in err


def test_lattice_info_output_is_pinned(capsys, tmp_path):
    # both outputs byte for byte; the text lines are rendered from the
    # --json document
    odd = write_json(tmp_path, "odd.json", {"gram": [[1, 0], [0, -3]]})
    cases = (
        (["--standard", "k3"], "K3", 22, "true", "true", (3, 19)),
        (["--file", odd], "lattice", 2, "false", "false", (1, 1)),
    )
    for argv, name, rank, even, unimodular, (p, n) in cases:
        code, out, err = run(capsys, "lattice-info", *argv)
        assert (code, err) == (0, "")
        assert out == (f"name: {name}\nrank: {rank}\neven: {even}\n"
                       f"unimodular: {unimodular}\nsignature: ({p}, {n})\n")
        code, out, err = run(capsys, "lattice-info", *argv, "--json")
        assert (code, err) == (0, "")
        assert out == (f'{{\n  "name": "{name}",\n  "rank": {rank},\n  "even": {even},\n'
                       f'  "unimodular": {unimodular},\n  "signature": [\n    {p},\n    {n}\n'
                       f'  ]\n}}\n')


def test_shortvec_counts(capsys, tmp_path):
    code, out, _ = run(capsys, "shortvec", "--standard", "e8", "--norm", "2")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[-1] == "count: 240"
    assert len(lines) == 241

    path = write_json(tmp_path, "diag.json", {"rank": 2, "gram": [[2, 0], [0, 2]]})
    code, out, _ = run(capsys, "shortvec", "--gram", path, "--norm", "2", "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["count"] == 4
    assert [1, 0] in doc["vectors"]


# sha256 of `k3dh shortvec` stdout on E8+E8 and on diag(1, 2, 1, 3, 2), plain
# and --json, pinned so that a change of the walk cannot change a byte
SHORTVEC_DIGESTS = {
    ("e8+e8", 2, False): "11b21d317124e80f696a6b45771c63648ecf8658016e561cd75c77c7886ccf7f",
    ("e8+e8", 2, True): "51fa5c4d68e69fd6d77606430fc3dad9811d0fad5988252bbc12822053f06b37",
    ("e8+e8", 4, False): "a2bda74f6081a17e361b795db40b22632e6846d7b92b7ce0d085febcf88f0820",
    ("e8+e8", 4, True): "f2154e585689269c4bdd9f37bb77ff0f64beac7176c86a5afea93b0947e95c06",
    ("diag", 2, False): "b3234d146b9f59ff0b8012e95a0a44328d6db70a3a46c811d2fbed1304443f55",
    ("diag", 2, True): "c4f355f5a255f7b0ec26e1629ffd37dbc9d64459877a8001dd15340650d8aa74",
    ("diag", 4, False): "e189dffc154b59b02ed9574bb8910e8a35753aea1b23ed40a44e225c10c6b7d5",
    ("diag", 4, True): "bf6de9d4ebd8707929f013f5a23d45f050a54872fd0ba13d8f77713318dae4ea",
}


def test_shortvec_output_is_pinned(capsys, tmp_path):
    e8 = make_E8().gram.rows
    ee = [list(r) + [0] * 8 for r in e8] + [[0] * 8 + list(r) for r in e8]
    diag = [[d if i == j else 0 for j in range(5)] for i, d in enumerate((1, 2, 1, 3, 2))]
    paths = {
        "e8+e8": write_json(tmp_path, "ee.json", {"rank": 16, "gram": ee}),
        "diag": write_json(tmp_path, "diag.json", {"rank": 5, "gram": diag}),
    }
    for (name, norm, as_json), digest in SHORTVEC_DIGESTS.items():
        argv = ["shortvec", "--gram", paths[name], "--norm", str(norm)]
        code, out, err = run(capsys, *argv, *(["--json"] if as_json else []))
        assert (code, err) == (0, "")
        assert hashlib.sha256(out.encode()).hexdigest() == digest, (name, norm, as_json)


def test_shortvec_rejects_bad_input(capsys, tmp_path):
    # hyperbolic plane is indefinite
    code, _, err = run(capsys, "shortvec", "--standard", "h", "--norm", "2")
    assert code == 2
    assert "definite" in err

    path = write_json(tmp_path, "diag.json", {"rank": 2, "gram": [[2, 0], [0, 2]]})
    code, _, err = run(capsys, "shortvec", "--gram", path, "--norm", "0")
    assert code == 2


def test_period_check_record(capsys, tmp_path):
    # (k,k) * ((re,re)+(im,im)) = 14 * 4 beats 2 * (k, re)^2 = 50
    k = [0] * 22
    k[0], k[1], k[4], k[5] = 2, 3, 1, 1
    re = [0] * 22
    im = [0] * 22
    re[0] = re[1] = 1
    im[2] = im[3] = 1
    path = write_json(tmp_path, "p.json", {"kappa": k, "re": re, "im": im})
    code, out, _ = run(capsys, "period-check", path)
    assert code == 0
    assert "3/3 checks passed" in out
    assert "in tame cone: true" in out

    # re not orthogonal to im: no period point, mathematical failure
    bad = write_json(tmp_path, "pb.json", {"kappa": k, "re": re, "im": re})
    code, out, _ = run(capsys, "period-check", bad)
    assert code == 1
    assert "[FAIL] period:point" in out


def test_period_check_input_errors(capsys, tmp_path):
    re = [0] * 22
    im = [0] * 22
    re[0] = re[1] = 1
    im[2] = im[3] = 1
    missing = write_json(tmp_path, "m.json", {"re": re, "im": im})
    assert run(capsys, "period-check", missing)[0] == 2

    k = [0] * 22
    k[0] = 0.5
    floaty = write_json(tmp_path, "f.json", {"kappa": k, "re": re, "im": im})
    code, _, err = run(capsys, "period-check", floaty)
    assert code == 2
    assert "kappa" in err

    short = write_json(tmp_path, "s.json", {"kappa": [1], "re": re, "im": im})
    assert run(capsys, "period-check", short)[0] == 2

    assert run(capsys, "period-check", write_json(tmp_path, "l.json", [1, 2]))[0] == 2


# a record whose kappa has denominators 2, 3 and 6 and whose im has
# denominator 5; its stdout was recorded from the three-Fraction right-hand
# side of the projected-norm identity
PINNED_RECORD = {
    "kappa": ["1/2", 0, "-2/3", 1, 3, "5/2", 1, "1/3", *[0] * 8, "-1/2", *[0] * 5],
    "re": [1, 1, *[0] * 20],
    "im": [0, 0, "3/5", "3/5", "4/5", "4/5", *[0] * 16],
}
PINNED_RECORD_DIGESTS = {
    False: "d37152fe8388a080a83b487cb305ae94fb78627574447da16c2c9d00609d2ee3",
    True: "010e904fea873adb5d42f5ad073ef6126931d6819eace652673724574b8c1138",
}


def test_period_check_output_is_pinned(capsys, tmp_path):
    path = write_json(tmp_path, "p.json", PINNED_RECORD)
    for as_json, digest in PINNED_RECORD_DIGESTS.items():
        code, out, err = run(capsys, "period-check", path, *(["--json"] if as_json else []))
        assert (code, err) == (0, "")
        assert out.count("431/1800") == 2
        assert hashlib.sha256(out.encode()).hexdigest() == digest, as_json


K3 = make_K3()
DIAGONALS = [(k3_e(K3, i) + k3_f(K3, i)).to_rational() for i in range(3)]


def period_sample_oracle():
    """Test-only oracle: the battery's sample law, with Fraction coordinates
    through Lattice.rational_vector, LatticeVector arithmetic and
    to_rational."""
    rng = random.Random(cli._SEED)
    out = []
    for i in range(cli._PERIOD_SAMPLES):
        a, b = rng.randint(1, 5), rng.randint(0, 5)
        u = a * (k3_e(K3, 0) + k3_f(K3, 0)) + b * (k3_e(K3, 1) + k3_f(K3, 1))
        v = a * (k3_e(K3, 1) + k3_f(K3, 1)) - b * (k3_e(K3, 0) + k3_f(K3, 0))
        kappa = K3.rational_vector(
            [Fraction(rng.getrandbits(5) - 16, 6) for _ in range(K3.rank)]
        )
        if i % 2 == 0:
            kappa = kappa + 7 * (k3_e(K3, 2) + k3_f(K3, 2))
        out.append((kappa, u.to_rational(), v.to_rational()))
    return out


def test_period_samples_follow_their_law():
    # the verify digest records only "50/50", so it cannot see a changed
    # sample law; each triple must equal the oracle's, numerators and
    # denominator alike (equality of RationalVector is structural)
    samples = list(cli._period_samples(K3))
    oracle = period_sample_oracle()
    assert len(samples) == len(oracle) == 50
    for got, want in zip(samples, oracle):
        assert all(type(v) is RationalVector for v in got)
        assert got == want
    # the law reaches b = 0, and tame-cone members as well as non-members;
    # only the samples that gained 7 (e3 + f3) are members
    assert any(not re.nums[2] for _, re, _ in samples)
    members = [period.is_in_ktilde_omega(k, PeriodPoint(re, im)) for k, re, im in samples]
    assert sum(members) == 14
    assert not any(members[1::2])


# sha256 of the 50 samples as JSON: for each of kappa, re and im, its
# numerators followed by its denominator
PERIOD_SAMPLES_DIGEST = "92b47e7e26235219ccb23becca2bfce6cfe8350645e8fb035190a0769fd631c8"


def test_period_samples_are_pinned():
    # pinned apart from the oracle above, so the battery's law stays fixed
    # even if an interpreter changes how randint or getrandbits draws
    rows = [[[*v.nums, v.den] for v in sample] for sample in cli._period_samples(K3)]
    assert len(rows) == 50
    assert hashlib.sha256(json.dumps(rows).encode()).hexdigest() == PERIOD_SAMPLES_DIGEST


@st.composite
def rotated_period_records(draw):
    """(kappa, re, im): kappa with denominators 1, 2 and 3, and a period
    point on the diagonals x, y, z of the hyperbolic blocks, turned by the
    rational angle (c, s) = ((p^2 - q^2) / h, 2pq / h), h = p^2 + q^2, and
    scaled by 1/m.  Either the point a x + b y, a y - b x is turned in its
    own plane, or re = a x stays and only im = a (c y + s z) turns, so that
    re and im have different denominators."""
    x, y, z = (DIAGONALS[i] for i in draw(st.permutations(range(3))))
    a, b = draw(st.integers(1, 6)), draw(st.integers(-6, 6))
    p, q = draw(st.integers(-6, 6)), draw(st.integers(-6, 6))
    assume((p, q) != (0, 0))
    h = p * p + q * q
    c, s = Fraction(p * p - q * q, h), Fraction(2 * p * q, h)
    if draw(st.booleans()):
        re0, im0 = x.scale(a) + y.scale(b), y.scale(a) - x.scale(b)
        re, im = re0.scale(c) - im0.scale(s), re0.scale(s) + im0.scale(c)
    else:
        re, im = x.scale(a), (y.scale(c) + z.scale(s)).scale(a)
    m = Fraction(1, draw(st.integers(1, 4)))
    re, im = re.scale(m), im.scale(m)
    coords = draw(st.lists(
        st.builds(Fraction, st.integers(-30, 30), st.sampled_from((1, 2, 3))),
        min_size=K3.rank, max_size=K3.rank,
    ))
    return K3.rational_vector(coords), re, im


@settings(max_examples=150, deadline=None)
@given(rotated_period_records())
def test_projection_identity_rhs_matches_the_former_expression(record):
    kappa, re, im = record
    point = PeriodPoint(re, im)
    former = norm(kappa) - 2 * point.pairing_square(kappa) / point.hermitian_norm()
    checks = {c.check_id: c for c in cli._period_checks(kappa, re, im)}
    identity = checks["period:projection-identity"]
    assert identity.computed == rational_to_str(former)
    assert identity.expected == rational_to_str(former)
    assert identity.passed and len(checks) == 3


def quadratic_pairs_doc():
    from k3dh.isometry import eichler_transvection
    from k3dh.lattice import k3_e, k3_f
    from k3dh.moment import DHPolynomial, pair_from_polynomial

    K3 = make_K3()
    kappa, eta = pair_from_polynomial(DHPolynomial(-4, 16, -4))
    move = eichler_transvection(k3_e(K3, 2), 2 * k3_f(K3, 0) - k3_e(K3, 1))
    return {
        "kappa": list(kappa.coords),
        "eta": list(eta.coords),
        "kappa_p": list(move.apply(kappa).coords),
        "eta_p": list(move.apply(eta).coords),
    }


def test_isometry_both_modes(capsys, tmp_path):
    path = write_json(tmp_path, "pairs.json", quadratic_pairs_doc())
    code, out, _ = run(capsys, "isometry", "--pairs", path)
    assert code == 0
    assert "4/4 checks passed" in out
    assert "matrix:" in out

    code, out, _ = run(capsys, "isometry", "--pairs", path, "--reverse")
    assert code == 0
    assert "expected reversed, got reversed" in out

    code, out, _ = run(capsys, "isometry", "--pairs", path, "--json")
    doc = json.loads(out)
    assert code == 0
    assert doc["summary"]["failed"] == 0
    matrix = doc["matrix"]
    assert len(matrix) == 22 and all(len(row) == 22 for row in matrix)


def test_isometry_of_a_model_pair_onto_itself_is_the_identity(capsys, tmp_path):
    doc = quadratic_pairs_doc()
    doc["kappa_p"], doc["eta_p"] = doc["kappa"], doc["eta"]
    path = write_json(tmp_path, "same.json", doc)
    code, out, _ = run(capsys, "isometry", "--pairs", path, "--json")
    report = json.loads(out)
    assert code == 0
    assert report["summary"]["failed"] == 0
    assert report["matrix"] == [[int(i == j) for j in range(22)] for i in range(22)]


def moved_pairs_doc(kappa, eta, target_moves, source_moves):
    """An isometry request on images of one pair (kappa, eta): the target
    moved by target_moves, the source by source_moves, each a sequence of
    transvections (e, a) applied in order."""
    def move(pair, moves):
        for e, a in moves:
            t = eichler_transvection(e, a)
            pair = tuple(t.apply(v) for v in pair)
        return [list(v.coords) for v in pair]

    (k, e), (kp, ep) = move((kappa, eta), target_moves), move((kappa, eta), source_moves)
    return {"kappa": k, "eta": e, "kappa_p": kp, "eta_p": ep}


def pinned_isometry_docs():
    """The battery's transvected model pair, and two requests whose target and
    source are both moved: inside H^3, and with E8 parts in the arguments."""
    e1, f1, e2, f2, e3, f3 = (K3.basis_vector(i) for i in range(6))
    b = [K3.basis_vector(i) for i in range(K3.rank)]
    kappa0, eta0 = pair_from_polynomial(DHPolynomial(-4, 16, -4))
    return {
        "battery": moved_pairs_doc(
            kappa0, eta0, [], [(f3, 3 * e1 - e2), (e3, f1 - 2 * e2 + f2)]),
        "both-moved-h": moved_pairs_doc(
            e1 + 2 * f1, -3 * f1 + e2 - f2, [(e2, 2 * e3 - f1), (f3, e1 + 3 * f2)],
            [(f1, e2 - 2 * e3 + f3)]),
        "both-moved-e8": moved_pairs_doc(
            kappa0, eta0, [(e2, 2 * f3 + b[6] - b[9])],
            [(f3, e1 + b[14] + 2 * b[20]), (e1, -1 * e2 + b[7])]),
    }


# stdout of `k3dh isometry` on pinned_isometry_docs(), recorded before the
# mover built its product with rank-two row updates and the Smith normal
# form carried its transform as rows
ISOMETRY_DIGESTS = {
    ('battery', False, False): "839bb1cb99538eafa36a1e94020cbdaa68356e1cd56697204ff65f480a7913de",
    ('battery', False, True): "9909433da99c51b0551006087346dbc3c33e854d511b411db8737e3091de704e",
    ('battery', True, False): "c2b6d8dc33b5aa7750ce518c91dcc06b46ac15bc43e03607e8f13e1c1ab0c527",
    ('battery', True, True): "a0712d399eda6dcf6985aebd5fde13d21400d0a9d41f07e158bef6a300c3fac5",
    ('both-moved-h', False, False): "eb036be560adc967d8705db856363c6496a327cd6ea2016db750e0e8580fc232",
    ('both-moved-h', False, True): "def292a1a25e7ad26d1233f23a1e7d625ba0220b93a3565db14f6866115bdcf0",
    ('both-moved-h', True, False): "812faedc9a96c1f48615265706c8be8257b4197a9193f0f21442ae9212b5c240",
    ('both-moved-h', True, True): "2324cdec2b8267ababc268eaff1c69232a6239873f248969b62ddabde15bafe8",
    ('both-moved-e8', False, False): "4c883532c815f81d48ef4dc32f3fa5996acf3421aab5df83bcfab4974ed97b14",
    ('both-moved-e8', False, True): "694f6dbbf2d6736d140ad58b17de9c27d3fa068a1b8a575288909317cf9dfea9",
    ('both-moved-e8', True, False): "484bd4200db46012549101b28a6997d8bffea8fc3ccdde0eb29fa5a60c3827e1",
    ('both-moved-e8', True, True): "96d56fc89c147ccac833cc6d36604790254b329c18e20a41e0e05eae8c9365f9",
}


def test_isometry_output_is_pinned(capsys, tmp_path):
    docs = pinned_isometry_docs()
    for (name, as_json, reverse), digest in ISOMETRY_DIGESTS.items():
        path = write_json(tmp_path, f"{name}.json", docs[name])
        flags = (["--json"] if as_json else []) + (["--reverse"] if reverse else [])
        code, out, err = run(capsys, "isometry", "--pairs", path, *flags)
        assert (code, err) == (0, "")
        assert hashlib.sha256(out.encode()).hexdigest() == digest, (name, as_json, reverse)
    assert len(ISOMETRY_DIGESTS) == 4 * len(docs)


def test_isometry_gram_mismatch_fails(capsys, tmp_path):
    doc = quadratic_pairs_doc()
    doc["eta_p"][0] += 1
    path = write_json(tmp_path, "pairs.json", doc)
    code, out, _ = run(capsys, "isometry", "--pairs", path)
    assert code == 1
    assert "[FAIL] isometry:gram-data" in out
    assert "matrix:" not in out


def test_isometry_input_errors(capsys, tmp_path):
    doc = quadratic_pairs_doc()
    del doc["eta_p"]
    assert run(capsys, "isometry", "--pairs", write_json(tmp_path, "x.json", doc))[0] == 2

    doc = quadratic_pairs_doc()
    doc["kappa"][3] = "7"
    code, _, err = run(capsys, "isometry", "--pairs", write_json(tmp_path, "y.json", doc))
    assert code == 2
    assert "integers" in err

    with pytest.raises(SystemExit) as exc:
        main(["isometry", "--pairs", "z.json", "--preserve", "--reverse"])
    assert exc.value.code == 2

    listed = write_json(tmp_path, "l.json", list(quadratic_pairs_doc().values()))
    code, _, err = run(capsys, "isometry", "--pairs", listed)
    assert code == 2
    assert "JSON object" in err


def test_isometry_non_primitive_pairs_fail_construction(capsys, tmp_path):
    # equal Gram data, but (2 e1, e2) spans a non-saturated sublattice
    kappa, eta = [0] * 22, [0] * 22
    kappa[0], eta[2] = 2, 1
    doc = {"kappa": kappa, "eta": eta, "kappa_p": kappa, "eta_p": eta}
    code, out, _ = run(capsys, "isometry", "--pairs", write_json(tmp_path, "p.json", doc))
    assert code == 1
    assert "[PASS] isometry:gram-data" in out
    assert "[FAIL] isometry:construction" in out
    assert "matrix:" not in out


# sha256 of `k3dh kummer-report` stdout, plain and --json, pinned so that a
# change of the blowup representation cannot change a byte
KUMMER_REPORT_DIGESTS = {
    False: "17132546acd976112a8796e06c5555aa287326366d07a030c8cb6a20d10ec235",
    True: "59a362def0f577385f9688a3f1e62f6f8760ddfbac517b6f6a8aebfcf8daaef3",
}


def test_kummer_report(capsys):
    code, out, _ = run(capsys, "kummer-report")
    assert code == 0
    assert "8/8 checks passed" in out

    code, out, _ = run(capsys, "kummer-report", "--json")
    doc = json.loads(out)
    assert doc["summary"] == {"total": 8, "passed": 8, "failed": 0}


def test_kummer_report_output_is_pinned(capsys):
    for as_json, digest in KUMMER_REPORT_DIGESTS.items():
        code, out, err = run(capsys, "kummer-report", *(["--json"] if as_json else []))
        assert (code, err) == (0, "")
        assert hashlib.sha256(out.encode()).hexdigest() == digest, as_json


def test_validate_model_packaged_file(capsys, tmp_path):
    code, out, _ = run(capsys, "validate-model", THEOREM1)
    assert code == 0
    assert "11/11 checks passed" in out

    doc = json.loads(open(THEOREM1).read())
    doc["fixed_points"] = 31
    code, out, _ = run(capsys, "validate-model", write_json(tmp_path, "m.json", doc))
    assert code == 1
    assert "[FAIL] fixed-point-total" in out

    del doc["pieces"]
    code, _, err = run(capsys, "validate-model", write_json(tmp_path, "m2.json", doc))
    assert code == 2
    assert "malformed" in err


@pytest.mark.parametrize(
    "edit, message",
    [
        (lambda d: d["walls"][0].update(count=16.9), "16.9"),
        (lambda d: d["walls"][0].update(weights=[-2.7, 1, 1]), "-2.7"),
        (lambda d: d.update(fixed_points="32"), "'32'"),
        (lambda d: d.update(period="4.0"), "not an exact rational: '4.0'"),
        # strings unpack by characters: "404" would read as (4, 0, 4)
        (lambda d: d["pieces"][0].update(dh="404"), "'dh' must be a list, got '404'"),
        (lambda d: d["pieces"][1].update(interval="13"), "'interval' must be a list"),
        (lambda d: d["walls"][0].update(weights="-211"), "'weights' must be a list"),
        (lambda d: d.update(name=[1, 2]), "'name' must be a string, got [1, 2]"),
        # each structural refusal names its field and the entry it is in
        (lambda d: d["walls"][0].pop("level"), "malformed model: walls[0] is missing 'level'"),
        (lambda d: d["pieces"][0].update(interval=["-1", "0", "1"]),
         "malformed model: pieces[0]: 'interval' must have 2 entries, got 3"),
        (lambda d: d["pieces"].__setitem__(0, 5),
         "malformed model: pieces[0] must be an object, got 5"),
        (lambda d: d["pieces"][1]["class_pair"].update(kappa=[1] * 21),
         "malformed model: pieces[1].class_pair: 'kappa' must have 22 entries, got 21"),
        (lambda d: d["pieces"][1]["class_pair"].pop("eta"),
         "malformed model: pieces[1].class_pair is missing 'eta'"),
        (lambda d: d["walls"][1].update(count=-1),
         "malformed model: walls[1]: negative fixed point count"),
        (lambda d: d["pieces"][0]["dh"].__setitem__(1, "x"),
         "malformed model: pieces[0].dh: not an exact rational: 'x'"),
        (lambda d: d["pieces"][1]["class_pair"]["kappa"].__setitem__(3, 1.5),
         "malformed model: pieces[1].class_pair.kappa: integer coordinate expected, got 1.5"),
    ],
    ids=["float-count", "float-weight", "string-fixed-points", "decimal-string",
         "string-dh", "string-interval", "string-weights", "list-name",
         "missing-level", "three-endpoints", "int-piece", "short-class-pair", "missing-eta",
         "negative-count", "string-in-dh", "float-in-class-pair"],
)
def test_validate_model_rejects_coercions(capsys, tmp_path, edit, message):
    doc = json.loads(open(THEOREM1).read())
    edit(doc)
    code, out, err = run(capsys, "validate-model", write_json(tmp_path, "m.json", doc))
    assert code == 2
    assert out == ""
    assert message in err


@pytest.mark.parametrize(
    "interval, message",
    [
        (["inf", "1"], "'inf' on the wrong side"),
        (["-1", "-inf"], "'-inf' on the wrong side"),
        (["inf", "-inf"], "'inf' on the wrong side"),
        (["-inf", "1"], "periodic model cannot have unbounded pieces"),
    ],
    ids=["inf-as-lower", "minus-inf-as-upper", "swapped", "unbounded-periodic"],
)
def test_validate_model_rejects_bad_endpoints(capsys, tmp_path, interval, message):
    doc = json.loads(open(THEOREM1).read())
    doc["pieces"][0]["interval"] = interval
    code, out, err = run(capsys, "validate-model", write_json(tmp_path, "m.json", doc))
    assert code == 2
    assert out == ""
    assert message in err


def test_verify_all_pass(capsys):
    code, out, _ = run(capsys, "verify")
    assert code == 0
    assert "[FAIL]" not in out
    # every battery family is represented
    for prefix in ("lattice:", "roots:", "period:", "isometry:", "torus:",
                   "blowup:", "dh:", "primitive:", "model:"):
        assert f"[PASS] {prefix}" in out


@pytest.mark.parametrize("mode", ["dh", "wall", "weight"])
def test_verify_perturb_flips_exit_code(capsys, mode):
    code, out, _ = run(capsys, "verify", "--perturb", mode)
    assert code == 1
    assert "[FAIL] model:" in out
    # the corruption is confined to the model fixture
    assert "[FAIL] lattice:" not in out
    assert "[FAIL] torus:" not in out


def test_verify_json_is_canonical(capsys):
    code, out, _ = run(capsys, "verify", "--json")
    assert code == 0
    doc = json.loads(out)
    assert json.dumps(doc, indent=2) + "\n" == out
    assert doc["schema_version"] == 1
    assert doc["summary"]["failed"] == 0
    assert doc["summary"]["total"] == doc["summary"]["passed"] == len(doc["checks"])
    for check in doc["checks"]:
        assert list(check) == ["id", "description", "claim", "expected", "computed", "passed"]
        assert check["passed"] is (check["expected"] == check["computed"])


def test_verify_json_under_optimize_matches_reference_digest():
    # -O strips assert statements: the library's own checks must be explicit
    # errors, and the canonical bytes must equal the benchmark's recording
    root = Path(__file__).resolve().parents[1]
    ref = json.loads((root / "bench" / "reference.json").read_text())["verify"]
    path = os.pathsep.join(filter(None, (str(root / "src"), os.environ.get("PYTHONPATH"))))
    out = subprocess.run(
        [sys.executable, "-O", "-m", "k3dh", "verify", "--json"],
        env={**os.environ, "PYTHONPATH": path}, capture_output=True, text=True, timeout=170,
    )
    assert out.returncode == 0, out.stderr
    summary = json.loads(out.stdout)["summary"]
    assert (summary["passed"], summary["total"]) == (ref["checks"], ref["checks"]) == (28, 28)
    assert hashlib.sha256(out.stdout.encode()).hexdigest() == ref["digest"]


def test_run_verify_paper_report_object():
    report = run_verify_paper()
    assert report.all_passed()
    ids = [c.check_id for c in report.checks]
    assert ids.index("lattice:shape") == 0
    assert "model:fixed-point-total" in ids

    broken = run_verify_paper(perturb="wall")
    failed = {c.check_id for c in broken.checks if not c.passed}
    assert failed == {"model:delta:wall0", "model:fixed-point-total"}

    # argparse choices keep this from the command line; library callers get an error
    with pytest.raises(InputError, match="unknown perturbation"):
        run_verify_paper(perturb="bogus")


def test_verify_reports_a_failed_lemma_construction(monkeypatch, capsys):
    # the battery builds its lemma checks as the isometry subcommand does, so
    # a construction that fails is two failed checks, not an exception
    def no_moves(*args, **kwargs):
        raise StandardizationError("no move sequence found in 0 steps")

    monkeypatch.setattr(cli, "lemma_iso", no_moves)
    report = run_verify_paper()
    failed = {c.check_id for c in report.checks if not c.passed}
    assert failed == {"isometry:lemma-preserve", "isometry:lemma-reverse"}
    assert report.passed_count == len(report.checks) - 2
    code, out, _ = run(capsys, "verify", "--json")
    assert code == 1
    assert json.loads(out)["summary"]["failed"] == 2


def test_isometry_reports_a_library_fault_as_a_failed_construction(
        monkeypatch, capsys, tmp_path):
    # lemma_iso's orientation exit check fails: the isometry module's
    # preserves_components answers wrong.  cli binds its own, so the
    # calibration of the reference isometries still sees the right answer
    real = isometry.preserves_components
    monkeypatch.setattr(isometry, "preserves_components", lambda phi: not real(phi))
    path = write_json(tmp_path, "pairs.json", quadratic_pairs_doc())
    for flags in ([], ["--reverse"]):
        code, out, err = run(capsys, "isometry", "--pairs", path, *flags)
        assert (code, err) == (1, "")
        assert "[FAIL] isometry:construction" in out
        assert "orientation character is wrong" in out
        assert "matrix:" not in out
    failed = {c.check_id for c in run_verify_paper().checks if not c.passed}
    assert failed == {"isometry:lemma-preserve", "isometry:lemma-reverse"}


def spy(monkeypatch, fn):
    """The list of calls of fn, recorded through every k3dh module that
    binds it."""
    calls = []

    def counted(*args):
        calls.append(args)
        return fn(*args)

    for name, module in list(sys.modules.items()):
        if name.startswith("k3dh."):
            for attr, value in list(vars(module).items()):
                if value is fn:
                    monkeypatch.setattr(module, attr, counted)
    return calls


def test_each_isometry_claim_is_evaluated_once(monkeypatch, capsys, tmp_path):
    # the flip of the third hyperbolic summand is built and checked once per
    # lattice, not once per request
    flip_third_H(make_K3())
    orientations = spy(monkeypatch, isometry.preserves_components)
    # Isometry.__post_init__ is the one place M^T G M = G is evaluated
    full_check = isometry.Isometry.__post_init__
    full_checks = []

    def counted(self):
        full_checks.append(self.matrix)
        full_check(self)

    monkeypatch.setattr(isometry.Isometry, "__post_init__", counted)
    # the target is the model pair: g is the identity and only phi takes the
    # full check, which lemma_iso's exit check still makes
    path = write_json(tmp_path, "pairs.json", quadratic_pairs_doc())
    for flags in ([], ["--reverse"]):
        orientations.clear()
        full_checks.clear()
        code, out, _ = run(capsys, "isometry", "--pairs", path, *flags)
        assert code == 0 and "4/4 checks passed" in out
        assert len(orientations) == 1
        assert len(full_checks) == 1


def test_each_period_record_tests_the_cone_once(monkeypatch, capsys, tmp_path):
    memberships = spy(monkeypatch, period.is_in_k_omega)
    k = [0] * 22
    k[0], k[1], k[4], k[5] = 2, 3, 1, 1
    re, im = [0] * 22, [0] * 22
    re[0] = re[1] = 1
    im[2] = im[3] = 1
    outside = [0] * 22
    outside[0], outside[1] = 1, -1
    for kappa, member in ((k, "true"), (outside, "false")):
        memberships.clear()
        path = write_json(tmp_path, "p.json", {"kappa": kappa, "re": re, "im": im})
        code, out, _ = run(capsys, "period-check", path)
        assert code == 0 and f"in tame cone: {member}" in out
        assert len(memberships) == 1


def projection_off_by_e1(lattice, nums, den):
    # project_to_alpha_perp builds its output with this constructor; adding
    # e1 / den breaks the orthogonality its exit check tests
    return RationalVector(lattice, (nums[0] + 1, *nums[1:]), den)


def zero_projection(kappa, point):
    return RationalVector(point.lattice, (0,) * point.lattice.rank)


def positive_projection(kappa, point):
    # e3 + f3: positive and orthogonal to every period line in the records
    return (k3_e(point.lattice, 2) + k3_f(point.lattice, 2)).to_rational()


@pytest.mark.parametrize(
    "attr, fault, member, message",
    [
        ("RationalVector", projection_off_by_e1, True,
         "projection is not orthogonal to the period line"),
        ("project_to_alpha_perp", zero_projection, True,
         "cone membership disagrees with its projected form"),
        ("project_to_alpha_perp", positive_projection, False,
         "cone membership disagrees with its projected form"),
    ],
    ids=["projection", "zero-cone", "positive-cone"],
)
def test_period_layer_fault_is_a_failed_row(monkeypatch, capsys, tmp_path, attr, fault,
                                            member, message):
    # a fault that project_to_alpha_perp's exit check catches, or one that
    # is_in_ktilde_omega's does (it projects through the period module's
    # binding, cli through its own), fails the record's projection row
    # instead of ending the command with a traceback
    samples = list(cli._period_samples(make_K3()))
    members = sum(period.is_in_ktilde_omega(k, PeriodPoint(re, im)) for k, re, im in samples)
    # both kinds occur, so every fault below fails the battery's sample row
    assert 0 < members < len(samples)
    monkeypatch.setattr(period, attr, fault)
    k, re, im = [0] * 22, [0] * 22, [0] * 22
    if member:
        k[0], k[1], k[4], k[5] = 2, 3, 1, 1
    else:
        k[0], k[1] = 1, -1
    re[0] = re[1] = 1
    im[2] = im[3] = 1
    path = write_json(tmp_path, "p.json", {"kappa": k, "re": re, "im": im})
    code, out, err = run(capsys, "period-check", path)
    assert (code, err) == (1, "")
    assert f"[FAIL] period:projection: " in out and message in out
    assert "in tame cone:" not in out
    code, out, err = run(capsys, "period-check", path, "--json")
    assert (code, err) == (1, "")
    rows = json.loads(out)["checks"]
    assert [(c["id"], c["passed"]) for c in rows] == [
        ("period:point", True), ("period:projection", False)]
    assert rows[1]["computed"] == f"failed: {message}"
    # the battery counts each sample the fault reaches as failed: the zero
    # projection reaches the members, e3 + f3 the others
    good = {projection_off_by_e1: 0, zero_projection: len(samples) - members,
            positive_projection: members}[fault]
    report = run_verify_paper()
    failed = [c for c in report.checks if not c.passed]
    assert [c.check_id for c in failed] == ["period:identity-sample"]
    sample_row = next(c for c in report.checks if c.check_id == "period:identity-sample")
    assert sample_row.computed == f"{good}/{len(samples)}"


@pytest.mark.parametrize("walls", [{}, ""], ids=["object", "string"])
def test_validate_model_refuses_walls_that_are_not_a_list(capsys, tmp_path, walls):
    # iterating "walls" directly read {} and "" as a model without walls
    doc = json.loads(open(THEOREM1).read())
    doc["pieces"], doc["walls"] = doc["pieces"][:1], walls
    code, out, err = run(capsys, "validate-model", write_json(tmp_path, "m.json", doc))
    assert (code, out) == (2, "")
    assert f"'walls' must be a list, got {walls!r}" in err


def test_validate_model_refuses_pieces_that_are_not_a_list(capsys, tmp_path):
    # a dict of pieces was iterated by its keys
    doc = json.loads(open(THEOREM1).read())
    doc["pieces"] = {"first": doc["pieces"][0]}
    code, out, err = run(capsys, "validate-model", write_json(tmp_path, "m.json", doc))
    assert (code, out) == (2, "")
    assert "'pieces' must be a list, got {'first':" in err


def test_validate_model_refuses_a_negative_fixed_point_count(capsys, tmp_path):
    # refused as Wall refuses a negative count, not reported as a failed total
    doc = json.loads(open(THEOREM1).read())
    doc["fixed_points"] = -1
    code, out, err = run(capsys, "validate-model", write_json(tmp_path, "m.json", doc))
    assert (code, out) == (2, "")
    assert "negative fixed point count" in err


def test_unknown_subcommand_exits_2():
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2


# -- robustness: generated documents never crash the CLI ----------------------

SMALL = st.integers(-3, 3)
JUNK = st.sampled_from((True, False, 1.0, 2.5, "1", "1/2", None, [], {}))
RATIONAL = st.one_of(SMALL, st.sampled_from(("1/2", "-3/2", "2/3")))


def spoiled(draw, rows):
    """rows, or a copy with one entry (or one whole row) replaced by junk."""
    if not rows or draw(st.integers(0, 3)):
        return rows
    rows = [list(r) if isinstance(r, list) else r for r in rows]
    i = draw(st.integers(0, len(rows) - 1))
    if isinstance(rows[i], list) and rows[i] and draw(st.booleans()):
        rows[i][draw(st.integers(0, len(rows[i]) - 1))] = draw(JUNK)
    else:
        rows[i] = draw(JUNK)
    return rows


@st.composite
def lattice_docs(draw):
    n = draw(st.integers(1, 4))
    gram = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            gram[i][j] = gram[j][i] = draw(st.one_of(st.just(0), SMALL))  # degenerate often
    if draw(st.integers(0, 4)) == 0:
        gram[0][-1] += 1  # not symmetric unless n == 1
    doc = {"gram": spoiled(draw, gram)}
    if draw(st.booleans()):
        doc["rank"] = draw(st.one_of(st.just(n), SMALL, JUNK))
    return doc


@st.composite
def period_docs(draw):
    if draw(st.booleans()):
        lattice = draw(lattice_docs())
        n = len(lattice["gram"])
        doc = {"lattice": lattice}
        entries = RATIONAL
    else:  # the K3 default, with sparse vectors
        n, doc = 22, {}
        entries = st.one_of(st.just(0), st.just(0), RATIONAL)
    for key in ("kappa", "re", "im"):
        if draw(st.integers(0, 9)):
            size = n + draw(st.sampled_from((0, 0, 0, 0, 1, -1)))
            doc[key] = spoiled(draw, draw(st.lists(entries, min_size=size, max_size=size)))
    return doc


@st.composite
def pairs_docs(draw):
    vector = st.lists(st.one_of(st.just(0), st.just(0), SMALL), min_size=22, max_size=22)
    kappa, eta = draw(vector), draw(vector)
    same = draw(st.booleans())  # equal Gram data, so lemma_iso runs
    doc = {
        "kappa": kappa, "eta": eta,
        "kappa_p": kappa if same else draw(vector), "eta_p": eta if same else draw(vector),
    }
    key = draw(st.sampled_from(sorted(doc)))
    doc[key] = spoiled(draw, doc[key])
    return doc


MODEL_EDITS = (
    ("fixed_points",), ("period",), ("name",), ("walls", 0, "count"),
    ("walls", 1, "weights"), ("walls", 0, "level"), ("pieces", 0, "interval"),
    ("pieces", 1, "dh"), ("pieces", 0, "reduced_space"), ("pieces", 1, "class_pair", "eta"),
    ("pieces",), ("walls",),
)


@st.composite
def model_docs(draw):
    doc = json.loads(Path(THEOREM1).read_text())
    *path, last = draw(st.sampled_from(MODEL_EDITS))
    parent = doc
    for k in path:
        parent = parent[k]
    if draw(st.integers(0, 4)) == 0:
        del parent[last]
    elif isinstance(parent[last], list):
        parent[last] = spoiled(draw, parent[last])
    else:
        parent[last] = draw(st.one_of(SMALL, RATIONAL, JUNK))
    return doc


GENERATED = {
    "lattice-info": (["lattice-info", "--file"], lattice_docs(), st.just([])),
    "shortvec": (
        ["shortvec", "--gram"], lattice_docs(), st.integers(-4, 6).map(lambda k: ["--norm", str(k)])
    ),
    "period-check": (["period-check"], period_docs(), st.just([])),
    "isometry": (["isometry", "--pairs"], pairs_docs(), st.just([])),
    "validate-model": (["validate-model"], model_docs(), st.just([])),
}


@pytest.mark.parametrize("command", sorted(GENERATED))
@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_generated_documents_exit_cleanly(command, data):
    # every document either runs (exit 0 or 1) or is refused with exit 2
    # and an error line; no exception escapes main
    head, docs, tail = GENERATED[command]
    doc, extra = data.draw(docs), data.draw(tail)
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "doc.json")
        with open(path, "w") as fh:
            json.dump(doc, fh)
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(head + [path] + extra)
    assert code in (0, 1, 2)
    assert (code == 2) == err.getvalue().startswith("error:")


# documents that json.load or Fraction refuse with something other than a
# JSONDecodeError: an integer past the int-string digit limit, and arrays
# nested deeper than the recursion limit
HUGE = "1" * 5000
MALFORMED = {"digits": HUGE, "nesting": "[" * 100_000 + "]" * 100_000}


@pytest.mark.parametrize("command", sorted(GENERATED))
def test_malformed_json_exits_2(capsys, tmp_path, command):
    head, _, _ = GENERATED[command]
    tail = ["--norm", "2"] if command == "shortvec" else []
    docs = dict(MALFORMED)
    if command == "period-check":
        # valid JSON, with a p/q string whose numerator int() refuses
        zeros = [0] * 22
        docs["rational"] = json.dumps({"kappa": [f"{HUGE}/3", *zeros[1:]], "re": zeros, "im": zeros})
    for name, text in docs.items():
        path = tmp_path / f"{name}.json"
        path.write_text(text)
        code, out, err = run(capsys, *head, str(path), *tail)
        assert (code, out) == (2, ""), name
        assert err.startswith("error:") and "Traceback" not in err, name


def model_with(edit):
    doc = json.loads(Path(THEOREM1).read_text())
    edit(doc)
    return doc


ZEROS = [0] * 22
# each refused value echoes in the error line: a p/q string past the digit
# limit, strings, a list, at each library site that prints the value
LONG_VALUES = {
    "rational": (["period-check"], {"kappa": [f"{HUGE}/3", *ZEROS[1:]], "re": ZEROS, "im": ZEROS}),
    "rank": (["lattice-info", "--file"], {"gram": [[2]], "rank": "9" * 5000}),
    "entry": (["lattice-info", "--file"], {"gram": [["9" * 5000]]}),
    "name": (["validate-model"], model_with(lambda d: d.update(name=["n"] * 3000))),
    "dh": (["validate-model"], model_with(lambda d: d["pieces"][0].update(dh="4" * 5000))),
    "interval": (["validate-model"], model_with(lambda d: d["pieces"][0].update(interval=[f"{HUGE}/3", "1"]))),
    "weights": (["validate-model"], model_with(lambda d: d["walls"][0].update(weights=["5" * 5000, 1, 1]))),
}


@pytest.mark.parametrize("case", sorted(LONG_VALUES))
def test_refusals_clip_long_values(capsys, tmp_path, case):
    head, doc = LONG_VALUES[case]
    code, out, err = run(capsys, *head, write_json(tmp_path, "doc.json", doc))
    assert (code, out) == (2, "")
    assert err.startswith("error:") and err.count("\n") == 1 and len(err) <= 200, err
    assert "chars)" in err


def test_refusals_print_short_values_in_full(capsys, tmp_path):
    cases = [
        (["period-check"], {"kappa": ["4.0", *ZEROS[1:]], "re": ZEROS, "im": ZEROS},
         "error: bad 'kappa': not an exact rational: '4.0'\n"),
        (["lattice-info", "--file"], {"gram": [[2]], "rank": "two"},
         "error: bad lattice data: 'rank' must be an integer, got 'two'\n"),
        (["validate-model"], model_with(lambda d: d.update(name=7)),
         "error: 'name' must be a string, got 7\n"),
    ]
    for head, doc, expected in cases:
        code, out, err = run(capsys, *head, write_json(tmp_path, "doc.json", doc))
        assert (code, out, err) == (2, "", expected)
