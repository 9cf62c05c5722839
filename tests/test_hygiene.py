"""Source-level rules: no library assert, no runtime dependency, package
data and console script declared for the installed package, unchecked
constructors only in the core modules, unchecked isometries only in the
isometry module, one evaluation per verified claim, one pairing kernel on
integers and one place that compiles code, no locking cached_property, no
dataclasses in the source or at import, each module loading only the
modules its functions call, no importlib.resources at CLI import, no blowup
module in the glued-model layer, one symmetric elimination, every library
name called outside the unit tests, every benchmark tracer entry bound in
the library, and the per-op counts of the traced benchmark ops."""
import ast
import importlib
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from k3dh import isometry, lattice, shortvec
from k3dh.cli import main, run_verify_paper
from k3dh.exact_linalg import IntMatrix
from k3dh.lattice import Lattice, make_K3

ROOT = Path(__file__).resolve().parents[1]


def test_library_has_no_assert_statements():
    # python -O strips assert statements, so a library invariant written as
    # one silently stops being checked
    found = [
        f"{path.relative_to(ROOT)}:{node.lineno}"
        for path in sorted((ROOT / "src" / "k3dh").rglob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert found == []


def test_no_runtime_dependencies():
    tomllib = pytest.importorskip("tomllib")
    project = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]
    assert project.get("dependencies", []) == []


def test_packaging_ships_the_data_and_the_script():
    # the suite imports k3dh from src, so an installed package missing its
    # JSON fixtures or console script would pass every other test
    tomllib = pytest.importorskip("tomllib")
    config = tomllib.loads((ROOT / "pyproject.toml").read_text())
    assert config["tool"]["setuptools"]["packages"]["find"]["where"] == ["src"]
    package = ROOT / "src" / "k3dh"
    patterns = config["tool"]["setuptools"]["package-data"]["k3dh"]
    shipped = {path for pattern in patterns for path in package.glob(pattern)}
    data = {path for path in (package / "data").rglob("*") if path.is_file()}
    assert data and data <= shipped
    module, _, attr = config["project"]["scripts"]["k3dh"].partition(":")
    assert getattr(importlib.import_module(module), attr) is main


# the unchecked constructors skip input validation, so they are called only
# in the core modules on ints those modules computed themselves; cli and
# moment, where user JSON enters, go through the validating constructors
TRUSTED_CALLERS = {"exact_linalg", "lattice", "sublattice", "isometry", "shortvec"}


def attribute_uses(module: str, source: str, attr: str) -> list[str]:
    return [
        f"{module}:{node.lineno}"
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Attribute) and node.attr == attr
    ]


def library_sources():
    for path in sorted((ROOT / "src" / "k3dh").rglob("*.py")):
        yield path.stem, path.read_text()


def test_unchecked_constructors_stay_in_the_core():
    found = [
        site
        for module, source in library_sources()
        if module not in TRUSTED_CALLERS
        for site in attribute_uses(module, source, "_trusted")
    ]
    assert found == []
    assert any(attribute_uses(m, s, "_trusted") for m, s in library_sources())
    # the scan does see a call site where user JSON enters, and one in period
    for module in ("cli", "moment", "period"):
        for cls in ("LatticeVector", "RationalVector"):
            assert attribute_uses(module, f"v = {cls}._trusted(l, c, d)", "_trusted") == [
                f"{module}:1"
            ]


def test_unchecked_isometries_stay_in_isometry():
    # Isometry._unchecked skips the M^T G M = G check; only the isometry
    # module knows which of its products are isometries by algebra
    found = [
        site
        for module, source in library_sources()
        if module != "isometry"
        for site in attribute_uses(module, source, "_unchecked")
    ]
    assert found == []
    assert any(attribute_uses(m, s, "_unchecked") for m, s in library_sources())
    # the scan does see a call site written into cli
    assert attribute_uses("cli", "phi = Isometry._unchecked(l, m)", "_unchecked") == ["cli:1"]


def call_sites(source: str, name: str) -> list[str]:
    """The enclosing function of each call of `name`, as a bare name or an
    attribute, sorted; a call outside any function is listed as <module>."""
    sites = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, child.name)
                continue
            if isinstance(child, ast.Call):
                func = child.func
                if getattr(func, "id", None) == name or getattr(func, "attr", None) == name:
                    sites.append(scope)
            visit(child, scope)

    visit(ast.parse(source), "<module>")
    return sorted(sites)


# each claim has one evaluation.  In cli, the check builders of the
# period-check and isometry subcommands, which the battery reuses, call the
# library functions behind those claims and record their exit checks instead
# of evaluating them again: lemma_iso returns only a matrix whose images,
# M^T G M = G and orientation it checked, and is_in_ktilde_omega only a
# membership its projected form agreed with.  So cli tests orientation only
# in the calibration of the reference isometries, a claim of its own, tests
# cone membership nowhere, and applies an isometry only to build the moved
# pair.  In isometry, the checking constructor runs the full M^T G M = G
# check, so it is called on the one matrix given as data; a matrix that
# leaves the module meets that check in place, by __post_init__ on the
# isometry already built, in _exit_check
CALL_SITES = {
    "cli": {
        "lemma_iso": ["_isometry_checks"],
        "preserves_components": ["run_verify_paper"],
        "apply": ["run_verify_paper", "run_verify_paper"],
        "project_to_alpha_perp": ["_period_checks"],
        "is_in_ktilde_omega": ["_period_checks"],
        "is_in_k_omega": [],
    },
    "isometry": {"Isometry": ["flip_third_H"], "__post_init__": ["__init__", "_exit_check"]},
}


def test_each_claim_has_one_call_site():
    sources = dict(library_sources())
    found = {module: {name: call_sites(sources[module], name) for name in names}
             for module, names in CALL_SITES.items()}
    assert found == CALL_SITES
    # the scan sees bare and attribute calls in each scope, and no reference
    # that is not a call
    snippet = "def f(x):\n    return g(x) + m.g(h(g))\ng(1)\nclass A:\n    def k(self): return g\n"
    assert call_sites(snippet, "g") == ["<module>", "f", "f"]


def test_one_pairing_kernel():
    # only lattice.py reads the sparse Gram entries; everything else pairs
    # through Lattice.gram_times and the cached images it produces
    found = [
        site
        for module, source in library_sources()
        if module != "lattice"
        for site in attribute_uses(module, source, "_gram_entries")
    ]
    assert found == []


def dynamic_code_sites(sources: dict[str, str]) -> list[str]:
    """module.function:builtin for each call of eval, exec or compile."""
    return sorted(
        f"{module}.{scope}:{name}"
        for module, source in sources.items()
        for name in ("eval", "exec", "compile")
        for scope in call_sites(source, name)
    )


def test_only_the_gram_kernel_compiles_code():
    # the compiled pairing kernel is source text built from Gram indices,
    # with every coefficient bound as a closure variable; no other library
    # code builds and runs source
    sources = dict(library_sources())
    assert dynamic_code_sites(sources) == ["lattice._gram_kernel:eval"]
    # the scan does flag a call planted in another module
    planted = dict(sources, period=sources["period"] + "\ndef f(s):\n    return exec(s)\n")
    assert dynamic_code_sites(planted) == ["lattice._gram_kernel:eval", "period.f:exec"]


def test_no_functools_cached_property():
    # on Python < 3.12 every first access of a cached_property takes a lock;
    # the library memoizes with lattice.memoized instead
    def uses(source):
        return [
            node.lineno
            for node in ast.walk(ast.parse(source))
            if (isinstance(node, ast.alias) and node.name == "cached_property")
            or (isinstance(node, ast.Attribute) and node.attr == "cached_property")
        ]

    found = [f"{module}:{line}" for module, source in library_sources() for line in uses(source)]
    assert found == []
    assert uses("from functools import cached_property") == [1]
    assert uses("import functools\nx = functools.cached_property") == [2]


def dataclasses_imports(source: str) -> list[int]:
    """Lines that import dataclasses or a name from it."""
    return [
        node.lineno
        for node in ast.walk(ast.parse(source))
        if (isinstance(node, ast.Import) and any(a.name.split(".")[0] == "dataclasses" for a in node.names))
        or (isinstance(node, ast.ImportFrom) and node.module == "dataclasses")
    ]


def test_library_does_not_import_dataclasses():
    # dataclasses loads inspect and execs six methods per class at import;
    # the value classes are built on exact_linalg.Frozen instead
    found = [f"{module}:{line}" for module, source in library_sources()
             for line in dataclasses_imports(source)]
    assert found == []
    assert dataclasses_imports("from dataclasses import dataclass, field") == [1]
    assert dataclasses_imports("import os\nimport dataclasses as dc") == [2]


def k3dh_imports(source: str) -> set[str]:
    """The k3dh modules that a source imports, by relative or absolute name."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom):
            name = node.module or ""
            if node.level:  # relative to the k3dh package
                name = f"k3dh.{name}".rstrip(".")
            if name == "k3dh":
                found |= {a.name for a in node.names}
            elif name.startswith("k3dh."):
                found.add(name.split(".")[1])
        elif isinstance(node, ast.Import):
            found |= {a.name.split(".")[1] for a in node.names if a.name.startswith("k3dh.")}
    return found


def test_moment_does_not_import_kummer():
    # a piece's class pair is two integral vectors of one lattice, so the
    # glued-model layer needs nothing of the blowup module; dh_from_pair
    # pairs blowup classes through lattice.pairing alone
    imported = k3dh_imports(dict(library_sources())["moment"])
    assert "kummer" not in imported and "lattice" in imported
    # the scan sees each form of the import
    for line in ("from .kummer import KUMMER_LATTICE", "from . import kummer",
                 "from k3dh.kummer import pairing", "from k3dh import kummer",
                 "import k3dh.kummer as km"):
        assert k3dh_imports(line) == {"kummer"}


def run_fresh(code: str) -> list[str]:
    """The words that `code` prints in a fresh interpreter without site, so
    that no .pth file preloads a module, and without writing bytecode next
    to the sources."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    out = subprocess.run([sys.executable, "-S", "-B", "-c", code], env=env, capture_output=True,
                         text=True, timeout=60, check=True)
    return out.stdout.split()


@pytest.mark.parametrize("module", ["k3dh.cli", "k3dh.period", "k3dh.isometry"])
def test_import_loads_neither_dataclasses_nor_inspect(module):
    # importlib.resources, which k3dh.moment reads its data with, imports
    # inspect itself from Python 3.12 on, so it is imported first and what
    # it loads not counted
    code = (
        "import sys, importlib.resources\n"
        "before = set(sys.modules)\n"
        f"import {module}\n"
        "new = set(sys.modules) - before\n"
        "print(' '.join(m for m in ('dataclasses', 'inspect') if m in new))"
    )
    assert run_fresh(code) == []


def k3dh_modules_loaded_by(module: str) -> set[str]:
    return set(run_fresh(
        f"import sys\nimport {module}\n"
        "print(*(m for m in sys.modules if m.split('.')[0] == 'k3dh'))"
    ))


def test_each_module_loads_only_what_its_functions_call():
    # a fresh interpreter compiles every k3dh module that it loads, so a
    # period-sampling set-up (import k3dh.period) must not load the root
    # search, and an isometry-pairs set-up (import k3dh.isometry) neither it
    # nor the period domain
    core = {"k3dh", "k3dh.exact_linalg", "k3dh.lattice"}
    assert k3dh_modules_loaded_by("k3dh.period") == core | {"k3dh.period"}
    assert k3dh_modules_loaded_by("k3dh.isometry") == core | {"k3dh.sublattice", "k3dh.isometry"}
    shortvec = k3dh_modules_loaded_by("k3dh.shortvec")
    assert {"k3dh.shortvec", "k3dh.period"} <= shortvec
    assert not shortvec & {"k3dh.isometry", "k3dh.kummer", "k3dh.moment"}


def test_cli_import_leaves_importlib_resources_to_the_packaged_model():
    # only packaged_model reads package data, so importing the CLI does not
    # pay for importlib.resources where site has not loaded it; the first
    # packaged_model call imports it
    code = (
        "import sys\nimport k3dh.cli\nprint('importlib.resources' in sys.modules)\n"
        "from k3dh.moment import packaged_model\npackaged_model()\n"
        "print('importlib.resources' in sys.modules)"
    )
    assert run_fresh(code) == ["False", "True"]


def test_pairing_kernel_sees_only_integers(monkeypatch, capsys, tmp_path):
    # rational classes pair through their integer numerators, so the kernel
    # never receives a Fraction: not from the K3 lattice, not from the real
    # and imaginary parts of invariant forms, not from blowup classes, not
    # from a period record
    kernel = Lattice.gram_times
    seen = []

    def integer_kernel(self, v):
        v = tuple(v)
        assert all(type(c) is int for c in v), (self.name, v)
        seen.append(self.name)
        return kernel(self, v)

    monkeypatch.setattr(Lattice, "gram_times", integer_kernel)
    assert run_verify_paper().all_passed()
    assert main(["kummer-report"]) == 0
    k, re, im = [0] * 22, [0] * 22, [0] * 22
    k[0], k[1], k[4], k[5] = 2, 3, 1, 1
    re[0], re[1], im[2], im[3] = 1, "1/2", 1, "1/2"
    path = tmp_path / "p.json"
    path.write_text(json.dumps({"kappa": k, "re": re, "im": im}))
    assert main(["period-check", str(path)]) == 0
    capsys.readouterr()
    assert {"torus", "kummer", "K3"} <= set(seen)


def test_one_symmetric_elimination(monkeypatch):
    # the inertia of a lattice and the LDL^T data of a definite Gram come
    # from the one kernel exact_linalg.symmetric_bareiss
    calls = []
    for module in (lattice, shortvec):
        kernel = module.symmetric_bareiss

        def counted(m, module=module, kernel=kernel):
            calls.append(module.__name__)
            return kernel(m)

        monkeypatch.setattr(module, "symmetric_bareiss", counted)
    assert make_K3().signature() == (3, 19)
    assert calls == ["k3dh.lattice"]
    assert shortvec.DefiniteGram(IntMatrix([[2, -1], [-1, 2]])).rank == 2
    assert calls == ["k3dh.lattice", "k3dh.shortvec"]


def uncalled_names(library: dict[str, str], callers: dict[str, str]) -> list[str]:
    """Functions and classes defined in `library` (module -> source) whose
    name no Name or Attribute node in `callers` reads.  Dunder methods are
    called by the language, so they are not listed."""
    defined = {}
    for module, source in library.items():
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                if not (node.name.startswith("__") and node.name.endswith("__")):
                    defined.setdefault(node.name, f"{module}:{node.lineno}")
    read = {
        node.id if isinstance(node, ast.Name) else node.attr
        for source in callers.values()
        for node in ast.walk(ast.parse(source))
        if isinstance(node, (ast.Name, ast.Attribute))
    }
    return sorted(f"{site} {name}" for name, site in defined.items() if name not in read)


def test_every_library_name_has_a_caller():
    # a function that only its own unit tests call is surface without a
    # user; the callers are the library itself, the benchmark runner and
    # the acceptance gate
    library = dict(library_sources())
    callers = dict(library)
    for path in [*sorted((ROOT / "bench").glob("*.py")), ROOT / "tests" / "test_acceptance.py"]:
        callers[str(path.relative_to(ROOT))] = path.read_text()
    assert uncalled_names(library, callers) == []
    # the scan does see a name nobody reads, and a method read as an attribute
    snippet = {"m": "class A:\n    def f(self): pass\n    def g(self): pass\ndef h(a): a.f()\nh(A())\n"}
    assert uncalled_names(snippet, snippet) == ["m:3 g"]


def load_bench(monkeypatch, stem: str, name: str | None = None):
    """bench/<stem>.py, loaded read-only: no bytecode is written.  It is
    registered in sys.modules as `name`, or as _bench_<stem>."""
    path = ROOT / "bench" / f"{stem}.py"
    spec = importlib.util.spec_from_file_location(name or f"_bench_{stem}", path)
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


def test_every_tracer_entry_resolves(monkeypatch):
    # bench/tracer.py wraps library functions by module and attribute name,
    # and fails a traced run when one is gone or never called; loading it
    # here makes a renamed binding fail the test suite rather than only a
    # traced benchmark run
    tracer = load_bench(monkeypatch, "tracer")
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = {w["name"] for w in benchmark["workloads"]}
    src = ROOT / "src" / "k3dh"
    missing = []
    for e in tracer.ENTRIES:
        module = importlib.import_module(e.module)
        assert Path(module.__file__).resolve().parent == src, e.module
        # the lookup of Tracer.install: the class in the module's namespace,
        # then the attribute on the class or module itself, not inherited
        cls_name, _, attr = e.attr.rpartition(".")
        owner = vars(module).get(cls_name) if cls_name else module
        if owner is None or not callable(vars(owner).get(attr)):
            missing.append(f"{e.module}.{e.attr}")
        assert e.hot in workloads | {""}, e.name
    assert missing == []
    assert len(tracer.ENTRIES) > 20


def test_one_lemma_iso_reaches_every_isometry_pairs_entry(monkeypatch):
    # a traced isometry-pairs run fails when one of its hot entries records
    # no call, so a refactor that takes one off the lemma_iso path (say,
    # int_inverse or smith_normal_form) must fail here first.  Each entry is
    # wrapped as Tracer.install wraps it: a method on its class, a function
    # in every k3dh module that bound it
    tracer = load_bench(monkeypatch, "tracer")
    called = set()
    hot = [e for e in tracer.ENTRIES if e.hot == "isometry-pairs"]
    for e in hot:
        cls_name, _, attr = e.attr.rpartition(".")
        owner = importlib.import_module(e.module)
        if cls_name:
            owner = vars(owner)[cls_name]
        orig = vars(owner)[attr]

        def spy(*args, _name=e.name, _orig=orig, **kwargs):
            called.add(_name)
            return _orig(*args, **kwargs)

        if cls_name:
            monkeypatch.setattr(owner, attr, spy)
            continue
        for name, module in list(sys.modules.items()):
            if name.startswith("k3dh."):
                for binding, value in list(vars(module).items()):
                    if value is orig:
                        monkeypatch.setattr(module, binding, spy)
    # the benchmark's op: a model pair and a copy moved by transvections
    k3 = make_K3()
    e1, f1, e2, f2, e3, f3 = (k3.basis_vector(i) for i in range(6))
    kap, eta = e1 + 2 * f1, -3 * f1 + e2 - f2
    kp, ep = kap, eta
    for t in (isometry.eichler_transvection(e2, 2 * e3 - f1),
              isometry.eichler_transvection(f3, e1 + 3 * f2)):
        kp, ep = t.apply(kp), t.apply(ep)
    assert isometry.map_pair_to_standard(kap, eta).matrix == IntMatrix.identity(k3.rank)
    called.clear()
    isometry.lemma_iso(kap, eta, kp, ep)
    assert sorted(e.name for e in hot if e.name not in called) == []
    assert len(hot) > 10


def traced_per_op(monkeypatch, workload: str, ops: range) -> dict[str, float]:
    """Per-op layer metrics of a fixed list of seed-1 ops of a benchmark
    workload, as a traced run takes them: bench/run.py's Workload builds each
    op, and each op runs once untraced and then under bench/tracer.py's
    Tracer, after op 0 warmed up untraced."""
    tracer_mod = load_bench(monkeypatch, "tracer")
    load_bench(monkeypatch, "workloads", "workloads")  # Workload imports it by name
    run = load_bench(monkeypatch, "run")
    reference = json.loads((ROOT / "bench" / "reference.json").read_text())
    wl = run.Workload(workload, 1, reference, False)
    op = wl.main_op if workload == "verify-battery" else wl.op
    ledger, tracer = run.Ledger(), tracer_mod.Tracer()
    ledger.run(*op(0))
    for i in ops:
        ledger.run(*op(i))
        tracer.install()
        tracer.op = i
        try:
            ledger.run(*op(i))
        finally:
            tracer.op = -1
            tracer.uninstall()
    assert (ledger.failed, ledger.errors) == (0, [])
    assert tracer.cold_entries(workload) == []
    return tracer.layer_metrics(len(ops))


def test_benchmark_ops_keep_their_per_op_counts(monkeypatch):
    # The battery's root counts walk 1660 enumeration nodes and find 1206
    # vectors per op, so a change to the tree it walks fails here; it
    # computes one orthogonal complement and builds 4 definite Grams per op,
    # so a complement or Gram computed twice fails here.  Its Kummer rows
    # take 9 wedge integrals and 39 blowup pairings, and the battery makes
    # 128 Fraction operations per op, so an extra integral or extra Fraction
    # arithmetic on those rows fails here.
    battery = traced_per_op(monkeypatch, "verify-battery", range(1, 3))
    assert {name: battery[name] for name in (
        "shortvec.enumerate_level.calls", "shortvec.vectors_found",
        "sublattice.orthogonal_complement.calls", "shortvec.DefiniteGram.calls",
        "kummer.wedge_integrate.calls", "kummer.pairing.calls", "fraction_ops",
    )} == {
        "shortvec.enumerate_level.calls": 1660, "shortvec.vectors_found": 1206,
        "sublattice.orthogonal_complement.calls": 1, "shortvec.DefiniteGram.calls": 4,
        "kummer.wedge_integrate.calls": 9, "kummer.pairing.calls": 39, "fraction_ops": 128,
    }
    # A period-sampling op builds one point, projects once directly and once
    # inside is_in_ktilde_omega (which reads the point's stored vector), and
    # pairs in Fractions only in the two lattice.norm calls of its identity
    # check, so a second projection or a pairing that goes through the
    # Fraction path fails here.
    period = traced_per_op(monkeypatch, "period-sampling", range(1, 7))
    assert {name: period[name] for name in (
        "period.PeriodPoint.calls", "period.project_to_alpha_perp.calls",
        "period.is_in_ktilde_omega.calls", "lattice.pairing.rational.calls", "fraction_ops",
    )} == {
        "period.PeriodPoint.calls": 1, "period.project_to_alpha_perp.calls": 2,
        "period.is_in_ktilde_omega.calls": 1, "lattice.pairing.rational.calls": 2,
        "fraction_ops": 3,
    }
    # An isometry-pairs target pair is in reference position and is not
    # standardized, so an op standardizes at most its source pair: one
    # primitivity test (one SNF) and two _unitize stages, fewer on the
    # records whose transvections leave the source pair in place.  The full
    # M^T G M = G check takes G M from the Gram kernel and makes one
    # IntMatrix.mul, and the identity g^-1 of a reference target is not
    # multiplied, so an op makes fewer than 2 products (3.42 when the check
    # multiplied by G as well); a return to that fails here.  The 8 ops
    # cover each (depth, mode) of the record law once.
    pairs = traced_per_op(monkeypatch, "isometry-pairs", range(1, 9))
    snf = pairs["exact_linalg.smith_normal_form.calls"]
    assert 0 < snf <= 1
    assert pairs["sublattice.is_primitive_embedding.calls"] == snf
    assert pairs["isometry.standardize.calls"] == 2 * snf
    assert pairs["exact_linalg.IntMatrix.mul.calls"] < 2
