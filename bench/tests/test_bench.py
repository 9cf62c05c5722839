"""Tests for the benchmark's own code.

    python3 -m pytest bench/tests

Tiny runs of every workload (about a minute in all), fault injection, the
refusal to run without sources, and the oracles against the library.
"""
import json
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import tracer  # noqa: E402
import workloads as w  # noqa: E402
from k3dh import isometry, lattice, moment  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
REF = json.loads((BENCH / "reference.json").read_text())
WORKLOADS = [x["name"] for x in SPEC["workloads"]]
# workload-specific report names printed beside the gated metrics
REPORT_NAMES = {
    "verify-battery": ["verify_s", "cli_verify_s"],
    "period-sampling": ["period_samples_per_s", "period_sample_ms.p50", "period_sample_ms.p99"],
    "isometry-pairs": ["isometries_per_s", "isometry_ms.p50", "isometry_ms.p90"],
}


def bench(*args, cwd=ROOT):
    proc = subprocess.run(
        [sys.executable, str(Path(cwd) / "bench" / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )
    return proc, proc.stdout.splitlines()


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_tiny_run_prints_every_metric_with_its_unit(workload, trace):
    proc, lines = bench("--workload", workload, "--seed", "1", "--seconds", "1", "--trace", str(trace))
    assert proc.returncode == 0, proc.stderr
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    spec = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {m["name"]: m["unit"] for m in spec} == {
        k: v["unit"] for k, v in result["metrics"].items()
    }
    report = "\n".join(lines[:-1])
    for m in spec:
        assert f"{m['name']} = " in report and m["unit"] in report
    if not trace:
        assert "failed_ops_ratio = 0 " in report
        for name in REPORT_NAMES[workload]:
            assert name in report  # a tail percentile may print as dropped


@pytest.mark.parametrize("workload", WORKLOADS)
def test_injected_fault_fails_the_op_and_the_run(workload):
    proc, lines = bench(
        "--workload", workload, "--seed", "1", "--seconds", "1", "--trace", "0", "--inject-fault"
    )
    assert proc.returncode == 1
    result = json.loads(lines[-1])
    assert result["correct"] is False and result["failed"] >= 1


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc, lines = bench(
        "--workload", WORKLOADS[0], "--seed", "1", "--seconds", "1", "--trace", "0", cwd=tmp_path
    )
    assert proc.returncode not in (0, 1)
    assert not any(line.startswith("{") for line in lines)


def test_per_layer_spec_matches_the_tracer():
    names = list(tracer.Tracer().layer_metrics(1)) + ["trace_overhead_ratio"]
    assert [m["name"] for m in SPEC["per_layer"]] == names


def test_every_traced_entry_is_hot_on_some_workload():
    assert set(tracer.HOT.values()) <= set(WORKLOADS)
    assert all(tracer.HOT.get(e.name) or e.name == "lattice.pairing" for e in tracer.ENTRIES)


def test_a_fresh_tracer_reports_every_hot_entry_cold():
    t = tracer.Tracer()
    assert set(t.cold_entries("period-sampling")) == {
        n for n, wl in tracer.HOT.items() if wl == "period-sampling"
    }


def test_a_missing_entry_point_fails_loudly(monkeypatch):
    import k3dh.cli  # noqa: F401  (load every module the tracer wraps)

    gone = tracer.Entry("isometry.renamed", "k3dh.isometry", "no_such_function", "isometry-pairs")
    monkeypatch.setattr(tracer, "ENTRIES", tracer.ENTRIES + (gone,))
    original = lattice.pairing
    t = tracer.Tracer()
    with pytest.raises(LookupError):
        t.install()
    assert lattice.pairing is not original
    t.uninstall()
    assert lattice.pairing is original


def test_oracle_gram_and_pairing_match_the_library():
    k3 = lattice.make_K3()
    assert k3.gram.rows == w.GRAM
    rng = random.Random(0)
    for _ in range(20):
        u = tuple(rng.randint(-5, 5) for _ in range(w.RANK))
        v = tuple(rng.randint(-5, 5) for _ in range(w.RANK))
        assert w.pair(u, v) == lattice.pairing(k3.vector(u), k3.vector(v))


def test_isometry_generator_matches_the_library():
    k3 = lattice.make_K3()
    stream = w.Stream(3, w.isometry_maker())
    for i in range(8):
        rec = stream[i]
        l0, l1, l2 = rec.kappa[1], -rec.eta[1], rec.eta[3]
        kappa, eta = moment.pair_from_polynomial(moment.DHPolynomial(2 * l0, 2 * l1, 2 * l2))
        assert (kappa.coords, eta.coords) == (rec.kappa, rec.eta)
    rng = random.Random(5)
    for _ in range(5):
        e, a = w.random_transvection(rng)
        phi = isometry.eichler_transvection(k3.vector(e), k3.vector(a))
        x = tuple(rng.randint(-3, 3) for _ in range(w.RANK))
        assert phi.apply(k3.vector(x)).coords == w.transvect(e, a, x)


def test_recorded_hit_counts_match_the_generator():
    table = REF["period_hits"]
    for seed, count in table["counts"].items():
        stream = w.Stream(int(seed), w.period_record)
        assert sum(stream[i].member for i in range(table["records"])) == count
    assert set(table["counts"]) == {str(REF["seeds"]["default"]), str(REF["seeds"]["held_out"])}
