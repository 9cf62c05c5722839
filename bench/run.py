"""k3dh benchmark: three closed-loop workloads with exact-output checks.

    python3 bench/run.py --workload {verify-battery,period-sampling,isometry-pairs}
                         --seed N --seconds S --trace {0,1}

Run from anywhere; the package is imported from src/ next to this
directory.  One client, one process, no thread pools: each op starts when
the previous one returned.  Every op's output is checked exactly against an
oracle in workloads.py; a wrong output or an exception counts the op as
failed and makes the run exit 1.

--trace 0 measures the end-to-end metrics untraced: setup_s, and op_cost.p50
and op_cost.mean, the median and mean op time in units of a fixed
calibration loop sampled during and around each op (see SpeedSampler).
--trace 1 runs each op untraced and then traced, and reports per-op calls
and self time of each library layer, plus the tracing overhead.

Human-readable lines, including the workload-specific names listed in
bench/README.md, come first; the last stdout line is one JSON object with
the keys correct, attempted, failed and metrics.  The full record (the
environment, every metric with its sample count, the first errors) is
written to .bench_out/, and the traced run's spans beside it.
"""
from __future__ import annotations

import argparse
import bisect
import contextlib
import dataclasses
import hashlib
import inspect
import io
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import threading
import traceback
from fractions import Fraction
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
WORKLOADS = ("verify-battery", "period-sampling", "isometry-pairs")
SETUP_RUNS = 7
SETUP_LOOPS = 8
NOMINAL_LOOP_S = 0.0004  # calibration_loop's typical time on the 2-core reference box
CLI_SHARE = 0.5  # share of verify-battery's window spent in `k3dh verify` subprocesses
SAMPLE_INTERVAL = 0.02  # seconds between speed samples (each about 0.4 ms)
SAMPLE_MARGIN = 0.05  # speed samples this close to an op also count for it
MAX_ERRORS = 5

# fresh-interpreter set-up per workload: import and build what the first op needs
SETUP_CODE = {
    "verify-battery": (
        "import k3dh.cli\nfrom k3dh.lattice import make_E8, make_K3\n"
        "from k3dh.moment import packaged_model\nmake_K3(); packaged_model(); make_E8().gram"
    ),
    "period-sampling": "import k3dh.period\nfrom k3dh.lattice import make_K3\nmake_K3()",
    "isometry-pairs": "import k3dh.isometry\nfrom k3dh.lattice import make_K3\nmake_K3()",
}


def calibration_loop() -> Fraction:
    """A fixed pure-Python loop of exact arithmetic (ints, tuples, Fractions)."""
    v = tuple(range(1, 23))
    acc = Fraction(0)
    for k in range(1, 41):
        w = tuple((a * k + 7) % 13 for a in v)
        acc += Fraction(sum(a * b for a, b in zip(v, w)), k)
    return acc


class SpeedSampler:
    """Times calibration_loop every SAMPLE_INTERVAL seconds from a SIGALRM
    handler, so the host's speed is sampled during ops as well as between.

    The host's speed drifts by tens of percent, and the drift persists for
    tens of milliseconds to seconds (consecutive 5 ms slices correlate at
    about 0.9).  It slows this loop and the library's interpreter-bound code
    alike, so an op's cost is its time, less the handler time inside it,
    over the mean loop time sampled during and around it.
    """

    def __init__(self):
        self.starts: list[float] = []
        self.loops: list[float] = []

    def _tick(self, signum, frame) -> None:
        start = perf_counter()
        calibration_loop()
        self.starts.append(start)
        self.loops.append(perf_counter() - start)

    def __enter__(self):
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_INTERVAL, SAMPLE_INTERVAL)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def cost(self, start: float, end: float) -> float:
        """Op time in loops for an op that ran from start to end."""
        lo = bisect.bisect_left(self.starts, start)
        hi = bisect.bisect_right(self.starts, end)
        net = end - start - sum(self.loops[lo:hi])
        near = self.loops[
            bisect.bisect_left(self.starts, start - SAMPLE_MARGIN):
            bisect.bisect_right(self.starts, end + SAMPLE_MARGIN)
        ] or self.loops  # no sample near an op only if the timer was starved
        return net * len(near) / sum(near)


class Ledger:
    """Attempted and failed op counts, and the first few failure messages."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def run(self, op, check) -> tuple[float, float] | None:
        """Run op(); its start and end time, or None when it raised or check failed."""
        self.attempted += 1
        start = perf_counter()
        try:
            out = op()
        except Exception:
            self._fail(traceback.format_exc(limit=3))
            return None
        end = perf_counter()
        error = check(out)
        if error is not None:
            self._fail(error)
            return None
        return start, end

    def _fail(self, message: str) -> None:
        self.failed += 1
        if len(self.errors) < MAX_ERRORS:
            self.errors.append(message)
            print(f"op failed: {message}", file=sys.stderr)


def child_env() -> dict[str, str]:
    env = {k: v for k, v in os.environ.items() if k not in ("K3DH_THREADS", "PYTHONOPTIMIZE")}
    env["PYTHONPATH"] = str(SRC)
    return env


def measure_setup(workload: str) -> tuple[list[float], list[float]]:
    """Set-up seconds of SETUP_RUNS fresh interpreters, raw and at nominal speed.

    Each child times its set-up, then SETUP_LOOPS calibration loops right
    after it; the nominal figure scales the set-up by NOMINAL_LOOP_S over
    that mean loop time, which cancels the host's speed drift.
    """
    code = (
        "import time\nt0 = time.perf_counter()\n"
        + SETUP_CODE[workload]
        + "\nt1 = time.perf_counter()\nfrom fractions import Fraction\n"
        + inspect.getsource(calibration_loop)
        + f"for _ in range({SETUP_LOOPS}):\n    calibration_loop()\n"
        + f"print(t1 - t0, (time.perf_counter() - t1) / {SETUP_LOOPS})"
    )
    raw, nominal = [], []
    for _ in range(SETUP_RUNS):
        out = subprocess.run(
            [sys.executable, "-c", code], cwd=ROOT, env=child_env(),
            capture_output=True, text=True, timeout=120, check=True,
        )
        seconds, loop = map(float, out.stdout.split()[-2:])
        raw.append(seconds)
        nominal.append(seconds * NOMINAL_LOOP_S / loop)
    return raw, nominal


def run_cli_verify() -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "-m", "k3dh", "verify", "--json"], cwd=ROOT, env=child_env(),
        capture_output=True, text=True, timeout=170,
    )


def git_commit() -> str | None:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "k3dh").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            h.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def environment(args, threads_env: str | None) -> dict:
    return {
        "python": platform.python_version(),
        "executable_optimize_flag": sys.flags.optimize,
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "commit": git_commit(),
        "source_sha256": source_digest(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "K3DH_THREADS_parent": "unset" if threads_env is None else f"removed (was {threads_env!r})",
        "K3DH_THREADS_child": "unset",
        "threads": threading.active_count(),
    }


def percentile_line(name: str, times_ms: list[float], q: int) -> str:
    """The q-th percentile, or why it is dropped: it needs ten samples beyond it."""
    n = len(times_ms)
    if n >= 2:
        value = statistics.quantiles(times_ms, n=100, method="inclusive")[q - 1]
        beyond = sum(t > value for t in times_ms)
        if beyond >= 10:
            return f"{name} = {value:.6g} ms (n={n}, {beyond} beyond)"
    return f"{name}: dropped, fewer than 10 of n={n} samples beyond it"


# -- workloads ---------------------------------------------------------------


class Workload:
    """One workload bound to the library: op(i) gives (thunk, check) for input i."""

    def __init__(self, name, seed, ref, inject):
        import k3dh.cli
        import k3dh.isometry
        import k3dh.lattice
        import k3dh.period

        import workloads as w

        self.name, self.w, self.ref, self.inject = name, w, ref, inject
        self.cli, self.period, self.lattice, self.isometry = (
            k3dh.cli, k3dh.period, k3dh.lattice, k3dh.isometry
        )
        self.k3 = k3dh.lattice.make_K3()
        if self.k3.gram.rows != w.GRAM:
            raise RuntimeError("library K3 Gram matrix differs from the oracle's")
        if name == "period-sampling":
            self.records = w.Stream(seed, w.period_record)
        elif name == "isometry-pairs":
            self.records = w.Stream(seed, w.isometry_maker())

    def expected(self, i):
        """Expected output for input i; op 0's is corrupted under --inject-fault."""
        if self.name == "verify-battery":
            ref = self.ref["verify"]
            if self.inject and i == 0:
                ref = {**ref, "digest": "0" * 64}
            return ref
        rec = self.records[i]
        if self.inject and i == 0:
            if self.name == "period-sampling":
                rec = dataclasses.replace(rec, proj_norm=rec.proj_norm + 1)
            else:
                rec = dataclasses.replace(rec, kappa=(rec.kappa[0] + 1,) + rec.kappa[1:])
        return rec

    def op(self, i):
        w, exp = self.w, self.expected(i)
        if self.name == "verify-battery":
            return (lambda: w.run_battery(self.cli)), (lambda out: w.check_stdout(out, exp))
        rec = self.records[i]
        if self.name == "period-sampling":
            return (
                (lambda: w.run_period(self.period, self.lattice, self.k3, rec)),
                (lambda out: w.check_period(out, exp)),
            )
        return (lambda: w.run_isometry(self.isometry, self.k3, rec)), (lambda out: w.check_isometry(out, exp))

    def main_op(self, i):
        """The traced verify-battery op: in-process `k3dh verify --json`."""
        w, exp = self.w, self.expected(i)

        def op():
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                code = self.cli.main(["verify", "--json"])
            return code, buf.getvalue()

        def check(out):
            code, text = out
            if code != 0:
                return f"k3dh verify exited {code}"
            return w.check_stdout(text, exp)

        return op, check

    def cli_op(self, i):
        exp = self.expected(i)

        def check(proc):
            if proc.returncode != 0:
                return f"`k3dh verify --json` exited {proc.returncode}: {proc.stderr[-300:]}"
            return self.w.check_stdout(proc.stdout, exp)

        return run_cli_verify, check


def measure(wl: Workload, ledger: Ledger, seconds: float) -> dict:
    """Untraced closed loop: warm up on op 0, then ops 1, 2, ... until the
    window ends, with the host's speed sampled throughout."""
    times, cli_times, spans, cli_spans = [], [], [], []
    verify = wl.name == "verify-battery"
    with SpeedSampler() as sampler:
        ledger.run(*wl.op(0))
        i = 1
        start = perf_counter()

        def more() -> bool:
            # a short window still times each op kind once, unless ops keep failing
            if perf_counter() - start < seconds:
                return True
            return i <= 10 and (not times or (verify and not cli_times))

        while more():
            cli = verify and sum(cli_times) < CLI_SHARE * (sum(times) + sum(cli_times))
            span = ledger.run(*(wl.cli_op(i) if cli else wl.op(i)))
            if span is not None:
                (cli_spans if cli else spans).append(span)
                (cli_times if cli else times).append(span[1] - span[0])
            i += 1
    return {
        "times": times, "cli_times": cli_times,
        "costs": [sampler.cost(*sp) for sp in spans],
        "cli_costs": [sampler.cost(*sp) for sp in cli_spans],
        "loop_times": sampler.loops,
    }


def measure_traced(wl: Workload, ledger: Ledger, seconds: float, tracer_mod) -> dict:
    """Run each op i untraced and then at once traced, until the window ends.

    The wrappers are installed only around the traced run, so the untraced
    run pays nothing for them; the two runs of a pair are adjacent in time,
    so the host's speed drift cancels in their ratio.
    """
    op = wl.main_op if wl.name == "verify-battery" else wl.op
    tracer = tracer_mod.Tracer()
    pairs = []
    ledger.run(*op(0))
    i = 1
    start = perf_counter()
    while perf_counter() - start < seconds or i == 1:
        plain = ledger.run(*op(i))
        tracer.install()
        tracer.op = i
        try:
            traced = ledger.run(*op(i))
        finally:
            tracer.op = -1
            tracer.uninstall()
        if plain is not None and traced is not None:
            pairs.append((plain[1] - plain[0], traced[1] - traced[0]))
        i += 1
    return {"tracer": tracer, "ops": i - 1, "pairs": pairs}


# -- reporting ---------------------------------------------------------------


def end_to_end(wl: Workload, result: dict, setup, ledger: Ledger):
    """Gated metrics (setup_s, op_cost.*) and the report lines in wall-clock units."""
    times = result["times"]
    times_ms = [t * 1000 for t in times]
    n = len(times)
    raw, nominal = setup
    metrics = {"setup_s": {"value": statistics.median(nominal), "unit": "s"}}
    lines = [
        f"setup_s = {statistics.median(nominal):.6g} s at nominal speed "
        f"({statistics.median(raw):.6g} s raw; median of {len(raw)} fresh interpreters)"
    ]
    if n:
        costs = result["costs"]
        metrics["op_cost.p50"] = {"value": statistics.median(costs), "unit": "loops"}
        metrics["op_cost.mean"] = {"value": statistics.fmean(costs), "unit": "loops"}
        lines += [f"{k} = {v['value']:.6g} {v['unit']} (n={n})" for k, v in metrics.items() if k != "setup_s"]
        loop_ms = statistics.median(result["loop_times"]) * 1000
        lines.append(f"calibration_loop_ms = {loop_ms:.6g} ms (median of {len(result['loop_times'])} samples)")
    if wl.name == "verify-battery":
        cli = result["cli_times"]
        if n:
            lines.append(f"verify_s = {statistics.median(times):.6g} s (n={n})")
        if cli:
            lines.append(f"cli_verify_s = {statistics.median(cli):.6g} s (n={len(cli)})")
            lines.append(f"cli_verify_cost = {statistics.median(result['cli_costs']):.6g} loops (n={len(cli)})")
    elif n:
        stem, rate, tail = {
            "period-sampling": ("period_sample_ms", "period_samples_per_s", 99),
            "isometry-pairs": ("isometry_ms", "isometries_per_s", 90),
        }[wl.name]
        lines.append(f"{rate} = {n / sum(times):.6g} 1/s (n={n})")
        lines.append(f"{stem}.p50 = {statistics.median(times_ms):.6g} ms (n={n})")
        lines.append(percentile_line(f"{stem}.p{tail}", times_ms, tail))
    lines.append(f"failed_ops_ratio = {ledger.failed / ledger.attempted:.6g} ({ledger.failed}/{ledger.attempted})")
    return metrics, lines


def per_layer(result: dict):
    tracer = result["tracer"]
    values = tracer.layer_metrics(max(result["ops"], 1))
    plain = sum(p for p, _ in result["pairs"])
    traced = sum(t for _, t in result["pairs"])
    values["trace_overhead_ratio"] = traced / plain if plain else 0.0
    units = {}
    for name in values:
        if name.endswith(".calls"):
            units[name] = "calls/op"
        elif name.endswith(".self_s"):
            units[name] = "s/op"
        elif name in ("fraction_ops", "shortvec.vectors_found"):
            units[name] = "count/op"
        else:
            units[name] = "ratio"
    metrics = {k: {"value": v, "unit": units[k]} for k, v in values.items()}
    lines = [f"{k} = {v:.6g} {units[k]}" for k, v in values.items()]
    lines.append(f"(per-op values over {result['ops']} traced ops; overhead over {len(result['pairs'])} op pairs)")
    return metrics, lines


def hit_count_gate(wl: Workload, ref: dict, seed: int) -> list[str]:
    """Tame-cone hits among the first records match the count recorded for the
    seed.  Every op already checked the library's membership against the
    oracle's, so this pins the generator: same seed, same inputs."""
    table = ref["period_hits"]
    recorded = table["counts"].get(str(seed))
    n = table["records"]
    if recorded is None or len(wl.records.records) < n:
        return []
    hits = sum(wl.records[i].member for i in range(n))
    if hits != recorded:
        return [f"{hits} tame-cone hits in the first {n} records, recorded {recorded}"]
    return []


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument(
        "--inject-fault", action="store_true",
        help="corrupt op 0's expected value, to show the gate catches it",
    )
    args = parser.parse_args(argv)

    if not (SRC / "k3dh" / "cli.py").is_file():
        print(f"error: no k3dh sources under {SRC}", file=sys.stderr)
        return 2
    if sys.flags.optimize:
        print("error: run without -O; library asserts change the work", file=sys.stderr)
        return 2
    threads_env = os.environ.pop("K3DH_THREADS", None)
    sys.path.insert(0, str(SRC))
    import k3dh.cli

    if not Path(k3dh.cli.__file__).resolve().is_relative_to(SRC):
        print(f"error: k3dh imported from {k3dh.cli.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import tracer as tracer_mod

    ref = json.loads((BENCH / "reference.json").read_text())
    env = environment(args, threads_env)
    ledger = Ledger()
    gates: list[str] = []
    wl = Workload(args.workload, args.seed, ref, args.inject_fault)
    OUT.mkdir(exist_ok=True)
    if args.trace:
        result = measure_traced(wl, ledger, args.seconds, tracer_mod)
        metrics, lines = per_layer(result)
        cold = result["tracer"].cold_entries(args.workload)
        if cold:
            gates.append(f"zero calls on the hot workload: {', '.join(cold)}")
        result["tracer"].write_spans(OUT / f"spans-{args.workload}-seed{args.seed}.csv")
    else:
        setup = measure_setup(args.workload)
        result = measure(wl, ledger, args.seconds)
        metrics, lines = end_to_end(wl, result, setup, ledger)
        if "op_cost.p50" not in metrics:
            gates.append("no op passed inside the window")
        if args.workload == "period-sampling":
            gates += hit_count_gate(wl, ref, args.seed)
    for gate in gates:
        print(f"gate failed: {gate}", file=sys.stderr)
    correct = ledger.failed == 0 and not gates

    print(f"# k3dh benchmark: workload {args.workload}, seed {args.seed}, trace {args.trace}")
    print("# environment " + json.dumps(env, sort_keys=True))
    for line in lines:
        print(line)
    record = {
        "correct": correct, "attempted": ledger.attempted, "failed": ledger.failed,
        "metrics": metrics,
    }
    (OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps({**record, "environment": env, "report": lines,
                    "errors": ledger.errors, "gates": gates}, indent=2) + "\n"
    )
    print(json.dumps(record))
    return 0 if correct else 1


if __name__ == "__main__":
    raise SystemExit(main())
