"""Span tracer for the traced run: wraps library entry points from outside.

The k3dh modules import each other with `from .x import f`, so a function
is wrapped in every k3dh module that bound it, and a method on its class.
While an op is active each wrapped call records a span (name, start, end,
parent span, op id) in flat in-memory arrays; self time is the span minus
the time covered by its child spans.  Outside an op the wrappers call
straight through, so input generation and output checks are not traced.
"""
from __future__ import annotations

import sys
from array import array
from dataclasses import dataclass
from fractions import Fraction
from time import perf_counter
from typing import Callable


@dataclass(frozen=True)
class Entry:
    """One wrapped entry point and the workload on which it must be hot."""

    name: str
    module: str
    attr: str  # "func" or "Class.method"
    hot: str
    spans: bool = True  # False: count calls only (hot recursive helpers)
    tally: Callable | None = None  # per-call value summed into <name>.tally


ENTRIES = (
    # split by argument type into lattice.pairing.rational and .int (see HOT)
    Entry("lattice.pairing", "k3dh.lattice", "pairing", ""),
    Entry("period.project_to_alpha_perp", "k3dh.period", "project_to_alpha_perp", "period-sampling"),
    Entry("period.is_in_ktilde_omega", "k3dh.period", "is_in_ktilde_omega", "period-sampling"),
    Entry("period.PeriodPoint", "k3dh.period", "PeriodPoint.__post_init__", "period-sampling"),
    Entry("shortvec.enumerate_norm", "k3dh.shortvec", "enumerate_norm", "verify-battery", tally=len),
    Entry("shortvec.DefiniteGram", "k3dh.shortvec", "DefiniteGram.__init__", "verify-battery"),
    Entry("shortvec.roots_orthogonal_to", "k3dh.shortvec", "roots_orthogonal_to", "verify-battery"),
    Entry("shortvec.enumerate_level", "k3dh.shortvec", "_enumerate_level", "verify-battery", spans=False),
    Entry("sublattice.orthogonal_complement", "k3dh.sublattice", "orthogonal_complement", "verify-battery"),
    Entry("sublattice.is_primitive_embedding", "k3dh.sublattice", "is_primitive_embedding", "isometry-pairs"),
    Entry("exact_linalg.IntMatrix.mul", "k3dh.exact_linalg", "IntMatrix.mul", "isometry-pairs"),
    Entry("exact_linalg.smith_normal_form", "k3dh.exact_linalg", "smith_normal_form", "isometry-pairs"),
    Entry("exact_linalg.int_inverse", "k3dh.exact_linalg", "int_inverse", "isometry-pairs"),
    Entry("exact_linalg.det", "k3dh.exact_linalg", "det", "isometry-pairs"),
    Entry("exact_linalg.rat_det", "k3dh.exact_linalg", "rat_det", "isometry-pairs"),
    Entry("isometry.lemma_iso", "k3dh.isometry", "lemma_iso", "isometry-pairs"),
    Entry("isometry.map_pair_to_standard", "k3dh.isometry", "map_pair_to_standard", "isometry-pairs"),
    Entry("isometry.eichler_transvection", "k3dh.isometry", "eichler_transvection", "isometry-pairs"),
    Entry("isometry.compose", "k3dh.isometry", "Isometry.compose", "isometry-pairs"),
    Entry("isometry.preserves_components", "k3dh.isometry", "preserves_components", "isometry-pairs"),
    Entry("isometry.Isometry.verify", "k3dh.isometry", "Isometry.__post_init__", "isometry-pairs"),
    Entry("isometry.standardize", "k3dh.isometry", "_unitize", "isometry-pairs", spans=False, tally=bool),
    Entry("kummer.wedge_integrate", "k3dh.kummer", "wedge_integrate", "verify-battery"),
    Entry("kummer.pairing", "k3dh.kummer", "pairing", "verify-battery"),
    Entry("moment.validate", "k3dh.moment", "validate", "verify-battery"),
    Entry("moment.dh_from_pair", "k3dh.moment", "dh_from_pair", "verify-battery"),
    Entry("cli.run_verify_paper", "k3dh.cli", "run_verify_paper", "verify-battery"),
    Entry("cli.main", "k3dh.cli", "main", "verify-battery"),
)

# Fraction arithmetic, counted per op; comparisons and construction are not
FRACTION_OPS = (
    "__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
    "__truediv__", "__rtruediv__", "__floordiv__", "__rfloordiv__",
    "__mod__", "__rmod__", "__pow__", "__rpow__", "__neg__", "__pos__", "__abs__",
)


# span or counter name -> the workload on which it must record calls
HOT = {e.name: e.hot for e in ENTRIES if e.hot} | {
    "lattice.pairing.rational": "period-sampling",
    "lattice.pairing.int": "isometry-pairs",
    "fraction_ops": "period-sampling",
}
COUNT_ONLY = {e.name for e in ENTRIES if not e.spans}


class Tracer:
    """Spans and counters of one traced run; `op` is the active op id, or -1."""

    def __init__(self):
        self.names = [n for n in HOT if n != "fraction_ops"]
        self.ids = {n: i for i, n in enumerate(self.names)}
        n = len(self.names)
        self.calls = [0] * n
        self.self_s = [0.0] * n
        self.tally = [0] * n
        self.fraction_ops = 0
        self.op = -1
        self.stack: list[list] = []  # [span index, time covered by children]
        self.t0 = perf_counter()
        self.s_name, self.s_parent, self.s_op = array("i"), array("i"), array("i")
        self.s_start, self.s_end = array("d"), array("d")
        self._restore: list[tuple[object, str, object]] = []

    # -- installation ---------------------------------------------------

    def install(self) -> None:
        """Wrap every entry; raises LookupError when one no longer exists."""
        k3dh_modules = [m for name, m in sys.modules.items() if name.startswith("k3dh.")]
        for e in ENTRIES:
            cls_name, _, attr = e.attr.rpartition(".")
            owner = sys.modules[e.module]
            if cls_name:
                owner = vars(owner).get(cls_name)
            orig = vars(owner).get(attr) if owner is not None else None
            if orig is None:
                raise LookupError(f"traced entry {e.module}.{e.attr} not found")
            wrapper = self._wrap(e, orig)
            if cls_name:
                self._patch(owner, attr, wrapper)
                continue
            for mod in k3dh_modules:
                for name, value in list(vars(mod).items()):
                    if value is orig:
                        self._patch(mod, name, wrapper)
        for meth in FRACTION_OPS:
            self._patch(Fraction, meth, self._count_fraction(vars(Fraction)[meth]))

    def uninstall(self) -> None:
        for owner, name, value in reversed(self._restore):
            setattr(owner, name, value)
        self._restore.clear()

    def _patch(self, owner, name, value) -> None:
        self._restore.append((owner, name, vars(owner)[name]))
        setattr(owner, name, value)

    def _count_fraction(self, fn):
        def counted(*args):
            if self.op >= 0:
                self.fraction_ops += 1
            return fn(*args)
        return counted

    def _wrap(self, entry: Entry, fn):
        tracer = self
        if entry.name == "lattice.pairing":
            rid, iid = self.ids["lattice.pairing.rational"], self.ids["lattice.pairing.int"]
            integral = sys.modules["k3dh.lattice"].LatticeVector

            def pairing(u, v):
                if tracer.op < 0:
                    return fn(u, v)
                both = type(u) is integral and type(v) is integral
                return tracer._span(iid if both else rid, fn, (u, v), {})
            return pairing

        nid, tally = self.ids[entry.name], entry.tally
        if not entry.spans:
            def counted(*args, **kwargs):
                out = fn(*args, **kwargs)
                if tracer.op >= 0:
                    tracer.calls[nid] += 1
                    if tally is not None:
                        tracer.tally[nid] += tally(out)
                return out
            return counted

        def traced(*args, **kwargs):
            if tracer.op < 0:
                return fn(*args, **kwargs)
            out = tracer._span(nid, fn, args, kwargs)
            if tally is not None:
                tracer.tally[nid] += tally(out)
            return out
        return traced

    # -- recording ------------------------------------------------------

    def _span(self, nid, fn, args, kwargs):
        idx = len(self.s_name)
        self.s_name.append(nid)
        self.s_parent.append(self.stack[-1][0] if self.stack else -1)
        self.s_op.append(self.op)
        frame = [idx, 0.0]
        self.stack.append(frame)
        start = perf_counter()
        self.s_start.append(start - self.t0)
        self.s_end.append(0.0)
        try:
            return fn(*args, **kwargs)
        finally:
            end = perf_counter()
            self.stack.pop()
            dur = end - start
            self.s_end[idx] = end - self.t0
            self.calls[nid] += 1
            self.self_s[nid] += dur - frame[1]
            if self.stack:
                self.stack[-1][1] += dur

    def write_spans(self, path) -> None:
        with open(path, "w") as fh:
            fh.write("name,start_s,end_s,parent,op\n")
            for i in range(len(self.s_name)):
                fh.write(
                    f"{self.names[self.s_name[i]]},{self.s_start[i]:.9f},"
                    f"{self.s_end[i]:.9f},{self.s_parent[i]},{self.s_op[i]}\n"
                )

    # -- summary ----------------------------------------------------------

    def layer_metrics(self, ops: int) -> dict[str, float]:
        """Per-op calls and self time for every span name, plus the ratios."""
        out: dict[str, float] = {}
        for name, nid in self.ids.items():
            out[f"{name}.calls"] = self.calls[nid] / ops
            if name not in COUNT_ONLY:
                out[f"{name}.self_s"] = self.self_s[nid] / ops
        c = self.calls
        ids = self.ids
        found = self.tally[ids["shortvec.enumerate_norm"]]
        levels = c[ids["shortvec.enumerate_level"]]
        lemmas = c[ids["isometry.lemma_iso"]]
        unitize = c[ids["isometry.standardize"]]
        out["fraction_ops"] = self.fraction_ops / ops
        out["shortvec.vectors_found"] = found / ops
        out["shortvec.yield_ratio"] = found / levels if levels else 0.0
        out["isometry.Isometry.verify.per_lemma_iso"] = (
            c[ids["isometry.Isometry.verify"]] / lemmas if lemmas else 0.0
        )
        out["isometry.standardize_success_ratio"] = (
            self.tally[ids["isometry.standardize"]] / unitize if unitize else 0.0
        )
        return out

    def cold_entries(self, workload: str) -> list[str]:
        """Entries hot on this workload that recorded no call: a binding the
        wrappers no longer reach, or a layer the workload stopped using."""
        def calls(name):
            return self.fraction_ops if name == "fraction_ops" else self.calls[self.ids[name]]

        return [n for n, w in HOT.items() if w == workload and calls(n) == 0]
