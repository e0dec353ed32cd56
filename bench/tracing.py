"""Calls into premodular, timed from outside the library.

The workloads reach the library only through an ``Api`` object.  Untraced,
its attributes are the library's public functions themselves, so a run with
tracing off pays nothing for it.  Traced, every attribute is a wrapper that
records a span ``module.function`` (start, end, parent span, op id) in a
``Tracer``.  Spans stay in memory until the run ends.  ``tracemalloc`` runs
only inside ``Api.memory`` blocks, which the workloads open around a few
calls outside the passes, so that it does not slow the traced passes.
"""

from __future__ import annotations

import functools
import importlib
import time
import tracemalloc
from collections import Counter
from contextlib import contextmanager, nullcontext

# Public functions the benchmark calls, by module.
TIMED = {
    "families": ("builtin", "builtin_suite", "product", "conjugate"),
    "formats": (
        "category_to_doc", "category_from_doc", "fusion_from_doc",
        "condensed_to_doc", "plumbing_to_doc", "plumbing_from_doc",
    ),
    "fusion": ("validate_fusion",),
    "modular": (
        "sprime_from_balancing", "verify_premodular", "is_modular",
        "muger_center", "centralizer", "check_minimal_extension",
    ),
    "condense": ("orbit_decomposition", "condense", "double_data"),
    "plumbing": (
        "plumbing", "linking_matrix", "signature", "bracket", "rt_invariant",
        "kirby_moves", "bracket_descent_check",
    ),
    "double_rt": ("pairing_bracket", "tau_double", "factorization_check"),
}

# Largest tracemalloc peak of any ``Api.memory`` block opened for the metric.
MEMORY_METRICS = ("fusion.validate_peak_mb", "condense.peak_mb")

# Per-module time metrics: the summed self time of the named spans.
TIME_METRICS = {
    # PremodularData.restrict is how the benchmark builds subcategories
    # (even parts) from the families, so it counts as building.
    "families.build_s": (
        "families.builtin", "families.builtin_suite", "families.product",
        "families.conjugate", "modular.restrict",
    ),
    "formats.load_s": ("formats.category_from_doc", "formats.fusion_from_doc", "formats.plumbing_from_doc"),
    "formats.dump_s": ("formats.category_to_doc", "formats.condensed_to_doc", "formats.plumbing_to_doc"),
    "fusion.validate_s": ("fusion.validate_fusion",),
    "modular.balancing_s": ("modular.sprime_from_balancing",),
    "modular.verify_s": ("modular.verify_premodular",),
    "modular.is_modular_s": ("modular.is_modular",),
    "modular.center_s": ("modular.muger_center", "modular.centralizer", "modular.check_minimal_extension"),
    "condense.orbits_s": ("condense.orbit_decomposition",),
    "condense.condense_s": ("condense.condense",),
    "condense.double_s": ("condense.double_data",),
    "plumbing.rt_s": ("plumbing.rt_invariant",),
    "plumbing.signature_s": ("plumbing.signature", "plumbing.linking_matrix"),
    "plumbing.bracket_s": ("plumbing.bracket",),
    "plumbing.kirby_moves_s": ("plumbing.kirby_moves",),
    "plumbing.descent_s": ("plumbing.bracket_descent_check",),
    "double_rt.pairing_s": ("double_rt.pairing_bracket",),
    "double_rt.tau_double_s": ("double_rt.tau_double",),
    "double_rt.factorization_s": ("double_rt.factorization_check",),
}

# Per-module call counts: the number of spans with the named names.
CALL_METRICS = {
    "fusion.validate_calls": ("fusion.validate_fusion",),
    "plumbing.rt_calls": ("plumbing.rt_invariant",),
    "double_rt.calls": ("double_rt.pairing_bracket", "double_rt.tau_double", "double_rt.factorization_check"),
}


class Tracer:
    """Spans ``[name, start, end, parent, op]`` and counters of one traced run.

    Top-level spans are ``setup``, the ``probe`` spans of the traced-only
    probes, and one ``pass`` per traced pass.  Metrics
    count set-up and those probes once and average the passes, so they
    describe one traced pass however many fit into the run.
    """

    def __init__(self):
        self.spans: list[list] = []
        self.counts: Counter = Counter()  # keyed by (top-level span name, counter name)
        self.peaks: dict[str, int] = {}
        self.op = None
        self._stack: list[int] = []

    def open(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, time.perf_counter(), None, parent, self.op])
        self._stack.append(idx)
        return idx

    def close(self, idx: int) -> float:
        end = time.perf_counter()
        self.spans[idx][2] = end
        self._stack.pop()
        return end - self.spans[idx][1]

    @contextmanager
    def span(self, name: str):
        idx = self.open(name)
        try:
            yield idx
        finally:
            self.close(idx)

    def add(self, name: str, value=1):
        top = self.spans[self._stack[0]][0] if self._stack else "probe"
        self.counts[top, name] += value

    def _weights(self) -> dict[str, float]:
        passes = sum(1 for s in self.spans if s[0] == "pass" and s[3] is None)
        return {"pass": 1 / passes} if passes else {}

    def metrics(self) -> dict[str, float]:
        """Per-module metrics and counters, keyed by metric name."""
        weight = self._weights()
        child = [0.0] * len(self.spans)
        top = [0] * len(self.spans)
        for i, (_, start, end, parent, _) in enumerate(self.spans):
            if parent is not None:
                child[parent] += end - start
                top[i] = top[parent]
            else:
                top[i] = i
        self_time: Counter = Counter()
        calls: Counter = Counter()
        for i, (name, start, end, _, _) in enumerate(self.spans):
            w = weight.get(self.spans[top[i]][0], 1.0)
            self_time[name] += (end - start - child[i]) * w
            calls[name] += w
        out = {m: sum(self_time[n] for n in names) for m, names in TIME_METRICS.items()}
        out.update({m: sum(calls[n] for n in names) for m, names in CALL_METRICS.items()})
        for metric in MEMORY_METRICS:
            out[metric] = self.peaks.get(metric, 0) / 2**20
        for (top_name, name), value in self.counts.items():
            out[name] = out.get(name, 0) + value * weight.get(top_name, 1.0)
        return out

    def record_result(self, name: str, args, result):
        if name == "plumbing.rt_invariant":
            self.add("plumbing.vertices", args[1].n)
        elif name in ("condense.condense", "condense.double_data"):
            self.add("condense.jobs")
            self.add("condense.resolved", result.status != "unresolved")
            self.add("condense.solutions", result.n_solutions)

    @contextmanager
    def memory(self, metric: str):
        tracemalloc.start()
        try:
            yield
        finally:
            peak = tracemalloc.get_traced_memory()[1]
            tracemalloc.stop()
            self.peaks[metric] = max(self.peaks.get(metric, 0), peak)

    def wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(idx)
            self.record_result(name, args, result)
            return result

        return traced


def _restrict(p, members):
    return p.restrict(members)


class Api:
    """The library's public functions, plain or wrapped in spans.

    ``count`` and ``memory`` feed the traced run's counters and memory peaks;
    untraced they do nothing.
    """

    def __init__(self, tracer: Tracer | None = None):
        self.tracer = tracer
        for module, names in TIMED.items():
            mod = importlib.import_module(f"premodular.{module}")
            for fn_name in names:
                fn = getattr(mod, fn_name)
                setattr(self, fn_name, tracer.wrap(f"{module}.{fn_name}", fn) if tracer else fn)
        self.restrict = tracer.wrap("modular.restrict", _restrict) if tracer else _restrict

    def memory(self, metric: str):
        """Track the peak of traced memory inside the block for ``metric``."""
        return self.tracer.memory(metric) if self.tracer is not None else nullcontext()

    def count(self, name: str, value=1):
        if self.tracer is not None:
            self.tracer.add(name, value)
