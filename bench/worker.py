"""Run one workload in a fresh process: set-up, passes, metrics.

    python3 bench/worker.py --workload surgery --seed 1 --seconds 20 --trace 0 [--setup-only]

``bench/run.py`` starts this process.  It prints ``ready`` once set-up is
done (imports, inputs, warm-up), with the kernel samples taken during
set-up and the time they took, then, unless ``--setup-only``, one JSON
record as its last line.  Every op is timed with the host's speed beside
it (``calibration.py``), and the time metrics take each op's median over
the passes, in seconds at the reference speed.  With ``--trace 1`` it runs
the workload's heavy probes first, then alternates untraced and traced
passes, so that ``trace.overhead_frac`` compares like for like, and writes
its spans to ``bench/results/``.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import resource
import statistics
import sys
import time
import traceback
from contextlib import nullcontext
from pathlib import Path

import calibration

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RESULTS = HERE / "results"


def import_library():
    """Import premodular from this checkout's ``src`` and nowhere else."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import premodular

    if Path(premodular.__file__).resolve().parent != (src / "premodular").resolve():
        raise SystemExit(f"premodular was imported from {premodular.__file__}, not from {src}")


class Pass:
    """One pass over a workload's ops: latencies, failures, and probes when traced."""

    def __init__(self, api, index: int, tracer=None):
        self.api = api
        self.index = index
        self.tracer = tracer
        self.names: list[str] = []
        self.latencies: list[float] = []
        self.failures: list[dict] = []
        self.probe_failures: list[dict] = []
        self.probe_s: dict[str, float] = {}
        self.speed: list[float] = []  # kernel samples: before each op, and one after the last
        self.inside: list[list[float]] = []  # kernel samples taken during each op
        self.meter = calibration.Meter()

    def finish(self):
        self.speed.append(calibration.sample())

    def scaled(self) -> list[float]:
        """The ops' latencies in seconds at the reference host speed."""
        return [
            calibration.scaled(x, [a, b, *inside])
            for x, a, b, inside in zip(self.latencies, self.speed, self.speed[1:], self.inside)
        ]

    def op(self, name: str, run, check=None):
        """Run one op and check its output, timing both; None when either fails."""
        op_id = f"{self.index}:{len(self.latencies)}"
        self.speed.append(calibration.sample())
        tracer = self.tracer
        if tracer is not None:
            tracer.op = op_id
            idx = tracer.open("op")
        self.meter.start()
        start = time.perf_counter()
        error = None
        try:
            result = run()
        except Exception:  # an op that raises is counted as failed, and the pass goes on
            result, error = None, traceback.format_exc(limit=4)
        else:
            if check is not None:
                try:
                    check(result)
                except Exception as exc:  # a failed check, or a check that cannot read the output
                    error = f"{type(exc).__name__}: {exc}"
        self.meter.stop()
        if tracer is not None:
            latency = tracer.close(idx)
            tracer.op = None
        else:
            latency = time.perf_counter() - start
        self.names.append(name)
        self.latencies.append(latency - self.meter.spent)
        self.inside.append(self.meter.samples)
        if error is not None:
            self.failures.append({"op": op_id, "name": name, "error": error})
            return None
        return result

    def probe(self, name: str, run):
        """Extra public calls outside the op spans; traced passes only."""
        if self.tracer is None:
            return
        start = time.perf_counter()
        with self.tracer.span("probe"):
            try:
                run()
            except Exception:  # a probe that raises or disagrees makes the run incorrect
                self.probe_failures.append({"probe": name, "error": traceback.format_exc(limit=4)})
        self.probe_s[name] = self.probe_s.get(name, 0.0) + time.perf_counter() - start


def environment(seed: int) -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": os.cpu_count(),
        "ram_mb": os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE") // 2**20,
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
        "thread_env": {k: os.environ.get(k) for k in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")},
        "seed": seed,
    }


def percentile(values, q: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    # Sample the host's speed through set-up too, for run.py's setup_s.
    calibration.kernel()
    meter = calibration.Meter()
    meter.start()
    import_library()
    import workloads
    from tracing import Api, Tracer

    setup, run_pass, traced_probes = workloads.WORKLOADS[args.workload]
    refs = json.loads((HERE / "refs.json").read_text())
    tracer = Tracer() if args.trace else None
    api = Api(tracer)
    with tracer.span("setup") if tracer else nullcontext():
        inputs = setup(api, random.Random(args.seed), refs)
        workloads.warm_up(api)
    meter.stop()
    print("ready", json.dumps({"samples": meter.samples, "spent": meter.spent}), flush=True)
    if args.setup_only:
        return 0

    start = time.perf_counter()
    probes = Pass(api, -1, tracer)
    if tracer and traced_probes:
        # The heavy probes run first, so that they count against --seconds.
        traced_probes(probes, inputs)

    plain = Api() if tracer else api
    modes = (False, True) if tracer else (False,)
    passes: list[tuple[bool, float, Pass]] = []
    while True:
        round_start = time.perf_counter()
        for traced in modes:
            p = Pass(api if traced else plain, len(passes), tracer if traced else None)
            t0 = time.perf_counter()
            with tracer.span("pass") if traced else nullcontext():
                run_pass(p, inputs)
            p.finish()
            passes.append((traced, time.perf_counter() - t0, p))
        now = time.perf_counter()
        if now - start + (now - round_start) > args.seconds:
            break

    untraced = [p for traced, _, p in passes if not traced]
    contexts = [p for _, _, p in passes] + [probes]
    failures = [f for p in contexts for f in p.failures]
    probe_failures = [f for p in contexts for f in p.probe_failures]
    attempted = sum(len(p.latencies) for p in contexts)
    probe_s: dict[str, float] = {}
    for p in contexts:
        for name, x in p.probe_s.items():
            probe_s[name] = probe_s.get(name, 0.0) + x
    typical = typical_latencies(untraced)
    by_name: dict[str, list[float]] = {}
    for (name, _), x in typical.items():
        by_name.setdefault(name, []).append(x)

    if tracer is None:
        metrics = latency_metrics(list(typical.values()))
        metrics["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB")
    else:
        traced = typical_latencies([p for t, _, p in passes if t])
        overhead = sum(traced.values()) / sum(typical.values()) - 1
        metrics = per_module_metrics(tracer, overhead)
        RESULTS.mkdir(exist_ok=True)
        spans_path = RESULTS / f"{args.workload}-seed{args.seed}-spans.json"
        spans_path.write_text(json.dumps({"fields": ["name", "start", "end", "parent", "op"], "spans": tracer.spans}))

    raw = typical_latencies(untraced, scale=False)
    record = {
        "correct": not failures and not probe_failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "detail": {
            "environment": environment(args.seed),
            "pass_s": [wall for _, wall, _ in passes],
            "kernel_median_s": [statistics.median(p.speed) for _, _, p in passes],
            "unscaled": {k: v for k, (v, _) in latency_metrics(list(raw.values())).items()},
            "ops_per_pass": len(untraced[0].latencies),
            "op_median_s": {name: statistics.median(xs) for name, xs in by_name.items()},
            "failures": failures[:20],
            "probe_failures": probe_failures[:20],
            "probe_s": probe_s,
        },
    }
    print(json.dumps(record))
    return 0


def typical_latencies(passes, scale: bool = True) -> dict[tuple[str, int], float]:
    """Each op's median latency over the passes, keyed by name and occurrence;
    in seconds at the reference host speed unless ``scale`` is false."""
    samples: dict[tuple[str, int], list[float]] = {}
    for p in passes:
        seen: dict[str, int] = {}
        for name, x in zip(p.names, p.scaled() if scale else p.latencies):
            key = (name, seen.get(name, 0))
            seen[name] = key[1] + 1
            samples.setdefault(key, []).append(x)
    return {key: statistics.median(xs) for key, xs in samples.items()}


def latency_metrics(values: list[float]) -> dict:
    """Time to solution and op latency percentiles of one op list."""
    return {
        "wall_s": (sum(values), "s"),
        "op_p50_ms": (statistics.median(values) * 1e3, "ms"),
        "op_p90_ms": (percentile(values, 90) * 1e3, "ms"),
    }


def per_module_metrics(tracer, overhead: float) -> dict:
    """Per-module metrics of a traced run, with the tracing overhead."""
    from tracing import CALL_METRICS

    units = {m: "count" for m in (*CALL_METRICS, "plumbing.vertices", "plumbing.overflow_errors", "condense.solutions")}
    units.update({"formats.doc_kb": "KB", "condense.resolved_frac": "1", "trace.overhead_frac": "1"})
    values = tracer.metrics()
    values["condense.resolved_frac"] = values.pop("condense.resolved") / values.pop("condense.jobs")
    values.setdefault("plumbing.overflow_errors", 0)
    values["trace.overhead_frac"] = overhead
    out = {}
    for m, v in values.items():
        unit = units.get(m, "MB" if m.endswith("_mb") else "s")
        out[m] = (int(v) if unit == "count" and float(v).is_integer() else v, unit)
    return out


if __name__ == "__main__":
    sys.exit(main())
