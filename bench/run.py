"""The premodular benchmark: one workload per call, in fresh processes.

    python3 bench/run.py --workload surgery|condense|verify --seed N --seconds S --trace 0|1

Run from the root of a checkout.  The workload runs in its own fresh
process (``bench/worker.py``), which imports premodular from ``src/``.
Untraced (``--trace 0``) it prints the end-to-end metrics; set-up is run
``SETUP_RUNS`` times in fresh processes, each timed with the host's speed
sampled before, during and after it (``calibration.py``), and ``setup_s``
is the median of those times at the reference speed.
Traced (``--trace 1``) it prints the per-module metrics.  The last line of
standard output is the result:
``{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}``.
The full record, with the environment, goes to ``bench/results/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import calibration

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RESULTS = HERE / "results"
WORKLOADS = ("surgery", "condense", "verify")
SETUP_RUNS = 7
TIMEOUT_S = 170
# The ops use small matrices, for which more BLAS threads only contend with
# whatever else runs on the machine; one thread keeps runs steadier.  A value
# set by the caller wins.
BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


class WorkerError(RuntimeError):
    pass


def spawn(cmd: list[str]) -> tuple[float, dict, str]:
    """Run a worker; return seconds from spawn to its ``ready`` line, the
    kernel samples of its set-up, and the rest of its output."""
    start = time.perf_counter()
    env = {**{k: "1" for k in BLAS_THREAD_VARS}, **os.environ}
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True)
    watchdog = threading.Timer(TIMEOUT_S, proc.kill)
    watchdog.start()
    try:
        first = proc.stdout.readline()
        ready = time.perf_counter() - start
        rest = proc.stdout.read()
        code = proc.wait()
    finally:
        watchdog.cancel()
        proc.kill()
        proc.wait()
    word, _, meter = first.partition(" ")
    if word != "ready" or code != 0:
        raise WorkerError(f"worker {' '.join(cmd[2:])} exited with code {code}")
    return ready, json.loads(meter), rest


def timed_setup(cmd: list[str]) -> tuple[float, float]:
    """One set-up in a fresh process: seconds to ``ready``, scaled to the
    reference host speed by the kernel samples taken before, during and
    after it, and as measured."""
    before = calibration.sample()
    ready, meter, _ = spawn(cmd + ["--setup-only"])
    own = ready - meter["spent"]
    return calibration.scaled(own, [before, *meter["samples"], calibration.sample()]), own


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((ROOT / "src" / "premodular").glob("*.py")):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="premodular benchmark")
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "premodular" / "__init__.py").is_file():
        print(f"error: no premodular source under {ROOT / 'src'}; run from a checkout of the repository",
              file=sys.stderr)
        return 2

    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    try:
        calibration.sample()  # warm the kernel up
        setups = [] if args.trace else [timed_setup(cmd) for _ in range(SETUP_RUNS)]
        _, _, out = spawn(cmd)
    except WorkerError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    lines = out.strip().splitlines()
    if not lines:
        print("error: the worker printed no result", file=sys.stderr)
        return 1
    record = json.loads(lines[-1])
    detail = record.pop("detail")
    if not args.trace:
        record["metrics"]["setup_s"] = {"value": statistics.median(s for s, _ in setups), "unit": "s"}
        detail["setup_runs_s"] = [s for s, _ in setups]
        detail["unscaled"]["setup_s"] = statistics.median(r for _, r in setups)
    detail["environment"].update(commit=git_commit(), source_sha256=source_digest())

    RESULTS.mkdir(exist_ok=True)
    path = RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps({**record, "workload": args.workload, "detail": detail}, indent=1))
    for name, m in record["metrics"].items():
        print(f"{args.workload} {name} = {m['value']:.6g} {m['unit']}")
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
