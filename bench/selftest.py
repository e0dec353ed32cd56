"""Tests of the benchmark itself (not of premodular).

    python3 -m pytest -q bench/selftest.py

The file name keeps these tests out of the repository's own test run.
"""

from __future__ import annotations

import json
import random
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from worker import import_library  # noqa: E402

import_library()

import check  # noqa: E402
import workloads  # noqa: E402
from tracing import Api  # noqa: E402

REFS = json.loads((HERE / "refs.json").read_text())


def _summary(ref: dict) -> dict:
    """A job result shaped like ``workloads.condensed_summary``, from a
    reference entry; dimensions are zero so that the dimension law holds."""
    return {
        "status": ref["status"],
        "labels": list(ref["labels"]),
        "sources": list(ref["sources"]),
        "group_order": ref["group_order"],
        "source_dim": 0.0,
        "solutions": [(check.as_complex_matrix(m), 0.0) for m in ref["solutions"]],
    }


@pytest.fixture
def double_su2_8():
    ref = REFS["condense"]["double(su2:8)"]
    return _summary(ref), ref


def test_reference_matches_itself_and_a_sheet_relabelling(double_su2_8):
    result, ref = double_su2_8
    check.condensation(result, ref)
    s = result["solutions"][0][0]
    sheets = [i for i, name in enumerate(result["labels"]) if "#" in name]
    assert len(sheets) == 2
    perm = list(range(len(s)))
    perm[sheets[0]], perm[sheets[1]] = sheets[1], sheets[0]
    result["solutions"] = [(s[np.ix_(perm, perm)], 0.0)]
    check.condensation(result, ref)


def test_one_flipped_sprime_phase_is_rejected(double_su2_8):
    result, ref = double_su2_8
    s = result["solutions"][0][0].copy()
    i, j = 1, 2
    s[i, j] *= -1
    s[j, i] *= -1
    result["solutions"] = [(s, 0.0)]
    with pytest.raises(check.Mismatch, match="relabelling"):
        check.condensation(result, ref)


def test_downgraded_status_is_rejected(double_su2_8):
    result, ref = double_su2_8
    result["status"] = "unresolved"
    result["solutions"] = []
    with pytest.raises(check.Mismatch, match="less resolved"):
        check.condensation(result, ref)
    result["status"] = "multiple"
    with pytest.raises(check.Mismatch):
        check.condensation(result, ref)


def test_newly_resolved_job_must_pass_the_gates():
    ref = REFS["condense"]["prod(even(su2:4),even(su2:4))"]
    assert ref["status"] == "unresolved"
    result = _summary(ref)
    result["status"] = "unique"
    result["solutions"] = [(np.eye(len(ref["labels"])), 0.0)]
    with pytest.raises(check.Mismatch, match="gate"):
        check.condensation(result, ref, gates=lambda i: False)
    check.condensation(result, ref, gates=lambda i: True)


def test_kirby_deviation_above_tolerance_is_rejected():
    base = 0.37 - 1.2j
    check.close(base * (1 + 5e-9), base)
    with pytest.raises(check.Mismatch):
        check.close(base * (1 + 2e-8), base)


def test_connected_sum_rule():
    part, dim = 0.8 * np.exp(0.3j), 3.4641016151377544
    total = dim**49 * part**50
    check.connected_sum(total, part, 50, dim)
    with pytest.raises(check.Mismatch):
        check.connected_sum(total * (1 + 1e-6), part, 50, dim)
    with pytest.raises(check.Mismatch):
        check.connected_sum(-total, part, 50, dim)


def test_verify_verdict_compares_witnesses():
    ref = REFS["verify"]["broken(ising)"]
    result = json.loads(json.dumps(ref))
    check.verdict(result, ref)
    result["failures"]["axiom:associativity"] = ["1", "1", "1", "1"]
    with pytest.raises(check.Mismatch):
        check.verdict(result, ref)


def _fingerprint(name: str, seed: int):
    setup = workloads.WORKLOADS[name][0]
    inputs = setup(Api(), random.Random(seed), REFS)
    if name == "surgery":
        graphs = [g for forests in inputs["forests"].values() for g in forests]
        graphs += [h for _, h in inputs["doubles"]]
        return [(g.vertices, g.edges) for g in graphs], inputs["sum"]
    if name == "condense":
        return [(g.vertices, g.edges) for g in inputs["plumbings"]]
    return [(doc_name, text) for doc_name, text, _ in inputs["docs"]]


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_inputs_depend_only_on_the_seed(name):
    assert _fingerprint(name, 11) == _fingerprint(name, 11)
    assert _fingerprint(name, 11) != _fingerprint(name, 12)


@pytest.mark.parametrize("trace, key", [(0, "end_to_end"), (1, "per_layer")])
def test_printed_metrics_match_benchmark_json(trace, key):
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    out = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "surgery", "--seed", "3",
         "--seconds", "1", "--trace", str(trace)],
        capture_output=True, text=True, timeout=170,
    )
    assert out.returncode == 0, out.stderr
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    expected = {m["name"]: m["unit"] for m in spec[key]}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == expected


def test_scaled_time_follows_the_kernel_not_the_host():
    from calibration import REFERENCE_S, scaled

    assert scaled(0.3, [REFERENCE_S, REFERENCE_S]) == pytest.approx(0.3)
    # a host half as fast doubles both the op and the kernel
    assert scaled(0.6, [2 * REFERENCE_S, 2 * REFERENCE_S]) == pytest.approx(0.3)


def test_meter_samples_inside_a_long_op_and_accounts_for_them():
    import time

    from calibration import TICK_S, Meter

    meter = Meter()
    meter.start()
    end = time.perf_counter() + 10 * TICK_S
    while time.perf_counter() < end:
        sum(range(1000))
    meter.stop()
    assert len(meter.samples) >= 5
    assert 0 < meter.spent < 5 * TICK_S
