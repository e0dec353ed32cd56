"""Output checks: against the stored seed references and by self-consistency.

Every check raises ``Mismatch`` with a one-line reason, or returns None.
"""

from __future__ import annotations

import cmath
import itertools
import math

import numpy as np

KIRBY_REL = 1e-8  # Kirby invariance, factorization and stored invariant values
LOG_REL = 1e-8  # connected-sum rule, compared in log space
SPRIME_TOL = 1e-6  # condensed S' against the reference, up to sheet relabelling
DIM_REL = 1e-8  # dimension laws

# How resolved a condensation is; a job may not fall below its reference.
STATUS_RANK = {"unresolved": 0, "multiple": 1, "unique": 2}


class Mismatch(Exception):
    """An output disagrees with its reference or with a consistency law."""


def close(value: complex, ref: complex, rel: float = KIRBY_REL, what: str = "value"):
    dev = abs(complex(value) - complex(ref))
    if not dev <= rel * max(1.0, abs(ref)):
        raise Mismatch(f"{what} {value} deviates from {ref} by {dev:.3g}")


def finite(value: complex, what: str = "value"):
    if not cmath.isfinite(complex(value)):
        raise Mismatch(f"{what} is not finite: {value}")


def connected_sum(total: complex, part: complex, copies: int, total_dim: float):
    """``tau(G_1 ⊔ ... ⊔ G_k) = D^(k-1) * prod tau(G_i)``, compared in log space."""
    if total == 0 or part == 0:
        raise Mismatch(f"connected-sum rule needs nonzero values, got {total} and {part}")
    expected = (copies - 1) * math.log(total_dim) + copies * cmath.log(part)
    diff = cmath.log(total) - expected
    phase = math.remainder(diff.imag, 2 * math.pi)
    if not (abs(diff.real) <= LOG_REL * max(1.0, abs(expected.real)) and abs(phase) <= LOG_REL * copies):
        raise Mismatch(f"connected sum of {copies} copies is off by {diff.real:.3g} in log|tau|, {phase:.3g} in phase")


def as_complex_matrix(rows) -> np.ndarray:
    return np.array([[complex(re, im) for re, im in row] for row in rows])


def matrix_to_json(m: np.ndarray) -> list:
    return [[[float(z.real), float(z.imag)] for z in row] for row in m]


def sheet_permutations(sources):
    """Label orders that permute only sheets of one fixed orbit among themselves.

    ``sources[i]`` is the source label of condensed label ``i``; labels that
    share a source are the sheets of one fixed orbit.
    """
    groups: dict[int, list[int]] = {}
    for i, s in enumerate(sources):
        groups.setdefault(s, []).append(i)
    blocks = [g for g in groups.values() if len(g) > 1]
    for choice in itertools.product(*(itertools.permutations(g) for g in blocks)):
        perm = list(range(len(sources)))
        for block, image in zip(blocks, choice):
            for i, j in zip(block, image):
                perm[i] = j
        yield perm


def sprime_matches(s: np.ndarray, ref: np.ndarray, sources) -> bool:
    """Whether S' equals the reference after some sheet relabelling."""
    if s.shape != ref.shape:
        return False
    tol = SPRIME_TOL * max(1.0, float(np.abs(ref).max()))
    return any(
        float(np.abs(s[np.ix_(perm, perm)] - ref).max()) <= tol
        for perm in sheet_permutations(sources)
    )


def condensation(result: dict, ref: dict, gates=None):
    """Check one condensation job against its reference.

    ``result`` holds ``status``, ``labels``, ``sources``, ``group_order``,
    ``source_dim`` and ``solutions`` (S' matrices with their total
    dimensions).  A job may not come back less resolved than its reference.
    A job that was unresolved at the reference passes when it now resolves
    and ``gates(solution_index)`` (premodular and modularity checks) holds.
    """
    status, ref_status = result["status"], ref["status"]
    if STATUS_RANK[status] < STATUS_RANK[ref_status]:
        raise Mismatch(f"status {status} is less resolved than the reference {ref_status}")
    if ref_status != "unresolved" and status != ref_status:
        raise Mismatch(f"status {status} differs from the reference {ref_status}")
    if result["labels"] != ref["labels"]:
        raise Mismatch(f"condensed labels {result['labels']} differ from {ref['labels']}")
    if result["group_order"] != ref["group_order"]:
        raise Mismatch(f"group order {result['group_order']} differs from {ref['group_order']}")
    for i, (s, total_dim) in enumerate(result["solutions"]):
        expected = result["source_dim"] / result["group_order"]
        if abs(total_dim - expected) > DIM_REL * max(1.0, expected):
            raise Mismatch(f"solution {i} has dimension {total_dim:.12g}, not dim/|G| = {expected:.12g}")
        if ref_status == "unresolved":
            if gates is None or not gates(i):
                raise Mismatch(f"newly resolved solution {i} fails the premodular or modularity gate")
    if ref_status != "unresolved":
        refs = [as_complex_matrix(m) for m in ref["solutions"]]
        for i, (s, _) in enumerate(result["solutions"]):
            if not any(sprime_matches(s, r, result["sources"]) for r in refs):
                raise Mismatch(f"solution {i} matches no reference S' up to sheet relabelling")


def verdict(result: dict, ref: dict):
    """Compare a verify run (verdict, modularity, center, failure witnesses)."""
    for key in ("passed", "modular", "center", "kernel", "failures"):
        if result.get(key) != ref.get(key):
            raise Mismatch(f"{key} is {result.get(key)!r}, reference {ref.get(key)!r}")
