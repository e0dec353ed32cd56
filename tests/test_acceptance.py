"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines and timings.
"""

import random
import time

import numpy as np

from premodular import families
from premodular.condense import condense, double_data
from premodular.double_rt import factorization_check, pairing_bracket, tau_double
from premodular.fusion import full_subcategory, validate_fusion
from premodular.modular import (
    centralizer,
    check_minimal_extension,
    is_modular,
    muger_center,
    verify_premodular,
    verlinde_multiplicities,
)
from premodular.plumbing import (
    bracket_descent_check,
    kirby_moves,
    plumbing,
    random_forest,
    rt_invariant,
)

from test_condense import equivalent_up_to_relabelling


def _report(num, description, ok, elapsed=None):
    stamp = f" [{elapsed:.2f}s]" if elapsed is not None else ""
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {num}: {description}{stamp}")
    assert ok, f"criterion {num} failed: {description}"


def chain(framings):
    verts = [(f"c{i}", m) for i, m in enumerate(framings)]
    edges = [(f"c{i}", f"c{i+1}") for i in range(len(framings) - 1)]
    return plumbing(verts, edges)


def e8_plumbing():
    vertices = [(f"a{i}", -2) for i in range(8)]
    edges = [("a0", "a1"), ("a1", "a2"), ("a2", "a3"), ("a3", "a4"),
             ("a4", "a5"), ("a5", "a6"), ("a4", "a7")]
    return plumbing(vertices, edges)


HOPF = plumbing([("u", 0), ("v", 0)], [("u", "v")])


def fusion_closed_subsets(f):
    """Exhaustive search for fusion-closed label subsets containing the unit."""
    others = [i for i in range(f.rank) if i != f.unit]
    out = []
    for mask in range(2 ** len(others)):
        members = {f.unit} | {others[i] for i in range(len(others)) if mask >> i & 1}
        if any(f.dual[a] not in members for a in members):
            continue
        idx = sorted(members)
        comp = [i for i in range(f.rank) if i not in members]
        if comp and f.tensor[np.ix_(idx, idx, comp)].any():
            continue
        out.append(tuple(idx))
    return out


def test_criterion_01_axiom_suite():
    t0 = time.perf_counter()
    ok = True
    for name, p in families.builtin_suite():
        rv = validate_fusion(p.fusion)
        rp = verify_premodular(p, tol=1e-9)
        resid = max(c.residual for c in rp.checks)
        ok &= rv.passed and rp.passed and resid < 1e-9
        rm = is_modular(p, tol=1e-9)
        if rm.modular:
            ok &= rm.residual < 1e-9
    elapsed = time.perf_counter() - t0
    ok &= elapsed < 5.0
    _report(1, "axiom suite on all builtins, residuals < 1e-9, under 5 s", ok, elapsed)


def test_criterion_02_centralizer_dimension_law():
    ok = True
    for name, p in families.builtin_suite():
        if not p.sprime_invertible() or p.rank > 9:
            continue
        for members in fusion_closed_subsets(p.fusion):
            cent = centralizer(p, full_subcategory(p.fusion, members))
            dim_cent = float(np.sum(p.dims[list(cent)] ** 2))
            dim_sub = float(np.sum(p.dims[list(members)] ** 2))
            ok &= abs(dim_cent - p.total_dim / dim_sub) < 1e-8 * max(1.0, p.total_dim)
    _report(2, "centralizer dimension law over all fusion-closed subsets", ok)


def test_criterion_03_su2_4_worked_example():
    t0 = time.perf_counter()
    hat = families.su2(4)
    rep = check_minimal_extension(hat, [0, 2, 4])
    ok = rep.minimal and rep.dim_identity_ok
    ok &= abs(rep.dim_total - 12.0) < 1e-9 and abs(rep.dim_sub * rep.dim_center - 12.0) < 1e-8

    even = hat.restrict([0, 2, 4])
    center = muger_center(even)
    ok &= center.degenerate == (0, 2) and center.is_even and center.is_pointed
    ok &= center.group_table.tolist() == [[0, 1], [1, 0]]

    cond = condense(even)
    ok &= cond.status == "unique" and len(cond.labels) == 3
    d = cond.data
    omega = np.exp(2j * np.pi / 3)
    ok &= bool(np.abs(d.dims - 1.0).max() < 1e-9)
    ok &= bool(np.abs(d.theta_values - np.array([1.0, omega, omega])).max() < 1e-9)
    ok &= abs(d.total_dim - 3.0) < 1e-9
    ok &= equivalent_up_to_relabelling(d, families.pointed_cyclic(3, 2))
    elapsed = time.perf_counter() - t0
    ok &= elapsed < 1.0
    _report(3, "SU(2)_4 worked example (minimality, center, condensation), under 1 s", ok, elapsed)


def test_criterion_04_support_identity_all_pairs():
    hat = families.su2(4)
    pb = pairing_bracket(hat, [0, 2, 4], tol=1e-9)
    weighted = pb.table * hat.total_dim
    expected = np.where(pb.support, np.outer(hat.dims, hat.dims), 0.0)
    ok = bool(np.abs(weighted - expected).max() <= 1e-9 * max(1.0, float(expected.max())))
    _report(4, "weighted fusion-support identity on all 25 pairs", ok)


def test_criterion_05_rt_sanity():
    ok = True
    presentations = (plumbing([]), plumbing([1]), plumbing([-1]))
    for name, p in families.builtin_suite():
        if not p.sprime_invertible():
            continue
        d_inv = 1.0 / np.sqrt(p.total_dim)
        for g in presentations:
            ok &= abs(rt_invariant(p, g, tol=1e-9).value - d_inv) < 1e-9
        ok &= abs(rt_invariant(p, plumbing([0]), tol=1e-9).value - 1.0) < 1e-9
    _report(5, "tau(S^3) = 1/D in three presentations and tau(S^2 x S^1) = 1", ok)


def test_criterion_06_kirby_invariance():
    t0 = time.perf_counter()
    ok = True
    worst = 0.0
    for name, p in families.builtin_suite():
        if not p.sprime_invertible() or p.rank > 10:
            continue
        rng = random.Random(2026)
        for _ in range(200):
            g = random_forest(rng, max_vertices=6)
            base = rt_invariant(p, g).value
            for h in kirby_moves(g):
                dev = abs(rt_invariant(p, h).value - base)
                worst = max(worst, dev)
                ok &= dev <= 1e-8 * max(1.0, abs(base))
    elapsed = time.perf_counter() - t0
    ok &= elapsed < 120.0
    _report(6, f"blow-up/blow-down invariance, 200 forests per builtin (worst {worst:.2e})",
            ok, elapsed)


def test_criterion_07_bracket_descent():
    even = families.su2(4).restrict([0, 2, 4])
    cond = condense(even)
    ok = cond.status == "unique"
    for g in (HOPF, plumbing([1]), plumbing([-1]), chain([-2, -2, -2])):
        r = bracket_descent_check(even, g, cond, tol=1e-8)
        ok &= r.passed and not r.skipped
    _report(7, "bracket descends with factor |G|^n through condensation", ok)


def test_criterion_08_turaev_factorization():
    ok = True
    graphs = [plumbing([p]) for p in range(1, 8)] + [e8_plumbing(), chain([-2, -2, -2])]
    for name in ("su2:3", "ising", "fibonacci"):
        hat = families.builtin(name)
        for g in graphs:
            # the E8 graph exceeds the default |labels|^(2n) guard for su2:3
            # even though the factored contraction stays tiny; raise the cap
            r = factorization_check(hat, g, tol=1e-8, term_cap=1e12)
            ok &= r.passed
    _report(8, "double invariant factors as |tau|^2 on lens spaces, E8, and chains", ok)


def test_criterion_09_double_pipeline_cross_check():
    t0 = time.perf_counter()
    hat = families.su2(4)
    delta = [0, 2, 4]
    dd = double_data(hat, delta)
    ok = dd.status == "unique"
    for g in (plumbing([]), plumbing([1]), plumbing([-1]), HOPF, chain([-2, -2, -2])):
        lhs = tau_double(hat, delta, g, tol=1e-8).value
        rhs = rt_invariant(dd.data, g, tol=1e-8).value
        ok &= abs(lhs - rhs) <= 1e-8 * max(1.0, abs(lhs), abs(rhs))
    rng = random.Random(2026)
    for _ in range(50):
        g = random_forest(rng, max_vertices=4)
        base = tau_double(hat, delta, g).value
        for h in kirby_moves(g):
            dev = abs(tau_double(hat, delta, h).value - base)
            ok &= dev <= 1e-8 * max(1.0, abs(base))
    elapsed = time.perf_counter() - t0
    ok &= elapsed < 300.0
    _report(9, "factorized double invariant matches the condensed double and is move-invariant",
            ok, elapsed)


def test_criterion_10_verlinde_integrality():
    ok = True
    for name, p in families.builtin_suite():
        rm = is_modular(p)
        if not rm.modular:
            continue
        nver = verlinde_multiplicities(rm.s, p.unit)
        ok &= bool(np.abs(nver - p.fusion.tensor).max() < 1e-6)
    _report(10, "fusion multiplicities reconstructed from S within 1e-6", ok)
