import cmath
import dataclasses
import itertools
import os
import subprocess
import sys
import tracemalloc
import types
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import premodular
from premodular import families
from premodular.condense import (
    MinimalityError,
    ModularizationError,
    PairingBracket,
    ResolutionError,
    condense,
    degenerate_group,
    double_data,
    orbit_decomposition,
    pairing_bracket,
)
from premodular.double_rt import tau_double
from premodular.formats import condensed_to_doc, doc_sha256
from premodular.fusion import DEFAULT_TOL, FusionData, InconsistentDataError, deligne_product
from premodular.modular import (
    PremodularData,
    Twist,
    _degenerate_labels,
    centralizer,
    check_minimal_extension,
    is_modular,
    muger_center,
    premodular_from_twists,
    verify_premodular,
)
from premodular.plumbing import plumbing


def _even(k):
    return families.su2(k).restrict(range(0, k + 1, 2))


def equivalent_up_to_relabelling(a, b, tol=1e-8):
    """Try every unit-preserving bijection matching dual, d, theta, and S'."""
    if a.rank != b.rank:
        return False
    for perm in itertools.permutations(range(a.rank)):
        if perm[b.unit] != a.unit:
            continue
        image = b.relabelled(list(perm))
        if image.fusion.dual != a.fusion.dual:
            continue
        if not np.array_equal(image.fusion.tensor, a.fusion.tensor):
            continue
        if np.abs(image.dims - a.dims).max() > tol:
            continue
        if max(abs(x.value - y.value) for x, y in zip(image.theta, a.theta)) > tol:
            continue
        if np.abs(image.sprime - a.sprime).max() > tol:
            continue
        return True
    return False


class TestDegenerateGroup:
    def test_integer_spins_give_z2(self, even_su2_4):
        labels, table = degenerate_group(even_su2_4)
        assert labels == (0, 2)
        assert table.tolist() == [[0, 1], [1, 0]]

    def test_modular_input_trivial_group(self, su2_4):
        labels, table = degenerate_group(su2_4)
        assert labels == (0,)

    def test_su2_2_even_part_rejected_not_even(self):
        p = families.su2(2).restrict([0, 2])
        with pytest.raises(ModularizationError, match="not even"):
            degenerate_group(p)

    def test_rejections_name_the_labels(self, even_su2_4):
        with pytest.raises(ModularizationError) as exc:
            degenerate_group(families.su2(2).restrict([0, 2]))
        assert str(exc.value) == ("transparent subcategory is not even (twist != 1 at 2); "
                                  "modularization is undefined")
        p = premodular_from_twists(even_su2_4.fusion, [1.0, 1.0, 1.0], dims=even_su2_4.dims)
        with pytest.raises(ModularizationError) as exc:
            degenerate_group(p)
        assert str(exc.value) == "transparent subcategory is not pointed (dimension > 1 at 2)"

    def test_non_pointed_center_rejected(self, even_su2_4):
        # the same fusion ring with all twists 1 makes every label transparent,
        # including the two-dimensional one
        p = premodular_from_twists(even_su2_4.fusion, [1.0, 1.0, 1.0], dims=even_su2_4.dims)
        with pytest.raises(ModularizationError, match="not pointed"):
            degenerate_group(p)


class TestOrbitDecomposition:
    def test_integer_spins_of_su2_4(self, even_su2_4):
        dec = orbit_decomposition(even_su2_4)
        shapes = [(o.members, len(o.stabilizer)) for o in dec.orbits]
        assert shapes == [((0, 2), 1), ((1,), 2)]
        for o in dec.orbits:
            assert len(o.members) * len(o.stabilizer) == dec.group_order

    def test_modular_input_singleton_orbits(self, su2_4):
        dec = orbit_decomposition(su2_4)
        assert all(o.members == (o.representative,) and o.sheet_count == 1 for o in dec.orbits)

    def test_su2_8_integer_spins(self):
        p = families.su2(8).restrict([0, 2, 4, 6, 8])
        dec = orbit_decomposition(p)
        # restricted labels 0..4 stand for source labels 0,2,4,6,8
        shapes = [(o.members, len(o.stabilizer)) for o in dec.orbits]
        assert shapes == [((0, 4), 1), ((1, 3), 1), ((2,), 2)]


def _center_per_entry(p, tol):
    """The transparent labels read one S' entry at a time, evenness and
    pointedness one label at a time, and the group table one product at a time."""
    n, names = p.rank, p.names
    dims, sprime = p.dims.tolist(), p.sprime.tolist()
    cut = tol * max(1.0, float(np.sum(p.dims**2)))
    deg = tuple(a for a in range(n) if max(abs(sprime[a][b] - dims[a] * dims[b]) for b in range(n)) <= cut)
    is_even = all(abs(p.theta[a].approx - 1.0) <= tol for a in deg)
    is_pointed = all(abs(dims[a] - 1.0) <= tol for a in deg)
    table = None
    if is_pointed:
        pos = {a: i for i, a in enumerate(deg)}
        table = np.zeros((len(deg), len(deg)), dtype=int)
        for a in deg:
            for b in deg:
                row = p.fusion.tensor[a, b].tolist()
                prods = [c for c, m in enumerate(row) if m != 0]
                if len(prods) != 1 or prods[0] not in pos or row[prods[0]] != 1:
                    raise InconsistentDataError(
                        f"pointed degenerate labels do not fuse like a group at ({names[a]}, {names[b]})"
                    )
                table[pos[a], pos[b]] = pos[prods[0]]
    return deg, is_even, is_pointed, table


def muger_center_per_entry(p, tol=1e-9):
    """Oracle for `muger_center`."""
    deg, is_even, is_pointed, table = _center_per_entry(p, tol)
    return deg, is_even, is_pointed, _table(table)


def degenerate_group_per_entry(p, tol=1e-9):
    """Oracle for `degenerate_group`: the center, then each precondition's error in turn."""
    deg, _, _, table = _center_per_entry(p, tol)
    if p.unit not in deg:
        raise InconsistentDataError(
            f"the unit {p.names[p.unit]!r} is not transparent (its dimension is "
            f"{p.dims[p.unit]:.6g}): S' and the dimensions are inconsistent"
        )
    odd = [p.names[a] for a in deg if not abs(p.theta[a].approx - 1) <= tol]
    if odd:
        raise ModularizationError(
            f"transparent subcategory is not even (twist != 1 at {', '.join(odd)}); modularization is undefined"
        )
    large = [p.names[a] for a in deg if not abs(p.dims[a] - 1) <= tol]
    if large:
        raise ModularizationError(f"transparent subcategory is not pointed (dimension > 1 at {', '.join(large)})")
    return deg, table


def _table(table):
    return None if table is None else (table.tolist(), table.dtype.str)


def _center(p):
    c = muger_center(p)
    return c.degenerate, c.is_even, c.is_pointed, _table(c.group_table)


def _group(p):
    group, table = degenerate_group(p)
    return group, _table(table)


def _group_per_entry(p):
    group, table = degenerate_group_per_entry(p)
    return group, _table(table)


def _orbits(p):
    dec = orbit_decomposition(p)
    return dec.group_labels, _table(dec.group_table), [(o.representative, o.members, o.stabilizer) for o in dec.orbits]


def orbits_per_entry(p, tol=1e-9):
    """Oracle: the group action read one product at a time, and the twist and
    S' rows compared one orbit member at a time."""
    group, table = degenerate_group_per_entry(p, tol=tol)
    act = {}
    for g in group:
        row_targets = []
        for x in range(p.rank):
            row = p.fusion.tensor[g, x].tolist()
            targets = [c for c, m in enumerate(row) if m != 0]
            if len(targets) != 1 or row[targets[0]] != 1:
                raise InconsistentDataError(
                    f"invertible label {p.names[g]} does not permute the label set"
                )
            row_targets.append(targets[0])
        act[g] = row_targets
    seen, orbits = set(), []
    for x in range(p.rank):
        if x in seen:
            continue
        members = sorted({act[g][x] for g in group})
        stab = tuple(g for g in group if act[g][x] == x)
        if len(members) * len(stab) != len(group):
            raise InconsistentDataError(
                f"orbit of {p.names[x]} has size {len(members)} with stabilizer "
                f"{len(stab)} in a group of order {len(group)}"
            )
        seen.update(members)
        orbits.append((members[0], tuple(members), stab))
    for r, members, _ in orbits:
        for m in members:
            if abs(p.theta[m].approx - p.theta[r].approx) > tol:
                raise InconsistentDataError(f"twist not constant on the orbit of {p.names[r]}")
            dev = max(abs(x - y) for x, y in zip(p.sprime[m].tolist(), p.sprime[r].tolist()))
            if dev > tol * max(1.0, float(np.sum(p.dims**2))):
                raise InconsistentDataError(
                    f"S' rows differ across the orbit of {p.names[r]} (deviation {dev:.3g})"
                )
    return group, _table(table), orbits


def _outcome(fn, p):
    """What ``fn(p)`` returns, or the type and text of what it raises."""
    try:
        return fn(p)
    except Exception as exc:
        return type(exc).__name__, str(exc)


def _oracle_inputs():
    even4 = _even(4)
    yield from ((f"even(su2:{k})", _even(k)) for k in range(2, 17))
    yield from families.builtin_suite()
    yield from ((f"conj({name})", p.conjugate()) for name, p in families.builtin_suite())
    for expr in ("pointed:6:0", "pointed:6:3", "pointed:8:4", "prod(pointed:2:0,ising)",
                 "prod(pointed:4:0,su2:2)", "prod(su2:4,pointed:3:0)"):
        yield expr, families.builtin(expr)
    yield "prod(even(su2:4),even(su2:4))", families.product(even4, even4)
    yield "prod(even(su2:8),su2:1)", families.product(_even(8), families.su2(1))


def _assert_center_and_orbits_match_oracles(p, name=None):
    assert _outcome(_center, p) == _outcome(muger_center_per_entry, p), name
    assert _outcome(_group, p) == _outcome(_group_per_entry, p), name
    assert _outcome(_orbits, p) == _outcome(orbits_per_entry, p), name


def test_orbits_and_group_table_match_per_entry_oracle():
    for name, p in _oracle_inputs():
        _assert_center_and_orbits_match_oracles(p, name)
        # a transparent label's S' row moved to either side of the cut
        cut = DEFAULT_TOL * max(1.0, float(np.sum(p.dims**2)))
        for g in muger_center_per_entry(p)[0]:
            for by in (0.5 * cut, 2 * cut):
                _assert_center_and_orbits_match_oracles(_mutated(p, sprime=[((g, p.rank - 1), by)]), name)


def _mutated(p, *, cells=(), twists=(), sprime=()):
    """``p`` with tensor cells and twists replaced and S' entries shifted, unchecked."""
    t, theta, sp = p.fusion.tensor.copy(), list(p.theta), p.sprime.copy()
    for cell, m in cells:
        t[cell] = m
    for i, tw in twists:
        theta[i] = tw
    for cell, z in sprime:
        sp[cell] += z
    f = FusionData(names=p.names, unit=p.unit, dual=p.fusion.dual, tensor=t)
    return PremodularData(fusion=f, dims=p.dims, theta=tuple(theta), sprime=sp)


_NOT_A_GROUP = "pointed degenerate labels do not fuse like a group at (4, 4)"


# even(su2:4) has labels 0, 2, 4 and the group {0, 4}; even(su2:8) has labels
# 0, 2, ..., 8, the group {0, 8} and the free orbit {2, 6}
@pytest.mark.parametrize(
    "k, change, text",
    [
        (4, {"cells": [((2, 1, 0), 1)]}, "invertible label 4 does not permute the label set"),
        (4, {"cells": [((2, 1, 1), 2)]}, "invertible label 4 does not permute the label set"),
        (4, {"cells": [((2, 1, 0), 1), ((2, 1, 2), -1)]}, "invertible label 4 does not permute the label set"),
        (8, {"twists": [(3, Twist.from_turns(1, 3))]}, "twist not constant on the orbit of 2"),
        (8, {"sprime": [((3, 1), 0.5)]}, "S' rows differ across the orbit of 2 (deviation 0.5)"),
        (4, {"cells": [((2, 2, 1), 1)]}, _NOT_A_GROUP),
        (4, {"cells": [((2, 2, 0), 0), ((2, 2, 1), 1)]}, _NOT_A_GROUP),
    ],
    ids=["two-targets", "multiplicity-2", "three-targets-summing-to-1", "twist", "sprime", "two-products",
         "leaves-the-group"],
)
def test_inconsistent_orbit_data_keeps_its_error(k, change, text):
    p = _mutated(_even(k), **change)
    with pytest.raises(InconsistentDataError) as err:
        orbit_decomposition(p)
    assert str(err.value) == text
    _assert_center_and_orbits_match_oracles(p)


def test_action_that_is_not_a_group_action_fails_the_orbit_size_gate():
    # on pointed:3:0 every label is transparent; label 1 made to fix every label
    # still permutes them, but 0's orbit {0, 2} and stabilizer {0, 1} miss |G| = 3
    cells = [(cell, m) for x in range(3) for cell, m in (((1, x, (x + 1) % 3), 0), ((1, x, x), 1))]
    p = _mutated(families.pointed_cyclic(3, 0), cells=cells)
    with pytest.raises(InconsistentDataError) as err:
        orbit_decomposition(p)
    assert str(err.value) == "orbit of 0 has size 2 with stabilizer 2 in a group of order 3"
    _assert_center_and_orbits_match_oracles(p)


_ORBIT_BASES = dict(_oracle_inputs())


@given(st.sampled_from(sorted(_ORBIT_BASES)), st.data())
@settings(max_examples=300, deadline=None)
def test_mutated_orbit_data_raises_what_the_oracle_raises(name, data):
    p = _ORBIT_BASES[name]
    label = st.integers(0, p.rank - 1)
    cell = st.tuples(label, label, label)
    # sixth roots of unity, and twists and shifts on either side of the tolerances
    twist = st.integers(0, 5).map(lambda j: Twist.from_turns(j, 6)) | st.sampled_from(
        [Twist.from_complex(cmath.exp(1j * x)) for x in (1e-12, 1e-6)])
    shift = st.sampled_from([0.0, 1.0, -2.5, 1j, 1e-12, 5e-8, 1e-6])
    change = data.draw(st.fixed_dictionaries({}, optional={
        "cells": st.lists(st.tuples(cell, st.integers(-1, 2)), max_size=2),
        "twists": st.lists(st.tuples(label, twist), max_size=2),
        "sprime": st.lists(st.tuples(st.tuples(label, label), shift), max_size=2),
    }))
    q = _mutated(p, **change)
    _assert_center_and_orbits_match_oracles(q)


def condensed_sprime_per_entry(c):
    """Oracle: the condensed S' filled one upper-triangle entry at a time, with
    the sheet block of a fixed orbit taken from the result."""
    p, labels = c.source, c.labels
    sheets = {o.representative: o.sheet_count for o in c.decomposition.orbits}
    out = np.empty((len(labels), len(labels)), dtype=complex)
    for i, la in enumerate(labels):
        for j in range(i, len(labels)):
            a, b = la.source, labels[j].source
            out[i, j] = out[j, i] = p.sprime[a, b] / max(sheets[a], sheets[b])
    split = [i for i, lab in enumerate(labels) if sheets[lab.source] > 1]
    out[np.ix_(split, split)] = c.solutions[0].sprime[np.ix_(split, split)]
    return out


@pytest.mark.parametrize("source", [4, 8, 12, 16, 20, "pointed:4:0", "prod(pointed:2:0,ising)",
                                    "prod(pointed:4:0,su2:2)"])  # an integer k is even(su2:k)
def test_condensed_sprime_matches_per_entry_oracle(source):
    p = _even(source) if isinstance(source, int) else families.builtin(source)
    c = condense(p)
    assert c.status == "unique"
    assert c.solutions[0].sprime.tobytes() == condensed_sprime_per_entry(c).tobytes()


@pytest.mark.parametrize("source", [4, 8, 12, 16, 20, 24, "pointed:2:0", "pointed:8:4", "prod(pointed:2:0,ising)",
                                    "prod(pointed:4:0,su2:2)"])  # an integer k is even(su2:k)
def test_condensed_data_holds_what_fresh_data_computes(source):
    # the candidate's cached slots are filled from the values its assembly holds
    p = _even(source) if isinstance(source, int) else families.builtin(source)
    q = condense(p).data
    f = q.fusion
    fresh = PremodularData(fusion=FusionData(names=q.names, unit=q.unit, dual=f.dual, tensor=f.tensor),
                           dims=q.dims, theta=q.theta, sprime=q.sprime)
    for held, computed in ((q.__dict__["_s"], fresh._s), (q.__dict__["theta_values"], fresh.theta_values),
                           (f.__dict__["_float_tensor"], fresh.fusion._float_tensor)):
        assert (held.dtype, held.shape, held.tobytes()) == (computed.dtype, computed.shape, computed.tobytes())
        assert not held.flags.writeable
    assert q.__dict__["total_dim"].hex() == fresh.total_dim.hex()


class TestCondense:
    def test_su2_4_even_part(self, even_su2_4):
        c = condense(even_su2_4)
        assert c.status == "unique"
        assert [lab.name for lab in c.labels] == ["0", "2#1", "2#2"]
        d = c.data
        assert np.allclose(d.dims, 1.0, atol=1e-9)
        omega = np.exp(2j * np.pi / 3)
        assert np.abs(d.theta_values - np.array([1, omega, omega])).max() < 1e-9
        assert d.total_dim == pytest.approx(3.0, abs=1e-9)
        assert verify_premodular(d).passed
        assert is_modular(d).modular
        assert equivalent_up_to_relabelling(d, families.pointed_cyclic(3, 2))

    def test_modular_input_is_identity(self, su2_4):
        c = condense(su2_4)
        assert c.status == "unique" and c.group_order == 1
        assert np.abs(c.data.sprime - su2_4.sprime).max() == 0

    def test_transparent_z2_factor_peels_off(self):
        mix = families.product(families.pointed_cyclic(2, 0), families.semion())
        c = condense(mix)
        assert c.status == "unique"
        assert equivalent_up_to_relabelling(c.data, families.semion())

    def test_dim_drops_by_group_order(self, even_su2_4):
        c = condense(even_su2_4)
        assert c.data.total_dim * c.group_order == pytest.approx(
            even_su2_4.total_dim, abs=1e-8
        )

    def test_condense_is_idempotent(self, even_su2_4):
        once = condense(even_su2_4).data
        twice = condense(once)
        assert twice.group_order == 1
        assert np.abs(twice.data.sprime - once.sprime).max() == 0

    def test_su2_8_even_part_resolves_to_fibonacci_square(self):
        p = families.su2(8).restrict([0, 2, 4, 6, 8])
        c = condense(p)
        assert c.status == "unique"
        fib_bar = families.conjugate(families.fibonacci())
        assert equivalent_up_to_relabelling(c.data, families.product(fib_bar, fib_bar))

    @pytest.mark.parametrize(
        "build",
        [pytest.param(lambda k=k: _even(k), id=f"even(su2:{k})") for k in range(4, 41, 4)]
        + [pytest.param(lambda k=k: _even(k).conjugate(), id=f"conj(even(su2:{k}))")
           for k in range(4, 41, 4)]
        + [pytest.param(lambda f=f: families.product(_even(4), families.builtin(f)),
                        id=f"prod(even(su2:4),{f})")
           for f in ("pointed:2:0", "pointed:3:0")],
    )
    def test_fixed_point_resolution(self, build):
        p = build()
        c = condense(p)
        assert c.status == "unique" and c.reason == ""
        d = c.data
        assert verify_premodular(d).passed
        assert is_modular(d).modular
        assert d.total_dim * c.group_order == pytest.approx(p.total_dim, rel=1e-10)
        if c.group_order > 2:
            assert equivalent_up_to_relabelling(d, families.pointed_cyclic(3, 2))

    @pytest.mark.parametrize(
        "build, shape",
        [
            (lambda: families.product(_even(4), families.fibonacci()), "fixed orbits: 2, stabilizer orders: 2, 2"),
            (lambda: families.product(_even(8), families.su2(1)), "fixed orbits: 2, stabilizer orders: 2, 2"),
            (lambda: families.product(_even(4), _even(4)), "fixed orbits: 3, stabilizer orders: 2, 2, 4"),
        ],
        ids=["even(su2:4)xfibonacci", "even(su2:8)xsu2:1", "even(su2:4)xeven(su2:4)"],
    )
    def test_unresolved_shape_gives_reason(self, build, shape):
        c = condense(build())
        assert c.status == "unresolved" and c.solutions == ()
        assert c.best_residual == float("inf")
        assert c.reason.startswith(shape)
        with pytest.raises(ResolutionError, match=shape):
            c.data

    def test_rejecting_gate_is_named(self, even_su2_4, monkeypatch):
        rejected = types.SimpleNamespace(modular=False, residual=0.5)
        monkeypatch.setattr(premodular.condense, "is_modular", lambda p, tol: rejected)
        c = condense(even_su2_4)
        assert c.status == "unresolved"
        assert c.reason == "candidate rejected by the modularity gate"
        with pytest.raises(ResolutionError, match="modularity gate"):
            c.data

    @pytest.mark.parametrize("a, b, gate", [
        (1, cmath.exp(1j * cmath.pi / 3), "Verlinde integrality"),
        (-2, 2, "positivity"),
        (-2, 0, "dual pairing"),
        (1, -1, "premodular checks (sprime:balancing)"),
    ])
    def test_each_candidate_gate_is_named(self, even_su2_4, monkeypatch, a, b, gate):
        # the sheet block (a S'_ff ones + b x eps eps^T) / 4 in place of the resolved one (a = b = 1)
        resolved = premodular.condense._fixed_point_block

        def block(p, f, dim_new):
            s_ff = p.sprime[f, f]
            x = 4 * resolved(p, f, dim_new)[0, 0] - s_ff
            return np.array([[a * s_ff + b * x, a * s_ff - b * x], [a * s_ff - b * x, a * s_ff + b * x]]) / 4

        monkeypatch.setattr(premodular.condense, "_fixed_point_block", block)
        c = condense(even_su2_4)
        assert (c.status, c.reason) == ("unresolved", f"candidate rejected by the {gate} gate")

    def test_sheet_names_that_repeat_a_label_fail_the_assembly_gate(self, even_su2_4):
        # the unit named "2#1" keeps that name on its free orbit, and the fixed label 2's sheets are 2#1 and 2#2
        p = dataclasses.replace(even_su2_4, fusion=dataclasses.replace(even_su2_4.fusion, names=("2#1", "2", "4")))
        c = condense(p)
        assert c.reason == "candidate rejected by the fusion assembly (duplicate label names) gate"

    def test_condensed_dimension_gate(self):
        # even(su2:8) with d(6) raised by 1/2, and the S' rows of the group {0, 8} raised to match:
        # every orbit check passes, but the condensed labels read d(2) for the orbit {2, 6}
        p = _even(8)
        d, sp = p.dims.copy(), p.sprime.copy()
        d[3] += 0.5
        sp[[0, 4], 3] += 0.5
        with pytest.raises(InconsistentDataError,
                           match=r"^condensed dimension 13.0901699437 times group order 2 deviates from 29.0483738762$"):
            condense(dataclasses.replace(p, dims=d, sprime=sp))

    def test_orbit_map(self, even_su2_4):
        c = condense(even_su2_4)
        assert c.orbit_map() == {"0": "0", "4": "0", "2": ["2#1", "2#2"]}


def _heavier_simple_current(su2_4, by):
    """su2:4 with d(4) raised by ``by`` and S'(4, b) = d(4) d(b) on the even labels, which
    keeps 4 transparent to them."""
    d, sp = su2_4.dims.copy(), su2_4.sprime.copy()
    d[4] += by
    sp[4, [0, 2, 4]] = sp[[0, 2, 4], 4] = d[4] * d[[0, 2, 4]]
    return dataclasses.replace(su2_4, dims=d, sprime=sp)


class TestDoubleData:
    def test_su2_4_integer_spins(self, su2_4):
        dd = double_data(su2_4, [0, 2, 4])
        assert dd.status == "unique"
        d = dd.data
        assert d.rank == 8
        assert d.total_dim == pytest.approx(36.0, abs=1e-8)
        assert sorted(np.round(d.dims, 6)) == [1.0, 1.0, 2.0, 2.0, 2.0, 2.0, 3.0, 3.0]
        assert is_modular(d).modular

    def test_whole_category_reproduces_product_exactly(self):
        hat = families.su2(3)
        dd = double_data(hat, range(hat.rank))
        prod = families.product(hat, families.conjugate(hat))
        assert dd.data.fusion.same_ring(prod.fusion)
        assert np.abs(dd.data.sprime - prod.sprime).max() == 0
        assert all(
            abs(a.value - b.value) < 1e-15 for a, b in zip(dd.data.theta, prod.theta)
        )

    def test_su2_12_integer_spins(self):
        hat = families.su2(12)
        tracemalloc.start()
        try:
            dd = double_data(hat, range(0, 13, 2))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # R has 85 labels, so an 85^3 tensor; the product with the conjugate has 13^6 cells
        assert peak < 30e6
        assert dd.status == "unique"
        assert dd.data.total_dim == pytest.approx(_even(12).total_dim ** 2, rel=1e-10)
        assert is_modular(dd.data).modular

    def test_unit_only_subcategory_rejected(self, su2_4):
        with pytest.raises(MinimalityError, match="not minimal"):
            double_data(su2_4, [0])

    def test_non_even_center_rejected(self):
        p = families.su2(2)
        with pytest.raises(MinimalityError, match="even and pointed"):
            double_data(p, [0, 2])

    def test_non_even_center_names_the_label(self):
        with pytest.raises(MinimalityError) as exc:
            double_data(families.su2(2), [0, 2])
        assert str(exc.value) == ("transparent part of the subcategory must be even and pointed "
                                  "for the double (twist != 1 at 2)")

    def test_pairing_gates_run_for_the_double(self):
        # d(1) off by 1e-8 keeps minimality within tolerance, but [1, 1] = (d0 + d2) / dim
        # misses d(1)^2 / dim: both routes to the double stop at the same pairing gate
        hat = families.su2(4)
        dims = hat.dims.copy()
        dims[1] += 1e-8
        bad = dataclasses.replace(hat, dims=dims)
        gate = "pairing table violates the all-or-nothing support identity"
        assert check_minimal_extension(bad, [0, 2, 4]).passed
        with pytest.raises(InconsistentDataError, match=gate):
            double_data(bad, [0, 2, 4])
        with pytest.raises(InconsistentDataError, match=gate):
            tau_double(bad, [0, 2, 4], plumbing([]))

    @pytest.mark.parametrize("by, calls, error, message", [
        (2e-6, (pairing_bracket,), MinimalityError,
         "extension is not minimal: dimension 12.000004 differs from "
         "dim(sub) * dim(transparent part) = 6.000004 * 2.000004"),
        (1e-5, (pairing_bracket, centralizer), InconsistentDataError,
         "centralizer dimension 2.0000200001 deviates from dim/dim(sub) = 1.99999666666"),
    ], ids=["dimension-identity", "centralizer-dimension-law"])
    def test_heavier_simple_current_fails_a_dimension_gate(self, su2_4, by, calls, error, message):
        # the centralizer is still the transparent part, but its dimension is off by about
        # 2 by, which the dimension identity measures times dim(sub) = 6
        hat = _heavier_simple_current(su2_4, by)
        for call in calls:
            with pytest.raises(error) as err:
                call(hat, [0, 2, 4])
            assert str(err.value) == message

    @pytest.mark.parametrize("by, pointed", [(2e-9, False), (3e-10, True)])
    def test_pointedness_is_cut_at_tol(self, su2_4, by, pointed):
        # the transparent part {0, 4} stays even and is pointed while |d(4) - 1| <= tol;
        # R's group label (4,4) has d(4)^2, also within tol at 3e-10
        hat = _heavier_simple_current(su2_4, by)
        assert check_minimal_extension(hat, [0, 2, 4]).center_pointed is pointed
        if pointed:
            assert double_data(hat, [0, 2, 4]).status == "unique"
            assert degenerate_group(hat.restrict([0, 2, 4]))[0] == (0, 2)
            return
        with pytest.raises(MinimalityError) as err:
            double_data(hat, [0, 2, 4])
        assert str(err.value) == ("transparent part of the subcategory must be even and pointed "
                                  "for the double (dimension > 1 at 4)")
        with pytest.raises(ModularizationError) as err:
            degenerate_group(hat.restrict([0, 2, 4]))
        assert str(err.value) == "transparent subcategory is not pointed (dimension > 1 at 4)"

    @pytest.mark.parametrize("cells, message", [
        ([((1, 3, 0), 1)], "pairing table is not symmetric (deviation 0.0833)"),
        ([((1, 1, 2), -1)], "pairing table has a negative entry"),
    ], ids=["symmetry", "negativity"])
    def test_pairing_table_gates_are_named(self, su2_4, cells, message):
        # 1 x 3 given a unit channel, or 1 x 1 a negative channel 2: table[1, 3] or table[1, 1]
        hat = _mutated(su2_4, cells=cells)
        for call in (pairing_bracket, double_data):
            with pytest.raises(InconsistentDataError) as err:
                call(hat, [0, 2, 4])
            assert str(err.value) == message

    def test_centralizer_dimension_gate(self, su2_4, monkeypatch):
        # a transparent part of one label expects dim R = dim(hat)^2 = 144; R has 144 / 2
        pb = pairing_bracket(su2_4, [0, 2, 4])
        one = dataclasses.replace(pb, report=dataclasses.replace(pb.report, degenerate_labels=(0,)))
        monkeypatch.setattr(premodular.condense, "pairing_bracket", lambda hat, delta, tol: one)
        with pytest.raises(InconsistentDataError, match=r"^centralizer dimension 72 deviates from dim/dim\(sub\) = 144$"):
            double_data(su2_4, [0, 2, 4])

    def test_embedded_group_gate(self, su2_4, monkeypatch):
        # R's condensed group read as {(0,0), (0,4)}: the diagonal image of G is {(0,0), (4,4)}
        def off_diagonal(p, tol):
            cond = condense(p, tol=tol)
            group = (p.names.index("(0,0)"), p.names.index("(0,4)"))
            return dataclasses.replace(cond, decomposition=dataclasses.replace(cond.decomposition, group_labels=group))

        monkeypatch.setattr(premodular.condense, "condense", off_diagonal)
        with pytest.raises(InconsistentDataError,
                           match="^transparent part of the restricted product does not match the embedded group$"):
            double_data(su2_4, [0, 2, 4])

    def test_double_dimension_gate(self, su2_4, monkeypatch):
        # a condensation resolved to su2:4 itself, of dimension 12 where dim(sub)^2 = 36
        monkeypatch.setattr(premodular.condense, "condense",
                            lambda p, tol: dataclasses.replace(condense(p, tol=tol), solutions=(su2_4,)))
        with pytest.raises(InconsistentDataError, match="^double dimension 12 deviates from 36$"):
            double_data(su2_4, [0, 2, 4])

    def test_pairing_bracket_lives_with_the_double(self):
        assert premodular.pairing_bracket is pairing_bracket is premodular.double_rt.pairing_bracket
        assert premodular.PairingBracket is PairingBracket is premodular.double_rt.PairingBracket


def deligne_product_oracle(a, b):
    """Oracle: the product ring by one einsum over both tensors, labels in row-major pair order."""
    n, nb = a.rank * b.rank, b.rank
    return FusionData(
        names=tuple(f"({x},{y})" for x in a.names for y in b.names),
        unit=a.unit * nb + b.unit,
        dual=tuple(a.dual[i] * nb + b.dual[j] for i in range(a.rank) for j in range(nb)),
        tensor=np.einsum("abc,uvw->aubvcw", a.tensor, b.tensor).reshape(n, n, n),
    )


def product_oracle(a, b):
    """Oracle: the product data, with Kronecker dims and S' and the twists multiplied pairwise."""
    return PremodularData(
        fusion=deligne_product_oracle(a.fusion, b.fusion), dims=np.kron(a.dims, b.dims),
        theta=tuple(ta * tb for ta in a.theta for tb in b.theta), sprime=np.kron(a.sprime, b.sprime),
    )


def restricted_product_oracle(hat, delta):
    """Oracle: R through the product with the conjugate copy, the centralizer
    of the embedded diagonal transparent group, and the restriction to it."""
    prod = product_oracle(hat, hat.conjugate())
    embedded = [s * hat.rank + s for s in check_minimal_extension(hat, delta).degenerate_labels]
    return prod.restrict(centralizer(prod, embedded))


def _bitwise(p):
    """Every field of premodular data, arrays as bytes."""
    return (
        p.names, p.unit, p.fusion.dual, p.fusion.tensor.dtype.str, p.fusion.tensor.tobytes(),
        p.dims.tobytes(), tuple(t.turns for t in p.theta), p.theta_values.tobytes(), p.sprime.tobytes(),
    )


def _complex_fibonacci():
    fib = families.fibonacci()
    return dataclasses.replace(fib, theta=tuple(Twist.from_complex(t.approx) for t in fib.theta))


# suite members, with a conjugate, a degenerate pointed factor, and twists given as complex numbers
PRODUCT_FACTORS = {
    name: (lambda name=name: families.builtin(name))
    for name in ["su2:3", "conj(su2:3)", "pointed:2:0", "pointed:3:2", "fibonacci", "ising", "prod(fibonacci,ising)"]
}
PRODUCT_FACTORS["complex fibonacci"] = _complex_fibonacci


@pytest.mark.parametrize("x, y", list(itertools.product(PRODUCT_FACTORS, repeat=2)))
def test_products_are_bitwise_the_einsum_and_kron_oracle(x, y):
    a, b = PRODUCT_FACTORS[x](), PRODUCT_FACTORS[y]()
    oracle = product_oracle(a, b)
    prod = families.product(a, b)
    assert _bitwise(prod) == _bitwise(oracle)
    assert _bitwise(dataclasses.replace(oracle, fusion=deligne_product(a.fusion, b.fusion))) == _bitwise(oracle)
    assert any(t.turns is None for t in prod.theta) == ("complex fibonacci" in (x, y))


SUBCATEGORY_PAIRS = {
    "even(su2:4)xeven(su2:8)": ("su2:4", [0, 2, 4], "su2:8", [0, 2, 4, 6, 8]),
    "{1}xising": ("fibonacci", [0], "ising", [0, 1, 2]),
    "even(su2:4)xfibonacci": ("su2:4", [0, 2, 4], "fibonacci", [0, 1]),
}


@pytest.mark.parametrize("case", sorted(SUBCATEGORY_PAIRS))
def test_data_on_subcategory_pairs_is_the_restricted_product(case):
    x, sub_a, y, sub_b = SUBCATEGORY_PAIRS[case]
    a, b = families.builtin(x), families.builtin(y)
    ia, ib = np.repeat(sub_a, len(sub_b)), np.tile(sub_b, len(sub_a))
    expected = families.product(a, b).restrict((ia * b.rank + ib).tolist())
    assert _bitwise(a._on_pairs(b, ia, ib)) == _bitwise(expected)


RESTRICTED_PRODUCT_CASES = {
    "even(su2:4)": ("su2:4", [0, 2, 4]),
    "even(su2:8)": ("su2:8", [0, 2, 4, 6, 8]),
    "even(su2:12)": ("su2:12", list(range(0, 13, 2))),
    "su2:3": ("su2:3", None),
    "fibonacci": ("fibonacci", None),
    "ising": ("ising", None),
    "Rep(Z2) in DS": ("prod(pointed:2:1,pointed:2:3)", ["(0,0)", "(1,1)"]),
    "even(su2:4)xfibonacci": ("prod(su2:4,fibonacci)", [f"({a},{b})" for a in (0, 2, 4) for b in ("1", "tau")]),
}


@pytest.mark.parametrize("case", sorted(RESTRICTED_PRODUCT_CASES))
def test_restricted_product_is_bitwise_the_product_pipeline(case):
    expr, delta = RESTRICTED_PRODUCT_CASES[case]
    hat = families.builtin(expr)
    delta = range(hat.rank) if delta is None else delta
    dd = double_data(hat, delta)
    oracle = restricted_product_oracle(hat, delta)
    assert _bitwise(dd.source) == _bitwise(oracle)
    if case == "even(su2:4)xfibonacci":
        assert dd.source.rank == 52 and dd.status == "unresolved"
    else:
        assert dd.status == "unique"
        assert doc_sha256(condensed_to_doc(dd)) == doc_sha256(condensed_to_doc(condense(oracle)))


def test_rank_169_restricted_product_is_the_centralizer_of_the_diagonal():
    # The product with the conjugate has 625 labels and a 2 GB n^6 tensor, so the
    # centralizer rule is applied to its Kronecker S' and the product's formulas
    # to the centralizer's labels.
    hat = families.builtin("prod(su2:4,su2:4)")
    delta = [f"({a},{b})" for a in (0, 2, 4) for b in (0, 2, 4)]
    dd = double_data(hat, delta)
    n, r = hat.rank, dd.source
    sp, d = np.kron(hat.sprime, hat.sprime.conj()), np.kron(hat.dims, hat.dims)
    embedded = [s * n + s for s in check_minimal_extension(hat, delta).degenerate_labels]
    prod_like = types.SimpleNamespace(sprime=sp, dims=d, total_dim=float(np.sum(d**2)))
    cent = list(_degenerate_labels(prod_like, DEFAULT_TOL, embedded))
    ia, ib = np.divmod(cent, n)
    dual = hat.fusion.dual

    def pair(a, b):
        return f"({hat.names[a]},{hat.names[b]})"

    theta = [ta * tb for ta in hat.theta for tb in hat.conjugate().theta]
    t = hat.fusion.tensor

    assert dd.status == "unresolved" and r.rank == 169
    assert r.names == tuple(pair(a, b) for a, b in zip(ia, ib))
    assert r.names[r.unit] == pair(hat.unit, hat.unit)
    assert [r.names[i] for i in r.fusion.dual] == [pair(dual[a], dual[b]) for a, b in zip(ia, ib)]
    assert np.array_equal(r.fusion.tensor, t[np.ix_(ia, ia, ia)] * t[np.ix_(ib, ib, ib)])
    assert r.dims.tobytes() == d[cent].tobytes()
    assert list(r.theta) == [theta[c] for c in cent]
    assert r.sprime.tobytes() == sp[np.ix_(cent, cent)].tobytes()


def _assert_all_or_nothing(hat, delta):
    """``[eta, zeta] * dim(hat)`` is ``d(eta) d(zeta)`` on the support and 0 off it."""
    pb = pairing_bracket(hat, delta)
    weighted = pb.table * hat.total_dim
    expected = np.where(pb.support, np.outer(hat.dims, hat.dims), 0.0)
    assert np.abs(weighted - expected).max() <= 1e-12 * max(1.0, float(expected.max()))
    return pb, weighted


class TestFusionSupport:
    def test_worked_values(self, su2_4):
        pb, weighted = _assert_all_or_nothing(su2_4, [0, 2, 4])
        assert pb.support[2, 2] and weighted[2, 2] == pytest.approx(4.0, abs=1e-12)
        assert not pb.support[0, 1] and weighted[0, 1] == 0.0
        assert pb.support[0, 0] and weighted[0, 0] == pytest.approx(1.0, abs=1e-12)

    def test_all_pairs(self, su2_4):
        _assert_all_or_nothing(su2_4, [0, 2, 4])

    def test_whole_category_always_full_support(self, su2_4):
        pb, _ = _assert_all_or_nothing(su2_4, range(5))
        assert pb.support.all()


class TestCondensableSweep:
    def test_every_condensable_builtin_condenses_consistently(self):
        condensed_any = 0
        for name, p in families.builtin_suite():
            try:
                degenerate_group(p)
            except ModularizationError:
                continue
            c = condense(p)
            assert c.status == "unique", name
            assert c.data.total_dim * c.group_order == pytest.approx(
                p.total_dim, abs=1e-8 * max(1.0, p.total_dim)
            ), name
            assert verify_premodular(c.data).passed, name
            assert is_modular(c.data).modular, name
            if c.group_order > 1:
                condensed_any += 1
        assert condensed_any >= 3  # the trivial-form pointed categories at least

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_fully_transparent_pointed_condenses_to_trivial(self, n):
        c = condense(families.pointed_cyclic(n, 0))
        assert c.status == "unique"
        assert equivalent_up_to_relabelling(c.data, families.trivial())


class TestSecondMinimalExtension:
    def test_su2_8_integer_spins(self):
        from premodular.modular import check_minimal_extension

        hat = families.su2(8)
        evens = [0, 2, 4, 6, 8]
        rep = check_minimal_extension(hat, evens)
        assert rep.passed and rep.center_even and rep.center_pointed
        assert set(rep.degenerate_labels) == {0, 8}
        _assert_all_or_nothing(hat, evens)


def test_import_does_not_load_scipy():
    code = "import sys, premodular; print('scipy' in sys.modules)"
    env = {**os.environ, "PYTHONPATH": str(Path(premodular.__file__).parents[1])}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True)
    assert out.stdout.strip() == "False"


def test_condense_and_plumbing_are_modules():
    assert isinstance(premodular.condense, types.ModuleType)
    assert isinstance(premodular.plumbing, types.ModuleType)
    assert premodular.condense.double_data is double_data
