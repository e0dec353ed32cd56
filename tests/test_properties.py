"""Property-based checks over randomly generated inputs."""

import cmath
import itertools
import math
import random
import re
import struct
from dataclasses import replace
from fractions import Fraction
from functools import cache
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import premodular
from premodular import double_rt, families
from premodular.fusion import (
    DEFAULT_TOL,
    ClosureError,
    FusionData,
    InconsistentDataError,
    _FACTOR_MIN_RANK,
    _deligne_factors,
    _exact_dtype,
    _take,
    deligne_product,
    full_subcategory,
    perron_frobenius_dims,
    validate_fusion,
)
from premodular.modular import (
    MinimalityReport,
    PremodularData,
    Twist,
    _balanced_sprime,
    _require_transparent_unit,
    _row_multiplicativity_dev,
    _twist_powers,
    centralizer,
    check_minimal_extension,
    is_modular,
    muger_center,
    premodular_from_twists,
    verify_premodular,
)
from premodular.plumbing import (
    PlumbingError,
    PlumbingGraph,
    _forest_signature,
    bracket,
    kirby_moves,
    linking_matrix,
    plumbing,
    random_forest,
    rt_invariant,
    signature,
)


@st.composite
def pointed_parameters(draw):
    n = draw(st.integers(min_value=1, max_value=8))
    step = 1 if n % 2 == 0 else 2
    q = draw(st.integers(min_value=0, max_value=2 * n - 1).filter(lambda q: (q * n) % 2 == 0))
    return n, q


@given(pointed_parameters())
@settings(max_examples=60, deadline=None)
def test_every_admissible_quadratic_form_is_premodular(params):
    n, q = params
    p = families.pointed_cyclic(n, q)
    report = verify_premodular(p)
    assert report.passed, [str(c) for c in report.failures()]
    # invertibility of the bilinear-form matrix is a gcd condition
    assert is_modular(p).modular == (math.gcd(q % n if n > 1 else 1, n) == 1)


@given(st.integers(min_value=0, max_value=10**6))
@settings(max_examples=40, deadline=None)
def test_bracket_invariant_under_vertex_relabelling(seed):
    rng = random.Random(seed)
    g = random_forest(rng, max_vertices=5)
    p = families.su2(2)
    base = bracket(p, g).value
    order = list(range(g.n))
    rng.shuffle(order)
    renamed = {v: f"w{order[i]}" for i, (v, _) in enumerate(g.vertices)}
    h = plumbing(
        [(renamed[v], m) for v, m in g.vertices],
        [(renamed[u], renamed[v]) for u, v in g.edges],
    )
    assert abs(bracket(p, h).value - base) < 1e-10 * max(1.0, abs(base))


@given(st.integers(min_value=0, max_value=10**6), st.integers(min_value=1, max_value=6))
@settings(max_examples=60, deadline=None)
def test_signature_matches_floating_eigenvalues(seed, n):
    rng = np.random.default_rng(seed)
    m = rng.integers(-4, 5, size=(n, n))
    m = m + m.T
    eig = np.linalg.eigvalsh(m.astype(float))
    if np.abs(eig).min() < 1e-6 and np.any(np.abs(eig) > 0) and np.abs(eig).min() != 0.0:
        return  # numerically ambiguous zero; the exact route is authoritative
    expect = int(np.sum(eig > 1e-9)) - int(np.sum(eig < -1e-9))
    assert signature(m) == expect


def twist_power(t, m):
    """Oracle: ``theta**m`` for one twist, reducing rational turns exactly before the exponential."""
    if t.turns is not None:
        return cmath.exp(2j * cmath.pi * ((t.turns * m) % 1))
    return t.approx**m


@given(
    st.fractions(min_value=-4, max_value=4, max_denominator=48),
    st.integers(min_value=-5, max_value=5),
)
@settings(max_examples=80, deadline=None)
def test_twist_powers_track_complex_arithmetic(turns, m):
    t = Twist.from_turns(turns)
    assert abs(twist_power(t, m) - t.value**m) < 1e-10
    assert abs((t * t.conjugate()).value - 1.0) < 1e-12


_BIG_PRIME = 10**10 + 19  # k * m overflows int64 for turns k / _BIG_PRIME


@given(
    st.lists(
        st.one_of(
            st.fractions(min_value=-4, max_value=4, max_denominator=48),
            st.floats(min_value=-1, max_value=1),
        ),
        min_size=1,
        max_size=8,
    ),
    st.lists(st.integers(min_value=-60, max_value=60), max_size=6),
    st.integers(min_value=-3, max_value=3),
)
@example(turns=[Fraction(_BIG_PRIME - 2, _BIG_PRIME), Fraction(1, 3), 0.25],
         framings=[_BIG_PRIME - 1, -(_BIG_PRIME // 2), 7], shift=2)
@example(turns=[Fraction(0), Fraction(10**9 + 7, _BIG_PRIME), Fraction(-5, 12)],
         framings=[10**30 + 1, -(10**30) - 7, 10**30 - 3], shift=-3)
@settings(max_examples=80, deadline=None)
def test_twist_table_matches_scalar_powers(turns, framings, shift):
    # mixed exact and floating twists; each row of the block is one framing
    theta = tuple(
        Twist.from_turns(x) if isinstance(x, Fraction)
        else Twist.from_complex(cmath.exp(2j * cmath.pi * x))
        for x in turns
    )
    p = replace(families.pointed_cyclic(len(theta), 0), theta=theta)
    block = _twist_powers(p, framings)
    assert block.shape == (len(framings), len(theta))
    for row, m in zip(block, framings):
        # rational turns k/q reduced in Python ints, then one exponential
        expect = [
            t.approx**m if t.turns is None
            else cmath.exp(2j * cmath.pi * ((t.turns.numerator * m) % t.turns.denominator / t.turns.denominator))
            for t in theta
        ]
        assert np.abs(row - expect).max() < 1e-12
    # a shift by a multiple of the common denominator leaves every rational column bitwise fixed
    denom = math.lcm(*(t.turns.denominator for t in theta if t.turns is not None))
    exact = [i for i, t in enumerate(theta) if t.turns is not None]
    shifted = _twist_powers(p, [m + shift * denom for m in framings])
    assert shifted[:, exact].tobytes() == block[:, exact].tobytes()


def twist_powers_on_python_ints(p, framings):
    """Oracle: `_twist_powers` with every phase reduced on Python ints, whatever their size."""
    nums, denom, approx = p._twist_table
    phase = np.array([[(n * m) % denom for n in nums] for m in framings]).reshape(len(framings), p.rank)
    out = np.exp(2j * np.pi * (phase / denom))
    for i, z in approx:
        out[:, i] = [z**m for m in framings]
    return out


@given(
    st.lists(
        st.one_of(
            st.fractions(min_value=-4, max_value=4, max_denominator=48),
            st.integers(1, _BIG_PRIME - 1).map(lambda k: Fraction(k, _BIG_PRIME)),
            st.floats(min_value=-1, max_value=1),
        ),
        min_size=1,
        max_size=6,
    ),
    st.lists(st.one_of(st.integers(-60, 60), st.integers(-(10**18), 10**18)), max_size=5),
)
# both tiers at framings of 10**18: int64 below 2**62, Python ints beyond
@example(turns=[Fraction(0), Fraction(5, 12), Fraction(1, 3)], framings=[10**18, -(10**18), 7])
@example(turns=[Fraction(0), Fraction(_BIG_PRIME - 1, _BIG_PRIME)], framings=[10**18, -(10**18) + 1])
@example(turns=[Fraction(0), Fraction(1, 2)], framings=[])
@settings(max_examples=80, deadline=None)
def test_twist_powers_are_bitwise_the_python_int_reduction(turns, framings):
    theta = tuple(
        Twist.from_turns(x) if isinstance(x, Fraction) else Twist.from_complex(cmath.exp(2j * cmath.pi * x))
        for x in turns
    )
    p = replace(families.pointed_cyclic(len(theta), 0), theta=theta)
    got, expect = _twist_powers(p, framings), twist_powers_on_python_ints(p, framings)
    assert got.shape == expect.shape and got.dtype == expect.dtype
    assert got.tobytes() == expect.tobytes()


@cache
def suite_rings():
    return dict(families.builtin_suite())


def dense_associativity(f, dtype=np.int64):
    """Oracle: the n^4 tensors of both bracketings, first maximum in (a, b, c, d) order."""
    t = f.tensor.astype(dtype)
    dev = np.abs(np.einsum("abe,ecd->abcd", t, t) - np.einsum("bcf,afd->abcd", t, t))
    witness = None
    if dev.any():
        witness = tuple(f.names[i] for i in np.unravel_index(int(dev.argmax()), dev.shape))
    return not dev.any(), witness, float(dev.max())


@given(st.sampled_from(sorted(suite_rings())), st.data())
@settings(max_examples=80, deadline=None)
def test_associativity_check_matches_dense_oracle(name, data):
    f = suite_rings()[name].fusion
    t = f.tensor.copy()
    index = st.integers(min_value=0, max_value=f.rank - 1)
    for _ in range(data.draw(st.integers(min_value=1, max_value=3))):
        t[data.draw(st.tuples(index, index, index))] += data.draw(st.sampled_from([1, 2]))
    raised = FusionData(names=f.names, unit=f.unit, dual=f.dual, tensor=t)
    check = validate_fusion(raised)["axiom:associativity"]
    assert (check.passed, check.witness, check.residual) == dense_associativity(raised)


# -- associativity on the factors of a Deligne product ------------------------------


def dense_report(f):
    """Oracle: the report with associativity checked on the whole ring, never on factors."""
    with mock.patch("premodular.fusion._FACTOR_MIN_RANK", math.inf):
        return _report_bits(validate_fusion(f))


def _report_bits(report):
    return [(c.name, c.passed, c.witness, c.residual.hex()) for c in report]


def _relabelled(f, seed):
    return _take(f, np.random.default_rng(seed).permutation(f.rank).tolist())


# products of two suite rings from the crossover rank to 49, where the dense oracle stays cheap
_FACTOR_PAIRS = tuple(
    (a, b) for a, p in sorted(suite_rings().items()) for b, q in sorted(suite_rings().items())
    if _FACTOR_MIN_RANK <= p.rank * q.rank <= 49
)


def _broken_ising():
    """Ising with sigma x sigma = 1 + 2 eps, which is not associative."""
    f = suite_rings()["ising"].fusion
    t = f.tensor.copy()
    t[f.index("sigma"), f.index("sigma"), f.index("eps")] = 2
    return FusionData(names=f.names, unit=f.unit, dual=f.dual, tensor=t)


@given(pair=st.sampled_from(_FACTOR_PAIRS), seed=st.integers(0, 2**32 - 1))
@example(pair=("su2:4", "su2:4"), seed=0)  # the fusion rings of prod(su2:k,conj(su2:k)), ranks 25 and 49
@example(pair=("su2:6", "su2:6"), seed=1)
@settings(max_examples=40, deadline=None)
def test_detector_finds_the_factors_of_relabelled_products(pair, seed):
    p, q = (suite_rings()[x] for x in pair)
    f = _relabelled(deligne_product(p.fusion, q.fusion), seed)
    A, B, phi = _deligne_factors(f)
    assert A.size * B.size == f.rank and set(A) & set(B) == {f.unit}
    assert sorted(phi.ravel()) == list(range(f.rank))
    assert deligne_product(_take(f, A), _take(f, B)).same_ring(_take(f, phi.ravel()))
    assert _report_bits(validate_fusion(f)) == dense_report(f)


@pytest.mark.parametrize("name", ["su2:8", "pointed:8:4", "su2:6", "su2:24", "prod(su2:8,trivial)"])
def test_detector_finds_no_factors_of_an_unfactored_ring(name):
    f = families.builtin(name).fusion
    assert _deligne_factors(f) is None
    assert _report_bits(validate_fusion(f)) == dense_report(f)


def test_a_ring_whose_labels_generate_nothing_has_no_factors():
    f = FusionData(names=tuple(map(str, range(24))), unit=0, dual=tuple(range(24)), tensor=np.zeros((24,) * 3, int))
    assert _deligne_factors(f) is None
    assert _report_bits(validate_fusion(f)) == dense_report(f)


def _frobenius_orbit(f, cell):
    """The cells that Frobenius reciprocity ties to ``cell``: (a,b,c) ~ (b*,a*,c*) ~ (a*,c,b)."""
    d, orbit, todo = f.dual, set(), [cell]
    while todo:
        a, b, c = todo.pop()
        if (a, b, c) not in orbit:
            orbit.add((a, b, c))
            todo += [(d[b], d[a], d[c]), (d[a], c, b)]
    return orbit


@given(pair=st.sampled_from(_FACTOR_PAIRS), seed=st.integers(0, 2**32 - 1),
       symmetric=st.booleans(), data=st.data())
@settings(max_examples=40, deadline=None)
def test_mutated_products_report_what_the_dense_check_reports(pair, seed, symmetric, data):
    p, q = (suite_rings()[x] for x in pair)
    f = _relabelled(deligne_product(p.fusion, q.fusion), seed)
    t = f.tensor.copy()
    index = st.integers(min_value=0, max_value=f.rank - 1)
    for _ in range(data.draw(st.integers(min_value=1, max_value=3))):
        cell, step = data.draw(st.tuples(index, index, index)), data.draw(st.sampled_from([-1, 1, 2]))
        for c in _frobenius_orbit(f, cell) if symmetric else [cell]:
            t[c] += step
    mutated = FusionData(names=f.names, unit=f.unit, dual=f.dual, tensor=t)
    assert _report_bits(validate_fusion(mutated)) == dense_report(mutated)


def test_a_broken_factor_gives_the_dense_witness():
    # the Kronecker structure holds, so the factors are found, but one is not associative
    f = _relabelled(deligne_product(_broken_ising(), suite_rings()["su2:8"].fusion), 7)
    assert f.rank >= _FACTOR_MIN_RANK and _deligne_factors(f) is not None
    report = validate_fusion(f)
    check = report["axiom:associativity"]
    assert (check.passed, check.witness, check.residual) == dense_associativity(f)
    assert _report_bits(report) == dense_report(f)


@pytest.mark.parametrize("name", [*sorted(suite_rings()), "prod(su2:4,conj(su2:4))"])
def test_row_multiplicativity_matches_einsum(name):
    p = families.builtin(name)
    t, d, sp = p.fusion.tensor.astype(float), p.dims, p.sprime
    expect = sp[:, :, None] * sp[:, None, :] / d[:, None, None] - np.einsum("bce,ae->abc", t, sp)
    got = _row_multiplicativity_dev(t, d, sp)
    assert np.abs(got - expect).max() <= 1e-12 * max(1.0, float(np.abs(expect).max()))


def row_multiplicative_entry(p, tol=DEFAULT_TOL):
    """Oracle: ``sprime:row_multiplicative`` from one direct evaluation on the data's own S'."""
    dev = np.abs(_row_multiplicativity_dev(p.fusion.tensor.astype(float), p.dims, p.sprime))
    resid = float(dev.max())
    cut = tol * max(1.0, float(np.abs(p.sprime).max()))
    witness = None
    if resid > cut:
        witness = tuple(p.names[i] for i in np.unravel_index(int(dev.argmax()), dev.shape))
    return resid <= cut, witness, resid


@cache
def row_multiplicativity_inputs():
    data = dict(suite_rings())
    data.update({f"conj({name})": p.conjugate() for name, p in suite_rings().items()})
    for a, b in (("su2:3", "ising"), ("pointed:4:2", "fibonacci"), ("su2:2", "conj(su2:3)")):
        data[f"prod({a},{b})"] = families.product(suite_rings()[a], suite_rings()[b])
    data["prod(su2:4,conj(su2:4))"] = families.builtin("prod(su2:4,conj(su2:4))")
    return data


@given(name=st.sampled_from(sorted(row_multiplicativity_inputs())),
       mutate=st.sampled_from(["twist", "sprime"]), data=st.data())
@settings(max_examples=120, deadline=None)
def test_row_multiplicative_entry_reads_the_datas_own_sprime(name, mutate, data):
    p = row_multiplicativity_inputs()[name]
    f, label = p.fusion, st.integers(0, p.rank - 1)
    if mutate == "twist":
        theta = list(p.theta)
        i = data.draw(label)
        theta[i] = theta[i] * Twist.from_turns(data.draw(st.integers(1, 11)), 12)
        th = np.array([t.value for t in theta])
        sp = _balanced_sprime(f.tensor.astype(float), list(f.dual), th, p.dims)
    else:
        theta, sp = p.theta, p.sprime.copy()
        sp[data.draw(label), data.draw(label)] += data.draw(st.sampled_from([1e-12, 1e-3, -0.5, 1j]))
    # the source's entry first, so that a cache shared across the fusion ring would be read stale
    for q in (
        p,
        premodular_from_twists(f, p.theta, dims=p.dims, sprime=p.sprime),  # evaluated by assembly
        PremodularData(fusion=f, dims=p.dims, theta=theta, sprime=sp),
    ):
        check = verify_premodular(q)["sprime:row_multiplicative"]
        assert (check.passed, check.witness, check.residual) == row_multiplicative_entry(q)


# -- the premodular report and the fusion structure checks, entry by entry ----------


def verify_premodular_per_entry(p, tol=DEFAULT_TOL):
    """Oracle: ``verify_premodular``'s report bits, one absolute value, maximum and
    witness per entry, with the balanced S' evaluated afresh."""
    row_resid, row_ix = p._row_multiplicativity
    d, sp = p.dims, p.sprime
    th = np.array([t.value for t in p.theta], dtype=complex)
    nm, dual = p.names, list(p.fusion.dual)
    t = p.fusion.tensor.astype(float)
    scale = max(1.0, float(np.abs(sp).max()))
    checks = []

    def record(name, resid, where, witness_axes):
        wit = tuple(nm[i] for i in where()[:witness_axes]) if resid > tol * scale else None
        checks.append((name, resid <= tol * scale, wit, resid.hex()))

    def entry(name, dev, witness_axes):
        a = np.abs(dev)
        record(name, float(a.max()), lambda: np.unravel_index(int(a.argmax()), a.shape), witness_axes)

    entry("dims:unit", np.array([d[p.unit] - 1.0]), 0)
    entry("dims:dual", d[dual] - d, 1)
    entry("dims:positive", np.minimum(d - 1.0, 0.0), 1)
    entry("dims:multiplicative", np.outer(d, d) - np.einsum("abc,c->ab", t, d), 2)
    entry("twist:unit_modulus", np.abs(th) - 1.0, 1)
    entry("twist:unit", np.array([th[p.unit] - 1.0]), 0)
    entry("twist:dual", th[dual] - th, 1)
    entry("sprime:symmetric", sp - sp.T, 2)
    entry("sprime:unit_row", sp[p.unit] - d, 1)
    entry("sprime:conjugate_row", sp[dual, :] - sp.conj(), 2)
    record("sprime:row_multiplicative", row_resid, lambda: row_ix, 3)
    balanced = np.einsum("abc,c->ab", t[dual], th * d) / np.outer(th, th)
    entry("sprime:balancing", sp - balanced, 2)
    g = p.gauss_sums()
    if p.sprime_invertible(tol=tol):
        entry("gauss:product", np.array([g.delta_plus * g.delta_minus - g.dim]), 0)
        entry("gauss:modulus", np.array([abs(g.delta_plus) - g.total]), 0)
    else:
        checks += [(name, True, "skipped: S' singular", (0.0).hex()) for name in ("gauss:product", "gauss:modulus")]
    return checks


def fusion_structure_per_entry(f):
    """Oracle: the report bits of ``validate_fusion``'s checks before associativity,
    by ``np.array_equal`` against an identity matrix and ``np.ix_`` gathers."""
    n, u, t = f.rank, f.unit, f.tensor
    neg = np.argwhere(t < 0)
    eye = np.eye(n, dtype=int)
    unit_ok = np.array_equal(t[u], eye) and np.array_equal(t[:, u, :], eye)
    unit_wit = None
    if not unit_ok:
        bad = np.argwhere(t[u] != eye)
        if bad.size:
            unit_wit = ("unit", f.names[bad[0][0]], f.names[bad[0][1]])
        else:
            bad = np.argwhere(t[:, u, :] != eye)
            unit_wit = (f.names[bad[0][0]], "unit", f.names[bad[0][1]])
    dual = np.asarray(f.dual)
    frob1 = t[np.ix_(dual, dual, dual)].transpose(1, 0, 2)
    frob2 = t[dual].transpose(0, 2, 1)
    frob_ok = np.array_equal(t, frob1) and np.array_equal(t, frob2)
    frob_wit = None
    if not frob_ok:
        frob_dev = np.abs(t - frob1) + np.abs(t - frob2)
        frob_wit = tuple(f.names[i] for i in np.unravel_index(int(frob_dev.argmax()), frob_dev.shape))
    checks = [
        ("structure:labels", len(set(f.names)) == n and n > 0, None),
        ("structure:multiplicities", neg.size == 0, tuple(f.names[i] for i in neg[0]) if neg.size else None),
        ("structure:dual_bijective", sorted(f.dual) == list(range(n)), None),
        ("axiom:unit", unit_ok, unit_wit),
        ("axiom:dual_involution", bool(np.all(dual[dual] == np.arange(n)) and dual[u] == u), None),
        ("axiom:frobenius_reciprocity", frob_ok, frob_wit),
    ]
    return [(name, passed, wit, (0.0).hex()) for name, passed, wit in checks]


_MUTATIONS = ("none", "negative", "unit", "dual", "frobenius", "dims", "twist", "sprime", "nan twist")


def _mutated(p, kind, data):
    """``p`` with one defect of ``kind``, built directly so that no constructor check rejects it."""
    label = st.integers(0, p.rank - 1)
    t, dual, dims, theta, sp = p.fusion.tensor.copy(), list(p.fusion.dual), p.dims.copy(), list(p.theta), p.sprime.copy()
    if kind == "negative":
        t[data.draw(st.tuples(label, label, label))] = -data.draw(st.integers(1, 3))
    elif kind == "unit":
        b, c = data.draw(label), data.draw(label)
        if data.draw(st.booleans()):
            t[p.unit, b, c] += 1
        else:
            t[b, p.unit, c] += 1
    elif kind == "dual":
        dual[data.draw(label)] = data.draw(label)
    elif kind == "frobenius":
        t[data.draw(st.tuples(label, label, label))] += data.draw(st.integers(1, 2))
    elif kind == "dims":
        dims[data.draw(label)] += data.draw(st.sampled_from([1e-12, 1e-3, -0.5, 2.0]))
    elif kind == "twist":
        i = data.draw(label)
        theta[i] = theta[i] * Twist.from_turns(data.draw(st.integers(1, 11)), 12)
    elif kind == "sprime":
        sp[data.draw(label), data.draw(label)] += data.draw(st.sampled_from([1e-12, 1e-3, -0.5, 1j]))
    elif kind == "nan twist":  # Twist.from_complex refuses NaN; the data constructor takes what it is given
        theta[data.draw(label)] = Twist(turns=None, approx=complex(math.nan, data.draw(st.sampled_from([0.0, 1.0]))))
    f = FusionData(names=p.names, unit=p.unit, dual=tuple(dual), tensor=t)
    return PremodularData(fusion=f, dims=dims, theta=tuple(theta), sprime=sp)


def _assert_reports_match_oracles(q):
    # the library first, with nothing cached, under the session's warning filters
    report, fusion_report, r = verify_premodular(q), validate_fusion(q.fusion), is_modular(q)
    with np.errstate(invalid="ignore"):  # the oracles' own arithmetic on a twist that is not finite
        expected, oracle = verify_premodular_per_entry(q), modularity_per_root(q)
    assert _report_bits(report) == expected
    assert _report_bits(fusion_report)[:6] == fusion_structure_per_entry(q.fusion)
    assert (r.modular, r.residual.hex(), r.singular_ratio) == (oracle[0], oracle[1].hex(), oracle[2])


@given(name=st.sampled_from(sorted(row_multiplicativity_inputs())), kind=st.sampled_from(_MUTATIONS), data=st.data())
@settings(max_examples=200, deadline=None)
def test_reports_are_bitwise_their_per_entry_oracles(name, kind, data):
    _assert_reports_match_oracles(_mutated(row_multiplicativity_inputs()[name], kind, data))


@pytest.mark.filterwarnings("error")
def test_a_nan_twist_fails_without_a_witness():
    # and without a warning: complex division by NaN raises the invalid flag
    p = suite_rings()["ising"]
    for imag in (0.0, 1.0):
        q = replace(p, theta=(p.theta[0], Twist(turns=None, approx=complex(math.nan, imag)), p.theta[2]))
        _assert_reports_match_oracles(q)
        nan = [c for c in verify_premodular(q) if math.isnan(c.residual)]
        assert {c.name for c in nan} == {"twist:unit_modulus", "twist:dual", "sprime:balancing",
                                         "gauss:product", "gauss:modulus"}
        assert all(not c.passed and c.witness is None for c in nan)
        r = is_modular(q)
        assert math.isnan(r.residual) and not r.modular


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("z", [complex(math.inf, 0.0), complex(-math.inf, 1.0), complex(0.0, math.inf),
                               complex(math.inf, math.inf), complex(math.inf, math.nan)])
def test_an_infinite_twist_fails_without_a_warning(z):
    # inf * 0 and inf - inf raise the invalid flag in the twists' products and differences
    p = suite_rings()["ising"]
    assert p.names[2] == "sigma"
    q = replace(p, theta=(*p.theta[:2], Twist(turns=None, approx=z)))
    _assert_reports_match_oracles(q)
    failed = {c.name: c for c in verify_premodular(q) if not c.passed}
    assert set(failed) == {"twist:unit_modulus", "twist:dual", "sprime:balancing", "gauss:product", "gauss:modulus"}
    assert (failed["twist:unit_modulus"].residual, failed["twist:unit_modulus"].witness) == (math.inf, ("sigma",))
    assert all(c.witness is None for c in failed.values() if math.isnan(c.residual))
    r = is_modular(q)
    assert math.isnan(r.residual) and not r.modular


def test_a_vanishing_gauss_sum_is_not_modular():
    # a half turn on one twist of Z4 makes delta_plus exactly 0, which has no phase
    p = families.builtin("conj(pointed:4:1)")
    q = replace(p, theta=(*p.theta[:3], p.theta[3] * Twist.from_turns(1, 2)))
    assert q.gauss_sums().delta_plus == 0
    _assert_reports_match_oracles(q)
    assert not is_modular(q).modular


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("negative", [False, True], ids=["nonnegative", "signed"])
@pytest.mark.parametrize(
    "limit, below, above",
    [(2**24, np.float32, np.float64), (2**53, np.float64, np.int64), (2**63, np.int64, object)],
    ids=["2**24", "2**53", "2**63"],
)
def test_each_dtype_tier_matches_dense_oracle(limit, below, above, negative, seed):
    # n * max|N|^2 just below and just above each limit (halved for signed
    # entries, whose bracketings can differ by twice as much); entries near
    # max|N| so that the sums reach the limit
    n = 3
    big = math.isqrt((limit - 1) // (n * (2 if negative else 1)))
    for m, dtype in ((big, below), (big + 1, above)):
        rng = np.random.default_rng(seed)
        t = rng.integers(m - 64, m + 1, size=(n, n, n))
        if negative:
            t *= rng.choice([-1, 1], size=t.shape)
        t[0, 0, 0] = m
        f = FusionData(names=("a", "b", "c"), unit=0, dual=(0, 1, 2), tensor=t)
        assert _exact_dtype(f.tensor) is dtype
        check = validate_fusion(f)["axiom:associativity"]
        # Python integers, so the oracle cannot wrap where int64 would
        assert (check.passed, check.witness, check.residual) == dense_associativity(f, object)


def modularity_per_root(p, tol=1e-9):
    """Oracle: every S, T relation evaluated for each of the three cube roots.

    Returns the decision and residual of the principal root, the singular
    value ratio, the kernel witness (None for modular data) and the residuals
    of the three roots (None when S' is singular).
    """
    n = p.rank
    c = np.zeros((n, n))
    c[np.arange(n), list(p.fusion.dual)] = 1.0
    _, sv, vh = np.linalg.svd(p.sprime)
    ratio = float(sv[-1] / sv[0]) if sv[0] > 0 else 0.0
    if ratio <= tol:
        return False, float("inf"), ratio, vh[-1].conj(), None
    g = p.gauss_sums()
    s = p.sprime / g.total
    phase = g.delta_plus / abs(g.delta_plus) if g.delta_plus else 1.0
    eye = np.eye(n)
    residuals = []
    for j in range(3):
        zeta = phase ** (1.0 / 3.0) * cmath.exp(2j * cmath.pi * j / 3)
        t = zeta * np.diag(p.theta_values)
        st_ = s @ t
        residuals.append(float(np.max([  # a NaN anywhere is the residual
            np.abs(s @ s - c).max(),
            np.abs(st_ @ st_ @ st_ - c).max(),
            np.abs(t @ c - c @ t).max(),
            np.abs(s @ s.conj().T - eye).max(),
            np.abs(t @ t.conj().T - eye).max(),
        ])))
    return residuals[0] <= tol * max(1.0, g.total), residuals[0], ratio, None, residuals


@cache
def modularity_inputs():
    rings = dict(suite_rings())
    rings.update({f"conj({name})": p.conjugate() for name, p in suite_rings().items()})
    for k in range(2, 17):
        rings[f"even(su2:{k})"] = families.su2(k).restrict(range(0, k + 1, 2))
    return rings


@pytest.mark.parametrize("name", sorted(modularity_inputs()))
def test_is_modular_matches_per_root_oracle(name):
    p = modularity_inputs()[name]
    r = is_modular(p)
    modular, residual, ratio, kernel, _ = modularity_per_root(p)
    assert (r.modular, r.residual, r.singular_ratio) == (modular, residual, ratio)
    assert (r.kernel is None) == (kernel is None)
    if kernel is not None:
        assert r.kernel.tobytes() == kernel.tobytes()


@pytest.mark.parametrize("name", sorted(modularity_inputs()))
def test_the_three_cube_roots_give_one_residual(name):
    # (S T)^3 carries zeta^3, one value for all three roots; no other relation sees the root
    residuals = modularity_per_root(modularity_inputs()[name])[-1]
    if residuals is not None:
        assert max(residuals) - min(residuals) <= 1e-14


def power_iteration_dims(f, tol=1e-12, max_iterations=10**5):
    """Oracle: the dimension vector by power iteration on ``M = sum_a N_a``.

    Rayleigh-quotient convergence control, then normalisation at the unit
    and the multiplicativity check.  None when the iteration reaches a zero
    or non-finite vector or does not converge, or when the vector is not
    strictly positive or not multiplicative.
    """
    m = f.tensor.sum(axis=0).astype(float)
    v = np.ones(f.rank) / np.sqrt(f.rank)
    for _ in range(max_iterations):
        w = m @ v
        norm = float(np.linalg.norm(w))
        if not 0 < norm < np.inf:
            return None
        lam = float(v @ w)
        converged = np.abs(w - lam * v).max() < tol * max(1.0, lam)
        v = w / norm
        if converged:
            break
    else:
        return None
    if not v[f.unit] > 0:
        return None
    d = v / v[f.unit]
    resid = np.abs(np.outer(d, d) - np.einsum("abc,c->ab", f.tensor, d)).max()
    if not resid <= 1e-8 * max(1.0, float(d.max()) ** 2) or not (d > 0).all():
        return None
    return d


@cache
def dimension_rings():
    rings = {name: p.fusion for name, p in modularity_inputs().items()}
    for expr in ("prod(fibonacci,ising)", "prod(su2:4,conj(su2:4))", "prod(su2:3,su2:5)"):
        rings[expr] = families.builtin(expr).fusion
    return rings


@given(
    name=st.sampled_from(sorted(dimension_rings())),
    cells=st.lists(st.tuples(st.integers(0, 10**6), st.integers(0, 3)), max_size=3),
)
@example(name="fibonacci", cells=[])
@example(name="fibonacci", cells=[(0, 0), (2, 1), (3, 0), (7, 0)])  # M = [[0, 1], [2, 0]], period 2
@settings(max_examples=150, deadline=None)
def test_dimensions_match_the_power_iteration_oracle(name, cells):
    # a ring, and the same ring with up to three multiplicities changed
    t = dimension_rings()[name].tensor.copy()
    for cell, value in cells:
        t.flat[cell % t.size] = value
    f = replace(dimension_rings()[name], tensor=t)
    expect = power_iteration_dims(f)
    if expect is None:
        with pytest.raises(InconsistentDataError):
            perron_frobenius_dims(f)
    else:
        assert np.abs(perron_frobenius_dims(f) / expect - 1).max() <= 1e-9


def _bits(z: complex) -> bytes:
    return struct.pack("<dd", z.real, z.imag)


@given(
    st.integers(min_value=-(10**15), max_value=10**15),
    st.integers(min_value=-(10**9), max_value=10**9).filter(bool),
)
@settings(max_examples=300, deadline=None)
def test_twist_from_turns_is_bitwise_the_fraction_formula(p, q):
    turns = Fraction(p, q) % 1
    expect = _bits(cmath.exp(2j * cmath.pi * turns))
    for tw in (Twist.from_turns(p, q), Twist.from_turns(Fraction(p, q))):
        assert tw.turns == turns
        assert _bits(tw.approx) == expect


def full_subcategory_per_pair(f, members):
    """Oracle: the closure check as a nested loop over member pairs."""
    idx = sorted({f.index(x) for x in members})
    mset = set(idx)
    if f.unit not in mset:
        raise ClosureError("subset does not contain the unit", (f.names[f.unit],))
    for a in idx:
        if f.dual[a] not in mset:
            raise ClosureError(
                f"subset not closed under duals at {f.names[a]}",
                (f.names[a], f.names[f.dual[a]]),
            )
    for a in idx:
        for b in idx:
            for c in np.nonzero(f.tensor[a, b])[0]:
                if int(c) not in mset:
                    raise ClosureError(
                        "subset not closed under fusion at "
                        f"({f.names[a]}, {f.names[b]}, {f.names[c]})",
                        (f.names[a], f.names[b], f.names[int(c)]),
                    )
    return tuple(idx)


def fusion_closure(f, generators):
    """The smallest full subcategory holding ``generators``."""
    inside = np.zeros(f.rank, dtype=bool)
    inside[[f.unit, *generators]] = True
    while True:
        grown = inside | inside[list(f.dual)] | f.tensor[inside][:, inside].any(axis=(0, 1))
        if (grown == inside).all():
            return np.flatnonzero(inside).tolist()
        inside = grown


LABEL_SET_PRODUCTS = (
    "prod(ising,ising)", "prod(fibonacci,conj(su2:5))", "prod(ising,pointed:5:2)",
    "prod(pointed:4:2,pointed:4:0)", "prod(su2:2,prod(fibonacci,ising))",
    "prod(su2:4,conj(su2:4))", "prod(su2:3,su2:8)", "prod(su2:6,conj(su2:6))",
)


@cache
def label_set_rings():
    """Suite rings, even(su2:k) and products of ranks 9 to 49."""
    rings = dict(suite_rings())
    for k in range(2, 13, 2):
        rings[f"even(su2:{k})"] = families.su2(k).restrict(range(0, k + 1, 2))
    rings.update((expr, families.builtin(expr)) for expr in LABEL_SET_PRODUCTS)
    return rings


@given(st.sampled_from(sorted(label_set_rings())), st.data())
@settings(max_examples=300, deadline=None)
def test_full_subcategory_matches_per_pair_oracle(name, data):
    f = label_set_rings()[name].fusion
    members = data.draw(st.sets(st.integers(min_value=0, max_value=f.rank - 1), max_size=f.rank))
    # raw subsets mostly fail at the unit or the duals; the other two reach the fusion check
    mode = data.draw(st.sampled_from(["raw", "unit and duals", "closed"]))
    if mode == "unit and duals":
        members = {f.unit, *members, *(f.dual[a] for a in members)}
    elif mode == "closed":
        members = fusion_closure(f, sorted(members))
    try:
        expect = full_subcategory_per_pair(f, members)
    except ClosureError as exc:
        with pytest.raises(ClosureError) as got:
            full_subcategory(f, members)
        assert (str(got.value), got.value.triple) == (str(exc), exc.triple)
    else:
        assert full_subcategory(f, members).members == expect


def take_per_entry(p, idx):
    """Oracle: the data on the labels ``idx`` of ``p``, read one entry at a time."""
    n = len(idx)
    tensor = np.zeros((n, n, n), dtype=int)
    sprime = np.zeros((n, n), dtype=complex)
    for i, a in enumerate(idx):
        for j, b in enumerate(idx):
            sprime[i, j] = p.sprime[a, b]
            for k, c in enumerate(idx):
                tensor[i, j, k] = p.fusion.tensor[a, b, c]
    return (
        tuple(p.names[a] for a in idx),
        idx.index(p.unit),
        tuple(idx.index(p.fusion.dual[a]) for a in idx),
        tensor.tobytes(),
        np.array([p.dims[a] for a in idx]).tobytes(),
        tuple((p.theta[a].turns, _bits(p.theta[a].approx)) for a in idx),
        sprime.tobytes(),
    )


def _label_set_data(q):
    return (
        q.names, q.unit, q.fusion.dual, q.fusion.tensor.tobytes(), q.dims.tobytes(),
        tuple((t.turns, _bits(t.approx)) for t in q.theta), q.sprime.tobytes(),
    )


@pytest.mark.parametrize("name", sorted(label_set_rings()))
def test_restrict_and_relabelled_are_bitwise_the_per_entry_take(name):
    p = label_set_rings()[name]
    perm = np.random.default_rng(p.rank).permutation(p.rank).tolist()
    assert _label_set_data(p.relabelled(perm)) == take_per_entry(p, perm)
    for sub in {tuple(fusion_closure(p.fusion, [a])) for a in range(p.rank)}:
        sub = list(sub)
        assert _label_set_data(p.restrict(sub)) == take_per_entry(p, sub)
        assert _label_set_data(p.restrict(full_subcategory(p.fusion, sub))) == take_per_entry(p, sub)


def check_minimal_extension_by_restriction(hat, delta, tol):
    """Oracle: the minimality report with the subcategory's transparent part
    taken as the Muger center of a restricted copy."""
    delta = full_subcategory(hat.fusion, delta)
    members = list(delta.members)
    restricted = hat.restrict(delta)
    sub_center = muger_center(restricted, tol=tol)
    _require_transparent_unit(restricted, sub_center)
    deg = tuple(members[i] for i in sub_center.degenerate)
    cent = centralizer(hat, delta, tol=tol)
    dim_total = hat.total_dim
    dim_sub = float(np.sum(hat.dims[members] ** 2))
    dim_center = float(np.sum(hat.dims[list(deg)] ** 2))
    return MinimalityReport(
        centralizer_labels=cent, degenerate_labels=deg, minimal=set(cent) == set(deg),
        dim_identity_ok=abs(dim_total - dim_sub * dim_center) <= 1e3 * tol * max(1.0, dim_total),
        dim_total=dim_total, dim_sub=dim_sub, dim_center=dim_center,
        center_even=sub_center.is_even, center_pointed=sub_center.is_pointed,
    )


def _outcome(fn, *args, **kwargs):
    """What ``fn`` returns, or the type and message of what it raises."""
    try:
        return fn(*args, **kwargs)
    except Exception as exc:
        return type(exc), str(exc)


def all_full_subcategories(f):
    """Every full subcategory of ``f``, each grown from a smaller one by one label."""
    found = {tuple(fusion_closure(f, []))}
    frontier = list(found)
    while frontier:
        sub = frontier.pop()
        for x in sorted(set(range(f.rank)) - set(sub)):
            grown = tuple(fusion_closure(f, [*sub, x]))
            if grown not in found:
                found.add(grown)
                frontier.append(grown)
    return sorted(found)


@cache
def minimality_cases():
    """Case name -> (data, members): every full subcategory of the suite, its conjugates,
    the even parts of su2:4/8/12 and two broken copies of su2:4."""
    cats = dict(suite_rings())
    cats.update((f"conj({name})", p.conjugate()) for name, p in suite_rings().items())
    for k in (4, 8, 12):
        cats[f"even(su2:{k})"] = families.su2(k).restrict(range(0, k + 1, 2))
    su2_4 = families.su2(4)
    # 4 x 4 = 0 + 2: the transparent part {0, 4} of {0, 2, 4} is pointed but fuses like no group
    tensor = su2_4.fusion.tensor.copy()
    tensor[4, 4, 2] = 1
    cats["su2:4 with 4x4>2"] = replace(su2_4, fusion=replace(su2_4.fusion, tensor=tensor))
    # the S' of su2:4 against doubled dimensions: the unit is transparent in no subcategory
    cats["su2:4 with doubled dims"] = replace(su2_4, dims=2 * su2_4.dims)
    return {f"{name} {list(members)}": (p, members)
            for name, p in cats.items() for members in all_full_subcategories(p.fusion)}


_MUTATED = ("su2:4 with 4x4>2 [0, 2, 4]", "su2:4 with doubled dims [0, 2, 4]")


@given(case=st.sampled_from(sorted(minimality_cases())),
       tol=st.sampled_from([1e-13, 1e-9, 1e-6, 1e-3, 0.1, 0.6]))
@example(case=_MUTATED[0], tol=1e-9)
@example(case=_MUTATED[1], tol=1e-9)
@settings(max_examples=300, deadline=None)
def test_minimality_report_is_the_restriction_oracle(case, tol):
    hat, members = minimality_cases()[case]
    assert _outcome(check_minimal_extension, hat, members, tol=tol) == _outcome(
        check_minimal_extension_by_restriction, hat, members, tol)


def test_every_full_subcategory_matches_the_restriction_oracle():
    outcomes = set()
    for hat, members in minimality_cases().values():
        got = _outcome(check_minimal_extension, hat, members, tol=DEFAULT_TOL)
        assert got == _outcome(check_minimal_extension_by_restriction, hat, members, DEFAULT_TOL)
        outcomes.add(got[0] if isinstance(got, tuple) else type(got))
    # reports, and the group-likeness and transparent-unit errors, are all compared
    assert outcomes == {MinimalityReport, InconsistentDataError}
    assert _outcome(check_minimal_extension, *minimality_cases()[_MUTATED[0]]) == (
        InconsistentDataError, "pointed degenerate labels do not fuse like a group at (4, 4)")
    assert _outcome(check_minimal_extension, *minimality_cases()[_MUTATED[1]])[1].startswith(
        "the unit '0' is not transparent")


# -- the plumbing forest: contraction order and Kirby neighbours ------------------


def _scaled(z, factor):
    return complex(z.real * factor, z.imag * factor)


def contract_forest_dfs(g, weights, edge_matrix, tree_factor):
    """Oracle: the depth-first contraction that rebuilt its adjacency on every call;
    ``weights`` holds one row per vertex in ``g.ids`` order, and each tree's
    sum is scaled by ``tree_factor``."""
    weights = dict(zip(g.ids, weights))
    adjacency = {v: [] for v in g.ids}
    for u, v in g.edges:
        adjacency[u].append(v)
        adjacency[v].append(u)
    for v in adjacency:
        adjacency[v].sort()
    total = 1.0 + 0.0j
    visited = set()
    for root in sorted(g.ids):
        if root in visited:
            continue
        message = {}
        stack = [(root, None, False)]
        while stack:
            node, par, expanded = stack.pop()
            if expanded:
                msg = weights[node].copy()
                for ch in adjacency[node]:
                    if ch != par:
                        msg = msg * (edge_matrix @ message.pop(ch))
                message[node] = msg
                visited.add(node)
            else:
                stack.append((node, par, True))
                for ch in adjacency[node]:
                    if ch != par:
                        stack.append((ch, node, False))
        total *= _scaled(complex(np.sum(message[root])), tree_factor)
    return total


def schedule_by_ids(g):
    """Oracle: the contraction order as ``(vertex, children, is_root)`` by id, each
    vertex after its children: every tree rooted at its least id and walked
    breadth first, children in id order, the trees in root order."""
    adjacency = {v: [] for v in g.ids}
    for u, v in g.edges:
        adjacency[u].append(v)
        adjacency[v].append(u)
    schedule, parent = [], {}
    for root in sorted(g.ids):
        if root in parent:
            continue
        parent[root], tree, children = None, [root], {}
        for v in tree:
            children[v] = tuple(sorted(w for w in adjacency[v] if w != parent[v]))
            parent.update(dict.fromkeys(children[v], v))
            tree.extend(children[v])
        schedule.extend((v, children[v], v == root) for v in reversed(tree))
    return schedule, {v: len(ns) for v, ns in adjacency.items()}


def weights_and_contraction_by_schedule(p, g):
    """Oracle: the weight block ``theta^m d^2`` built whole on every call, rows
    by id, and the contraction along ``schedule_by_ids`` with messages by id."""
    schedule, _ = schedule_by_ids(g)
    block = _twist_powers(p, [m for _, m in g.vertices]) * (p.dims * p.dims)

    def contract(weights, edge_matrix, tree_factor):
        total, message = 1.0 + 0.0j, {}
        for v, children, is_root in schedule:
            msg = weights[v]
            for ch in children:
                msg = msg * (edge_matrix @ message.pop(ch))
            if is_root:
                total *= _scaled(complex(np.sum(msg)), tree_factor)
            else:
                message[v] = msg
        return total

    return block, contract


def invariants_by_schedule(p, delta, g):
    """Oracle: ``rt_invariant``, ``bracket`` and ``tau_double`` as evaluated with
    ``schedule_by_ids``, the pairing from a fresh copy of ``p``; the edges carry
    ``S'/(d d)``, and for ``rt_invariant`` and ``tau_double`` the unitary
    ``s = S'/D`` normalized alike."""
    block, contract = weights_and_contraction_by_schedule(p, g)
    weights = dict(zip(g.ids, block))
    outer = np.outer(p.dims, p.dims)
    br = contract(weights, p.sprime / outer, 1.0)
    gauss, sigma = p.gauss_sums(), signature(linking_matrix(g))
    s = p.sprime / gauss.total / outer
    rt = (gauss.delta_plus / gauss.total) ** sigma * contract(weights, s, 1 / gauss.total) / gauss.total
    pb = double_rt.pairing_bracket(replace(p), delta)
    ia, ib = np.nonzero(pb.support)
    edge = s[np.ix_(ia, ia)] * s.conj()[np.ix_(ib, ib)]
    tau = contract(dict(zip(g.ids, block[:, ia] * block[:, ib].conj())), edge, 1 / p.total_dim) / pb.dim_sub
    return [_bits(rt), _bits(br), _bits(tau)]


def tau_double_by_pair_table(hat, delta, g):
    """Oracle: the double's invariant with the pairing table as pair weight,
    ``[lambda, mu] * (theta_lambda * conj(theta_mu))^m * (d_lambda d_mu)^(1 - deg)``."""
    pb = double_rt.pairing_bracket(hat, delta)
    ia, ib = np.nonzero(pb.support)
    pair_weight = pb.table[ia, ib]
    d_pair = hat.dims[ia] * hat.dims[ib]
    edge = hat.sprime[np.ix_(ia, ia)] * hat.sprime.conj()[np.ix_(ib, ib)]
    weights = []
    for v, m in g.vertices:
        tw = _twist_powers(hat, [m])[0]
        weights.append(pair_weight * tw[ia] * np.conj(tw[ib]) * d_pair.astype(complex) ** (1 - g.degrees[v]))
    return contract_forest_dfs(g, weights, edge, 1.0) / pb.dim_sub


def kirby_moves_by_rewrites(g):
    """Oracle: each Kirby neighbour as composed single rewrites, every step a validated graph."""

    def with_vertex(h, vid, framing, attach_to=None):
        edges = h.edges if attach_to is None else h.edges + ((attach_to, vid),)
        return PlumbingGraph(h.vertices + ((vid, framing),), edges)

    def without_vertex(h, vid):
        return PlumbingGraph(
            tuple((v, m) for v, m in h.vertices if v != vid),
            tuple((u, v) for u, v in h.edges if vid not in (u, v)),
        )

    def with_framing(h, vid, framing):
        return PlumbingGraph(tuple((v, framing if v == vid else m) for v, m in h.vertices), h.edges)

    def fresh_id(h):
        i = 0
        while f"b{i}" in h.ids:
            i += 1
        return f"b{i}"

    out = [with_vertex(g, fresh_id(g), e) for e in (1, -1)]
    out += [without_vertex(g, v) for v, m in g.vertices if m in (1, -1) and g.degrees[v] == 0]
    for v, m in g.vertices:
        for e in (1, -1):
            out.append(with_vertex(with_framing(g, v, m + e), fresh_id(g), e, attach_to=v))
    for w, mw in g.vertices:
        if mw in (1, -1) and g.degrees[w] == 1:
            (v,) = g.neighbors(w)
            out.append(with_framing(without_vertex(g, w), v, g.framings[v] - mw))
    return [(h.vertices, h.edges) for h in out]


@st.composite
def forests(draw, max_vertices=12, framing=st.integers(-3, 3), names=None):
    """Forests whose insertion, edge and endpoint orders differ from id order.

    Each vertex attaches to an earlier one or starts a tree; ids such as
    ``v10`` sort before ``v2``, and ``b0`` collides with the Kirby moves' fresh id.
    Distinct ids drawn from ``names`` replace these when it is given.
    """
    if names is None:
        n = draw(st.integers(0, max_vertices))
        ids = draw(st.permutations([f"v{i}" for i in range(n - 1)] + ["b0"] * (n > 0)))
    else:
        ids = draw(st.lists(names, unique=True, max_size=max_vertices))
        n = len(ids)
    edges = []
    for i in range(1, n):
        j = draw(st.integers(0, i))
        if j < i:
            edges.append((ids[j], ids[i]) if draw(st.booleans()) else (ids[i], ids[j]))
    framings = draw(st.lists(framing, min_size=n, max_size=n))
    return PlumbingGraph(tuple(zip(ids, framings)), tuple(draw(st.permutations(edges))))


def _chain(n):
    return plumbing([(f"c{i}", -2) for i in range(n)], [(f"c{i}", f"c{i + 1}") for i in range(n - 1)])


_ISOLATED = plumbing([("z", 1), ("a", -1), ("m", 0)])
_THREE_TREES = plumbing(
    [("t", 2), ("s", -1), ("a", 0), ("k", 1), ("c", -3), ("b", 1), ("x", 0)],
    [("t", "s"), ("s", "k"), ("c", "a"), ("a", "b"), ("c", "x")],
)
_DOUBLE_INPUTS = (("su2:4", (0, 2, 4)), ("su2:4", None), ("ising", None), ("fibonacci", None))


@cache
def _category(name):
    return families.builtin(name)


@given(g=forests(), case=st.sampled_from(_DOUBLE_INPUTS))
@example(g=plumbing([]), case=_DOUBLE_INPUTS[0])
@example(g=_ISOLATED, case=_DOUBLE_INPUTS[1])
@example(g=_THREE_TREES, case=_DOUBLE_INPUTS[0])
@example(g=_chain(300), case=_DOUBLE_INPUTS[2])
@example(g=_chain(300), case=_DOUBLE_INPUTS[0])
@settings(max_examples=60, deadline=None)
def test_contraction_is_bitwise_the_depth_first_oracle(g, case):
    name, delta = case
    p = _category(name)
    delta = range(p.rank) if delta is None else delta

    def values():
        return [_bits(bracket(p, g, term_cap=math.inf).value),
                _bits(double_rt.tau_double(p, delta, g, term_cap=math.inf).value)]

    def oracle(g, weights, edge_matrix, tree_factor, *_):  # the overflow-free size, memo and keys unread
        return contract_forest_dfs(g, weights, edge_matrix, tree_factor)

    got = values()
    with mock.patch.object(premodular.plumbing, "_contract_forest", oracle), \
            mock.patch.object(double_rt, "_contract_forest", oracle):
        assert got == values()


_WARM_CASES = tuple(
    (name, delta)
    for name, p in sorted(suite_rings().items()) if p.sprime_invertible()
    for delta in [range(p.rank), *([range(0, p.rank, 2)] if name in ("su2:2", "su2:4", "su2:6", "su2:8") else [])]
)


@given(g=forests(8), case=st.sampled_from(_WARM_CASES))
@example(g=_THREE_TREES, case=("su2:4", range(0, 5, 2)))
@example(g=plumbing([]), case=("fibonacci", range(2)))
@settings(max_examples=60, deadline=None)
def test_invariants_on_a_warm_category_are_bitwise_the_schedule_oracle(g, case):
    # a copy of the category starts with no weight rows and no pairing kept
    name, delta = case
    p = replace(suite_rings()[name])
    graphs = [g, *kirby_moves(g)]
    expected = [invariants_by_schedule(p, delta, h) for h in graphs]

    def values(h):
        return [_bits(rt_invariant(p, h, term_cap=math.inf).value),
                _bits(bracket(p, h, term_cap=math.inf).value),
                _bits(double_rt.tau_double(p, delta, h, term_cap=math.inf).value)]

    assert [values(h) for h in graphs] == expected  # cold: rows, pairing and walks filled here
    assert p._weight_rows and p._pairings
    assert [values(h) for h in graphs] == expected  # warm


_EXTENSIONS = (
    ("su2:4", (0, 2, 4)), ("su2:4", None), ("su2:8", (0, 2, 4, 6, 8)),
    ("ising", None), ("fibonacci", None), ("prod(su2:4,fibonacci)", None),
)


def _trees(g):
    """The components of ``g``, in order of their least ids."""
    seen, trees = set(), []
    for root in sorted(g.ids):
        if root not in seen:
            tree = [root]
            seen.add(root)
            for v in tree:
                new = [w for w in g.neighbors(v) if w not in seen]
                seen.update(new)
                tree += new
            keep = set(tree)
            trees.append(PlumbingGraph(tuple(x for x in g.vertices if x[0] in keep),
                                       tuple(e for e in g.edges if e[0] in keep)))
    return trees


def _disjoint_union(g, h):
    """``g ⊔ h``, the ids of ``h`` primed."""
    return PlumbingGraph(g.vertices + tuple((v + "'", m) for v, m in h.vertices),
                         g.edges + tuple((u + "'", v + "'") for u, v in h.edges))


# su2:8 with its even part: the lens-space tree v0-b0 has a value near 1e-17, rounding
# noise that the forest's factor dim(Delta)^6 ~ 3e8 for its seven trees lifts above 1e-12
_LENS_AND_SPHERES = plumbing([("v0", 2), ("b0", -2), ("v7", 0), ("v1", 0), *((f"v{i}", 0) for i in range(2, 7))],
                             [("v0", "b0"), ("v7", "v1")])


@given(g=forests(), case=st.sampled_from(_EXTENSIONS))
@example(g=_chain(200), case=_EXTENSIONS[2])
@example(g=_chain(200), case=_EXTENSIONS[5])
@example(g=_LENS_AND_SPHERES, case=_EXTENSIONS[2])
@settings(max_examples=60, deadline=None)
def test_tau_double_is_the_pair_table_formula(g, case):
    # tree by tree at the bound 1e-12 * max(1, |old|); the forest as the product
    # dim(Delta)^(c-1) * prod_T old_T, on the error scale of that product
    name, delta = case
    p = _category(name)
    delta = range(p.rank) if delta is None else delta
    trees = _trees(g)
    old = [tau_double_by_pair_table(p, delta, tree) for tree in trees]
    for tree, value in zip(trees, old):
        new = double_rt.tau_double(p, delta, tree, term_cap=math.inf).value
        assert abs(new - value) <= 1e-12 * max(1, abs(value))
    lift = double_rt.pairing_bracket(p, delta).dim_sub ** (len(trees) - 1)
    new = double_rt.tau_double(p, delta, g, term_cap=math.inf).value
    assert abs(new - lift * math.prod(old)) <= 1e-12 * lift * math.prod(max(1, abs(v)) for v in old)


_CONNECTED_SUMS = (("su2:3", None), ("fibonacci", None), ("ising", None), ("su2:8", (0, 2, 4, 6, 8)))


@given(g=forests(6), h=forests(6), case=st.sampled_from(_CONNECTED_SUMS))
@example(g=plumbing([]), h=_ISOLATED, case=_CONNECTED_SUMS[0])
@example(g=_THREE_TREES, h=plumbing([("v0", 2), ("b0", -2)], [("v0", "b0")]), case=_CONNECTED_SUMS[3])
@settings(max_examples=60, deadline=None)
def test_a_disjoint_union_presents_the_connected_sum(g, h, case):
    # tau(g ⊔ h) = D tau(g) tau(h), and tau_D(g ⊔ h) = dim(Delta) tau_D(g) tau_D(h)
    name, delta = case
    p = _category(name)
    if delta is None:
        factor = p.gauss_sums().total
        value = lambda x: rt_invariant(p, x, term_cap=math.inf).value
    else:
        factor = double_rt.pairing_bracket(p, delta).dim_sub
        value = lambda x: double_rt.tau_double(p, delta, x, term_cap=math.inf).value
    a, b = value(g), value(h)
    assert abs(value(_disjoint_union(g, h)) - factor * a * b) <= 1e-12 * factor * max(1, abs(a)) * max(1, abs(b))


_MODULAR_SUITE = tuple(name for name, p in sorted(suite_rings().items()) if p.sprime_invertible())
_LONG_CHAINS = ("su2:3", "fibonacci", "pointed:5:2", "conj(su2:3)")  # also at 5,000 vertices


@pytest.mark.parametrize("name", _MODULAR_SUITE)
def test_a_long_chain_blows_down_to_one_vertex(name):
    # [-2]^n and [-1, n] have the same continued fraction -(n+1)/n, and blowing
    # the (-1)-leaf of [-1, n] down leaves one vertex framed n + 1
    p = _category(name)
    for n in (5, 50, 200, 1000, *((5000,) if name in _LONG_CHAINS else ())):
        chain = rt_invariant(p, _chain(n), term_cap=math.inf).value
        assert abs(chain - rt_invariant(p, plumbing([n + 1])).value) <= 1e-11


def test_the_double_of_a_5000_chain_is_the_squared_modulus():
    p, g = _category("su2:4"), _chain(5000)
    rt = rt_invariant(p, g, term_cap=math.inf).value
    double = double_rt.tau_double(p, range(p.rank), g, term_cap=math.inf).value
    assert abs(double - abs(rt) ** 2) <= 1e-11


@given(g=st.one_of(
    forests(16, st.just(0)), forests(16, st.integers(-1, 1)), forests(16), forests(16, st.integers(-10**6, 10**6)),
))
@example(g=plumbing([]))
# the leaves' weights 2, 3, 5, 7, 11 leave 1 - 2927/2310 at the centre over the unreduced denominator 2310
@example(g=plumbing([("c", 1), ("a", 2), ("b", 3), ("d", 5), ("e", 7), ("f", 11)],
                    [("c", x) for x in "abdef"]))
@example(g=_ISOLATED)
@example(g=_THREE_TREES)
@example(g=plumbing([0] * 6, [(f"v{i}", f"v{i + 1}") for i in range(5)]))
# leaves x and y of weight 0 at v: (x, v) is a hyperbolic pair, y a zero row
@example(g=plumbing([("u", 3), ("v", 5), ("w", 1), ("x", 0), ("y", 0)],
                    [("u", "v"), ("v", "w"), ("v", "x"), ("v", "y")]))
# the leaf leaves weight 1 - 1/1 = 0 at the middle vertex, which pairs with the root
@example(g=plumbing([("a", -4), ("b", 1), ("c", 1)], [("a", "b"), ("b", "c")]))
@settings(max_examples=400, deadline=None)
def test_forest_signature_is_the_sylvester_signature(g):
    assert _forest_signature(g) == signature(linking_matrix(g))


@given(g=forests())
@example(g=plumbing([]))
@example(g=_ISOLATED)
@example(g=_THREE_TREES)
@settings(max_examples=150, deadline=None)
def test_kirby_moves_are_the_composed_rewrites(g):
    assert [(h.vertices, h.edges) for h in kirby_moves(g)] == kirby_moves_by_rewrites(g)


# ids that sort before the Kirby moves' fresh id b0, after it, or take b0, b1 and b2
_AROUND_B0 = st.sampled_from(["0", "B", "a", "b", "b0", "b1", "b2", "b10", "c", "v0", "v1", "z"])


@given(g=st.one_of(forests(8, st.integers(-2, 2), _AROUND_B0), forests()))
@example(g=plumbing([]))
@example(g=plumbing([("c", 1), ("a", -1), ("b0", 1), ("z", -1)]))
# blowing the leaf a down re-roots its tree at c
@example(g=plumbing([("c", 0), ("a", 1), ("d", 2)], [("c", "a"), ("c", "d")]))
# the fresh leaf b0 sorts before c and d, so it roots the blown-up tree
@example(g=plumbing([("d", -2), ("c", 3)], [("d", "c")]))
@settings(max_examples=200, deadline=None)
def test_kirby_neighbours_are_the_constructed_graphs(g):
    for h in kirby_moves(g):
        built = PlumbingGraph(h.vertices, h.edges)
        assert (h.vertices, h.edges, h.ids, h._walk, h._sigma, h.degrees, h.framings) == (
            built.vertices, built.edges, built.ids, built._walk, built._sigma, built.degrees, built.framings)


@given(g=st.one_of(forests(8, st.integers(-2, 2), _AROUND_B0), forests()))
@example(g=plumbing([]))
# removing the isolated vertices a and z, framed -1 and 1
@example(g=plumbing([("z", 1), ("a", -1), ("m", 2), ("n", -3)], [("m", "n")]))
# blowing the leaf a down re-roots its tree at c
@example(g=plumbing([("c", 0), ("a", 1), ("d", 2)], [("c", "a"), ("c", "d")]))
@settings(max_examples=200, deadline=None)
def test_kirby_neighbours_carry_their_signature(g):
    # a neighbour's signature is its parent's shifted by the move, never recomputed
    assert g._sigma == signature(linking_matrix(g))
    for h in kirby_moves(g):
        assert h._sigma == signature(linking_matrix(h))


@given(g=forests())
@example(g=plumbing([]))
@example(g=_THREE_TREES)
@settings(max_examples=150, deadline=None)
def test_walk_is_the_schedule_oracle(g):
    walk = g._walk
    schedule = [(g.ids[v], tuple(g.ids[c] for c in walk.children[v]), len(walk.children[v]) == walk.degrees[v])
                for v in walk.order]
    assert (schedule, dict(zip(g.ids, walk.degrees))) == schedule_by_ids(g)


@given(g=forests(), data=st.data())
@example(g=plumbing([("u", 0), ("v", 0), ("w", 0)], [("u", "v"), ("v", "w")]), data=None)
@settings(max_examples=150, deadline=None)
def test_an_edge_within_a_tree_closes_a_cycle_that_the_error_names(g, data):
    # one more edge between two non-adjacent vertices of one tree: the graph has
    # one cycle, and removing any edge of it leaves a forest
    chords = [(u, v) for tree in _trees(g) for u, v in itertools.permutations(tree.ids, 2)
              if v not in tree.neighbors(u)]
    assume(chords)
    if data is None:
        edges = [*g.edges, ("w", "u")]
    else:
        edges = list(g.edges)
        edges.insert(data.draw(st.integers(0, len(edges))), data.draw(st.sampled_from(chords)))
    with pytest.raises(PlumbingError, match="closes a cycle") as error:
        PlumbingGraph(g.vertices, tuple(edges))
    named = re.fullmatch(r"edge \((\S+), (\S+)\) closes a cycle", str(error.value)).groups()
    edges.remove(named)
    PlumbingGraph(g.vertices, tuple(edges))


def _blow_up(g, edge, e):
    """Neumann's edge blow-up: ``u - v`` becomes ``u - x - v``, the fresh vertex
    ``x`` framed ``e = ±1`` and the framings of ``u`` and ``v`` shifted by ``e``."""
    u, v = edge
    x = next(f"x{i}" for i in itertools.count() if f"x{i}" not in g.ids)
    vertices = tuple((w, m + e if w in edge else m) for w, m in g.vertices) + ((x, e),)
    return PlumbingGraph(vertices, tuple(f for f in g.edges if f != edge) + ((u, x), (x, v)))


_BLOW_UP_CASES = (("su2:3", None), ("fibonacci", None), ("ising", None), ("su2:5", None), ("su2:4", (0, 2, 4)))


@given(g=forests(), case=st.sampled_from(_BLOW_UP_CASES), data=st.data())
@example(g=_THREE_TREES, case=_BLOW_UP_CASES[4], data=None)
@example(g=_chain(6), case=_BLOW_UP_CASES[0], data=None)
@settings(max_examples=150, deadline=None)
def test_edge_blow_up_keeps_the_invariant(g, case, data):
    # rt_invariant on modular data; tau_double of the double of Delta on su2:4's even part
    assume(g.edges)
    name, delta = case
    p = _category(name)
    if data is None:
        edge, e = g.edges[0], -1
    else:
        edge, e = data.draw(st.sampled_from(g.edges)), data.draw(st.sampled_from((1, -1)))

    def invariant(h):
        if delta is None:
            return rt_invariant(p, h, term_cap=math.inf).value
        return double_rt.tau_double(p, delta, h, term_cap=math.inf).value

    tau = invariant(g)
    assert abs(invariant(_blow_up(g, edge, e)) - tau) <= 1e-12 * max(1, abs(tau))


def lens_space(framings):
    """The oriented lens space a chain presents, as ``(p, sign, q)``.

    The chain framed ``a_1, ..., a_k`` is surgery on an unknot with coefficient
    ``[a_1, ..., a_k] = a_1 - 1/(a_2 - ... - 1/a_k) = ±p/q``; two chains present
    the same oriented L(p, q) when p and the sign agree and q' = q^(±1) mod p
    (Reidemeister; Brody, Ann. Math. 71, 1960), so ``q`` is the least of q and
    q^(-1) mod p.  Every ``|a_i| >= 2`` keeps each tail of the fraction above 1.
    """
    x = Fraction(framings[-1])
    for a in reversed(framings[:-1]):
        x = a - 1 / x
    p, q = abs(x.numerator), x.denominator
    return p, x > 0, min(q % p, pow(q, -1, p))


@cache
def _lens_classes(max_vertices=5, framings=(-4, -3, -2, 2, 3, 4)):
    classes = {}
    for n in range(1, max_vertices + 1):
        for c in itertools.product(framings, repeat=n):
            classes.setdefault(lens_space(c), []).append(c)
    return [chains for chains in classes.values() if len(chains) > 1]


def _chain_of(framings):
    return plumbing([(f"c{i}", m) for i, m in enumerate(framings)],
                    [(f"c{i}", f"c{i + 1}") for i in range(len(framings) - 1)])


@pytest.mark.parametrize("name", ["su2:3", "su2:5", "fibonacci", "ising", "prod(fibonacci,ising)"])
def test_chains_presenting_one_lens_space_give_one_invariant(name):
    # every chain of 1-5 vertices framed in {±2, ±3, ±4}: no two chains of a
    # class are one Kirby move apart, so this tests the invariant beyond the moves
    p = suite_rings()[name]
    classes = _lens_classes()
    assert (len(classes), sum(map(len, classes))) == (2202, 7426)
    for chains in classes:
        tau = [rt_invariant(p, _chain_of(c)).value for c in chains]
        assert max(abs(t - tau[0]) for t in tau) <= 1e-12 * max(1, abs(tau[0])), (chains, tau)


def _reversed(g):
    """``-g``: reversing the orientation negates every framing."""
    return PlumbingGraph(tuple((v, -m) for v, m in g.vertices), g.edges)


@given(g=forests(), name=st.sampled_from(sorted(n for n, p in suite_rings().items() if p.sprime_invertible())))
@example(g=_THREE_TREES, name="prod(fibonacci,ising)")
@settings(max_examples=150, deadline=None)
def test_orientation_reversal_conjugates_the_invariant(g, name):
    p = suite_rings()[name]
    tau = rt_invariant(p, g, term_cap=math.inf).value
    rev = rt_invariant(p, _reversed(g), term_cap=math.inf).value
    assert abs(rev - tau.conjugate()) <= 1e-12 * max(1, abs(tau))


_REVERSIBLE_DOUBLES = (
    ("su2:4", (0, 2, 4)), ("su2:8", (0, 2, 4, 6, 8)),
    ("prod(pointed:2:1,pointed:2:3)", ("(0,0)", "(1,1)")),
)


@given(g=forests(), case=st.sampled_from(_REVERSIBLE_DOUBLES))
@example(g=_THREE_TREES, case=_REVERSIBLE_DOUBLES[2])
@settings(max_examples=90, deadline=None)
def test_orientation_reversal_fixes_the_double_invariant(g, case):
    # a braided subcategory has Z(D)^rev = Z(D), so tau_D(-M) = tau_D(M), and it is real
    name, delta = case
    p = _category(name)
    tau = double_rt.tau_double(p, delta, g, term_cap=math.inf).value
    rev = double_rt.tau_double(p, delta, _reversed(g), term_cap=math.inf).value
    scale = max(1, abs(tau))
    assert abs(rev - tau) <= 1e-12 * scale
    assert abs(tau.imag) <= 1e-12 * scale
