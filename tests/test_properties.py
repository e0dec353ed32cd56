"""Property-based checks over randomly generated inputs."""

import cmath
import math
import random
import struct
from dataclasses import replace
from fractions import Fraction
from functools import cache

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from premodular import families
from premodular.fusion import FusionData, _exact_dtype, validate_fusion
from premodular.modular import Twist, _row_multiplicativity_dev, _twist_powers, is_modular, verify_premodular
from premodular.plumbing import bracket, plumbing, random_forest, signature


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


@given(
    st.fractions(min_value=-4, max_value=4, max_denominator=48),
    st.integers(min_value=-5, max_value=5),
)
@settings(max_examples=80, deadline=None)
def test_twist_powers_track_complex_arithmetic(turns, m):
    t = Twist.from_turns(turns)
    assert abs(t.power(m) - t.value**m) < 1e-10
    assert abs((t * t.conjugate()).value - 1.0) < 1e-12


@given(
    st.lists(
        st.one_of(
            st.fractions(min_value=-4, max_value=4, max_denominator=48),
            st.floats(min_value=-1, max_value=1),
        ),
        min_size=1,
        max_size=8,
    ),
    st.integers(min_value=-60, max_value=60),
)
@settings(max_examples=80, deadline=None)
def test_twist_table_matches_scalar_powers(turns, m):
    # mixed exact and floating twists; the table must agree with Twist.power
    theta = tuple(
        Twist.from_turns(x) if isinstance(x, Fraction)
        else Twist.from_complex(cmath.exp(2j * cmath.pi * x))
        for x in turns
    )
    p = replace(families.pointed_cyclic(len(theta), 0), theta=theta)
    expect = np.array([t.power(m) for t in theta])
    assert np.abs(_twist_powers(p, m) - expect).max() < 1e-12


@cache
def suite_rings():
    return dict(families.builtin_suite())


def dense_associativity(f):
    """Oracle: the n^4 tensors of both bracketings, first maximum in (a, b, c, d) order."""
    t = f.tensor
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


@pytest.mark.parametrize("name", [*sorted(suite_rings()), "prod(su2:4,conj(su2:4))"])
def test_row_multiplicativity_matches_einsum(name):
    p = families.builtin(name)
    t, d, sp = p.fusion.tensor.astype(float), p.dims, p.sprime
    expect = sp[:, :, None] * sp[:, None, :] / d[:, None, None] - np.einsum("bce,ae->abc", t, sp)
    got = _row_multiplicativity_dev(t, d, sp)
    assert np.abs(got - expect).max() <= 1e-12 * max(1.0, float(np.abs(expect).max()))


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("negative", [False, True], ids=["nonnegative", "signed"])
@pytest.mark.parametrize(
    "limit, below, above",
    [(2**24, np.float32, np.float64), (2**53, np.float64, np.int64)],
    ids=["2**24", "2**53"],
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
        assert (check.passed, check.witness, check.residual) == dense_associativity(f)


def modularity_per_root(p, tol=1e-9):
    """Oracle: every S, T relation evaluated for each of the three cube roots."""
    n = p.rank
    c = np.zeros((n, n))
    c[np.arange(n), list(p.fusion.dual)] = 1.0
    _, sv, vh = np.linalg.svd(p.sprime)
    ratio = float(sv[-1] / sv[0]) if sv[0] > 0 else 0.0
    if ratio <= tol:
        return False, float("inf"), -1, ratio, vh[-1].conj()
    g = p.gauss_sums()
    s = p.sprime / g.total
    phase = g.delta_plus / abs(g.delta_plus)
    eye = np.eye(n)
    best = None
    for j in range(3):
        zeta = phase ** (1.0 / 3.0) * cmath.exp(2j * cmath.pi * j / 3)
        t = zeta * np.diag(p.theta_values)
        st_ = s @ t
        resid = max(
            float(np.abs(s @ s - c).max()),
            float(np.abs(st_ @ st_ @ st_ - c).max()),
            float(np.abs(t @ c - c @ t).max()),
            float(np.abs(s @ s.conj().T - eye).max()),
            float(np.abs(t @ t.conj().T - eye).max()),
        )
        if best is None or resid < best[0]:
            best = (resid, j)
    resid, j = best
    return resid <= tol * max(1.0, g.total), resid, j, ratio, None


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
    modular, residual, root, ratio, kernel = modularity_per_root(p)
    got = (r.modular, r.residual, r.root_index, r.singular_ratio)
    assert got == (modular, residual, root, ratio)
    assert (r.kernel is None) == (kernel is None)
    if kernel is not None:
        assert r.kernel.tobytes() == kernel.tobytes()


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
