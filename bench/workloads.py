"""The three workloads: inputs made from the seed, one pass over their ops, checks.

Each workload has ``setup(api, rng, refs) -> inputs``, ``run_pass(ctx,
inputs)`` and, optionally, probes that run once after the last traced pass.
``ctx.op(name, run, check)`` times one op and checks its output;
``ctx.probe(name, run)`` makes extra public calls that split a composite op
from outside, and runs only when the pass is traced.

The seed changes what the inputs hold, not how much work they are: forests
come in fixed sizes and shapes with seeded framings, and the long plumbings,
condensation jobs and documents are fixed lists.
"""

from __future__ import annotations

import json
import random

import numpy as np
from premodular.formats import CategoryFormatError

import check

INF = float("inf")

# -- surgery ---------------------------------------------------------------------

SURGERY_CATEGORIES = ("su2:4", "su2:8", "ising", "fibonacci", "prod(fibonacci,ising)")
FOREST_SIZES = tuple(range(7)) * 6  # six forests of each size 0..6 per category
DOUBLE_EVERY = 3  # tau_double and factorization on every third su2:4 forest
EVEN = (0, 2, 4)  # the integer-spin subcategory of su2:4
CHAIN_LENGTHS = (25, 50, 100, 200)
SUM_COPIES = 50
OVERFLOW_COPIES = 150  # 450 vertices: float(rank) ** n overflows at the seed
# The forests' shapes come from this fixed seed and only their framings from
# the workload seed: the shapes set the tail of the op latencies, and with
# seeded shapes op_p90_ms moved by 8-15% from one seed to another.
FOREST_SHAPES_SEED = 0


def forest(api, rng, n: int, shapes=None):
    """A forest on ``n`` vertices with framings drawn from ``rng``, each vertex
    attached to an earlier one or starting a tree as drawn from ``shapes``
    (from ``rng`` when not given)."""
    shapes = shapes or rng
    vertices = [(f"v{i}", rng.randint(-3, 3)) for i in range(n)]
    edges = []
    for i in range(1, n):
        j = shapes.randrange(i + 1)
        if j < i:
            edges.append((f"v{j}", f"v{i}"))
    return api.plumbing(vertices, edges)


def chain(api, n: int):
    """The lens-space chain of ``n`` vertices framed -2."""
    return api.plumbing([(f"v{i}", -2) for i in range(n)], [(f"v{i}", f"v{i + 1}") for i in range(n - 1)])


def star_sum(api, framings, copies: int):
    """Disjoint union (connected sum) of ``copies`` 3-vertex stars."""
    a, b, c = framings
    vertices, edges = [], []
    for k in range(copies):
        vertices += [(f"c{k}", a), (f"l{k}", b), (f"r{k}", c)]
        edges += [(f"c{k}", f"l{k}"), (f"c{k}", f"r{k}")]
    return api.plumbing(vertices, edges)


def surgery_chain_values(api, hat, g):
    return {
        "rt": api.rt_invariant(hat, g, term_cap=INF).value,
        "tau_all": api.tau_double(hat, range(hat.rank), g, term_cap=INF).value,
        "tau_even": api.tau_double(hat, EVEN, g, term_cap=INF).value,
    }


def surgery_setup(api, rng, refs):
    cats = {expr: api.builtin(expr) for expr in SURGERY_CATEGORIES}
    shapes = random.Random(FOREST_SHAPES_SEED)
    forests = {expr: [forest(api, rng, n, shapes) for n in FOREST_SIZES] for expr in SURGERY_CATEGORIES}
    hat = cats["su2:4"]
    doubles = []
    for g in forests["su2:4"][::DOUBLE_EVERY]:
        moves = api.kirby_moves(g)
        doubles.append((g, moves[rng.randrange(len(moves))]))
    # Negative framings keep every star's invariant away from zero, which the
    # connected-sum rule in log space needs.
    star = [rng.randint(-3, -1) for _ in range(3)]
    return {
        "cats": cats,
        "forests": forests,
        "doubles": doubles,
        "chains": [(n, api.plumbing_to_doc(chain(api, n))) for n in CHAIN_LENGTHS],
        "star": api.plumbing_to_doc(star_sum(api, star, 1)),
        "sum": api.plumbing_to_doc(star_sum(api, star, SUM_COPIES)),
        "overflow": api.plumbing_to_doc(star_sum(api, star, OVERFLOW_COPIES)),
        "total_dim": hat.gauss_sums().total,
        "refs": {int(n): {k: complex(*v) for k, v in vals.items()} for n, vals in refs["surgery"]["chains"].items()},
    }


def _surgery_probes(ctx, p, g):
    api = ctx.api
    ctx.probe("signature+bracket", lambda: (api.signature(api.linking_matrix(g)), api.bracket(p, g, term_cap=INF)))


def surgery_pass(ctx, inp):
    api = ctx.api
    for expr in SURGERY_CATEGORIES:
        p = inp["cats"][expr]
        for g in inp["forests"][expr]:
            out = ctx.op(
                "forest",
                lambda: (api.rt_invariant(p, g, term_cap=INF).value, api.kirby_moves(g)),
                lambda r: check.finite(r[0], "rt_invariant"),
            )
            _surgery_probes(ctx, p, g)
            if out is None:
                continue
            base, moves = out
            for h in moves:
                ctx.op(
                    "kirby",
                    lambda: api.rt_invariant(p, h, term_cap=INF).value,
                    lambda v: check.close(v, base, what="Kirby neighbour"),
                )

    hat = inp["cats"]["su2:4"]
    for g, h in inp["doubles"]:
        for delta in (EVEN, range(hat.rank)):
            tau = ctx.op("tau_double", lambda: api.tau_double(hat, delta, g, term_cap=INF).value, check.finite)
            ctx.probe("pairing", lambda: api.pairing_bracket(hat, delta))
            if tau is not None:
                ctx.op(
                    "tau_double",
                    lambda: api.tau_double(hat, delta, h, term_cap=INF).value,
                    lambda v: check.close(v, tau, what="tau_double of a Kirby neighbour"),
                )
        ctx.op("factorization", lambda: api.factorization_check(hat, g, term_cap=INF), _factorization_ok)

    for n, doc in inp["chains"]:
        ref = inp["refs"][n]
        out = ctx.op(f"chain{n}.rt", lambda: _load_rt(api, hat, doc),
                     lambda r: check.close(r[1], ref["rt"], what=f"rt of the {n}-chain"))
        if out is None:
            continue
        g, rt = out
        _surgery_probes(ctx, hat, g)

        def tau_all_ok(v, rt=rt, n=n, ref=ref):
            check.close(v, ref["tau_all"], what=f"tau_double of the {n}-chain")
            check.close(v, abs(rt) ** 2, what=f"|tau|^2 of the {n}-chain")

        ctx.op(f"chain{n}.tau_all", lambda: api.tau_double(hat, range(hat.rank), g, term_cap=INF).value, tau_all_ok)
        ctx.op(f"chain{n}.tau_even", lambda: api.tau_double(hat, EVEN, g, term_cap=INF).value,
               lambda v: check.close(v, ref["tau_even"], what=f"tau_double(even) of the {n}-chain"))

    star = ctx.op("star.rt", lambda: _load_rt(api, hat, inp["star"]), lambda r: check.finite(r[1]))
    if star is not None:
        ctx.op(
            "sum.rt",
            lambda: _load_rt(api, hat, inp["sum"]),
            lambda r: check.connected_sum(r[1], star[1], SUM_COPIES, inp["total_dim"]),
        )


def _load_rt(api, p, doc):
    """The ``premodular rt`` pipeline: load the plumbing document, evaluate."""
    g = api.plumbing_from_doc(doc)
    return g, api.rt_invariant(p, g, term_cap=INF).value


def _factorization_ok(r):
    if not r.passed:
        raise check.Mismatch(f"|tau|^2 factorization fails: {r.double_value} vs {r.squared_value}")


def surgery_traced_probes(ctx, inp):
    """The 450-vertex connected sum, counted in ``plumbing.overflow_errors`` while it overflows."""
    api = ctx.api
    hat = inp["cats"]["su2:4"]

    def run():
        _, star = _load_rt(api, hat, inp["star"])
        try:
            _, total = _load_rt(api, hat, inp["overflow"])
        except OverflowError:
            api.count("plumbing.overflow_errors")
            return
        check.connected_sum(total, star, OVERFLOW_COPIES, inp["total_dim"])

    ctx.probe(f"sum of {OVERFLOW_COPIES}", run)


# -- condense --------------------------------------------------------------------

EVEN_LEVELS = (4, 8, 12, 16, 20, 24)
FREE_ORBIT_ONLY = (
    "pointed:2:0", "pointed:4:0", "pointed:4:2", "pointed:8:4",
    "prod(pointed:2:0,ising)", "prod(pointed:4:0,su2:2)",
)
DESCENT_SIZES = (1, 2, 3)


def even_part(api, k: int):
    return api.restrict(api.builtin(f"su2:{k}"), range(0, k + 1, 2))


def condense_jobs(api):
    """The jobs of one pass: ``(name, function name, args)``."""
    jobs = [(f"even(su2:{k})", "condense", (even_part(api, k),)) for k in EVEN_LEVELS]
    even4 = even_part(api, 4)
    # One more searching job than free-orbit ones, so the median job searches.
    jobs.append(("conj(even(su2:4))", "condense", (api.conjugate(even4),)))
    jobs += [(expr, "condense", (api.builtin(expr),)) for expr in FREE_ORBIT_ONLY]
    # Z2 x Z2 transparent group; its kernel exceeds the search cap at the seed.
    jobs.append(("prod(even(su2:4),even(su2:4))", "condense", (api.product(even4, even4),)))
    jobs.append(("double(su2:4)", "double_data", (api.builtin("su2:4"), EVEN)))
    return jobs


def heavy_double_job(api):
    """The double of su2:8's even part: 11-15 s and 2.6 GB at the seed, so it
    runs once per traced run, not in every pass."""
    return "double(su2:8)", "double_data", (api.builtin("su2:8"), tuple(range(0, 9, 2)))


def condensed_summary(c) -> dict:
    return {
        "status": c.status,
        "labels": [lab.name for lab in c.labels],
        "sources": [lab.source for lab in c.labels],
        "group_order": c.group_order,
        "source_dim": c.source.total_dim,
        "solutions": [(s.sprime, s.total_dim) for s in c.solutions],
    }


def condense_setup(api, rng, refs):
    return {
        "jobs": condense_jobs(api),
        "plumbings": [forest(api, rng, n) for n in DESCENT_SIZES],
        "refs": refs["condense"],
    }


def _run_job(api, fn_name, args, plumbings):
    c = getattr(api, fn_name)(*args)
    back = None
    if c.solutions:
        text = json.dumps(api.condensed_to_doc(c))
        back = api.category_from_doc(json.loads(text))
        api.count("formats.doc_kb", len(text) / 1024)
    descents = [api.bracket_descent_check(c.source, g, c, term_cap=INF) for g in plumbings]
    return c, back, descents


def _job_check(name, ref, api):
    def run(out):
        c, back, descents = out
        summary = condensed_summary(c)

        def gates(i):
            sol = c.solutions[i]
            return api.verify_premodular(sol).passed and api.is_modular(sol).modular

        check.condensation(summary, ref, gates)
        if back is not None:
            first = c.solutions[0]
            if back.names != first.names or not np.allclose(back.sprime, first.sprime, rtol=0, atol=1e-9):
                raise check.Mismatch(f"{name}: condensed document does not load back to the same data")
        for d in descents:
            if c.status == "unique" and not d.passed:
                raise check.Mismatch(f"{name}: bracket descent fails ({d.source_bracket} vs {d.scaled_condensed})")
            if c.status != "unique" and not d.skipped:
                raise check.Mismatch(f"{name}: bracket descent ran on a {c.status} resolution")

    return run


def condense_pass(ctx, inp):
    api = ctx.api
    for name, fn_name, args in inp["jobs"]:
        out = ctx.op(name, lambda: _run_job(api, fn_name, args, inp["plumbings"]), _job_check(name, inp["refs"][name], api))
        if out is not None:
            ctx.probe(f"orbits {name}", lambda: api.orbit_decomposition(out[0].source))


def condense_traced_probes(ctx, inp):
    """The heavy double, checked like a job, with its memory peak."""
    api = ctx.api
    name, fn_name, args = heavy_double_job(api)
    job_check = _job_check(name, inp["refs"][name], api)

    def run():
        with api.memory("condense.peak_mb"):
            out = _run_job(api, fn_name, args, inp["plumbings"])
        job_check(out)

    ctx.probe(name, run)


# -- verify ----------------------------------------------------------------------

VERIFY_EVEN_LEVELS = tuple(range(2, 17, 2))
VERIFY_SQUARE_LEVELS = (4, 6, 8)  # prod(su2:k,conj(su2:k)) at ranks 25, 49, 81
LARGE_DOCS = ("prod(su2:4,conj(su2:4))", "prod(su2:6,conj(su2:6))")
# Rank 81 takes 5-7 s and 1.4 GB at the seed: in every pass it would leave
# room for only a few passes per run, so it runs once per traced run.
HEAVY_DOC = "prod(su2:8,conj(su2:8))"
# Products of small suite members: PRODUCTS_PER_RANKS of each pair of factor
# ranks, the factors drawn from the seed, so that the seed does not change
# how much work the products are.
SMALL_RANKS = (2, 3, 4)
PRODUCTS_PER_RANKS = 4


def broken_ising_doc(api) -> dict:
    """Ising with sigma x sigma = 1 + 2 eps, which is not associative."""
    doc = api.category_to_doc(api.builtin("ising"))
    doc["N"] = [e if e[:3] != ["sigma", "sigma", "eps"] else ["sigma", "sigma", "eps", 2] for e in doc["N"]]
    doc["sprime"] = []
    doc["dims"] = {}
    return doc


def verify_fixed_docs(api):
    """Fixed documents ``(name, doc)``: the builtin suite and conjugates,
    degenerate even parts, ranks 25-81, and the broken Ising document."""
    suite = api.builtin_suite()
    docs = [(name, api.category_to_doc(p)) for name, p in suite]
    docs += [(f"conj({name})", api.category_to_doc(api.conjugate(p))) for name, p in suite]
    docs += [(f"even(su2:{k})", api.category_to_doc(even_part(api, k))) for k in VERIFY_EVEN_LEVELS]
    docs += [
        (f"prod(su2:{k},conj(su2:{k}))", api.category_to_doc(api.builtin(f"prod(su2:{k},conj(su2:{k}))")))
        for k in VERIFY_SQUARE_LEVELS
    ]
    docs.append(("broken(ising)", broken_ising_doc(api)))
    return docs, suite


def _witness(w):
    return json.loads(json.dumps(w, default=str))


def verify_doc(api, text: str):
    """The ``premodular verify`` pipeline on one document: a plain record of
    the verdict, and the assembled data (None when assembly failed)."""
    doc = json.loads(text)
    try:
        p = api.category_from_doc(doc)
    except CategoryFormatError:
        raise
    except ValueError as exc:
        # premodular assembly failed: report the fusion-layer checks, as the CLI does
        rv = api.validate_fusion(api.fusion_from_doc(doc))
        record = {
            "passed": False, "modular": None, "center": None, "kernel": None,
            "failures": {c.name: _witness(c.witness) for c in rv.checks if not c.passed},
            "error": type(exc).__name__,
        }
        return record, None
    rv = api.validate_fusion(p.fusion)
    rp = api.verify_premodular(p)
    rm = api.is_modular(p)
    center = api.muger_center(p)
    kernel = None
    if not rm.modular:
        # a degenerate category must come with a null vector of S'
        residual = float(np.abs(p.sprime @ rm.kernel).max())
        kernel = bool(residual <= 1e-8 * max(1.0, float(np.abs(p.sprime).max())))
    record = {
        "passed": rv.passed and rp.passed,
        "modular": bool(rm.modular),
        "center": sorted(p.names[i] for i in center.degenerate),
        "kernel": kernel,
        "failures": {c.name: _witness(c.witness) for c in (*rv.checks, *rp.checks) if not c.passed},
    }
    return record, p


def product_expectation(a: dict, b: dict) -> dict:
    """Verdict of a Deligne product from its factors': the center of a product
    is the product of the centers, and it is modular iff both factors are."""
    modular = a["modular"] and b["modular"]
    return {
        "passed": a["passed"] and b["passed"],
        "modular": modular,
        "center": sorted(f"({x},{y})" for x in a["center"] for y in b["center"]),
        "kernel": None if modular else True,
        "failures": {},
    }


def verify_setup(api, rng, refs):
    ref = refs["verify"]
    fixed, suite = verify_fixed_docs(api)
    docs = [(name, json.dumps(doc), ref[name]) for name, doc in fixed]
    by_rank = {r: [(name, p) for name, p in suite if p.rank == r] for r in SMALL_RANKS}
    for ra in SMALL_RANKS:
        for rb in SMALL_RANKS:
            for _ in range(PRODUCTS_PER_RANKS):
                (na, a), (nb, b) = rng.choice(by_rank[ra]), rng.choice(by_rank[rb])
                docs.append((f"prod({na},{nb})", json.dumps(api.category_to_doc(api.product(a, b))),
                             product_expectation(ref[na], ref[nb])))
    heavy = next(d for d in docs if d[0] == HEAVY_DOC)
    # Spread the large documents through the pass, so that the small
    # documents' latencies are sampled at several moments of it.
    large = [d for d in docs if d[0] in LARGE_DOCS]
    docs = [d for d in docs if d[0] not in (*LARGE_DOCS, HEAVY_DOC)]
    for i, d in enumerate(large):
        docs.insert((i + 1) * len(docs) // (len(large) + 1), d)
    return {"docs": docs, "heavy": heavy}


def verify_pass(ctx, inp):
    api = ctx.api
    for name, text, expected in inp["docs"]:
        out = ctx.op(name, lambda: verify_doc(api, text), lambda r: check.verdict(r[0], expected))
        api.count("formats.doc_kb", len(text) / 1024)
        if out is not None and out[1] is not None:
            p = out[1]
            ctx.probe("balancing", lambda: api.sprime_from_balancing(p.fusion, p.dims, p.theta))


def verify_traced_probes(ctx, inp):
    """The rank-81 document, checked like an op, and the memory peak of validating it."""
    api = ctx.api
    name, text, expected = inp["heavy"]
    ctx.probe(name, lambda: check.verdict(verify_doc(api, text)[0], expected))

    def memory():
        fusion = api.fusion_from_doc(json.loads(text))
        with api.memory("fusion.validate_peak_mb"):
            api.validate_fusion(fusion)

    ctx.probe(f"memory {name}", memory)


# -- shared ----------------------------------------------------------------------


def warm_up(api):
    """One small call to every timed public function, before the first op."""
    fib = api.builtin("fibonacci")
    z2 = api.builtin("pointed:2:0")
    doc = api.category_to_doc(fib)
    api.count("formats.doc_kb", len(json.dumps(doc)) / 1024)
    api.category_from_doc(doc)
    with api.memory("fusion.validate_peak_mb"):
        api.validate_fusion(api.fusion_from_doc(doc))
    api.sprime_from_balancing(fib.fusion, fib.dims, fib.theta)
    api.verify_premodular(fib)
    api.is_modular(fib)
    api.muger_center(fib)
    api.centralizer(fib, [0])
    api.check_minimal_extension(fib, [0, 1])
    api.orbit_decomposition(z2)
    c = api.condense(z2)
    api.condensed_to_doc(c)
    with api.memory("condense.peak_mb"):
        api.double_data(fib, [0, 1])
    g = api.plumbing_from_doc(api.plumbing_to_doc(api.plumbing([("u", -2), ("v", 1)], [("u", "v")])))
    api.rt_invariant(fib, g)
    api.signature(api.linking_matrix(g))
    api.bracket(fib, g)
    api.kirby_moves(g)
    api.bracket_descent_check(z2, g, c)
    api.pairing_bracket(fib, [0, 1])
    api.tau_double(fib, [0, 1], g)
    api.factorization_check(fib, g)
    api.restrict(fib, [0])


WORKLOADS = {
    "surgery": (surgery_setup, surgery_pass, surgery_traced_probes),
    "condense": (condense_setup, condense_pass, condense_traced_probes),
    "verify": (verify_setup, verify_pass, verify_traced_probes),
}
