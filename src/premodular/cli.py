"""Command-line front end.

Loads category and plumbing files (or builtin family expressions), runs the
verification, condensation, and invariant pipelines, and reports in text or
JSON.  Exit codes are the success signal: 0 all checks passed, 1 a check
failed, 2 a file or expression could not be parsed, 3 a coloring sum was
refused by the term cap.
"""

from __future__ import annotations

import argparse
import json
import math
import random
import sys
from dataclasses import dataclass

from . import families
from .condense import CondensedData, ResolutionError, condense, double_data
from .formats import (
    CategoryFormatError,
    _load,
    category_from_doc,
    condensed_to_doc,
    doc_sha256,
    fusion_from_doc,
    load_plumbing,
)
from .fusion import DEFAULT_TOL, ConvergenceError, validate_fusion
from .modular import is_modular, muger_center, verify_premodular
from .plumbing import (
    DEFAULT_TERM_CAP,
    InvariantValue,
    TermCapExceeded,
    kirby_moves,
    random_forest,
    rt_invariant,
)
from .double_rt import factorization_check, tau_double

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_PARSE_ERROR = 2
EXIT_TERM_CAP = 3

# data the checks reject; a fusion matrix sum without a Perron-Frobenius limit is one
_DATA_ERRORS = (ValueError, ResolutionError, ConvergenceError)


@dataclass(frozen=True)
class RunConfig:
    """Run-wide settings, taken from the command line."""

    tolerance: float = DEFAULT_TOL
    term_cap: float = DEFAULT_TERM_CAP
    output: str = "text"
    seed: int = 0

    def __post_init__(self):
        if self.tolerance <= 0:
            raise ValueError("tolerance must be positive")
        if self.term_cap <= 0:
            raise ValueError("term cap must be positive")


def _config_from_args(args) -> RunConfig:
    return RunConfig(
        tolerance=args.tolerance,
        term_cap=args.term_cap,
        output=args.output,
        seed=args.seed,
    )


def _emit(cfg: RunConfig, payload: dict, lines: list[str]):
    if cfg.output == "json":
        print(json.dumps(payload, indent=1, default=str))
    else:
        for line in lines:
            print(line)


def _load_data(args, cfg: RunConfig):
    if getattr(args, "builtin", None):
        expr = args.builtin
        if args.level is not None:
            expr = f"{expr}:{args.level}"
        if args.n is not None:
            expr = f"{expr}:{args.n}"
        if args.q is not None:
            expr = f"{expr}:{args.q}"
        try:
            return families.builtin(expr), {"builtin": expr}
        except ValueError as exc:
            raise CategoryFormatError(str(exc)) from None
    return category_from_doc(_category_doc(args), tol=cfg.tolerance), {"file": args.category}


def _category_doc(args) -> dict:
    if not args.category:
        raise CategoryFormatError("a category file or --builtin expression is required")
    return _load(args.category)


def _value_payload(v: InvariantValue) -> dict:
    return {"re": v.value.real, "im": v.value.imag, "tolerance": v.tolerance}


# -- subcommands ---------------------------------------------------------------


def cmd_verify(args, cfg: RunConfig) -> int:
    if args.builtin:
        p, src = _load_data(args, cfg)
    else:
        doc, src = _category_doc(args), {"file": args.category}
        try:
            p = category_from_doc(doc, tol=cfg.tolerance)
        except CategoryFormatError:
            raise
        except _DATA_ERRORS as exc:
            # premodular assembly failed; still report the fusion-layer checks
            rv = validate_fusion(fusion_from_doc(doc))
            lines = [str(c) for c in rv.checks] + [f"premodular assembly failed: {exc}", "verdict: FAIL"]
            payload = {
                "source": src,
                "fusion_checks": [
                    {"name": c.name, "passed": c.passed, "witness": c.witness} for c in rv.checks
                ],
                "error": str(exc),
                "passed": False,
            }
            _emit(cfg, payload, lines)
            return EXIT_CHECK_FAILED
    rv = validate_fusion(p.fusion)
    rp = verify_premodular(p, tol=cfg.tolerance)
    rm = is_modular(p, tol=cfg.tolerance)
    center = muger_center(p, tol=cfg.tolerance)
    passed = rv.passed and rp.passed
    payload = {
        "source": src,
        "fusion_checks": [
            {"name": c.name, "passed": c.passed, "witness": c.witness} for c in rv.checks
        ],
        "premodular_checks": [
            {"name": c.name, "passed": c.passed, "residual": c.residual, "witness": c.witness}
            for c in rp.checks
        ],
        "modular": rm.modular,
        "relation_residual": rm.residual if rm.modular else None,
        "center": [p.names[i] for i in center.degenerate],
        "center_even": center.is_even,
        "center_pointed": center.is_pointed,
        "passed": passed,
    }
    lines = [str(c) for c in rv.checks] + [str(c) for c in rp.checks]
    lines.append(f"modular: {str(rm.modular).lower()}")
    if rm.modular:
        lines.append(f"relation residual: {rm.residual:.3g}")
    lines.append(f"center: {{{', '.join(p.names[i] for i in center.degenerate)}}}")
    lines.append(f"verdict: {'pass' if passed else 'FAIL'}")
    _emit(cfg, payload, lines)
    return EXIT_OK if passed else EXIT_CHECK_FAILED


def cmd_center(args, cfg: RunConfig) -> int:
    p, src = _load_data(args, cfg)
    center = muger_center(p, tol=cfg.tolerance)
    payload = {
        "source": src,
        "degenerate": [p.names[i] for i in center.degenerate],
        "even": center.is_even,
        "pointed": center.is_pointed,
        "group_table": center.group_table.tolist() if center.group_table is not None else None,
    }
    lines = [
        f"center: {{{', '.join(p.names[i] for i in center.degenerate)}}}",
        f"even: {center.is_even}  pointed: {center.is_pointed}",
    ]
    _emit(cfg, payload, lines)
    return EXIT_OK


def _write_condensed(c: CondensedData, out_path: str, cfg: RunConfig, src: dict) -> int:
    if not c.solutions:
        # strict JSON has no Infinity: a residual that was never measured is null
        residual = c.best_residual if math.isfinite(c.best_residual) else None
        _emit(cfg, {"source": src, "resolution": c.status, "best_residual": residual,
                    "reason": c.reason},
              [f"resolution: {c.status} (best residual {c.best_residual:.3g})",
               f"reason: {c.reason}"])
        return EXIT_CHECK_FAILED
    doc = condensed_to_doc(c)
    with open(out_path, "w") as fh:
        json.dump(doc, fh, indent=1)
    payload = {
        "source": src,
        "written": out_path,
        "labels": [lab.name for lab in c.labels],
        "group_order": c.group_order,
        "resolution": doc["provenance"]["resolution_status"],
        "dim": c.solutions[0].total_dim,
        "sha256": doc_sha256(doc),
    }
    lines = [
        f"condensed {len(c.labels)} labels, group order {c.group_order}, "
        f"dim {c.solutions[0].total_dim:.9g}",
        f"resolution: {doc['provenance']['resolution_status']}",
        f"wrote {out_path}",
    ]
    _emit(cfg, payload, lines)
    return EXIT_OK


def cmd_condense(args, cfg: RunConfig) -> int:
    p, src = _load_data(args, cfg)
    return _write_condensed(condense(p, tol=cfg.tolerance), args.out, cfg, src)


def cmd_double(args, cfg: RunConfig) -> int:
    p, src = _load_data(args, cfg)
    delta = [s.strip() for s in args.delta.split(",")]
    return _write_condensed(double_data(p, delta, tol=cfg.tolerance), args.out, cfg, src)


def cmd_rt(args, cfg: RunConfig) -> int:
    p, src = _load_data(args, cfg)
    g = load_plumbing(args.plumbing[0])
    v = rt_invariant(p, g, term_cap=cfg.term_cap, tol=cfg.tolerance)
    _emit(cfg, {"source": src, "plumbing": args.plumbing[0], "value": _value_payload(v)}, [str(v)])
    return EXIT_OK


def cmd_double_rt(args, cfg: RunConfig) -> int:
    p, src = _load_data(args, cfg)
    g = load_plumbing(args.plumbing[0])
    delta = (
        [s.strip() for s in args.delta.split(",")]
        if args.delta
        else list(range(p.rank))
    )
    v = tau_double(p, delta, g, term_cap=cfg.term_cap, tol=cfg.tolerance)
    _emit(cfg, {"source": src, "plumbing": args.plumbing[0], "value": _value_payload(v)}, [str(v)])
    return EXIT_OK


def cmd_compare(args, cfg: RunConfig) -> int:
    if args.mode == "double" and not args.delta:
        raise CategoryFormatError("--delta is required for --mode double")
    p, src = _load_data(args, cfg)
    tol = max(cfg.tolerance, 1e-8)
    if args.mode == "double":
        delta = [s.strip() for s in args.delta.split(",")]
        double = double_data(p, delta, tol=cfg.tolerance).data
    results = []
    all_ok = True
    for path in args.plumbing:
        g = load_plumbing(path)
        if args.mode == "factorization":
            r = factorization_check(p, g, term_cap=cfg.term_cap, tol=tol)
            results.append(
                {"plumbing": path, "passed": r.passed,
                 "double": [r.double_value.real, r.double_value.imag],
                 "squared": [r.squared_value.real, r.squared_value.imag]}
            )
            all_ok &= r.passed
        else:
            lhs = tau_double(p, delta, g, term_cap=cfg.term_cap, tol=tol).value
            rhs = rt_invariant(double, g, term_cap=cfg.term_cap, tol=tol).value
            ok = abs(lhs - rhs) <= tol * max(1.0, abs(lhs), abs(rhs))
            results.append(
                {"plumbing": path, "passed": ok,
                 "tau_double": [lhs.real, lhs.imag], "rt_double": [rhs.real, rhs.imag]}
            )
            all_ok &= ok
    lines = [
        f"{r['plumbing']}: {'ok' if r['passed'] else 'MISMATCH'}" for r in results
    ]
    _emit(cfg, {"source": src, "mode": args.mode, "results": results, "passed": all_ok}, lines)
    return EXIT_OK if all_ok else EXIT_CHECK_FAILED


def cmd_kirby_test(args, cfg: RunConfig) -> int:
    p, src = _load_data(args, cfg)
    rng = random.Random(cfg.seed)
    tol = max(cfg.tolerance, 1e-8)
    worst = 0.0
    failures = 0
    for _ in range(args.count):
        g = random_forest(rng, max_vertices=args.max_vertices)
        base = rt_invariant(p, g, term_cap=cfg.term_cap, tol=cfg.tolerance).value
        for h in kirby_moves(g):
            dev = abs(rt_invariant(p, h, term_cap=cfg.term_cap, tol=cfg.tolerance).value - base)
            worst = max(worst, dev)
            if dev > tol * max(1.0, abs(base)):
                failures += 1
    payload = {
        "source": src, "count": args.count, "seed": cfg.seed,
        "worst_deviation": worst, "failures": failures, "passed": failures == 0,
    }
    _emit(cfg, payload,
          [f"{args.count} forests, worst deviation {worst:.3g}, failures {failures}"])
    return EXIT_OK if failures == 0 else EXIT_CHECK_FAILED


# -- parser ----------------------------------------------------------------------


def _common_options() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--tolerance", type=float, default=DEFAULT_TOL)
    common.add_argument("--term-cap", type=float, default=float(DEFAULT_TERM_CAP))
    common.add_argument("--output", choices=("text", "json"), default="text")
    common.add_argument("--seed", type=int, default=0)
    common.add_argument("category", nargs="?", help="category file (JSON)")
    common.add_argument(
        "--builtin",
        help="builtin family expression, e.g. su2:4 or prod(su2:4,conj(su2:4))",
    )
    common.add_argument("--level", type=int, default=None, help="level parameter for su2")
    common.add_argument("--n", type=int, default=None, help="order parameter for pointed")
    common.add_argument("--q", type=int, default=None, help="quadratic exponent for pointed")
    return common


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="premodular",
        description="Premodular category data, modularization, and surgery invariants.",
    )
    common = _common_options()
    subs = parser.add_subparsers(dest="command", required=True)

    sp = subs.add_parser("verify", parents=[common], help="validate fusion and premodular data")
    sp.set_defaults(func=cmd_verify)

    sp = subs.add_parser("center", parents=[common], help="report the transparent subcategory")
    sp.set_defaults(func=cmd_center)

    sp = subs.add_parser("condense", parents=[common], help="modularize by the even pointed center")
    sp.add_argument("-o", "--out", required=True, help="output category file")
    sp.set_defaults(func=cmd_condense)

    sp = subs.add_parser("double", parents=[common], help="quantum double data of a subcategory")
    sp.add_argument("--delta", required=True, help="comma-separated subcategory labels")
    sp.add_argument("-o", "--out", required=True, help="output category file")
    sp.set_defaults(func=cmd_double)

    sp = subs.add_parser("rt", parents=[common], help="Reshetikhin-Turaev invariant of a plumbing")
    sp.add_argument("-g", "--plumbing", action="append", required=True, help="plumbing file (JSON)")
    sp.set_defaults(func=cmd_rt)

    sp = subs.add_parser(
        "double-rt", parents=[common], help="factorized double invariant of a plumbing"
    )
    sp.add_argument("-g", "--plumbing", action="append", required=True, help="plumbing file (JSON)")
    sp.add_argument(
        "--delta", default=None,
        help="comma-separated subcategory labels (default: the whole category)",
    )
    sp.set_defaults(func=cmd_double_rt)

    sp = subs.add_parser("compare", parents=[common], help="cross-check the double invariant")
    sp.add_argument("-g", "--plumbing", action="append", required=True, help="plumbing file (JSON)")
    sp.add_argument("--mode", choices=("factorization", "double"), default="factorization")
    sp.add_argument("--delta", default=None, help="subcategory labels for --mode double")
    sp.set_defaults(func=cmd_compare)

    sp = subs.add_parser(
        "kirby-test", parents=[common], help="randomized blow-up/blow-down invariance test"
    )
    sp.add_argument("--count", type=int, default=50)
    sp.add_argument("--max-vertices", type=int, default=6)
    sp.set_defaults(func=cmd_kirby_test)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse usage errors carry code 2
        return int(exc.code or 0)
    try:
        cfg = _config_from_args(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE_ERROR
    try:
        return args.func(args, cfg)
    except CategoryFormatError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE_ERROR
    except TermCapExceeded as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_TERM_CAP
    except _DATA_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CHECK_FAILED


def entry():
    sys.exit(main())


if __name__ == "__main__":
    entry()
