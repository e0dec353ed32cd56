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
from .fusion import DEFAULT_TOL, FusionError, validate_fusion
from .modular import is_modular, muger_center, verify_premodular
from .plumbing import (
    DEFAULT_TERM_CAP,
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

# data the checks reject, a ring without a positive Perron-Frobenius vector among them
# (numpy's LinAlgError is a ValueError too), and an invariant that is not finite
_DATA_ERRORS = (ValueError, ResolutionError, OverflowError)


def _emit(args, payload: dict, lines: list[str]):
    if args.output == "json":
        print(json.dumps(payload, indent=1, default=str))
    else:
        for line in lines:
            print(line)


def _read(args) -> tuple[dict | None, dict]:
    """The category document (None for a ``--builtin`` expression) and the source record."""
    if args.builtin and args.category:
        raise CategoryFormatError(f"give a category file or --builtin, not both: {args.category!r} "
                                  f"and --builtin {args.builtin!r}")
    if args.builtin:
        return None, {"builtin": args.builtin}
    if not args.category:
        raise CategoryFormatError("a category file or --builtin expression is required")
    return _load(args.category), {"file": args.category}


def _assemble(args, doc: dict | None):
    """The category read from ``doc``, or from ``--builtin`` when ``doc`` is None."""
    if doc is not None:
        return category_from_doc(doc, tol=args.tolerance)
    try:
        return families.builtin(args.builtin)
    except ValueError as exc:
        raise CategoryFormatError(str(exc)) from None
    except RecursionError:
        raise CategoryFormatError("--builtin expression is nested too deeply") from None


def _load_data(args):
    doc, src = _read(args)
    return _assemble(args, doc), src


# -- subcommands ---------------------------------------------------------------


def cmd_verify(args) -> int:
    doc, src = _read(args)
    try:
        p, error = _assemble(args, doc), None
    except CategoryFormatError:
        raise
    except _DATA_ERRORS as exc:
        if doc is None:
            raise
        p, error = None, exc
    rv = validate_fusion(fusion_from_doc(doc) if p is None else p.fusion)
    payload = {
        "source": src,
        "fusion_checks": [
            {"name": c.name, "passed": c.passed, "witness": c.witness} for c in rv.checks
        ],
    }
    lines = [str(c) for c in rv.checks]
    if p is None:
        # premodular assembly failed; the fusion-layer checks are still reported
        payload.update(error=str(error), passed=False)
        lines += [f"premodular assembly failed: {error}", "verdict: FAIL"]
        _emit(args, payload, lines)
        return EXIT_CHECK_FAILED
    rp = verify_premodular(p, tol=args.tolerance)
    rm = is_modular(p, tol=args.tolerance)
    center = muger_center(p, tol=args.tolerance)
    passed = rv.passed and rp.passed
    payload.update({
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
    })
    lines += [str(c) for c in rp.checks]
    lines.append(f"modular: {str(rm.modular).lower()}")
    if rm.modular:
        lines.append(f"relation residual: {rm.residual:.3g}")
    lines.append(f"center: {{{', '.join(p.names[i] for i in center.degenerate)}}}")
    lines.append(f"verdict: {'pass' if passed else 'FAIL'}")
    _emit(args, payload, lines)
    return EXIT_OK if passed else EXIT_CHECK_FAILED


def cmd_center(args) -> int:
    p, src = _load_data(args)
    center = muger_center(p, tol=args.tolerance)
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
    _emit(args, payload, lines)
    return EXIT_OK


def _write_condensed(args, c: CondensedData, src: dict) -> int:
    try:
        doc = condensed_to_doc(c)
    except ResolutionError:
        # strict JSON has no Infinity: a residual that was never measured is null
        residual = c.best_residual if math.isfinite(c.best_residual) else None
        _emit(args, {"source": src, "resolution": c.status, "best_residual": residual,
                     "reason": c.reason},
              [f"resolution: {c.status} (best residual {c.best_residual:.3g})",
               f"reason: {c.reason}"])
        return EXIT_CHECK_FAILED
    try:
        with open(args.out, "w") as fh:
            json.dump(doc, fh, indent=1)
    except OSError as exc:
        raise CategoryFormatError(f"cannot write {args.out}: {exc}") from None
    payload = {
        "source": src,
        "written": args.out,
        "labels": [lab.name for lab in c.labels],
        "group_order": c.group_order,
        "resolution": doc["provenance"]["resolution_status"],
        "dim": c.data.total_dim,
        "sha256": doc_sha256(doc),
    }
    lines = [
        f"condensed {len(c.labels)} labels, group order {c.group_order}, "
        f"dim {c.data.total_dim:.9g}",
        f"resolution: {doc['provenance']['resolution_status']}",
        f"wrote {args.out}",
    ]
    _emit(args, payload, lines)
    return EXIT_OK


def cmd_condense(args) -> int:
    p, src = _load_data(args)
    return _write_condensed(args, condense(p, tol=args.tolerance), src)


def _split_labels(text: str) -> list[str]:
    """Split at the commas outside parentheses; strip each part."""
    parts, depth, start = [], 0, 0
    for i, ch in enumerate(text):
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        elif ch == "," and depth == 0:
            parts.append(text[start:i])
            start = i + 1
    parts.append(text[start:])
    return [s.strip() for s in parts]


def _delta(args, p) -> list[int]:
    """The ``--delta`` labels as indices of ``p`` (the whole category when omitted).

    An unknown label is a parse error; whether the labels form a
    subcategory is checked by the computation.  Labels are split at commas
    outside parentheses, so a product label such as ``(0,2)`` stays whole.
    """
    if args.delta is None:
        return list(range(p.rank))
    try:
        return [p.fusion.index(s) for s in _split_labels(args.delta)]
    except FusionError as exc:
        raise CategoryFormatError(f"--delta: {exc}") from None


def _plumbing_path(args) -> str:
    if len(args.plumbing) > 1:
        raise CategoryFormatError(f"{args.command} takes one -g/--plumbing file")
    return args.plumbing[0]


def cmd_double(args) -> int:
    p, src = _load_data(args)
    return _write_condensed(args, double_data(p, _delta(args, p), tol=args.tolerance), src)


def cmd_rt(args) -> int:
    """``rt``, and ``double-rt``: the double's invariant from the extension."""
    path = _plumbing_path(args)
    p, src = _load_data(args)
    g = load_plumbing(path)
    if args.command == "rt":
        v = rt_invariant(p, g, term_cap=args.term_cap, tol=args.tolerance)
    else:
        v = tau_double(p, _delta(args, p), g, term_cap=args.term_cap, tol=args.tolerance)
    value = {"re": v.value.real, "im": v.value.imag, "tolerance": v.tolerance}
    _emit(args, {"source": src, "plumbing": path, "value": value}, [str(v)])
    return EXIT_OK


def cmd_compare(args) -> int:
    if args.mode == "double" and not args.delta:
        raise CategoryFormatError("--delta is required for --mode double")
    if args.mode == "factorization" and args.delta is not None:
        raise CategoryFormatError("--delta applies only to --mode double")
    p, src = _load_data(args)
    tol = max(args.tolerance, 1e-8)
    if args.mode == "double":
        delta = _delta(args, p)
        double = double_data(p, delta, tol=args.tolerance).data
    results = []
    for path in args.plumbing:
        g = load_plumbing(path)
        if args.mode == "factorization":
            r = factorization_check(p, g, term_cap=args.term_cap, tol=tol)
            results.append(
                {"plumbing": path, "passed": r.passed,
                 "double": [r.double_value.real, r.double_value.imag],
                 "squared": [r.squared_value.real, r.squared_value.imag]}
            )
        else:
            lhs = tau_double(p, delta, g, term_cap=args.term_cap, tol=tol).value
            rhs = rt_invariant(double, g, term_cap=args.term_cap, tol=tol).value
            ok = abs(lhs - rhs) <= tol * max(1.0, abs(lhs), abs(rhs))
            results.append(
                {"plumbing": path, "passed": ok,
                 "tau_double": [lhs.real, lhs.imag], "rt_double": [rhs.real, rhs.imag]}
            )
    all_ok = all(r["passed"] for r in results)
    lines = [f"{r['plumbing']}: {'ok' if r['passed'] else 'MISMATCH'}" for r in results]
    _emit(args, {"source": src, "mode": args.mode, "results": results, "passed": all_ok}, lines)
    return EXIT_OK if all_ok else EXIT_CHECK_FAILED


def cmd_kirby_test(args) -> int:
    p, src = _load_data(args)
    rng = random.Random(args.seed)
    tol = max(args.tolerance, 1e-8)
    worst = 0.0
    failures = 0
    for _ in range(args.count):
        g = random_forest(rng, max_vertices=args.max_vertices)
        base = rt_invariant(p, g, term_cap=args.term_cap, tol=args.tolerance).value
        for h in kirby_moves(g):
            dev = abs(rt_invariant(p, h, term_cap=args.term_cap, tol=args.tolerance).value - base)
            worst = max(worst, dev)
            if dev > tol * max(1.0, abs(base)):
                failures += 1
    payload = {
        "source": src, "count": args.count, "seed": args.seed,
        "worst_deviation": worst, "failures": failures, "passed": failures == 0,
    }
    _emit(args, payload,
          [f"{args.count} forests, worst deviation {worst:.3g}, failures {failures}"])
    return EXIT_OK if failures == 0 else EXIT_CHECK_FAILED


# -- parser ----------------------------------------------------------------------


def _float(text: str) -> float:
    try:
        return float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid float value: {text!r}") from None


def _tolerance(text: str) -> float:
    x = _float(text)
    if not 0 < x < math.inf:
        raise argparse.ArgumentTypeError("tolerance must be a positive finite number")
    return x


def _non_negative_int(text: str) -> int:
    try:
        if int(text) >= 0:
            return int(text)
    except ValueError:
        pass
    raise argparse.ArgumentTypeError(f"must be a non-negative integer, not {text!r}")


def _term_cap(text: str) -> float:
    x = _float(text)
    if not x > 0:  # NaN fails; an infinite cap turns the cap off
        raise argparse.ArgumentTypeError("term cap must be positive")
    return x


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="premodular",
        description="Premodular category data, modularization, and surgery invariants.",
    )
    # every subcommand reads these four; --term-cap only the coloring sums
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--tolerance", type=_tolerance, default=DEFAULT_TOL)
    common.add_argument("--output", choices=("text", "json"), default="text")
    common.add_argument("category", nargs="?", help="category file (JSON)")
    common.add_argument(
        "--builtin",
        help="builtin family expression, e.g. su2:4, pointed:3:2 or prod(su2:4,conj(su2:4))",
    )
    capped = argparse.ArgumentParser(add_help=False)
    capped.add_argument("--term-cap", type=_term_cap, default=float(DEFAULT_TERM_CAP),
                        help="largest coloring sum evaluated (inf: no cap)")
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

    sp = subs.add_parser(
        "rt", parents=[common, capped], help="Reshetikhin-Turaev invariant of a plumbing"
    )
    sp.add_argument("-g", "--plumbing", action="append", required=True, help="one plumbing file (JSON)")
    sp.set_defaults(func=cmd_rt)

    sp = subs.add_parser(
        "double-rt", parents=[common, capped], help="factorized double invariant of a plumbing"
    )
    sp.add_argument("-g", "--plumbing", action="append", required=True, help="one plumbing file (JSON)")
    sp.add_argument(
        "--delta", default=None,
        help="comma-separated subcategory labels (default: the whole category)",
    )
    sp.set_defaults(func=cmd_rt)

    sp = subs.add_parser(
        "compare", parents=[common, capped], help="cross-check the double invariant"
    )
    sp.add_argument("-g", "--plumbing", action="append", required=True, help="plumbing file (JSON)")
    sp.add_argument("--mode", choices=("factorization", "double"), default="factorization")
    sp.add_argument("--delta", default=None, help="subcategory labels for --mode double")
    sp.set_defaults(func=cmd_compare)

    sp = subs.add_parser(
        "kirby-test", parents=[common, capped], help="randomized blow-up/blow-down invariance test"
    )
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--count", type=_non_negative_int, default=50)
    sp.add_argument("--max-vertices", type=_non_negative_int, default=6)
    sp.set_defaults(func=cmd_kirby_test)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse usage errors carry code 2
        return int(exc.code or 0)
    try:
        return args.func(args)
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
