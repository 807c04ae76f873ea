"""Command-line front end.

Exit codes: 0 success, 1 verification failure, 2 usage or parse error.
All machine output goes through --json; plain output is aligned text.
"""

from __future__ import annotations

import argparse
import json
import sys
from itertools import islice

from .invariants import (
    NoKnownWitness,
    NonHomogeneousInput,
    decide_finite_generation,
    infinite_family_witness,
    load_catalog,
    pi,
    verify_catalog,
)
from .metabelian import (
    NotInCommutatorIdeal,
    format_commutator_expansion,
    lie_normal_form,
    parse_lie_expr,
    to_commutator_basis,
)
from .poly import ParseError, Poly
from .series import invariant_dimension_series, hilbert_polyring, hilbert_metabelian
from .sl2 import ModuleSpec, failing_derivation_image, is_invariant

MAX_TRUNCATION = 64


class UsageError(Exception):
    pass


def _parse_spec(text: str) -> ModuleSpec:
    try:
        return ModuleSpec.parse(text)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc


def _check_truncation(n: int) -> int:
    if n < 0 or n > MAX_TRUNCATION:
        raise UsageError(f"truncation must be between 0 and {MAX_TRUNCATION}")
    return n


def _parse_expression(text: str):
    """Polynomial or Lie expression, keyed on the presence of a bracket."""
    if "[" in text:
        return parse_lie_expr(text)
    return Poly.parse(text)


def cmd_decide(args) -> int:
    spec = _parse_spec(args.spec)
    verdict = decide_finite_generation(spec)
    if args.json:
        print(json.dumps(verdict.to_json()))
    else:
        state = "finitely generated" if verdict.finitely_generated else "not finitely generated"
        print(f"invariant algebra for {spec}: {state} ({verdict.reason})")
        if verdict.generators:
            print("generators: " + ", ".join(verdict.generators))
    return 0


def cmd_hilbert(args) -> int:
    spec = _parse_spec(args.spec)
    n = _check_truncation(args.truncation)
    if args.target == "polyring":
        series = hilbert_polyring(spec.dimension, n)
        dims = [0] * (n + 1)
        for exps, c in series.coefficients.items():
            dims[sum(exps)] += int(c)
    elif args.target == "metabelian":
        series = hilbert_metabelian(spec.dimension, n)
        dims = [0] * (n + 1)
        for exps, c in series.coefficients.items():
            dims[sum(exps)] += int(c)
    else:
        space = "polyring" if args.target == "invariant-ring" else "module"
        dims = [int(c) for c in
                invariant_dimension_series(spec, n, space).univariate_coefficients()]
    if args.json:
        print(json.dumps(dims))
    else:
        terms = [f"{c}*z^{i}" for i, c in enumerate(dims) if c]
        print(" + ".join(terms) if terms else "0")
    return 0


def cmd_check(args) -> int:
    spec = _parse_spec(args.spec)
    if args.file == "-":
        text = sys.stdin.read()
    else:
        with open(args.file) as fh:
            text = fh.read()
    expr = _parse_expression(text)
    value = expr.evaluate(spec.context()) if not isinstance(expr, Poly) else expr
    failing = failing_derivation_image(value, spec)
    invariant = failing is None
    if args.json:
        out = {"invariant": invariant}
        if failing:
            out["failing"] = {"derivation": failing[0], "image": str(failing[1])}
        print(json.dumps(out))
    else:
        if invariant:
            print("invariant")
        else:
            name, image = failing
            print(f"not invariant: {name} maps it to {image}")
    return 0 if invariant else 1


def cmd_pi(args) -> int:
    spec = _parse_spec(args.spec)
    f1 = Poly.parse(args.f1)
    f2 = Poly.parse(args.f2)
    value = pi(f1, f2, spec.context())
    expansion = to_commutator_basis(value)
    text = format_commutator_expansion(expansion)
    if args.json:
        print(json.dumps({
            "zero": value.is_zero(),
            "expansion": text,
            "terms": [[str(c), str(w)] for c, w in expansion],
        }))
    else:
        print(text if expansion else "0 (the bracket vanishes)")
    return 0


def cmd_witness(args) -> int:
    spec = _parse_spec(args.spec)
    try:
        family = list(islice(infinite_family_witness(spec), args.count))
    except NoKnownWitness as exc:
        raise UsageError(str(exc)) from exc
    rows = []
    for u in family:
        rows.append({
            "degree": u.total_degree(),
            "invariant": is_invariant(u, spec),
            "element": format_commutator_expansion(to_commutator_basis(u)),
        })
    if args.json:
        print(json.dumps(rows))
    else:
        for row in rows:
            print(f"degree {row['degree']:3}: {row['element']}")
    return 0


def cmd_catalog(args) -> int:
    catalog = load_catalog()
    cases = [args.case] if args.case else list(catalog)
    for case_id in cases:
        if case_id not in catalog:
            raise UsageError(f"unknown catalog case {case_id!r}; have {', '.join(catalog)}")
    if args.action == "show":
        for case_id in cases:
            entry = catalog[case_id]
            if args.json:
                print(json.dumps({
                    "case": case_id,
                    "spec": str(entry.spec),
                    "module_series": entry.module_series_text,
                    "ring_series": entry.ring_series_text,
                    "module_generators": list(entry.module_generator_texts),
                    "ring_generators": list(entry.ring_generator_texts),
                    "relations": list(entry.relation_texts),
                    "ring_transcendence_degree": entry.ring_transcendence_degree,
                }))
            else:
                print(f"case {case_id}: blocks {entry.spec}")
                print(f"  module series: {entry.module_series_text}")
                print(f"  ring series:   {entry.ring_series_text}")
                print(f"  ring transcendence degree: {entry.ring_transcendence_degree}")
                for i, text in enumerate(entry.module_generator_texts, start=1):
                    print(f"  v{i} = {text}")
                for i, text in enumerate(entry.ring_generator_texts, start=1):
                    print(f"  f{i} = {text}")
                for text in entry.relation_texts:
                    print(f"  relation: {text} = 0")
        return 0
    n = _check_truncation(args.degree)
    rank_degree = args.rank_degree if args.rank_degree is not None else n
    _check_truncation(rank_degree)
    all_passed = True
    for case_id in cases:
        report = verify_catalog(catalog[case_id], n, rank_degree)
        all_passed &= report.passed
        if args.json:
            print(json.dumps(report.to_json()))
        else:
            print(f"case {case_id}: {'PASS' if report.passed else 'FAIL'}")
            for check in report.checks:
                mark = "ok" if check.passed else "FAIL"
                detail = f" ({check.detail})" if check.detail else ""
                print(f"  [{mark:4}] {check.name}{detail}")
    return 0 if all_passed else 1


def cmd_normalize(args) -> int:
    from .metabelian import LieContext

    expr = _parse_expression(args.expression)
    if isinstance(expr, Poly):
        print(str(expr))
        return 0
    indices = [g.index for g in _generators_of(expr)]
    value = expr.evaluate(LieContext(max(indices, default=1)))
    print(lie_normal_form(value))
    return 0


def _generators_of(expr):
    from .metabelian import Ad, Bracket, Gen, Scale, Sum

    if isinstance(expr, Gen):
        yield expr
    elif isinstance(expr, Bracket):
        for item in expr.items:
            yield from _generators_of(item)
    elif isinstance(expr, (Scale, Ad)):
        yield from _generators_of(expr.arg)
    elif isinstance(expr, Sum):
        for item in expr.items:
            yield from _generators_of(item)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="metalie",
        description="Exact SL2-invariant theory of free metabelian Lie algebras.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("decide", help="decide finite generation of the invariant algebra")
    p.add_argument("spec", help="module specification, e.g. 2,1")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_decide)

    p = sub.add_parser("hilbert", help="dimension series of a graded algebra")
    p.add_argument("spec")
    p.add_argument("target", choices=["polyring", "metabelian", "invariant-ring",
                                      "invariant-module"])
    p.add_argument("-N", dest="truncation", type=int, default=12)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_hilbert)

    p = sub.add_parser("check", help="test an expression for invariance")
    p.add_argument("spec")
    p.add_argument("file", help="file with a polynomial or Lie expression; - for stdin")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("pi", help="bracket of two embedded polynomials, in the word basis")
    p.add_argument("spec")
    p.add_argument("f1")
    p.add_argument("f2")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_pi)

    p = sub.add_parser("witness", help="invariants of strictly increasing degree")
    p.add_argument("spec")
    p.add_argument("--count", type=int, default=5)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_witness)

    p = sub.add_parser("catalog", help="inspect or verify the generator catalog")
    p.add_argument("action", choices=["verify", "show"])
    p.add_argument("--case", help="i..vii; default all")
    p.add_argument("--degree", type=int, default=12)
    p.add_argument("--rank-degree", type=int, default=None,
                   help="bound for the span rank checks (default: --degree)")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_catalog)

    p = sub.add_parser("normalize", help="parse, canonicalize and reprint an expression")
    p.add_argument("expression")
    p.set_defaults(func=cmd_normalize)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except (ParseError, UsageError, NonHomogeneousInput, NotInCommutatorIdeal,
            FileNotFoundError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
