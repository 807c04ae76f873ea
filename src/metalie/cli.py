"""Command-line front end.

Exit codes: 0 success, 1 verification failure, 2 a refused input: a
`poly.UsageError` (parse errors and inputs over a budget included) or an
`OSError`, 3 internal error: any other exception, a bare `ValueError`
included, reported as one `internal error:` line on stderr.  All machine
output goes through --json; plain output is aligned text.
"""

from __future__ import annotations

import argparse
import json
import sys
from functools import partial
from math import comb

from .invariants import (
    check_span_budget,
    decide_finite_generation,
    infinite_family_witness,
    load_catalog,
    pi,
    verify_catalog,
    witness_pair,
)
from .metabelian import (
    LieContext,
    format_commutator_expansion,
    lie_normal_form,
    parse_lie_expr,
    to_commutator_basis,
)
from .poly import Poly, UsageError
from .series import invariant_dimension_series, weight_difference_counts
from .sl2 import ModuleSpec, failing_derivation_image, is_invariant, is_invariant_by_derivations

MAX_TRUNCATION = 64
# Budget on the rank: the generators of a module specification, or the largest
# x<k> of a `normalize` input.  `check` builds the two derivations by their
# sparse columns; at the budget, `check 1023` takes about 0.004 s and 18 MB
# peak RSS on `x1`, and 0.17 s and 21 MB on the sum of all 1024 variables
# (in-process, Python 3.11, a shared 2-CPU host).
MAX_RANK = 1024
# Budget for the invariant targets of `hilbert`, in slice cells the weight-space
# builder touches (about d * N * (N * k_max + 1)); the slowest input found near
# it, `16,15,...,1 invariant-module -N 64` (9 971 200 cells), takes 0.7 - 1.1 s
# in-process (Python 3.11, a shared 2-CPU host).
MAX_HILBERT_CELLS = 10_000_000
# Budget on the members `witness --count` asks for.
MAX_WITNESS_COUNT = 64
# Budget on the summed terms of a witness family: the members built so far plus
# a bound on member n + 1 = member n * f, taken before it is built: terms(member
# n) * terms(f), or where that is over the budget, the smaller of it and the
# count of weight-0 monomials a_i * y^q of its degree (V5's member 4: 184 434
# and 18 302, against 12 786 terms).  The slowest accepted input is still
# `witness 3 --count 27`, 1.0 s as a fresh process (median of 3, Python 3.11, a
# shared 2-CPU host); every catalog-backed specification takes at most 0.5 s for 64 members.
MAX_WITNESS_TERMS = 58_000


def _parse_spec(text: str) -> ModuleSpec:
    spec = ModuleSpec.parse(text)
    _check_rank(spec.dimension)
    return spec


def _check_rank(rank: int) -> None:
    if rank > MAX_RANK:
        raise UsageError(f"rank over the budget of {MAX_RANK} generators")


def _check_truncation(n: int) -> int:
    if n < 0 or n > MAX_TRUNCATION:
        raise UsageError(f"truncation must be between 0 and {MAX_TRUNCATION}")
    return n


def _check_hilbert_cells(spec: ModuleSpec, n: int) -> None:
    cells = spec.dimension * n * (n * max(spec.blocks) + 1)
    if cells > MAX_HILBERT_CELLS:
        raise UsageError(f"hilbert {spec} -N {n} needs about {cells} slice cells, "
                         f"over the budget of {MAX_HILBERT_CELLS}")


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
    d = spec.dimension
    if d < 2 and args.target in ("metabelian", "invariant-module"):
        raise UsageError("need at least two generators")
    if args.target == "polyring":
        dims = [comb(m + d - 1, d - 1) for m in range(n + 1)]
    elif args.target == "metabelian":
        dims = [0, d][:n + 1] + [d * comb(m + d - 2, d - 1) - comb(m + d - 1, d - 1)
                                 for m in range(2, n + 1)]
    else:
        _check_hilbert_cells(spec, n)
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
    try:    # stdin's undecodable bytes, kept by surrogateescape, fail here as a file's do
        if args.file == "-":
            text = sys.stdin.read().encode("utf-8", "surrogateescape").decode("utf-8")
        else:
            with open(args.file) as fh:
                text = fh.read()
    except UnicodeError as exc:
        raise UsageError(str(exc)) from None
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
    value = pi(Poly.parse(args.f1), Poly.parse(args.f2), spec.context())
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


def _witness_family(spec: ModuleSpec, count: int) -> list:
    """The first `count` members, each built only while the family stays
    within MAX_WITNESS_TERMS summed terms; then the pair (u, f) is decided."""
    # substituting g1, g2 into V6's first member (2634 terms) takes about 3 s and
    # discriminant(8) alone 7.8 s (Python 3.11, 2 CPUs); V5, V7 take under 1 s
    if len(spec.blocks) == 1 and (spec.blocks[0] == 6 or spec.blocks[0] >= 8):
        raise UsageError(f"the witness pair of {spec} is over the budget "
                         "(single blocks of degree 6 or at least 8 are refused)")
    if not count:
        return []
    u, f = witness_pair(spec)
    members = infinite_family_witness(spec, (u, f))
    family, built = [next(members)], len(u.poly.terms)
    while len(family) < count:
        bound = len(family[-1].poly.terms) * len(f.terms)
        if built + bound > MAX_WITNESS_TERMS:    # the a_i * y^q of weight 0 and degree n + 1
            n = family[-1].total_degree() + f.total_degree() - 1
            ys = weight_difference_counts(spec, n, "polyring", [q - p for p, q in spec.weights()])
            bound = min(bound, sum(ys[n]))
        if built + bound > MAX_WITNESS_TERMS:
            raise UsageError(f"witness {spec} --count {count}: member {len(family) + 1} "
                             f"could take the family past the budget of "
                             f"{MAX_WITNESS_TERMS} terms")
        family.append(next(members))
        built += len(family[-1].poly.terms)
    # by the Leibniz rule delta1, delta2 kill every u * f^m once they kill u and f
    if not (all(is_invariant_by_derivations(p, spec) for p in (u, f)) and is_invariant(u, spec)):
        raise AssertionError(f"the witness pair of {spec} is not invariant")
    return family


def cmd_witness(args) -> int:
    spec = _parse_spec(args.spec)
    if not 0 <= args.count <= MAX_WITNESS_COUNT:
        raise UsageError(f"--count must be between 0 and {MAX_WITNESS_COUNT}")
    rows = [{"degree": u.total_degree(), "invariant": True,    # `_witness_family` decided it
             "element": format_commutator_expansion(to_commutator_basis(u))}
            for u in _witness_family(spec, args.count)]
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
    if not 0 <= rank_degree <= n:
        raise UsageError("--rank-degree must be between 0 and --degree")
    if len(cases) > 1:
        # refuse a run over several cases before verifying any of them
        for case_id in cases:
            check_span_budget(catalog[case_id], rank_degree)
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
    expr = _parse_expression(args.expression)
    if isinstance(expr, Poly):
        print(str(expr))
        return 0
    _check_rank(expr.rank)
    print(lie_normal_form(expr.evaluate(LieContext(expr.rank))))
    return 0


def build_parser() -> argparse.ArgumentParser:
    # argparse's default width, read once: argparse would read it in every formatter it makes
    import shutil
    formatter = partial(argparse.HelpFormatter, width=shutil.get_terminal_size().columns - 2)
    parser = argparse.ArgumentParser(
        prog="metalie", formatter_class=formatter,
        description="Exact SL2-invariant theory of free metabelian Lie algebras.")
    sub = parser.add_subparsers(dest="command", required=True, prog="metalie")

    def command(name, func, **kwargs):
        p = sub.add_parser(name, formatter_class=formatter, **kwargs)
        p.set_defaults(func=func)
        return p

    p = command("decide", cmd_decide, help="decide finite generation of the invariant algebra")
    p.add_argument("spec", help="module specification, e.g. 2,1")
    p.add_argument("--json", action="store_true")

    p = command("hilbert", cmd_hilbert, help="dimension series of a graded algebra")
    p.add_argument("spec")
    p.add_argument("target", choices=["polyring", "metabelian", "invariant-ring",
                                      "invariant-module"])
    p.add_argument("-N", dest="truncation", type=int, default=12)
    p.add_argument("--json", action="store_true")

    p = command("check", cmd_check, help="test an expression for invariance")
    p.add_argument("spec")
    p.add_argument("file", help="file with a polynomial or Lie expression; - for stdin")
    p.add_argument("--json", action="store_true")

    p = command("pi", cmd_pi, help="bracket of two embedded polynomials, in the word basis")
    p.add_argument("spec")
    p.add_argument("f1", help="polynomial; put -- before it if it begins with -")
    p.add_argument("f2", help="polynomial; put -- before it if it begins with -")
    p.add_argument("--json", action="store_true")

    p = command("witness", cmd_witness, help="invariants of strictly increasing degree")
    p.add_argument("spec")
    p.add_argument("--count", type=int, default=5)
    p.add_argument("--json", action="store_true")

    p = command("catalog", cmd_catalog, help="inspect or verify the generator catalog")
    p.add_argument("action", choices=["verify", "show"])
    p.add_argument("--case", help="i..vii; default all")
    p.add_argument("--degree", type=int, default=12)
    p.add_argument("--rank-degree", type=int, default=None,
                   help="bound for the span rank checks (default: --degree)")
    p.add_argument("--json", action="store_true")

    p = command("normalize", cmd_normalize, help="parse, canonicalize and reprint an expression")
    p.add_argument("expression", help="put -- before it if it begins with -")

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except (UsageError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:
        message = " ".join(f"{type(exc).__name__}: {exc}".split())
        print(f"internal error: {message}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
