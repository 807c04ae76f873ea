#!/usr/bin/env python3
"""Layer microbenchmarks and end-to-end timings, written to BENCH_29.json.

    python3 scripts/bench.py [--src DIR] [--column NAME[=DIR] ...] [--out FILE] [--tiny]

Each column measures the `metalie` package of one `src` directory: `NAME=DIR`
names the directory, and a bare `NAME` takes `--src` (default: this
checkout).  Every column runs in a worker process of its own, and the
columns take turns repeat by repeat (in the order A B, then B A, ...), so
drift of a shared host falls on all of them alike.  Each entry is timed with
`time.perf_counter` over 7 runs and stored as the median `seconds` with the
quartiles `q1` and `q3` of those runs, then run once more under `tracemalloc`
for its peak memory (an entry run in a fresh interpreter reports that
interpreter's peak).  It is stored with its problem sizes (terms, maximum
exponent) under its column; the other columns of an existing output file are
kept.  A before/after table of the same inputs is therefore

    python3 scripts/bench.py --column parent=../parent/src --column change

`--tiny` runs every entry once at a small size (a smoke test).  Only the
standard library is used.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import random
import statistics
import subprocess
import sys
import tracemalloc
from itertools import islice
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent


def max_exponent(p) -> int:
    """Largest exponent of p."""
    from metalie.poly import fields

    return max((e for m in p.terms for _, e in fields(m)), default=0)


def child_env() -> dict:
    """The environment of a fresh interpreter that imports this column's `metalie`."""
    import metalie

    return {**os.environ, "PYTHONPATH": str(Path(metalie.__file__).parent.parent)}


def random_poly(rng, terms: int, variables: int, top: int):
    from metalie.poly import Poly

    monomials = set()
    while len(monomials) < terms:
        monomials.add(tuple(rng.randint(0, top) for _ in range(variables)))
    text = " + ".join(f"{rng.randint(1, 9)}*"
                      + "*".join(f"x{j + 1}^{e}" for j, e in enumerate(m))
                      for m in sorted(monomials))
    return Poly.parse(text)


def layer_entries(tiny: bool):
    """(name, what, thunk, sizes) for the Poly and envelope layers."""
    from metalie.invariants import discriminant, infinite_family_witness, load_catalog
    from metalie.metabelian import (LieContext, from_commutator_basis, parse_lie_expr,
                                    to_commutator_basis)
    from metalie.poly import Poly, slot, tokenize, var_key
    from metalie.sl2 import ModuleSpec, derivations, g1_matrix, g2_matrix, invariant_dimension

    rng = random.Random(6)
    n = 20 if tiny else 150
    a, b = random_poly(rng, n, 6, 3), random_poly(rng, n, 6, 3)
    product = a * b
    yield ("poly.mul", f"product of two {n}-term polynomials in 6 variables",
           lambda: a * b, {"terms_a": len(a.terms), "terms_b": len(b.terms),
                           "terms_out": len(product.terms),
                           "max_exponent": max_exponent(product)})

    variables = product.variables()
    yield ("poly.partial", "partial derivative of that product by each of its variables",
           lambda: [product.partial(v) for v in variables],
           {"terms": len(product.terms), "variables": len(variables),
            "max_exponent": max_exponent(product)})

    spec = ModuleSpec((3,))
    count = 2 if tiny else 6
    u = list(islice(infinite_family_witness(spec), count))[-1]
    g = g1_matrix(spec)
    # the images of the witness's own variables, whatever alphabets it uses
    images = {v: g.column_image(*var_key(v)) for v in u.poly.variables()}
    image = u.poly.substitute(images)
    yield ("poly.substitute", f"g1 substituted into the degree-{u.total_degree()} "
                              "V3 witness",
           lambda: u.poly.substitute(images),
           {"terms_in": len(u.poly.terms), "terms_out": len(image.terms),
            "max_exponent": max_exponent(u.poly)})

    # the same substitution in fresh names, registered in the reverse of their
    # order, so that its cost shows whether it depends on the slot order; the
    # fresh slots lie above all others, so its monomials are also wider
    fresh = {v: f"r{v}" for v in images}
    for name in sorted(fresh.values(), key=var_key, reverse=True):
        slot(name)
    renamed, renamed_images = u.poly.rename(fresh), {fresh[v]: image.rename(fresh)
                                                     for v, image in images.items()}
    yield ("poly.substitute.reordered", "that substitution, its variables renamed to fresh "
                                        "names registered in reverse order",
           lambda: renamed.substitute(renamed_images),
           {"terms_in": len(renamed.terms), "terms_out": len(image.terms),
            "max_exponent": max_exponent(renamed)})

    k = 3 if tiny else 5
    ctx = LieContext(k + 2)
    f = discriminant(k)
    shifted = f.rename({f"x{j}": f"x{j + 1}" for j in range(1, k + 2)})
    f1, f2 = ctx.embed_poly(f), ctx.embed_poly(shifted)
    bracket = f1.bracket(f2)
    yield ("metabelian.bracket", f"bracket of the embedded discriminant({k}) in x1..x{k + 1} "
                                 f"and in x2..x{k + 2}",
           lambda: f1.bracket(f2),
           {"terms_a": len(f1.poly.terms), "terms_b": len(f2.poly.terms),
            "terms_out": len(bracket.poly.terms), "max_exponent": max_exponent(bracket.poly)})

    # a module element bracketed with a wide linear form, near the budget on term pairs:
    # the y-part of the form times each a-coefficient of the element, a term each
    a, w = (3, 10) if tiny else (11, 81)
    wide = LieContext(w)
    element = parse_lie_expr(f"[x2,x1].(x1+x2+x3+x4+x5+x6)^{a}").evaluate(wide)
    form = "+".join(f"x{j}" for j in range(1, w + 1))
    nested = parse_lie_expr(f"[[x2,x1].(x1+x2+x3+x4+x5+x6)^{a}, {form}]")
    yield ("metabelian.bracket.nested", f"[[x2,x1].(x1+...+x6)^{a}, x1+...+x{w}] evaluated in "
                                        f"rank {w}, its module action and its bracket",
           lambda: nested.evaluate(wide),
           {"terms_a": len(element.poly.terms), "terms_b": w,
            "term_pairs": w * len(element.poly.terms),
            "terms_out": len(nested.evaluate(wide).poly.terms)})

    cases = [(text, case.spec.context()) for case in load_catalog().values()
             for text in case.module_generator_texts]
    values = [parse_lie_expr(text).evaluate(ctx) for text, ctx in cases]
    yield ("metabelian.parse_lie_expr", f"the {len(cases)} catalog module generators parsed "
                                        "and evaluated, each in its case's rank",
           lambda: [parse_lie_expr(text).evaluate(ctx) for text, ctx in cases],
           {"texts": len(cases), "tokens": sum(len(tokenize(text)) for text, _ in cases),
            "terms_out": sum(len(v.poly.terms) for v in values)})

    expansion = to_commutator_basis(u)
    pairs = [(delta, g) for case in load_catalog().values() for delta in derivations(case.spec)
             for g in (*case.module_generators, *case.ring_generators)]
    pairs += [(delta, u) for delta in derivations(spec)]
    terms = [len((g if isinstance(g, Poly) else g.poly).terms) for _, g in pairs]
    yield ("sl2.derivation_act", "delta1 and delta2 on every catalog generator and on that "
                                 "V3 witness",
           lambda: [delta.act(g) for delta, g in pairs],
           {"actions": len(pairs), "terms_in": sum(terms), "max_terms_in": max(terms)})

    yield ("metabelian.to_commutator_basis", "expansion of that V3 witness in the word basis",
           lambda: to_commutator_basis(u),
           {"terms_in": len(u.poly.terms), "words_out": len(expansion)})

    yield ("metabelian.from_commutator_basis", "that V3 witness rebuilt from its expansion",
           lambda: from_commutator_basis(u.ctx, expansion),
           {"words_in": len(expansion), "terms_out": len(u.poly.terms)})

    spec = ModuleSpec((2, 1))
    top = 6 if tiny else 10
    spaces = ("polyring", "module")
    dims = [invariant_dimension(spec, n, space) for space in spaces for n in range(top + 1)]
    yield ("sl2.invariant_dimension", f"invariant dimensions of {spec}, ring and module, "
                                      f"degrees 0..{top}",
           lambda: [invariant_dimension(spec, n, space) for space in spaces
                    for n in range(top + 1)],
           {"rank": spec.dimension, "degrees": top + 1, "dimension_sum": sum(dims)})

    k = 31 if tiny else 1023
    yield ("sl2.operators", f"g1, g2, delta1 and delta2 of V{k}, built in a fresh "
                            "interpreter, timed there",
           Child(child_env(), OPERATORS, str(k)), {"rank": k + 1})


def catalog_entries(tiny: bool):
    """(name, what, thunk, sizes) for the series and rank layers of `catalog verify`."""
    from metalie import invariants
    from metalie.linalg import rank
    from metalie.poly import Poly, field_mask
    from metalie.series import (decompose_slice, expand_rational, parse_rational_function,
                                symmetrizes_to, weight_character, weight_slices)

    n = 6 if tiny else 12
    case = invariants.load_catalog()["vii"]
    character = weight_character(case.spec, n, "polyring")
    square = character * character
    yield ("series.mul", f"square of the degree-{n} polynomial-ring character of "
                         f"{case.spec} in (t1, t2, z)",
           lambda: character * character,
           {"terms_a": len(character.coefficients), "terms_out": len(square.coefficients)})

    # the series checks of `catalog verify` on the slices of both spaces, lines
    # {t: [c(0, t), ..., c(t, 0)]}; sizes count their nonzero cells
    weights = case.spec.weights()

    def nonzero(row):
        return sum(len(line) - line.count(0) for line in row.values())
    spaces = ("module", "polyring")
    slices = [row for space in spaces for row in weight_slices(weights, n, space)]
    cells = sum(map(nonzero, slices))
    yield ("series.weight_slices", f"the module and ring weight slices of {case.spec} "
                                   f"to degree {n}",
           lambda: [weight_slices(weights, n, space) for space in spaces],
           {"slices": len(slices), "cells": cells})

    found = [decompose_slice(row) for row in slices]
    multiplicities = sum(map(nonzero, found))
    yield ("series.decompose_slice", "decomposition of each of those slices",
           lambda: [decompose_slice(row) for row in slices],
           {"slices": len(slices), "cells": cells, "multiplicities": multiplicities})

    yield ("series.symmetrizes_to", "each of those slices rebuilt from its multiplicities",
           lambda: all(symmetrizes_to(f, row) for f, row in zip(found, slices)),
           {"slices": len(slices), "multiplicities": multiplicities})

    gens = [invariants.parse_lie_expr(text).evaluate(case.spec.context())
            for text in case.module_generator_texts]
    ring = [Poly.parse(text) for text in case.ring_generator_texts]
    # the rows `verify_catalog` ranks: the terms that meet the section dropped,
    # with the term filter it builds them with
    mask = field_mask(invariants._section(case.spec))

    def rho(p):
        return Poly({m: c for m, c in p.terms.items() if not m & mask})

    products = invariants._ring_monomial_table([rho(g) for g in ring], n,
                                               [g.total_degree() for g in ring])
    sliced = [(rho(v.poly) * p).terms for v in gens for p in products[n - v.total_degree()]]
    products = invariants._ring_monomial_table(ring, n)
    rows = [v.ad_action(p).poly.terms for v in gens for p in products[n - v.total_degree()]]
    for name, what, table in (("linalg.rank", "restricted to the section, as `catalog verify` "
                                              "ranks them", sliced),
                              ("linalg.rank.full", "in full, as the fallback ranks them", rows)):
        yield (name, f"rank of the degree-{n} module span rows of case vii, {what}",
               lambda table=table: rank(table),
               {"rows": len(table), "columns": len(set().union(*table)), "rank": rank(table)})

    # both span checks of cases vi and vii, timed by the report itself (the
    # seconds of the two `*-span` checks); sizes: the rows the checks count
    # and the rows formed and handed to `linalg.rank`
    spans = [invariants.load_catalog()[case_id] for case_id in ("vi", "vii")]

    def span_seconds():
        return Timed(sum(check.elapsed for case in spans for check in
                         invariants.verify_catalog(case, n).checks if check.name.endswith("-span")))

    counted, real_rank = {"rows_formed": 0}, invariants.linalg.rank

    def counting_rank(rows):
        counted["rows_formed"] += len(rows)
        return real_rank(rows)

    invariants.linalg.rank = counting_rank
    try:
        checked = sum(check.size for case in spans for check in
                      invariants.verify_catalog(case, n).checks if check.name.endswith("-span"))
    finally:
        invariants.linalg.rank = real_rank
    yield ("catalog.span_checks", f"the ring and module span checks of cases vi and vii at "
                                  f"degree {n}, as `catalog verify` runs them",
           span_seconds, {"rows": checked, **counted})

    truncation = 16 if tiny else 64
    stated = [parse_rational_function(text) for c in invariants.load_catalog().values()
              for text in (c.module_series_text, c.ring_series_text)]
    yield ("series.expand_rational", f"the {len(stated)} stated catalog series to degree "
                                     f"{truncation}",
           lambda: [expand_rational(numer, factors, truncation) for numer, factors in stated],
           {"series": len(stated), "factors": sum(len(f) for _, f in stated),
            "truncation": truncation})


def text_entries(tiny: bool):
    """(name, what, thunk, sizes) for the text boundary of the invariance workload:
    its texts parsed and evaluated as the commands do, and its witness and `pi`
    answers expanded in the word basis and printed."""
    from itertools import islice

    from metalie.cli import _parse_expression
    from metalie.invariants import infinite_family_witness, pi
    from metalie.metabelian import (LieContext, format_commutator_expansion,
                                    to_commutator_basis)
    from metalie.poly import Poly, tokenize
    from metalie.sl2 import ModuleSpec

    sys.path.insert(0, str(ROOT / "bench"))
    from workloads import make_pass

    seeds = (1,) if tiny else (1, 2, 3)
    jobs = [job for seed in seeds for job in make_pass("invariance", seed)]
    texts = {"check": [], "pi": [], "normalize": []}
    answers = {"witness": [], "pi": []}
    for job in jobs:
        command, argv = job.argv[0], job.argv[1:]
        if command == "check":
            texts["check"].append((job.stdin, ModuleSpec.parse(argv[0]).context()))
        elif command == "normalize":
            texts["normalize"].append((argv[0], None))
        elif command == "pi":
            texts["pi"] += [(argv[1], None), (argv[2], None)]
            answers["pi"].append(pi(Poly.parse(argv[1]), Poly.parse(argv[2]),
                                    ModuleSpec.parse(argv[0]).context()))
        elif command == "witness":
            answers["witness"] += islice(infinite_family_witness(ModuleSpec.parse(argv[0])),
                                         int(argv[2]))

    def parse_all(family):
        values = []
        for text, ctx in texts[family]:
            expr = _parse_expression(text)
            values.append(expr if isinstance(expr, Poly) else
                          expr.evaluate(ctx or LieContext(expr.rank)).poly)
        return values

    for family, pairs in texts.items():
        values = parse_all(family)
        yield (f"text.parse {family}", f"the {family} texts of the invariance passes of seeds "
                                       f"{', '.join(map(str, seeds))}, parsed and evaluated",
               lambda family=family: parse_all(family),
               {"texts": len(pairs), "tokens": sum(len(tokenize(text)) for text, _ in pairs),
                "terms_out": sum(len(v.terms) for v in values)})

    def expand_all(family):
        return [format_commutator_expansion(to_commutator_basis(u)) for u in answers[family]]

    for family, values in answers.items():
        yield (f"text.expand {family}", f"the {family} answers of the same passes expanded in "
                                        "the word basis and printed",
               lambda family=family: expand_all(family),
               {"answers": len(values), "terms_in": sum(len(u.poly.terms) for u in values),
                "words_out": sum(len(to_commutator_basis(u)) for u in values)})


def pi_entries(tiny: bool):
    """(name, what, thunk, sizes) for `invariants.pi` alone: the `pi` answers of the
    invariance passes and one nonzero pair of powers of two linear forms."""
    from metalie.invariants import pi
    from metalie.poly import Poly
    from metalie.sl2 import ModuleSpec

    sys.path.insert(0, str(ROOT / "bench"))
    from workloads import make_pass

    seeds = (1,) if tiny else (1, 2, 3)
    argvs = [job.argv[1:4] for seed in seeds for job in make_pass("invariance", seed)
             if job.argv[0] == "pi"]
    n = 3 if tiny else 11
    argvs.append(("3", f"(x1+x2+x3+x4)^{n}", f"(x1+2*x2+3*x3+4*x4)^{n}"))
    jobs = [(Poly.parse(f1), Poly.parse(f2), ModuleSpec.parse(spec).context())
            for spec, f1, f2 in argvs]
    # the term pairs of pi's two products per variable, f2 * df1/dv and f1 * df2/dv
    names = [set(f1.variables()) | set(f2.variables()) for f1, f2, _ in jobs]
    pairs = sum(len(f2.terms) * len(f1.partial(v).terms)
                + len(f1.terms) * len(f2.partial(v).terms)
                for (f1, f2, _), vs in zip(jobs, names) for v in vs)
    yield ("invariants.pi", f"pi on the {len(jobs) - 1} pi jobs of the invariance passes of "
                            f"seeds {', '.join(map(str, seeds))} and on (x1+x2+x3+x4)^{n}, "
                            f"(x1+2*x2+3*x3+4*x4)^{n} in rank 4",
           lambda: [pi(*job) for job in jobs],
           {"jobs": len(jobs), "variables": sum(map(len, names)), "term_pairs": pairs,
            "terms_out": sum(len(pi(*job).poly.terms) for job in jobs)})


def cli_entries(tiny: bool):
    """(name, what, thunk, sizes) for whole `metalie` commands."""
    import metalie
    from metalie.cli import build_parser, main
    from metalie.poly import Poly

    def command(*argv, stdin="", exit_code=0):
        def run():
            out = io.StringIO()
            channel, sys.stdin = sys.stdin, io.StringIO(stdin)
            try:
                with contextlib.redirect_stdout(out):
                    code = main(list(argv))
            finally:
                sys.stdin = channel
            if code != exit_code:
                raise RuntimeError(f"{' '.join(argv)} exited {code}")
            return out.getvalue()
        return run

    # the cost every command pays in `main`: the parser built, the arguments
    # read and one trivial job run, averaged over a batch of calls
    calls = 20 if tiny else 200
    normalize = command("normalize", "x1")

    def per_call():
        start = perf_counter()
        for _ in range(calls):
            normalize()
        return Timed((perf_counter() - start) / calls)
    yield ("cli.main.per_call", f"main(['normalize', 'x1']) in-process, seconds per call over "
                                f"{calls} calls", per_call, {"calls": calls})

    # the part of that cost which builds the parser, every command and argument of it
    def per_build():
        start = perf_counter()
        for _ in range(calls):
            build_parser()
        return Timed((perf_counter() - start) / calls)
    parser = build_parser()
    parsers = [parser, *next(a for a in parser._actions if a.dest == "command").choices.values()]
    yield ("cli.build_parser", f"build_parser() in-process, seconds per build over {calls} builds",
           per_build, {"calls": calls, "parsers": len(parsers),
                       "arguments": sum(len(p._actions) for p in parsers)})

    # hilbert on several specifications and truncations, the last near the
    # budget of slice cells (27 blocks V8 at -N 64: 7 978 176 cells)
    top = 16 if tiny else 64
    for spec, target, n in (("2,1", "invariant-module", 16), ("4,2,1", "invariant-ring", 16),
                            ("8,7,6", "invariant-module", top), ("3,2,1", "invariant-module", top),
                            (",".join(["8"] * 27), "invariant-module", 8 if tiny else 64)):
        hilbert = ("hilbert", spec, target, "-N", str(n), "--json")
        blocks = [int(k) for k in spec.split(",")]
        d = sum(k + 1 for k in blocks)
        name = " ".join(hilbert[:-1]) if len(blocks) < 27 else f"hilbert 27xV8 {target} -N {n}"
        yield (name, f"invariant dimensions of rank {d} to degree {n}", command(*hilbert),
               {"rank": d, "truncation": n, "cells": d * n * (n * max(blocks) + 1),
                "dimension_sum": sum(json.loads(command(*hilbert)()))})

    # check on growing blocks, as the benchmark's wide jobs: the cube of the top
    # variable of V_k, which delta1 moves (exit 1); each block's operators are
    # built on the first run and cached, as in any process that checks again
    for k in (10, 20) if tiny else (10, 20, 40):
        check, text = ("check", str(k), "-", "--json"), f"x{k + 1}^3"
        run = command(*check, stdin=text, exit_code=1)
        image = json.loads(run())["failing"]["image"]
        yield (f"check {k} - {text}", f"invariance of {text} on the single block V{k}", run,
               {"rank": k + 1, "image_terms": len(Poly.parse(image).terms)})

    # the pair (u, f) decided by the derivations and u by substitution, then
    # every member expanded; 2,1 is the catalog-backed family at the count cap
    for spec, count, small in (("3", 6, 2), ("4", 6, 2), ("2,1", 64, 8)):
        witness = ("witness", spec, "--count", str(small if tiny else count), "--json")
        rows = json.loads(command(*witness)())
        yield (" ".join(witness[:4]), f"witness family of spec {spec}, its pair (u, f) decided "
                                      "once and every member expanded",
               command(*witness), {"elements": len(rows), "max_degree": rows[-1]["degree"]})

    heavy = ("--case", "v", "--degree", "8" if tiny else "12")
    for options in [heavy] + [("--degree", d) for d in (("6", "8") if tiny else ("12", "20"))]:
        catalog = ("catalog", "verify", *options, "--json")
        reports = [json.loads(line) for line in command(*catalog)().splitlines()]
        rows_ranked = sum(c["size"] for r in reports for c in r["checks"]
                          if c["name"].endswith("-span"))
        what = ("the heaviest job of the catalog workload" if options is heavy
                else "every catalog case") + ", span checks to the same degree"
        yield (" ".join(catalog[:-1]), what, command(*catalog),
               {"cases": len(reports), "rows_ranked": rows_ranked})

    package = Path(metalie.__file__).parent
    env = child_env()
    degree = "8" if tiny else "12"
    yield ("cli.catalog_after_wide", "catalog verify at the same degree in a fresh interpreter "
                                     "after one check 1023 on x1 + ... + x1024, timed there "
                                     "on its second run",
           Child(env, CATALOG_AFTER_WIDE, degree), {"degree": int(degree), "wide_rank": 1024})

    setup = Child(env, SETUP)
    yield ("setup.import", "a fresh interpreter importing the CLI and loading the catalog, "
                           "timed inside it as the benchmark's setup_s is",
           setup, {"source_lines": sum(len(path.read_text().splitlines())
                                       for path in package.glob("*.py")),
                   "modules_imported": int(setup.output("modules"))})


# `catalog verify --degree <argv[1]>` timed in this interpreter after one wide
# `check`, which registers x1..x1024 first; the first run warms the caches.
# Prints its seconds, or with "peak" last its tracemalloc peak in bytes.
CATALOG_AFTER_WIDE = """
import contextlib, io, sys, tracemalloc
from time import perf_counter
from metalie.cli import main

degree, mode = sys.argv[1:]
with contextlib.redirect_stdout(io.StringIO()):
    sys.stdin = io.StringIO(" + ".join(f"x{j}" for j in range(1, 1025)))
    codes = [main(["check", "1023", "-"]), main(["catalog", "verify", "--degree", degree])]
    if mode == "peak":
        tracemalloc.start()
    start = perf_counter()
    codes.append(main(["catalog", "verify", "--degree", degree]))
    seconds = perf_counter() - start
if codes[0] not in (0, 1) or codes[1:] != [0, 0]:
    sys.exit(f"exit codes {codes}")
print(tracemalloc.get_traced_memory()[1] if mode == "peak" else seconds)
"""

# g1, g2, delta1 and delta2 of V_<argv[1]> built in this interpreter, whose
# operator caches start empty; prints their seconds, or with "peak" their
# tracemalloc peak in bytes
OPERATORS = """
import sys, tracemalloc
from time import perf_counter
from metalie.sl2 import ModuleSpec, derivations, g1_matrix, g2_matrix

wide, mode = ModuleSpec((int(sys.argv[1]),)), sys.argv[2]
if mode == "peak":
    tracemalloc.start()
start = perf_counter()
g1_matrix(wide), g2_matrix(wide), derivations(wide)
seconds = perf_counter() - start
print(tracemalloc.get_traced_memory()[1] if mode == "peak" else seconds)
"""

# the benchmark's setup, timed in the interpreter as setup_s is; prints its
# seconds, with "peak" its tracemalloc peak in bytes, or with "modules" the
# count of modules it adds to sys.modules
SETUP = """
import sys, tracemalloc
from time import perf_counter
mode, before = sys.argv[1], set(sys.modules)
if mode == "peak":
    tracemalloc.start()
start = perf_counter()
import metalie.cli
from metalie.invariants import load_catalog
load_catalog()
seconds = perf_counter() - start
print({"run": seconds, "peak": tracemalloc.get_traced_memory()[1],
       "modules": len(set(sys.modules) - before)}[mode])
"""

GROUPS = ((layer_entries, 7), (catalog_entries, 7), (text_entries, 7), (pi_entries, 7),
          (cli_entries, 7))


class Timed(float):
    """Seconds an entry measured itself, e.g. inside a fresh interpreter."""


class Child:
    """An entry run in a fresh interpreter by `script`, whose last argument is
    "run", "peak" or another mode the script knows.  A run prints the seconds it measured itself, without the
    interpreter's start; a peak run prints the tracemalloc peak of the same
    work in that interpreter, which the worker cannot see."""

    def __init__(self, env: dict, script: str, *args: str):
        self.env, self.argv = env, [sys.executable, "-c", script, *args]

    def output(self, mode: str) -> str:
        return subprocess.run(self.argv + [mode], env=self.env, check=True,
                              capture_output=True, text=True).stdout

    def __call__(self):
        return Timed(self.output("run"))


def run_once(thunk) -> float:
    start = perf_counter()
    result = thunk()
    return result if isinstance(result, Timed) else perf_counter() - start


def peak_kb(thunk) -> float:
    if isinstance(thunk, Child):
        return round(int(thunk.output("peak")) / 1024, 1)
    tracemalloc.start()
    thunk()
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    return round(peak / 1024, 1)


def worker(src: str, tiny: bool) -> int:
    """Serve the entries of the package under `src`, one at a time: announce
    an entry as a JSON line, then answer `run` with its seconds and `peak`
    with its tracemalloc peak until `next`; a null name ends the list."""
    sys.path.insert(0, src)
    channel, sys.stdout = sys.stdout, sys.stderr

    def send(message):
        channel.write(json.dumps(message) + "\n")
        channel.flush()

    for group, repeats in GROUPS:
        for name, what, thunk, sizes in group(tiny):
            send({"name": name, "what": what, "sizes": sizes, "repeats": 1 if tiny else repeats})
            while (command := sys.stdin.readline().strip()) in ("run", "peak"):
                send(run_once(thunk) if command == "run" else peak_kb(thunk))
            if command != "next":
                return 1
    send({"name": None})
    return 0


class Column:
    """A worker process measuring one `src` directory."""

    def __init__(self, name: str, src: str, tiny: bool):
        self.name = name
        argv = [sys.executable, __file__, "--worker", "--src", src] + ["--tiny"] * tiny
        self.process = subprocess.Popen(argv, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                                        text=True)

    def tell(self, command: str) -> None:
        self.process.stdin.write(command + "\n")
        self.process.stdin.flush()

    def ask(self, command: str | None = None):
        if command:
            self.tell(command)
        line = self.process.stdout.readline()
        if not line:
            raise RuntimeError(f"the worker of column {self.name} stopped")
        return json.loads(line)


def summary(times: list[float], peak: float) -> dict:
    q1, median, q3 = statistics.quantiles(times, n=4) if len(times) > 1 else times * 3
    return {"seconds": round(median, 6), "q1": round(q1, 6), "q3": round(q3, 6),
            "repeats": len(times), "peak_kb": peak}


def measure_columns(columns: list[Column], entries: dict) -> None:
    """Time every entry in all columns, alternating them repeat by repeat."""
    while True:
        heads = [column.ask() for column in columns]
        name = heads[0]["name"]
        if any(head["name"] != name for head in heads):
            raise RuntimeError(f"columns list different entries: {[h['name'] for h in heads]}")
        if name is None:
            return
        times = {column.name: [] for column in columns}
        for r in range(heads[0]["repeats"]):
            for column in columns if r % 2 == 0 else columns[::-1]:
                times[column.name].append(column.ask("run"))
        entry = entries.setdefault(name, {})
        entry["what"] = heads[0]["what"]
        for column, head in zip(columns, heads):
            result = summary(times[column.name], column.ask("peak"))
            entry[column.name] = {**result, "sizes": head["sizes"]}
            print(f"{name:34} {column.name:8} {result['seconds']:10.4f} s "
                  f"[{result['q1']:.4f}, {result['q3']:.4f}] {result['peak_kb']:10.1f} KB  "
                  f"{head['sizes']}", flush=True)
        for column in columns:
            column.tell("next")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--src", default=str(ROOT / "src"),
                        help="directory holding the metalie package of a bare column name")
    parser.add_argument("--column", action="append",
                        help="NAME or NAME=DIR; repeat to alternate columns (default change)")
    parser.add_argument("--out", default=str(ROOT / "BENCH_29.json"))
    parser.add_argument("--tiny", action="store_true", help="small sizes, for a smoke test")
    parser.add_argument("--worker", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.worker:
        return worker(args.src, args.tiny)

    specs = [text.partition("=") for text in args.column or ["change"]]
    columns = [Column(name, src or args.src, args.tiny) for name, _, src in specs]
    out = Path(args.out)
    report = json.loads(out.read_text()) if out.exists() else {}
    report["script"] = "scripts/bench.py" + (" --tiny" if args.tiny else "")
    report["host"] = {"python": platform.python_version(), "machine": platform.machine(),
                      "processor": platform.processor() or "unknown"}
    try:
        measure_columns(columns, report.setdefault("entries", {}))
    finally:
        for column in columns:
            column.process.stdin.close()
    failed = [column.name for column in columns if column.process.wait()]
    if failed:
        print(f"the worker of column {', '.join(failed)} failed", file=sys.stderr)
        return 1
    out.write_text(json.dumps(report, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
