"""Spans around the public functions of each metalie layer, from outside.

`Tracer.install()` replaces every binding of the traced functions: module
globals in every `metalie` module (the CLI and `invariants` import functions
by name) and class attributes, aliases such as `__rmul__ = __mul__` included.
While `Tracer.active` is true each call records a span (boundary, start, end,
parent index, sizes...) in memory; otherwise the wrapper calls straight
through, so output checks that reuse the library record nothing.

`layer_metrics` turns the spans into per-layer numbers, per pass of the job
list: calls, self time (a span's duration minus the durations of its child
spans) and these sizes, counted on the outermost span of a boundary:

  poly.mul.term_pairs          terms(a) * terms(b) of the products
  poly.substitute.terms_out    terms of the results
  linalg.rank.rows             rows given; rank_ratio = rank / rows
  linalg.solve_unique.cells    equations * unknowns
  linalg.mat_mul.mults         n * k * m of the dense products
  metabelian.wreath_mul        kept_ratio = terms of envelope products over
                               terms of their Poly products, before the
                               a_i a_j terms are dropped
  metabelian.to_commutator_basis.words   terms of the expansions
  sl2.log_unipotent.dim        mean matrix size
  series.hilbert.terms         terms of the Hilbert series built
  series.weight_substitute     collapse_ratio = terms out / terms in
  series.series_mul            kept_ratio = terms out / term pairs
"""

from __future__ import annotations

import importlib
import inspect
import sys
from time import perf_counter


def _sizes_mul(args, result):
    a, b = args
    if result is NotImplemented:
        return 0, 0
    return len(a.terms) * (len(b.terms) if type(b) is type(a) else 1), len(result.terms)


def _sizes_wreath_mul(args, result):
    a, b = args
    if result is NotImplemented or type(b) is not type(a):
        return 0, 0
    return 1, len(result.poly.terms)


def _sizes_series_mul(args, result):
    a, b = args
    if result is NotImplemented:
        return 0, 0
    pairs = len(a.coefficients) * (len(b.coefficients) if type(b) is type(a) else 1)
    return pairs, len(result.coefficients)


def _sizes_solve(args, result):
    columns, target = args
    return (len(set(target).union(*columns)) * len(columns),)


def _sizes_rank(args, result):
    return len(args[0]), result


# boundary -> [(module, qualified name)], plus how to measure its sizes
BOUNDARIES = {
    "cli.main": ([("metalie.cli", "main")], None),
    "poly.mul": ([("metalie.poly", "Poly.__mul__")], _sizes_mul),
    "poly.substitute": ([("metalie.poly", "Poly.substitute")],
                        lambda args, result: (len(result.terms),)),
    "poly.partial": ([("metalie.poly", "Poly.partial")], None),
    "poly.parse": ([("metalie.poly", "Poly.parse")], None),
    "linalg.rank": ([("metalie.linalg", "rank")], _sizes_rank),
    "linalg.solve_unique": ([("metalie.linalg", "solve_unique")], _sizes_solve),
    "linalg.mat_mul": ([("metalie.linalg", "mat_mul")],
                       lambda args, result: (len(args[0]) * len(args[1]) * len(args[1][0]),)),
    "metabelian.bracket": ([("metalie.metabelian", "WreathElement.bracket")], None),
    "metabelian.wreath_mul": ([("metalie.metabelian", "WreathElement.__mul__")],
                              _sizes_wreath_mul),
    "metabelian.ad_action": ([("metalie.metabelian", "WreathElement.ad_action")], None),
    "metabelian.to_commutator_basis": ([("metalie.metabelian", "to_commutator_basis")],
                                       lambda args, result: (len(result),)),
    "metabelian.parse_lie": ([("metalie.metabelian", "parse_lie_expr")], None),
    "sl2.is_invariant": ([("metalie.sl2", "is_invariant")], None),
    "sl2.is_invariant_by_derivations": ([("metalie.sl2", "is_invariant_by_derivations")], None),
    "sl2.failing_derivation_image": ([("metalie.sl2", "failing_derivation_image")], None),
    "sl2.log_unipotent": ([("metalie.sl2", "log_unipotent")],
                          lambda args, result: (args[0].spec.dimension,)),
    "sl2.substitution_act": ([("metalie.sl2", "LinearAction.act")], None),
    "sl2.derivation_act": ([("metalie.sl2", "Derivation.act")], None),
    "series.hilbert": ([("metalie.series", "hilbert_polyring"),
                        ("metalie.series", "hilbert_metabelian"),
                        ("metalie.series", "hilbert_metabelian_module")],
                       lambda args, result: (len(result.coefficients),)),
    "series.weight_substitute": ([("metalie.series", "weight_substitute")],
                                 lambda args, result: (len(args[0].coefficients),
                                                       len(result.coefficients))),
    "series.series_mul": ([("metalie.series", "TruncatedSeries.__mul__")], _sizes_series_mul),
    "series.extract_multiplicities": ([("metalie.series", "extract_multiplicities")], None),
    "series.verify_symmetrization": ([("metalie.series", "verify_symmetrization")], None),
    "series.expand_rational": ([("metalie.series", "expand_rational")], None),
    "invariants.verify_catalog": ([("metalie.invariants", "verify_catalog")], None),
    "invariants.pi": ([("metalie.invariants", "pi")], None),
    "invariants.witness": ([("metalie.invariants", "infinite_family_witness")], None),
}

_SIZE_STATS = {
    "poly.mul": {"term_pairs": "count"},
    "poly.substitute": {"terms_out": "count"},
    "linalg.rank": {"rows": "count", "rank_ratio": "ratio"},
    "linalg.solve_unique": {"cells": "count"},
    "linalg.mat_mul": {"mults": "count"},
    "metabelian.wreath_mul": {"kept_ratio": "ratio"},
    "metabelian.to_commutator_basis": {"words": "count"},
    "sl2.log_unipotent": {"dim": "count"},
    "series.hilbert": {"terms": "count"},
    "series.weight_substitute": {"collapse_ratio": "ratio"},
    "series.series_mul": {"kept_ratio": "ratio"},
}


def _metric_units() -> dict[str, str]:
    units = {}
    for boundary in BOUNDARIES:
        units[f"{boundary}.calls"] = "count"
        units[f"{boundary}.self_s"] = "s"
        for stat, unit in _SIZE_STATS.get(boundary, {}).items():
            units[f"{boundary}.{stat}"] = unit
    units["trace.overhead_ratio"] = "ratio"
    return units


# metric name -> unit, in reporting order
METRICS = _metric_units()


class Tracer:
    """Records spans as tuples (boundary, start, end, parent, *sizes)."""

    def __init__(self):
        self.spans: list[tuple] = []
        self.active = False
        self._stack = [-1]
        self._undo: list[tuple[object, str, object]] = []

    def _wrap(self, boundary: str, fn, sizes):
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            parent = stack[-1]
            index = len(spans)
            spans.append(None)
            stack.append(index)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                spans[index] = (boundary, start, perf_counter(), parent)
                stack.pop()
            if sizes is not None:
                spans[index] += tuple(sizes(args, result))
            return result

        return traced

    def _wrap_generator(self, boundary: str, fn):
        """Generator functions do their work on each `next`, so each step is a span."""
        step = self._wrap(boundary, next, None)

        def traced(*args, **kwargs):
            steps = fn(*args, **kwargs)
            while True:
                try:
                    yield step(steps)
                except StopIteration:
                    return

        return traced

    def install(self) -> None:
        """Replace every binding of every traced function in the metalie package."""
        replacements = {}  # id(original) -> (original, wrapper)
        for boundary, (targets, sizes) in BOUNDARIES.items():
            for module_name, qualname in targets:
                owner = importlib.import_module(module_name)
                for part in qualname.split("."):
                    owner = inspect.getattr_static(owner, part)
                fn = getattr(owner, "__func__", owner)
                replacements[id(fn)] = fn, (self._wrap_generator(boundary, fn)
                                            if inspect.isgeneratorfunction(fn)
                                            else self._wrap(boundary, fn, sizes))
        modules = [m for name, m in sorted(sys.modules.items())
                   if name == "metalie" or name.startswith("metalie.")]
        classes = [c for m in modules for c in vars(m).values()
                   if inspect.isclass(c) and c.__module__.startswith("metalie")]
        for owner in dict.fromkeys(modules + classes):
            for name, value in list(vars(owner).items()):
                fn = getattr(value, "__func__", value)
                original, wrapper = replacements.get(id(fn), (None, None))
                if original is fn:
                    if fn is not value:
                        wrapper = type(value)(wrapper)
                    self._undo.append((owner, name, value))
                    setattr(owner, name, wrapper)

    def uninstall(self) -> None:
        for owner, name, value in reversed(self._undo):
            setattr(owner, name, value)
        self._undo.clear()


def self_times(spans) -> list[float]:
    """Duration of each span minus the durations of its direct children."""
    own = [end - start for _, start, end, *_ in spans]
    for span in spans:
        parent = span[3]
        if parent >= 0:
            own[parent] -= span[2] - span[1]
    return own


def layer_metrics(spans, passes: int) -> dict[str, float]:
    """Per-pass calls, self time and sizes of every boundary, with ratios."""
    own = self_times(spans)
    total = {name: 0.0 for name in METRICS}
    sums: dict[str, list[float]] = {b: [0.0, 0.0, 0.0] for b in BOUNDARIES}
    for index, span in enumerate(spans):
        boundary, parent = span[0], span[3]
        total[f"{boundary}.calls"] += 1
        total[f"{boundary}.self_s"] += own[index]
        if len(span) == 4:
            continue
        nested = parent >= 0 and spans[parent][0] == boundary
        if not nested:
            for slot, value in enumerate(span[4:]):
                sums[boundary][slot] += value
        if boundary == "poly.mul" and parent >= 0 \
                and spans[parent][0] == "metabelian.wreath_mul" and len(spans[parent]) > 4 \
                and spans[parent][4]:
            sums["metabelian.wreath_mul"][2] += span[5]
    total["poly.mul.term_pairs"] = sums["poly.mul"][0]
    total["poly.substitute.terms_out"] = sums["poly.substitute"][0]
    total["linalg.rank.rows"] = sums["linalg.rank"][0]
    total["linalg.rank.rank_ratio"] = _ratio(sums["linalg.rank"][1], sums["linalg.rank"][0])
    total["linalg.solve_unique.cells"] = sums["linalg.solve_unique"][0]
    total["linalg.mat_mul.mults"] = sums["linalg.mat_mul"][0]
    # kept terms of envelope products over terms of the underlying Poly products
    total["metabelian.wreath_mul.kept_ratio"] = _ratio(sums["metabelian.wreath_mul"][1],
                                                       sums["metabelian.wreath_mul"][2])
    total["metabelian.to_commutator_basis.words"] = sums["metabelian.to_commutator_basis"][0]
    log_calls = total["sl2.log_unipotent.calls"]
    total["sl2.log_unipotent.dim"] = _ratio(sums["sl2.log_unipotent"][0], log_calls)
    total["series.hilbert.terms"] = sums["series.hilbert"][0]
    total["series.weight_substitute.collapse_ratio"] = _ratio(
        sums["series.weight_substitute"][1], sums["series.weight_substitute"][0])
    total["series.series_mul.kept_ratio"] = _ratio(sums["series.series_mul"][1],
                                                   sums["series.series_mul"][0])
    # ratios and the mean matrix size do not scale with the passes
    return {name: value if METRICS[name] == "ratio" or name == "sl2.log_unipotent.dim"
            else value / passes
            for name, value in total.items() if name != "trace.overhead_ratio"}


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0
