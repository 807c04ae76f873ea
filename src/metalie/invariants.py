"""Constructive invariants: the pi operator, explicit families, the finite
generation decision, and the verified catalog of small module decompositions.

For algebraically independent homogeneous polynomials f1, f2 the element

    pi(f1, f2) = sum_{i<j} (a_i y_j - a_j y_i) * J_ij(f1, f2)(Y)

is a nonzero element of the commutator ideal, equal to the Poisson bracket of
the images of f1, f2 under x_j -> a_j + y_j.  The envelope stores y_j as x_j,
so J_ij(f1, f2)(Y) is the minor of f1, f2 in x_i, x_j as it stands.  Applied
to invariant inputs it produces invariants, which is how the witness families
for the non finitely generated cases are built.
"""

from __future__ import annotations

import json
import os
from collections.abc import Iterator, Sequence
from functools import cached_property, lru_cache
from math import comb
from time import perf_counter

from . import linalg
from .metabelian import (
    LieContext,
    LieExpr,
    NotInCommutatorIdeal,
    WreathElement,
    _wrap,
    parse_lie_expr,
    require_variables,
)
from .poly import (Poly, UsageError, encode, field_mask, fields, jacobian_minors, mono_exponent,
                   mono_mul, mono_str, signed_sum, slot, slot_key, slot_name, var_key)
from .record import Record
from .series import (
    TruncatedSeries,
    decompose_slice,
    expand_rational,
    lie_slices,
    parse_rational_function,
    symmetrizes_to,
    weight_slices,
)
from .sl2 import ModuleSpec, is_invariant_by_derivations


class NonHomogeneousInput(UsageError):
    """Raised when an operation requires homogeneous polynomial input."""


class NoKnownWitness(UsageError, LookupError):
    """Raised when no witness pair is on file for a module specification."""


class SpanBudgetExceeded(UsageError):
    """Raised when the span rank checks would build more rows than the budget."""


# Budget on the rows the span rank checks of `verify_catalog` build.  At
# degree 20 the largest catalog case needs 1606 rows, at degree 24 2639.
# It counts the full rows and stays unchanged: it bounds the full-row fallback.
MAX_SPAN_ROWS = 3000


# -- the pi operator -----------------------------------------------------------


def _require_x_poly(f: Poly, ctx: LieContext) -> None:
    require_variables(f, "x", ctx.dim)
    if not f.is_homogeneous():
        raise NonHomogeneousInput(f"not homogeneous: {f}")


def pi(f1: Poly, f2: Poly, ctx: LieContext) -> WreathElement:
    """The bracket of the embedded polynomials, so in the commutator ideal, in closed
    form: each term m of d(f1,f2)/d(x_i,x_j), i < j, adds at m a_i x_j and -m a_j x_i."""
    _require_x_poly(f1, ctx)
    _require_x_poly(f2, ctx)
    terms: dict = {}
    for v, w, minor in jacobian_minors(f1, f2):
        for unit, sign in ((encode([("a" + v[1:], 1), (w, 1)]), 1),
                           (encode([("a" + w[1:], 1), (v, 1)]), -1)):
            for m, c in minor.terms.items():
                key = mono_mul(m, unit)
                terms[key] = terms.get(key, 0) + sign * c
    return _wrap(ctx, Poly(terms), in_ideal=True)


def pi_via_bracket(f1: Poly, f2: Poly, ctx: LieContext) -> WreathElement:
    """Independent route: embed both polynomials and bracket in the envelope."""
    _require_x_poly(f1, ctx)
    _require_x_poly(f2, ctx)
    return ctx.embed_poly(f1).bracket(ctx.embed_poly(f2))


# -- explicit invariant families -------------------------------------------------


def w_poly(m: int) -> Poly:
    """Quadratic invariant of the even block of degree 2m, in 2m+1 variables:
    sum_i C(2m, i-1) (-1)^(i-1) x_i x_{2m+2-i}."""
    if m < 1:
        raise ValueError("need m >= 1")
    acc = Poly.zero()
    for i in range(1, 2 * m + 2):
        c = comb(2 * m, i - 1) * (-1) ** (i - 1)
        acc = acc + c * Poly.variable(f"x{i}") * Poly.variable(f"x{2 * m + 2 - i}")
    return acc


def w_lie(m: int) -> LieExpr:
    """Degree-two commutator invariant of the odd block of degree 2m+1:
    2 sum_{i<=m+1} C(2m+1, i-1) (-1)^(i-1) [x_i, x_{2m+3-i}]."""
    if m < 0:
        raise ValueError("need m >= 0")
    return parse_lie_expr(signed_sum((2 * comb(2 * m + 1, i - 1) * (-1) ** (i - 1),
                                      f"[x{i},x{2 * m + 3 - i}]") for i in range(1, m + 2)))


# -- discriminants via resultants -------------------------------------------------


def _sylvester_determinant(rows: list[list[Poly]]) -> Poly:
    """Determinant of a matrix of polynomials by minor expansion with memoing
    on column subsets; fine for the small matrices arising from resultants."""
    n = len(rows)
    cache: dict[tuple[int, tuple[int, ...]], Poly] = {}

    def minor(depth: int, cols: tuple[int, ...]) -> Poly:
        if not cols:
            return Poly.one()
        key = (depth, cols)
        if key in cache:
            return cache[key]
        acc = Poly.zero()
        for pos, col in enumerate(cols):
            entry = rows[depth][col]
            if entry.is_zero():
                continue
            rest = cols[:pos] + cols[pos + 1:]
            sub = minor(depth + 1, rest)
            term = entry * sub
            acc = acc + term if pos % 2 == 0 else acc - term
        cache[key] = acc
        return acc

    return minor(0, tuple(range(n)))


def resultant(coeffs_f: Sequence[Poly], coeffs_g: Sequence[Poly]) -> Poly:
    """Resultant of two univariate polynomials with polynomial coefficients;
    the inputs list coefficients by ascending degree."""
    fdeg, gdeg = len(coeffs_f) - 1, len(coeffs_g) - 1
    if fdeg < 1 or gdeg < 1:
        raise ValueError("resultant needs two nonconstant polynomials")
    size = fdeg + gdeg
    rows: list[list[Poly]] = []
    for coeffs, deg, shifts in ((coeffs_f, fdeg, gdeg), (coeffs_g, gdeg, fdeg)):
        for shift in range(shifts):
            row = [Poly.zero()] * size
            for t, c in enumerate(coeffs):
                row[shift + deg - t] = c
            rows.append(row)
    return _sylvester_determinant(rows)


def discriminant(k: int) -> Poly:
    """Discriminant of the degree-k binary form sum_j C(k,j) x_{j+1} t^(k-j),
    computed as Res(F, F')/lc(F), with content one and positive leading term."""
    if k < 2:
        raise ValueError("need a form of degree at least 2")
    coeffs = [comb(k, j) * Poly.variable(f"x{j + 1}") for j in range(k + 1)]
    # coefficient of t^i is coeffs_by_t[i]
    coeffs_by_t = list(reversed(coeffs))
    derivative = [i * coeffs_by_t[i] for i in range(1, k + 1)]
    res = resultant(coeffs_by_t, derivative)
    x1 = encode((("x1", 1),))
    divided = {}
    for m, c in res.terms.items():
        if not mono_exponent(m, slot("x1")):
            raise AssertionError("resultant is not divisible by the leading coefficient")
        divided[m - x1] = c
    return Poly(divided).normalized()


# -- finite generation decision ---------------------------------------------------


class GenerationVerdict(Record):
    """Outcome of the finite generation test for the invariant algebra."""

    _fields = ("finitely_generated", "reason", "generators")

    def __init__(self, finitely_generated: bool, reason: str,
                 generators: tuple[str, ...] | None = None):
        self.finitely_generated, self.reason, self.generators = \
            finitely_generated, reason, generators

    def to_json(self) -> dict:
        out = {"finitelyGenerated": self.finitely_generated, "reason": self.reason}
        if self.generators is not None:
            out["generators"] = list(self.generators)
        return out


def decide_finite_generation(spec: ModuleSpec) -> GenerationVerdict:
    """The invariant algebra of the free metabelian algebra is finitely
    generated exactly for a single degree-2 block, a single degree-1 block
    plus trivial blocks, and the trivial action."""
    sorted_blocks = tuple(sorted(spec.blocks, reverse=True))
    offsets = spec.offsets()
    if all(k == 0 for k in spec.blocks):
        return GenerationVerdict(True, "trivial-action",
                                 tuple(f"x{j}" for j in range(1, spec.dimension + 1)))
    if sorted_blocks[0] == 1 and all(k == 0 for k in sorted_blocks[1:]):
        block = spec.blocks.index(1)
        b = offsets[block]
        trivial = [f"x{offsets[i] + 1}" for i, k in enumerate(spec.blocks) if k == 0]
        gens = (f"[x{b + 2},x{b + 1}]", *sorted(trivial, key=var_key))
        return GenerationVerdict(True, "one-v1-plus-trivial-blocks", gens)
    if sorted_blocks == (2,):
        return GenerationVerdict(True, "single-v2-no-invariants", ())
    if sorted_blocks[0] >= 3:
        return GenerationVerdict(False, "block-of-degree-three-or-more")
    if sorted_blocks[0] == 2:
        return GenerationVerdict(False, "v2-with-further-blocks")
    return GenerationVerdict(False, "two-v1-blocks")


# -- extension by a trivial block ---------------------------------------------------


class ExtensionBasis(Record):
    """Degree-truncated basis of the invariant commutator module obtained by
    appending one trivially acted variable: the old basis elements pushed by
    powers of ad x_d, together with pi(x_d, u) pushed likewise for u running
    over a basis of the positive-degree ring invariants one rank down."""

    _fields = ("spec", "max_degree", "from_lie", "from_ring")

    def __init__(self, spec: ModuleSpec, max_degree: int,
                 from_lie: tuple[WreathElement, ...], from_ring: tuple[WreathElement, ...]):
        self.spec, self.max_degree, self.from_lie, self.from_ring = \
            spec, max_degree, from_lie, from_ring


def extend_by_trivial_variable(lie_basis: Sequence[WreathElement],
                               ring_basis: Sequence[Poly],
                               spec: ModuleSpec,
                               max_degree: int) -> ExtensionBasis:
    if spec.blocks[-1] != 0:
        raise ValueError("specification must end in a trivial block")
    ctx = spec.context()
    d = ctx.dim
    xd = Poly.variable(f"x{d}")
    from_lie = []
    for v in lie_basis:
        if not v.is_homogeneous():
            raise NonHomogeneousInput("lie basis elements must be homogeneous")
        base = WreathElement(ctx, v.poly)
        for n in range(max_degree - base.total_degree() + 1):
            from_lie.append(base.ad_action(xd ** n))
    from_ring = []
    for u in ring_basis:
        _require_x_poly(u, ctx)
        if u.constant_term():
            raise ValueError("ring basis elements must have zero constant term")
        base = pi(xd, u, ctx)
        for n in range(max_degree - base.total_degree() + 1):
            from_ring.append(base.ad_action(xd ** n))
    return ExtensionBasis(spec, max_degree, tuple(from_lie), tuple(from_ring))


# -- witnesses of infinite generation -------------------------------------------------


def witness_pair(spec: ModuleSpec) -> tuple[WreathElement, Poly]:
    """A nonzero invariant u of the commutator ideal and a positive-degree
    ring invariant f; the products u f^n then form an infinite invariant
    family of strictly increasing degrees."""
    ctx = spec.context()
    blocks = spec.blocks
    if blocks == (2, 0):
        f = Poly.parse("x2^2 - x1*x3")
        return pi(Poly.variable("x4"), f, ctx), f
    for entry in load_catalog().values():
        if entry.spec.blocks == blocks and entry.module_generator_texts:
            return (min(entry.module_generators, key=WreathElement.total_degree),
                    min(entry.ring_generators, key=Poly.total_degree))
    if len(blocks) == 1 and blocks[0] >= 3:
        k = blocks[0]
        if k % 2 == 1:
            u = w_lie((k - 1) // 2).evaluate(ctx)
            return u, discriminant(k)
        f = w_poly(k // 2)
        u = pi(f, discriminant(k), ctx)
        if u.is_zero():
            raise AssertionError("independent ring invariants gave a zero bracket")
        return u, f
    raise NoKnownWitness(f"no witness pair on file for specification {spec}")


def infinite_family_witness(spec: ModuleSpec, pair: tuple[WreathElement, Poly] | None = None
                            ) -> Iterator[WreathElement]:
    """Yield u, u*f, u*f^2, ...: invariants of strictly increasing degree.
    `pair` is the (u, f) of `witness_pair(spec)`, when the caller has it."""
    u, f = pair or witness_pair(spec)
    current = u
    while True:
        yield current
        current = current.ad_action(f)


# -- the generator catalog ----------------------------------------------------------


class CatalogCase(Record):
    """One verified decomposition: spec, closed-form Hilbert series of the
    invariant commutator module and invariant ring, generators, relations.

    Its texts are parsed on first use and kept on the case (only the parses,
    never an expansion or product); they are immutable, so every caller may
    share them.  A case built anew from the same texts parses them again."""

    _fields = ("case_id", "spec", "module_series_text", "ring_series_text",
               "module_generator_texts", "ring_generator_texts", "relation_texts",
               "ring_transcendence_degree")

    def __init__(self, case_id: str, spec: ModuleSpec, module_series_text: str,
                 ring_series_text: str, module_generator_texts: tuple[str, ...],
                 ring_generator_texts: tuple[str, ...], relation_texts: tuple[str, ...],
                 ring_transcendence_degree: int):
        self.case_id, self.spec = case_id, spec
        self.module_series_text, self.ring_series_text = module_series_text, ring_series_text
        self.module_generator_texts = module_generator_texts
        self.ring_generator_texts = ring_generator_texts
        self.relation_texts = relation_texts
        self.ring_transcendence_degree = ring_transcendence_degree

    @cached_property
    def module_generators(self) -> tuple[WreathElement, ...]:
        ctx = self.spec.context()
        return tuple(parse_lie_expr(text).evaluate(ctx) for text in self.module_generator_texts)

    @cached_property
    def ring_generators(self) -> tuple[Poly, ...]:
        return tuple(Poly.parse(text) for text in self.ring_generator_texts)

    @cached_property
    def relations(self) -> tuple[Poly, ...]:
        return tuple(Poly.parse(text) for text in self.relation_texts)

    @cached_property
    def _stated(self) -> dict[str, tuple[Poly, list[Poly]]]:
        return {"module": parse_rational_function(self.module_series_text),
                "ring": parse_rational_function(self.ring_series_text)}

    def module_series(self, truncation: int) -> TruncatedSeries:
        return expand_rational(*self._stated["module"], truncation)

    def ring_series(self, truncation: int) -> TruncatedSeries:
        return expand_rational(*self._stated["ring"], truncation)

    def relation_values(self) -> list[WreathElement]:
        """Each stored relation sum_i v_i * p_i(f_1, ..., f_r), evaluated at
        the module generators v_i and the ring generators f_i."""
        gens, ring = self.module_generators, self.ring_generators
        ctx = self.spec.context()
        values = []
        for combo in self.relations:
            acc = ctx.zero()
            for mono, coeff in combo.terms.items():
                v_index = None
                multiplier = Poly.const(coeff)
                for s, e in fields(mono):
                    letter, index = slot_key(s)
                    if letter == "v":
                        if e != 1 or v_index is not None:
                            raise ValueError(f"relation term {mono_str(mono)} is not linear "
                                             "in the v's")
                        v_index = index
                    elif letter == "f":
                        multiplier = multiplier * ring[index - 1] ** e
                    else:
                        raise ValueError(f"unexpected symbol {slot_name(s)} in a relation")
                if v_index is None:
                    raise ValueError(f"relation term {mono_str(mono)} lacks a module generator")
                acc = acc + gens[v_index - 1].ad_action(multiplier)
            values.append(acc)
        return values


@lru_cache(maxsize=None)
def load_catalog() -> dict[str, CatalogCase]:
    with open(os.path.join(os.path.dirname(__file__), "data", "catalog.json"),
              encoding="utf-8") as fh:
        raw = json.load(fh)
    catalog = {}
    for case_id, entry in raw.items():
        catalog[case_id] = CatalogCase(
            case_id=case_id,
            spec=ModuleSpec(tuple(entry["spec"])),
            module_series_text=entry["module_series"],
            ring_series_text=entry["ring_series"],
            module_generator_texts=tuple(entry["module_generators"]),
            ring_generator_texts=tuple(entry["ring_generators"]),
            relation_texts=tuple(entry["relations"]),
            ring_transcendence_degree=entry["ring_transcendence_degree"],
        )
    return catalog


# -- catalog verification --------------------------------------------------------------


class CheckResult(Record):
    """Outcome of one catalog check, with the seconds it took and its problem
    size (what `size` counts is listed in `verify_catalog`)."""

    _fields = ("name", "passed", "detail", "elapsed", "size")

    def __init__(self, name: str, passed: bool, detail: str = "", elapsed: float = 0.0,
                 size: int = 0):
        self.name, self.passed, self.detail, self.elapsed, self.size = \
            name, passed, detail, elapsed, size


class CatalogReport(Record):
    _fields = ("case_id", "truncation", "checks")
    __hash__ = None

    def __init__(self, case_id: str, truncation: int, checks: list[CheckResult] | None = None):
        self.case_id, self.truncation = case_id, truncation
        self.checks = [] if checks is None else checks

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def failures(self) -> list[CheckResult]:
        return [c for c in self.checks if not c.passed]

    def to_json(self) -> dict:
        return {
            "case": self.case_id,
            "truncation": self.truncation,
            "passed": self.passed,
            "checks": [
                {"name": c.name, "passed": c.passed, "elapsed": round(c.elapsed, 6),
                 "size": c.size, **({"detail": c.detail} if c.detail else {})}
                for c in self.checks
            ],
        }


class _Lap:
    """Seconds since the previous call (or since construction)."""

    def __init__(self):
        self.last = perf_counter()

    def __call__(self) -> float:
        now = perf_counter()
        elapsed, self.last = now - self.last, now
        return elapsed


def _ring_monomial_table(ring_gens: Sequence[Poly], max_degree: int,
                         degrees: Sequence[int] | None = None) -> list[list[Poly]]:
    """Row n: all products of the ring generators of total degree n by
    `degrees` (default their own; a restricted generator may vanish).

    Each product is one of lower degree times one generator; generators are
    multiplied in non-decreasing index order, so each product occurs once.
    """
    degrees = degrees or [g.total_degree() for g in ring_gens]
    table: list[list[tuple[int, Poly]]] = [[(0, Poly.one())]]
    for n in range(1, max_degree + 1):
        row = []
        for i, (g, dg) in enumerate(zip(ring_gens, degrees)):
            if dg <= n:
                row.extend((i, p * g) for last, p in table[n - dg] if last <= i)
        table.append(row)
    return [[p for _, p in row] for row in table]


def span_rows(ring_degrees: Sequence[int], module_degrees: Sequence[int],
              rank_degree: int) -> int:
    """Rows the two span checks of `verify_catalog` count, from the degrees.

    The ring products of degree n number the coefficient of z^n in
    prod_i 1/(1 - z^(deg f_i)); a module generator of degree e contributes the
    products of degree n - e to the module rows of degree n, for 2 <= n.
    """
    products = [1] + [0] * rank_degree
    for d in ring_degrees:
        for n in range(d, rank_degree + 1):
            products[n] += products[n - d]
    return sum(products) + sum(products[n - e] for n in range(2, rank_degree + 1)
                               for e in module_degrees if e <= n)


def check_span_budget(case: CatalogCase, rank_degree: int) -> list[int]:
    """Refuse span checks of more than `MAX_SPAN_ROWS` rows with
    `SpanBudgetExceeded`; returns the degrees of the module generators."""
    module_degrees = [v.total_degree() for v in case.module_generators]
    rows = span_rows([g.total_degree() for g in case.ring_generators], module_degrees,
                     rank_degree)
    if rows > MAX_SPAN_ROWS:
        raise SpanBudgetExceeded(f"case {case.case_id}: span checks to degree {rank_degree} "
                                 f"need {rows} rows, over the budget of {MAX_SPAN_ROWS}")
    return module_degrees


def _section(spec: ModuleSpec) -> tuple[str, ...]:
    """The y-variables (stored as x_j) the span checks set to 0: xi_0 of the first
    block V_k with k >= 1 and xi_k of the last, or xi_0 alone for one such block
    V_1.  Some g in SL2 sends two roots of generic forms to infinity and 0."""
    moving = [(o, k) for o, k in zip(spec.offsets(), spec.blocks) if k]
    if not moving:
        return ()
    (first, _), (last, k) = moving[0], moving[-1]
    return (f"x{first + 1}",) if moving == [(last, 1)] else (f"x{first + 1}", f"x{last + k + 1}")


def verify_catalog(case: CatalogCase, truncation: int = 12,
                   rank_degree: int | None = None) -> CatalogReport:
    """Re-derive everything the catalog claims for one case.

    Checks: (a) all listed generators are invariant: the closed-form
    derivations delta1 and delta2 kill them (substitution by g1 and g2 is the
    independent check the tests run on every generator); (b) the stated
    relations vanish identically; (c) the stated closed-form Hilbert series
    agree with the character pipeline up to the truncation; (d) monomials in
    the ring generators span the ring invariants and push the module
    generators onto the module invariants degree by degree (exact rank
    checks, up to `rank_degree`).

    The texts of the case are parsed once.  The series checks fold the ring
    character once, a list per total weight, and derive the module slices
    from it, decompose each list by differences of neighbours and multiply
    the symmetrization back by t1 - t2, list by list.

    When (a) passed, the rows R of (d) in degree n lie in the invariants,
    whose dimension d the character pipeline gives, so rank(R) <= d, and the
    first of three exact tiers that reaches d decides n.  (1) Packed monomials
    compare as ints, lex with the highest slot first, and a product adds them,
    so LM(v * p) = LM(v) + LM(p) comes from the generators with no product
    formed, and d distinct leading monomials are d independent rows; more
    than d are a rank above d, a defect.  (2) The rows rho R, rho setting the
    variables of `_section` to 0, are formed and ranked; rho is linear, so
    rank(rho R) <= rank(R).  (3) R itself is ranked when rank(rho R) < d.  When
    (a) failed, R alone is ranked.  Every rank is exact, so a rank above d
    fails too.  The ring product tables are built only when a degree needs
    rows; y_j is stored as x_j, so a module row is one envelope product v * p.

    Each check records the seconds spent on it and its size: the generators
    checked for (a), the relations evaluated for (b), the character cells
    decomposed for the series checks, the nonzero multiplicities of both
    spaces for the symmetrization, and the rows of (d), formed or not.  Span checks
    that would rank more than `MAX_SPAN_ROWS` rows are refused with
    `SpanBudgetExceeded` before any check runs.
    """
    if rank_degree is None:
        rank_degree = truncation
    spec = case.spec
    report = CatalogReport(case.case_id, truncation)
    checks = report.checks
    lap = _Lap()

    module_gens, ring_gens = case.module_generators, case.ring_generators
    module_degrees = check_span_budget(case, rank_degree)
    for label, items in (("module", module_gens), ("ring", ring_gens)):
        bad = [f"{label[0]}{idx}" for idx, g in enumerate(items, start=1)
               if not is_invariant_by_derivations(g, spec)]
        checks.append(CheckResult(f"{label}-generators-invariant", not bad,
                                  f"not invariant: {', '.join(bad)}" if bad else "",
                                  lap(), len(items)))

    values = case.relation_values()
    bad = [str(idx) for idx, value in enumerate(values, start=1) if not value.is_zero()]
    checks.append(CheckResult("relations-vanish", not bad,
                              f"nonzero relation(s): {', '.join(bad)}" if bad else "",
                              lap(), len(values)))

    ring = weight_slices(spec.weights(), truncation)
    dims, symmetrized = {}, []
    for label, slices, stated in (("module", lie_slices(ring, spec.weights()), case.module_series),
                                  ("ring", ring, case.ring_series)):
        found = [decompose_slice(row, n) for n, row in enumerate(slices)]
        # invariants: the S_(l, l), in the middle of the even lines
        dims[label] = [sum(f[t // 2] for t, f in row.items() if not t % 2) for row in found]
        computed = TruncatedSeries(("z",), truncation,
                                   {(n,): c for n, c in enumerate(dims[label])})
        expected = stated(truncation)
        same = computed == expected
        symmetrized += zip(found, slices)
        checks.append(CheckResult(
            f"{label}-series-matches", same,
            "" if same else f"stated {expected} != computed {computed}",
            lap(), sum(len(line) - line.count(0) for row in slices for line in row.values())))

    checks.append(CheckResult(
        "symmetrization-identity",
        all(symmetrizes_to(f, row) for f, row in symmetrized),
        "", lap(), sum(len(line) - line.count(0) for f, _ in symmetrized for line in f.values())))

    # rho keeps the terms free of the section's variables; it is a ring
    # homomorphism, so the rows are rho(p) and rho(v) * rho(p)
    gated = checks[0].passed and checks[1].passed
    mask = field_mask(_section(spec)) if gated else 0

    def rho(p: Poly) -> Poly:
        return Poly({m: c for m, c in p.terms.items() if not m & mask}) if mask else p

    ring_degrees = [g.total_degree() for g in ring_gens]
    full = lru_cache(maxsize=None)(lambda: _ring_monomial_table(ring_gens, rank_degree))
    products = lru_cache(maxsize=None)(lambda: _ring_monomial_table(
        list(map(rho, ring_gens)), rank_degree, ring_degrees) if mask else full())
    restricted = [rho(v.poly) for v in module_gens]
    tops = [{0}]  # the leading monomials of the ring products of degree n
    for n in range(1, rank_degree + 1):
        tops.append({t + max(g.terms) for g, dg in zip(ring_gens, ring_degrees) if dg <= n
                     for t in tops[n - dg]})

    def spans(dim: int, leading: set, rows, full_rows) -> bool:
        if gated and len(leading) >= dim:  # rank(R) >= len(leading)
            return len(leading) == dim
        found = linalg.rank(rows())
        if mask and found < dim:
            found = linalg.rank(full_rows())
        return found == dim

    ring_rows = span_rows(ring_degrees, (), rank_degree)
    module_rows = span_rows(ring_degrees, module_degrees, rank_degree) - ring_rows
    bad = [str(n) for n in range(rank_degree + 1)
           if not spans(dims["ring"][n], tops[n], lambda: [p.terms for p in products()[n]],
                        lambda: [p.terms for p in full()[n]])]
    checks.append(CheckResult("ring-generators-span", not bad,
                              f"rank defect in degree(s) {', '.join(bad)}" if bad else "",
                              lap(), ring_rows))

    bad = []
    for n in range(2, rank_degree + 1):
        gens = [(v, w, dv) for v, w, dv in zip(module_gens, restricted, module_degrees)
                if dv <= n]
        if not all(v.is_in_commutator_ideal() for v, _, _ in gens):
            raise NotInCommutatorIdeal("module action is defined on the commutator ideal only")
        # the rows are v * p(ad x), of leading monomials LM(v) + LM(p)
        if not spans(dims["module"][n], {max(v.poly.terms) + t for v, _, dv in gens
                                         for t in tops[n - dv]},
                     lambda: [(w * p).terms for _, w, dv in gens for p in products()[n - dv]],
                     lambda: [(v.poly * p).terms for v, _, dv in gens for p in full()[n - dv]]):
            bad.append(str(n))
    checks.append(CheckResult("module-generators-span", not bad,
                              f"rank defect in degree(s) {', '.join(bad)}" if bad else "",
                              lap(), module_rows))
    return report
