"""Constructive invariants: the pi operator, explicit families, the finite
generation decision, and the verified catalog of small module decompositions.

For algebraically independent homogeneous polynomials f1, f2 the element

    pi(f1, f2) = sum_{i<j} (a_i y_j - a_j y_i) * J_ij(f1, f2)(Y)

is a nonzero element of the commutator ideal, equal to the Poisson bracket of
the images of f1, f2 under x_j -> a_j + y_j.  Applied to invariant inputs it
produces invariants, which is how the witness families for the non finitely
generated cases are built.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from importlib import resources
from math import comb
from typing import Iterator, Sequence

from . import linalg
from .metabelian import (
    LieContext,
    LieExpr,
    WreathElement,
    parse_lie_expr,
)
from .poly import Poly, jacobian_minor, var_key
from .series import (
    TruncatedSeries,
    expand_rational,
    extract_multiplicities,
    invariant_hilbert,
    parse_rational_function,
    verify_symmetrization,
    weight_substitute,
    hilbert_metabelian_module,
    hilbert_polyring,
)
from .sl2 import ModuleSpec, is_invariant, is_invariant_by_derivations


class NonHomogeneousInput(ValueError):
    """Raised when an operation requires homogeneous polynomial input."""


class NoKnownWitness(LookupError):
    """Raised when no witness pair is on file for a module specification."""


# -- the pi operator -----------------------------------------------------------


def _require_x_poly(f: Poly, ctx: LieContext, homogeneous: bool = True) -> None:
    for v in f.variables():
        letter, index = var_key(v)
        if letter != "x" or not 1 <= index <= ctx.dim:
            raise ValueError(f"variable {v} is not one of x1..x{ctx.dim}")
    if homogeneous and not f.is_homogeneous():
        raise NonHomogeneousInput(f"not homogeneous: {f}")


def _to_y(f: Poly, ctx: LieContext) -> Poly:
    return f.rename({f"x{j}": f"y{j}" for j in range(1, ctx.dim + 1)})


def pi(f1: Poly, f2: Poly, ctx: LieContext) -> WreathElement:
    """The closed Jacobian form of the bracket of the embedded polynomials."""
    _require_x_poly(f1, ctx)
    _require_x_poly(f2, ctx)
    g1, g2 = _to_y(f1, ctx), _to_y(f2, ctx)
    acc = Poly.zero()
    for i in range(1, ctx.dim + 1):
        for j in range(i + 1, ctx.dim + 1):
            minor = jacobian_minor(g1, g2, f"y{i}", f"y{j}")
            if minor.is_zero():
                continue
            pair = Poly.variable(f"a{i}") * Poly.variable(f"y{j}") \
                - Poly.variable(f"a{j}") * Poly.variable(f"y{i}")
            acc = acc + pair * minor
    return WreathElement(ctx, acc)


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
        c = Fraction(comb(2 * m, i - 1) * (-1) ** (i - 1))
        acc = acc + c * Poly.variable(f"x{i}") * Poly.variable(f"x{2 * m + 2 - i}")
    return acc


def w_lie(m: int) -> LieExpr:
    """Degree-two commutator invariant of the odd block of degree 2m+1:
    2 sum_{i<=m+1} C(2m+1, i-1) (-1)^(i-1) [x_i, x_{2m+3-i}]."""
    from .metabelian import Bracket, Gen, Scale, Sum

    if m < 0:
        raise ValueError("need m >= 0")
    pieces = []
    for i in range(1, m + 2):
        c = Fraction(2 * comb(2 * m + 1, i - 1) * (-1) ** (i - 1))
        pieces.append(Scale(c, Bracket((Gen(i), Gen(2 * m + 3 - i)))))
    return pieces[0] if len(pieces) == 1 else Sum(tuple(pieces))


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
    for shift in range(gdeg):
        row = [Poly.zero()] * size
        for t, c in enumerate(coeffs_f):
            row[shift + fdeg - t] = c
        rows.append(row)
    for shift in range(fdeg):
        row = [Poly.zero()] * size
        for t, c in enumerate(coeffs_g):
            row[shift + gdeg - t] = c
        rows.append(row)
    return _sylvester_determinant(rows)


def discriminant(k: int) -> Poly:
    """Discriminant of the degree-k binary form sum_j C(k,j) x_{j+1} t^(k-j),
    computed as Res(F, F')/lc(F), with content one and positive leading term."""
    if k < 2:
        raise ValueError("need a form of degree at least 2")
    coeffs = [Fraction(comb(k, j)) * Poly.variable(f"x{j + 1}") for j in range(k + 1)]
    # coefficient of t^i is coeffs_by_t[i]
    coeffs_by_t = list(reversed(coeffs))
    derivative = [i * coeffs_by_t[i] for i in range(1, k + 1)]
    res = resultant(coeffs_by_t, derivative)
    divided = {}
    for m, c in res.terms.items():
        e = dict(m)
        if e.get("x1", 0) < 1:
            raise AssertionError("resultant is not divisible by the leading coefficient")
        e["x1"] -= 1
        mono = tuple(sorted(((v, x) for v, x in e.items() if x),
                            key=lambda item: var_key(item[0])))
        divided[mono] = c
    return Poly(divided).normalized()


# -- finite generation decision ---------------------------------------------------


@dataclass(frozen=True)
class GenerationVerdict:
    """Outcome of the finite generation test for the invariant algebra."""

    finitely_generated: bool
    reason: str
    generators: tuple[str, ...] | None = None

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


@dataclass(frozen=True)
class ExtensionBasis:
    """Degree-truncated basis of the invariant commutator module obtained by
    appending one trivially acted variable: the old basis elements pushed by
    powers of ad x_d, together with pi(x_d, u) pushed likewise for u running
    over a basis of the positive-degree ring invariants one rank down."""

    spec: ModuleSpec
    max_degree: int
    from_lie: tuple[WreathElement, ...]
    from_ring: tuple[WreathElement, ...]

    def elements(self) -> list[WreathElement]:
        return list(self.from_lie) + list(self.from_ring)

    def dimensions(self) -> dict[int, int]:
        dims: dict[int, int] = {}
        for u in self.elements():
            dims[u.total_degree()] = dims.get(u.total_degree(), 0) + 1
        return dict(sorted(dims.items()))


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
            gens = entry.module_generators()
            rings = entry.ring_generators()
            u = min(gens, key=WreathElement.total_degree)
            f = min(rings, key=Poly.total_degree)
            return u, f
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


def infinite_family_witness(spec: ModuleSpec) -> Iterator[WreathElement]:
    """Yield u, u*f, u*f^2, ...: invariants of strictly increasing degree."""
    u, f = witness_pair(spec)
    current = u
    while True:
        yield current
        current = current.ad_action(f)


# -- the generator catalog ----------------------------------------------------------


@dataclass(frozen=True)
class CatalogCase:
    """One verified decomposition: spec, closed-form Hilbert series of the
    invariant commutator module and invariant ring, generators, relations."""

    case_id: str
    spec: ModuleSpec
    module_series_text: str
    ring_series_text: str
    module_generator_texts: tuple[str, ...]
    ring_generator_texts: tuple[str, ...]
    relation_texts: tuple[str, ...]
    ring_transcendence_degree: int

    def context(self) -> LieContext:
        return self.spec.context()

    def module_generators(self) -> list[WreathElement]:
        ctx = self.context()
        return [parse_lie_expr(text).evaluate(ctx) for text in self.module_generator_texts]

    def ring_generators(self) -> list[Poly]:
        return [Poly.parse(text) for text in self.ring_generator_texts]

    def module_series(self, truncation: int) -> TruncatedSeries:
        numerator, factors = parse_rational_function(self.module_series_text)
        return expand_rational(numerator, factors, truncation)

    def ring_series(self, truncation: int) -> TruncatedSeries:
        numerator, factors = parse_rational_function(self.ring_series_text)
        return expand_rational(numerator, factors, truncation)

    def relation_values(self) -> list[WreathElement]:
        """Evaluate each stored relation sum_i v_i * p_i(f_1, ..., f_r)."""
        ctx = self.context()
        gens = self.module_generators()
        ring = self.ring_generators()
        values = []
        for text in self.relation_texts:
            combo = Poly.parse(text)
            acc = ctx.zero()
            for mono, coeff in combo.terms.items():
                v_index = None
                multiplier = Poly.const(coeff)
                for name, e in mono:
                    letter, index = var_key(name)
                    if letter == "v":
                        if e != 1 or v_index is not None:
                            raise ValueError(f"relation term {mono} is not linear in the v's")
                        v_index = index
                    elif letter == "f":
                        multiplier = multiplier * ring[index - 1] ** e
                    else:
                        raise ValueError(f"unexpected symbol {name} in a relation")
                if v_index is None:
                    raise ValueError(f"relation term {mono} lacks a module generator")
                acc = acc + gens[v_index - 1].ad_action(multiplier)
            values.append(acc)
        return values


@lru_cache(maxsize=None)
def load_catalog() -> dict[str, CatalogCase]:
    raw = json.loads(resources.files("metalie.data").joinpath("catalog.json").read_text())
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


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str = ""


@dataclass
class CatalogReport:
    case_id: str
    truncation: int
    checks: list[CheckResult] = field(default_factory=list)

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
                {"name": c.name, "passed": c.passed, **({"detail": c.detail} if c.detail else {})}
                for c in self.checks
            ],
        }


def _ring_monomial_products(ring_gens: Sequence[Poly], degree: int) -> list[Poly]:
    """All products of the ring generators of the given total degree."""
    degrees = [f.total_degree() for f in ring_gens]

    def rec(i: int, remaining: int) -> list[Poly]:
        if i == len(ring_gens):
            return [Poly.one()] if remaining == 0 else []
        out = []
        power = Poly.one()
        e = 0
        while e * degrees[i] <= remaining:
            for rest in rec(i + 1, remaining - e * degrees[i]):
                out.append(power * rest)
            e += 1
            power = power * ring_gens[i]
        return out

    return rec(0, degree)


def verify_catalog(case: CatalogCase, truncation: int = 12,
                   rank_degree: int | None = None) -> CatalogReport:
    """Re-derive everything the catalog claims for one case.

    Checks: (a) all listed generators are invariant, by substitution and by
    derivations; (b) the stated relations vanish identically; (c) the stated
    closed-form Hilbert series agree with the character pipeline up to the
    truncation; (d) monomials in the ring generators span the ring invariants
    and push the module generators onto the module invariants degree by
    degree (exact rank checks, up to `rank_degree`).
    """
    if rank_degree is None:
        rank_degree = truncation
    spec = case.spec
    report = CatalogReport(case.case_id, truncation)
    checks = report.checks

    module_gens = case.module_generators()
    ring_gens = case.ring_generators()
    for label, items in (("module", module_gens), ("ring", ring_gens)):
        bad = []
        for idx, g in enumerate(items, start=1):
            if not (is_invariant(g, spec) and is_invariant_by_derivations(g, spec)):
                bad.append(f"{label[0]}{idx}")
        checks.append(CheckResult(f"{label}-generators-invariant", not bad,
                                  f"not invariant: {', '.join(bad)}" if bad else ""))

    bad = []
    for idx, value in enumerate(case.relation_values(), start=1):
        if not value.is_zero():
            bad.append(str(idx))
    checks.append(CheckResult("relations-vanish", not bad,
                              f"nonzero relation(s): {', '.join(bad)}" if bad else ""))

    module_character = weight_substitute(hilbert_metabelian_module(spec.dimension, truncation), spec)
    ring_character = weight_substitute(hilbert_polyring(spec.dimension, truncation), spec)
    module_table = extract_multiplicities(module_character)
    ring_table = extract_multiplicities(ring_character)
    computed_module = invariant_hilbert(module_table)
    computed_ring = invariant_hilbert(ring_table)
    stated_module = case.module_series(truncation)
    stated_ring = case.ring_series(truncation)
    checks.append(CheckResult(
        "module-series-matches", computed_module == stated_module,
        "" if computed_module == stated_module else
        f"stated {stated_module} != computed {computed_module}"))
    checks.append(CheckResult(
        "ring-series-matches", computed_ring == stated_ring,
        "" if computed_ring == stated_ring else
        f"stated {stated_ring} != computed {computed_ring}"))
    checks.append(CheckResult(
        "symmetrization-identity",
        verify_symmetrization(module_table.multiplicity_series(), module_character)
        and verify_symmetrization(ring_table.multiplicity_series(), ring_character)))

    ring_dims = computed_ring.univariate_coefficients()
    bad = []
    for n in range(rank_degree + 1):
        products = _ring_monomial_products(ring_gens, n)
        rows = [{m: c for m, c in p.terms.items()} for p in products]
        if linalg.rank(rows) != ring_dims[n]:
            bad.append(str(n))
    checks.append(CheckResult("ring-generators-span", not bad,
                              f"rank defect in degree(s) {', '.join(bad)}" if bad else ""))

    module_dims = computed_module.univariate_coefficients()
    bad = []
    for n in range(2, rank_degree + 1):
        rows = []
        for v in module_gens:
            dv = v.total_degree()
            if dv > n:
                continue
            for p in _ring_monomial_products(ring_gens, n - dv):
                rows.append(v.ad_action(p).coordinates())
        if linalg.rank(rows) != module_dims[n]:
            bad.append(str(n))
    checks.append(CheckResult("module-generators-span", not bad,
                              f"rank defect in degree(s) {', '.join(bad)}" if bad else ""))
    return report
