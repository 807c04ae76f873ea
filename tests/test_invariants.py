"""The pi operator, invariant families, decisions, extensions, catalog."""

import random
import re
import sys
import threading
from itertools import islice
from math import comb
from time import perf_counter
from unittest import mock

import pytest
from hypothesis import example, given

import strategies as strat
from metalie import invariants, poly
from metalie.invariants import (
    MAX_SPAN_ROWS,
    ExtensionBasis,
    NoKnownWitness,
    NonHomogeneousInput,
    SpanBudgetExceeded,
    check_span_budget,
    decide_finite_generation,
    discriminant,
    extend_by_trivial_variable,
    infinite_family_witness,
    load_catalog,
    pi,
    pi_via_bracket,
    span_rows,
    verify_catalog,
    w_lie,
    w_poly,
    witness_pair,
)
from metalie.linalg import rank
from metalie.metabelian import LieContext, WreathElement, parse_lie_expr
from metalie.poly import (MAX_EXPONENT, MAX_TERM_PAIRS, ExponentOverflow, ParseError, Poly,
                          encode, is_pairwise_jacobian_zero)
from metalie.series import invariant_dimension_series
from metalie.sl2 import ModuleSpec, is_invariant, is_invariant_by_derivations
from helpers import counted_products, replace_case
from oracles import bracket_by_split, pi_via_minors


def wreath(ctx, text):
    return parse_lie_expr(text).evaluate(ctx)


class TestPi:
    def test_frozen_example(self):
        ctx = LieContext(4)
        value = pi(Poly.variable("x4"), Poly.parse("x2^2 - x1*x3"), ctx)
        assert value == wreath(ctx, "2*[x4,x2,x2] - [x4,x1,x3] - [x4,x3,x1]")
        assert value.is_in_commutator_ideal()

    def test_dependent_pair_vanishes(self):
        ctx = LieContext(3)
        f = Poly.parse("x1*x2 - x3^2")
        assert pi(f, f ** 2, ctx).is_zero()

    def test_non_homogeneous_rejected(self):
        ctx = LieContext(2)
        with pytest.raises(NonHomogeneousInput):
            pi(Poly.parse("x1 + x1*x2"), Poly.variable("x2"), ctx)

    def test_quartic_ring_generators_give_nonzero_element(self):
        case = load_catalog()["iv"]
        ctx = case.spec.context()
        f1, f2 = case.ring_generators
        value = pi(f1, f2, ctx)
        assert not value.is_zero()
        assert value.is_in_commutator_ideal()
        assert is_invariant_by_derivations(value, case.spec)

    def test_exponent_over_the_field_is_refused(self):
        # the minor x1 * x2^MAX_EXPONENT times a1 * x2 leaves the field of x2
        f1 = Poly.parse(f"x1*x2^{MAX_EXPONENT}")
        with pytest.raises(ExponentOverflow):
            pi(f1, Poly.parse("x1*x2"), LieContext(2))

    @given(f1=strat.homogeneous_polys(degree=2), f2=strat.homogeneous_polys(degree=3))
    def test_two_paths_agree(self, f1, f2):
        ctx = LieContext(3)
        value = pi(f1, f2, ctx)
        assert value == pi_via_bracket(f1, f2, ctx)
        # pi marks its value as in the commutator ideal; a fresh element decides it
        assert WreathElement(ctx, value.poly).is_in_commutator_ideal()

    @given(f1=strat.homogeneous_polys(degree=2), f2=strat.homogeneous_polys(degree=2))
    def test_nonvanishing_for_independent_pairs(self, f1, f2):
        ctx = LieContext(3)
        if not is_pairwise_jacobian_zero(f1, f2, [f"x{j}" for j in range(1, 4)]):
            assert not pi(f1, f2, ctx).is_zero()


def _pair(f1, f2, dim):
    return Poly.parse(f1), Poly.parse(f2), LieContext(dim)


class TestPiByEuler:
    """pi takes the a_i-coefficient n2 f2 df1/dx_i - n1 f1 df2/dx_i of Euler's
    identity; the minors and the bracket of the embeddings by split are its two
    independent routes, since `pi_via_bracket` shares pi's bracket kernel."""

    @given(pair=strat.homogeneous_pairs())
    @example(pair=_pair("7", "x1*x2", 2))                      # constants
    @example(pair=_pair("x1^2 - 3*x2^2", "5", 3))
    @example(pair=_pair("x1*x2", "x3^2 + x3*x4", 4))          # disjoint variables
    @example(pair=_pair("x1^3", "x1^2", 1))                    # one variable
    @example(pair=_pair("x1*x8 - x4^2", "x2*x3*x7 + x5^3", 8))
    def test_three_routes_agree(self, pair):
        f1, f2, ctx = pair
        value = pi(f1, f2, ctx)
        assert value == pi_via_minors(f1, f2, ctx) == pi_via_bracket(f1, f2, ctx)
        assert value == bracket_by_split(ctx.embed_poly(f1), ctx.embed_poly(f2))

    @given(pair=strat.homogeneous_pairs())
    @example(pair=_pair("5", "x1*x2 + x3^2", 3))
    @example(pair=_pair("(x1+x2+x3+x4+x5)^3", "(x1+2*x2+3*x3+4*x4+5*x5)^2", 5))
    def test_the_stated_total_is_the_pairs_the_products_take(self, pair):
        f1, f2, ctx = pair
        with mock.patch.object(poly, "MAX_TERM_PAIRS", -1):    # refuse, stating the total
            with pytest.raises(ParseError) as refusal:
                pi(f1, f2, ctx)
        stated = int(re.fullmatch(r"pi needs up to (\d+) term pairs, over the budget of -1",
                                  str(refusal.value))[1])
        with counted_products() as pairs:
            pi(f1, f2, ctx)
        assert sum(pairs) == stated
        # a product is formed only of a nonzero partial and a nonconstant factor
        formed = [v for f, g in ((f1, f2), (f2, f1)) if g.total_degree() > 0
                  for v in f.variables()]
        assert 0 not in pairs and len(pairs) == len(formed)

    def test_a_constant_factor_takes_no_partial(self):
        linear = " + ".join(f"x{i}" for i in range(1, 201))
        f = Poly.parse(f"({linear})^2")
        with mock.patch.object(Poly, "partial", side_effect=AssertionError("a partial")):
            value = pi(Poly.parse("1"), f, LieContext(200))
        assert value.is_zero()

    def test_each_factor_is_walked_once_for_its_degree_and_once_for_its_partials(self):
        linear = " + ".join(f"x{i}" for i in range(1, 41))
        f1, f2, ctx = Poly.parse("x1"), Poly.parse(f"({linear})^2"), LieContext(40)
        expected = pi_via_bracket(f1, f2, ctx)
        degrees, walks = [], []

        def counted(calls, real):
            return lambda m: calls.append(m) or real(m)
        with mock.patch.object(Poly, "total_degree", side_effect=AssertionError("a degree")), \
                mock.patch.object(Poly, "is_homogeneous", side_effect=AssertionError("a check")), \
                mock.patch.object(Poly, "partial", side_effect=AssertionError("a partial")), \
                mock.patch.object(invariants, "mono_degree", counted(degrees, poly.mono_degree)), \
                mock.patch.object(invariants, "fields", counted(walks, poly.fields)):
            assert pi(f1, f2, ctx) == expected
        assert sorted(degrees) == sorted(walks) == sorted([*f1.terms, *f2.terms])

    def test_over_the_total_is_refused_before_any_product(self):
        f = Poly.parse("(x1+x2+x3+x4+x5+x6)^12")    # 6188 terms, 4368 in each partial
        with counted_products() as pairs:
            start = perf_counter()
            with pytest.raises(ParseError) as refusal:
                pi(f, f, LieContext(6))
            assert perf_counter() - start < 0.1
        assert pairs == []
        assert str(refusal.value) == (f"pi needs up to {2 * 6 * 6188 * 4368} term pairs, "
                                      f"over the budget of {MAX_TERM_PAIRS}")


class TestQuadraticFamilies:
    def test_w_poly_frozen(self):
        assert w_poly(1) == Poly.parse("2*x1*x3 - 2*x2^2")
        assert w_poly(2) == Poly.parse("2*x1*x5 - 8*x2*x4 + 6*x3^2")

    def test_w_poly_of_a_large_block(self):
        # a block of degree 1520: the binomials must not recurse on the degree
        assert w_poly(760).coefficient(encode((("x761", 2),))) == comb(1520, 760)

    def test_w_poly_rejects_zero(self):
        with pytest.raises(ValueError):
            w_poly(0)

    def test_w_lie_frozen(self):
        ctx2, ctx4, ctx6 = LieContext(2), LieContext(4), LieContext(6)
        assert w_lie(0).evaluate(ctx2) == wreath(ctx2, "2*[x1,x2]")
        assert w_lie(1).evaluate(ctx4) == wreath(ctx4, "2*[x1,x4] - 6*[x2,x3]")
        assert w_lie(2).evaluate(ctx6) == \
            wreath(ctx6, "2*[x1,x6] - 10*[x2,x5] + 20*[x3,x4]")

    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_w_poly_invariance(self, m):
        spec = ModuleSpec((2 * m,))
        assert is_invariant(w_poly(m), spec)
        assert is_invariant_by_derivations(w_poly(m), spec)

    @pytest.mark.parametrize("m", [0, 1, 2, 3])
    def test_w_lie_invariance(self, m):
        spec = ModuleSpec((2 * m + 1,))
        value = w_lie(m).evaluate(spec.context())
        assert is_invariant(value, spec)
        assert is_invariant_by_derivations(value, spec)
        assert not value.is_zero()


class TestDiscriminant:
    def test_quadratic(self):
        assert discriminant(2) == Poly.parse("x1*x3 - x2^2")

    def test_cubic_matches_catalog(self):
        assert discriminant(3) == load_catalog()["ii"].ring_generators[0]

    def test_quartic_properties(self):
        d = discriminant(4)
        assert d.total_degree() == 6
        assert d.is_homogeneous()
        assert d.content() == 1
        assert is_invariant(d, ModuleSpec((4,)))

    def test_degree_formula(self):
        for k in (2, 3, 4):
            assert discriminant(k).total_degree() == 2 * (k - 1)

    def test_small_degree_rejected(self):
        with pytest.raises(ValueError):
            discriminant(1)


class TestDecision:
    @pytest.mark.parametrize("blocks,expected", [
        ((1, 0, 0), True),
        ((2,), True),
        ((0, 0), True),
        ((1,), True),
        ((3,), False),
        ((4,), False),
        ((1, 1), False),
        ((2, 0), False),
        ((2, 1), False),
        ((2, 2), False),
    ])
    def test_theorem_table(self, blocks, expected):
        assert decide_finite_generation(ModuleSpec(blocks)).finitely_generated is expected

    def test_generators_for_one_v1_plus_trivials(self):
        verdict = decide_finite_generation(ModuleSpec((1, 0, 0)))
        assert verdict.generators == ("[x2,x1]", "x3", "x4")

    def test_generators_respect_block_positions(self):
        verdict = decide_finite_generation(ModuleSpec((0, 1, 0)))
        assert verdict.generators == ("[x3,x2]", "x1", "x4")

    def test_single_degree_two_block_has_no_invariants(self):
        verdict = decide_finite_generation(ModuleSpec((2,)))
        assert verdict.finitely_generated and verdict.generators == ()

    def test_trivial_action(self):
        verdict = decide_finite_generation(ModuleSpec((0, 0, 0)))
        assert verdict.finitely_generated
        assert verdict.generators == ("x1", "x2", "x3")

    @given(spec=strat.module_specs())
    def test_invariant_under_block_permutations(self, spec):
        shuffled = ModuleSpec(tuple(sorted(spec.blocks)))
        assert decide_finite_generation(spec).finitely_generated == \
            decide_finite_generation(shuffled).finitely_generated


class TestExtension:
    @staticmethod
    def _check_dimensions(basis: ExtensionBasis, spec: ModuleSpec, bound: int):
        series = invariant_dimension_series(spec, bound, "module")
        dims = [int(c) for c in series.univariate_coefficients()]
        by_degree = {}
        for u in basis.from_lie + basis.from_ring:
            by_degree.setdefault(u.total_degree(), []).append(u)
        for n in range(2, bound + 1):
            family = by_degree.get(n, [])
            assert len(family) == dims[n], (spec, n)
            assert rank([u.poly.terms for u in family]) == dims[n], (spec, n)

    def test_one_v1_block_plus_trivial(self):
        spec = ModuleSpec((1, 0))
        ctx = spec.context()
        base = [wreath(ctx, "[x2,x1]")]
        basis = extend_by_trivial_variable(base, [], spec, 8)
        assert not basis.from_ring
        self._check_dimensions(basis, spec, 8)

    def test_two_trivial_levels(self):
        spec = ModuleSpec((1, 0, 0))
        ctx = spec.context()
        lie_base = [wreath(ctx, f"[x2,x1].x3^{n}") for n in range(7)]
        ring_base = [Poly.variable("x3") ** m for m in range(1, 8)]
        basis = extend_by_trivial_variable(lie_base, ring_base, spec, 8)
        self._check_dimensions(basis, spec, 8)

    def test_degree_two_block_plus_trivial(self):
        spec = ModuleSpec((2, 0))
        f = Poly.parse("x2^2 - x1*x3")
        ring_base = [f ** m for m in range(1, 4)]
        basis = extend_by_trivial_variable([], ring_base, spec, 8)
        assert not basis.from_lie
        self._check_dimensions(basis, spec, 8)

    def test_fully_trivial_action(self):
        spec = ModuleSpec((0, 0))
        ring_base = [Poly.variable("x1") ** m for m in range(1, 8)]
        basis = extend_by_trivial_variable([], ring_base, spec, 8)
        self._check_dimensions(basis, spec, 8)

    def test_requires_final_trivial_block(self):
        with pytest.raises(ValueError):
            extend_by_trivial_variable([], [], ModuleSpec((0, 1)), 4)


class TestWitnesses:
    def test_family_for_two_v1_blocks(self):
        spec = ModuleSpec((1, 1))
        family = list(islice(infinite_family_witness(spec), 4))
        degrees = [u.total_degree() for u in family]
        assert degrees == [2, 4, 6, 8]
        assert all(is_invariant(u, spec) for u in family)
        assert all(not u.is_zero() for u in family)

    def test_pair_for_v2_plus_trivial(self):
        spec = ModuleSpec((2, 0))
        u, f = witness_pair(spec)
        assert u.total_degree() == 3 and f.total_degree() == 2
        assert is_invariant(u, spec) and is_invariant(f, spec)

    def test_unknown_spec_raises(self):
        with pytest.raises(NoKnownWitness):
            witness_pair(ModuleSpec((1, 1, 1, 1)))

    def test_single_block_generic_construction(self):
        # degree-5 block: not in the catalog, built from the quadratic family
        spec = ModuleSpec((5,))
        u, f = witness_pair(spec)
        assert is_invariant_by_derivations(u, spec)
        assert is_invariant(f, spec)
        assert not u.is_zero() and f.total_degree() > 0

    def test_single_even_block_generic_construction(self):
        # degree-6 block: pairs the quadratic invariant with the discriminant
        spec = ModuleSpec((6,))
        u, f = witness_pair(spec)
        assert u.total_degree() == 12 and f.total_degree() == 2
        assert not u.is_zero()
        assert is_invariant_by_derivations(u, spec)
        assert is_invariant(f, spec)


class TestCatalog:
    def test_loads_all_cases(self):
        catalog = load_catalog()
        assert list(catalog) == ["i", "ii", "iii", "iv", "v", "vi", "vii"]
        module_counts = [len(c.module_generator_texts) for c in catalog.values()]
        ring_counts = [len(c.ring_generator_texts) for c in catalog.values()]
        assert module_counts == [0, 1, 3, 1, 4, 6, 6]
        assert ring_counts == [1, 1, 1, 2, 2, 3, 3]

    def test_first_case_matches_decision(self):
        case = load_catalog()["i"]
        assert decide_finite_generation(case.spec).finitely_generated

    def test_transcendence_degree_metadata(self):
        classical = {2: 1, 3: 1, 4: 2}  # single block of degree k: max(1, k-2)
        for case in load_catalog().values():
            # every catalog ring is free, so the degree equals the generator count
            assert case.ring_transcendence_degree == len(case.ring_generator_texts)
            if len(case.spec.blocks) == 1:
                assert case.ring_transcendence_degree == classical[case.spec.blocks[0]]

    @pytest.mark.parametrize("case_id", ["i", "ii", "iii", "iv", "v", "vi", "vii"])
    def test_verify_all_cases_quickly(self, case_id):
        report = verify_catalog(load_catalog()[case_id], truncation=8, rank_degree=6)
        assert report.passed, [c.name + ": " + c.detail for c in report.failures()]

    def test_report_shape(self):
        report = verify_catalog(load_catalog()["iii"], truncation=6, rank_degree=6)
        names = [c.name for c in report.checks]
        assert names == [
            "module-generators-invariant",
            "ring-generators-invariant",
            "relations-vanish",
            "module-series-matches",
            "ring-series-matches",
            "symmetrization-identity",
            "ring-generators-span",
            "module-generators-span",
        ]
        assert report.to_json()["passed"] is True

    def test_module_generators_are_parsed_once_per_case(self, monkeypatch):
        """One parse per text: the generators, the stated series and the relations."""
        parsed = []

        def counting(parse):
            def count(text):
                parsed.append(text)
                return parse(text)
            return count

        monkeypatch.setattr(invariants, "parse_lie_expr", counting(parse_lie_expr))
        monkeypatch.setattr(invariants, "parse_rational_function",
                            counting(invariants.parse_rational_function))
        monkeypatch.setattr(Poly, "parse", staticmethod(counting(Poly.parse)))
        # copies with empty caches, which witness_pair reads through load_catalog
        copies = {case_id: replace_case(case)
                  for case_id, case in load_catalog().items()}
        monkeypatch.setattr(invariants, "load_catalog", lambda: copies)
        for case in copies.values():
            texts = sorted([*case.module_generator_texts, *case.ring_generator_texts,
                            case.module_series_text, case.ring_series_text,
                            *case.relation_texts])
            parsed.clear()
            for _ in range(2):
                assert verify_catalog(case, truncation=6, rank_degree=6).passed
            check_span_budget(case, 6)
            if case.module_generator_texts:
                u, _ = witness_pair(case.spec)
                assert any(u is v for v in case.module_generators)
            assert sorted(parsed) == texts, case.case_id
            # a fresh copy, as the corrupted-catalog tests make, parses again
            parsed.clear()
            fresh = replace_case(case)
            assert fresh.relation_values() == case.relation_values()
            assert fresh.module_series(6) == case.module_series(6)
            assert fresh.ring_series(6) == case.ring_series(6)
            assert sorted(parsed) == texts, case.case_id

    def test_threads_share_one_parse_of_a_case(self):
        serial = load_catalog()["vii"]
        expected = (serial.module_generators, serial.ring_generators, serial.relation_values())
        case = replace_case(serial)
        seen = []

        def read():
            seen.append((case.module_generators, case.ring_generators, case.relation_values()))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=read) for _ in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert seen == [expected] * 8

    def test_report_times_and_sizes_each_check(self):
        report = verify_catalog(load_catalog()["vii"], truncation=8, rank_degree=6)
        payload = report.to_json()
        assert [c["name"] for c in payload["checks"]] == [c.name for c in report.checks]
        for check, entry in zip(report.checks, payload["checks"]):
            assert check.elapsed >= 0 and entry["elapsed"] == round(check.elapsed, 6)
            assert entry["size"] == check.size
        sizes = {c.name: c.size for c in report.checks}
        case = load_catalog()["vii"]
        assert sizes["module-generators-invariant"] == len(case.module_generator_texts)
        assert sizes["ring-generators-invariant"] == len(case.ring_generator_texts)
        assert sizes["relations-vanish"] == len(case.relation_texts)
        assert all(sizes[name] > 0 for name in (
            "module-series-matches", "ring-series-matches", "symmetrization-identity",
            "ring-generators-span", "module-generators-span"))


class TestSpanBudget:
    def test_row_count_matches_the_rows_ranked(self):
        for case in load_catalog().values():
            report = verify_catalog(case, truncation=9)
            sizes = {c.name: c.size for c in report.checks}
            module_degrees = [v.total_degree() for v in case.module_generators]
            ring_degrees = [g.total_degree() for g in case.ring_generators]
            assert span_rows(ring_degrees, module_degrees, 9) == \
                sizes["ring-generators-span"] + sizes["module-generators-span"], case.case_id

    def test_row_count_of_one_quadratic_generator(self):
        # ring rows: f^0..f^3 at degrees 0, 2, 4, 6; one module generator of
        # degree 2 adds the products of degree n - 2 for n = 2..6
        assert span_rows([2], [2], 6) == 4 + 3

    def test_catalog_degrees_up_to_20_are_accepted(self):
        for case in load_catalog().values():
            for degree in (8, 12, 20):
                check_span_budget(case, degree)

    def test_degree_64_is_refused(self):
        with pytest.raises(SpanBudgetExceeded, match=f"over the budget of {MAX_SPAN_ROWS}"):
            verify_catalog(load_catalog()["vi"], truncation=64)


class TestRandomPiConsistency:
    def test_seeded_random_pairs(self):
        rng = random.Random(20240817)
        checked = 0
        for _ in range(40):
            d = rng.randint(2, 5)
            ctx = LieContext(d)
            f1 = _random_homogeneous(rng, d, rng.randint(1, 3))
            f2 = _random_homogeneous(rng, d, rng.randint(1, 3))
            if f1.is_zero() or f2.is_zero():
                continue
            assert pi(f1, f2, ctx) == pi_via_bracket(f1, f2, ctx)
            checked += 1
        assert checked >= 30


def _random_homogeneous(rng, d, degree):
    acc = Poly.zero()
    for _ in range(rng.randint(1, 4)):
        mono = Poly.one()
        for _ in range(degree):
            mono = mono * Poly.variable(f"x{rng.randint(1, d)}")
        acc = acc + rng.choice([-2, -1, 1, 2, 3]) * mono
    return acc
