"""Acceptance suite: every criterion at its stated size, exact arithmetic.

Each test prints one PASS line once its criterion holds; any failure surfaces
as an ordinary assertion error naming the offending case.
"""

import random
from itertools import islice

import pytest

from metalie.invariants import (
    infinite_family_witness,
    load_catalog,
    pi,
    pi_via_bracket,
    verify_catalog,
)
from metalie.metabelian import LieContext, words_of_multidegree
from metalie.poly import Poly, is_pairwise_jacobian_zero
from metalie.series import hilbert_metabelian
from metalie.sl2 import (
    ModuleSpec,
    invariant_dimension,
    is_invariant,
    is_invariant_by_derivations,
)
from metalie.invariants import decide_finite_generation
from helpers import (character_product, decompose_character, monomial_element,
                     skew_square_character, symmetric_square_character, vk_character)
from oracles import skew_square_rule, symmetric_square_rule, young_tensor_rule

TRUNCATION = 12


@pytest.fixture(scope="module")
def catalog_reports():
    return {case_id: verify_catalog(case, TRUNCATION, rank_degree=TRUNCATION)
            for case_id, case in load_catalog().items()}


def _check(report, name):
    result = next(c for c in report.checks if c.name == name)
    assert result.passed, f"case {report.case_id}: {name}: {result.detail}"


def test_criterion_1_catalog_series_reproduction(catalog_reports):
    for case_id, report in catalog_reports.items():
        _check(report, "module-series-matches")
        _check(report, "ring-series-matches")
        _check(report, "symmetrization-identity")
    print("\nACCEPTANCE 1 catalog series reproduction to degree 12: PASS")


def test_criterion_2_generator_invariance(catalog_reports):
    module_total = 0
    ring_total = 0
    for case_id, case in load_catalog().items():
        spec = case.spec
        for g in case.module_generators:
            assert is_invariant(g, spec), f"case {case_id} module generator"
            assert is_invariant_by_derivations(g, spec), f"case {case_id} module generator"
            module_total += 1
        for f in case.ring_generators:
            assert is_invariant(f, spec), f"case {case_id} ring generator"
            assert is_invariant_by_derivations(f, spec), f"case {case_id} ring generator"
            ring_total += 1
    assert module_total + ring_total >= 22
    print(f"\nACCEPTANCE 2 generator invariance ({module_total} module + "
          f"{ring_total} ring generators, both check paths): PASS")


def test_criterion_3_relations_vanish():
    catalog = load_catalog()
    for case_id in ("vi", "vii"):
        case = catalog[case_id]
        values = case.relation_values()
        assert values, f"case {case_id} must carry a relation"
        for value in values:
            assert value.is_zero(), f"case {case_id} relation is nonzero"
    print("\nACCEPTANCE 3 module relations evaluate to zero: PASS")


def test_criterion_4_vanishing_invariants_of_single_degree_two_block():
    spec = ModuleSpec((2,))
    for degree in range(1, TRUNCATION + 1):
        dim = invariant_dimension(spec, degree, "algebra")
        assert dim == 0, f"degree {degree} has invariant dimension {dim}"
    from metalie.series import invariant_dimension_series

    series = invariant_dimension_series(spec, TRUNCATION, "algebra")
    assert series.coefficients == {}, "series path disagrees with the kernel path"
    print("\nACCEPTANCE 4 no invariants in the whole algebra on one degree-2 "
          "block, degrees 1..12 (kernel and series paths): PASS")


def _random_homogeneous(rng, d, degree, max_terms=4):
    acc = Poly.zero()
    for _ in range(rng.randint(1, max_terms)):
        mono = Poly.one()
        for _ in range(degree):
            mono = mono * Poly.variable(f"x{rng.randint(1, d)}")
        acc = acc + rng.choice([-3, -2, -1, 1, 2, 3]) * mono
    return acc


def test_criterion_5_pi_consistency_and_nonvanishing():
    rng = random.Random(74)
    pairs = 0
    nonzero_checks = 0
    while pairs < 100:
        d = rng.randint(2, 5)
        ctx = LieContext(d)
        f1 = _random_homogeneous(rng, d, rng.randint(1, 4))
        f2 = _random_homogeneous(rng, d, rng.randint(1, 4))
        if f1.is_zero() or f2.is_zero():
            continue
        value = pi(f1, f2, ctx)
        assert value == pi_via_bracket(f1, f2, ctx)
        assert pi(f1, f1 ** 2, ctx).is_zero()
        variables = [f"x{j}" for j in range(1, d + 1)]
        if not is_pairwise_jacobian_zero(f1, f2, variables):
            assert not value.is_zero()
            nonzero_checks += 1
        pairs += 1
    assert nonzero_checks >= 50
    print(f"\nACCEPTANCE 5 pi on {pairs} random homogeneous pairs "
          f"({nonzero_checks} independent, all nonzero): PASS")


def test_criterion_6_poisson_axioms_on_random_triples():
    rng = random.Random(75)
    ctx = LieContext(4)

    def random_basis_element():
        exps = [rng.randint(0, 3) for _ in range(4)]
        a_index = rng.choice([None, 1, 2, 3, 4])
        return monomial_element(ctx, a_index, exps)

    for trial in range(1000):
        u1, u2, u3 = (random_basis_element() for _ in range(3))
        jacobi = (u1.bracket(u2).bracket(u3)
                  + u2.bracket(u3).bracket(u1)
                  + u3.bracket(u1).bracket(u2))
        assert jacobi.is_zero(), f"Jacobi fails at trial {trial}"
        leibniz = u1.bracket(u2 * u3) - u1.bracket(u2) * u3 - u2 * u1.bracket(u3)
        assert leibniz.is_zero(), f"Leibniz fails at trial {trial}"
    print("\nACCEPTANCE 6 Jacobi and Leibniz on 1000 random basis triples: PASS")


def _all_exponents(d, bound):
    if d == 0:
        yield ()
        return
    for head in range(bound + 1):
        for tail in _all_exponents(d - 1, bound - head):
            yield (head, *tail)


def test_criterion_7_hilbert_formula_against_word_counts():
    for d in (2, 3, 4):
        series = hilbert_metabelian(d, 8)
        for exps in _all_exponents(d, 8):
            n = sum(exps)
            if n == 0:
                expected = 0
            elif n == 1:
                expected = 1  # the generator itself
            else:
                expected = len(words_of_multidegree(exps))
            assert series.coefficient(exps) == expected, (d, exps)
    print("\nACCEPTANCE 7 Hilbert formula equals brute-force word counts "
          "(d=2,3,4, degree <= 8): PASS")


def test_criterion_8_decision_procedure():
    finitely_generated = [(1, 0, 0), (0, 1, 0), (2,), (0, 0), (1,), (0,)]
    infinite = [(3,), (4,), (1, 1), (2, 0), (2, 1), (2, 2)]
    for blocks in finitely_generated:
        assert decide_finite_generation(ModuleSpec(blocks)).finitely_generated, blocks
    for blocks in infinite:
        assert not decide_finite_generation(ModuleSpec(blocks)).finitely_generated, blocks
    print("\nACCEPTANCE 8 finite generation decision matches on all listed "
          "specifications: PASS")


def test_criterion_9_young_rule_tables():
    for k in range(6):
        for m in range(6):
            product = character_product(vk_character(k), vk_character(m))
            assert decompose_character(product) == young_tensor_rule(k, m), (k, m)
        assert decompose_character(symmetric_square_character(vk_character(k))) == \
            symmetric_square_rule(k), k
        assert decompose_character(skew_square_character(vk_character(k))) == \
            skew_square_rule(k), k
    print("\nACCEPTANCE 9 tensor, symmetric and skew square decompositions "
          "for k, m <= 5: PASS")


def test_coverage_generation_rank_checks(catalog_reports):
    for case_id, report in catalog_reports.items():
        _check(report, "ring-generators-span")
        _check(report, "module-generators-span")
        _check(report, "module-generators-invariant")
        _check(report, "ring-generators-invariant")
        _check(report, "relations-vanish")
    print("\nACCEPTANCE coverage: catalog span rank checks to degree 12: PASS")


def test_coverage_witness_families():
    for blocks in [(1, 1), (2, 0), (2, 1), (2, 2), (3,), (4,)]:
        spec = ModuleSpec(blocks)
        family = list(islice(infinite_family_witness(spec), 5))
        degrees = [u.total_degree() for u in family]
        assert len(family) == 5
        assert all(a < b for a, b in zip(degrees, degrees[1:])), blocks
        for u in family:
            assert not u.is_zero()
            assert u.is_in_commutator_ideal()
            assert is_invariant_by_derivations(u, spec), (blocks, u.total_degree())
        for u in family[:2]:
            assert is_invariant(u, spec), (blocks, u.total_degree())
    print("\nACCEPTANCE coverage: witness families of five increasing-degree "
          "invariants for six specifications: PASS")
