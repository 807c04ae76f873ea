"""Truncated series, Hilbert series, characters, and multiplicity extraction."""

import re
from fractions import Fraction

import hypothesis.strategies as st
import pytest
from hypothesis import given

from metalie.invariants import load_catalog
from metalie.metabelian import words_of_multidegree
from metalie.poly import MAX_EXPONENT, ParseError, Poly
from metalie.series import (
    SPACES,
    NotACharacter,
    TruncatedSeries,
    TruncationMismatch,
    expand_rational,
    extract_multiplicities,
    hilbert_metabelian,
    hilbert_metabelian_module,
    hilbert_polyring,
    invariant_dimension_series,
    parse_rational_function,
    verify_symmetrization,
    weight_character,
    weight_difference_counts,
    weight_slices,
    weight_substitute,
)
from metalie.sl2 import ModuleSpec, invariant_dimension
from helpers import (character_product, decompose_character, multiplicity_series,
                     skew_square_character, slices_by, symmetric_square_character,
                     vk_character)
from oracles import (
    expand_rational_by_power_sums,
    skew_square_rule,
    symmetric_square_rule,
    tuple_divide_by_t1_minus_t2,
    two_derivation_kernel_dimension,
    young_tensor_rule,
)
from strategies import module_specs


def ints(series):
    return [int(c) for c in series.univariate_coefficients()]


class TestTruncatedSeries:
    def test_geometric(self):
        h = hilbert_polyring(1, 3)
        assert ints(h) == [1, 1, 1, 1]

    def test_truncation_drops_terms(self):
        z = TruncatedSeries.term(("z",), 3, (1,))
        assert (z ** 5).coefficients == {}
        assert (z ** 3).coefficients == {(3,): 1}

    def test_shape_mismatch(self):
        a = TruncatedSeries.one(("z",), 3)
        b = TruncatedSeries.one(("z",), 4)
        with pytest.raises(TruncationMismatch):
            a + b

    def test_printing(self):
        z = TruncatedSeries.term(("z",), 4, (1,))
        assert str(TruncatedSeries.one(("z",), 4) + 3 * z ** 2) == "1 + 3*z^2"

    def test_negative_power_is_refused(self):
        z = TruncatedSeries.term(("z",), 4, (1,))
        with pytest.raises(ValueError, match="negative power"):
            z ** -2


class TestHilbertSeries:
    def test_polyring_square_free_coefficient(self):
        h = hilbert_polyring(2, 4)
        assert h.coefficient((1, 1)) == 1

    def test_polyring_degree_two_count(self):
        h = hilbert_polyring(3, 2)
        assert sum(1 for e in h.coefficients if sum(e) == 2) == 6

    def test_metabelian_frozen_coefficients(self):
        h = hilbert_metabelian(2, 4)
        # oracle: normal words of the multidegree
        assert h.coefficient((1, 1)) == len(words_of_multidegree((1, 1))) == 1
        assert h.coefficient((2, 1)) == len(words_of_multidegree((2, 1))) == 1
        assert h.coefficient((0, 0)) == 0
        assert h.coefficient((1, 0)) == 1

    def test_metabelian_needs_two_generators(self):
        with pytest.raises(ValueError):
            hilbert_metabelian(1, 4)

    def test_module_series_drops_generators(self):
        h = hilbert_metabelian_module(3, 4)
        assert h.coefficient((1, 0, 0)) == 0
        assert h.coefficient((1, 1, 0)) == 1

    def test_word_count_oracle_small(self):
        for d in (2, 3):
            h = hilbert_metabelian(d, 5)
            for exps in _all_exponents(d, 5):
                n = sum(exps)
                expected = 1 if n == 1 else len(words_of_multidegree(exps)) if n >= 2 else 0
                assert h.coefficient(exps) == expected


def _all_exponents(d, bound):
    if d == 0:
        yield ()
        return
    for head in range(bound + 1):
        for tail in _all_exponents(d - 1, bound - head):
            yield (head, *tail)


class TestWeightSubstitution:
    def test_degree_one_block(self):
        h = weight_substitute(hilbert_polyring(2, 4), ModuleSpec((1,)))
        assert slices_by(h, "z")[1] == {(1, 0): 1, (0, 1): 1}

    def test_trivial_block(self):
        h = weight_substitute(hilbert_polyring(1, 4), ModuleSpec((0,)))
        assert slices_by(h, "z")[1] == {(0, 0): 1}

    def test_degree_two_block_gives_schur(self):
        h = weight_substitute(hilbert_polyring(3, 4), ModuleSpec((2,)))
        assert slices_by(h, "z")[1] == {(2, 0): 1, (1, 1): 1, (0, 2): 1}

    def test_dimension_mismatch(self):
        with pytest.raises(TruncationMismatch):
            weight_substitute(hilbert_polyring(2, 4), ModuleSpec((2,)))


class TestCharacters:
    def test_single_irreducible(self):
        assert decompose_character(vk_character(2)) == {(2, 0): 1}

    def test_tensor_square_of_degree_two(self):
        square = character_product(vk_character(2), vk_character(2))
        assert decompose_character(square) == {(4, 0): 1, (2, 1): 1, (0, 2): 1}

    def test_skew_square_of_degree_three(self):
        skew = skew_square_character(vk_character(3))
        assert decompose_character(skew) == {(4, 1): 1, (0, 3): 1}

    def test_not_a_character(self):
        with pytest.raises(NotACharacter):
            decompose_character({(1, 0): Fraction(1)})
        with pytest.raises(NotACharacter):
            decompose_character({(1, 1): Fraction(-1)})

    @pytest.mark.parametrize("k,m", [(2, 1), (3, 3), (5, 4), (4, 0)])
    def test_tensor_rule(self, k, m):
        product = character_product(vk_character(k), vk_character(m))
        assert decompose_character(product) == young_tensor_rule(k, m)

    @pytest.mark.parametrize("k", range(6))
    def test_square_rules(self, k):
        char = vk_character(k)
        assert decompose_character(symmetric_square_character(char)) == \
            symmetric_square_rule(k)
        expected_skew = skew_square_rule(k)
        computed = decompose_character(skew_square_character(char))
        assert computed == expected_skew


class TestMultiplicities:
    def test_invariant_series_for_single_degree_two_block(self):
        series = invariant_dimension_series(ModuleSpec((2,)), 6, "polyring")
        assert ints(series) == [1, 0, 1, 0, 1, 0, 1]

    def test_module_vanishes_for_single_degree_two_block(self):
        series = invariant_dimension_series(ModuleSpec((2,)), 6, "module")
        assert ints(series) == [0] * 7

    def test_module_of_cubic_block(self):
        series = invariant_dimension_series(ModuleSpec((3,)), 6, "module")
        assert ints(series) == [0, 0, 1, 0, 0, 0, 1]

    def test_table_round_trip_forms(self):
        spec = ModuleSpec((2,))
        table = extract_multiplicities(weight_substitute(hilbert_polyring(3, 4), spec))
        m = multiplicity_series(table)
        # the t1^l t2^l z^n entries (k = 0) reproduce the invariant dims
        for n in range(5):
            total = sum(c for (a, b, deg), c in m.coefficients.items()
                        if deg == n and a == b)
            assert total == table.invariant_dimension(n)
        assert m.coefficients  # nonempty encoding

    def test_polynomials_on_one_v1_block_are_irreducible_per_degree(self):
        # Sym^n of the two-dimensional module is the degree-n module
        spec = ModuleSpec((1,))
        table = extract_multiplicities(weight_substitute(hilbert_polyring(2, 6), spec))
        for n in range(7):
            assert table.multiplicity(n, n, 0) == 1
            assert sum(m for (deg, _, _), m in table.entries.items() if deg == n) == 1

    def test_commutator_ideal_on_one_v1_block_decomposes_with_one_twist(self):
        # degree-n component of the rank-2 commutator ideal is det (x) V_{n-2}
        spec = ModuleSpec((1,))
        table = extract_multiplicities(
            weight_substitute(hilbert_metabelian_module(2, 8), spec))
        for n in range(2, 9):
            assert table.multiplicity(n, n - 2, 1) == 1
            assert sum(m for (deg, _, _), m in table.entries.items() if deg == n) == 1

    def test_negative_multiplicity_signals_upstream_bug(self):
        bad = TruncatedSeries(("t1", "t2", "z"), 2,
                              {(1, 1, 1): Fraction(1), (2, 0, 1): Fraction(-1),
                               (0, 2, 1): Fraction(-1)}, graded=("z",))
        with pytest.raises(NotACharacter):
            extract_multiplicities(bad)


class TestSymmetrization:
    def test_single_block_slice(self):
        spec = ModuleSpec((2,))
        hgl = weight_substitute(hilbert_polyring(3, 4), spec)
        table = extract_multiplicities(hgl)
        assert verify_symmetrization(multiplicity_series(table), hgl)

    def test_perturbed_candidate_fails(self):
        spec = ModuleSpec((2,))
        hgl = weight_substitute(hilbert_polyring(3, 4), spec)
        table = extract_multiplicities(hgl)
        candidate = multiplicity_series(table)
        perturbed = candidate + TruncatedSeries.term(
            ("t1", "t2", "z"), candidate.truncation, (1, 0, 1), graded=("z",))
        assert not verify_symmetrization(perturbed, hgl)

    def test_mixed_spec_round_trip(self):
        spec = ModuleSpec((2, 1))
        hgl = weight_substitute(hilbert_polyring(5, 8), spec)
        table = extract_multiplicities(hgl)
        assert verify_symmetrization(multiplicity_series(table), hgl)

    def test_module_round_trip(self):
        spec = ModuleSpec((1, 1))
        hgl = weight_substitute(hilbert_metabelian_module(4, 6), spec)
        table = extract_multiplicities(hgl)
        assert verify_symmetrization(multiplicity_series(table), hgl)


class TestExpandRational:
    def test_geometric_in_z_squared(self):
        numer, factors = parse_rational_function("1/(1-z^2)")
        assert ints(expand_rational(numer, factors, 5)) == [1, 0, 1, 0, 1, 0]

    def test_shifted_geometric(self):
        numer, factors = parse_rational_function("z^2/(1-z^4)")
        assert ints(expand_rational(numer, factors, 10)) == \
            [0, 0, 1, 0, 0, 0, 1, 0, 0, 0, 1]

    def test_repeated_factor_division_oracle(self):
        # long division: (6z^2 - z^6) * (1 + 3z^2 + 6z^4 + ...) up to z^4
        numer, factors = parse_rational_function("(6*z^2 - z^6)/(1-z^2)^3")
        assert len(factors) == 3
        assert ints(expand_rational(numer, factors, 4)) == [0, 0, 6, 0, 18]

    def test_zero_constant_term_rejected(self):
        with pytest.raises(ValueError):
            expand_rational(Poly.one(), [Poly.variable("z")], 4)

    def test_two_distinct_factors(self):
        numer, factors = parse_rational_function("1/((1-z^2)*(1-z^3))")
        dims = ints(expand_rational(numer, factors, 12))
        assert dims == [1, 0, 1, 1, 1, 1, 2, 1, 2, 2, 2, 2, 3]

    def test_parse_errors(self):
        with pytest.raises(ParseError):
            parse_rational_function("1/")
        with pytest.raises(ParseError):
            parse_rational_function("1/(1-z^2) trailing")

    @pytest.mark.parametrize("text, message", [
        ("1/(1-z", "expected ')', found end of input at position 6"),
        ("1/(1-z)^", "expected integer exponent at position 8"),
        ("1 - ", "unexpected end of input at position 4"),
    ])
    def test_end_of_input_is_named(self, text, message):
        with pytest.raises(ParseError, match=re.escape(message)):
            parse_rational_function(text)

    @pytest.mark.parametrize("power", ["99999999999999", "4000000", "32768"])
    def test_denominator_powers_share_the_exponent_budget(self, power):
        with pytest.raises(ParseError, match=f"exponent {power} at position 8 over the "
                                             f"budget of {MAX_EXPONENT}"):
            parse_rational_function(f"1/(1-z)^{power}")
        assert parse_rational_function("1/(1-z)^3")[1] == [Poly.parse("1-z")] * 3

    @pytest.mark.parametrize("case_id", sorted(load_catalog()))
    def test_recurrence_matches_power_sums_on_the_catalog(self, case_id):
        case = load_catalog()[case_id]
        for text in (case.module_series_text, case.ring_series_text):
            numer, factors = parse_rational_function(text)
            for truncation in (0, 1, 24):
                expected = expand_rational_by_power_sums(numer, factors, truncation)
                assert expand_rational(numer, factors, truncation) == expected

    @given(st.lists(st.integers(-3, 3), min_size=1, max_size=4),
           st.lists(st.tuples(st.sampled_from([1, -1, 2, -3]),
                              st.lists(st.integers(-2, 2), max_size=3)), max_size=3),
           st.integers(0, 10))
    def test_recurrence_matches_power_sums(self, numer, factors, truncation):
        z = Poly.variable("z")

        def poly(coeffs):
            return sum((c * z ** k for k, c in enumerate(coeffs)), Poly.zero())

        denominators = [poly([c0, *tail]) for c0, tail in factors]
        got = expand_rational(poly(numer), denominators, truncation)
        assert got == expand_rational_by_power_sums(poly(numer), denominators, truncation)
        if all(abs(c0) == 1 for c0, _ in factors):
            assert all(type(c) is int for c in got.coefficients.values())
        with pytest.raises(ValueError, match="zero constant term"):
            expand_rational(poly(numer), [*denominators, poly([0, *numer])], truncation)


class TestKernelOracleAgreement:
    """The character pipeline must agree with direct kernel computations to
    degree 10, and the highest-weight kernel with the kernel of both
    derivations over the bracket-chain words to `oracle_bound` (at least 5)."""

    @pytest.mark.parametrize("blocks,space,oracle_bound", [
        ((2,), "polyring", 6),
        ((2,), "module", 8),
        ((3,), "module", 6),
        ((1, 1), "module", 6),
        ((2, 1), "module", 5),
        ((2, 1), "polyring", 5),
        ((4,), "module", 5),
        ((2, 2), "module", 5),
        ((1, 1, 1), "module", 5),
        ((1, 0), "algebra", 6),
    ])
    def test_agreement(self, blocks, space, oracle_bound):
        spec = ModuleSpec(blocks)
        dims = ints(invariant_dimension_series(spec, 10, space))
        for n in range(11):
            assert dims[n] == invariant_dimension(spec, n, space), (blocks, space, n)
        for n in range(oracle_bound + 1):
            assert dims[n] == two_derivation_kernel_dimension(spec, n, space), (blocks, space, n)


ORACLES = {"polyring": hilbert_polyring, "module": hilbert_metabelian_module,
           "algebra": hilbert_metabelian}
CATALOG = load_catalog()


def enumerated_character(spec, truncation, space):
    """The enumeration route: every monomial in z_1..z_d, collapsed to weights."""
    return weight_substitute(ORACLES[space](spec.dimension, truncation), spec)


def assert_routes_agree(spec, truncation, space):
    character = enumerated_character(spec, truncation, space)
    assert weight_character(spec, truncation, space) == character
    table = extract_multiplicities(character)
    assert invariant_dimension_series(spec, truncation, space).univariate_coefficients() == \
        [table.invariant_dimension(n) for n in range(truncation + 1)]


class TestWeightSpaceRoute:
    """The direct weight-space construction against the monomial enumeration."""

    @pytest.mark.parametrize("space", SPACES)
    @pytest.mark.parametrize("case_id", list(CATALOG))
    def test_catalog_specs_to_degree_12(self, case_id, space):
        assert_routes_agree(CATALOG[case_id].spec, 12, space)

    @given(module_specs(max_blocks=3, max_k=5).filter(lambda spec: spec.dimension <= 6),
           st.integers(0, 8), st.sampled_from(SPACES))
    def test_random_specs(self, spec, truncation, space):
        if space != "polyring" and spec.dimension < 2:
            with pytest.raises(ValueError, match="two generators"):
                invariant_dimension_series(spec, truncation, space)
            return
        assert_routes_agree(spec, truncation, space)

    def test_catalog_closed_forms_to_degree_64(self):
        for case in CATALOG.values():
            assert invariant_dimension_series(case.spec, 64, "polyring") == case.ring_series(64)
            assert invariant_dimension_series(case.spec, 64, "module") == case.module_series(64)

    def test_slices_of_one_v1_block(self):
        # weights (1, 0), (0, 1): Sym^n V_1 = V_n, and the commutator ideal is
        # det (x) V_{n-2}
        v1 = [(1, 0), (0, 1)]
        assert weight_slices(v1, 3) == [{0: [1]}, {1: [1, 1]}, {2: [1, 1, 1]},
                                        {3: [1, 1, 1, 1]}]
        assert weight_slices(v1, 3, "module") == [{}, {}, {2: [0, 1, 0]}, {3: [0, 1, 1, 0]}]
        assert weight_slices(v1, 3, "algebra") == [{}, {1: [1, 1]}, {2: [0, 1, 0]},
                                                   {3: [0, 1, 1, 0]}]
        # the weight differences s = +1, -1 of V_1, read at s = -3..3
        assert weight_difference_counts(ModuleSpec((1,)), 3, "polyring", range(-3, 4)) == [
            [0, 0, 0, 1, 0, 0, 0], [0, 0, 1, 0, 1, 0, 0], [0, 1, 0, 1, 0, 1, 0],
            [1, 0, 1, 0, 1, 0, 1]]
        # the degree-2 commutators of V_1 + V_1: Lambda^2 = 3 det + V_2
        assert weight_difference_counts(ModuleSpec((1, 1)), 2, "module", range(-2, 3))[2] == \
            [1, 0, 4, 0, 1]

    @pytest.mark.parametrize("space", SPACES)
    @pytest.mark.parametrize("blocks", [(1,), (2,), (0, 0), (1, 1), (2, 1), (3, 0), (4, 2, 2),
                                        (3, 2, 1)])
    def test_weight_difference_counts_collapse_the_character(self, blocks, space):
        # one line per degree, halved when every block has the parity of the
        # largest, against the (t1, t2, z) character collapsed to s = a - b
        spec = ModuleSpec(blocks)
        top = 6 * max(blocks) + 2  # two beyond every weight difference
        expected = [[0] * (2 * top + 1) for _ in range(7)]
        for (a, b, n), c in weight_character(spec, 6, space).coefficients.items():
            expected[n][a - b + top] += c
        assert weight_difference_counts(spec, 6, space, range(-top, top + 1)) == expected

    def test_unknown_space(self):
        with pytest.raises(ValueError, match="unknown space"):
            weight_slices([0], 3, "ideal")


class TestDivision:
    @given(st.dictionaries(st.tuples(st.integers(0, 4), st.integers(0, 4)), st.integers(-3, 3)))
    def test_division_inverts_multiplication_by_t1_minus_t2(self, table):
        quotient = {(a, b, 0): Fraction(c) for (a, b), c in table.items() if c}
        product: dict = {}
        for (a, b, n), c in quotient.items():
            product[(a + 1, b, n)] = product.get((a + 1, b, n), 0) + c
            product[(a, b + 1, n)] = product.get((a, b + 1, n), 0) - c
        product = {key: c for key, c in product.items() if c}
        assert tuple_divide_by_t1_minus_t2(product) == quotient
        # a multiple of t1 - t2 vanishes at t1 = t2; adding t1 breaks that
        product[(1, 0, 0)] = product.get((1, 0, 0), 0) + 1
        assert tuple_divide_by_t1_minus_t2(product) is None
