"""The checks of `verify_catalog` catch a corrupted catalog, and the series
routines on lines, span rows, closed-form brackets and cached sl2 operators
agree with the routes they replace."""

from fractions import Fraction
from itertools import product

import hypothesis.strategies as st
import pytest
from hypothesis import given

from metalie import invariants, linalg, sl2
from metalie.invariants import _ring_monomial_table, load_catalog, verify_catalog
from metalie.metabelian import (CommutatorWord, ContextMismatch, LieContext, NotInCommutatorIdeal,
                                parse_lie_expr)
from metalie.poly import Poly
from metalie.series import (NotACharacter, decompose_slice, invariant_dimension_series,
                            symmetrizes_to, weight_character, weight_slices)
from metalie.sl2 import ModuleSpec, derivations, g1_matrix, g2_matrix
from helpers import (decompose_character, lines_of, replace_case, schur_multiplicities,
                     slices_by)
from oracles import (bracket_chain, schur_function, tuple_decompose_character,
                     tuple_symmetrizes)
from strategies import slice_tables

CATALOG = load_catalog()


def failures(case, truncation=8):
    return {check.name for check in verify_catalog(case, truncation).failures()}


class TestCorruptedCatalog:
    def test_the_catalog_itself_passes(self):
        for case in CATALOG.values():
            assert failures(case) == set(), case.case_id

    def test_wrong_module_series(self):
        case = replace_case(CATALOG["v"], module_series_text=
                                   "(z^2 + z^3 + z^4)/((1-z^2)*(1-z^3))")
        assert failures(case) == {"module-series-matches"}

    def test_wrong_ring_series(self):
        case = replace_case(CATALOG["v"], ring_series_text="1/((1-z^2)*(1-z^4))")
        assert failures(case) == {"ring-series-matches"}

    def test_non_invariant_module_generator(self):
        texts = ("[x4,x1]",) + CATALOG["iii"].module_generator_texts[1:]
        case = replace_case(CATALOG["iii"], module_generator_texts=texts)
        assert "module-generators-invariant" in failures(case)

    def test_invariance_is_decided_without_substitution(self, monkeypatch):
        def refuse(self, obj):
            raise AssertionError("substitution by g1 or g2 on the catalog path")

        monkeypatch.setattr(sl2.LinearAction, "act", refuse)
        for case in CATALOG.values():
            assert failures(case) == set(), case.case_id

    def test_perturbed_relation(self):
        texts = (CATALOG["vi"].relation_texts[0] + " + v1*f1^2",)
        case = replace_case(CATALOG["vi"], relation_texts=texts)
        assert failures(case) == {"relations-vanish"}

    def test_dropped_ring_generator(self):
        case = replace_case(CATALOG["v"], ring_generator_texts=
                                   CATALOG["v"].ring_generator_texts[:1])
        assert "ring-generators-span" in failures(case)

    def test_dropped_module_generator(self):
        case = replace_case(CATALOG["iii"], module_generator_texts=
                                   CATALOG["iii"].module_generator_texts[1:])
        assert failures(case) == {"module-generators-span"}

    def test_wrong_multiplicity(self, monkeypatch):
        def decompose_slice_plus_one(row, degree=None):
            found = decompose_slice(row, degree)
            if degree == 4 and found:
                found[max(found)][-1] += 1  # m at the top weight (t, 0) of the top line
            return found

        monkeypatch.setattr(invariants, "decompose_slice", decompose_slice_plus_one)
        assert "symmetrization-identity" in failures(CATALOG["v"])

    def test_module_generator_outside_the_commutator_ideal(self):
        case = replace_case(CATALOG["iii"], module_generator_texts=("[x2,x1]", "x1"))
        with pytest.raises(NotInCommutatorIdeal):
            verify_catalog(case, 4)


# -- slices of lines against the tuple-keyed routes ---------------------------------


def outcome(decompose, table):
    try:
        return decompose(table)
    except NotACharacter:
        return "not a character"


schur_sums = st.lists(st.tuples(st.integers(0, 6), st.integers(0, 3), st.integers(1, 3)),
                      max_size=5)


def character_of(terms):
    table = {}
    for k, l, m in terms:
        for key, v in schur_function(k, l).items():
            table[key] = table.get(key, 0) + m * v
    return table


def multiplicities_of(terms):
    out = {}
    for k, l, m in terms:
        out[(k, l)] = out.get((k, l), 0) + m
    return out


def in_degree_zero(table):
    return {(a, b, 0): c for (a, b), c in table.items()}


def tops(multiplicities):
    """{(k, l): m} as the table {(k + l, l): m} of top weights."""
    return {(k + l, l): m for (k, l), m in multiplicities.items()}


class TestPackedAgainstTuples:
    """The slices of lines, once packed keys, against the tables keyed by
    exponent tuples."""

    @pytest.mark.parametrize("space", ["module", "polyring"])
    @pytest.mark.parametrize("case_id", sorted(CATALOG))
    def test_catalog_slices_to_degree_16(self, case_id, space):
        spec = CATALOG[case_id].spec
        character = weight_character(spec, 16, space)
        by_degree = slices_by(character, "z")
        multiplicities = {}
        for n, row in enumerate(weight_slices(spec.weights(), 16, space)):
            found = decompose_slice(row, n)
            expected = tuple_decompose_character(by_degree.get(n, {}))
            assert schur_multiplicities(found) == expected, n
            assert symmetrizes_to(found, row), n
            multiplicities.update({(k + l, l, n): m for (k, l), m in expected.items()})
        assert tuple_symmetrizes(multiplicities, character.coefficients)

    @pytest.mark.parametrize("case_id", sorted(CATALOG))
    def test_report_sizes_at_degree_12(self, case_id):
        # the series checks count the nonzero character cells, the
        # symmetrization the nonzero multiplicities: no zero of a line
        spec = CATALOG[case_id].spec
        sizes = {check.name: check.size for check in verify_catalog(CATALOG[case_id], 12).checks}
        cells, multiplicities = {}, 0
        for space in ("module", "polyring"):
            character = weight_character(spec, 12, space)
            cells[space] = len(character.coefficients)
            multiplicities += sum(len(tuple_decompose_character(table))
                                  for table in slices_by(character, "z").values())
        assert sizes["module-series-matches"] == cells["module"]
        assert sizes["ring-series-matches"] == cells["polyring"]
        assert sizes["symmetrization-identity"] == multiplicities

    @given(schur_sums)
    def test_sums_of_schur_characters(self, terms):
        table, expected = character_of(terms), multiplicities_of(terms)
        assert decompose_character(table) == tuple_decompose_character(table) == expected
        found = decompose_slice(lines_of(table))
        assert schur_multiplicities(found) == expected
        assert symmetrizes_to(found, lines_of(table))
        assert tuple_symmetrizes(in_degree_zero(tops(expected)), in_degree_zero(table))

    @given(schur_sums, st.sampled_from(["asymmetric", "negative", "off by one"]), st.data())
    def test_perturbed_slices_fail_the_symmetrization(self, terms, how, data):
        table, multiplicities = character_of(terms), multiplicities_of(terms)
        bad = dict(table)
        if how == "asymmetric":
            a, b = data.draw(st.tuples(st.integers(0, 12), st.integers(0, 12))
                             .filter(lambda w: w[0] != w[1]))
            bad[(a, b)] = bad.get((a, b), 0) + 1
        elif how == "negative":
            k, l = data.draw(st.tuples(st.integers(0, 6), st.integers(0, 3)))
            for key, v in schur_function(k, l).items():
                bad[key] = bad.get(key, 0) - (multiplicities.get((k, l), 0) + 1) * v
        else:
            key = data.draw(st.sampled_from(sorted(table))) if table else (0, 0)
            bad[key] = bad.get(key, 0) + data.draw(st.sampled_from([-1, 1]))
        result = outcome(decompose_character, bad)
        assert result == outcome(tuple_decompose_character, bad)
        if how != "off by one":
            assert result == "not a character"
        assert not symmetrizes_to(lines_of(tops(multiplicities)), lines_of(bad))
        assert not tuple_symmetrizes(in_degree_zero(tops(multiplicities)), in_degree_zero(bad))


class TestHalfTableAgainstFullTable:
    """`decompose_slice` differences neighbours on each line and
    `symmetrizes_to` multiplies back; the tuple-keyed oracles read every cell
    against its mirror and divide."""

    @given(slice_tables())
    def test_decompose_slice(self, row):
        assert outcome(decompose_character, row) == outcome(tuple_decompose_character, row)

    def test_the_two_messages_and_integral_fractions(self):
        with pytest.raises(NotACharacter, match=r"^degree 3 slice: weight table is not "
                                                r"symmetric under t1 <-> t2$"):
            decompose_slice({2: [1, 0, 2]}, 3)
        with pytest.raises(NotACharacter, match=r"^degree 3 slice: multiplicity -1 at "
                                                r"weight \(1, 1\)$"):
            decompose_slice({2: [1, 0, 1]}, 3)
        with pytest.raises(NotACharacter, match=r"^multiplicity 1/2 at weight \(1, 0\)$"):
            decompose_slice({1: [Fraction(1, 2), Fraction(1, 2)]})
        found = decompose_slice({0: [Fraction(2)], 2: [1, 1, 1]})
        assert found == {0: [2], 2: [0, 0, 1]} and type(found[0][0]) is int

    @given(slice_tables(), slice_tables(), st.booleans(), st.data())
    def test_symmetrizes_to(self, table, other, perturb, data):
        row = {key: c for key, c in table.items() if c}
        try:
            multiplicities = tops(tuple_decompose_character(row))  # they rebuild the row
        except NotACharacter:
            multiplicities = {key: c for key, c in other.items() if c}
        if perturb:
            target = data.draw(st.sampled_from([row, multiplicities]))
            key = data.draw(st.sampled_from(sorted(target))) if target else (0, 0)
            target[key] = target.get(key, 0) + data.draw(st.sampled_from([-1, 1, Fraction(1, 2)]))
            if not target[key]:
                del target[key]
        assert symmetrizes_to(lines_of(multiplicities), lines_of(row)) == \
            tuple_symmetrizes(in_degree_zero(multiplicities), in_degree_zero(row))


# -- span rows on the section, against the module action ------------------------


def record_ranks(monkeypatch):
    """The row lists handed to `linalg.rank`, in call order."""
    calls = []
    real_rank = linalg.rank

    def rank(rows):
        calls.append(rows)
        return real_rank(rows)

    monkeypatch.setattr(linalg, "rank", rank)
    return calls


def full_rows(case, degree):
    """The unrestricted ring rows of degrees 0..degree and module rows of
    degrees 2..degree, as `Poly` lists."""
    gens, ring = case.module_generators, case.ring_generators
    products = _ring_monomial_table(ring, degree)
    module = [[v.ad_action(p).poly for v in gens if v.total_degree() <= n
               for p in products[n - v.total_degree()]] for n in range(2, degree + 1)]
    return products, module


def terms(polys, zero=None):
    return [p.substitute(zero or {}).terms for p in polys]


def masked(report):
    out = report.to_json()
    for check in out["checks"]:
        check.pop("elapsed")
    return out


class TestSpanRows:
    @pytest.mark.parametrize("case_id", sorted(CATALOG))
    def test_rows_equal_the_module_action_rows(self, case_id, monkeypatch):
        # the rows ranked are rho of the full ring and module products, rho
        # setting the section's variables to 0; no degree falls back
        calls = record_ranks(monkeypatch)
        case = CATALOG[case_id]
        assert verify_catalog(case, 12).passed
        zero = dict.fromkeys(invariants._section(case.spec), Poly.zero())
        assert zero
        products, module = full_rows(case, 12)
        assert len(calls) == 13 + 11
        assert all(type(rows) is list for rows in calls)
        for n, rows in enumerate(calls[:13]):
            assert rows == terms(products[n], zero), n
        for n, rows in enumerate(calls[13:], start=2):
            assert rows == terms(module[n - 2], zero), n

    @pytest.mark.parametrize("case_id", sorted(CATALOG))
    def test_sliced_rank_equals_the_full_rank_to_degree_16(self, case_id):
        case = CATALOG[case_id]
        zero = dict.fromkeys(invariants._section(case.spec), Poly.zero())
        products, module = full_rows(case, 16)
        for space, families, low in (("polyring", products, 0), ("module", module, 2)):
            dims = invariant_dimension_series(case.spec, 16, space)
            for n, rows in enumerate(families, start=low):
                full = linalg.rank(terms(rows))
                assert linalg.rank(terms(rows, zero)) == full == dims.coefficient((n,)), \
                    (space, n)

    def test_no_section_falls_short_to_degree_24(self, monkeypatch):
        calls = record_ranks(monkeypatch)
        for case_id, case in CATALOG.items():
            calls.clear()
            assert verify_catalog(case, 24).passed, case_id
            assert len(calls) == 25 + 23, case_id

    @pytest.mark.parametrize("text, zeros", [
        ("2", ("x1", "x3")), ("1,1", ("x1", "x4")), ("2,2", ("x1", "x6")),
        ("1,0", ("x1",)), ("1", ("x1",)), ("0,0", ()),
        ("0,1,0,2", ("x2", "x7")), ("0,1", ("x2",))])
    def test_section_rule(self, text, zeros):
        # xi_0 of the first moving block and xi_k of the last; xi_0 alone
        # for a single V_1; nothing when no block moves
        assert invariants._section(ModuleSpec.parse(text)) == zeros


class TestSpanFallback:
    def test_non_invariant_generator_ranks_the_full_rows_only(self, monkeypatch):
        texts = ("[x4,x1]",) + CATALOG["iii"].module_generator_texts[1:]
        case = replace_case(CATALOG["iii"], module_generator_texts=texts)
        calls = record_ranks(monkeypatch)
        report = verify_catalog(case, 12)
        assert [c.name for c in report.failures()] == ["module-generators-invariant"]
        products, module = full_rows(case, 12)
        assert calls == [terms(row) for row in products] + [terms(rows) for rows in module]

    def test_a_section_that_loses_rank_ranks_the_full_rows(self, monkeypatch):
        case = CATALOG["iii"]
        expected = masked(verify_catalog(case, 12))
        # both coordinates of the first V_1 of 1,1: the rank falls short
        monkeypatch.setattr(invariants, "_section", lambda spec: ("x1", "x2"))
        calls = record_ranks(monkeypatch)
        assert masked(verify_catalog(case, 12)) == expected
        products, module = full_rows(case, 12)
        assert len(calls) > 13 + 11
        for rows in [terms(row) for row in products] + [terms(rows) for rows in module]:
            assert rows in calls


# -- brackets of generators and the sl2 operators -----------------------------------


class TestClosedFormBrackets:
    def test_every_word_of_length_up_to_four_in_rank_three(self):
        ctx = LieContext(3)
        for length in (2, 3, 4):
            for indices in product(range(1, 4), repeat=length):
                value = parse_lie_expr(str(CommutatorWord(indices))).evaluate(ctx)
                assert value == bracket_chain(CommutatorWord(indices), ctx), indices

    def test_an_index_above_the_rank_is_unbound(self):
        with pytest.raises(ContextMismatch, match="generator x5 unbound in rank 4"):
            parse_lie_expr("[x2,x5,x1]").evaluate(LieContext(4))


class TestOperatorCache:
    def test_operators_are_built_once_per_spec(self):
        spec = ModuleSpec((2, 1))
        assert g1_matrix(spec) is g1_matrix(ModuleSpec((2, 1)))
        assert g2_matrix(spec) is g2_matrix(spec)
        assert derivations(spec) is derivations(spec)
        assert g1_matrix(spec).column_image("x", 3) is g1_matrix(spec).column_image("x", 3)

    def test_cached_column_images_are_per_letter(self):
        g = g1_matrix(ModuleSpec((2,)))
        assert str(g.column_image("x", 3)) == "x1 + 2*x2 + x3"
        assert str(g.column_image("a", 3)) == "a1 + 2*a2 + a3"
