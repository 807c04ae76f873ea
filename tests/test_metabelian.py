"""Wreath envelope arithmetic, the Poisson axioms, and the word basis."""

import operator
import random
import re
from fractions import Fraction
from functools import reduce
from itertools import islice, product
from unittest import mock

import hypothesis.strategies as st
import pytest
from hypothesis import example, given

import strategies as strat
from metalie import poly
from metalie.invariants import infinite_family_witness, pi
from metalie.linalg import solve_unique
from metalie.metabelian import (
    CommutatorWord,
    ContextMismatch,
    LieContext,
    NotInCommutatorIdeal,
    WreathElement,
    format_commutator_expansion,
    from_commutator_basis,
    lie_normal_form,
    parse_lie_expr,
    to_commutator_basis,
    words_of_multidegree,
)
from metalie.poly import ParseError, Poly, decode, var_key
from metalie.sl2 import ModuleSpec
from helpers import counted_products, monomial_element
from oracles import bracket_by_split, bracket_chain, words_of_degree


def wreath(ctx, text):
    return parse_lie_expr(text).evaluate(ctx)


def solve_in_word_basis(u):
    """Oracle for `to_commutator_basis`: split u by multidegree and solve, in
    each, for the coefficients of the normal words evaluated as bracket
    chains (the closed form of `to_wreath` is the identity the read-off
    inverts, so it cannot serve here)."""
    components = {}
    for m, c in u.poly.terms.items():
        multidegree = [0] * u.ctx.dim
        for v, e in decode(m):
            multidegree[var_key(v)[1] - 1] += e
        components.setdefault(tuple(multidegree), {})[m] = c
    expansion = []
    for multidegree, target in components.items():
        words = words_of_multidegree(multidegree)
        columns = [bracket_chain(w, u.ctx).poly.terms for w in words]
        coeffs = solve_unique(columns, target)
        expansion.extend((c, w) for c, w in zip(coeffs, words) if c)
    expansion.sort(key=lambda item: item[1].sort_key())
    return expansion


class TestGenerators:
    def test_generator_form(self):
        ctx = LieContext(2)
        assert ctx.generator(1) == WreathElement(ctx, Poly.parse("a1 + x1"))

    def test_generator_prints_in_y(self):
        assert str(LieContext(3).generator(1)) == "a1 + y1"
        assert repr(LieContext(3).generator(1)) == "WreathElement(d=3, a1 + y1)"

    def test_index_validation(self):
        ctx = LieContext(3)
        with pytest.raises(IndexError):
            ctx.generator(0)
        with pytest.raises(IndexError):
            ctx.generator(4)
        assert ctx.generator(3).poly == Poly.parse("a3 + x3")

    def test_negative_power_is_refused(self):
        x1 = LieContext(2).generator(1)
        with pytest.raises(ValueError, match="negative power"):
            x1 ** -2
        assert str(x1 ** 0) == "1"

    def test_context_mixing_rejected(self):
        u = LieContext(2).generator(1)
        v = LieContext(3).generator(1)
        with pytest.raises(ContextMismatch):
            u + v


class TestBracket:
    def test_basic_commutator(self):
        ctx = LieContext(2)
        value = ctx.generator(2).bracket(ctx.generator(1))
        assert value == WreathElement(ctx, Poly.parse("a2*x1 - a1*x2"))

    @given(u=strat.envelope_elements())
    def test_skew_symmetry(self, u):
        assert u.bracket(u).is_zero()

    def test_metabelian_identity(self):
        ctx = LieContext(3)
        u = wreath(ctx, "[x2,x1]")
        v = wreath(ctx, "[x3,x1]")
        assert u.bracket(v).is_zero()

    @given(u1=strat.envelope_basis_elements(), u2=strat.envelope_basis_elements(),
           u3=strat.envelope_basis_elements())
    def test_jacobi_identity(self, u1, u2, u3):
        total = (u1.bracket(u2).bracket(u3)
                 + u2.bracket(u3).bracket(u1)
                 + u3.bracket(u1).bracket(u2))
        assert total.is_zero()

    @given(u1=strat.envelope_basis_elements(), u2=strat.envelope_basis_elements(),
           u3=strat.envelope_basis_elements())
    def test_leibniz_rule(self, u1, u2, u3):
        lhs = u1.bracket(u2 * u3)
        rhs = u1.bracket(u2) * u3 + u2 * u1.bracket(u3)
        assert lhs == rhs

    @given(u=strat.envelope_elements(), v=strat.envelope_elements(),
           w=strat.envelope_elements())
    def test_bilinearity(self, u, v, w):
        assert (u + v).bracket(w) == u.bracket(w) + v.bracket(w)

    @given(u=strat.envelope_elements(), v=strat.envelope_elements())
    @example(u=LieContext(3).zero(), v=LieContext(3).generator(1))
    @example(u=LieContext(3).generator(2), v=LieContext(3).generator(1))
    @example(u=LieContext(3).generator(1),    # mixed degrees, a y-part of degree 0 included
             v=WreathElement(LieContext(3), Poly.parse("3 + x1*x2^2 - x3 + a2*x1 + 2*a3")))
    def test_the_kernel_agrees_with_the_split_route(self, u, v):
        assert u.bracket(v) == bracket_by_split(u, v)

    @given(u=strat.envelope_elements(), v=strat.envelope_elements())
    @example(u=LieContext(3).zero(), v=LieContext(3).generator(1))
    @example(u=WreathElement(LieContext(3), Poly.parse("x1^2 + a1*x2 - a3")),
             v=WreathElement(LieContext(3), Poly.parse("7 + x2*x3^3 + a2*x1^2")))
    def test_the_stated_total_is_the_pairs_the_products_take(self, u, v):
        with mock.patch.object(poly, "MAX_TERM_PAIRS", -1):    # refuse, stating the total
            with pytest.raises(ParseError) as refusal:
                u.bracket(v)
        stated = int(re.fullmatch(r"bracket needs up to (\d+) term pairs, over the budget of -1",
                                  str(refusal.value))[1])
        with counted_products() as pairs:
            u.bracket(v)
        assert sum(pairs) == stated and 0 not in pairs

    def test_a_nested_bracket_is_refused_at_its_position(self, monkeypatch):
        monkeypatch.setattr(poly, "MAX_TERM_PAIRS", 3)    # [x1, ...] needs 2 * 2 pairs
        with pytest.raises(ParseError, match="^bracket at position 2 needs up to 4 term pairs"):
            wreath(LieContext(3), "2*[x1, [x3,x2] + [x2,x1]]")

    def test_commutator_ideal_is_abelian(self):
        ctx = LieContext(4)
        u = wreath(ctx, "[x2,x1].(x3*x4)")
        v = wreath(ctx, "[x4,x3,x3]")
        assert u.bracket(v).is_zero()

    @given(combination1=strat.commutator_combinations(),
           combination2=strat.commutator_combinations())
    def test_metabelian_law_on_random_ideal_elements(self, combination1, combination2):
        (ctx, picks1), (_, picks2) = combination1, combination2
        u = from_commutator_basis(ctx, [(c, w) for w, c in picks1])
        v = from_commutator_basis(ctx, [(c, w) for w, c in picks2])
        assert u.bracket(v).is_zero()


class TestAdAction:
    def test_single_step(self):
        ctx = LieContext(3)
        u = wreath(ctx, "[x2,x1]")
        expected = WreathElement(ctx, Poly.parse("(a2*x1 - a1*x2)*x3"))
        assert u.ad_action(Poly.variable("x3")) == expected

    def test_identity_action(self):
        ctx = LieContext(2)
        u = wreath(ctx, "[x2,x1]")
        assert u.ad_action(Poly.one()) == u

    def test_module_axiom(self):
        ctx = LieContext(2)
        u = wreath(ctx, "[x2,x1]")
        x1 = Poly.variable("x1")
        assert u.ad_action(x1).ad_action(x1) == u.ad_action(x1 ** 2)

    def test_requires_commutator_ideal(self):
        ctx = LieContext(2)
        x1 = ctx.generator(1)
        for _ in range(2):  # the decided membership is kept, and still refuses
            with pytest.raises(NotInCommutatorIdeal):
                x1.ad_action(Poly.variable("x2"))

    @given(strat.commutator_combinations(min_dim=2, max_dim=4),
           strat.polys(variables=("x1", "x2"), max_degree=3))
    def test_result_membership_agrees_with_a_fresh_element(self, combination, p):
        ctx, picks = combination
        u = from_commutator_basis(ctx, [(c, w) for w, c in picks])
        result = u.ad_action(p)
        fresh = WreathElement(ctx, result.poly)
        assert result.is_in_commutator_ideal() is fresh.is_in_commutator_ideal() is True
        for outside in (ctx.generator(1), monomial_element(ctx, None, [2] + [0] * (ctx.dim - 1))):
            assert (result + outside).is_in_commutator_ideal() is False

    def test_variable_outside_the_rank_is_refused(self):
        ctx = LieContext(2)
        u = wreath(ctx, "[x2,x1]")
        for name in ("x3", "y1", "x0"):
            with pytest.raises(ContextMismatch, match=name):
                u.ad_action(Poly.variable(name))

    def test_permuted_tail_is_equal(self):
        rng = random.Random(7)
        ctx = LieContext(4)
        for _ in range(25):
            length = rng.randint(3, 6)
            j2 = rng.randint(1, 3)
            j1 = rng.randint(j2 + 1, 4)
            indices = [j1, j2] + [rng.randint(1, 4) for _ in range(length - 2)]
            word = CommutatorWord(tuple(indices))
            tail = indices[2:]
            rng.shuffle(tail)
            permuted = CommutatorWord(tuple(indices[:2] + tail))
            assert word.to_wreath(ctx) == permuted.to_wreath(ctx)


class TestClosedFormWords:
    def test_every_short_word_matches_the_bracket_chain(self):
        ctx = LieContext(4)
        words = [CommutatorWord(ix) for k in range(2, 6) for ix in product(range(1, 5), repeat=k)]
        assert len(words) == 1360
        for w in words:
            assert w.to_wreath(ctx) == bracket_chain(w, ctx), w

    def test_every_normal_word_to_degree_seven_matches_the_bracket_chain(self):
        ctx = LieContext(5)
        words = [w for n in range(2, 8) for w in words_of_degree(5, n)]
        assert len(words) == 1519
        for w in words:
            assert w.to_wreath(ctx) == bracket_chain(w, ctx), w

    def test_repeated_head_is_zero(self):
        assert CommutatorWord((2, 2, 1)).to_wreath(LieContext(2)).is_zero()

    def test_index_above_the_rank_is_refused(self):
        with pytest.raises(ContextMismatch, match="outside rank 3"):
            CommutatorWord((4, 1)).to_wreath(LieContext(3))
        with pytest.raises(ContextMismatch):
            from_commutator_basis(LieContext(3), [(1, CommutatorWord((2, 1, 5)))])

    def test_no_bracket_is_computed(self, monkeypatch):
        ctx = LieContext(4)
        terms = [(Fraction(3, 2), CommutatorWord((3, 1, 2))), (-2, CommutatorWord((4, 2, 2))),
                 (Fraction(4, 2), CommutatorWord((2, 1)))]
        expected = ctx.zero()
        for c, w in terms:
            expected = expected + c * bracket_chain(w, ctx)

        def refuse(self, other):
            raise AssertionError("bracket called")

        monkeypatch.setattr(WreathElement, "bracket", refuse)
        u = from_commutator_basis(ctx, terms)
        assert u == expected
        assert all(type(c) is int or c.denominator > 1 for c in u.poly.terms.values())


class TestMembership:
    def test_image_of_bracket(self):
        ctx = LieContext(2)
        u = WreathElement(ctx, Poly.parse("a1*x2 - a2*x1"))
        assert u.is_in_commutator_ideal()

    def test_bare_a_is_not_lie(self):
        ctx = LieContext(2)
        u = WreathElement(ctx, Poly.parse("a1"))
        assert not u.is_in_commutator_ideal()
        assert u.lie_parts() is None

    def test_zero_is_in_ideal(self):
        assert LieContext(2).zero().is_in_commutator_ideal()

    def test_generator_is_lie_but_not_in_ideal(self):
        ctx = LieContext(2)
        x1 = ctx.generator(1)
        assert x1.lie_parts() is not None
        assert not x1.is_in_commutator_ideal()


class TestWordBasis:
    def test_single_word_multidegree(self):
        words = words_of_multidegree((1, 1))
        assert [w.indices for w in words] == [(2, 1)]
        words = words_of_multidegree((2, 1))
        assert [w.indices for w in words] == [(2, 1, 1)]

    def test_count_is_support_minus_one(self):
        assert len(words_of_multidegree((1, 1, 1))) == 2
        assert len(words_of_multidegree((3, 0, 0))) == 0
        assert len(words_of_multidegree((2, 2, 1, 1))) == 3

    def test_normal_form_flags(self):
        assert CommutatorWord((2, 1, 1)).is_normal()
        assert not CommutatorWord((1, 2)).is_normal()
        assert not CommutatorWord((4, 3, 1)).is_normal()
        with pytest.raises(ValueError):
            CommutatorWord((2,))

    def test_words_of_degree_are_independent(self):
        ctx = LieContext(3)
        for n in (2, 3, 4):
            words = words_of_degree(3, n)
            images = [w.to_wreath(ctx) for w in words]
            from metalie.linalg import rank
            assert rank([u.poly.terms for u in images]) == len(words)

    def test_basis_round_trip_simple(self):
        ctx = LieContext(2)
        u = wreath(ctx, "[x2,x1]")
        assert to_commutator_basis(u) == [(Fraction(1), CommutatorWord((2, 1)))]
        u = wreath(ctx, "[x2,x1,x1]")
        assert to_commutator_basis(u) == [(Fraction(1), CommutatorWord((2, 1, 1)))]

    @given(combination=strat.commutator_combinations(min_dim=2, max_dim=5))
    def test_basis_round_trip_random(self, combination):
        ctx, picks = combination
        combined = {}
        for word, coeff in picks:
            combined[word] = combined.get(word, Fraction(0)) + coeff
        combined = {w: c for w, c in combined.items() if c}
        u = from_commutator_basis(ctx, [(c, w) for w, c in combined.items()])
        recovered = dict()
        for c, w in to_commutator_basis(u):
            recovered[w] = c
        assert recovered == combined

    def test_non_member_rejected(self):
        ctx = LieContext(2)
        with pytest.raises(NotInCommutatorIdeal):
            to_commutator_basis(WreathElement(ctx, Poly.parse("a1*x1")))

    @pytest.mark.parametrize("blocks", [(1, 1), (2, 0), (2, 1), (2, 2), (3,), (4,)])
    def test_read_off_matches_the_linear_solve_on_witnesses(self, blocks):
        family = infinite_family_witness(ModuleSpec(blocks))
        for u in islice(family, 4):
            assert to_commutator_basis(u) == solve_in_word_basis(u)

    @pytest.mark.parametrize("dim,f1,f2", [
        (4, "x4", "x2^2 - x1*x3"),
        (5, "x1*x5 - 4*x2*x4 + 3*x3^2",
         "-x1*x3*x5 - 2*x2*x3*x4 + x3^3 + x1*x4^2 + x2^2*x5"),
        (3, "x1^2 + x2*x3", "x3^3 - x1*x2^2"),
        (5, "x5*x1 + x4^2", "x2^2*x3 - x5^3"),
    ])
    def test_read_off_matches_the_linear_solve_on_pi_images(self, dim, f1, f2):
        u = pi(Poly.parse(f1), Poly.parse(f2), LieContext(dim))
        assert not u.is_zero()
        assert to_commutator_basis(u) == solve_in_word_basis(u)

    def test_pi_image_expansion(self):
        # pi(x4, x2^2 - x1 x3) in normal form; the left-normed rewrite of
        # 2[x4,x2,x2] - [x4,x1,x3] - [x4,x3,x1]
        ctx = LieContext(4)
        value = pi(Poly.variable("x4"), Poly.parse("x2^2 - x1*x3"), ctx)
        assert value == wreath(ctx, "2*[x4,x2,x2] - [x4,x1,x3] - [x4,x3,x1]")
        expansion = to_commutator_basis(value)
        assert format_commutator_expansion(expansion) == \
            "[x3,x1,x4] - 2[x4,x1,x3] + 2[x4,x2,x2]"


# Random Lie expressions as structures: ("gen", j), ("bracket", items),
# ("sum", items), ("scale", c, item) and ("act", item, p) for item * p(ad x).
# The module action mostly acts on brackets, which lie in the commutator ideal.
def _extend(children):
    brackets = st.lists(children, min_size=2, max_size=3).map(lambda items: ("bracket",
                                                                             tuple(items)))
    return st.one_of(
        brackets,
        st.lists(children, min_size=2, max_size=3).map(lambda items: ("sum", tuple(items))),
        st.tuples(st.just("scale"), strat.rationals, children),
        st.tuples(st.just("act"), brackets | children,
                  strat.polys(("x1", "x2", "x3", "x4"), max_degree=2, max_terms=2)))


lie_structures = st.recursive(st.integers(1, 4).map(lambda j: ("gen", j)), _extend,
                              max_leaves=6)


def render(node):
    kind = node[0]
    if kind == "gen":
        return f"x{node[1]}"
    if kind == "bracket":
        return "[" + ",".join(map(render, node[1])) + "]"
    if kind == "sum":
        return " + ".join(f"({render(item)})" for item in node[1])
    if kind == "scale":
        return f"{node[1]}*({render(node[2])})"
    return f"({render(node[1])}).({node[2]})"


def build(node, ctx):
    """The element of a structure, from the envelope operations alone."""
    kind = node[0]
    if kind == "gen":
        return ctx.generator(node[1])
    if kind == "bracket":
        return reduce(WreathElement.bracket, (build(item, ctx) for item in node[1]))
    if kind == "sum":
        return reduce(operator.add, (build(item, ctx) for item in node[1]))
    if kind == "scale":
        return node[1] * build(node[2], ctx)
    return build(node[1], ctx).ad_action(node[2])


def outcome(evaluate):
    try:
        return evaluate()
    except NotInCommutatorIdeal as exc:
        return repr(exc)


class TestLieExpressions:
    def test_eval_bracket(self):
        ctx = LieContext(2)
        assert parse_lie_expr("[x2,x1]").evaluate(ctx) == \
            WreathElement(ctx, Poly.parse("a2*x1 - a1*x2"))

    def test_skew_cancellation(self):
        ctx = LieContext(2)
        assert wreath(ctx, "[x1,x2] + [x2,x1]").is_zero()

    def test_degree_two_invariant_of_paired_blocks(self):
        ctx = LieContext(6)
        u = wreath(ctx, "[x6,x1] - 2*[x5,x2] + [x4,x3]")
        v = wreath(ctx, "[x1,x6] - 2*[x2,x5] + [x3,x4]")
        assert u == -1 * v
        assert not u.is_zero()

    def test_unbound_generator(self):
        with pytest.raises(ContextMismatch):
            wreath(LieContext(2), "[x3,x1]")

    def test_nested_and_flat_brackets_agree(self):
        ctx = LieContext(3)
        assert wreath(ctx, "[[x2,x1],x3]") == wreath(ctx, "[x2,x1,x3]")

    def test_ad_action_grammar(self):
        ctx = LieContext(3)
        by_dot = wreath(ctx, "[x2,x1].(x3^2 - x1)")
        by_star = wreath(ctx, "[x2,x1]*x3^2 - [x2,x1]*x1")
        assert by_dot == by_star

    def test_scalar_grammar(self):
        ctx = LieContext(2)
        assert wreath(ctx, "3/2*[x2,x1]") == Fraction(3, 2) * wreath(ctx, "[x2,x1]")
        assert wreath(ctx, "2[x2,x1]") == 2 * wreath(ctx, "[x2,x1]")

    @pytest.mark.parametrize("text", ["[x1]", "[x1,", "x1+", "[x1,x2]]", "[y1,x2]"])
    def test_parse_errors(self, text):
        with pytest.raises(ParseError):
            parse_lie_expr(text)

    @pytest.mark.parametrize("text, message", [
        ("[x2,x1].", "unexpected end of input at position 8"),
        ("[x2,x1", "expected ']', found end of input at position 6"),
        ("", "unexpected end of input at position 0"),
    ])
    def test_end_of_input_is_named(self, text, message):
        with pytest.raises(ParseError, match=re.escape(message)):
            parse_lie_expr(text)

    def test_normal_form_printer_round_trip(self):
        ctx = LieContext(4)
        u = wreath(ctx, "x3 + 2*[x4,x2,x2] - [x4,x1,x3]")
        text = lie_normal_form(u)
        assert wreath(ctx, text) == u
        assert lie_normal_form(wreath(ctx, text)) == text

    def test_parsing_evaluates_nothing(self):
        module_action = parse_lie_expr("x1.(x2)")
        with pytest.raises(NotInCommutatorIdeal):
            module_action.evaluate(LieContext(2))
        unbound = parse_lie_expr("[x5,x1]")
        with pytest.raises(ContextMismatch, match="generator x5 unbound in rank 4"):
            unbound.evaluate(LieContext(4))

    def test_syntax_errors_come_before_evaluation_errors(self):
        with pytest.raises(ParseError, match="bracket at position 10 needs at least two"):
            parse_lie_expr("x1.(x2) + [x1]")

    @pytest.mark.parametrize("text, dim, message", [
        ("[x2,x1].x7", 5, "variable x7 is not one of x1..x5"),
        ("[x5,x6]", 4, "generator x5 unbound in rank 4"),
    ])
    def test_evaluation_errors_name_the_first_culprit(self, text, dim, message):
        with pytest.raises(ContextMismatch, match=re.escape(message)):
            parse_lie_expr(text).evaluate(LieContext(dim))

    @pytest.mark.parametrize("text, rank", [
        ("[x2,x1]", 2), ("[x2,x1].(x7^2 - x0)", 7), ("3/2*x4 - [x3,x1]*x2", 4)])
    def test_rank_counts_multipliers(self, text, rank):
        assert parse_lie_expr(text).rank == rank

    @given(lie_structures)
    def test_parsed_text_matches_direct_construction(self, node):
        text = render(node)
        expr = parse_lie_expr(text)
        rank = max(int(j) for j in re.findall(r"x(\d+)", text))
        assert expr.rank == rank
        for dim in (rank, rank + 1):
            ctx = LieContext(dim)
            assert outcome(lambda: expr.evaluate(ctx)) == outcome(lambda: build(node, ctx)), text

    def test_normal_form_rejects_non_lie_elements(self):
        ctx = LieContext(2)
        with pytest.raises(NotInCommutatorIdeal):
            lie_normal_form(WreathElement(ctx, Poly.parse("a1")))
        with pytest.raises(NotInCommutatorIdeal):
            lie_normal_form(WreathElement(ctx, Poly.parse("x1^2")))

    def test_linear_part_view(self):
        # x_j = a_j + y_j: the linear part comes off with its a_j
        ctx = LieContext(3)
        word = wreath(ctx, "[x2,x1]")
        linear, rest = (ctx.generator(2) - 3 * ctx.generator(3) + word).lie_parts()
        assert linear == {2: 1, 3: -3} and rest == word and rest._in_ideal
        assert WreathElement(ctx, Poly.parse("x1*x2")).lie_parts() is None
        assert WreathElement(ctx, Poly.parse("x1")).lie_parts() is None


class TestGrading:
    @given(u=strat.envelope_elements(), v=strat.envelope_elements())
    def test_product_is_commutative_and_truncates_a(self, u, v):
        assert u * v == v * u
        for m in (u * v).poly.terms:
            a_deg = sum(e for name, e in decode(m) if name.startswith("a"))
            assert a_deg <= 1
