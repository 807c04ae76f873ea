"""The text boundary against the routes it replaced (`oracles.stream_*`,
`oracles.split_to_commutator_basis`).

Valid texts come from a small grammar of polynomials and Lie expressions;
invalid ones are valid texts with one token dropped, swapped with its
neighbour or duplicated, raw strings over the parsers' alphabet, deep nesting
and `^` at its edges.  Each text goes through both routes, which must give the
same tokens, the same terms with the same coefficient types, the same `rank`
and element, or the same refusal: exception type and message, position
included.  Numbers stay short and exponents small, so that no coefficient
nears the interpreter's limit on digits, past which the new parser refuses
what the old one formed (`test_cli.TestRefusalTypes` covers that part).
"""

import re
from fractions import Fraction

import hypothesis.strategies as st
import pytest
from hypothesis import given

import strategies as strat
from metalie.invariants import infinite_family_witness, load_catalog, pi
from metalie.metabelian import (LieContext, format_commutator_expansion, from_commutator_basis,
                                parse_lie_expr, to_commutator_basis)
from metalie.poly import Poly, tokenize
from metalie.series import parse_rational_function
from metalie.sl2 import ModuleSpec
from oracles import (split_to_commutator_basis, stream_parse_lie_expr, stream_parse_poly,
                     stream_parse_rational_function, stream_tokenize)


def typed(terms):
    """Terms with each coefficient's type, so that 2 and Fraction(2) differ."""
    return {m: (type(c), c) for m, c in terms.items()}


def outcome(route, *args):
    """What a route gives: ("value", result) or (exception type, message)."""
    try:
        return "value", route(*args)
    except Exception as exc:    # the routes must agree on every refusal, whatever its type
        return type(exc).__name__, str(exc)


def same_poly(text):
    new, old = outcome(Poly.parse, text), outcome(stream_parse_poly, text)
    if new[0] == old[0] == "value":
        assert typed(new[1].terms) == typed(old[1].terms), text
        assert str(new[1]) == str(old[1])
    else:
        assert new == old, text


def evaluated(parse, text, rank_shift):
    expr = parse(text)
    return expr.rank, typed(expr.evaluate(LieContext(expr.rank + rank_shift)).poly.terms)


def same_lie(text):
    for rank_shift in (0, -1):    # in a rank one short, the top generator is unbound
        new = outcome(evaluated, parse_lie_expr, text, rank_shift)
        assert new == outcome(evaluated, stream_parse_lie_expr, text, rank_shift), text


def same_tokens(text):
    assert outcome(tokenize, text) == outcome(stream_tokenize, text), text


@st.composite
def joined(draw, parts, joiners):
    items = draw(parts)
    text = items[0]
    for item in items[1:]:
        text += draw(st.sampled_from(joiners)) + item
    return text


NUMBERS = st.integers(0, 12).map(str)
SCALARS = st.one_of(NUMBERS, st.tuples(NUMBERS, NUMBERS).map("/".join))
NAMES = st.sampled_from(["x1", "x2", "x3", "x10", "a2", "y1", "x", "z"])
POWERS = st.sampled_from(["", "", "^2", "^0", "^3", "**2", " ^ 1", "^4"])


def poly_texts(inner):
    atom = st.one_of(SCALARS, NAMES, inner.map(lambda t: f"({t})"))
    factor = st.tuples(atom, POWERS).map("".join)
    term = joined(st.lists(factor, min_size=1, max_size=3), ("*", " * ", " "))
    return st.tuples(st.sampled_from(["", "-", "+", "- "]),
                     joined(st.lists(term, min_size=1, max_size=3), (" + ", " - ", "+", "-"))
                     ).map("".join)


POLY_TEXTS = st.recursive(st.one_of(SCALARS, NAMES), poly_texts, max_leaves=6)

GENERATORS = st.sampled_from(["x1", "x2", "x3", "x4", "(x2)"])
MULTIPLIERS = st.sampled_from(["", "", ".x1", ".(x2^2)", "*x3", ".(x1 + 2*x2)", ".x1*x2",
                               ".(3/2)", ".0", ".x2^2.x1"])


def lie_texts(inner):
    entries = st.lists(st.one_of(GENERATORS, inner), min_size=2, max_size=3)
    bracket = joined(entries, (",", ", ")).map(lambda t: f"[{t}]")
    term = st.tuples(st.sampled_from(["", "", "2*", "3/2*", "2 ", "0*", "-1*"]), bracket,
                     MULTIPLIERS).map("".join)
    return st.tuples(st.sampled_from(["", "-"]),
                     joined(st.lists(term, min_size=1, max_size=3), (" + ", " - ", "-"))
                     ).map("".join)


LIE_TEXTS = st.recursive(st.sampled_from(["[x2,x1]", "[x3,x1,x1]", "[x1,x2]", "[x4,x2]"]),
                         lie_texts, max_leaves=5)


@st.composite
def mutated(draw, texts):
    """A valid text with one token dropped, swapped with the next or duplicated."""
    tokens = [tok for _, tok, _ in stream_tokenize(draw(texts))[:-1]]
    i = draw(st.integers(0, len(tokens) - 1))
    how = draw(st.sampled_from(["drop", "swap", "duplicate"]))
    if how == "drop":
        del tokens[i]
    elif how == "swap" and i + 1 < len(tokens):
        tokens[i], tokens[i + 1] = tokens[i + 1], tokens[i]
    else:
        tokens.insert(i, tokens[i])
    return " ".join(tokens)


def short_numbers(text):
    """No number over three digits and no exponent over two, so no coefficient
    nears the limit on digits."""
    return not re.search(r"\d{4}|(\^|\*\*)\s*\d{3}", text)


RAW = st.text(alphabet="x1203a+-*/^()[],. \t٣é", max_size=16).filter(short_numbers)

# `^` at its edges, nesting, and the exponent and digit rules
EDGES = ["x^", "x^^2", "^2", "x1^-1", "x1^ 2", "x1**2", "x1^99999", "x1^32767", "x1^32768",
         "2^0", "0^0", "(x1+x2)^0", "(x1 - x1)^3", "0*x1^20000*x1^20000",
         "x1^20000*x1^20000*0", "x1^20000*0*x1^20000", "(x1^20000)^2", "(2*x1^20000)^2",
         "(x1^16384*x2)^2", "x1^2^3", "(3/2)^3", "(1/2 x1)^2", "1/0", "1/(2)", "3/x1",
         "x01", "x00", "x0", "x٣", "x1٣", "a0b1", "x1x2", "2x1(x2+1)", "((x1)",
         "(" * 100 + "x1" + ")" * 100, "(" * 101 + "x1" + ")" * 101, "[" * 101, "x1 @ x2",
         "", " ", "-", "+x1", "-+x1", "--x1", "x1 -", "x1 +", "[x2,x1]", "[x2,x1]^2",
         "[x2,x1].", "[x2,x1].^2", "[x2,x1]*", "[x2,x1] [x1,x2]", "[x2]", "[x2,x1,]",
         "[x2,a1]", "[x0,x1]", "2/0*[x2,x1]", "2/*[x2,x1]", "[x2,x1].(x1", "-[x2,x1].x1 - x1",
         "[x2,x1].(x1+x2)^2*(x1 - x2)", "x1.x2", "[x2,x1].a1", "[[x2,x1],[x3,x1]]",
         "[x2,x1].(0*x1^20000*x1^20000)", "3 [x2, x1] . x1 ** 2",
         # a module action on a sum: in the ideal, outside it, or in it by cancellation
         "([x2,x1] - 2*[x3,x1]).x2", "(x1 + [x2,x1]).x2", "(x1 - x1 + [x2,x1]).x2"]


class TestParsing:
    @pytest.mark.parametrize("text", EDGES)
    def test_edge_texts(self, text):
        same_tokens(text)
        same_poly(text)
        same_lie(text)

    @given(POLY_TEXTS)
    def test_valid_polynomials(self, text):
        same_tokens(text)
        same_poly(text)

    @given(mutated(POLY_TEXTS))
    def test_mutated_polynomials(self, text):
        same_poly(text)

    @given(LIE_TEXTS)
    def test_valid_lie_expressions(self, text):
        same_tokens(text)
        same_lie(text)

    @given(mutated(LIE_TEXTS))
    def test_mutated_lie_expressions(self, text):
        same_lie(text)

    @given(RAW)
    def test_raw_strings(self, text):
        same_tokens(text)
        same_poly(text)
        same_lie(text)

    @given(st.one_of(POLY_TEXTS, mutated(POLY_TEXTS)),
           st.lists(st.tuples(POLY_TEXTS, st.sampled_from(["", "^2", "^0"])), max_size=3),
           st.sampled_from(["*", "", " ", "*)"]))
    def test_rational_functions(self, numerator, factors, joiner):
        text = numerator + ("/" + joiner.join(f"({f}){e}" for f, e in factors)
                            if factors or joiner == "*)" else "")
        new = outcome(parse_rational_function, text)
        old = outcome(stream_parse_rational_function, text)
        if new[0] == old[0] == "value":
            assert [typed(p.terms) for p in (new[1][0], *new[1][1])] \
                == [typed(p.terms) for p in (old[1][0], *old[1][1])], text
        else:
            assert new == old, text

    def test_catalog_texts(self):
        for case in load_catalog().values():
            ctx = case.spec.context()
            for text in case.module_generator_texts:
                same_lie(text)
                new, old = (parse(text).evaluate(ctx) for parse in (parse_lie_expr,
                                                                    stream_parse_lie_expr))
                assert typed(new.poly.terms) == typed(old.poly.terms)
            for text in (*case.ring_generator_texts, *case.relation_texts):
                same_poly(text)


def same_expansion(u):
    new, old = outcome(to_commutator_basis, u), outcome(split_to_commutator_basis, u)
    if new[0] == old[0] == "value":
        assert [(type(c), c, w) for c, w in new[1]] == [(type(c), c, w) for c, w in old[1]]
        assert format_commutator_expansion(new[1]) == format_commutator_expansion(old[1])
    else:
        assert new == old


class TestReadOff:
    @given(strat.commutator_combinations(min_dim=2, max_dim=5, max_word_length=5, max_terms=6))
    def test_ideal_elements(self, combination):
        ctx, picks = combination
        same_expansion(from_commutator_basis(ctx, [(c, w) for w, c in picks]))

    @given(strat.envelope_elements(dim=3, max_terms=4))
    def test_any_envelope_element(self, u):
        same_expansion(u)

    @pytest.mark.parametrize("spec", ["2,0", "1,1", "2,1", "3", "4", "2,2"])
    def test_witness_members(self, spec):
        for n, u in zip(range(4), infinite_family_witness(ModuleSpec.parse(spec))):
            same_expansion(u)

    def test_pi_answers(self):
        for case in load_catalog().values():
            rings = case.ring_generators
            for f1, f2 in zip(rings, rings[1:]):
                same_expansion(pi(f1, f2 ** 2, case.spec.context()))

    def test_words_outside_the_first_slots(self):
        # x17 and up take slots in the order of first sight, not of their indices
        ctx = LieContext(40)
        for word in ((40, 17, 33), (33, 17, 40, 17), (18, 1, 40)):
            u = parse_lie_expr("[" + ",".join(f"x{j}" for j in word) + "].x39 - 2*[x40,x2]"
                               ).evaluate(ctx)
            same_expansion(u)
            assert to_commutator_basis(u)[0][0] == Fraction(-2)
