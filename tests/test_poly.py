"""Polynomial arithmetic: frozen examples, ring axioms, sympy cross-checks."""

import re
from fractions import Fraction

import pytest
from hypothesis import given, settings

import strategies as strat
from metalie import poly
from metalie.metabelian import parse_lie_expr
from metalie.poly import (
    MAX_NESTING,
    ParseError,
    Poly,
    decode,
    encode,
    is_pairwise_jacobian_zero,
    jacobian_minor,
    jacobian_minors,
    mono_degree,
    mono_mul,
    var_key,
)
from metalie.series import parse_rational_function
from oracles import tuple_mono_mul

x1, x2, x3 = (Poly.variable(v) for v in ("x1", "x2", "x3"))


class TestBasics:
    def test_cancellation(self):
        assert (x1 + x2) + (-x2) == x1

    def test_additive_identity(self):
        p = x1 * x2 - 3 * x3
        assert p + Poly.zero() == p

    def test_cancellation_in_sums(self):
        assert (x2 ** 2 - x1 * x3) + x1 * x3 == x2 ** 2

    def test_product_difference_of_squares(self):
        assert (x1 + x2) * (x1 - x2) == x1 ** 2 - x2 ** 2

    def test_multiplicative_identity(self):
        p = x2 ** 2 - x1 * x3
        assert p * Poly.one() == p

    def test_square_expansion(self):
        # schoolbook expansion of (x2^2 - x1 x3)^2
        expected = x2 ** 4 - 2 * x1 * x2 ** 2 * x3 + x1 ** 2 * x3 ** 2
        assert (x2 ** 2 - x1 * x3) ** 2 == expected

    def test_no_zero_terms_stored(self):
        p = x1 - x1
        assert p.terms == {}
        assert p.is_zero()

    def test_degrees(self):
        assert Poly.zero().total_degree() == -1
        assert Poly.one().total_degree() == 0
        assert (x1 * x2 ** 2).total_degree() == 3


class TestMonomialProduct:
    MIXED = ("a1", "a12", "x1", "x2", "x10", "x11", "y3", "y20", "z")

    @given(strat.monomials(MIXED, max_degree=5), strat.monomials(MIXED, max_degree=5))
    def test_merge_keeps_the_variable_order(self, a, b):
        exponents = dict(decode(a))
        for v, e in decode(b):
            exponents[v] = exponents.get(v, 0) + e
        expected = tuple(sorted(exponents.items(), key=lambda item: var_key(item[0])))
        assert decode(mono_mul(a, b)) == expected
        assert decode(mono_mul(a, b)) == tuple_mono_mul(decode(a), decode(b))

    def test_indices_compare_as_numbers(self):
        product = mono_mul(encode((("x10", 1),)), encode((("x2", 1),)))
        assert decode(product) == (("x2", 1), ("x10", 1))
        assert (Poly.variable("x10") * x2).terms == {encode((("x2", 1), ("x10", 1))): 1}


class TestPartial:
    def test_discriminant_partials(self):
        f = x2 ** 2 - x1 * x3
        assert f.partial("x2") == 2 * x2
        assert f.partial("x1") == -x3
        assert Poly.const(5).partial("x1") == Poly.zero()


class TestJacobian:
    def test_coordinates(self):
        assert jacobian_minor(x1, x2, "x1", "x2") == Poly.one()

    def test_skew_on_equal_arguments(self):
        f = x2 ** 2 - x1 * x3 + 2 * x1
        assert jacobian_minor(f, f, "x1", "x2") == Poly.zero()

    def test_frozen_minor(self):
        # d(x2^2 - x1 x3, x1 x3)/d(x1, x2) = (-x3)(0) - (2 x2)(x3)
        value = jacobian_minor(x2 ** 2 - x1 * x3, x1 * x3, "x1", "x2")
        assert value == -2 * x2 * x3

    def test_same_variable_rejected(self):
        with pytest.raises(ValueError):
            jacobian_minor(x1, x2, "x1", "x1")

    def test_dependent_pair(self):
        f = x1 * x2 - x3 ** 2
        assert is_pairwise_jacobian_zero(f, f ** 2)

    def test_independent_pair(self):
        assert not is_pairwise_jacobian_zero(x1, x2)

    def test_quartic_block_ring_generators_are_independent(self):
        f1 = Poly.parse("x1*x5 - 4*x2*x4 + 3*x3^2")
        f2 = Poly.parse("-x1*x3*x5 - 2*x2*x3*x4 + x3^3 + x1*x4^2 + x2^2*x5")
        assert not is_pairwise_jacobian_zero(f1, f2)

    def test_minors_each_partial_once(self, monkeypatch):
        f1, f2 = x1 ** 2 * x3 - x2 ** 3, x1 * x2 + x3 ** 2
        partial = Poly.partial
        taken = []
        monkeypatch.setattr(Poly, "partial", lambda f, v: taken.append(v) or partial(f, v))
        minors = list(jacobian_minors(f1, f2))
        assert sorted(taken) == ["x1", "x1", "x2", "x2", "x3", "x3"]
        assert [(v, w) for v, w, _ in minors] == [("x1", "x2"), ("x1", "x3"), ("x2", "x3")]
        assert all(minor == jacobian_minor(f1, f2, v, w) for v, w, minor in minors)

    def test_minor_products_over_the_budget_are_refused_before_the_first(self, monkeypatch):
        def unformed(*args):
            raise AssertionError("a minor product was formed")

        f = Poly.parse("(x1+x2+x3)^2")  # every partial has 3 terms
        monkeypatch.setattr(poly, "MAX_TERM_PAIRS", 8)
        monkeypatch.setattr(Poly, "__mul__", unformed)
        with pytest.raises(ParseError, match="a Jacobian minor product needs up to 9 term pairs"):
            next(jacobian_minors(f, f))

    def test_too_many_minors_are_refused_before_any_partial(self, monkeypatch):
        def untaken(*args):
            raise AssertionError("a partial was taken")

        f = Poly.parse("x1 + x2 + x3 + x4")  # 6 minors
        monkeypatch.setattr(poly, "MAX_MINORS", 5)
        monkeypatch.setattr(Poly, "partial", untaken)
        with pytest.raises(ParseError, match="^6 Jacobian minors, over the budget of 5$"):
            next(jacobian_minors(f, 2 * f))
        monkeypatch.undo()
        assert len(list(jacobian_minors(f, 2 * f))) == 6

    @given(f1=strat.polys(), f2=strat.polys(), g=strat.polys())
    def test_bilinear_and_skew(self, f1, f2, g):
        j = lambda a, b: jacobian_minor(a, b, "x1", "x2")
        assert j(f1, f2) == -j(f2, f1)
        assert j(f1 + g, f2) == j(f1, f2) + j(g, f2)


class TestRingAxioms:
    @given(p=strat.polys(), q=strat.polys(), r=strat.polys())
    def test_associativity_and_distributivity(self, p, q, r):
        assert (p + q) + r == p + (q + r)
        assert (p * q) * r == p * (q * r)
        assert p * (q + r) == p * q + p * r

    @given(p=strat.polys(), q=strat.polys())
    def test_commutativity(self, p, q):
        assert p + q == q + p
        assert p * q == q * p

    @given(p=strat.polys(), q=strat.polys())
    def test_leibniz_rule(self, p, q):
        lhs = (p * q).partial("x2")
        assert lhs == p.partial("x2") * q + p * q.partial("x2")

    @given(p=strat.homogeneous_polys(degree=3))
    def test_euler_identity(self, p):
        total = Poly.zero()
        for v in ("x1", "x2", "x3"):
            total = total + Poly.variable(v) * p.partial(v)
        assert total == 3 * p


class TestSympyOracle:
    """Independent expansion oracle for products and derivatives."""

    @staticmethod
    def to_sympy(p):
        import sympy

        acc = sympy.Integer(0)
        for m, c in p.terms.items():
            term = sympy.Rational(c.numerator, c.denominator)
            for v, e in decode(m):
                term *= sympy.Symbol(v) ** e
            acc += term
        return sympy.expand(acc)

    @settings(max_examples=25)
    @given(p=strat.polys(), q=strat.polys())
    def test_product_matches_sympy(self, p, q):
        import sympy

        assert self.to_sympy(p * q) == sympy.expand(self.to_sympy(p) * self.to_sympy(q))

    @settings(max_examples=25)
    @given(p=strat.polys())
    def test_partial_matches_sympy(self, p):
        import sympy

        assert self.to_sympy(p.partial("x1")) == sympy.diff(self.to_sympy(p), sympy.Symbol("x1"))


class TestParsePrint:
    @pytest.mark.parametrize("text,expected", [
        ("0", Poly.zero()),
        ("1", Poly.one()),
        ("-x1", -x1),
        ("x2^2 - x1*x3", x2 ** 2 - x1 * x3),
        ("3/2*x1", Fraction(3, 2) * x1),
        ("2x1x2", 2 * x1 * x2),
        ("(x1 + x2)^2", (x1 + x2) ** 2),
        ("x1^2*x4^2 - 6*x1*x2*x3*x4", Poly.variable("x1") ** 2 * Poly.variable("x4") ** 2
         - 6 * x1 * x2 * x3 * Poly.variable("x4")),
    ])
    def test_parse(self, text, expected):
        assert Poly.parse(text) == expected

    @pytest.mark.parametrize("text", ["x1 +", "x1^x2", "(x1", "x1 @ x2", "^2", "x1/x2"])
    def test_parse_errors(self, text):
        with pytest.raises(ParseError):
            Poly.parse(text)

    @pytest.mark.parametrize("text, message", [
        ("(x1", "expected ')', found end of input at position 3"),
        ("x1 +", "unexpected end of input at position 4"),
        ("", "unexpected end of input at position 0"),
    ])
    def test_end_of_input_is_named(self, text, message):
        with pytest.raises(ParseError, match=re.escape(message)):
            Poly.parse(text)

    def test_zero_denominator(self):
        for parse, text in ((Poly.parse, "1/0*x1"), (parse_lie_expr, "3/0*[x2,x1]"),
                            (parse_rational_function, "2/0 / (1 - z)")):
            with pytest.raises(ParseError, match="division by zero"):
                parse(text)

    @pytest.mark.parametrize("parse,nest", [
        (Poly.parse, lambda depth: "(" * depth + "x1" + ")" * depth),
        (parse_lie_expr, lambda depth: "[" * depth + "x2" + ",x1]" * depth),
        (parse_rational_function, lambda depth: "1/" + "(" * depth + "1-z" + ")" * depth),
    ])
    def test_nesting_limit(self, parse, nest):
        parse(nest(MAX_NESTING))
        with pytest.raises(ParseError, match="nesting deeper than"):
            parse(nest(MAX_NESTING + 1))

    @given(p=strat.polys())
    def test_round_trip(self, p):
        assert Poly.parse(str(p)) == p

    def test_deterministic_printing(self):
        p = Poly.parse("x2^2 - x1*x3")
        assert str(p) == "-x1*x3 + x2^2"
        assert str(Poly.parse(str(p))) == str(p)


class TestNormalization:
    def test_content_and_sign(self):
        p = -4 * x2 ** 2 + 4 * x1 * x3
        assert p.normalized() == x1 * x3 - x2 ** 2
        assert p.normalized().content() == 1

    def test_homogeneous_split(self):
        p = x1 + x2 ** 2
        assert not p.is_homogeneous()

    def test_substitute_is_homomorphism(self):
        images = {"x1": x2 + x3, "x2": Poly.one()}
        p, q = x1 * x2 - x3, x1 + x2
        assert (p * q).substitute(images) == p.substitute(images) * q.substitute(images)

    @given(m=strat.monomials(("x1", "x2", "x3")))
    def test_monomial_degree(self, m):
        assert mono_degree(m) == sum(e for _, e in decode(m))
