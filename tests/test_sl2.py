"""Group actions, logarithm derivations, invariance and weights."""

from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given

import strategies as strat
from metalie.metabelian import parse_lie_expr
from metalie.poly import Poly
from metalie.sl2 import (
    ModuleSpec,
    NotUnipotent,
    bidegree_components,
    derivations,
    exp_nilpotent,
    g1_matrix,
    g2_matrix,
    invariant_dimension,
    is_invariant,
    is_invariant_by_derivations,
    log_unipotent,
)


# module specifications of rank 3, to match the three-variable strategies
RANK_THREE_SPECS = [ModuleSpec(blocks) for blocks in ((2,), (1, 0), (0, 1))]


def column(action, j):
    return tuple(action.matrix[i][j - 1] for i in range(action.spec.dimension))


class TestModuleSpec:
    def test_parse_and_str(self):
        spec = ModuleSpec.parse("2,1")
        assert spec.blocks == (2, 1)
        assert str(spec) == "2,1"
        assert spec.dimension == 5

    def test_bad_text(self):
        with pytest.raises(ValueError):
            ModuleSpec.parse("2,x")
        with pytest.raises(ValueError):
            ModuleSpec.parse("")

    def test_weights(self):
        spec = ModuleSpec.parse("2,1")
        assert [spec.weight(j) for j in range(1, 6)] == \
            [(2, 0), (1, 1), (0, 2), (1, 0), (0, 1)]


class TestGroupGenerators:
    def test_g1_on_one_block_of_degree_one(self):
        g = g1_matrix(ModuleSpec((1,)))
        assert column(g, 1) == (1, 0)        # xi_0 fixed
        assert column(g, 2) == (1, 1)        # xi_1 -> xi_0 + xi_1

    def test_g1_on_degree_two_block(self):
        g = g1_matrix(ModuleSpec((2,)))
        assert column(g, 3) == (1, 2, 1)     # xi_2 -> xi_0 + 2 xi_1 + xi_2

    def test_trivial_blocks_give_identity(self):
        g = g1_matrix(ModuleSpec((0, 0)))
        assert g.matrix == ((1, 0), (0, 1))
        assert g2_matrix(ModuleSpec((0,))).matrix == ((1,),)

    def test_g2_mirrors_g1(self):
        g = g2_matrix(ModuleSpec((1,)))
        assert column(g, 1) == (1, 1)        # xi_0 -> xi_0 + xi_1
        assert column(g, 2) == (0, 1)        # xi_1 fixed
        g = g2_matrix(ModuleSpec((2,)))
        assert column(g, 1) == (1, 2, 1)     # xi_0 -> xi_0 + 2 xi_1 + xi_2


class TestLogExp:
    def test_square_zero_case(self):
        # (g1 - 1)^2 = 0 on a single degree-one block, so log g1 = g1 - 1
        spec = ModuleSpec((1,))
        delta = log_unipotent(g1_matrix(spec))
        assert delta.matrix == ((0, 1), (0, 0))

    def test_identity_gives_zero(self):
        spec = ModuleSpec((0, 0))
        delta = log_unipotent(g1_matrix(spec))
        assert all(all(x == 0 for x in row) for row in delta.matrix)

    def test_degree_two_block_log(self):
        # raising operator: delta1(xi_l) = l * xi_{l-1}
        spec = ModuleSpec((2,))
        delta = log_unipotent(g1_matrix(spec))
        assert column(delta, 1) == (0, 0, 0)
        assert column(delta, 2) == (1, 0, 0)
        assert column(delta, 3) == (0, 2, 0)

    @pytest.mark.parametrize("k", range(7))
    def test_exp_log_round_trip(self, k):
        spec = ModuleSpec((k,))
        for g in (g1_matrix(spec), g2_matrix(spec)):
            assert exp_nilpotent(log_unipotent(g)) == g

    @pytest.mark.parametrize("k", range(1, 7))
    def test_log_is_the_raising_and_lowering_operator(self, k):
        spec = ModuleSpec((k,))
        raising = log_unipotent(g1_matrix(spec))
        lowering = log_unipotent(g2_matrix(spec))
        for l in range(k + 1):
            expected_raise = tuple(l if i == l - 1 else 0 for i in range(k + 1))
            expected_lower = tuple(k - l if i == l + 1 else 0 for i in range(k + 1))
            assert column(raising, l + 1) == expected_raise
            assert column(lowering, l + 1) == expected_lower

    def test_closed_forms_match_the_matrix_logarithm(self):
        specs = [ModuleSpec(blocks) for size in (1, 2, 3)
                 for blocks in product(range(7), repeat=size)
                 if sum(k + 1 for k in blocks) <= 10]
        assert len(specs) == 163
        for spec in specs:
            assert derivations(spec) == \
                (log_unipotent(g1_matrix(spec)), log_unipotent(g2_matrix(spec))), spec

    def test_non_unipotent_rejected(self):
        spec = ModuleSpec((1,))
        from metalie.sl2 import LinearAction

        doubled = LinearAction(spec, ((Fraction(2), Fraction(0)),
                                      (Fraction(0), Fraction(1))))
        with pytest.raises(NotUnipotent):
            log_unipotent(doubled)


class TestPolyAction:
    def test_discriminant_is_fixed(self):
        spec = ModuleSpec((2,))
        f = Poly.parse("x2^2 - x1*x3")
        assert g1_matrix(spec).act(f) == f
        assert g2_matrix(spec).act(f) == f

    def test_constants_fixed(self):
        spec = ModuleSpec((3,))
        assert g1_matrix(spec).act(Poly.one()) == Poly.one()

    def test_highest_weight_variable_fixed_by_g1(self):
        spec = ModuleSpec((1,))
        assert g1_matrix(spec).act(Poly.variable("x1")) == Poly.variable("x1")

    def test_undeclared_variable_rejected(self):
        spec = ModuleSpec((1,))
        for action in (g1_matrix(spec), *derivations(spec)):
            with pytest.raises(ValueError):
                action.act(Poly.variable("x3"))
        with pytest.raises(ValueError):
            is_invariant_by_derivations(Poly.variable("x3"), spec)

    @given(p=strat.polys(), q=strat.polys())
    def test_action_is_an_algebra_homomorphism(self, p, q):
        g = g1_matrix(ModuleSpec((2,)))
        assert g.act(p * q) == g.act(p) * g.act(q)

    @given(p=strat.polys(), q=strat.polys())
    def test_derivation_satisfies_leibniz(self, p, q):
        delta = log_unipotent(g2_matrix(ModuleSpec((2,))))
        assert delta.act(p * q) == delta.act(p) * q + p * delta.act(q)


class TestWreathAction:
    def test_commutator_invariant_on_one_block(self):
        spec = ModuleSpec((1,))
        u = parse_lie_expr("[x2,x1]").evaluate(spec.context())
        assert g1_matrix(spec).act(u) == u
        assert g2_matrix(spec).act(u) == u

    def test_identity_action(self):
        spec = ModuleSpec((0, 0))
        u = parse_lie_expr("[x2,x1]").evaluate(spec.context())
        assert g1_matrix(spec).act(u) == u

    def test_cubic_block_invariant(self):
        spec = ModuleSpec((3,))
        u = parse_lie_expr("[x4,x1] - 3*[x3,x2]").evaluate(spec.context())
        assert g1_matrix(spec).act(u) == u
        assert g2_matrix(spec).act(u) == u

    @given(u=strat.envelope_elements(dim=3), v=strat.envelope_elements(dim=3))
    def test_action_respects_product_and_bracket(self, u, v):
        g = g1_matrix(ModuleSpec((2,)))
        assert g.act(u * v) == g.act(u) * g.act(v)
        assert g.act(u.bracket(v)) == g.act(u).bracket(g.act(v))

    @given(u=strat.envelope_elements(dim=3), v=strat.envelope_elements(dim=3))
    def test_derivation_respects_product_and_bracket(self, u, v):
        delta = log_unipotent(g1_matrix(ModuleSpec((2,))))
        assert delta.act(u * v) == delta.act(u) * v + u * delta.act(v)
        assert delta.act(u.bracket(v)) == \
            delta.act(u).bracket(v) + u.bracket(delta.act(v))


class TestInvariance:
    def test_discriminant(self):
        assert is_invariant(Poly.parse("x2^2 - x1*x3"), ModuleSpec((2,)))

    def test_single_variable_is_not_invariant(self):
        assert not is_invariant(Poly.variable("x1"), ModuleSpec((1,)))

    def test_two_block_quadratic(self):
        assert is_invariant(Poly.parse("x1*x4 - x2*x3"), ModuleSpec((1, 1)))

    @given(p=strat.polys(max_degree=2))
    def test_substitution_and_derivation_paths_agree_on_polys(self, p):
        for spec in RANK_THREE_SPECS:
            assert is_invariant(p, spec) == is_invariant_by_derivations(p, spec), spec

    @given(u=strat.envelope_elements(dim=3, max_y_degree=2))
    def test_substitution_and_derivation_paths_agree_on_wreath(self, u):
        for spec in RANK_THREE_SPECS:
            assert is_invariant(u, spec) == is_invariant_by_derivations(u, spec), spec


class TestBidegrees:
    def test_highest_weight_variable(self):
        comps = bidegree_components(Poly.variable("x1"), ModuleSpec((1,)))
        assert set(comps) == {(1, 0)}

    def test_discriminant_is_bihomogeneous(self):
        comps = bidegree_components(Poly.parse("x2^2 - x1*x3"), ModuleSpec((2,)))
        assert set(comps) == {(2, 2)}

    def test_commutator_weight(self):
        spec = ModuleSpec((1,))
        u = parse_lie_expr("[x2,x1]").evaluate(spec.context())
        assert set(bidegree_components(u, spec)) == {(1, 1)}

    def test_components_sum_back(self):
        spec = ModuleSpec((2,))
        p = Poly.parse("x1 + x2^2 - x1*x3 + x3")
        total = Poly.zero()
        for comp in bidegree_components(p, spec).values():
            total = total + comp
        assert total == p


class TestDimensionOracle:
    def test_polyring_single_degree_two_block(self):
        spec = ModuleSpec((2,))
        dims = [invariant_dimension(spec, n, "polyring") for n in range(7)]
        assert dims == [1, 0, 1, 0, 1, 0, 1]

    def test_module_of_single_degree_two_block_vanishes(self):
        spec = ModuleSpec((2,))
        assert all(invariant_dimension(spec, n, "module") == 0 for n in range(2, 9))

    def test_algebra_counts_trivial_variables(self):
        spec = ModuleSpec((1, 0))
        assert invariant_dimension(spec, 1, "algebra") == 1
