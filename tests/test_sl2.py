"""Group actions, logarithm derivations, invariance and weights."""

from fractions import Fraction
from itertools import product
from math import comb

import hypothesis.strategies as st
import pytest
from hypothesis import given

import strategies as strat
from metalie import poly
from metalie.metabelian import ContextMismatch, WreathElement, _wrap, parse_lie_expr
from metalie.poly import MAX_EXPONENT, ExponentOverflow, Poly, decode, encode, var_key
from metalie.series import weight_slices
from metalie.sl2 import (
    ModuleSpec,
    NotUnipotent,
    _balanced_basis,
    bidegree_components,
    derivations,
    g1_matrix,
    g2_matrix,
    invariant_dimension,
    is_invariant,
    is_invariant_by_derivations,
    log_unipotent,
)
from oracles import derivation_by_partials, exp_nilpotent


# module specifications of rank 3, to match the three-variable strategies
RANK_THREE_SPECS = [ModuleSpec(blocks) for blocks in ((2,), (1, 0), (0, 1))]

# every specification of one to three blocks of degree at most 6 and rank at most 10
SMALL_SPECS = [ModuleSpec(blocks) for size in (1, 2, 3)
               for blocks in product(range(7), repeat=size)
               if sum(k + 1 for k in blocks) <= 10]


def block_degrees(u, spec):
    """The degree vectors, one entry per block, of the monomials of u."""
    owner = [b for b, k in enumerate(spec.blocks) for _ in range(k + 1)]
    out = set()
    for m in (u.terms if isinstance(u, Poly) else u.poly.terms):
        degrees = [0] * len(spec.blocks)
        for v, e in decode(m):
            degrees[owner[var_key(v)[1] - 1]] += e
        out.add(tuple(degrees))
    return out


def column(action, j):
    return tuple(action.columns[j - 1].get(i, 0) for i in range(action.spec.dimension))


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
        assert spec.weights() == [(2, 0), (1, 1), (0, 2), (1, 0), (0, 1)]


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
        assert g.columns == ({0: 1}, {1: 1})
        assert g2_matrix(ModuleSpec((0,))).columns == ({0: 1},)

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
        assert delta.columns == ({}, {0: 1})

    def test_identity_gives_zero(self):
        spec = ModuleSpec((0, 0))
        delta = log_unipotent(g1_matrix(spec))
        assert delta.columns == ({}, {})

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
        assert len(SMALL_SPECS) == 163
        for spec in SMALL_SPECS:
            assert derivations(spec) == \
                (log_unipotent(g1_matrix(spec)), log_unipotent(g2_matrix(spec))), spec

    def test_non_unipotent_rejected(self):
        spec = ModuleSpec((1,))
        from metalie.sl2 import LinearAction

        doubled = LinearAction(spec, ({0: Fraction(2)}, {1: Fraction(1)}))
        with pytest.raises(NotUnipotent):
            log_unipotent(doubled)


class TestSparseOperators:
    def test_g2_is_g1_reflected_within_each_block(self):
        for spec in SMALL_SPECS:
            g1, g2 = g1_matrix(spec).columns, g2_matrix(spec).columns
            for k, offset in zip(spec.blocks, spec.offsets()):
                for m in range(k + 1):
                    reflected = {2 * offset + k - i: c
                                 for i, c in g1[offset + k - m].items()}
                    assert g2[offset + m] == reflected, (spec, m)

    def test_generators_of_a_wide_block_hold_binomials(self):
        spec = ModuleSpec((40,))
        g1, g2 = g1_matrix(spec).columns, g2_matrix(spec).columns
        for l in range(41):
            assert g1[l] == {j: comb(l, j) for j in range(l + 1)}
            assert g2[l] == {j: comb(40 - l, j - l) for j in range(l, 41)}

    def test_derivation_columns_hold_at_most_one_entry(self):
        for spec in SMALL_SPECS:
            for delta in derivations(spec):
                assert all(len(column) <= 1 for column in delta.columns), spec

    def test_derivations_of_a_wide_block_store_one_entry_per_step(self):
        raising, lowering = derivations(ModuleSpec((1023,)))
        assert len(raising.columns) == len(lowering.columns) == 1024
        assert sum(map(len, raising.columns + lowering.columns)) == 2 * 1023
        assert raising.columns[1023] == {1022: 1023}
        assert lowering.columns[0] == {1: 1023}


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


class TestOnePassLeibniz:
    """`Derivation.act` in one pass over the terms (`Poly.derive`) against the
    sum of image times partial derivative, one variable at a time."""

    @staticmethod
    def typed_terms(u):
        terms = u.terms if isinstance(u, Poly) else u.poly.terms
        return sorted((m, type(c), c) for m, c in terms.items())

    @given(strat.spec_elements(), st.data())
    def test_agrees_with_the_partials(self, spec_element, data):
        spec, u = spec_element
        for delta in (*derivations(spec), data.draw(strat.random_derivations(spec))):
            image = delta.act(u)
            assert type(image) is type(u)
            assert self.typed_terms(image) == self.typed_terms(derivation_by_partials(delta, u))

    @given(strat.module_specs().filter(lambda spec: any(spec.blocks)), st.booleans(), st.data())
    def test_both_refuse_an_exponent_over_the_budget(self, spec, envelope, data):
        offset, k = data.draw(st.sampled_from([(o, k) for o, k in zip(spec.offsets(), spec.blocks)
                                               if k]))
        l = data.draw(st.integers(1, k))
        # delta1(xi_l) = l * xi_(l-1), whose exponent is at the budget already
        top = encode(((f"x{offset + l}", MAX_EXPONENT), (f"x{offset + l + 1}", 1)))
        names = tuple(f"x{j}" for j in range(1, spec.dimension + 1))
        p = Poly.monomial(top, data.draw(strat.nonzero_rationals)) + data.draw(strat.polys(names))
        u = WreathElement(spec.context(), p * Poly.variable("a1")) if envelope else p
        delta1 = derivations(spec)[0]
        with pytest.raises(ExponentOverflow):
            delta1.act(u)
        with pytest.raises(ExponentOverflow):
            derivation_by_partials(delta1, u)


class TestMoveTables:
    """`Derivation.act` reads its move tables by slot; a slot missing from them
    goes through `require_variables`, and a slot is entered on first sight."""

    SPEC = ModuleSpec((2, 1))

    @pytest.mark.parametrize("name", ["x7", "a9", "y1"])
    def test_a_variable_outside_the_alphabet_is_refused_with_the_same_message(self, name):
        ctx = self.SPEC.context()
        stray = Poly.variable(name) * Poly.variable("x2")
        for delta in derivations(self.SPEC):
            # warm both tables with every slot of the alphabets first
            delta.act(sum((Poly.variable(f"x{j}") for j in range(1, 6)), Poly.zero()))
            delta.act(sum((ctx.generator(j) for j in range(1, 6)), ctx.zero()))
            with pytest.raises(ContextMismatch) as found:
                delta.act(stray + Poly.variable("x1"))
            assert str(found.value) == f"variable {name} is not one of x1..x5"
            with pytest.raises(ContextMismatch) as found:
                delta.act(_wrap(ctx, stray * Poly.variable("a1") if name[0] == "x" else stray))
            assert str(found.value) == f"variable {name} is not one of a1..a5, x1..x5"

    def test_an_a_variable_seen_in_an_envelope_element_is_refused_in_a_polynomial(self):
        ctx = self.SPEC.context()
        delta1 = derivations(self.SPEC)[0]
        delta1.act(ctx.generator(2))
        with pytest.raises(ContextMismatch, match="^variable a2 is not one of x1..x5$"):
            delta1.act(Poly.variable("a2"))

    def test_an_act_registers_only_the_slots_of_the_images_it_needs(self):
        delta2 = derivations(ModuleSpec((1023,)))[1]
        registered = len(poly._slot_names)
        assert delta2.act(Poly.variable("x1")) == 1023 * Poly.variable("x2")
        assert len(poly._slot_names) == registered


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
    @pytest.mark.parametrize("blocks,space", [
        ((2,), "polyring"), ((2, 1), "polyring"), ((2, 1), "module"), ((3,), "module"),
        ((1, 1, 1), "module"), ((1, 0), "algebra"), ((2, 0), "algebra"),
    ])
    def test_kernel_basis_has_balanced_weight(self, blocks, space):
        spec = ModuleSpec(blocks)
        slices = weight_slices(spec.weights(), 6, space)
        for n in range(7):
            groups = _balanced_basis(spec, n, space)
            for key, group in groups.items():
                for u in group:
                    ((p, q),) = bidegree_components(u, spec)
                    assert p == q, (blocks, space, n, str(u))
                    assert block_degrees(u, spec) == {key}
            balanced = sum(line[t // 2] for t, line in slices[n].items() if not t % 2)
            assert sum(map(len, groups.values())) == balanced, (blocks, space, n)

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
