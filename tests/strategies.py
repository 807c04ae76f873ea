"""Shared hypothesis strategies for exact algebra objects."""

from fractions import Fraction

import hypothesis.strategies as st

from helpers import monomial_element
from metalie.metabelian import LieContext
from metalie.poly import Poly, encode
from metalie.sl2 import Derivation, ModuleSpec
from oracles import schur_function

rationals = st.fractions(min_value=Fraction(-4), max_value=Fraction(4), max_denominator=3)
nonzero_rationals = rationals.filter(bool)


@st.composite
def monomials(draw, variables, max_degree=3, min_degree=0):
    degree = draw(st.integers(min_degree, max_degree))
    exps = [0] * len(variables)
    for _ in range(degree):
        exps[draw(st.integers(0, len(variables) - 1))] += 1
    return encode((v, e) for v, e in zip(variables, exps) if e)


@st.composite
def polys(draw, variables=("x1", "x2", "x3"), max_degree=3, max_terms=4):
    terms = draw(st.lists(st.tuples(monomials(variables, max_degree), rationals),
                          max_size=max_terms))
    acc = Poly.zero()
    for m, c in terms:
        acc = acc + Poly.monomial(m, c)
    return acc


@st.composite
def homogeneous_polys(draw, variables=("x1", "x2", "x3"), degree=2, max_terms=4):
    terms = draw(st.lists(
        st.tuples(monomials(variables, max_degree=degree, min_degree=degree), rationals),
        min_size=1, max_size=max_terms))
    acc = Poly.zero()
    for m, c in terms:
        acc = acc + Poly.monomial(m, c)
    return acc


@st.composite
def homogeneous_pairs(draw, max_dim=8, max_degree=3):
    """(f1, f2, ctx): homogeneous polynomials of degrees 0 to `max_degree` (constants
    and zero included) in a rank of 1 to `max_dim`, each in a drawn subset of its
    variables, so the two may share all, some or none of them."""
    dim = draw(st.integers(1, max_dim))
    names = [f"x{j}" for j in range(1, dim + 1)]

    def one():
        variables = draw(st.lists(st.sampled_from(names), min_size=1, unique=True))
        return draw(homogeneous_polys(tuple(variables), degree=draw(st.integers(0, max_degree))))
    return one(), one(), LieContext(dim)


@st.composite
def envelope_basis_elements(draw, dim=3, max_y_degree=3):
    """Monomial basis element of the Poisson envelope: Y^q or a_i * Y^q."""
    ctx = LieContext(dim)
    exps = [draw(st.integers(0, max_y_degree)) for _ in range(dim)]
    a_index = draw(st.one_of(st.none(), st.integers(1, dim)))
    return monomial_element(ctx, a_index, exps)


@st.composite
def envelope_elements(draw, dim=3, max_y_degree=3, max_terms=3):
    ctx = LieContext(dim)
    acc = ctx.zero()
    for _ in range(draw(st.integers(0, max_terms))):
        acc = acc + draw(rationals) * draw(envelope_basis_elements(dim, max_y_degree))
    return acc


@st.composite
def commutator_combinations(draw, min_dim=3, max_dim=3, max_word_length=4, max_terms=3):
    """Random rational combination of normal-form basis words in a drawn rank;
    returns the context and the (word, coefficient) picks."""
    from oracles import words_of_degree

    dim = draw(st.integers(min_dim, max_dim))
    pool = []
    for n in range(2, max_word_length + 1):
        pool.extend(words_of_degree(dim, n))
    picks = draw(st.lists(st.tuples(st.sampled_from(pool), rationals),
                          min_size=0, max_size=max_terms))
    return LieContext(dim), picks


@st.composite
def module_specs(draw, max_blocks=3, max_k=3):
    blocks = draw(st.lists(st.integers(0, max_k), min_size=1, max_size=max_blocks))
    return ModuleSpec(tuple(blocks))


@st.composite
def spec_elements(draw, max_blocks=3, max_k=3):
    """A specification and a `Poly` in its x's or an envelope element of its
    rank, with rational coefficients."""
    spec = draw(module_specs(max_blocks, max_k))
    d = spec.dimension
    if draw(st.booleans()):
        return spec, draw(polys(tuple(f"x{j}" for j in range(1, d + 1)), max_terms=6))
    return spec, draw(envelope_elements(dim=d, max_terms=5))


@st.composite
def random_derivations(draw, spec):
    """A derivation of the specification's generators with random sparse
    columns: several entries each, rational, some columns empty."""
    d = spec.dimension
    entries = st.dictionaries(st.integers(0, d - 1), nonzero_rationals, max_size=3)
    return Derivation(spec, tuple(draw(entries) for _ in range(d)))


@st.composite
def slice_tables(draw, top=14):
    """A slice {(a, b): c}, a, b <= top: a sum of Schur characters, then a few
    cells, alone or with their mirror, changed by an int (negative too) or a
    fraction, or set to an explicit zero (a cell of the table, when it has
    one)."""
    table = {}
    for k, l, m in draw(st.lists(st.tuples(st.integers(0, 6), st.integers(0, 3),
                                           st.integers(1, 3)), max_size=4)):
        for key, v in schur_function(k, l).items():
            table[key] = table.get(key, 0) + m * v
    for _ in range(draw(st.integers(0, 3))):
        zero, mirrored = draw(st.booleans()), draw(st.booleans())
        if zero and table:
            a, b = draw(st.sampled_from(sorted(table)))
        else:
            a, b = draw(st.integers(0, top)), draw(st.integers(0, top))
        value = draw(st.one_of(st.integers(-3, 3), rationals))
        for key in {(a, b), (b, a)} if mirrored else {(a, b)}:
            table[key] = 0 if zero else table.get(key, 0) + value
    return table
