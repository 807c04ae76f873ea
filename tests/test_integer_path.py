"""Integer coefficients: canonical scalars, and the fast character and rank
routes against the slow rational ones they replaced."""

import random
from fractions import Fraction

import hypothesis.strategies as st
import pytest
from hypothesis import given

from metalie import linalg
from metalie.invariants import load_catalog
from metalie.poly import Poly, encode, exact
from metalie.series import (
    NotACharacter,
    TruncatedSeries,
    extract_multiplicities,
    weight_character,
)
from metalie.sl2 import derivations, g1_matrix, g2_matrix
from helpers import decompose_character, slices_by
from oracles import schur_function
from strategies import nonzero_rationals, polys, rationals


def is_canonical(c) -> bool:
    """An int, or a Fraction that is not an integer; never a float."""
    return type(c) is int or (type(c) is Fraction and c.denominator != 1)


def assert_canonical(values):
    values = list(values)
    assert all(is_canonical(c) for c in values), values


# -- the oracles: the rational routes the integer ones replaced ---------------------


def decompose_by_schur_rebuild(character):
    """Weight-difference rule on the half a >= b, then a rebuild of the whole
    table from Schur functions to check that the input was a character."""
    result = {}
    for (a, b), c in character.items():
        if a < b:
            continue
        m = Fraction(c) - character.get((a + 1, b - 1), 0)
        if m:
            if m < 0 or m.denominator != 1:
                raise NotACharacter(f"multiplicity {m} at weight {(a, b)}")
            result[(a - b, b)] = int(m)
    reconstructed = {}
    for (k, l), m in result.items():
        for key, v in schur_function(k, l).items():
            reconstructed[key] = reconstructed.get(key, 0) + m * v
    cleaned = {key: c for key, c in character.items() if c}
    if {k: v for k, v in reconstructed.items() if v} != cleaned:
        raise NotACharacter("weight table is not symmetric under t1 <-> t2")
    return result


def rank_over_fractions(rows) -> int:
    """Gaussian elimination over Fraction."""
    basis, pivots = [], []
    for row in rows:
        row = {k: Fraction(v) for k, v in row.items() if v}
        for pivot, vec in zip(pivots, basis):
            c = row.get(pivot)
            if c:
                factor = c / vec[pivot]
                for k, v in vec.items():
                    s = row.get(k, 0) - factor * v
                    if s:
                        row[k] = s
                    else:
                        row.pop(k, None)
        if row:
            pivots.append(next(iter(row)))
            basis.append(row)
    return len(basis)


def outcome(decompose, table):
    try:
        return decompose(table)
    except NotACharacter:
        return "not a character"


# -- canonical coefficients ---------------------------------------------------------


class TestCanonicalScalars:
    def test_exact(self):
        assert type(exact(Fraction(4, 2))) is int
        assert exact(Fraction(1, 2)) == Fraction(1, 2)
        assert type(exact(True)) is int
        with pytest.raises(TypeError):
            exact(0.5)

    @given(polys(), polys(), polys(), nonzero_rationals, st.integers(0, 3))
    def test_poly_operations(self, p, q, r, c, n):
        for result in (p + q, p - q, p * q, q ** n, p / c, p * c, p * c / c,
                       p.partial("x1"), p.normalized(),
                       p.substitute({"x1": q, "x2": r})):
            assert_canonical(result.terms.values())

    def test_division_round_trip_returns_ints(self):
        p = Poly.parse("3*x1 - x2") / 2 * 2
        assert all(type(c) is int for c in p.terms.values())
        assert Poly.parse("2/4*x1").terms == {encode((("x1", 1),)): Fraction(1, 2)}

    @given(st.dictionaries(st.tuples(st.integers(0, 2), st.integers(0, 2)), rationals,
                           max_size=5),
           st.dictionaries(st.tuples(st.integers(0, 2), st.integers(0, 2)), rationals,
                           max_size=5),
           rationals)
    def test_series_operations(self, a, b, c):
        s = TruncatedSeries(("t", "z"), 3, a, graded=("z",))
        t = TruncatedSeries(("t", "z"), 3, b, graded=("z",))
        for result in (s + t, s - t, s * t, s * c, s ** 2):
            assert_canonical(result.coefficients.values())

    def test_catalog_path_holds_ints(self):
        spec = load_catalog()["vii"].spec
        for matrix in (g1_matrix(spec), g2_matrix(spec), *derivations(spec)):
            assert all(type(c) is int for column in matrix.columns
                       for c in column.values())
        character = weight_character(spec, 8, "module")
        table = extract_multiplicities(character)
        for values in (character.coefficients.values(), table.entries.values(),
                       [table.invariant_dimension(n) for n in range(9)]):
            assert all(type(c) is int for c in values)
        for case in load_catalog().values():
            for series in (case.module_series(8), case.ring_series(8)):
                assert all(type(c) is int for c in series.coefficients.values())


# -- decompose_character against the Schur rebuild ------------------------------------


def random_character(rng):
    """A sum of Schur functions, sometimes disturbed at one weight."""
    table = {}
    for _ in range(rng.randint(0, 4)):
        k, l = rng.randint(0, 5), rng.randint(0, 3)
        for key, v in schur_function(k, l).items():
            table[key] = table.get(key, 0) + rng.randint(1, 2) * v
    if table and rng.random() < 0.5:
        key = rng.choice(sorted(table))
        table[key] += rng.choice([-1, 1, Fraction(1, 2)])
    if rng.random() < 0.3:
        table[(rng.randint(0, 6), rng.randint(0, 6))] = rng.randint(-1, 2)
    return table


class TestDecomposeAgainstRebuild:
    @pytest.mark.parametrize("table", [
        {(3, 0): 1, (0, 3): 1},
        {(2, 0): 1, (1, 1): 1, (0, 2): 1},
        {(1, 1): 2},
        {(2, 0): 1, (0, 2): 1},
        {(1, 0): 1, (0, 1): 1, (2, 2): 0},
        {(1, 1): Fraction(1, 2)},
        {(2, 0): Fraction(1, 2), (1, 1): Fraction(1, 2), (0, 2): Fraction(1, 2)},
        {(1, 0): -1, (0, 1): -1},
        {},
    ])
    def test_examples(self, table):
        assert outcome(decompose_character, table) == \
            outcome(decompose_by_schur_rebuild, table)

    def test_asymmetric_sum_of_two_powers_is_refused(self):
        with pytest.raises(NotACharacter):
            decompose_character({(3, 0): 1, (0, 3): 1})

    def test_random_tables(self):
        rng = random.Random(20261018)
        refused = 0
        for _ in range(3000):
            table = random_character(rng)
            expected = outcome(decompose_by_schur_rebuild, table)
            assert outcome(decompose_character, table) == expected, table
            refused += expected == "not a character"
        assert 300 < refused < 2700

    @given(st.dictionaries(st.tuples(st.integers(0, 4), st.integers(0, 4)),
                           st.integers(-1, 2), max_size=8))
    def test_arbitrary_tables(self, table):
        assert outcome(decompose_character, table) == \
            outcome(decompose_by_schur_rebuild, table)

    def test_catalog_slices(self):
        for case in load_catalog().values():
            for space in ("module", "polyring"):
                character = weight_character(case.spec, 10, space)
                for n, piece in slices_by(character, "z").items():
                    assert decompose_character(piece) == decompose_by_schur_rebuild(piece)


# -- fraction-free rank against Gaussian elimination over Fraction --------------------


def random_family(rng):
    """Sparse rational rows over a few keys, some of them combinations of
    earlier rows."""
    keys = [("k", j) for j in range(rng.randint(1, 6))]
    rows = []
    for _ in range(rng.randint(0, 7)):
        if rows and rng.random() < 0.3:
            row = {}
            for earlier in rng.sample(rows, min(len(rows), 2)):
                c = Fraction(rng.randint(-3, 3), rng.randint(1, 3))
                for k, v in earlier.items():
                    row[k] = row.get(k, 0) + c * v
        else:
            row = {k: Fraction(rng.randint(-4, 4), rng.choice([1, 1, 2, 3, 7]))
                   for k in rng.sample(keys, rng.randint(0, len(keys)))}
        rows.append(row)
    return rows


class TestRankAgainstFractions:
    def test_random_families(self):
        rng = random.Random(5)
        ranks = set()
        for _ in range(3000):
            rows = random_family(rng)
            expected = rank_over_fractions(rows)
            assert linalg.rank(rows) == expected, rows
            ranks.add((len(rows), expected))
        assert any(r < n for n, r in ranks) and any(r == n > 2 for n, r in ranks)

    def test_integer_rows_with_large_entries(self):
        rng = random.Random(11)
        for _ in range(200):
            rows = [{j: rng.randint(-10 ** 12, 10 ** 12) for j in range(4)}
                    for _ in range(rng.randint(1, 6))]
            rows.append({j: sum(r.get(j, 0) for r in rows) for j in range(4)})
            assert linalg.rank(rows) == rank_over_fractions(rows)

    def test_catalog_rank_rows(self):
        case = load_catalog()["vii"]
        products = [Poly.one()]
        gens = case.ring_generators
        for g in gens:
            products += [p * g for p in products]
        rows = [p.terms for p in products]
        assert linalg.rank(rows) == rank_over_fractions(rows)
        assert linalg.rank([{0: 0}, {}, {1: Fraction(0)}]) == 0


@st.composite
def rational_families(draw, keys):
    """Sparse rational rows over `keys`, some of them combinations of earlier
    rows, so that top reduction cancels a pivot and may reach zero."""
    rows = []
    for _ in range(draw(st.integers(0, 8))):
        if rows and draw(st.booleans()):
            row = {}
            for earlier in draw(st.lists(st.sampled_from(rows), min_size=1, max_size=3)):
                c = draw(rationals)
                for k, v in earlier.items():
                    row[k] = row.get(k, 0) + c * v
        else:
            row = draw(st.dictionaries(st.sampled_from(keys), rationals, max_size=len(keys)))
        rows.append(row)
    return rows


int_keys = st.lists(st.integers(0, 1 << 80), min_size=1, max_size=6, unique=True)
tuple_keys = st.lists(st.tuples(st.sampled_from("ax"), st.integers(0, 3), st.integers(0, 3)),
                      min_size=1, max_size=6, unique=True)


class TestTopReduction:
    """`rank` keys each echelon row by its largest key."""

    @given(st.one_of(int_keys, tuple_keys).flatmap(rational_families))
    def test_against_fractions(self, rows):
        assert linalg.rank(rows) == rank_over_fractions(rows)

    @given(st.one_of(int_keys, tuple_keys).flatmap(rational_families))
    def test_order_of_rows_and_keys_does_not_matter(self, rows):
        reordered = [dict(reversed(row.items())) for row in reversed(rows)]
        assert linalg.rank(reordered) == linalg.rank(rows) == rank_over_fractions(rows)
