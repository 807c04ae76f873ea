"""Builders and adapters that only the tests use.

Torus characters are tables {(a, b): c} of the monomials t1^a t2^b: the
character of a binary-form module, the product of two characters, and the
symmetric and skew squares, which the stated decomposition rules of
`oracles` are checked against.  `lines_of` and `table_of` convert such a
table to and from the lines of a slice, and `decompose_character` runs the
production rule `series.decompose_slice` on it; `multiplicity_series` and
`slices_by` read a `MultiplicityTable` or a `TruncatedSeries` in the forms
the symmetrization and the per-degree checks take, `monomial_element`
builds one basis element a_i * Y^q of the envelope, `replace_case` copies
a catalog case with some of its texts changed, and `counted_products` records
the term pairs of every polynomial product made inside a block.
"""

import contextlib
from fractions import Fraction
from unittest import mock

from metalie import poly

from metalie.invariants import CatalogCase
from metalie.metabelian import ContextMismatch, WreathElement
from metalie.poly import Poly, encode, exact
from metalie.series import TruncatedSeries, decompose_slice

Character = dict[tuple[int, int], int]


def vk_character(k: int) -> Character:
    """Torus character of the degree-k binary form module."""
    return {(k - i, i): 1 for i in range(k + 1)}


def character_product(c1: Character, c2: Character) -> Character:
    out: Character = {}
    for (a1, b1), x in c1.items():
        for (a2, b2), y in c2.items():
            key = (a1 + a2, b1 + b2)
            s = out.get(key, 0) + x * y
            if s:
                out[key] = s
            else:
                out.pop(key, None)
    return out


def _doubled(c: Character) -> Character:
    return {(2 * a, 2 * b): x for (a, b), x in c.items()}


def _half_square(c: Character, sign: int) -> Character:
    """Half of c(t)^2 + sign * c(t^2), exactly: an int on a character."""
    square = character_product(c, c)
    doubled = _doubled(c)
    out: Character = {}
    for key in set(square) | set(doubled):
        s = exact(Fraction(square.get(key, 0) + sign * doubled.get(key, 0), 2))
        if s:
            out[key] = s
    return out


def symmetric_square_character(c: Character) -> Character:
    return _half_square(c, 1)


def skew_square_character(c: Character) -> Character:
    return _half_square(c, -1)


def lines_of(table) -> dict[int, list]:
    """A table {(a, b): c}, a, b >= 0, as the lines {t: [c(0, t), ..., c(t, 0)]}
    of a slice; a zero cell of the table still opens its line."""
    lines: dict[int, list] = {}
    for (a, b), c in table.items():
        lines.setdefault(a + b, [0] * (a + b + 1))[a] = c
    return lines


def table_of(lines) -> dict[tuple[int, int], int]:
    """The nonzero cells {(a, b): c} of a slice of lines."""
    return {(a, t - a): c for t, line in lines.items() for a, c in enumerate(line) if c}


def schur_multiplicities(found) -> dict[tuple[int, int], int]:
    """Multiplicity lines of `decompose_slice` as {(k, l): m}, top weight (k + l, l)."""
    return {(a - b, b): m for (a, b), m in table_of(found).items()}


def decompose_character(character) -> dict[tuple[int, int], int]:
    """Multiplicities {(k, l): m} of S_{(k+l,l)} in {(a, b): c}, a, b >= 0 (`decompose_slice`)."""
    return schur_multiplicities(decompose_slice(lines_of(character)))


def multiplicity_series(table) -> TruncatedSeries:
    """The series sum m_n(k,l) t1^(k+l) t2^l z^n of a `MultiplicityTable`."""
    coeffs = {(k + l, l, n): m for (n, k, l), m in table.entries.items()}
    return TruncatedSeries(("t1", "t2", "z"), table.truncation, coeffs, graded=("z",))


def slices_by(series: TruncatedSeries, var: str) -> dict:
    """Group the coefficients of a series by the exponent of one variable, dropping it."""
    idx = series.variables.index(var)
    out: dict = {}
    for exps, c in series.coefficients.items():
        out.setdefault(exps[idx], {})[exps[:idx] + exps[idx + 1:]] = c
    return out


def monomial_element(ctx, a_index, y_exponents) -> WreathElement:
    """Basis element a_i * Y^q of the envelope (or Y^q when a_index is None)."""
    if len(y_exponents) != ctx.dim:
        raise ContextMismatch("exponent vector has wrong length")
    mono = [(f"x{j + 1}", e) for j, e in enumerate(y_exponents) if e]
    if a_index is not None:
        if not 1 <= a_index <= ctx.dim:
            raise IndexError(f"index {a_index} out of range 1..{ctx.dim}")
        mono.append((f"a{a_index}", 1))
    return WreathElement(ctx, Poly.monomial(encode(mono)))


def replace_case(case: CatalogCase, **changes) -> CatalogCase:
    """A new case with the fields of `case`, those named in `changes` replaced;
    it starts with no parses, so it parses its texts again."""
    return CatalogCase(**{**{name: getattr(case, name) for name in CatalogCase._fields},
                          **changes})


@contextlib.contextmanager
def counted_products():
    """The term pairs of every `poly._mul_terms` call made inside the block."""
    pairs, real = [], poly._mul_terms

    def counted(a, b):
        pairs.append(len(a) * len(b))
        return real(a, b)
    with mock.patch.object(poly, "_mul_terms", counted):
        yield pairs
