"""Truncated exact power series, Hilbert series, and character multiplicities.

A generator x_j of torus weight (p_j, q_j) contributes t1^p_j t2^q_j z, and
that substitution is a ring homomorphism, so the character of every degree
slice is built directly in weight space:

  1. `weight_slices` folds in one geometric factor 1/(1 - t^w_j z) per
     generator for the polynomial ring P; the free metabelian algebra is
     1 + L + (L - 1) P with L = sum_j t^w_j z, and its commutator ideal is
     the same without the degrees <= 1 (`lie_slices`, from the slices of P),
  2. `invariant_dimension_series` grades by the weight difference s = p - q
     and counts the invariants of degree n as c_n(0) - c_n(2)
     (Cayley-Sylvester),
  3. on weights packed as p * base + q (`weight_packing`), `decompose_slice`
     decomposes each slice by the rule m(k, l) = c_{k+l, l} - c_{k+l+1, l-1}
     (a character when symmetric with every m a nonnegative integer), and
     `symmetrizes_to` multiplies back by t1 - t2; `verify_catalog` runs both
     on the packed slices, and `extract_multiplicities` and
     `verify_symmetrization` take the same steps on the (t1, t2, z) series of
     `weight_character`.

The multigraded series `hilbert_polyring`, `hilbert_metabelian` and
`hilbert_metabelian_module`, collapsed by `weight_substitute`, enumerate all
C(N + d, d) monomials in z_1..z_d; they stay as the independent oracle the
direct construction is tested against.

Everything is exact: coefficients, characters and multiplicities are
`int`, and a `Fraction` appears only where a division happens
(`expand_rational` divides by the constant terms of the denominator
factors, and stays in `int` when they are 1 or -1).  Series arithmetic
drops terms beyond the truncation bound eagerly.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Mapping, Sequence

from .metabelian import _compositions
from .poly import (ParseError, Poly, TokenStream, _PolyParser, describe_token, exact,
                   mono_degree, signed_sum, tokenize)
from .sl2 import ModuleSpec

Exponents = tuple[int, ...]


class NotACharacter(ValueError):
    """Raised when a slice fails to decompose with nonnegative multiplicities."""


class TruncationMismatch(ValueError):
    """Raised when series with incompatible shapes are combined."""


@dataclass(eq=False)
class TruncatedSeries:
    """Power series with exact coefficients (see `poly.exact`), truncated in
    the graded variables.

    `graded` names the variables whose exponent sum is capped at `truncation`;
    the remaining variables (weights t1, t2) are carried along unbounded.
    """

    variables: tuple[str, ...]
    truncation: int
    coefficients: dict[Exponents, int | Fraction] = field(default_factory=dict)
    graded: tuple[str, ...] = None

    def __post_init__(self):
        if self.graded is None:
            self.graded = self.variables
        unknown = set(self.graded) - set(self.variables)
        if unknown:
            raise TruncationMismatch(f"graded variables {unknown} not declared")
        mask = self._mask()
        cleaned = {}
        for exps, c in self.coefficients.items():
            if len(exps) != len(self.variables):
                raise TruncationMismatch("exponent vector length mismatch")
            if type(c) is not int:
                c = exact(c)
            if c and self._graded_degree(exps, mask) <= self.truncation:
                cleaned[exps] = c
        self.coefficients = cleaned

    def _mask(self) -> tuple[int, ...]:
        return tuple(i for i, v in enumerate(self.variables) if v in self.graded)

    @staticmethod
    def _graded_degree(exps: Exponents, mask: Sequence[int]) -> int:
        return sum(exps[i] for i in mask)

    # -- constructors --------------------------------------------------------

    @classmethod
    def zero(cls, variables, truncation, graded=None) -> "TruncatedSeries":
        return cls(tuple(variables), truncation, {}, graded)

    @classmethod
    def one(cls, variables, truncation, graded=None) -> "TruncatedSeries":
        variables = tuple(variables)
        return cls(variables, truncation, {(0,) * len(variables): 1}, graded)

    @classmethod
    def term(cls, variables, truncation, exps, coeff=1, graded=None) -> "TruncatedSeries":
        return cls(tuple(variables), truncation, {tuple(exps): coeff}, graded)

    # -- arithmetic ----------------------------------------------------------

    def _compatible(self, other: "TruncatedSeries"):
        if (self.variables, self.truncation, self.graded) != \
                (other.variables, other.truncation, other.graded):
            raise TruncationMismatch("series shapes differ")

    def __eq__(self, other) -> bool:
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        return (self.variables, self.truncation, self.graded, self.coefficients) == \
            (other.variables, other.truncation, other.graded, other.coefficients)

    def __add__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        self._compatible(other)
        coeffs = dict(self.coefficients)
        for exps, c in other.coefficients.items():
            s = coeffs.get(exps, 0) + c
            if s:
                coeffs[exps] = s
            else:
                coeffs.pop(exps, None)
        return TruncatedSeries(self.variables, self.truncation, coeffs, self.graded)

    def __neg__(self) -> "TruncatedSeries":
        return TruncatedSeries(self.variables, self.truncation,
                               {e: -c for e, c in self.coefficients.items()}, self.graded)

    def __sub__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        return self + (-other)

    def __mul__(self, other) -> "TruncatedSeries":
        if isinstance(other, (int, Fraction)):
            return TruncatedSeries(self.variables, self.truncation,
                                   {e: c * other for e, c in self.coefficients.items()},
                                   self.graded)
        self._compatible(other)
        mask = self._mask()
        coeffs: dict[Exponents, int | Fraction] = {}
        for e1, c1 in self.coefficients.items():
            for e2, c2 in other.coefficients.items():
                exps = tuple(a + b for a, b in zip(e1, e2))
                if self._graded_degree(exps, mask) > self.truncation:
                    continue
                s = coeffs.get(exps, 0) + c1 * c2
                if s:
                    coeffs[exps] = s
                else:
                    coeffs.pop(exps, None)
        return TruncatedSeries(self.variables, self.truncation, coeffs, self.graded)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "TruncatedSeries":
        if n < 0:
            raise ValueError("negative power of a truncated series")
        acc = TruncatedSeries.one(self.variables, self.truncation, self.graded)
        for _ in range(n):
            acc = acc * self
        return acc

    # -- access ----------------------------------------------------------------

    def coefficient(self, exps: Exponents) -> int | Fraction:
        return self.coefficients.get(tuple(exps), 0)

    def univariate_coefficients(self) -> list[int | Fraction]:
        """Coefficient list [c_0, ..., c_N] of a single-variable series."""
        if len(self.variables) != 1:
            raise TruncationMismatch("not a univariate series")
        return [self.coefficients.get((n,), 0) for n in range(self.truncation + 1)]

    def __str__(self) -> str:
        items = sorted(self.coefficients.items(), key=lambda item: (sum(item[0]), item[0]))
        return signed_sum((c, "*".join(f"{v}^{e}" if e > 1 else v
                                       for v, e in zip(self.variables, exps) if e))
                          for exps, c in items)


# -- multigraded Hilbert series: the enumeration oracle ---------------------------


def _z_variables(d: int) -> tuple[str, ...]:
    return tuple(f"z{j}" for j in range(1, d + 1))


def hilbert_polyring(d: int, truncation: int) -> TruncatedSeries:
    """Multigraded Hilbert series of the polynomial algebra in d variables:
    every monomial appears with coefficient one.  The exponent vectors of
    sum at most `truncation` are the compositions of `truncation` into d + 1
    parts with the last part dropped."""
    if d < 1 or truncation < 0:
        raise ValueError("need d >= 1 and a nonnegative truncation")
    coeffs = {exps[:d]: 1 for exps in _compositions(truncation, d + 1)}
    return TruncatedSeries(_z_variables(d), truncation, coeffs)


def hilbert_metabelian(d: int, truncation: int) -> TruncatedSeries:
    """Multigraded Hilbert series of the free metabelian Lie algebra:
    1 + sum z_j + (sum z_j - 1) * prod 1/(1 - z_j), truncated."""
    if d < 2:
        raise ValueError("need at least two generators")
    variables = _z_variables(d)
    full = hilbert_polyring(d, truncation)
    linear = TruncatedSeries.zero(variables, truncation)
    for j in range(d):
        exps = tuple(1 if i == j else 0 for i in range(d))
        linear = linear + TruncatedSeries.term(variables, truncation, exps)
    one = TruncatedSeries.one(variables, truncation)
    return one + linear + (linear - one) * full


def hilbert_metabelian_module(d: int, truncation: int) -> TruncatedSeries:
    """Hilbert series of the commutator ideal: drop the degree <= 1 part."""
    series = hilbert_metabelian(d, truncation)
    coeffs = {e: c for e, c in series.coefficients.items() if sum(e) >= 2}
    return TruncatedSeries(series.variables, truncation, coeffs)


def weight_substitute(h: TruncatedSeries, spec: ModuleSpec) -> TruncatedSeries:
    """Replace z_j by t1^p t2^q z where (p, q) is the torus weight of x_j.

    The result collects, for each total degree, the character of the degree
    slice as a symmetric polynomial in t1, t2.
    """
    d = spec.dimension
    if h.variables != _z_variables(d):
        raise TruncationMismatch(
            f"series in {len(h.variables)} variables against a rank-{d} specification")
    weights = spec.weights()
    coeffs: dict[Exponents, int | Fraction] = {}
    for exps, c in h.coefficients.items():
        t1 = sum(e * w[0] for e, w in zip(exps, weights))
        t2 = sum(e * w[1] for e, w in zip(exps, weights))
        key = (t1, t2, sum(exps))
        s = coeffs.get(key, 0) + c
        if s:
            coeffs[key] = s
        else:
            coeffs.pop(key, None)
    return TruncatedSeries(("t1", "t2", "z"), h.truncation, coeffs, graded=("z",))


# -- the weight-space character ---------------------------------------------------

SPACES = ("polyring", "module", "algebra")


def weight_slices(weights: Sequence[int], truncation: int,
                  space: str = "polyring") -> list[dict[int, int]]:
    """Degree slices [{weight: count}, ...] of the character of `space` on
    generators of the given integer weights.

    `space` is "polyring", "module" (commutator ideal) or "algebra" (the whole
    metabelian algebra).  The ring prod_j 1/(1 - t^w_j z) is folded in one
    factor at a time; the algebra is 1 + L + (L - 1) P with L = sum_j t^w_j z.
    """
    if space not in SPACES:
        raise ValueError(f"unknown space {space!r}")
    if truncation < 0:
        raise ValueError("need a nonnegative truncation")
    ring = [{0: 1}] + [{} for _ in range(truncation)]
    for w in weights:
        for n in range(1, truncation + 1):
            row = ring[n]
            for a, c in ring[n - 1].items():
                row[a + w] = row.get(a + w, 0) + c
    return ring if space == "polyring" else lie_slices(ring, weights, space)


def lie_slices(ring: Sequence[Mapping[int, int]], weights: Sequence[int],
               space: str = "module") -> list[dict[int, int]]:
    """The slices of the commutator ideal ("module") or of the whole
    metabelian algebra ("algebra"), 1 + L + (L - 1) P, from the slices `ring`
    of P = `weight_slices(weights, truncation)`; `ring` is left unchanged."""
    if len(weights) < 2:
        raise ValueError("need at least two generators")
    truncation = len(ring) - 1
    slices = [{}, dict(ring[1]) if space == "algebra" and truncation else {}]
    linear = Counter(weights)
    for n in range(2, truncation + 1):
        row = {a: -c for a, c in ring[n].items()}
        for w, m in linear.items():
            for a, c in ring[n - 1].items():
                row[a + w] = row.get(a + w, 0) + m * c
        slices.append({a: c for a, c in row.items() if c})
    return slices[:truncation + 1]


def weight_packing(spec: ModuleSpec, truncation: int) -> tuple[int, list[int]]:
    """(base, packed weights p * base + q), base two above every t1 or t2
    exponent up to the truncation, as `symmetrizes_to` needs."""
    base = truncation * max(spec.blocks) + 2
    return base, [p * base + q for p, q in spec.weights()]


def weight_character(spec: ModuleSpec, truncation: int,
                     space: str = "polyring") -> TruncatedSeries:
    """The (t1, t2, z) character of `space`, equal to `weight_substitute` of
    its multigraded Hilbert series: `weight_slices` on packed weights."""
    base, weights = weight_packing(spec, truncation)
    coeffs = {(*divmod(key, base), n): c
              for n, row in enumerate(weight_slices(weights, truncation, space))
              for key, c in row.items()}
    return TruncatedSeries(("t1", "t2", "z"), truncation, coeffs, graded=("z",))


def invariant_dimension_series(spec: ModuleSpec, truncation: int,
                               space: str = "polyring") -> TruncatedSeries:
    """Invariant dimensions of the chosen graded algebra (see `weight_slices`
    for `space`): c_n(0) - c_n(2) in the weight difference s = p - q."""
    slices = weight_slices([p - q for p, q in spec.weights()], truncation, space)
    coeffs = {(n,): row.get(0, 0) - row.get(2, 0) for n, row in enumerate(slices)}
    return TruncatedSeries(("z",), truncation, coeffs)


# -- the weight-difference rule ---------------------------------------------------


def decompose_slice(row: Mapping[int, int | Fraction], base: int,
                    degree: int | None = None) -> dict[int, int]:
    """Multiplicities {(k + l) * base + l: m} of S_{(k+l, l)} in the packed
    slice {a * base + b: c(a, b)}, by m(k, l) = c(k+l, l) - c(k+l+1, l-1)
    taken at every (a, b), a >= b, where c(a, b) or c(a+1, b-1) is nonzero.
    The slice is a character exactly when it is symmetric under t1 <-> t2
    and these m, which telescope back to c, are nonnegative integers; else
    NotACharacter is raised, naming `degree` if given.  Exponents < base - 1.

    Only cells with a >= b are read (a zero cell is absent): those with a > b
    must equal their mirrors, and as many cells must have a < b.  Each m is
    taken once, from its own cell, or from (a, b) when c(a-1, b+1) is empty."""
    where = "" if degree is None else f"degree {degree} slice: "
    result: dict[int, int] = {}
    below = 0
    get = row.get
    for key, v in row.items():
        if not v:
            continue
        a, b = divmod(key, base)
        if a < b:
            below += 1
            continue
        if a > b:
            if get(b * base + a, 0) != v:
                raise NotACharacter(f"{where}weight table is not symmetric under t1 <-> t2")
            below -= 1
        # m(a, b), b = 0 reading the empty (a, base-1), and m(a-1, b+1) if its cell is empty
        for top, m in ((key, v - get(key + base - 1, 0)),
                       (key - base + 1, 0 if a < b + 2 or get(key - base + 1) else -v)):
            if m:
                if m < 0 or m.denominator != 1:
                    raise NotACharacter(f"{where}multiplicity {m} at weight {divmod(top, base)}")
                result[top] = int(m)
    if below:
        raise NotACharacter(f"{where}weight table is not symmetric under t1 <-> t2")
    return result


def symmetrizes_to(multiplicities: Mapping[int, int], row: Mapping[int, int], base: int) -> bool:
    """Whether the packed slice `row` (no zero entries) is (t1*f(t1,t2) -
    t2*f(t2,t1)) / (t1 - t2) for f = {a * base + b: m}, tested by multiplying
    back: (t1 - t2) * row == t1*f(t1,t2) - t2*f(t2,t1), the same exact test
    as dividing in Z[t1, t2].  Exponents < base - 1, so no cell carries."""
    diff: dict[int, int] = {}  # the left side minus the right
    get = diff.get
    for key, c in row.items():
        diff[key + base] = get(key + base, 0) + c
        diff[key + 1] = get(key + 1, 0) - c
    for key, m in multiplicities.items():
        a, b = divmod(key, base)
        diff[key + base] = get(key + base, 0) - m
        diff[b * base + a + 1] = get(b * base + a + 1, 0) + m
    return not any(diff.values())


def _packed_slices(*tables: Mapping[Exponents, int | Fraction]):
    """Tables {(a, b, n): c} as packed slices [{a * base + b: c}, ...], one base."""
    keys = [key for table in tables for key in table]
    base = 2 + max((max(a, b) for a, b, _ in keys), default=0)
    packed = [[{} for _ in range(1 + max((n for *_, n in keys), default=0))] for _ in tables]
    for table, slices in zip(tables, packed):
        for (a, b, n), c in table.items():
            slices[n][a * base + b] = c
    return base, packed


# -- multiplicity tables ----------------------------------------------------------


@dataclass(eq=True)
class MultiplicityTable:
    """Multiplicities m_n(k, l) of det^l (x) V_k inside each degree slice."""

    truncation: int
    entries: dict[tuple[int, int, int], int] = field(default_factory=dict)

    def multiplicity(self, n: int, k: int, l: int) -> int:
        return self.entries.get((n, k, l), 0)

    def invariant_dimension(self, n: int) -> int:
        return sum(m for (deg, k, _), m in self.entries.items() if deg == n and k == 0)


def extract_multiplicities(hgl: TruncatedSeries) -> MultiplicityTable:
    """Decompose every degree slice of a weight-substituted Hilbert series."""
    if hgl.variables != ("t1", "t2", "z") or hgl.graded != ("z",):
        raise TruncationMismatch("expected a series in (t1, t2, z) graded by z")
    base, [slices] = _packed_slices(hgl.coefficients)
    return MultiplicityTable(hgl.truncation, {
        (n, x - y, y): m for n, row in enumerate(slices)
        for top, m in decompose_slice(row, base, n).items() for x, y in [divmod(top, base)]})


def verify_symmetrization(candidate: TruncatedSeries, hgl: TruncatedSeries) -> bool:
    """Check hgl == (t1*f(t1,t2,z) - t2*f(t2,t1,z)) / (t1 - t2) for the
    multiplicity series f, slice by slice (`symmetrizes_to`)."""
    if candidate.variables != ("t1", "t2", "z") or hgl.variables != ("t1", "t2", "z"):
        raise TruncationMismatch("expected series in (t1, t2, z)")
    if candidate.truncation != hgl.truncation:
        raise TruncationMismatch("truncations differ")
    base, (found, rows) = _packed_slices(candidate.coefficients, hgl.coefficients)
    return all(symmetrizes_to(m, row, base) for m, row in zip(found, rows))


# -- rational function expansion -----------------------------------------------


def expand_rational(numerator: Poly, denominator_factors: Sequence[Poly],
                    truncation: int) -> TruncatedSeries:
    """Taylor expansion of numerator / prod(factors) in one variable, exact.

    Divides by one factor f = c_0 + f_1 z + ... at a time: the quotient a of
    a series b by f satisfies a_n = (b_n - sum_{k>=1} f_k a_(n-k)) / c_0.  The
    coefficients stay `int` while every c_0 is 1 or -1.  Every factor must
    have a nonzero constant term.
    """
    variables = set(numerator.variables())
    for f in denominator_factors:
        variables |= set(f.variables())
    if len(variables) > 1:
        raise ValueError(f"rational function uses several variables: {sorted(variables)}")
    var = variables.pop() if variables else "z"

    def to_list(p: Poly) -> list[int | Fraction]:
        coeffs = [0] * (truncation + 1)
        for m, c in p.terms.items():
            exp = mono_degree(m)
            if exp <= truncation:
                coeffs[exp] = c
        return coeffs

    acc = to_list(numerator)
    for f in denominator_factors:
        c0 = f.constant_term()
        if not c0:
            raise ValueError(f"denominator factor {f} has zero constant term")
        tail = [(k, c) for k, c in enumerate(to_list(f)) if k and c]
        for n in range(truncation + 1):
            b = acc[n] - sum(c * acc[n - k] for k, c in tail if k <= n)
            acc[n] = b if c0 == 1 else -b if c0 == -1 else exact(Fraction(b) / c0)
    return TruncatedSeries((var,), truncation, {(n,): c for n, c in enumerate(acc) if c})


def parse_rational_function(text: str) -> tuple[Poly, list[Poly]]:
    """Parse `z^2 / (1-z^2)(1-z^3)^2` style input into numerator and factors."""
    stream = TokenStream(tokenize(text))
    numerator = _PolyParser(stream).parse_expression()
    factors: list[Poly] = []
    if stream.accept_op("/"):
        while True:
            kind, tok, pos = stream.peek()
            if kind == "op" and tok == "(":
                stream.next()
                factor = _PolyParser(stream).parse_expression()
                stream.expect_op(")")
                power = stream.accept_exponent()
                factors.extend([factor] * (power[0] if power else 1))
            elif kind == "op" and tok == "*":
                stream.next()
                continue
            elif kind == "end":
                if not factors:
                    raise ParseError("missing denominator after '/'")
                break
            else:
                raise ParseError(f"unexpected {describe_token(kind, tok)} at position {pos}")
            kind, tok, _ = stream.peek()
            if kind == "end":
                break
    else:
        stream.expect_end()
    return numerator, factors

