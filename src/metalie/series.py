"""Truncated exact power series, Hilbert series, and character multiplicities.

A generator x_j of torus weight (p_j, q_j) contributes t1^p_j t2^q_j z, and
that substitution is a ring homomorphism, so the character of every degree
slice is built directly in weight space.  A slice is one list per total
weight t = a + b, its line [c(0, t), c(1, t - 1), ..., c(t, 0)], and every
step below works a line at a time with list operations:

  1. `weight_slices` folds in one geometric factor 1/(1 - t^w_j z) per
     generator for the polynomial ring P, adding line t into line
     t + p_j + q_j at offset p_j; the free metabelian algebra is
     1 + L + (L - 1) P with L = sum_j t^w_j z, and its commutator ideal is
     the same without the degrees <= 1 (`lie_slices`, from the slices of P),
  2. `invariant_dimension_series` grades by the weight difference s = p - q
     alone, every generator on one line (`weight_difference_counts`), and
     counts the invariants of degree n as c_n(0) - c_n(2) (Cayley-Sylvester),
  3. `decompose_slice` decomposes each slice by the rule
     m(k, l) = c_{k+l, l} - c_{k+l+1, l-1}, a difference of neighbours on a
     line (a character when every line is a palindrome and every m a
     nonnegative integer), and `symmetrizes_to` multiplies back by t1 - t2;
     `verify_catalog` runs both on the slices, and `extract_multiplicities`
     and `verify_symmetrization` take the same steps on the (t1, t2, z)
     series of `weight_character`.

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
from collections.abc import Mapping, Sequence
from fractions import Fraction
from operator import add, neg, sub

from .metabelian import _compositions
from .poly import ParseError, Poly, _PolyParser, _terms, exact, mono_degree, signed_sum, tokenize
from .record import Record
from .sl2 import ModuleSpec

Exponents = tuple[int, ...]


class NotACharacter(ValueError):
    """Raised when a slice fails to decompose with nonnegative multiplicities."""


class TruncationMismatch(ValueError):
    """Raised when series with incompatible shapes are combined."""


class TruncatedSeries(Record):
    """Power series with exact coefficients (see `poly.exact`), truncated in
    the graded variables.

    `graded` names the variables whose exponent sum is capped at `truncation`;
    the remaining variables (weights t1, t2) are carried along unbounded.
    """

    _fields = ("variables", "truncation", "coefficients", "graded")
    __hash__ = None

    def __init__(self, variables: tuple[str, ...], truncation: int,
                 coefficients: Mapping[Exponents, int | Fraction] | None = None,
                 graded: tuple[str, ...] | None = None):
        self.variables, self.truncation = variables, truncation
        self.graded = variables if graded is None else graded
        unknown = set(self.graded) - set(self.variables)
        if unknown:
            raise TruncationMismatch(f"graded variables {unknown} not declared")
        mask = self._mask()
        cleaned = {}
        for exps, c in (coefficients or {}).items():
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


def weight_slices(weights: Sequence[tuple[int, int]], truncation: int,
                  space: str = "polyring") -> list[dict[int, list]]:
    """Degree slices of the character of `space` on generators of the given
    torus weights (p, q), p, q >= 0, as lines {t: [c(0, t), ..., c(t, 0)]}.

    `space` is "polyring", "module" (commutator ideal) or "algebra" (the whole
    metabelian algebra).  The ring prod_j 1/(1 - t1^p_j t2^q_j z) is folded in
    one factor at a time; the algebra is 1 + L + (L - 1) P with L = sum_j
    t1^p_j t2^q_j z.
    """
    if space not in SPACES:
        raise ValueError(f"unknown space {space!r}")
    if truncation < 0:
        raise ValueError("need a nonnegative truncation")
    ring = [{0: [1]}] + [{} for _ in range(truncation)]
    for p, q in weights:
        for prev, row in zip(ring, ring[1:]):
            for t, src in prev.items():
                dst = row.get(t + p + q)
                if dst is None:
                    row[t + p + q] = [0] * p + src + [0] * q
                else:
                    e = p + len(src)
                    dst[p:e] = map(add, dst[p:e], src)
    return ring if space == "polyring" else lie_slices(ring, weights, space)


def lie_slices(ring: Sequence[Mapping[int, list]], weights: Sequence[tuple[int, int]],
               space: str = "module") -> list[dict[int, list]]:
    """The slices of the commutator ideal ("module") or of the whole
    metabelian algebra ("algebra"), 1 + L + (L - 1) P, from the slices `ring`
    of P = `weight_slices(weights, truncation)`: sum_w m_w t^w P_(n-1) - P_n
    in degree n >= 2, m_w generators of weight w, each term added into a line
    of P_n; `ring` is left unchanged."""
    if len(weights) < 2:
        raise ValueError("need at least two generators")
    truncation = len(ring) - 1
    slices = [{}, {t: line[:] for t, line in ring[1].items()}
              if space == "algebra" and truncation else {}]
    linear = Counter(weights)
    for n in range(2, truncation + 1):
        row = {t: list(map(neg, line)) for t, line in ring[n].items()}
        for (p, q), m in linear.items():
            for t, src in ring[n - 1].items():
                dst, e = row[t + p + q], p + len(src)
                dst[p:e] = map(add, dst[p:e], src if m == 1 else [m * c for c in src])
        slices.append(row)
    return slices[:truncation + 1]


def weight_character(spec: ModuleSpec, truncation: int,
                     space: str = "polyring") -> TruncatedSeries:
    """The (t1, t2, z) character of `space`, equal to `weight_substitute` of
    its multigraded Hilbert series: the cells of `weight_slices`."""
    coeffs = {(a, t - a, n): c
              for n, row in enumerate(weight_slices(spec.weights(), truncation, space))
              for t, line in row.items() for a, c in enumerate(line) if c}
    return TruncatedSeries(("t1", "t2", "z"), truncation, coeffs, graded=("z",))


def weight_difference_counts(spec: ModuleSpec, truncation: int, space: str,
                             differences: Sequence[int]) -> list[list]:
    """[[c_n(s) for s in differences] for n = 0..truncation]: the cells of
    weight difference s = p - q in the degree slices of `space`.  Every
    generator goes on one line, at ((s + k) / h, (k - s) / h) for k the
    largest block degree, h = 2 when every block degree has the parity of k
    (then so has every s) and 1 else: c_n(s) sits at index (s + n k) / h."""
    k = max(spec.blocks)
    h = 2 if len({b % 2 for b in spec.blocks}) == 1 else 1
    slices = weight_slices([((p - q + k) // h, (q - p + k) // h) for p, q in spec.weights()],
                           truncation, space)
    lines = [row.get(2 * k * n // h, ()) for n, row in enumerate(slices)]
    return [[line[i] if not r and 0 <= i < len(line) else 0
             for i, r in (divmod(s + n * k, h) for s in differences)]
            for n, line in enumerate(lines)]


def invariant_dimension_series(spec: ModuleSpec, truncation: int,
                               space: str = "polyring") -> TruncatedSeries:
    """Invariant dimensions of the chosen graded algebra (see `weight_slices`
    for `space`): c_n(0) - c_n(2) in the weight difference s = p - q."""
    coeffs = {(n,): c0 - c2 for n, (c0, c2)
              in enumerate(weight_difference_counts(spec, truncation, space, (0, 2)))}
    return TruncatedSeries(("z",), truncation, coeffs)


# -- the weight-difference rule ---------------------------------------------------


def decompose_slice(row: Mapping[int, list], degree: int | None = None) -> dict[int, list]:
    """Multiplicities of the S_(k+l, l) in the slice `row` as lines {t: F},
    F[k + l] = m(k, l) = c(k+l, l) - c(k+l+1, l-1) on the line t = k + 2 l:
    F[a] = L[a] - L[a + 1] for a >= t / 2, and 0 below.  The slice is a
    character exactly when every line is symmetric, L == L[::-1], and these m,
    which telescope back to c, are nonnegative integers; else NotACharacter
    is raised, naming `degree` if given.  Line t holds t + 1 cells."""
    where = "" if degree is None else f"degree {degree} slice: "
    result = {}
    for t, line in row.items():
        if line != line[::-1]:
            raise NotACharacter(f"{where}weight table is not symmetric under t1 <-> t2")
        h = (t + 1) // 2
        found = list(map(sub, line[h:], line[h + 1:] + [0]))
        if min(found) < 0 or type(sum(found)) is not int:  # a Fraction makes the sum one
            for a, m in enumerate(found, start=h):
                if m < 0 or m.denominator != 1:
                    raise NotACharacter(f"{where}multiplicity {m} at weight {(a, t - a)}")
            found = list(map(int, found))
        result[t] = [0] * h + found
    return result


def symmetrizes_to(multiplicities: Mapping[int, list], row: Mapping[int, list]) -> bool:
    """Whether the slice `row` is (t1*f(t1,t2) - t2*f(t2,t1)) / (t1 - t2) for
    the lines f = `multiplicities`, tested by multiplying back line by line:
    (t1 - t2) * L == t1*F - t2*F reversed, [0]+L - (L+[0]) against
    [0]+F - (F[::-1]+[0]), the same exact test as dividing in Z[t1, t2].
    Line t holds t + 1 cells; a line absent from one side is zero there."""
    for t in row.keys() | multiplicities.keys():
        line = row.get(t) or [0] * (t + 1)
        f = multiplicities.get(t) or [0] * (t + 1)
        # the two sides with the subtracted terms moved across
        if list(map(add, [0, *line], [*f[::-1], 0])) != list(map(add, [0, *f], [*line, 0])):
            return False
    return True


def _lines(table: Mapping[Exponents, int | Fraction], truncation: int) -> list[dict[int, list]]:
    """A table {(a, b, n): c} as slices of lines, degrees 0..truncation."""
    slices = [{} for _ in range(truncation + 1)]
    for (a, b, n), c in table.items():
        slices[n].setdefault(a + b, [0] * (a + b + 1))[a] = c
    return slices


# -- multiplicity tables ----------------------------------------------------------


class MultiplicityTable(Record):
    """Multiplicities m_n(k, l) of det^l (x) V_k inside each degree slice."""

    _fields = ("truncation", "entries")
    __hash__ = None

    def __init__(self, truncation: int, entries: dict[tuple[int, int, int], int] | None = None):
        self.truncation = truncation
        self.entries = {} if entries is None else entries

    def multiplicity(self, n: int, k: int, l: int) -> int:
        return self.entries.get((n, k, l), 0)

    def invariant_dimension(self, n: int) -> int:
        return sum(m for (deg, k, _), m in self.entries.items() if deg == n and k == 0)


def extract_multiplicities(hgl: TruncatedSeries) -> MultiplicityTable:
    """Decompose every degree slice of a weight-substituted Hilbert series."""
    if hgl.variables != ("t1", "t2", "z") or hgl.graded != ("z",):
        raise TruncationMismatch("expected a series in (t1, t2, z) graded by z")
    return MultiplicityTable(hgl.truncation, {
        (n, 2 * a - t, t - a): m for n, row in enumerate(_lines(hgl.coefficients, hgl.truncation))
        for t, found in decompose_slice(row, n).items() for a, m in enumerate(found) if m})


def verify_symmetrization(candidate: TruncatedSeries, hgl: TruncatedSeries) -> bool:
    """Check hgl == (t1*f(t1,t2,z) - t2*f(t2,t1,z)) / (t1 - t2) for the
    multiplicity series f, slice by slice (`symmetrizes_to`)."""
    if candidate.variables != ("t1", "t2", "z") or hgl.variables != ("t1", "t2", "z"):
        raise TruncationMismatch("expected series in (t1, t2, z)")
    if candidate.truncation != hgl.truncation:
        raise TruncationMismatch("truncations differ")
    found, rows = (_lines(s.coefficients, hgl.truncation) for s in (candidate, hgl))
    return all(symmetrizes_to(f, row) for f, row in zip(found, rows))


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
    parser = _PolyParser(tokenize(text))
    numerator, factors = Poly(_terms(parser.sum())), []
    if not parser.accept_op("/"):
        parser.expect_end()
        return numerator, factors
    while True:
        at_end = parser.tokens[parser.pos][0] == "end"
        if parser.accept_op("("):
            factor = Poly(_terms(parser.sum()))
            parser.expect_op(")")
            power = parser.accept_exponent()
            factors.extend([factor] * (power[0] if power else 1))
            if parser.tokens[parser.pos][0] == "end":
                break
        elif at_end and factors:
            break
        elif not parser.accept_op("*"):
            raise ParseError("missing denominator after '/'") if at_end else parser.unexpected()
    return numerator, factors

