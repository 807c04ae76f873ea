"""The free metabelian Lie algebra inside its wreath-product Poisson envelope.

The ambient algebra is the commutative algebra on a1..ad, y1..yd modulo all
products a_i*a_j, carrying the Poisson bracket determined by

    [a_i * Y^p, Y^q] = (q_1 + ... + q_d) * a_i * Y^{p+q},
    [Y^p, Y^q] = [a_i * Y^p, a_j * Y^q] = 0.

The Lie subalgebra generated by x_j = a_j + y_j is the free metabelian Lie
algebra on d generators; its commutator ideal consists of the elements
sum a_i*f_i(Y) with sum y_i*f_i(Y) = 0, and has the left-normed basis
[x_{j1}, x_{j2}, ..., x_{jk}] with j1 > j2 <= j3 <= ... <= jk.  The ideal is
a K[X]-module through u * p = u p(ad x_1, ..., ad x_d), where ad x_j is
multiplication by y_j; so y_j is stored as x_j, and printed as y_j.

That word is (a_{j1} y_{j2} - a_{j2} y_{j1}) y_{j3} ... y_{jk}.  Its term
a_{j1} Y^q has j1 above the smallest index of q, and no other basis word has
such a term, so the expansion of an ideal element is read off its monomials:
each term c a_i Y^q with i > min(q) contributes c [x_i, x_{q1}, ..., x_{qm}]
(q1 <= ... <= qm), and no other term contributes.  Everything here is exact
and immutable; all operations are pure functions.  A Lie expression is parsed
into the function that builds its element from a `LieContext`, not into a tree.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable, Mapping, Sequence
from fractions import Fraction
from functools import reduce

from .poly import (W, _FIELD, Monomial, ParseError, Poly, UsageError, _accumulate, _PolyParser,
                   _check_term_pairs, _terms, decode, encode, exact, fields, letter_mask,
                   mono_degree, signed_sum, slot, slot_key, slot_name, tokenize, var_key)
from .record import Record


class ContextMismatch(UsageError):
    """Raised when elements of algebras of different rank are combined."""


class NotInCommutatorIdeal(UsageError):
    """Raised when an operation requires an element of the commutator ideal."""


def require_variables(p: Poly, letters: str, dim: int) -> None:
    """Raise `ContextMismatch` unless each variable of p is <c>1..<c>dim for a
    letter c of `letters`, naming the first other one in variable order
    (`var_key`, then name), so the message never depends on slot order."""
    for s, _ in fields(p.support()):
        letter, index = slot_key(s)
        if len(letter) > 1 or letter not in letters or not 1 <= index <= dim:
            bad = [s for s, _ in fields(p.support())
                   if slot_key(s)[0] not in tuple(letters) or not 1 <= slot_key(s)[1] <= dim]
            first = slot_name(min(bad, key=lambda s: (slot_key(s), slot_name(s))))
            raise ContextMismatch(f"variable {first} is not one of "
                                  + ", ".join(f"{c}1..{c}{dim}" for c in letters))


class LieContext(Record):
    """Fixes the rank d; all elements carry their context."""

    _fields = ("dim",)

    def __init__(self, dim: int):
        if dim < 1:
            raise ValueError("rank must be at least 1")
        self.dim = dim

    def zero(self) -> "WreathElement":
        return WreathElement(self, Poly.zero())

    def generator(self, j: int) -> "WreathElement":
        """The Lie generator x_j = a_j + y_j, stored as a_j + x_j."""
        if not 1 <= j <= self.dim:
            raise IndexError(f"generator index {j} out of range 1..{self.dim}")
        return WreathElement(self, Poly.variable(f"a{j}") + Poly.variable(f"x{j}"))

    def embed_poly(self, p: Poly) -> "WreathElement":
        """Image of p(x1,...,xd) under x_j -> a_j + y_j, computed by arithmetic
        in the envelope (products truncate the a-part at degree one)."""
        require_variables(p, "x", self.dim)
        acc = self.zero()
        for mono, coeff in p.terms.items():
            term = WreathElement(self, Poly.const(coeff))
            for v, e in decode(mono):
                term = term * (self.generator(var_key(v)[1]) ** e)
            acc = acc + term
        return acc


def _euler(p: Poly) -> Poly:
    """Euler operator sum_v v * d/dv; scales each monomial by its degree."""
    return Poly({m: c * mono_degree(m) for m, c in p.terms.items()})


class WreathElement:
    """Element of the Poisson envelope: a polynomial in the y's plus a sum
    of a_i times polynomials in the y's.

    Stored as a single polynomial in the a- and x-variables, x_j standing for
    y_j, whose a-degree is at most one.  The wreath product proper consists of
    the elements whose y-part is linear; membership in the embedded Lie algebra
    and in its commutator ideal is decided by `lie_parts` and
    `is_in_commutator_ideal`.
    Elements are immutable, so ideal membership is decided at most once per
    element and kept; `ad_action` results are members from the start, since
    the ideal is closed under the module action.
    """

    __slots__ = ("ctx", "poly", "_in_ideal")

    def __init__(self, ctx: LieContext, poly: Poly):
        require_variables(poly, "ax", ctx.dim)
        a_mask = letter_mask("a")
        if any(mono_degree(m & a_mask) > 1 for m in poly.terms):
            raise ContextMismatch("a-degree exceeds one; not reduced")
        self.ctx = ctx
        self.poly = poly
        self._in_ideal: bool | None = None

    # -- helpers -------------------------------------------------------------

    def _check(self, other: "WreathElement"):
        if self.ctx.dim != other.ctx.dim:
            raise ContextMismatch("elements from algebras of different rank")

    def split(self) -> tuple[Poly, dict[int, Poly]]:
        """Return (y-only part, {i: coefficient of a_i}); coefficients in K[Y]."""
        y_terms: dict[Monomial, int | Fraction] = {}
        a_parts: dict[Monomial, dict[Monomial, int | Fraction]] = {}
        a_mask = letter_mask("a")
        for m, c in self.poly.terms.items():
            a = m & a_mask
            if a:
                a_parts.setdefault(a, {})[m - a] = c
            else:
                y_terms[m] = c
        return Poly(y_terms), {_index(a): Poly(t) for a, t in a_parts.items()}

    # -- algebra -------------------------------------------------------------

    def __eq__(self, other) -> bool:
        if not isinstance(other, WreathElement):
            return NotImplemented
        return self.ctx.dim == other.ctx.dim and self.poly == other.poly

    __hash__ = None

    def is_zero(self) -> bool:
        return self.poly.is_zero()

    def __add__(self, other: "WreathElement") -> "WreathElement":
        self._check(other)
        return _wrap(self.ctx, self.poly + other.poly)

    def __sub__(self, other: "WreathElement") -> "WreathElement":
        self._check(other)
        return _wrap(self.ctx, self.poly - other.poly)

    def __neg__(self) -> "WreathElement":
        return _wrap(self.ctx, -self.poly)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return _wrap(self.ctx, self.poly * other)
        if isinstance(other, WreathElement):
            self._check(other)
            product = self.poly * other.poly
            a_mask = letter_mask("a")
            reduced = {m: c for m, c in product.terms.items() if mono_degree(m & a_mask) <= 1}
            return _wrap(self.ctx, Poly(reduced))
        return NotImplemented

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "WreathElement":
        if n < 0:
            raise ValueError("negative power of an envelope element")
        result = WreathElement(self.ctx, Poly.one())
        for _ in range(n):
            result = result * self
        return result

    def bracket(self, other: "WreathElement", what: str = "bracket") -> "WreathElement":
        """Poisson bracket, held to `MAX_TERM_PAIRS` under the label `what`; restricted
        to the Lie subalgebra it is the bracket of the free metabelian algebra."""
        self._check(other)
        (u0, u_parts), (v0, v_parts) = self.split(), other.split()
        return _wrap(self.ctx, _poisson((_euler(u0), u_parts), (_euler(v0), v_parts), what))

    def ad_action(self, p: Poly) -> "WreathElement":
        """Right module action u * p(x1,...,xd) = u p(ad x1, ..., ad xd),
        defined on the commutator ideal."""
        if not self.is_in_commutator_ideal():
            raise NotInCommutatorIdeal("module action is defined on the commutator ideal only")
        require_variables(p, "x", self.ctx.dim)
        return _wrap(self.ctx, self.poly * p, in_ideal=True)

    # -- membership ----------------------------------------------------------

    def is_in_commutator_ideal(self) -> bool:
        """True when the y-part vanishes and sum_i y_i * f_i(Y) = 0; decided
        once per element."""
        if self._in_ideal is None:
            y_part, a_parts = self.split()
            self._in_ideal = y_part.is_zero() and _y_sum(a_parts).is_zero()
        return self._in_ideal

    def lie_parts(self) -> tuple[dict[int, int | Fraction], "WreathElement"] | None:
        """({j: c_j}, u - sum c_j x_j) for an element u of the embedded algebra whose
        y-part is sum c_j y_j, the second in the commutator ideal; None for any other
        u.  One split decides it: sum_i y_i f_i = sum c_j y_j for the a-coefficients f_i."""
        y_part, a_parts = self.split()
        if any(mono_degree(m) != 1 for m in y_part.terms) or _y_sum(a_parts) != y_part:
            return None
        linear = {_index(m): c for m, c in y_part.terms.items()}
        shift = sum((c * self.ctx.generator(j).poly for j, c in linear.items()), Poly.zero())
        return linear, _wrap(self.ctx, self.poly - shift, in_ideal=True)

    # -- grading ---------------------------------------------------------------

    def total_degree(self) -> int:
        return self.poly.total_degree()

    def is_homogeneous(self) -> bool:
        return self.poly.is_homogeneous()

    def __str__(self) -> str:
        return str(self.poly.rename({f"x{j}": f"y{j}" for j in range(1, self.ctx.dim + 1)}))

    def __repr__(self) -> str:
        return f"WreathElement(d={self.ctx.dim}, {self})"


def _wrap(ctx: LieContext, poly: Poly, in_ideal: bool | None = None) -> WreathElement:
    """A `WreathElement` of a polynomial known to be reduced and in the a/x
    alphabets of rank ctx.dim, built without the checks of `__init__`."""
    out = WreathElement.__new__(WreathElement)
    out.ctx, out.poly, out._in_ideal = ctx, poly, in_ideal
    return out


def _poisson(u: tuple[Poly, Mapping[int, Poly]], v: tuple[Poly, Mapping[int, Poly]],
             what: str) -> Poly:
    """The bracket sum_i a_i (u_i e_v - v_i e_u) of operands (e, {i: a_i-coefficient}), e the
    Euler image of the y-part: only nonzero products, held to `MAX_TERM_PAIRS` under `what`
    before the first, each formed at a_i into one dict, as distinct a_i never meet."""
    sides = [(parts, e, sign) for (_, parts), (e, _), sign in ((u, v, 1), (v, u, -1)) if e]
    _check_term_pairs(sum(len(e.terms) * sum(len(f.terms) for f in parts.values())
                          for parts, e, _ in sides), what)
    terms: dict[Monomial, int | Fraction] = {}
    for parts, e, sign in sides:
        for i, f in parts.items():
            a = 1 << W * slot(f"a{i}")
            _accumulate(terms, (Poly({m + a: c for m, c in f.terms.items()}) * e).terms, sign)
    return Poly(terms)


def _y_sum(a_parts: Mapping[int, Poly]) -> Poly:
    """sum_i y_i * f_i(Y) for the coefficients {i: f_i} of the a_i."""
    return sum((Poly.variable(f"x{i}") * f for i, f in a_parts.items()), Poly.zero())


def _index(m: Monomial) -> int:
    """Index of the variable of a monomial of degree one."""
    return slot_key(next(fields(m))[0])[1]


# -- left-normed commutator words ---------------------------------------------


class CommutatorWord(Record):
    """Left-normed commutator [x_{j1}, x_{j2}, ..., x_{jk}], k >= 2."""

    _fields = ("indices",)

    def __init__(self, indices: tuple[int, ...]):
        if len(indices) < 2:
            raise ValueError("commutator words have length at least two")
        if any(j < 1 for j in indices):
            raise ValueError("indices are 1-based")
        self.indices = indices

    def is_normal(self) -> bool:
        j = self.indices
        return j[0] > j[1] and all(j[t] <= j[t + 1] for t in range(1, len(j) - 1))

    def to_wreath(self, ctx: LieContext) -> WreathElement:
        """The word in the envelope, in closed form:

            [x_i, x_j, x_q2, ..., x_qm] = (a_i y_j - a_j y_i) y_q2 ... y_qm,

        because [x_i, x_j] = a_i y_j - a_j y_i and [w, x_k] = w y_k for every
        w with zero y-part.  It is zero when i = j; `to_commutator_basis`
        reads the same identity backwards.
        """
        i, j, *tail = self.indices
        if max(self.indices) > ctx.dim:
            raise ContextMismatch(f"index {max(self.indices)} outside rank {ctx.dim}")
        if i == j:
            return ctx.zero()
        rest = [(f"x{q}", 1) for q in tail]
        return _wrap(ctx, Poly({encode([(f"a{i}", 1), (f"x{j}", 1), *rest]): 1,
                                encode([(f"a{j}", 1), (f"x{i}", 1), *rest]): -1}),
                     in_ideal=True)

    def sort_key(self):
        return (len(self.indices), self.indices)

    def __str__(self) -> str:
        return "[x" + ",x".join(map(str, self.indices)) + "]"


def words_of_multidegree(multidegree: Sequence[int]) -> list[CommutatorWord]:
    """All normal-form basis words with the given multidegree."""
    total = sum(multidegree)
    if total < 2:
        return []
    support = [j + 1 for j, e in enumerate(multidegree) if e]
    words = []
    for j1 in support:
        remaining = []
        for j, e in enumerate(multidegree, start=1):
            count = e - 1 if j == j1 else e
            remaining.extend([j] * count)
        j2 = remaining[0]
        if j1 > j2:
            words.append(CommutatorWord((j1, j2, *remaining[1:])))
    words.sort(key=CommutatorWord.sort_key)
    return words


def _compositions(total: int, parts: int):
    """Every vector of `parts` nonnegative ints summing to `total`, in
    lexicographic order; the package's one composition enumerator."""
    if parts == 1:
        yield (total,)
        return
    for head in range(total + 1):
        for tail in _compositions(total - head, parts - 1):
            yield (head, *tail)


def from_commutator_basis(ctx: LieContext,
                          terms: Iterable[tuple[Fraction | int, CommutatorWord]]) -> WreathElement:
    """The envelope element sum c * w of (c, w) pairs: the closed forms of
    `CommutatorWord.to_wreath`, summed into one term dict."""
    acc: dict[Monomial, int | Fraction] = {}
    for coeff, word in terms:
        _accumulate(acc, word.to_wreath(ctx).poly.terms, exact(coeff))
    return _wrap(ctx, Poly(acc), in_ideal=True)


def to_commutator_basis(u: WreathElement) -> list[tuple[int | Fraction, CommutatorWord]]:
    """Unique expansion of a commutator-ideal element in the left-normed basis.

    Read off the envelope: the coefficient of [x_i, x_q1, ..., x_qm]
    (q1 <= ... <= qm, i > q1) is the coefficient of a_i * y_q1 ... y_qm; i and q
    are read straight off the fields of the packed monomial.
    """
    if not u.is_in_commutator_ideal():
        raise NotInCommutatorIdeal("element is not in the commutator ideal")
    a_mask, rows, expansion = letter_mask("a"), [], []
    index = {W * s: slot_key(s)[1] for s, _ in fields(u.poly.support())}
    for m, c in u.poly.terms.items():
        a = m & a_mask
        q, y = [], m - a
        while y:    # the fields of the y-part, as in `fields`
            shift = (y & -y).bit_length() - 1 & -W
            e = (y >> shift) & _FIELD
            q += [index[shift]] * e
            y ^= e << shift
        q.sort()
        if (i := index[a.bit_length() - 1]) > q[0]:
            rows.append((len(q), (i, *q), c))
    for _, indices, c in sorted(rows):    # words known to be valid: no checks of __init__
        expansion.append((c, word := CommutatorWord.__new__(CommutatorWord)))
        word.indices = indices
    return expansion


def format_commutator_expansion(terms: Sequence[tuple[int | Fraction, CommutatorWord]],
                                linear: Mapping[int, int | Fraction] | None = None) -> str:
    """Render `x3 + 2[x4,x2,x2] - [x4,x1,x3]` style output, deterministically."""
    parts = [(c, f"x{j}") for j, c in sorted((linear or {}).items()) if c]
    return signed_sum(parts + [(c, str(w)) for c, w in terms])


def lie_normal_form(u: WreathElement) -> str:
    """Canonical printed form of an element of the embedded Lie algebra."""
    if (parts := u.lie_parts()) is None:
        raise NotInCommutatorIdeal("element is not in the embedded Lie algebra")
    return format_commutator_expansion(to_commutator_basis(parts[1]), parts[0])


# -- Lie expressions -----------------------------------------------------------


class LieExpr:
    """A parsed Lie expression over the generators x_j.

    The parser returns, for every sub-expression, the function that builds
    it in the wreath envelope from a `LieContext`; `evaluate` calls the one
    of the whole text, so nothing is evaluated before it and every parse
    error comes before any evaluation error.  `rank` is the largest k of an
    x<k> in the text, multipliers included.
    """

    __slots__ = ("build", "rank")

    def __init__(self, build: Callable[[LieContext], WreathElement], rank: int):
        self.build = build
        self.rank = rank

    def evaluate(self, ctx: LieContext) -> WreathElement:
        return self.build(ctx)


# A parsed sub-expression: a bare generator is its index, so that a bracket of
# generators is one closed-form word; anything else is its builder.
_Node = int | Callable[[LieContext], WreathElement]


def _bound(j: int, ctx: LieContext) -> int:
    if j > ctx.dim:
        raise ContextMismatch(f"generator x{j} unbound in rank {ctx.dim}")
    return j


def _builder(node: _Node) -> Callable[[LieContext], WreathElement]:
    if type(node) is int:
        return lambda ctx: ctx.generator(_bound(node, ctx))
    return node


def _bracket(items: list[_Node], pos: int) -> _Node:
    """The left-normed bracket of the items at `pos`, evaluated left to right."""
    if all(type(item) is int for item in items):
        return lambda ctx: CommutatorWord(tuple(_bound(j, ctx) for j in items)).to_wreath(ctx)
    builders, what = [_builder(item) for item in items], f"bracket at position {pos}"
    return lambda ctx: reduce(lambda u, v: u.bracket(v, what), (build(ctx) for build in builders))


def _act(node: _Node, multiplier: Poly, pos: int) -> _Node:
    arg = _builder(node)

    def act(ctx: LieContext) -> WreathElement:    # refused before it is formed past the budget
        u = arg(ctx)
        _check_term_pairs(len(u.poly.terms) * len(multiplier.terms),
                          f"module action at position {pos}")
        return u.ad_action(multiplier)
    return act


def parse_lie_expr(text: str) -> LieExpr:
    """Parse `2*[x3,x1] - [x2,x1].(x3^2)` style text; evaluation waits for
    `LieExpr.evaluate`."""
    tokens = tokenize(text)
    parser = _PolyParser(tokens)
    node = _parse_lie_sum(parser)
    parser.expect_end()
    keys = [var_key(tok) for kind, tok, _ in tokens if kind == "name"]
    return LieExpr(_builder(node), max(index for letter, index in keys if letter == "x"))


def _parse_lie_sum(parser: _PolyParser) -> _Node:
    """A sum of scaled terms: a lone unscaled term is its own node, any other sum
    builds its element in one term dict."""
    terms = [_parse_lie_term(parser, -1 if parser.accept_op("-") else 1)]
    while op := parser.accept_op("+", "-"):
        terms.append(_parse_lie_term(parser, 1 if op == "+" else -1))
    if len(terms) == 1 and terms[0][0] == 1:
        return terms[0][1]
    builders = [(coeff, _builder(node)) for coeff, node in terms]

    def build(ctx: LieContext) -> WreathElement:    # in the ideal when every term is
        acc: dict[Monomial, int | Fraction] = {}
        parts = [(coeff, arg(ctx)) for coeff, arg in builders]
        for coeff, u in parts:
            _accumulate(acc, u.poly.terms, coeff)
        return _wrap(ctx, Poly(acc), all(u._in_ideal for _, u in parts) or None)
    return build


def _parse_lie_term(parser: _PolyParser, sign: int) -> tuple[int | Fraction, _Node]:
    """(coefficient, node) of `[scalar[*]] factor` and its module action by the
    factors after each `.` or `*`, multiplied as the polynomial parser does."""
    scalar = parser.accept_scalar()
    if scalar is not None:
        parser.accept_op("*")
    node = _parse_lie_factor(parser)
    multiplier, start = None, parser.tokens[parser.pos][2]
    while parser.accept_op(".", "*"):
        pos = parser.tokens[parser.pos][2]
        factor = parser.factor()
        multiplier = factor if multiplier is None else parser.product(multiplier, factor, pos)
    if multiplier is not None:
        node = _act(node, Poly(_terms(multiplier)), start)
    return sign if scalar is None else sign * scalar, node


def _parse_lie_factor(parser: _PolyParser) -> _Node:
    kind, tok, pos = parser.tokens[parser.pos]
    if tok == "[":
        parser.pos += 1
        items = [_parse_lie_sum(parser)]
        while parser.accept_op(","):
            items.append(_parse_lie_sum(parser))
        parser.expect_op("]")
        if len(items) < 2:
            raise ParseError(f"bracket at position {pos} needs at least two entries")
        return _bracket(items, pos)
    if tok == "(":
        parser.pos += 1
        inner = _parse_lie_sum(parser)
        parser.expect_op(")")
        return inner
    if kind == "name":
        letter, index = var_key(tok)
        if letter != "x" or index < 1:
            raise ParseError(f"expected a generator x<k> at position {pos}, found {tok!r}")
        parser.pos += 1
        return index
    raise parser.unexpected()
