"""Sparse multivariate polynomial arithmetic over exact rationals.

A monomial is one `int`, a packed exponent vector (Monagan and Pearce, CASC
2007): the exponent of the variable in slot s occupies bits [W*s, W*s + W),
W = 16.  A registry keeps each slot's name, e.g. "x12", and its key ("x", 12):
a1, x1, ..., a16, x16 hold slots 0-31 from import on, and any other
name takes the next free slot when first seen.  Names survive only in the
parser, the printer and `variables()`, which sort by key, so no output
depends on slot order.  A product of monomials is the sum of their ints:
exponents stay within the budget `MAX_EXPONENT` = 2^(W-1) - 1, so fields
never carry into each other, and one AND with the guard mask (the top bit of
every field) finds an exponent over the budget, which is refused with
`ExponentOverflow`, never wrapped.  Coefficients are `int`; a `Fraction`
appears only where a division happens (`/`, a parsed `a/b`, `normalized`),
and one whose denominator is 1 is turned back into an `int` (`exact`).
There is no floating point anywhere in this package.
"""

from __future__ import annotations

import re
import threading
from collections.abc import Iterable, Iterator, Mapping
from fractions import Fraction
from functools import lru_cache, reduce
from math import comb, gcd
from operator import or_

Monomial = int

ONE_MONOMIAL: Monomial = 0

W = 16
MAX_EXPONENT = (1 << (W - 1)) - 1
_FIELD = (1 << W) - 1

_VAR_RE = re.compile(r"^([A-Za-z]+)(0|[1-9]\d*)?$")


class UsageError(ValueError):
    """An input refused (CLI exit 2); any other exception is a fault (exit 3)."""


class ParseError(UsageError):
    """Raised when an expression string cannot be parsed."""


class ExponentOverflow(UsageError):
    """Raised when an exponent would leave its W-bit field."""

    def __init__(self):
        super().__init__(f"exponent over the budget of {MAX_EXPONENT}")


@lru_cache(maxsize=None)
def var_key(name: str) -> tuple[str, int]:
    """Sort key of a variable name: ("x12") -> ("x", 12).  An index has no
    leading zero, so x, x0, x1 and x10 are names and x01 and x00 are not."""
    m = _VAR_RE.match(name)
    if m is None:
        raise ValueError(f"bad variable name {name!r}")
    return m.group(1), _digit_limited(int, m.group(2) or "0")


def _digit_limited(convert, value):
    """int(value) of a digit string or str(value) of a number, refused past the
    interpreter's limit on digits (`sys.get_int_max_str_digits`)."""
    try:
        return convert(value)
    except ValueError as exc:
        raise UsageError(str(exc)) from None


# The slot registry is append-only, and a slot is published in `_slot_of` only
# after its name, key, letter mask and guard bit are in place.

_registry_lock = threading.Lock()
_slot_of: dict[str, int] = {}
_slot_names: list[str] = []
_slot_keys: list[tuple[str, int]] = []
_letter_masks: dict[str, int] = {}
_guard = 0


def slot(name: str) -> int:
    """Slot of a variable, registered on first sight."""
    s = _slot_of.get(name)
    if s is None:
        key = var_key(name)
        with _registry_lock:
            s = _slot_of.get(name)
            if s is None:
                global _guard
                s = len(_slot_names)
                _slot_names.append(name)
                _slot_keys.append(key)
                _letter_masks[key[0]] = _letter_masks.get(key[0], 0) | _FIELD << W * s
                _guard |= 1 << (W * s + W - 1)
                _slot_of[name] = s
    return s


def slot_name(s: int) -> str:
    return _slot_names[s]


def slot_key(s: int) -> tuple[str, int]:
    return _slot_keys[s]


# a1, x1, ..., a16, x16 hold slots 0-31 whatever names come first
for _name in [f"{c}{j}" for j in range(1, 17) for c in "ax"]:
    slot(_name)


def letter_mask(letter: str) -> int:
    """The fields of all registered variables named `letter`<k>."""
    return _letter_masks.get(letter, 0)


def field_mask(names: Iterable[str]) -> int:
    """The fields of the named variables: m & field_mask(names) is 0 exactly
    when m is free of them."""
    return reduce(or_, (_FIELD << W * slot(v) for v in names), 0)


def fields(m: Monomial) -> Iterator[tuple[int, int]]:
    """(slot, exponent) of each variable of m, by slot; skips empty fields."""
    while m:
        low = (m & -m).bit_length() - 1
        shift = low - low % W
        e = (m >> shift) & _FIELD
        yield shift // W, e
        m ^= e << shift


def encode(pairs: Iterable[tuple[str, int]]) -> Monomial:
    """Monomial of (name, exponent) pairs; exponents of a repeated name add."""
    m = 0
    for name, e in pairs:
        if e < 0:
            raise ValueError(f"negative exponent of {name}")
        if e > MAX_EXPONENT:
            raise ExponentOverflow()
        m = mono_mul(m, e << W * slot(name))
    return m


def decode(m: Monomial) -> tuple[tuple[str, int], ...]:
    """(name, exponent) pairs of m in the variable order: by `var_key`, then
    by name, which parts "x" from "x0"."""
    return tuple((_slot_names[s], e) for s, e in
                 sorted(fields(m), key=lambda f: (_slot_keys[f[0]], _slot_names[f[0]])))


def mono_mul(a: Monomial, b: Monomial) -> Monomial:
    """Product of two monomials: one addition, checked against the guard."""
    m = a + b
    if m & _guard:
        raise ExponentOverflow()
    return m


def _mul_terms(a: dict, b: dict) -> dict:
    """Product of two {monomial: coefficient} dicts; no sum of two monomials
    carries, so one guard test over the result suffices."""
    terms: dict[Monomial, int | Fraction] = {}
    get = terms.get
    for m1, c1 in a.items():
        for m2, c2 in b.items():
            m = m1 + m2
            s = get(m, 0) + c1 * c2
            if s:
                terms[m] = s
            else:
                del terms[m]
    if reduce(or_, terms, 0) & _guard:
        raise ExponentOverflow()
    return terms


def mono_exponent(m: Monomial, s: int) -> int:
    """Exponent of the variable in slot s."""
    return (m >> W * s) & _FIELD


def mono_degree(m: Monomial) -> int:
    """Sum of the fields: the low bytes and the high bytes of m summed apart."""
    b = m.to_bytes((m.bit_length() + 15) // 8, "little")
    return sum(b[::2]) + 256 * sum(b[1::2])


def mono_sort_key(m: Monomial):
    """Graded-lex key: higher degree first, then priority to earlier variables."""
    pairs = sorted((_slot_keys[s], _slot_names[s], -e) for s, e in fields(m))
    return (sum(pair[2] for pair in pairs), tuple(pairs))


def mono_str(m: Monomial) -> str:
    if not m:
        return "1"
    return "*".join(v if e == 1 else f"{v}^{e}" for v, e in decode(m))


def signed_sum(terms: Iterable[tuple[int | Fraction, str]]) -> str:
    """Print (coefficient, body) pairs with nonzero coefficients as a sum.

    The first term is bare or prefixed `-`, later terms get `+ ` or `- `; a
    coefficient of 1 is left out, an empty body prints the coefficient alone,
    and a bracket word takes its coefficient with no `*`.  No terms print
    as `0`.
    """
    parts: list[str] = []
    for c, body in terms:
        mag = _digit_limited(str, abs(c))
        text = (mag if not body else body if mag == "1"
                else f"{mag}{body}" if body.startswith("[") else f"{mag}*{body}")
        if not parts:
            parts.append(text if c > 0 else f"-{text}")
        else:
            parts.append(f"+ {text}" if c > 0 else f"- {text}")
    return " ".join(parts) or "0"


def exact(c) -> int | Fraction:
    """Canonical exact scalar: an `int`, or a `Fraction` whose denominator is
    not 1."""
    if type(c) is int:
        return c
    if isinstance(c, Fraction):
        return c.numerator if c.denominator == 1 else c
    if isinstance(c, int):
        return int(c)
    raise TypeError(f"not an exact scalar: {c!r}")


def _accumulate(acc: dict, terms: Mapping, scale: int | Fraction = 1) -> dict:
    """acc += scale * terms, in place: a zero sum leaves acc, a Fraction sum with
    denominator 1 enters it as an int."""
    get = acc.get
    for m, c in terms.items():
        if s := get(m, 0) + (c if scale == 1 else scale * c):
            acc[m] = s if type(s) is int else exact(s)
        else:
            acc.pop(m, None)
    return acc


def _canonical(terms: dict) -> dict:
    """Turn the Fraction values with denominator 1 of `terms` into ints, in
    place; the other values are left as they are."""
    for key, c in terms.items():
        if type(c) is not int and c.denominator == 1:
            terms[key] = c.numerator
    return terms


class Poly:
    """Polynomial with exact coefficients (see `exact`) in named variables.

    Instances are immutable by convention: no method mutates `terms`, and all
    operations return fresh objects, so values are safe to share across
    threads.
    """

    __slots__ = ("terms",)

    def __init__(self, terms: Mapping[Monomial, int | Fraction] | None = None):
        canonical: dict[Monomial, int | Fraction] = {}
        if terms:
            for m, c in terms.items():
                if type(c) is not int:
                    c = exact(c)
                if c:
                    canonical[m] = c
        self.terms = canonical

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls) -> "Poly":
        return cls()

    @classmethod
    def one(cls) -> "Poly":
        return cls({ONE_MONOMIAL: 1})

    @classmethod
    def const(cls, c) -> "Poly":
        return cls({ONE_MONOMIAL: c})

    @classmethod
    def variable(cls, name: str) -> "Poly":
        return cls({1 << W * slot(name): 1})

    @classmethod
    def monomial(cls, m: Monomial, c=1) -> "Poly":
        return cls({m: c})

    # -- ring operations ---------------------------------------------------

    def __bool__(self) -> bool:
        return bool(self.terms)

    def is_zero(self) -> bool:
        return not self.terms

    def __eq__(self, other) -> bool:
        if isinstance(other, Poly):
            return self.terms == other.terms
        if isinstance(other, (int, Fraction)):
            return self.terms == Poly.const(other).terms
        return NotImplemented

    __hash__ = None  # mutable dict inside; not hashable

    def _plus(self, other, sign: int) -> "Poly":
        if isinstance(other, (int, Fraction)):
            other = Poly.const(other)
        if not isinstance(other, Poly):
            return NotImplemented
        out = Poly.__new__(Poly)
        out.terms = _accumulate(dict(self.terms), other.terms, sign)
        return out

    def __add__(self, other) -> "Poly":
        return self._plus(other, 1)

    __radd__ = __add__

    def __neg__(self) -> "Poly":
        out = Poly.__new__(Poly)
        out.terms = {m: -c for m, c in self.terms.items()}
        return out

    def __sub__(self, other) -> "Poly":
        return self._plus(other, -1)

    def __rsub__(self, other) -> "Poly":
        return (-self) + other

    def __mul__(self, other) -> "Poly":
        if not isinstance(other, Poly):
            if not isinstance(other, (int, Fraction)):
                return NotImplemented
            c = exact(other)
            if not c:
                return Poly.zero()
            out = Poly.__new__(Poly)
            out.terms = _canonical({m: v * c for m, v in self.terms.items()})
            return out
        out = Poly.__new__(Poly)
        out.terms = _canonical(_mul_terms(self.terms, other.terms))
        return out

    __rmul__ = __mul__

    def __truediv__(self, other) -> "Poly":
        return self * (Fraction(1) / exact(other))

    def __pow__(self, n: int) -> "Poly":
        if n < 0:
            raise ValueError("negative power of a polynomial")
        result = Poly.one()
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base if n > 1 else base
            n >>= 1
        return result

    # -- structure ---------------------------------------------------------

    def support(self) -> Monomial:
        """OR of the monomials: the fields of the variables that occur."""
        return reduce(or_, self.terms, 0)

    def variables(self) -> list[str]:
        return sorted(sorted(_slot_names[s] for s, _ in fields(self.support())), key=var_key)

    def total_degree(self) -> int:
        """Total degree; -1 for the zero polynomial."""
        if not self.terms:
            return -1
        return max(mono_degree(m) for m in self.terms)

    def coefficient(self, m: Monomial) -> int | Fraction:
        return self.terms.get(m, 0)

    def constant_term(self) -> int | Fraction:
        return self.terms.get(ONE_MONOMIAL, 0)

    def is_homogeneous(self) -> bool:
        degrees = {mono_degree(m) for m in self.terms}
        return len(degrees) <= 1

    def sorted_terms(self) -> list[tuple[Monomial, int | Fraction]]:
        return sorted(self.terms.items(), key=lambda item: mono_sort_key(item[0]))

    def leading_monomial(self) -> Monomial:
        if not self.terms:
            raise ValueError("zero polynomial has no leading monomial")
        return min(self.terms, key=mono_sort_key)

    # -- calculus and substitution ------------------------------------------

    def partial(self, var: str) -> "Poly":
        """Formal partial derivative with respect to `var`."""
        shift = W * slot(var)
        unit = 1 << shift
        terms: dict[Monomial, int | Fraction] = {}
        for m, c in self.terms.items():
            e = (m >> shift) & _FIELD
            if not e:
                continue
            reduced = m - unit
            s = terms.get(reduced, 0) + c * e
            if s:
                terms[reduced] = s
            else:
                terms.pop(reduced, None)
        out = Poly.__new__(Poly)
        out.terms = _canonical(terms)
        return out

    def derive(self, steps: list[tuple[int, list[tuple[int, int | Fraction]]]]) -> "Poly":
        """Image under the linear derivation whose steps (W*s, [(t - unit(v), c'), ...])
        send the variable v of slot s to sum c' * t (the others to 0), in one pass over
        the terms (Leibniz): c * m with v^e adds e * c * c' at m - unit(v) + t.  An
        exponent over the budget raises `ExponentOverflow`."""
        terms: dict[Monomial, int | Fraction] = {}
        get = terms.get
        for m, c in self.terms.items():
            for shift, moves in steps:
                if e := (m >> shift) & _FIELD:
                    for move, d in moves:
                        key = m + move
                        if s := get(key, 0) + e * c * d:
                            terms[key] = s
                        else:
                            del terms[key]
        if reduce(or_, terms, 0) & _guard:
            raise ExponentOverflow()
        out = Poly.__new__(Poly)
        out.terms = _canonical(terms)
        return out

    def substitute(self, images: Mapping[str, "Poly"]) -> "Poly":
        """Evaluate with each variable of `images` replaced by its image.

        A Horner-style split: the terms are grouped by the exponents of the
        replaced variables; then, one variable at a time, each group is
        multiplied once by a power of that variable's image and merged into the
        group of its other exponents; the powers are kept in a list grown by one
        product at a time.  Fewest image terms go first (then `var_key`, name;
        never slot), so terms expand as late as possible.
        """
        order = sorted(images, key=lambda v: (len(images[v].terms), var_key(v), v))
        replaced = field_mask(order)
        groups: dict[Monomial, dict] = {}
        for m, c in self.terms.items():
            groups.setdefault(m & replaced, {})[m & ~replaced] = c
        for v in order:
            shift, merged, powers = W * slot(v), {}, [None, images[v].terms]
            for rest, terms in groups.items():
                if e := (rest >> shift) & _FIELD:
                    while len(powers) <= e:
                        powers.append(_mul_terms(powers[-1], powers[1]))
                    terms, rest = _mul_terms(terms, powers[e]), rest - (e << shift)
                if (target := merged.setdefault(rest, terms)) is not terms:
                    _accumulate(target, terms)
            groups = merged
        return Poly(groups.get(0))

    def rename(self, mapping: Mapping[str, str]) -> "Poly":
        """Rename variables; distinct variables must keep distinct names."""
        kept = 0
        moves = []
        targets = set()
        for s, _ in fields(self.support()):
            name = _slot_names[s]
            t = slot(mapping.get(name, name))
            if t in targets:
                raise ValueError("variable renaming collides")
            targets.add(t)
            if t == s:
                kept |= _FIELD << W * s
            else:
                moves.append((W * s, W * t))
        terms: dict[Monomial, int | Fraction] = {}
        for m, c in self.terms.items():
            renamed = m & kept
            for source, target in moves:
                renamed |= ((m >> source) & _FIELD) << target
            terms[renamed] = c
        out = Poly.__new__(Poly)
        out.terms = terms
        return out

    # -- normalization -----------------------------------------------------

    def content(self) -> int | Fraction:
        """gcd of numerators over lcm of denominators (0 for the zero poly)."""
        if not self.terms:
            return 0
        num = 0
        den = 1
        for c in self.terms.values():
            num = gcd(num, c.numerator)
            den = den * c.denominator // gcd(den, c.denominator)
        return exact(Fraction(num, den))

    def normalized(self) -> "Poly":
        """Divide out the content and make the leading coefficient positive."""
        if not self.terms:
            return self
        factor = self.content()
        if self.terms[self.leading_monomial()] < 0:
            factor = -factor
        return self * (Fraction(1) / factor)

    # -- printing ----------------------------------------------------------

    def __str__(self) -> str:
        return signed_sum((c, "" if m == ONE_MONOMIAL else mono_str(m))
                          for m, c in self.sorted_terms())

    def __repr__(self) -> str:
        return f"Poly({self})"

    @classmethod
    def parse(cls, text: str) -> "Poly":
        parser = _PolyParser(tokenize(text))
        poly = Poly(_terms(parser.sum()))
        parser.expect_end()
        return poly


# -- derived operations ------------------------------------------------------


def jacobian_minor(f1: Poly, f2: Poly, v1: str, v2: str) -> Poly:
    """2x2 Jacobian determinant d(f1,f2)/d(v1,v2)."""
    if v1 == v2:
        raise ValueError("jacobian minor needs two distinct variables")
    return f1.partial(v1) * f2.partial(v2) - f1.partial(v2) * f2.partial(v1)


def jacobian_minors(f1: Poly, f2: Poly, variables: Iterable[str] | None = None
                    ) -> Iterator[tuple[str, str, Poly]]:
    """(v, w, d(f1,f2)/d(v,w)) for each pair v before w of `variables` (default: those of
    f1 and f2, the only ones with nonzero minors), each partial taken once, the minors held
    to `MAX_MINORS` and each product of two partials to `MAX_TERM_PAIRS` before any is formed."""
    names = sorted(set(f1.variables()) | set(f2.variables()), key=var_key) \
        if variables is None else list(variables)
    if (minors := len(names) * (len(names) - 1) // 2) > MAX_MINORS:
        raise ParseError(f"{minors} Jacobian minors, over the budget of {MAX_MINORS}")
    # d f/d v has one term for each term of f that v divides
    masks = [_FIELD << W * slot(v) for v in names]
    n1, n2 = ([sum(1 for m in f.terms if m & mask) for mask in masks] for f in (f1, f2))
    _check_term_pairs(max((s * t for a, s in enumerate(n1) for b, t in enumerate(n2) if a != b),
                          default=0), "a Jacobian minor product")
    d1, d2 = ([f.partial(v) for v in names] for f in (f1, f2))
    for i, v in enumerate(names):
        for j in range(i + 1, len(names)):
            yield v, names[j], d1[i] * d2[j] - d1[j] * d2[i]


def is_pairwise_jacobian_zero(f1: Poly, f2: Poly, variables: Iterable[str] | None = None) -> bool:
    """True when every 2x2 Jacobian minor of (f1, f2) vanishes.

    By the Jacobian criterion in characteristic 0 this certifies that f1 and
    f2 are algebraically dependent.
    """
    return all(minor.is_zero() for _, _, minor in jacobian_minors(f1, f2, variables))


# -- tokenizer and parser ----------------------------------------------------

# num, name, op; then a name whose index has a leading zero, and any other character
_TOKEN_RE = re.compile(r"(\d+)|([A-Za-z]+(?![A-Za-z])(?:[1-9]\d*|0)?(?!\d))"
                       r"|(\*\*|[-+*/^()\[\],.])|([A-Za-z]+\d*)|(\S)")
_KINDS = (None, "num", "name", "op")

# Deepest "(" / "[" nesting the recursive-descent parsers accept; they use a
# few stack frames per level, so this keeps them far below the recursion limit.
MAX_NESTING = 100
# Budget of the polynomial parser on the term pairs of one product, checked
# before anything is expanded: t1*t2 for a product, and for a power of a t-term
# base to the n, whose repeated squaring multiplies at most
# C(h+t-1, t-1) * C(n-h+t-1, t-1) pairs per step (h = n // 2), a bound above
# its C(n+t-1, t-1) terms.  The slowest accepted powers take about 2 s.
MAX_TERM_PAIRS = 1_000_000
# Budget on the minors of `jacobian_minors`: 19 900 minors of two linear forms in
# 200 variables take about 0.6 s, and 79 800 in 400 variables 4.4 - 6 s.
MAX_MINORS = 20_000
# 2^1920 < 10^640, the lowest limit on digits the interpreter allows
_SAFE_BITS = 1920


def tokenize(text: str) -> list[tuple[str, str, int]]:
    """Split into (kind, text, position) tokens in one scan; kinds: num, name, op, and a
    last token ("end", "end of input", len(text)), which no parser reads past."""
    tokens = []
    deep, depth = text.count("(") + text.count("[") > MAX_NESTING, 0
    for m in _TOKEN_RE.finditer(text):
        k, tok = m.lastindex, m[m.lastindex]
        if k == 3:
            if tok == "**":
                tok = "^"
            elif deep and tok in "([])":
                depth += 1 if tok in "([" else -1
                if depth > MAX_NESTING:
                    raise ParseError(f"nesting deeper than {MAX_NESTING} levels "
                                     f"at position {m.start()}")
        elif k > 3:
            raise ParseError(f"unexpected character {tok!r} at position {m.start()}" if k == 5
                             else f"variable {tok!r} at position {m.start()}: "
                                  "an index takes no leading zero")
        tokens.append((_KINDS[k], tok, m.start()))
    tokens.append(("end", "end of input", len(text)))
    return tokens


def _check_term_pairs(pairs: int, what: str) -> None:
    if pairs > MAX_TERM_PAIRS:
        raise ParseError(f"{what} needs up to {pairs} term pairs, "
                         f"over the budget of {MAX_TERM_PAIRS}")


def _check_digits(values, n: int = 1) -> None:
    """Refuse, with the message printing would give, values whose largest numerator
    or denominator, to the n, is past the interpreter's limit on digits; for n > 1 a
    power of 2 at most that power is printed instead, so that none is formed first."""
    top = max((abs(part) for c in values
               for part in ((c,) if type(c) is int else (c.numerator, c.denominator))), default=0)
    if (bits := top.bit_length()) * n > _SAFE_BITS:
        _digit_limited(str, top if n == 1 else 1 << min((bits - 1) * n, 1 << 22))


def _terms(v) -> dict:
    """The term dict of a parsed value: a `Poly`, or one term (m, c), zero when c is."""
    return v.terms if type(v) is Poly else {v[0]: v[1]} if v[1] else {}


class _PolyParser:
    """Recursive descent over the tokens of `tokenize`, read by index: `tokens[pos]`
    is the next one, and the end token, which nothing consumes, stops every loop.  The
    Lie and series parsers read through it too.  A parsed value is one term (m, c),
    a packed monomial and a coefficient, while its factors are variables, their powers
    and scalars; a `Poly` only for a sum, a parenthesised factor or another power.
    Products and powers are held to `MAX_TERM_PAIRS` and to the limit on digits as
    they are formed."""

    __slots__ = ("tokens", "pos")

    def __init__(self, tokens: list[tuple[str, str, int]]):
        self.tokens, self.pos = tokens, 0

    def accept_op(self, *ops: str) -> str | None:
        text = self.tokens[self.pos][1]
        if text in ops:    # no num, name or end token has the text of an op
            self.pos += 1
            return text
        return None

    def expect_op(self, op: str) -> None:
        if self.accept_op(op) is None:
            raise self.unexpected(op)

    def expect_end(self) -> None:
        if (token := self.tokens[self.pos])[0] != "end":
            raise ParseError(f"trailing input {token[1]!r} at position {token[2]}")

    def unexpected(self, expected: str | None = None) -> ParseError:
        """The refusal of the next token, "token 'x1'" or "end of input", where it
        is not `expected`."""
        kind, text, pos = self.tokens[self.pos]
        found = text if kind == "end" else f"token {text!r}"
        return ParseError(f"unexpected {found} at position {pos}" if expected is None
                          else f"expected {expected!r}, found {found} at position {pos}")

    def accept_exponent(self) -> tuple[int, int] | None:
        """(n, position of n) of a `^ n` suffix, n within `MAX_EXPONENT`;
        None when no `^` follows.  The rule of every parser in the package."""
        if self.tokens[self.pos][1] != "^":
            return None
        kind, text, pos = self.tokens[self.pos + 1]
        if kind != "num":
            raise ParseError(f"expected integer exponent at position {pos}")
        self.pos += 2
        n = int(text) if len(text) <= len(str(MAX_EXPONENT)) else MAX_EXPONENT + 1
        if n > MAX_EXPONENT:
            raise ParseError(f"exponent {text} at position {pos} over the budget "
                             f"of {MAX_EXPONENT}")
        return n, pos

    def accept_scalar(self) -> int | Fraction | None:
        """The scalar of a leading `a` or `a/b`, None when no number comes next; a
        `/` not followed by a number is left unread; a zero denominator is refused."""
        kind, text, _ = self.tokens[self.pos]
        if kind != "num":
            return None
        self.pos += 1
        if self.tokens[self.pos][1] == "/" and self.tokens[self.pos + 1][0] == "num":
            denominator, pos = self.tokens[self.pos + 1][1:]
            self.pos += 2
            numerator, denominator = (_digit_limited(int, t) for t in (text, denominator))
            if not denominator:
                raise ParseError(f"division by zero at position {pos}")
            return exact(Fraction(numerator, denominator))
        return _digit_limited(int, text)

    def sum(self):
        """A signed sum of terms: the one term itself, or the Poly of one dict."""
        sign = self.accept_op("-", "+")
        v = self.term()
        if self.tokens[self.pos][1] not in ("+", "-"):
            return v if sign != "-" else -v if type(v) is Poly else (v[0], -v[1])
        acc = _accumulate({}, _terms(v), -1 if sign == "-" else 1)
        while op := self.accept_op("+", "-"):
            _accumulate(acc, _terms(self.term()), 1 if op == "+" else -1)
        return Poly(acc)

    def term(self):
        """A product of factors, joined by `*` or juxtaposed."""
        v = self.factor()
        while True:
            kind, text, pos = self.tokens[self.pos]
            if text == "*":
                self.pos += 1
                pos = self.tokens[self.pos][2]
            elif kind != "name" and kind != "num" and text != "(":
                return v
            v = self.product(v, self.factor(), pos)

    @staticmethod
    def product(v, f, pos: int):
        """v * f; two terms multiply as one sum of monomials, checked against the guard."""
        if type(v) is tuple and type(f) is tuple:
            (m, c), (fm, fc) = v, f
            if fc != 1:
                c = exact(c * fc)
                _check_digits((c,))
            if (m := m + fm) & _guard and c:
                raise ExponentOverflow()
            return m, c
        a, b = _terms(v), _terms(f)
        _check_term_pairs(len(a) * len(b), f"product at position {pos}")
        out = Poly(_mul_terms(a, b))
        _check_digits(out.terms.values())
        return out

    def factor(self):
        """A variable, a scalar or a parenthesised sum, and its `^ n`."""
        kind, text, pos = self.tokens[self.pos]
        if kind == "name":
            self.pos += 1
            unit = 1 << W * slot(text)
            return unit * (n[0] if (n := self.accept_exponent()) else 1), 1
        if (v := self.accept_scalar()) is not None:
            v = 0, v
        elif self.accept_op("("):
            v = self.sum()
            self.expect_op(")")
        else:
            raise self.unexpected()
        if (power := self.accept_exponent()) is None:
            return v
        n, pos = power
        v = Poly(_terms(v))
        if (t := len(v.terms)) > 1:
            h = n // 2
            _check_term_pairs(comb(h + t - 1, min(h, t - 1))
                              * comb(n - h + t - 1, min(n - h, t - 1)), f"power at position {pos}")
        if t:    # the coefficient of the largest monomial, to the n, is one of the power's
            _check_digits((v.terms[max(v.terms)],), n)
        v = v ** n
        _check_digits(v.terms.values())
        return v
