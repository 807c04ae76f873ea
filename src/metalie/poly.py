"""Sparse multivariate polynomial arithmetic over exact rationals.

A monomial is a tuple of (variable, exponent) pairs with positive exponents,
sorted by a fixed global variable order.  Variable names consist of a letter
part and an optional numeric suffix ("x1", "y3", "a2", "z", "t1"); they are
ordered by (letters, number), so the x-, y- and a-alphabets can coexist in a
single polynomial.  Coefficients are `int`; a `fractions.Fraction` appears
only where a division happens (`/`, a parsed `a/b`, `normalized`), and one
whose denominator is 1 is turned back into an `int` (`exact`).  There is no
floating point anywhere in this package.
"""

from __future__ import annotations

import re
from fractions import Fraction
from functools import lru_cache
from math import gcd
from typing import Iterable, Mapping

Monomial = tuple[tuple[str, int], ...]

ONE_MONOMIAL: Monomial = ()

_VAR_RE = re.compile(r"^([A-Za-z]+)(\d*)$")


class ParseError(ValueError):
    """Raised when an expression string cannot be parsed."""


@lru_cache(maxsize=None)
def var_key(name: str) -> tuple[str, int]:
    """Sort key of a variable name: ("x12") -> ("x", 12)."""
    m = _VAR_RE.match(name)
    if m is None:
        raise ValueError(f"bad variable name {name!r}")
    return m.group(1), int(m.group(2) or 0)


def var_name(letter: str, index: int) -> str:
    return f"{letter}{index}"


def mono_mul(a: Monomial, b: Monomial) -> Monomial:
    """Product of two monomials: one linear merge of the sorted factors."""
    if not a:
        return b
    if not b:
        return a
    out = []
    i = j = 0
    na, nb = len(a), len(b)
    while i < na and j < nb:
        va, ea = a[i]
        vb, eb = b[j]
        if va == vb:
            out.append((va, ea + eb))
            i += 1
            j += 1
        elif var_key(va) < var_key(vb):
            out.append(a[i])
            i += 1
        else:
            out.append(b[j])
            j += 1
    return tuple(out) + a[i:] + b[j:]


def mono_degree(m: Monomial) -> int:
    return sum(e for _, e in m)


def mono_exponent(m: Monomial, var: str) -> int:
    for v, e in m:
        if v == var:
            return e
    return 0


def mono_sort_key(m: Monomial):
    """Graded-lex key: higher degree first, then priority to earlier variables."""
    return (-mono_degree(m), tuple((var_key(v), -e) for v, e in m))


def mono_str(m: Monomial) -> str:
    if not m:
        return "1"
    return "*".join(v if e == 1 else f"{v}^{e}" for v, e in m)


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
        var_key(name)
        return cls({((name, 1),): 1})

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

    def __add__(self, other) -> "Poly":
        if isinstance(other, (int, Fraction)):
            other = Poly.const(other)
        if not isinstance(other, Poly):
            return NotImplemented
        terms = dict(self.terms)
        for m, c in other.terms.items():
            s = terms.get(m, 0) + c
            if s:
                terms[m] = s if type(s) is int else exact(s)
            else:
                terms.pop(m, None)
        out = Poly.__new__(Poly)
        out.terms = terms
        return out

    __radd__ = __add__

    def __neg__(self) -> "Poly":
        out = Poly.__new__(Poly)
        out.terms = {m: -c for m, c in self.terms.items()}
        return out

    def __sub__(self, other) -> "Poly":
        if isinstance(other, (int, Fraction)):
            other = Poly.const(other)
        if not isinstance(other, Poly):
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other) -> "Poly":
        return (-self) + other

    def __mul__(self, other) -> "Poly":
        if isinstance(other, (int, Fraction)):
            c = exact(other)
            if not c:
                return Poly.zero()
            out = Poly.__new__(Poly)
            out.terms = _canonical({m: v * c for m, v in self.terms.items()})
            return out
        if not isinstance(other, Poly):
            return NotImplemented
        terms: dict[Monomial, int | Fraction] = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                m = mono_mul(m1, m2)
                s = terms.get(m, 0) + c1 * c2
                if s:
                    terms[m] = s
                else:
                    terms.pop(m, None)
        out = Poly.__new__(Poly)
        out.terms = _canonical(terms)
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

    def variables(self) -> list[str]:
        seen = {v for m in self.terms for v, _ in m}
        return sorted(seen, key=var_key)

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

    def homogeneous_components(self) -> dict[int, "Poly"]:
        comps: dict[int, dict[Monomial, int | Fraction]] = {}
        for m, c in self.terms.items():
            comps.setdefault(mono_degree(m), {})[m] = c
        return {n: Poly(t) for n, t in sorted(comps.items())}

    def sorted_terms(self) -> list[tuple[Monomial, int | Fraction]]:
        return sorted(self.terms.items(), key=lambda item: mono_sort_key(item[0]))

    def leading_monomial(self) -> Monomial:
        if not self.terms:
            raise ValueError("zero polynomial has no leading monomial")
        return min(self.terms, key=mono_sort_key)

    # -- calculus and substitution ------------------------------------------

    def partial(self, var: str) -> "Poly":
        """Formal partial derivative with respect to `var`."""
        var_key(var)
        terms: dict[Monomial, int | Fraction] = {}
        for m, c in self.terms.items():
            e = mono_exponent(m, var)
            if not e:
                continue
            reduced = tuple((v, k - 1 if v == var else k) for v, k in m if not (v == var and k == 1))
            s = terms.get(reduced, 0) + c * e
            if s:
                terms[reduced] = s
            else:
                terms.pop(reduced, None)
        out = Poly.__new__(Poly)
        out.terms = _canonical(terms)
        return out

    def substitute(self, images: Mapping[str, "Poly"]) -> "Poly":
        """Evaluate with each variable replaced by its image polynomial.

        Variables not listed in `images` are left untouched.
        """
        power_cache: dict[tuple[str, int], dict[Monomial, int | Fraction]] = {}

        def image_power(v: str, e: int) -> dict[Monomial, int | Fraction]:
            key = (v, e)
            cached = power_cache.get(key)
            if cached is None:
                cached = (images[v] ** e).terms
                power_cache[key] = cached
            return cached

        acc: dict[Monomial, int | Fraction] = {}
        for m, c in self.terms.items():
            prod: dict[Monomial, int | Fraction] = {ONE_MONOMIAL: c}
            for v, e in m:
                factor = image_power(v, e) if v in images else {((v, e),): 1}
                step: dict[Monomial, int | Fraction] = {}
                for m1, c1 in prod.items():
                    for m2, c2 in factor.items():
                        key = mono_mul(m1, m2)
                        s = step.get(key, 0) + c1 * c2
                        if s:
                            step[key] = s
                        else:
                            step.pop(key, None)
                prod = step
            for mm, cc in prod.items():
                s = acc.get(mm, 0) + cc
                if s:
                    acc[mm] = s
                else:
                    acc.pop(mm, None)
        out = Poly.__new__(Poly)
        out.terms = _canonical(acc)
        return out

    def rename(self, mapping: Mapping[str, str]) -> "Poly":
        """Rename variables; the map must keep monomials collision-free."""
        terms: dict[Monomial, int | Fraction] = {}
        for m, c in self.terms.items():
            renamed = tuple(sorted(((mapping.get(v, v), e) for v, e in m),
                                   key=lambda item: var_key(item[0])))
            if renamed in terms:
                raise ValueError("variable renaming collides")
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
        if not self.terms:
            return "0"
        parts: list[str] = []
        for m, c in self.sorted_terms():
            if m == ONE_MONOMIAL:
                body = str(abs(c))
            elif abs(c) == 1:
                body = mono_str(m)
            else:
                body = f"{abs(c)}*{mono_str(m)}"
            if not parts:
                parts.append(body if c > 0 else f"-{body}")
            else:
                parts.append(f"+ {body}" if c > 0 else f"- {body}")
        return " ".join(parts)

    def __repr__(self) -> str:
        return f"Poly({self})"

    @classmethod
    def parse(cls, text: str) -> "Poly":
        tokens = tokenize(text)
        parser = _PolyParser(tokens)
        poly = parser.parse_expression()
        parser.expect_end()
        return poly


# -- derived operations ------------------------------------------------------


def jacobian_minor(f1: Poly, f2: Poly, v1: str, v2: str) -> Poly:
    """2x2 Jacobian determinant d(f1,f2)/d(v1,v2)."""
    if v1 == v2:
        raise ValueError("jacobian minor needs two distinct variables")
    return f1.partial(v1) * f2.partial(v2) - f1.partial(v2) * f2.partial(v1)


def is_pairwise_jacobian_zero(f1: Poly, f2: Poly, variables: Iterable[str] | None = None) -> bool:
    """True when every 2x2 Jacobian minor of (f1, f2) vanishes.

    By the Jacobian criterion in characteristic 0 this certifies that f1 and
    f2 are algebraically dependent.
    """
    if variables is None:
        variables = sorted(set(f1.variables()) | set(f2.variables()), key=var_key)
    else:
        variables = list(variables)
    partials1 = {v: f1.partial(v) for v in variables}
    partials2 = {v: f2.partial(v) for v in variables}
    for i, vi in enumerate(variables):
        for vj in variables[i + 1:]:
            if partials1[vi] * partials2[vj] != partials1[vj] * partials2[vi]:
                return False
    return True


# -- tokenizer and parser ----------------------------------------------------

_TOKEN_RE = re.compile(r"(\d+)|([A-Za-z]+\d*)|(\*\*|[-+*/^()\[\],.])|(\S)")

# Deepest "(" / "[" nesting the recursive-descent parsers accept; they use a
# few stack frames per level, so this keeps them far below the recursion limit.
MAX_NESTING = 100


def tokenize(text: str) -> list[tuple[str, str, int]]:
    """Split into (kind, text, position) tokens; kinds: num, name, op."""
    tokens = []
    depth = 0
    for m in _TOKEN_RE.finditer(text):
        if m.group(4):
            raise ParseError(f"unexpected character {m.group(4)!r} at position {m.start()}")
        if m.group(1):
            tokens.append(("num", m.group(1), m.start()))
        elif m.group(2):
            tokens.append(("name", m.group(2), m.start()))
        else:
            op = "^" if m.group(3) == "**" else m.group(3)
            if op in ("(", "["):
                depth += 1
                if depth > MAX_NESTING:
                    raise ParseError(f"nesting deeper than {MAX_NESTING} levels "
                                     f"at position {m.start()}")
            elif op in (")", "]"):
                depth -= 1
            tokens.append(("op", op, m.start()))
    return tokens


def parse_quotient(numerator: int, denominator: int, pos: int) -> int | Fraction:
    """The scalar of a parsed `a/b`; a zero denominator is a parse error."""
    if not denominator:
        raise ParseError(f"division by zero at position {pos}")
    return exact(Fraction(numerator, denominator))


class TokenStream:
    def __init__(self, tokens):
        self.tokens = tokens
        self.pos = 0

    def peek(self):
        if self.pos < len(self.tokens):
            return self.tokens[self.pos]
        return ("end", "", -1)

    def next(self):
        tok = self.peek()
        self.pos += 1
        return tok

    def accept_op(self, *ops: str) -> str | None:
        kind, text, _ = self.peek()
        if kind == "op" and text in ops:
            self.pos += 1
            return text
        return None

    def expect_op(self, op: str):
        if not self.accept_op(op):
            kind, text, pos = self.peek()
            raise ParseError(f"expected {op!r}, found {text!r} at position {pos}")


class _PolyParser:
    """Recursive-descent parser for `3/2*x1^2*x3 - x2^2` style expressions."""

    def __init__(self, tokens):
        self.stream = tokens if isinstance(tokens, TokenStream) else TokenStream(tokens)

    def parse_expression(self) -> Poly:
        sign = -1 if self.stream.accept_op("-") else 1
        if sign == 1:
            self.stream.accept_op("+")
        acc = self.parse_term() * sign
        while True:
            op = self.stream.accept_op("+", "-")
            if op is None:
                return acc
            term = self.parse_term()
            acc = acc + term if op == "+" else acc - term

    def parse_term(self) -> Poly:
        acc = self.parse_factor()
        while True:
            if self.stream.accept_op("*"):
                acc = acc * self.parse_factor()
                continue
            kind, _, _ = self.stream.peek()
            if kind in ("num", "name") or (kind == "op" and self.stream.peek()[1] == "("):
                acc = acc * self.parse_factor()
                continue
            return acc

    def parse_factor(self) -> Poly:
        base = self.parse_atom()
        if self.stream.accept_op("^"):
            kind, text, pos = self.stream.next()
            if kind != "num":
                raise ParseError(f"expected integer exponent at position {pos}")
            return base ** int(text)
        return base

    def parse_atom(self) -> Poly:
        kind, text, pos = self.stream.peek()
        if kind == "num":
            self.stream.next()
            numerator = int(text)
            save = self.stream.pos
            if self.stream.accept_op("/"):
                kind2, text2, pos2 = self.stream.peek()
                if kind2 == "num":
                    self.stream.next()
                    return Poly.const(parse_quotient(numerator, int(text2), pos2))
                self.stream.pos = save
            return Poly.const(numerator)
        if kind == "name":
            self.stream.next()
            return Poly.variable(text)
        if kind == "op" and text == "(":
            self.stream.next()
            inner = self.parse_expression()
            self.stream.expect_op(")")
            return inner
        raise ParseError(f"unexpected token {text!r} at position {pos}")

    def expect_end(self):
        kind, text, pos = self.stream.peek()
        if kind != "end":
            raise ParseError(f"trailing input {text!r} at position {pos}")
