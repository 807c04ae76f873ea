"""Slow independent routes kept only to check the production code.

The tuple-monomial polynomial below is the representation `metalie.poly` used
before monomials were packed into ints: a monomial is a tuple of
(variable, exponent) pairs sorted by `var_key`, and a polynomial is a dict
from such tuples to coefficients.  `exp_nilpotent` is the matrix exponential
that undoes `sl2.log_unipotent`.  The decomposition rules are the stated
closed forms the computed tensor, symmetric and skew squares are checked
against.  `expand_rational_by_power_sums` is the series route `expand_rational`
took before its recurrence: each factor inverted as a truncated geometric sum.
`bracket_chain` evaluates a commutator word by m - 1 envelope brackets, the
route `CommutatorWord.to_wreath` took before its closed form, and
`two_derivation_kernel_dimension` is the invariant count `sl2.invariant_dimension`
made before it kept only the weight-(p, p) part: the kernel of both
derivations, weight by weight, over the bracket-chain words.
`tuple_decompose_character`, `tuple_divide_by_t1_minus_t2` and
`tuple_symmetrizes` are the weight-difference rule and the symmetrization
identity on tables keyed by exponent tuples, the route `verify_catalog` took
before it worked on weight slices: they read every cell against its mirror
and divide by t1 - t2, where `decompose_slice` differences neighbours on a
line and `symmetrizes_to` multiplies back.  `derivation_by_partials` applies
a derivation as the sum of image times partial derivative, one variable at a
time, the route `Derivation.act` took before the one-pass `Poly.derive`.
`pi_via_minors` is `invariants.pi` before Euler's identity: the Jacobian minor of
every pair of variables added at m a_i x_j and, negated, at m a_j x_i.
`bracket_by_split` is `WreathElement.bracket` before its one kernel: each
a_i-coefficient times the other side's Euler operator, taken as
sum_v v * d/dv, multiplied by a_i and added to the result one at a time.
`stream_tokenize`, `TokenStream`, `StreamPolyParser`, `stream_parse_poly`,
`stream_parse_lie_expr`, `stream_parse_rational_function` and
`split_to_commutator_basis` are the text boundary
before it read tokens by index: a tokenizer that checks each name against
`var_key`'s pattern, a cursor whose every peek clamps to the end token, a
parser that forms a `Poly` for every atom and product, a Lie parser that sums
`WreathElement`s, and the word-basis read-off through `WreathElement.split` and
one validated `CommutatorWord` per word.
"""

import re
from fractions import Fraction
from functools import reduce
from math import comb

from metalie import linalg
from metalie.invariants import _require_x_polys
from metalie.metabelian import (CommutatorWord, ContextMismatch, LieExpr, NotInCommutatorIdeal,
                                WreathElement, _compositions, _wrap, words_of_multidegree)
from metalie.poly import (_VAR_RE, MAX_EXPONENT, MAX_NESTING, ParseError, Poly, _check_term_pairs,
                          _digit_limited, decode, encode, exact, fields, jacobian_minors,
                          mono_degree, mono_mul, slot_key, var_key)
from metalie.series import NotACharacter, TruncatedSeries
from metalie.sl2 import (Derivation, LinearAction, NotUnipotent, bidegree_components,
                         derivations)


def tuple_mono_mul(a, b):
    """Product of two tuple monomials: one linear merge of the sorted factors."""
    out = []
    i = j = 0
    while i < len(a) and j < len(b):
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


def tuple_terms(p):
    """The terms of a `Poly` keyed by tuple monomials."""
    return {decode(m): c for m, c in p.terms.items()}


def _add_to(terms, m, c):
    s = terms.get(m, 0) + c
    if s:
        terms[m] = exact(s)
    else:
        terms.pop(m, None)


def tuple_mul(p, q):
    out = {}
    for m1, c1 in p.items():
        for m2, c2 in q.items():
            _add_to(out, tuple_mono_mul(m1, m2), c1 * c2)
    return out


def tuple_pow(p, n):
    out = {(): 1}
    for _ in range(n):
        out = tuple_mul(out, p)
    return out


def tuple_partial(p, var):
    out = {}
    for m, c in p.items():
        e = dict(m).get(var, 0)
        if e:
            reduced = tuple((v, k - 1 if v == var else k) for v, k in m
                            if not (v == var and k == 1))
            _add_to(out, reduced, c * e)
    return out


def tuple_substitute(p, images):
    """images: variable -> tuple-keyed terms."""
    out = {}
    for m, c in p.items():
        prod = {(): c}
        for v, e in m:
            prod = tuple_mul(prod, tuple_pow(images[v], e) if v in images else {((v, e),): 1})
        for mm, cc in prod.items():
            _add_to(out, mm, cc)
    return out


def tuple_rename(p, mapping):
    return {tuple(sorted(((mapping.get(v, v), e) for v, e in m), key=lambda it: var_key(it[0]))): c
            for m, c in p.items()}


def tuple_str(p):
    """The printed form: graded-lex order, higher degree first."""
    if not p:
        return "0"

    def key(item):
        m = item[0]
        return (-sum(e for _, e in m), tuple((var_key(v), -e) for v, e in m))

    parts = []
    for m, c in sorted(p.items(), key=key):
        mono = "*".join(v if e == 1 else f"{v}^{e}" for v, e in m)
        body = str(abs(c)) if not m else mono if abs(c) == 1 else f"{abs(c)}*{mono}"
        if not parts:
            parts.append(body if c > 0 else f"-{body}")
        else:
            parts.append(f"+ {body}" if c > 0 else f"- {body}")
    return " ".join(parts)


def exp_nilpotent(delta: Derivation) -> LinearAction:
    """Exact matrix exponential of a nilpotent derivation, on the dense
    matrix of its columns; stops at the first zero power."""
    d = delta.spec.dimension
    n = [[delta.columns[j].get(i, 0) for j in range(d)] for i in range(d)]
    acc = [[int(i == j) for j in range(d)] for i in range(d)]
    power = acc
    factorial = 1
    for step in range(1, d + 1):
        power = linalg.mat_mul(power, n)
        factorial *= step
        if not any(map(any, power)):
            break
        acc = [[x + Fraction(y, factorial) for x, y in zip(ra, rp)]
               for ra, rp in zip(acc, power)]
    else:
        raise NotUnipotent("derivation matrix is not nilpotent")
    return LinearAction(delta.spec, tuple({i: acc[i][j] for i in range(d) if acc[i][j]}
                                          for j in range(d)))


def schur_function(k: int, l: int) -> dict[tuple[int, int], int]:
    """Character of det^l tensor V_k: (t1 t2)^l * (t1^k + ... + t2^k)."""
    return {(k + l - i, l + i): 1 for i in range(k + 1)}


def young_tensor_rule(k: int, m: int) -> dict[tuple[int, int], int]:
    """V_k (x) V_m = sum_n det^n (x) V_{k+m-2n} for n = 0..min(k, m)."""
    lo = min(k, m)
    return {(k + m - 2 * n, n): 1 for n in range(lo + 1)}


def symmetric_square_rule(k: int) -> dict[tuple[int, int], int]:
    if k % 2 == 0:
        m = k // 2
        return {(4 * (m - n), 2 * n): 1 for n in range(m + 1)}
    m = (k - 1) // 2
    return {(4 * (m - n) + 2, 2 * n): 1 for n in range(m + 1)}


def skew_square_rule(k: int) -> dict[tuple[int, int], int]:
    if k % 2 == 0:
        m = k // 2
        return {(4 * (m - n) + 2, 2 * n - 1): 1 for n in range(1, m + 1)}
    m = (k - 1) // 2
    return {(4 * (m - n), 2 * n + 1): 1 for n in range(m + 1)}


def tuple_decompose_character(character):
    """Multiplicities {(k, l): m} of S_(k+l, l) in a table {(a, b): c}, by
    m(k, l) = c(k+l, l) - c(k+l+1, l-1) at every (a, b), a >= b, where c(a, b)
    or c(a+1, b-1) is nonzero; NotACharacter unless the table is symmetric
    and every m a nonnegative integer."""
    c = {key: v for key, v in character.items() if v}
    result = {}
    for (a, b), v in c.items():
        if c.get((b, a), 0) != v:
            raise NotACharacter("weight table is not symmetric under t1 <-> t2")
        for x, y in ((a, b), (a - 1, b + 1)):
            if x < y:
                continue
            m = c.get((x, y), 0) - c.get((x + 1, y - 1), 0)
            if m:
                if m < 0 or m.denominator != 1:
                    raise NotACharacter(f"multiplicity {m} at weight {(x, y)}")
                result[(x - y, y)] = int(m)
    return result


def tuple_divide_by_t1_minus_t2(numerator):
    """Exact division of a table {(a, b, n): c} by (t1 - t2); None if impossible.
    Each slice of fixed n and a + b = s divides on its own: walking a
    downwards, the quotient at t1^(a-1) t2^(s-a) is the running sum of the
    numerator from a up, and the sum over the whole slice must vanish."""
    slices = {}
    for (a, b, n), c in numerator.items():
        slices.setdefault((n, a + b), {})[a] = c
    quotient = {}
    for (n, s), row in slices.items():
        carry = 0
        for a in range(max(row), 0, -1):
            carry += row.get(a, 0)
            if carry:
                quotient[(a - 1, s - a, n)] = carry
        if carry + row.get(0, 0):
            return None
    return quotient


def tuple_symmetrizes(multiplicities, character):
    """Whether character == (t1 f(t1, t2, z) - t2 f(t2, t1, z)) / (t1 - t2)
    for f = sum m t1^a t2^b z^n over the table {(a, b, n): m}."""
    numerator = {}
    for (a, b, n), c in multiplicities.items():
        numerator[(a + 1, b, n)] = numerator.get((a + 1, b, n), 0) + c
        numerator[(b, a + 1, n)] = numerator.get((b, a + 1, n), 0) - c
    quotient = tuple_divide_by_t1_minus_t2({k: v for k, v in numerator.items() if v})
    return quotient is not None and quotient == {k: v for k, v in character.items() if v}


def expand_rational_by_power_sums(numerator, denominator_factors, truncation, var="z"):
    """numerator / prod(factors) as `TruncatedSeries` products: 1/f is
    (1/c_0) * sum_n (1 - f/c_0)^n, summed until the power vanishes."""

    def to_series(p):
        return TruncatedSeries((var,), truncation,
                               {(mono_degree(m),): c for m, c in p.terms.items()})

    acc = to_series(numerator)
    one = TruncatedSeries.one((var,), truncation)
    for f in denominator_factors:
        c0 = f.constant_term()
        if not c0:
            raise ValueError(f"denominator factor {f} has zero constant term")
        tail = one - to_series(f) * (Fraction(1) / c0)
        inverse = one
        power = one
        for _ in range(truncation):
            power = power * tail
            if not power.coefficients:
                break
            inverse = inverse + power
        acc = acc * inverse * (Fraction(1) / c0)
    return acc


def words_of_degree(dim, degree):
    """All normal-form basis words of the given total degree in rank `dim`."""
    words = []
    for multidegree in _compositions(degree, dim):
        words.extend(words_of_multidegree(multidegree))
    return sorted(words, key=lambda w: w.sort_key())


def bracket_chain(word, ctx):
    """[x_j1, x_j2, ..., x_jk] as the left-normed chain of envelope brackets."""
    acc = ctx.generator(word.indices[0])
    for j in word.indices[1:]:
        acc = acc.bracket(ctx.generator(j))
    return acc


def two_derivation_kernel_dimension(spec, degree, space="polyring"):
    """Invariants of one degree component: per balanced torus weight, the
    basis elements minus the rank of their delta1 and delta2 images together.
    Every basis element must be weight homogeneous."""
    if degree == 0:
        return 1 if space == "polyring" else 0
    d = spec.dimension
    ctx = spec.context()
    if space == "polyring":
        items = [Poly.monomial(encode((f"x{j + 1}", e) for j, e in enumerate(exps) if e))
                 for exps in _compositions(degree, d)]
    elif space == "algebra" and degree == 1:
        items = [ctx.generator(j) for j in range(1, d + 1)]
    else:
        items = [bracket_chain(w, ctx) for w in words_of_degree(d, degree)]
    buckets = {}
    for obj in items:
        (weight,) = bidegree_components(obj, spec)
        buckets.setdefault(weight, []).append(obj)
    deltas = derivations(spec)
    total = 0
    for (p, q), objs in buckets.items():
        if p != q:
            continue
        rows = []
        for obj in objs:
            row = {}
            for tag, delta in enumerate(deltas):
                image = delta.act(obj)
                for m, c in (image.terms if isinstance(image, Poly) else image.poly.terms).items():
                    row[(tag, m)] = c
            rows.append(row)
        total += len(objs) - linalg.rank(rows)
    return total


def leibniz_by_partials(p, images):
    """sum_v images[v] * dp/dv: one partial derivative, product and sum per variable."""
    acc = Poly.zero()
    for v, image in images.items():
        acc = acc + image * p.partial(v)
    return acc


def derivation_by_partials(delta, obj):
    """`delta.act(obj)` for a `Poly` or `WreathElement`, by `leibniz_by_partials`."""
    return delta._map(obj, leibniz_by_partials, delta._images)


def bracket_by_split(u, v):
    """[u, v] = sum_i a_i (u_i E(v0) - v_i E(u0)), one product by a_i per nonzero term."""
    u._check(v)

    def euler(p):
        return sum((Poly.variable(x) * p.partial(x) for x in p.variables()), Poly.zero())
    (u0, u_parts), (v0, v_parts) = u.split(), v.split()
    eu, ev = euler(u0), euler(v0)
    acc = Poly.zero()
    for i, ui in u_parts.items():
        contrib = ui * ev
        if contrib:
            acc = acc + Poly.variable(f"a{i}") * contrib
    for j, vj in v_parts.items():
        contrib = vj * eu
        if contrib:
            acc = acc - Poly.variable(f"a{j}") * contrib
    return WreathElement(u.ctx, acc)


def pi_via_minors(f1, f2, ctx):
    """pi(f1, f2) as sum_{i<j} (a_i x_j - a_j x_i) d(f1,f2)/d(x_i,x_j): v(v - 1) products."""
    _require_x_polys(ctx, f1, f2)
    terms = {}
    for v, w, minor in jacobian_minors(f1, f2):
        for unit, sign in ((encode([("a" + v[1:], 1), (w, 1)]), 1),
                           (encode([("a" + w[1:], 1), (v, 1)]), -1)):
            for m, c in minor.terms.items():
                key = mono_mul(m, unit)
                terms[key] = terms.get(key, 0) + sign * c
    return _wrap(ctx, Poly(terms), in_ideal=True)


# -- the text boundary before tokens were read by index --------------------------

_STREAM_TOKEN_RE = re.compile(r"(\d+)|([A-Za-z]+\d*)|(\*\*|[-+*/^()\[\],.])|(\S)")


def stream_tokenize(text):
    """`metalie.poly.tokenize` before its one-pass scan."""
    tokens = []
    depth = 0
    for m in _STREAM_TOKEN_RE.finditer(text):
        if m.group(4):
            raise ParseError(f"unexpected character {m.group(4)!r} at position {m.start()}")
        if m.group(1):
            tokens.append(("num", m.group(1), m.start()))
        elif m.group(2):
            if not _VAR_RE.match(m.group(2)):
                raise ParseError(f"variable {m.group(2)!r} at position {m.start()}: "
                                 "an index takes no leading zero")
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
    tokens.append(("end", "end of input", len(text)))
    return tokens


def describe_token(kind, text):
    return text if kind == "end" else f"token {text!r}"


class TokenStream:
    """Cursor over the tokens of `stream_tokenize`; it stays on the end token."""

    def __init__(self, tokens):
        self.tokens = tokens
        self.pos = 0

    def peek(self):
        return self.tokens[min(self.pos, len(self.tokens) - 1)]

    def next(self):
        tok = self.peek()
        self.pos += 1
        return tok

    def accept_op(self, *ops):
        kind, text, _ = self.peek()
        if kind == "op" and text in ops:
            self.pos += 1
            return text
        return None

    def expect_op(self, op):
        if not self.accept_op(op):
            kind, text, pos = self.peek()
            raise ParseError(f"expected {op!r}, found {describe_token(kind, text)} "
                             f"at position {pos}")

    def accept_exponent(self):
        if not self.accept_op("^"):
            return None
        kind, text, pos = self.next()
        if kind != "num":
            raise ParseError(f"expected integer exponent at position {pos}")
        n = int(text) if len(text) <= len(str(MAX_EXPONENT)) else MAX_EXPONENT + 1
        if n > MAX_EXPONENT:
            raise ParseError(f"exponent {text} at position {pos} over the budget "
                             f"of {MAX_EXPONENT}")
        return n, pos

    def accept_scalar(self):
        kind, text, _ = self.peek()
        if kind != "num":
            return None
        self.pos += 1
        save = self.pos
        if self.accept_op("/"):
            kind, denominator, pos = self.peek()
            if kind == "num":
                self.pos += 1
                numerator, denominator = (_digit_limited(int, t) for t in (text, denominator))
                if not denominator:
                    raise ParseError(f"division by zero at position {pos}")
                return exact(Fraction(numerator, denominator))
            self.pos = save
        return _digit_limited(int, text)

    def expect_end(self):
        kind, text, pos = self.peek()
        if kind != "end":
            raise ParseError(f"trailing input {text!r} at position {pos}")


class StreamPolyParser:
    """The polynomial parser over a `TokenStream`: every atom and product a `Poly`."""

    def __init__(self, stream):
        self.stream = stream

    def parse_expression(self):
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

    def parse_term(self):
        acc = self.parse_factor()
        while True:
            if not self.stream.accept_op("*"):
                kind, text, _ = self.stream.peek()
                if not (kind in ("num", "name") or (kind == "op" and text == "(")):
                    return acc
            pos = self.stream.peek()[2]
            acc = self.product(acc, self.parse_factor(), pos)

    @staticmethod
    def product(acc, factor, pos):
        _check_term_pairs(len(acc.terms) * len(factor.terms), f"product at position {pos}")
        return acc * factor

    def parse_factor(self):
        base = self.parse_atom()
        power = self.stream.accept_exponent()
        if power is None:
            return base
        n, pos = power
        t = len(base.terms)
        if t > 1:
            h = n // 2
            _check_term_pairs(comb(h + t - 1, min(h, t - 1))
                              * comb(n - h + t - 1, min(n - h, t - 1)), f"power at position {pos}")
        return base ** n

    def parse_atom(self):
        scalar = self.stream.accept_scalar()
        if scalar is not None:
            return Poly.const(scalar)
        kind, text, pos = self.stream.peek()
        if kind == "name":
            self.stream.next()
            return Poly.variable(text)
        if kind == "op" and text == "(":
            self.stream.next()
            inner = self.parse_expression()
            self.stream.expect_op(")")
            return inner
        raise ParseError(f"unexpected {describe_token(kind, text)} at position {pos}")


def stream_parse_poly(text):
    """`Poly.parse` over a `TokenStream`."""
    stream = TokenStream(stream_tokenize(text))
    poly = StreamPolyParser(stream).parse_expression()
    stream.expect_end()
    return poly


def stream_parse_rational_function(text):
    """`series.parse_rational_function` over a `TokenStream`."""
    stream = TokenStream(stream_tokenize(text))
    numerator = StreamPolyParser(stream).parse_expression()
    factors = []
    if stream.accept_op("/"):
        while True:
            kind, tok, pos = stream.peek()
            if kind == "op" and tok == "(":
                stream.next()
                factor = StreamPolyParser(stream).parse_expression()
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


def _stream_bound(j, ctx):
    if j > ctx.dim:
        raise ContextMismatch(f"generator x{j} unbound in rank {ctx.dim}")
    return j


def _stream_builder(node):
    if type(node) is int:
        return lambda ctx: ctx.generator(_stream_bound(node, ctx))
    return node


def _stream_bracket(items):
    if all(type(item) is int for item in items):
        return lambda ctx: CommutatorWord(tuple(_stream_bound(j, ctx)
                                                for j in items)).to_wreath(ctx)
    builders = [_stream_builder(item) for item in items]
    return lambda ctx: reduce(WreathElement.bracket, (build(ctx) for build in builders))


def _stream_act(node, multiplier, pos):
    arg = _stream_builder(node)

    def act(ctx):
        u = arg(ctx)
        _check_term_pairs(len(u.poly.terms) * len(multiplier.terms),
                          f"module action at position {pos}")
        return u.ad_action(multiplier)
    return act


def _stream_scale(coeff, node):
    arg = _stream_builder(node)
    return lambda ctx: coeff * arg(ctx)


def stream_parse_lie_expr(text):
    """`parse_lie_expr` over a `TokenStream`, each sum built by `WreathElement` additions."""
    tokens = stream_tokenize(text)
    stream = TokenStream(tokens)
    node = _stream_lie_sum(stream)
    stream.expect_end()
    keys = [var_key(tok) for kind, tok, _ in tokens if kind == "name"]
    return LieExpr(_stream_builder(node), max(index for letter, index in keys if letter == "x"))


def _stream_lie_sum(stream):
    sign = -1 if stream.accept_op("-") else 1
    terms = [_stream_lie_term(stream, sign)]
    while op := stream.accept_op("+", "-"):
        terms.append(_stream_lie_term(stream, 1 if op == "+" else -1))
    if len(terms) == 1:
        return terms[0]
    builders = [_stream_builder(term) for term in terms]
    return lambda ctx: sum((build(ctx) for build in builders), ctx.zero())


def _stream_lie_term(stream, sign):
    scalar = stream.accept_scalar()
    if scalar is not None:
        stream.accept_op("*")
    node = _stream_lie_factor(stream)
    multiplier, start = None, stream.peek()[2]
    while stream.accept_op(".", "*"):
        pos = stream.peek()[2]
        factor = StreamPolyParser(stream).parse_factor()
        multiplier = factor if multiplier is None else StreamPolyParser.product(multiplier,
                                                                               factor, pos)
    if multiplier is not None:
        node = _stream_act(node, multiplier, start)
    coeff = sign if scalar is None else sign * scalar
    return node if coeff == 1 else _stream_scale(coeff, node)


def _stream_lie_factor(stream):
    kind, tok, pos = stream.peek()
    if kind == "op" and tok == "[":
        stream.next()
        items = [_stream_lie_sum(stream)]
        while stream.accept_op(","):
            items.append(_stream_lie_sum(stream))
        stream.expect_op("]")
        if len(items) < 2:
            raise ParseError(f"bracket at position {pos} needs at least two entries")
        return _stream_bracket(items)
    if kind == "op" and tok == "(":
        stream.next()
        inner = _stream_lie_sum(stream)
        stream.expect_op(")")
        return inner
    if kind == "name":
        letter, index = var_key(tok)
        if letter != "x" or index < 1:
            raise ParseError(f"expected a generator x<k> at position {pos}, found {tok!r}")
        stream.next()
        return index
    raise ParseError(f"unexpected {describe_token(kind, tok)} at position {pos}")


def split_to_commutator_basis(u):
    """`to_commutator_basis` through `WreathElement.split`: one validated word per kept term."""
    if not u.is_in_commutator_ideal():
        raise NotInCommutatorIdeal("element is not in the commutator ideal")
    expansion = []
    for i, f in u.split()[1].items():
        for m, c in f.terms.items():
            q = sorted(slot_key(s)[1] for s, e in fields(m) for _ in range(e))
            if i > q[0]:
                expansion.append((c, CommutatorWord((i, *q))))
    expansion.sort(key=lambda item: item[1].sort_key())
    return expansion
