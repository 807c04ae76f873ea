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
"""

from fractions import Fraction

from metalie import linalg
from metalie.metabelian import _compositions, words_of_multidegree
from metalie.poly import Poly, decode, encode, exact, mono_degree, var_key
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
