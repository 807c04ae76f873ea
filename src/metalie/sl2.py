"""SL2 module structure on the generator space and the induced actions.

A module specification (k_1, ..., k_r) declares the generator space as a
direct sum of binary-form blocks; the (k+1)-dimensional block with basis
xi_0..xi_k is identified with consecutive x-variables.  The two unitriangular
group generators act by

    g1(xi_l)     = sum_{j<=l} C(l,j) xi_j,
    g2(xi_{k-l}) = sum_{j<=l} C(l,j) xi_{k-j},

extended as algebra substitutions to polynomials and simultaneously on the
a/y alphabets of the wreath envelope, stored as a/x.  An element is invariant
iff it is fixed by g1 and g2, or equivalently killed by their logarithms,
which on each block are the raising and lowering derivations

    delta1(xi_l) = l * xi_{l-1},    delta2(xi_l) = (k-l) * xi_{l+1}.

All four are stored by their sparse columns and built block by block by one
helper, so delta1 and delta2 hold at most one entry per column.
`derivations` builds the logarithms, and `check`, `witness` and
`verify_catalog` decide invariance with them in one pass over the packed
terms of the element (`Poly.derive`), forming no partial derivative or product.
`invariant_dimension` counts the invariants of one degree with delta1 alone:
they are the weight-(p, p) vectors that delta1 kills.  Substitution by g1 and
g2 (`is_invariant`) and the exact matrix logarithm (`log_unipotent`) remain as
independent checks of that path: `witness` substitutes into the first member
of a family, and the tests check every catalog generator both ways.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from operator import add

from . import linalg
from .metabelian import (LieContext, WreathElement, _compositions, require_variables,
                         words_of_multidegree)
from .poly import Poly, encode, fields, slot_key, slot_name
from .record import Record


class NotUnipotent(ValueError):
    """Raised when a matrix logarithm needs a unipotent input."""


class ModuleSpec(Record):
    """Ordered block degrees (k_1, ..., k_r) of the generator module; equal
    specifications share one entry of the operator caches."""

    _fields = ("blocks",)

    def __init__(self, blocks: tuple[int, ...]):
        if not blocks:
            raise ValueError("module specification must list at least one block")
        if any(k < 0 for k in blocks):
            raise ValueError("block degrees are nonnegative")
        self.blocks = blocks

    @classmethod
    def parse(cls, text: str) -> "ModuleSpec":
        try:
            blocks = tuple(int(piece) for piece in text.split(","))
        except ValueError:
            raise ValueError(f"bad module specification {text!r}") from None
        return cls(blocks)

    def __str__(self) -> str:
        return ",".join(str(k) for k in self.blocks)

    @property
    def dimension(self) -> int:
        return sum(k + 1 for k in self.blocks)

    def context(self) -> LieContext:
        return LieContext(self.dimension)

    def offsets(self) -> list[int]:
        """Offset of each block: variable x_{offset+1+l} is xi_l of the block."""
        out, acc = [], 0
        for k in self.blocks:
            out.append(acc)
            acc += k + 1
        return out

    def weights(self) -> list[tuple[int, int]]:
        """Torus weights of x_1, ..., x_d: xi_l in a degree-k block weighs (k-l, l)."""
        return [(k - l, l) for k in self.blocks for l in range(k + 1)]


class _GeneratorMatrix(Record):
    """Linear map on the generators, by sparse columns: columns[j] = {i: c}
    sends x_{j+1} to sum c * x_{i+1} and holds the nonzero entries only.

    The same map acts on the x- and a-alphabets; the subclasses fix
    how it extends from the generators to products.  Equality ignores the
    cached column images.
    """

    _fields = ("spec", "columns")

    def __init__(self, spec: ModuleSpec, columns: tuple[dict[int, int | Fraction], ...]):
        self.spec, self.columns = spec, columns
        self._column_images: dict[tuple[str, int], Poly] = {}

    def column_image(self, letter: str, j: int) -> Poly:
        if (letter, j) not in self._column_images:    # built once per operator
            self._column_images[letter, j] = Poly({encode(((f"{letter}{i + 1}", 1),)): c
                                                   for i, c in self.columns[j - 1].items()})
        return self._column_images[letter, j]

    def _images(self, p: Poly, letters: str) -> dict[str, Poly]:
        """Image of each variable of p; each must be one of the generators."""
        require_variables(p, letters, self.spec.dimension)
        return {slot_name(s): self.column_image(*slot_key(s)) for s, _ in fields(p.support())}

    def _map(self, obj, extend):
        """Image of a polynomial in x1..xd or of an envelope element, where
        extend(p, images) extends the images of the variables of p to p."""
        if isinstance(obj, Poly):
            return extend(obj, self._images(obj, "x"))
        if isinstance(obj, WreathElement):
            if obj.ctx.dim != self.spec.dimension:
                raise ValueError("element rank does not match the module specification")
            return WreathElement(obj.ctx, extend(obj.poly, self._images(obj.poly, "ax")))
        raise TypeError(f"cannot act on {type(obj).__name__}")


class LinearAction(_GeneratorMatrix):
    """Linear substitution of the generators, extended as an algebra map."""

    def act(self, obj):
        return self._map(obj, Poly.substitute)


class Derivation(_GeneratorMatrix):
    """Linear derivation, extended to products by the Leibniz rule."""

    def act(self, obj):
        return self._map(obj, Poly.derive)


def _blockwise(cls, spec: ModuleSpec, column):
    """The operator whose column of xi_l in a degree-k block is column(k, l), the
    pairs (j, c) of xi_l -> sum c * xi_j; a zero pair is dropped before its
    index (maybe outside the block) is read.  Keys share one int per index."""
    index = list(range(spec.dimension))
    return cls(spec, tuple({index[offset + j]: c for j, c in column(k, l) if c}
                           for k, offset in zip(spec.blocks, spec.offsets())
                           for l in range(k + 1)))


def _binomial_rows(spec: ModuleSpec) -> list[tuple[int, ...]]:
    """Rows 0..k of Pascal's triangle for the largest block degree k, by
    additions (one `comb` per entry takes about 9 s at k = 1023); C(n, j) and
    C(n, n-j) are one int object, which halves the memory their entries take."""
    rows = [(1,)]
    for n in range(1, max(spec.blocks) + 1):
        row = (1, *map(add, rows[-1], rows[-1][1:]), 1)
        rows.append(row[:n // 2 + 1] + row[(n - 1) // 2::-1])
    return rows


@lru_cache(maxsize=16)
def g1_matrix(spec: ModuleSpec) -> LinearAction:
    """The upper unitriangular generator: xi_l -> sum_{j<=l} C(l, j) xi_j."""
    rows = _binomial_rows(spec)
    return _blockwise(LinearAction, spec, lambda k, l: enumerate(rows[l]))


@lru_cache(maxsize=16)
def g2_matrix(spec: ModuleSpec) -> LinearAction:
    """The lower one, mirroring g1: xi_l -> sum_{j>=l} C(k-l, j-l) xi_j."""
    rows = _binomial_rows(spec)
    return _blockwise(LinearAction, spec, lambda k, l: enumerate(rows[k - l], l))


def _compose(a, b):
    """Columns of the map a after b: each column of b sent through a."""
    out = []
    for column in b:
        image = {}
        for i, c in column.items():
            for t, v in a[i].items():
                image[t] = image.get(t, 0) + c * v
        out.append({t: v for t, v in image.items() if v})
    return tuple(out)


def log_unipotent(g: LinearAction) -> Derivation:
    """Exact matrix logarithm of a unipotent action.

    The series log(1 + N) = N - N^2/2 + ... terminates because N is
    nilpotent; a non-nilpotent input is rejected.  Slow; it serves as the
    independent check of the closed forms in `derivations`.
    """
    n = tuple({i: c for i, c in {**column, j: column.get(j, 0) - 1}.items() if c}
              for j, column in enumerate(g.columns))
    log = [{} for _ in n]
    power = n
    for step in range(1, len(n) + 1):
        if not any(power):
            break
        scale = Fraction((-1) ** (step - 1), step)
        for out, column in zip(log, power):
            for i, c in column.items():
                out[i] = out.get(i, 0) + scale * c
        power = _compose(n, power)
    else:
        raise NotUnipotent("matrix minus identity is not nilpotent")
    return Derivation(g.spec, tuple({i: c for i, c in out.items() if c} for out in log))


@lru_cache(maxsize=16)
def derivations(spec: ModuleSpec) -> tuple[Derivation, Derivation]:
    """The logarithms (delta1, delta2) of g1 and g2, in closed form.

    On a degree-k block, delta1(xi_l) = l * xi_{l-1} raises the weight and
    delta2(xi_l) = (k-l) * xi_{l+1} lowers it; `log_unipotent` of
    `g1_matrix` and `g2_matrix` gives the same operators the slow way.
    """
    return (_blockwise(Derivation, spec, lambda k, l: [(l - 1, l)]),
            _blockwise(Derivation, spec, lambda k, l: [(l + 1, k - l)]))


def is_invariant(u, spec: ModuleSpec) -> bool:
    """Independent check: both unitriangular generators fix the element."""
    for g in (g1_matrix(spec), g2_matrix(spec)):
        if g.act(u) != u:
            return False
    return True


def failing_derivation_image(u, spec: ModuleSpec):
    """(name, image) of the first of delta1, delta2 that does not kill u;
    None when both do, that is, when u is invariant."""
    for name, delta in zip(("delta1", "delta2"), derivations(spec)):
        image = delta.act(u)
        if not image.is_zero():
            return name, image
    return None


def is_invariant_by_derivations(u, spec: ModuleSpec) -> bool:
    """True when both closed-form derivations kill the element; exact."""
    return failing_derivation_image(u, spec) is None


def bidegree_components(u, spec: ModuleSpec):
    """Split into torus weight components; keys are bidegrees (p, q)."""
    if not isinstance(u, (Poly, WreathElement)):
        raise TypeError(f"cannot grade {type(u).__name__}")
    poly = u if isinstance(u, Poly) else u.poly
    require_variables(poly, "ax", spec.dimension)
    comps: dict[tuple[int, int], dict] = {}
    weights = spec.weights()
    for m, c in poly.terms.items():
        w1 = w2 = 0
        for s, e in fields(m):
            p, q = weights[slot_key(s)[1] - 1]
            w1, w2 = w1 + e * p, w2 + e * q
        comps.setdefault((w1, w2), {})[m] = c
    wrap = Poly if isinstance(u, Poly) else lambda t: WreathElement(u.ctx, Poly(t))
    return {w: wrap(t) for w, t in sorted(comps.items())}


# -- direct invariant dimension (highest-weight kernel) ----------------------------


def _balanced_basis(spec: ModuleSpec, degree: int, space: str) -> dict[tuple[int, ...], list]:
    """The basis elements of torus weight (p, p) in a degree component,
    grouped by their degree in each block, which delta1 preserves.  The
    weight of each multidegree is read off before its monomial or normal
    words are built."""
    if space not in ("polyring", "module", "algebra"):
        raise ValueError(f"unknown space {space!r}")
    ctx = spec.context()
    weights = [p - q for p, q in spec.weights()]
    cuts = [*spec.offsets(), spec.dimension]
    groups: dict[tuple[int, ...], list] = {}
    for exps in _compositions(degree, spec.dimension):
        if sum(e * w for e, w in zip(exps, weights)):
            continue
        group = groups.setdefault(tuple(sum(exps[a:b]) for a, b in zip(cuts, cuts[1:])), [])
        if space == "polyring":
            group.append(Poly.monomial(encode((f"x{j}", e) for j, e in enumerate(exps, 1) if e)))
        elif space == "algebra" and degree == 1:
            group.append(ctx.generator(exps.index(1) + 1))
        else:
            group.extend(w.to_wreath(ctx) for w in words_of_multidegree(exps))
    return groups


def invariant_dimension(spec: ModuleSpec, degree: int, space: str = "polyring") -> int:
    """Dimension of the invariant part of a degree component, by exact linear
    algebra on its weight-(p, p) basis elements alone.

    In a finite-dimensional sl2-module a weight-0 vector killed by the raising
    derivation delta1 spans a trivial summand, so the count is the number of
    such basis elements minus the rank of their delta1 images, taken block
    degree by block degree.  `space` selects the polynomial algebra, the
    commutator ideal, or the whole metabelian algebra.
    """
    raising = derivations(spec)[0]
    total = 0
    for group in _balanced_basis(spec, degree, space).values():
        images = map(raising.act, group)
        total += len(group) - linalg.rank([u.terms if isinstance(u, Poly) else u.poly.terms
                                           for u in images])
    return total
