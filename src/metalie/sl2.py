"""SL2 module structure on the generator space and the induced actions.

A module specification (k_1, ..., k_r) declares the generator space as a
direct sum of binary-form blocks; the (k+1)-dimensional block with basis
xi_0..xi_k is identified with consecutive x-variables.  The two unitriangular
group generators act by

    g1(xi_l)     = sum_{j<=l} C(l,j) xi_j,
    g2(xi_{k-l}) = sum_{j<=l} C(l,j) xi_{k-j},

extended as algebra substitutions to polynomials and simultaneously on the
a/y alphabets of the wreath envelope.  An element is invariant iff it is
fixed by g1 and g2, or equivalently killed by their logarithms, which on
each block are the raising and lowering derivations

    delta1(xi_l) = l * xi_{l-1},    delta2(xi_l) = (k-l) * xi_{l+1}.

`derivations` builds these from the closed form, and `check` decides
invariance with them at a cost linear in the element.  Substitution by g1
and g2 (`is_invariant`) and the exact matrix logarithm (`log_unipotent`)
remain as independent checks of that path.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb
from typing import Literal

from . import linalg
from .metabelian import LieContext, WreathElement, _compositions, words_of_degree
from .poly import Monomial, Poly, var_key


class NotUnipotent(ValueError):
    """Raised when a matrix logarithm needs a unipotent input."""


@dataclass(frozen=True)
class ModuleSpec:
    """Ordered block degrees (k_1, ..., k_r) of the generator module."""

    blocks: tuple[int, ...]

    def __post_init__(self):
        if not self.blocks:
            raise ValueError("module specification must list at least one block")
        if any(k < 0 for k in self.blocks):
            raise ValueError("block degrees are nonnegative")

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

    def block_of(self, j: int) -> tuple[int, int]:
        """(block degree k, position l within block) of variable x_j."""
        if not 1 <= j <= self.dimension:
            raise IndexError(f"variable index {j} out of range")
        for k, offset in zip(self.blocks, self.offsets()):
            if offset < j <= offset + k + 1:
                return k, j - offset - 1
        raise AssertionError("unreachable")

    def weight(self, j: int) -> tuple[int, int]:
        """Torus weight of x_j: xi_l in a degree-k block weighs (k-l, l)."""
        k, l = self.block_of(j)
        return k - l, l


def _weight_of_monomial(m: Monomial, spec: ModuleSpec) -> tuple[int, int]:
    w1 = w2 = 0
    for v, e in m:
        letter, index = var_key(v)
        if letter not in ("x", "y", "a"):
            raise ValueError(f"variable {v} carries no weight")
        p, q = spec.weight(index)
        w1 += e * p
        w2 += e * q
    return w1, w2


@dataclass(frozen=True, eq=False)
class _GeneratorMatrix:
    """Linear map on the generators; column j is the image of x_{j+1}.

    The same matrix acts on the x-, a- and y-alphabets; the subclasses fix
    how it extends from the generators to products.
    """

    spec: ModuleSpec
    matrix: tuple[tuple[Fraction, ...], ...]

    def __eq__(self, other):
        return type(other) is type(self) and self.spec == other.spec \
            and self.matrix == other.matrix

    def column_image(self, letter: str, j: int) -> Poly:
        acc = Poly.zero()
        for i in range(self.spec.dimension):
            c = self.matrix[i][j - 1]
            if c:
                acc = acc + c * Poly.variable(f"{letter}{i + 1}")
        return acc

    def _images(self, p: Poly, letters: str) -> dict[str, Poly]:
        """Image of each variable of p; each must be one of the generators."""
        d = self.spec.dimension
        images = {}
        for v in p.variables():
            letter, index = var_key(v)
            if letter not in letters or not 1 <= index <= d:
                raise ValueError(f"variable {v} is not one of "
                                 + ", ".join(f"{c}1..{c}{d}" for c in letters))
            images[v] = self.column_image(letter, index)
        return images

    def _map(self, obj, extend):
        """Image of a polynomial in x1..xd or of an envelope element, where
        extend(p, images) extends the images of the variables of p to p."""
        if isinstance(obj, Poly):
            return extend(obj, self._images(obj, "x"))
        if isinstance(obj, WreathElement):
            if obj.ctx.dim != self.spec.dimension:
                raise ValueError("element rank does not match the module specification")
            return WreathElement(obj.ctx, extend(obj.poly, self._images(obj.poly, "ay")))
        raise TypeError(f"cannot act on {type(obj).__name__}")


class LinearAction(_GeneratorMatrix):
    """Linear substitution of the generators, extended as an algebra map."""

    def act(self, obj):
        return self._map(obj, Poly.substitute)


class Derivation(_GeneratorMatrix):
    """Linear derivation, extended to products by the Leibniz rule."""

    def act(self, obj):
        return self._map(obj, _leibniz)


def _leibniz(p: Poly, images: dict[str, Poly]) -> Poly:
    acc = Poly.zero()
    for v, image in images.items():
        acc = acc + image * p.partial(v)
    return acc


def g1_matrix(spec: ModuleSpec) -> LinearAction:
    """Action of the upper unitriangular generator on each block."""
    d = spec.dimension
    m = [[Fraction(0)] * d for _ in range(d)]
    for k, offset in zip(spec.blocks, spec.offsets()):
        for l in range(k + 1):
            for j in range(l + 1):
                m[offset + j][offset + l] = Fraction(comb(l, j))
    return LinearAction(spec, tuple(tuple(row) for row in m))


def g2_matrix(spec: ModuleSpec) -> LinearAction:
    """Action of the lower unitriangular generator, mirroring g1."""
    d = spec.dimension
    m = [[Fraction(0)] * d for _ in range(d)]
    for k, offset in zip(spec.blocks, spec.offsets()):
        for l in range(k + 1):
            for j in range(l + 1):
                m[offset + k - j][offset + k - l] = Fraction(comb(l, j))
    return LinearAction(spec, tuple(tuple(row) for row in m))


def log_unipotent(g: LinearAction) -> Derivation:
    """Exact matrix logarithm of a unipotent action.

    The series log(1 + N) = N - N^2/2 + ... terminates because N is
    nilpotent; a non-nilpotent input is rejected.  Dense and slow; it serves
    as the independent check of the closed forms in `derivations`.
    """
    d = g.spec.dimension
    n = linalg.mat_sub([list(row) for row in g.matrix], linalg.identity(d))
    acc = linalg.zero_matrix(d)
    power = linalg.identity(d)
    for step in range(1, d + 1):
        power = linalg.mat_mul(power, n)
        if linalg.is_zero_matrix(power):
            break
        acc = linalg.mat_add(acc, linalg.mat_scale(power, Fraction((-1) ** (step - 1), step)))
    else:
        raise NotUnipotent("matrix minus identity is not nilpotent")
    return Derivation(g.spec, tuple(tuple(row) for row in acc))


def exp_nilpotent(delta: Derivation) -> LinearAction:
    """Exact matrix exponential of a nilpotent derivation matrix."""
    d = delta.spec.dimension
    n = [list(row) for row in delta.matrix]
    acc = linalg.identity(d)
    power = linalg.identity(d)
    factorial = 1
    for step in range(1, d + 1):
        power = linalg.mat_mul(power, n)
        factorial *= step
        if linalg.is_zero_matrix(power):
            break
        acc = linalg.mat_add(acc, linalg.mat_scale(power, Fraction(1, factorial)))
    else:
        raise NotUnipotent("derivation matrix is not nilpotent")
    return LinearAction(delta.spec, tuple(tuple(row) for row in acc))


def derivations(spec: ModuleSpec) -> tuple[Derivation, Derivation]:
    """The logarithms (delta1, delta2) of g1 and g2, in closed form.

    On a degree-k block, delta1(xi_l) = l * xi_{l-1} raises the weight and
    delta2(xi_l) = (k-l) * xi_{l+1} lowers it; `log_unipotent` of
    `g1_matrix` and `g2_matrix` gives the same matrices the slow way.
    """
    d = spec.dimension
    raising = [[Fraction(0)] * d for _ in range(d)]
    lowering = [[Fraction(0)] * d for _ in range(d)]
    for k, offset in zip(spec.blocks, spec.offsets()):
        for l in range(1, k + 1):
            raising[offset + l - 1][offset + l] = Fraction(l)
            lowering[offset + l][offset + l - 1] = Fraction(k - l + 1)
    return (Derivation(spec, tuple(tuple(row) for row in raising)),
            Derivation(spec, tuple(tuple(row) for row in lowering)))


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
    if isinstance(u, Poly):
        comps: dict[tuple[int, int], dict] = {}
        for m, c in u.terms.items():
            comps.setdefault(_weight_of_monomial(m, spec), {})[m] = c
        return {w: Poly(t) for w, t in sorted(comps.items())}
    if isinstance(u, WreathElement):
        comps = {}
        for m, c in u.poly.terms.items():
            comps.setdefault(_weight_of_monomial(m, spec), {})[m] = c
        return {w: WreathElement(u.ctx, Poly(t)) for w, t in sorted(comps.items())}
    raise TypeError(f"cannot grade {type(u).__name__}")


# -- direct invariant dimension (kernel of both derivations) -------------------


def _degree_basis(spec: ModuleSpec, degree: int,
                  space: Literal["polyring", "module", "algebra"]):
    """Basis of the degree component as (weight, object) pairs."""
    d = spec.dimension
    items = []
    if space in ("polyring",):
        for exps in _compositions(degree, d):
            mono = tuple((f"x{j + 1}", e) for j, e in enumerate(exps) if e)
            mono = tuple(sorted(mono, key=lambda it: var_key(it[0])))
            items.append(Poly.monomial(mono))
    elif space in ("module", "algebra"):
        ctx = spec.context()
        if space == "algebra" and degree == 1:
            items.extend(ctx.generator(j) for j in range(1, d + 1))
        else:
            items.extend(w.to_wreath(ctx) for w in words_of_degree(d, degree))
    else:
        raise ValueError(f"unknown space {space!r}")
    out = []
    for obj in items:
        terms = obj.terms if isinstance(obj, Poly) else obj.poly.terms
        weights = {_weight_of_monomial(m, spec) for m in terms}
        if len(weights) != 1:
            raise AssertionError("basis element is not weight homogeneous")
        out.append((weights.pop(), obj))
    return out


def invariant_dimension(spec: ModuleSpec, degree: int,
                        space: Literal["polyring", "module", "algebra"] = "polyring") -> int:
    """Dimension of the invariant part of a degree component, by exact linear
    algebra: elements killed by both logarithm derivations.

    Only the balanced torus-weight blocks can contribute, which keeps the
    matrices small.  `space` selects the polynomial algebra, the commutator
    ideal, or the whole metabelian algebra.
    """
    if degree == 0:
        return 1 if space == "polyring" else 0
    deltas = derivations(spec)
    buckets: dict[tuple[int, int], list] = {}
    for weight, obj in _degree_basis(spec, degree, space):
        buckets.setdefault(weight, []).append(obj)
    total = 0
    for (p, q), objs in buckets.items():
        if p != q:
            continue
        rows = []
        for obj in objs:
            row = {}
            for tag, delta in enumerate(deltas):
                image = delta.act(obj)
                terms = image.terms if isinstance(image, Poly) else image.poly.terms
                for m, c in terms.items():
                    row[(tag, m)] = c
            rows.append(row)
        total += len(objs) - linalg.rank(rows)
    return total
