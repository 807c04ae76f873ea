"""Exact computer algebra for SL2-invariants of free metabelian Lie algebras.

The package models the free metabelian Lie algebra on d generators inside
the Poisson envelope of an abelian wreath product, equips the generator
space with any direct sum of binary-form modules, and computes invariants,
Hilbert series and finite-generation verdicts with exact rational
arithmetic throughout.
"""

from .metabelian import (
    CommutatorWord,
    LieContext,
    WreathElement,
    eval_lie_expr,
    from_commutator_basis,
    parse_lie_expr,
    to_commutator_basis,
)
from .poly import Poly, jacobian_minor, is_pairwise_jacobian_zero
from .series import (
    MultiplicityTable,
    TruncatedSeries,
    expand_rational,
    extract_multiplicities,
    hilbert_metabelian,
    hilbert_polyring,
    invariant_dimension_series,
    invariant_hilbert,
    verify_symmetrization,
    weight_substitute,
)
from .sl2 import (
    Derivation,
    LinearAction,
    ModuleSpec,
    bidegree_components,
    derivations,
    g1_matrix,
    g2_matrix,
    is_invariant,
    is_invariant_by_derivations,
    log_unipotent,
)
from .invariants import (
    CatalogCase,
    GenerationVerdict,
    decide_finite_generation,
    discriminant,
    extend_by_trivial_variable,
    infinite_family_witness,
    load_catalog,
    pi,
    verify_catalog,
    w_lie,
    w_poly,
)

__version__ = "0.1.0"

__all__ = [
    "CommutatorWord", "LieContext", "WreathElement", "eval_lie_expr",
    "from_commutator_basis", "parse_lie_expr", "to_commutator_basis",
    "Poly", "jacobian_minor", "is_pairwise_jacobian_zero",
    "MultiplicityTable", "TruncatedSeries", "expand_rational",
    "extract_multiplicities", "hilbert_metabelian", "hilbert_polyring",
    "invariant_dimension_series", "invariant_hilbert", "verify_symmetrization",
    "weight_substitute",
    "Derivation", "LinearAction", "ModuleSpec", "bidegree_components",
    "derivations", "g1_matrix", "g2_matrix", "is_invariant", "is_invariant_by_derivations",
    "log_unipotent",
    "CatalogCase", "GenerationVerdict", "decide_finite_generation",
    "discriminant", "extend_by_trivial_variable", "infinite_family_witness",
    "load_catalog", "pi", "verify_catalog", "w_lie", "w_poly",
]
