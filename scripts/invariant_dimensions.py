#!/usr/bin/env python3
"""Invariant dimension table for a module specification.

Prints, degree by degree, the dimensions of the invariant ring, the invariant
part of the commutator ideal, and (optionally) the direct kernel recomputation
as an independent check of the character pipeline.  With --cross-check the
exit status is 1 when any dimension disagrees; a malformed or rank-1
specification is refused with exit status 2.
"""

import argparse
import sys

from metalie.series import invariant_dimension_series
from metalie.sl2 import ModuleSpec, invariant_dimension


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("spec", help="module specification, e.g. 2,1")
    parser.add_argument("-N", dest="truncation", type=int, default=10)
    parser.add_argument("--cross-check", action="store_true",
                        help="recompute every dimension by exact kernel linear algebra")
    args = parser.parse_args()

    try:
        spec = ModuleSpec.parse(args.spec)
        ring = invariant_dimension_series(spec, args.truncation, "polyring")
        module = invariant_dimension_series(spec, args.truncation, "module")
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    ring_dims = [int(c) for c in ring.univariate_coefficients()]
    module_dims = [int(c) for c in module.univariate_coefficients()]

    print(f"blocks {spec}  (rank {spec.dimension})")
    header = f"{'degree':>6} {'ring':>6} {'module':>7}"
    if args.cross_check:
        header += f" {'ring*':>6} {'module*':>8}"
    print(header)
    mismatch = False
    for n in range(args.truncation + 1):
        row = f"{n:>6} {ring_dims[n]:>6} {module_dims[n]:>7}"
        if args.cross_check:
            direct_ring = invariant_dimension(spec, n, "polyring")
            direct_module = invariant_dimension(spec, n, "module") if n else 0
            row += f" {direct_ring:>6} {direct_module:>8}"
            if direct_ring != ring_dims[n] or direct_module != module_dims[n]:
                row += "   <-- MISMATCH"
                mismatch = True
        print(row)
    return 1 if mismatch else 0


if __name__ == "__main__":
    sys.exit(main())
