"""Expected answers and output checks for the benchmark jobs.

Every job carries the data its output is checked against (`Job.expect`).
`check_output` compares one finished job with that data and returns None when
the answer is right, or a one-line reason when it is not.

Hilbert dimensions are predicted by an independent count: the polynomial
ring graded by degree and by the sl2 weight difference s = p - q is
prod_j 1/(1 - t^(s_j) z), the commutator ideal is (L - 1) P in degrees >= 2,
and by Cayley-Sylvester the invariants of degree n number c_n(0) - c_n(2).
Element-level answers (witness, pi, normalize) are rebuilt from their printed
commutator expansions with `from_commutator_basis` and compared with an
element the program builds by another route.
"""

from __future__ import annotations

import json
import re
from fractions import Fraction
from math import comb

_TERM_RE = re.compile(r"\s*([+-])?\s*(\d+(?:/\d+)?)?\[([x\d,]+)\]")


def block_weights(blocks) -> list[int]:
    """Weight difference p - q of every variable: k - 2l for xi_l in V_k."""
    return [k - 2 * l for k in blocks for l in range(k + 1)]


def _weight_series(blocks, truncation: int) -> list[dict[int, int]]:
    """Degree slices of prod_j 1/(1 - t^(s_j) z) as {s: count}."""
    series = [{0: 1}] + [{} for _ in range(truncation)]
    for s in block_weights(blocks):
        for n in range(1, truncation + 1):
            row = series[n]
            for w, c in series[n - 1].items():
                row[w + s] = row.get(w + s, 0) + c
    return series


def expected_dims(blocks, target: str, truncation: int) -> list[int]:
    """What `hilbert <spec> <target> -N <truncation>` must print."""
    d = sum(k + 1 for k in blocks)
    if target == "polyring":
        return [comb(n + d - 1, d - 1) for n in range(truncation + 1)]
    if target == "metabelian":
        return [0, d][:truncation + 1] + [
            d * comb(n + d - 2, d - 1) - comb(n + d - 1, d - 1)
            for n in range(2, truncation + 1)]
    ring = _weight_series(blocks, truncation)
    if target == "invariant-ring":
        return [row.get(0, 0) - row.get(2, 0) for row in ring]
    if target != "invariant-module":
        raise ValueError(f"unknown hilbert target {target!r}")
    weights = block_weights(blocks)
    dims = [0, 0][:truncation + 1]
    for n in range(2, truncation + 1):
        module = {w: -c for w, c in ring[n].items()}
        for s in weights:
            for w, c in ring[n - 1].items():
                module[w + s] = module.get(w + s, 0) + c
        dims.append(module.get(0, 0) - module.get(2, 0))
    return dims


def parse_expansion(text: str) -> list[tuple[Fraction, tuple[int, ...]]]:
    """Terms of a printed commutator expansion such as `2[x4,x1] - [x3,x2]`."""
    if text.strip() == "0":
        return []
    terms, pos = [], 0
    while pos < len(text.rstrip()):
        m = _TERM_RE.match(text, pos)
        if m is None or (terms and m.group(1) is None):
            raise ValueError(f"unreadable expansion at {text[pos:pos + 20]!r}")
        coeff = Fraction(m.group(2) or 1) * (-1 if m.group(1) == "-" else 1)
        indices = tuple(int(v[1:]) for v in m.group(3).split(","))
        terms.append((coeff, indices))
        pos = m.end()
    return terms


def rebuild(expansion: str, dim: int):
    """The envelope element of a printed expansion, via from_commutator_basis;
    also checks that every word is in left-normed normal form."""
    from metalie.metabelian import CommutatorWord, LieContext, from_commutator_basis

    words = [(c, CommutatorWord(ix)) for c, ix in parse_expansion(expansion)]
    for _, w in words:
        if not w.is_normal():
            raise ValueError(f"word {w} is not in normal form")
    return from_commutator_basis(LieContext(dim), words)


def _dimension(spec: str) -> int:
    return sum(int(k) + 1 for k in spec.split(","))


def check_output(job, code: int, stdout: str) -> str | None:
    """None when the job's exit code and printed answer are right."""
    expect = job.expect
    if code != expect["exit"]:
        return f"exit code {code}, expected {expect['exit']}"
    kind = job.argv[0]
    if kind == "hilbert":
        dims = json.loads(stdout)
        if dims != expect["dims"]:
            return f"dims {dims} != {expect['dims']}"
    elif kind == "catalog":
        reports = [json.loads(line) for line in stdout.splitlines()]
        if [(r["case"], r["truncation"], r["passed"]) for r in reports] != \
                [(expect["case"], expect["degree"], True)]:
            return f"catalog report {stdout[:200]!r}"
    elif kind == "check":
        if json.loads(stdout)["invariant"] != (expect["exit"] == 0):
            return f"check printed {stdout.strip()!r}"
    elif kind == "witness":
        return _check_witness(job, json.loads(stdout))
    elif kind == "pi":
        return _check_pi(job, json.loads(stdout))
    elif kind == "normalize":
        return _check_normalize(job, stdout.strip())
    else:
        return f"no check for {kind!r}"
    return None


def _check_witness(job, rows) -> str | None:
    from itertools import islice

    from metalie.invariants import infinite_family_witness
    from metalie.sl2 import ModuleSpec

    spec = ModuleSpec.parse(job.argv[1])
    family = list(islice(infinite_family_witness(spec), job.expect["count"]))
    if len(rows) != len(family):
        return f"{len(rows)} rows, expected {len(family)}"
    degrees = [row["degree"] for row in rows]
    if any(a >= b for a, b in zip(degrees, degrees[1:])):
        return f"degrees {degrees} do not strictly increase"
    for row, u in zip(rows, family):
        if row["invariant"] is not True:
            return f"row of degree {row['degree']} is not invariant"
        if row["degree"] != u.total_degree() or rebuild(row["element"], spec.dimension) != u:
            return f"row of degree {row['degree']} does not rebuild the witness"
    return None


def _check_pi(job, out) -> str | None:
    from metalie.invariants import pi_via_bracket
    from metalie.metabelian import LieContext
    from metalie.poly import Poly

    dim = _dimension(job.argv[1])
    value = pi_via_bracket(Poly.parse(job.argv[2]), Poly.parse(job.argv[3]), LieContext(dim))
    if out["zero"] != value.is_zero() or rebuild(out["expansion"], dim) != value:
        return f"pi expansion {out['expansion'][:80]!r} is wrong"
    return None


def _check_normalize(job, text: str) -> str | None:
    from metalie.metabelian import LieContext, parse_lie_expr

    dim = job.expect["dim"]
    if rebuild(text, dim) != parse_lie_expr(job.argv[1]).evaluate(LieContext(dim)):
        return f"normal form {text[:80]!r} differs from the input"
    return None
