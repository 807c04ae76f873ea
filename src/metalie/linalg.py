"""Exact linear algebra over the rationals: sparse ranks and solves.

Entries are `int`, or `Fraction` where a division happens (`solve_unique`).
`rank` is fraction-free: it clears denominators and eliminates over the
integers.  `mat_mul`, a dense product, has no caller here; the matrix
exponential of the test oracles and the benchmark's tracer name it.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm


class LinearSolveError(ValueError):
    """Raised when an exact linear system has no (unique) solution."""


def mat_mul(a, b):
    n, k, m = len(a), len(b), len(b[0])
    out = [[0] * m for _ in range(n)]
    for i in range(n):
        row = a[i]
        for t in range(k):
            c = row[t]
            if c:
                bt = b[t]
                oi = out[i]
                for j in range(m):
                    if bt[j]:
                        oi[j] += c * bt[j]
    return out


def _primitive(row: dict) -> dict:
    """The row divided by the gcd of its (integer) entries."""
    g = gcd(*row.values())
    return {k: v // g for k, v in row.items()} if g > 1 else row


def rank(rows) -> int:
    """Rank of a family of sparse vectors given as dicts key -> int or Fraction.

    Keys may be arbitrary hashables; zero entries need not be stored.  Each
    row is scaled to a primitive integer vector and reduced against the
    earlier pivot rows by cross-multiplication, p * row - c * pivot_row with
    the gcd of the pivot entries p, c divided out; no fraction is formed.
    """
    basis: list[tuple[object, int, dict]] = []
    for row in rows:
        row = {k: v for k, v in row.items() if v}
        if not row:
            continue
        if any(type(v) is not int for v in row.values()):
            den = lcm(*(v.denominator for v in row.values()))
            row = {k: v.numerator * (den // v.denominator) for k, v in row.items()}
        row = _primitive(row)
        for pivot, p, vec in basis:
            c = row.get(pivot)
            if not c:
                continue
            g = gcd(p, c)
            p_, c_ = p // g, c // g
            if p_ != 1:
                row = {k: p_ * v for k, v in row.items()}
            for k, v in vec.items():
                s = row.get(k, 0) - c_ * v
                if s:
                    row[k] = s
                else:
                    del row[k]
            if not row:
                break
            row = _primitive(row)
        if row:
            pivot = next(iter(row))
            basis.append((pivot, row[pivot], row))
    return len(basis)


def solve_unique(columns, target):
    """Solve sum_i c_i * columns[i] = target exactly; vectors are sparse dicts.

    Returns the coefficient list.  Raises LinearSolveError when the system is
    inconsistent or the columns are linearly dependent.
    """
    keys = sorted({k for col in columns for k in col} | set(target))
    index = {k: i for i, k in enumerate(keys)}
    n_eq, n_var = len(keys), len(columns)
    a = [[Fraction(0)] * (n_var + 1) for _ in range(n_eq)]
    for j, col in enumerate(columns):
        for k, v in col.items():
            a[index[k]][j] = Fraction(v)
    for k, v in target.items():
        a[index[k]][n_var] = Fraction(v)

    pivot_of_col: dict[int, int] = {}
    row = 0
    for col in range(n_var):
        pivot = next((r for r in range(row, n_eq) if a[r][col]), None)
        if pivot is None:
            continue
        a[row], a[pivot] = a[pivot], a[row]
        inv = Fraction(1) / a[row][col]
        a[row] = [x * inv for x in a[row]]
        for r in range(n_eq):
            if r != row and a[r][col]:
                factor = a[r][col]
                a[r] = [x - factor * y for x, y in zip(a[r], a[row])]
        pivot_of_col[col] = row
        row += 1
    if len(pivot_of_col) < n_var:
        raise LinearSolveError("columns are linearly dependent")
    for r in range(row, n_eq):
        if a[r][n_var]:
            raise LinearSolveError("inconsistent linear system")
    return [a[pivot_of_col[j]][n_var] for j in range(n_var)]
