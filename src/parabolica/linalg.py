"""Exact linear algebra over the rationals for small dense systems.

``det`` and ``solve`` work on sequences of ints or Fractions and return
Fractions; ``adjugate`` stays in the integers.  No floating point is ever
involved.
"""
from __future__ import annotations

from fractions import Fraction
from typing import Sequence

Row = Sequence[int | Fraction]


def _as_fraction_rows(rows: Sequence[Row]) -> list[list[Fraction]]:
    out = [[Fraction(x) for x in row] for row in rows]
    n = len(out)
    if any(len(row) != n for row in out):
        raise ValueError("square matrix required")
    return out


def _eliminate(a: list[list[Fraction]]) -> Fraction:
    """Bring the leading n x n block of the n-row matrix a to upper-triangular
    form in place and return its determinant (0, a left partly reduced, if
    singular).  Further columns, a right-hand side, follow the row operations.
    """
    n = len(a)
    result = Fraction(1)
    for col in range(n):
        pivot = next((r for r in range(col, n) if a[r][col] != 0), None)
        if pivot is None:
            return Fraction(0)
        if pivot != col:
            a[col], a[pivot] = a[pivot], a[col]
            result = -result
        result *= a[col][col]
        inv = Fraction(1) / a[col][col]
        for r in range(col + 1, n):
            factor = a[r][col] * inv
            if factor:
                a[r] = [x - factor * y for x, y in zip(a[r], a[col])]
    return result


def det(rows: Sequence[Row]) -> Fraction:
    """Determinant by fraction-exact Gaussian elimination.

    The empty matrix has determinant 1, so Cramer formulas degenerate
    gracefully for an empty index set.
    """
    return _eliminate(_as_fraction_rows(rows))


def solve(rows: Sequence[Row], rhs: Sequence[int | Fraction]) -> tuple[Fraction, ...]:
    """Solve A x = b exactly: elimination on [A | b], then back substitution.

    Raises ValueError on a singular matrix; finite-type Cartan matrices
    are always invertible.
    """
    a = _as_fraction_rows(rows)
    n = len(a)
    if len(rhs) != n:
        raise ValueError("dimension mismatch")
    for row, b in zip(a, rhs):
        row.append(Fraction(b))
    if _eliminate(a) == 0:
        raise ValueError("singular matrix")
    x = [Fraction(0)] * n
    for r in reversed(range(n)):
        x[r] = (a[r][n] - sum((a[r][c] * x[c] for c in range(r + 1, n)), Fraction(0))) / a[r][r]
    return tuple(x)


def adjugate(rows: Sequence[Sequence[int]]) -> tuple[int, tuple[tuple[int, ...], ...]]:
    """det(A) and the integer adjugate adj(A) = det(A) * A^-1 of an integer matrix.

    Fraction-free Gauss-Jordan elimination of [A | I] (Bareiss, Math. Comp.
    22, 1968): after step k every entry is a minor of order k + 1, so each
    division by the previous pivot is exact and nothing leaves the integers.
    It ends at [d I | d A^-1] with d = +-det(A), the sign set by the row
    swaps.  A singular matrix gives (0, ()).
    """
    n = len(rows)
    if any(len(row) != n for row in rows):
        raise ValueError("square matrix required")
    m = [[int(x) for x in row] + [int(i == j) for j in range(n)] for i, row in enumerate(rows)]
    sign, prev = 1, 1
    for k in range(n):
        pivot = next((r for r in range(k, n) if m[r][k] != 0), None)
        if pivot is None:
            return 0, ()
        if pivot != k:
            m[k], m[pivot] = m[pivot], m[k]
            sign = -sign
        top = m[k]
        p = top[k]
        for i in range(n):
            if i != k:
                row = m[i]
                f = row[k]
                m[i] = [(p * x - f * y) // prev for x, y in zip(row, top)]
        prev = p
    return sign * prev, tuple(tuple(sign * x for x in row[n:]) for row in m)

