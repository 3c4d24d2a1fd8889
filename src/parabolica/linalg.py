"""Exact linear algebra over the rationals for small dense systems.

Everything here works on sequences of ints or Fractions and returns
Fractions; no floating point is ever involved.
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


def transpose(rows: Sequence[Row]) -> tuple[tuple[Fraction, ...], ...]:
    a = _as_fraction_rows(rows)
    return tuple(zip(*a)) if a else ()
