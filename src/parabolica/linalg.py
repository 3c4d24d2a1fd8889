"""Exact linear algebra over the rationals for small dense systems.

``adjugate`` is the one elimination, and it stays in the integers.
``det`` and ``solve`` take sequences of ints or Fractions, clear each row
to integers, read their answer off ``adjugate`` and return Fractions.  No
floating point is ever involved.
"""
from __future__ import annotations

import math
from collections.abc import Sequence
from fractions import Fraction

Row = Sequence[int | Fraction]


def _cleared(rows: Sequence[Row]) -> tuple[list[list[int]], int]:
    """Each row times the lcm of its denominators, which leaves integers,
    and the product of those row scales."""
    ints, scale = [], 1
    for row in rows:
        fracs = [Fraction(x) for x in row]
        k = math.lcm(*(x.denominator for x in fracs))
        ints.append([x.numerator * (k // x.denominator) for x in fracs])
        scale *= k
    return ints, scale


def det(rows: Sequence[Row]) -> Fraction:
    """Determinant: det of the integer-cleared rows over their scales.

    The empty matrix has determinant 1, so Cramer formulas degenerate
    gracefully for an empty index set.
    """
    ints, scale = _cleared(rows)
    return Fraction(adjugate(ints)[0], scale)


def solve(rows: Sequence[Row], rhs: Sequence[int | Fraction]) -> tuple[Fraction, ...]:
    """Solve A x = b exactly as adj(A') b' / det(A'), where [A' | b'] is
    [A | b] with each row cleared to integers.

    Raises ValueError on a singular matrix; finite-type Cartan matrices
    are always invertible.
    """
    n = len(rows)
    if any(len(row) != n for row in rows):
        raise ValueError("square matrix required")
    if len(rhs) != n:
        raise ValueError("dimension mismatch")
    augmented, _ = _cleared([[*row, b] for row, b in zip(rows, rhs)])
    d, adj = adjugate([row[:n] for row in augmented])
    if d == 0:
        raise ValueError("singular matrix")
    return tuple(Fraction(sum(a * row[n] for a, row in zip(adj_row, augmented)), d) for adj_row in adj)


def adjugate(rows: Sequence[Sequence[int]]) -> tuple[int, tuple[tuple[int, ...], ...]]:
    """det(A) and the integer adjugate adj(A) = det(A) * A^-1 of an integer matrix.

    Fraction-free Gauss-Jordan elimination of [A | I] (Bareiss, Math. Comp.
    22, 1968): after step k every entry is a minor of order k + 1, so each
    division by the previous pivot is exact and nothing leaves the integers.
    It ends at [d I | d A^-1] with d = +-det(A), the sign set by the row
    swaps.  A singular matrix gives (0, ()).

    The elimination runs in place, in n columns rather than 2n: once step k
    has cleared column k of A, which then holds the pivot in row k alone, it
    stores column k of the right-hand side there.  Before step k that column
    is still the previous pivot times e_k, so each other row's new entry is
    -(its entry in column k of A).  A row swap then inverts A with those two
    rows swapped, so the columns swap back, last swap first, at the end.
    """
    n = len(rows)
    if any(len(row) != n for row in rows):
        raise ValueError("square matrix required")
    m = [[int(x) for x in row] for row in rows]
    sign, prev, swaps = 1, 1, []
    for k in range(n):
        pivot = next((r for r in range(k, n) if m[r][k] != 0), None)
        if pivot is None:
            return 0, ()
        if pivot != k:
            m[k], m[pivot] = m[pivot], m[k]
            sign = -sign
            swaps.append((k, pivot))
        top = m[k]
        p = top[k]
        top[k] = prev
        for i in range(n):
            if i != k:
                row = m[i]
                f = row[k]
                row[k] = 0
                m[i] = [(p * x - f * y) // prev for x, y in zip(row, top)]
        prev = p
    for k, r in reversed(swaps):
        for row in m:
            row[k], row[r] = row[r], row[k]
    return sign * prev, tuple(tuple(sign * x for x in row) for row in m)
