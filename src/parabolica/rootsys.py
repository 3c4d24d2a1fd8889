"""Exact combinatorics of finite root systems.

Conventions, fixed once for the whole package:

* simple roots are numbered in Bourbaki order;
* the Cartan matrix is ``C[i][j] = <alpha_i, alpha_j^vee>``, so the i-th
  simple root written in the fundamental-weight basis is the i-th row of C;
* weights live in the fundamental-weight basis with exact rational
  coordinates, ``coords[j] = <lambda, alpha_j^vee>``;
* positive roots are stored as integer coefficient vectors over the simple
  roots, sorted by (height, coefficients) for deterministic output.

All arithmetic in this module is exact.  The integer tables a query needs
(the coroot of every positive root, det C and the adjugate of C^T) are
computed once, when the root system is built, and checked there.  One
closure under the simple reflections yields the positive roots together
with their coroots, each checked through <beta, beta^vee> = 2; it refuses a
Cartan matrix that is not of finite type once a root coefficient passes 6.
Root lengths, the symmetrizer of C, are not computed: pairings read the
coroot table instead of 2 (lambda, beta) / (beta, beta).

``build_root_system`` memoizes the simple types of rank at most
``ROOT_SYSTEM_MEMO_MAX_RANK``, keyed by ``SimpleLieType``: each is built once
per process, so the memo holds at most the 33 types of rank <= 8 (E8, the
largest entry, takes about 31 KiB).  A system's tables grow like rank^3, so
larger types (up to ``MAX_CLASSICAL_RANK``) are built on every call and freed
with their last reference.  ``root_system_from_cartan`` validates its input
and builds afresh on every call.  Memoized systems are shared by every
caller, so their tables are read-only: tuples, and a ``MappingProxyType`` for
``coroots``.
"""
from __future__ import annotations

import functools
import math
import re
from dataclasses import dataclass, field
from fractions import Fraction
from types import MappingProxyType
from typing import Iterable, Mapping, Sequence

from . import linalg

Root = tuple[int, ...]

# Largest rank the root-system memo holds.
ROOT_SYSTEM_MEMO_MAX_RANK = 8

# Rank budget of the classical families A-D, the only ones without a rank
# of their own.  A build costs about rank^4 (dump-roots A120 took 12.6 s and
# 121 MB); at the budget a cold build takes about 80 ms (A32) to 115 ms (B32,
# C32), and a whole dump-roots process under 0.4 s and 34 MB (Python 3.11).
MAX_CLASSICAL_RANK = 32

# Largest coefficient of a positive root of a finite root system, that of
# alpha_4 in E8's highest root.
_MAX_ROOT_COEFFICIENT = 6

_RANK_RANGE = {
    "A": (1, MAX_CLASSICAL_RANK),
    "B": (2, MAX_CLASSICAL_RANK),
    "C": (2, MAX_CLASSICAL_RANK),
    "D": (3, MAX_CLASSICAL_RANK),
    "E": (6, 8),
    "F": (4, 4),
    "G": (2, 2),
}

_TYPE_RE = re.compile(r"^([A-Ga-g])\s*(\d+)$")


class InvalidTypeError(ValueError):
    """Family/rank combination outside the finite simple types."""


class InvariantError(AssertionError):
    """An internal cross-check failed; the message names it and its inputs.
    Raised explicitly, so the checks also run under ``python -O``."""


@dataclass(frozen=True)
class SimpleLieType:
    family: str
    rank: int

    def __post_init__(self) -> None:
        lo, hi = _RANK_RANGE.get(self.family, (None, None))
        if lo is None:
            raise InvalidTypeError(f"unknown family {self.family!r}")
        if not lo <= self.rank <= hi:
            raise InvalidTypeError(f"rank {self.rank} out of range for type {self.family}: expected {lo}..{hi}")

    @classmethod
    def from_string(cls, text: str) -> "SimpleLieType":
        match = _TYPE_RE.match(text.strip())
        if not match:
            raise InvalidTypeError(f"cannot parse Dynkin type {text!r}")
        return cls(match.group(1).upper(), int(match.group(2)))

    def __str__(self) -> str:
        return f"{self.family}{self.rank}"


def positive_root_count(t: SimpleLieType) -> int:
    """Closed-form number of positive roots of each finite simple type."""
    n = t.rank
    if t.family == "A":
        return n * (n + 1) // 2
    if t.family in ("B", "C"):
        return n * n
    if t.family == "D":
        return n * (n - 1)
    if t.family == "G":
        return 6
    if t.family == "F":
        return 24
    return {6: 36, 7: 63, 8: 120}[n]


@dataclass(frozen=True)
class Weight:
    """Point of the weight lattice (or its rational span), fw coordinates."""

    coords: tuple[Fraction, ...]

    @classmethod
    def of(cls, *coords: int | Fraction | str) -> "Weight":
        return cls(tuple(Fraction(c) for c in coords))

    @classmethod
    def zero(cls, rank: int) -> "Weight":
        return cls((Fraction(0),) * rank)

    @property
    def rank(self) -> int:
        return len(self.coords)

    @property
    def is_integral(self) -> bool:
        return all(c.denominator == 1 for c in self.coords)

    @property
    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coords)

    def __getitem__(self, i: int) -> Fraction:
        return self.coords[i]

    def cleared(self) -> tuple[tuple[int, ...], int]:
        """(n, d) with coords == n / d: integer numerators over the least
        common denominator d, so pairings can run in the integers."""
        d = math.lcm(*(c.denominator for c in self.coords))
        return tuple(c.numerator * (d // c.denominator) for c in self.coords), d

    def __str__(self) -> str:
        return "(" + ", ".join(str(c) for c in self.coords) + ")"

    def __add__(self, other: "Weight") -> "Weight":
        self._check(other)
        return Weight(tuple(a + b for a, b in zip(self.coords, other.coords)))

    def __sub__(self, other: "Weight") -> "Weight":
        self._check(other)
        return Weight(tuple(a - b for a, b in zip(self.coords, other.coords)))

    def __neg__(self) -> "Weight":
        return Weight(tuple(-c for c in self.coords))

    def __mul__(self, scalar: int | Fraction) -> "Weight":
        return Weight(tuple(c * scalar for c in self.coords))

    __rmul__ = __mul__

    def __truediv__(self, scalar: int | Fraction) -> "Weight":
        return Weight(tuple(c / scalar for c in self.coords))

    def restricted(self, indices: Iterable[int]) -> "Weight":
        """Zero out every coordinate outside ``indices``."""
        keep = set(indices)
        return Weight(tuple(c if i in keep else Fraction(0) for i, c in enumerate(self.coords)))

    def _check(self, other: "Weight") -> None:
        if len(self.coords) != len(other.coords):
            raise ValueError("weight rank mismatch")


def fundamental_weight(rank: int, index: int) -> Weight:
    coords = [Fraction(0)] * rank
    coords[index] = Fraction(1)
    return Weight(tuple(coords))


@dataclass(frozen=True)
class RootSystem:
    """Cartan matrix and the full list of positive roots.

    No root lengths are stored: every query goes through the coroot table,
    so the symmetrized form (beta, beta) is never needed.

    The tables below are derived from the fields above when the system is
    built, and are left out of equality, hashing and repr: ``coroots`` is a
    read-only mapping from each positive root, in ``positive_roots`` order,
    to the integer coefficients of its coroot over the simple coroots;
    ``cartan_det`` and ``cartan_t_adjugate`` give the exact inverse of C^T
    as adjugate / det.
    """

    lie_type: SimpleLieType | None
    cartan: tuple[tuple[int, ...], ...]
    positive_roots: tuple[Root, ...]
    coroots: Mapping[Root, tuple[int, ...]] = field(compare=False, repr=False)
    cartan_det: int = field(compare=False, repr=False)
    cartan_t_adjugate: tuple[tuple[int, ...], ...] = field(compare=False, repr=False)

    @property
    def rank(self) -> int:
        return len(self.cartan)

    def simple_root(self, i: int) -> Root:
        root = [0] * self.rank
        root[i] = 1
        return tuple(root)

    def pairing(self, weight: Weight, root: Root) -> Fraction:
        """<lambda, beta^vee> for a root beta (positive or negative), read as
        an integer dot product with the stored coroot."""
        if weight.rank != self.rank or len(root) != self.rank:
            raise ValueError("dimension mismatch")
        coroot = self.coroots.get(root)
        sign = 1
        if coroot is None:
            coroot = self.coroots.get(tuple(-m for m in root))
            sign = -1
            if coroot is None:
                raise ValueError(f"{root} is not a root of {self.lie_type or 'this root system'}")
        nums, denom = weight.cleared()
        return Fraction(sign * sum(k * x for k, x in zip(coroot, nums)), denom)

    def root_as_weight(self, root: Root) -> Weight:
        """beta = sum_i m_i alpha_i rewritten over the fundamental weights."""
        coords = [Fraction(0)] * self.rank
        for i, m in enumerate(root):
            if m:
                for j in range(self.rank):
                    coords[j] += m * self.cartan[i][j]
        return Weight(tuple(coords))

    def weyl_vector(self) -> Weight:
        return Weight((Fraction(1),) * self.rank)

    def weight_in_simple_roots(self, weight: Weight) -> tuple[Fraction, ...]:
        """Coordinates of a weight over the simple roots: the solution of
        C^T x = c, read off the stored inverse as adj(C^T) c / det C."""
        if weight.rank != self.rank:
            raise ValueError("dimension mismatch")
        nums, denom = weight.cleared()
        denom *= self.cartan_det
        return tuple(Fraction(sum(a * x for a, x in zip(row, nums)), denom) for row in self.cartan_t_adjugate)

    def to_dict(self) -> dict:
        return {
            "type": str(self.lie_type) if self.lie_type else "custom",
            "cartan": [list(row) for row in self.cartan],
            "positive_roots": [list(root) for root in self.positive_roots],
        }


def cartan_matrix(t: SimpleLieType) -> list[list[int]]:
    """Bourbaki Cartan matrix with entries C[i][j] = <alpha_i, alpha_j^vee>."""
    n = t.rank
    c = [[2 if i == j else 0 for j in range(n)] for i in range(n)]

    def link(i: int, j: int, cij: int = -1, cji: int = -1) -> None:
        c[i][j] = cij
        c[j][i] = cji

    if t.family in ("A", "B", "C", "F"):
        for i in range(n - 1):
            link(i, i + 1)
        if t.family == "B":
            # alpha_n short: <alpha_{n-1}, alpha_n^vee> = -2
            link(n - 2, n - 1, -2, -1)
        elif t.family == "C":
            link(n - 2, n - 1, -1, -2)
        elif t.family == "F":
            link(1, 2, -2, -1)
    elif t.family == "D":
        for i in range(n - 3):
            link(i, i + 1)
        link(n - 3, n - 2)
        link(n - 3, n - 1)
    elif t.family == "E":
        for i, j in [(0, 2), (2, 3), (3, 4), (1, 3)]:
            link(i, j)
        for i in range(4, n - 1):
            link(i, i + 1)
    elif t.family == "G":
        # alpha_1 short, alpha_2 long
        link(0, 1, -1, -3)
    return c


def _validate_cartan(cartan: Sequence[Sequence[int]]) -> None:
    """Shape, diagonal and sign pattern; _inverse_transpose checks det > 0."""
    n = len(cartan)
    for i in range(n):
        if len(cartan[i]) != n:
            raise ValueError("Cartan matrix must be square")
        if cartan[i][i] != 2:
            raise ValueError("Cartan diagonal must be 2")
        for j in range(n):
            if i != j:
                if cartan[i][j] > 0:
                    raise ValueError("off-diagonal Cartan entries must be <= 0")
                if (cartan[i][j] == 0) != (cartan[j][i] == 0):
                    raise ValueError("Cartan zero pattern must be symmetric")


def _inverse_transpose(cartan: tuple[tuple[int, ...], ...]) -> tuple[int, tuple[tuple[int, ...], ...]]:
    """det C and adj(C^T), checked once through C^T adj(C^T) = det C * I."""
    transposed = tuple(zip(*cartan))
    det, adj = linalg.adjugate(transposed)
    if det <= 0:
        raise ValueError("Cartan matrix is not of finite type")
    n = len(cartan)
    for i in range(n):
        for j in range(n):
            if sum(transposed[i][k] * adj[k][j] for k in range(n)) != (det if i == j else 0):
                raise InvariantError(
                    f"stored inverse of C^T must satisfy C^T X = I: Cartan matrix {cartan}, "
                    f"adjugate {adj}, det {det}"
                )
    return det, adj


def _positive_roots(cartan: Sequence[Sequence[int]]) -> dict[Root, tuple[int, ...]]:
    """Every positive root with its coroot, by closure under the simple
    reflections, sorted by (height, coefficients).

    s_i permutes the positive roots other than alpha_i.  So whenever
    k = <beta, alpha_i^vee> is negative, s_i beta = beta - k alpha_i is a new
    positive root, and its coroot is s_i beta^vee = beta^vee - <alpha_i,
    beta^vee> alpha_i^vee.  A positive root that is not simple has some i
    with <beta, alpha_i^vee> > 0, so it is reached from s_i beta, which is
    lower.  Each root is checked through <beta, beta^vee> = 2.  No root of a
    finite system has a coefficient above _MAX_ROOT_COEFFICIENT; past it the
    closure stops, so a matrix that is not of finite type is refused.
    """
    n = len(cartan)
    queue = [tuple(int(k == i) for k in range(n)) for i in range(n)]
    table = dict(zip(queue, queue))  # a simple root is its own coroot
    for root in queue:
        coroot = table[root]
        pairings = [sum(m * cartan[j][i] for j, m in enumerate(root) if m) for i in range(n)]
        if sum(c * k for c, k in zip(coroot, pairings)) != 2:
            raise InvariantError(f"coroot {coroot} of {root} must pair to 2 with it: Cartan matrix {cartan}")
        for i, k in enumerate(pairings):
            if k >= 0:
                continue
            image = root[:i] + (root[i] - k,) + root[i + 1 :]
            if image in table:
                continue
            if image[i] > _MAX_ROOT_COEFFICIENT:
                raise ValueError("Cartan matrix is not of finite type")
            shift = sum(c * a for c, a in zip(coroot, cartan[i]))  # <alpha_i, beta^vee>
            table[image] = coroot[:i] + (coroot[i] - shift,) + coroot[i + 1 :]
            queue.append(image)
    return {root: table[root] for root in sorted(table, key=lambda r: (sum(r), r))}


def root_system_from_cartan(
    cartan: Sequence[Sequence[int]], lie_type: SimpleLieType | None = None
) -> RootSystem:
    """Root system of any finite-type (possibly reducible) Cartan matrix,
    validated and built on every call.  Every build check runs and raises
    on failure, so nothing broken is memoized."""
    _validate_cartan(cartan)
    frozen = tuple(tuple(int(x) for x in row) for row in cartan)
    det, adjugate = _inverse_transpose(frozen)
    coroots = _positive_roots(frozen)
    rs = RootSystem(
        lie_type=lie_type,
        cartan=frozen,
        positive_roots=tuple(coroots),
        coroots=MappingProxyType(coroots),
        cartan_det=det,
        cartan_t_adjugate=adjugate,
    )
    if lie_type is not None:
        expected = positive_root_count(lie_type)
        if len(rs.positive_roots) != expected:
            raise InvariantError(
                f"positive-root count of {lie_type}: enumerated {len(rs.positive_roots)}, expected {expected}"
            )
    return rs


@functools.cache
def _memoized_root_system(t: SimpleLieType) -> RootSystem:
    return root_system_from_cartan(cartan_matrix(t), lie_type=t)


def build_root_system(t: SimpleLieType | str) -> RootSystem:
    """Root system of a finite simple type, e.g. build_root_system("B3");
    memoized up to rank ROOT_SYSTEM_MEMO_MAX_RANK, built afresh above it."""
    if isinstance(t, str):
        t = SimpleLieType.from_string(t)
    if t.rank > ROOT_SYSTEM_MEMO_MAX_RANK:
        return root_system_from_cartan(cartan_matrix(t), lie_type=t)
    return _memoized_root_system(t)
