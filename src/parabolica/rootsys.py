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
closure under the simple reflections yields the positive roots with their
coroots, which pair to 2 with them as each step keeps <beta, beta^vee>, and
refuses a Cartan matrix that is not of finite type once a root coefficient
passes 6.  Root lengths, the symmetrizer of C, are not computed: pairings
read the coroot table instead of 2 (lambda, beta) / (beta, beta).

``build_root_system`` memoizes every simple type, keyed by
``SimpleLieType``: each is built once per process and kept for its life.
``MAX_CLASSICAL_RANK`` leaves 129 types, about 21 MB if every one is built
(E8 30 KiB, A32 369 KiB, B32 729 KiB).  ``root_system_from_cartan``
validates its input and builds afresh on every call: custom matrices have
no finite key set.  Memoized systems are shared by every caller, so their
tables are read-only: tuples, and a ``MappingProxyType`` for ``coroots``.
"""
from __future__ import annotations

import functools
import math
import re
from collections.abc import Iterable, Sequence
from fractions import Fraction
from operator import mul
from types import MappingProxyType

from . import linalg

Root = tuple[int, ...]

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


_set = object.__setattr__  # how a record's __init__ sets its fields


class _Record:
    """Base of the package's frozen records.

    A record is built from its fields in ``__slots__`` order, positionally
    or by keyword.  A class that defines no ``__init__`` gets one, written
    from its ``__slots__`` when the class is created, that sets each field
    once through ``_set``; a record with a check writes its own
    ``__init__``, which sets its fields the same way.  Assigning or
    deleting a field afterwards raises AttributeError.  Equality, hashing
    and repr read the fields named in ``_compared``, in order, as a frozen
    dataclass does; the tables a record derives from them stay out of all
    three.  ``copy`` and ``pickle`` restore the fields through
    ``__setstate__``.
    """

    __slots__ = ()
    _compared: tuple[str, ...] = ()

    def __init_subclass__(cls) -> None:
        if "__init__" not in cls.__dict__:  # written from the class's own __slots__ literals
            fields = cls.__slots__
            sets = "".join(f"\n    _set(self, {name!r}, {name})" for name in fields)
            namespace = {"_set": _set, "__name__": cls.__module__}
            exec(f"def __init__(self, {', '.join(fields)}):{sets}", namespace)
            namespace["__init__"].__qualname__ = f"{cls.__qualname__}.__init__"
            cls.__init__ = namespace["__init__"]

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __setstate__(self, state: tuple) -> None:
        # object.__getstate__ gives (the instance dict or None, the slot values)
        for values in state:
            for name, value in (values or {}).items():
                _set(self, name, value)

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self._compared])

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._compared)
        return f"{self.__class__.__qualname__}({fields})"


class SimpleLieType(_Record):
    __slots__ = _compared = ("family", "rank")

    def __init__(self, family: str, rank: int) -> None:
        lo, hi = _RANK_RANGE.get(family, (None, None))
        if lo is None:
            raise InvalidTypeError(f"unknown family {family!r}")
        if rank % 1:  # a fraction, or nan or inf
            raise InvalidTypeError(f"rank of type {family} must be an integer, got {rank!r}")
        if not lo <= rank <= hi:
            raise InvalidTypeError(f"rank {rank} out of range for type {family}: expected {lo}..{hi}")
        _set(self, "family", family)
        _set(self, "rank", int(rank))

    @classmethod
    def from_string(cls, text: str) -> "SimpleLieType":
        match = _TYPE_RE.match(text.strip())
        if not match:
            raise InvalidTypeError(f"cannot parse Dynkin type {text!r}")
        family, digits = match.group(1).upper(), match.group(2).lstrip("0") or "0"
        if len(digits) > 9:  # past every rank range, and int() refuses digits past the int-to-str limit
            raise InvalidTypeError(f"a rank of {len(digits)} digits is out of range for type {family}")
        return cls(family, int(digits))

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


class Weight(_Record):
    """Point of the weight lattice (or its rational span), fw coordinates."""

    __slots__ = _compared = ("coords",)

    @classmethod
    def of(cls, *coords: int | Fraction | str) -> "Weight":
        return cls(tuple(Fraction(c) for c in coords))

    @property
    def rank(self) -> int:
        return len(self.coords)

    @property
    def is_integral(self) -> bool:
        return all(c.denominator == 1 for c in self.coords)

    def __getitem__(self, i: int) -> Fraction:
        return self.coords[i]

    def cleared(self) -> tuple[tuple[int, ...], int]:
        """(n, d) with coords == n / d: integer numerators over the least
        common denominator d, so pairings can run in the integers."""
        d = math.lcm(*(c.denominator for c in self.coords))
        return tuple(c.numerator * (d // c.denominator) for c in self.coords), d

    def __str__(self) -> str:
        return "(" + ", ".join(str(c) for c in self.coords) + ")"

    def restricted(self, indices: Iterable[int]) -> "Weight":
        """Zero out every coordinate outside ``indices``; the kept coordinates
        are this weight's own, and every zero is one shared ``Fraction``."""
        keep = set(indices)
        zero = Fraction(0)
        return Weight(tuple(c if i in keep else zero for i, c in enumerate(self.coords)))


def fundamental_weight(rank: int, index: int) -> Weight:
    coords = [Fraction(0)] * rank
    coords[index] = Fraction(1)
    return Weight(tuple(coords))


class RootSystem(_Record):
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

    __slots__ = ("lie_type", "cartan", "positive_roots", "coroots", "cartan_det", "cartan_t_adjugate")
    _compared = ("lie_type", "cartan", "positive_roots")

    @property
    def rank(self) -> int:
        return len(self.cartan)

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
        """beta = sum_i m_i alpha_i rewritten over the fundamental weights:
        coordinate j is the integer sum_i m_i C_ij, one Fraction each."""
        return Weight(tuple(Fraction(sum(map(mul, root, column))) for column in zip(*self.cartan)))

    def simple_root_numerators(self, nums: Sequence[int]) -> tuple[int, ...]:
        """adj(C^T) n for integer fundamental-weight coordinates n: the
        coordinates over the simple roots of the weight n, times det C."""
        if len(nums) != self.rank:
            raise ValueError("dimension mismatch")
        return tuple(sum(map(mul, row, nums)) for row in self.cartan_t_adjugate)

    def weight_in_simple_roots(self, weight: Weight) -> tuple[Fraction, ...]:
        """Coordinates of a weight over the simple roots: the solution of
        C^T x = c, read off the stored inverse as adj(C^T) c / det C."""
        nums, denom = weight.cleared()
        denom *= self.cartan_det
        return tuple(Fraction(y, denom) for y in self.simple_root_numerators(nums))

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
    """Shape, integer entries, diagonal and sign pattern; _inverse_transpose
    checks det > 0.  An integral value such as 2.0 passes."""
    n = len(cartan)
    if any(len(row) != n for row in cartan):  # before the zero pattern reads row j
        raise ValueError("Cartan matrix must be square")
    for i in range(n):
        if cartan[i][i] != 2:
            raise ValueError("Cartan diagonal must be 2")
        for j in range(n):
            if cartan[i][j] % 1:  # a fraction, or nan or inf
                raise ValueError(f"Cartan entry ({i + 1}, {j + 1}) must be an integer, got {cartan[i][j]}")
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
    columns = tuple(zip(*adj))
    for i, row in enumerate(transposed):
        for j, column in enumerate(columns):
            if sum(map(mul, row, column)) != (det if i == j else 0):
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
    lower.  The step keeps <beta, beta^vee>, C_ii = 2 for alpha_i; see
    ``test_coroot_table_rows``.  No root of a finite system has a coefficient
    above _MAX_ROOT_COEFFICIENT; past it the closure stops and refuses C.
    """
    n = len(cartan)
    queue = [tuple(int(k == i) for k in range(n)) for i in range(n)]
    table = dict(zip(queue, queue))  # a simple root is its own coroot
    for root in queue:
        coroot = table[root]
        pairings = [sum(m * cartan[j][i] for j, m in enumerate(root) if m) for i in range(n)]
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


def _root_system(
    cartan: tuple[tuple[int, ...], ...], lie_type: SimpleLieType | None = None, coroots: dict | None = None
) -> RootSystem:
    """The RootSystem of C with its checked det C and adj(C^T), and its
    coroot table: the given one, sorted by (height, coefficients), or else
    the closure over C, run only after det C > 0 has been checked."""
    det, adjugate = _inverse_transpose(cartan)
    if coroots is None:
        coroots = _positive_roots(cartan)
    return RootSystem(lie_type, cartan, tuple(coroots), MappingProxyType(coroots), det, adjugate)


def root_system_from_cartan(cartan: Sequence[Sequence[int]]) -> RootSystem:
    """Root system of any finite-type (possibly reducible) Cartan matrix, validated and built on every call."""
    _validate_cartan(cartan)
    return _root_system(tuple(tuple(int(x) for x in row) for row in cartan))


@functools.cache
def _memoized_root_system(t: SimpleLieType) -> RootSystem:
    cartan = cartan_matrix(t)
    _validate_cartan(cartan)
    rs = _root_system(tuple(map(tuple, cartan)), t)
    expected = positive_root_count(t)
    if len(rs.positive_roots) != expected:
        raise InvariantError(f"positive-root count of {t}: enumerated {len(rs.positive_roots)}, expected {expected}")
    return rs


def build_root_system(t: SimpleLieType | str) -> RootSystem:
    """Root system of a finite simple type, e.g. build_root_system("B3"), built
    once per process, by checks that raise on failure, and shared thereafter."""
    if isinstance(t, str):
        t = SimpleLieType.from_string(t)
    return _memoized_root_system(t)
