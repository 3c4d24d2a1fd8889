"""Galerkin solution of the prescribed-mean-curvature Poisson problem.

Everything happens in the Laplace eigenbasis of a flat torus, the one
compact model where the spectrum is explicit and the Ricci lower bound is
exactly zero.  A target profile f is expanded in eigenmodes, held as one
read-only array c_0..c_n (a SpectralFunction, which takes no mapping); the
conformal weight psi_n = sum c_j/lambda_j phi_j matches the truncation
exactly, and Sobolev control of the sequence comes from the Bochner
estimate.  This is the only module that uses floating point; each
operation states its tolerance.

Profile coefficients come from one FFT.  On the uniform midpoint grid
x_k = (k + 1/2) L / N the cosine and sine modes of frequency nu sample to
Re and Im of exp(2 pi i nu.k / N) exp(i pi sum(nu) / N), so every
quadrature sum against them is a phase-shifted entry F[nu mod N] of the
DFT F of the profile sampled on the N^d grid.  The profile depends only on
the k coordinates its singular set cuts, so it is sampled on the N^k grid
of those axes, and no (N^d, d) point array is built.  A point profile
(k = d) is transformed in rfftn's passes, one axis at a time from the last:
an rfft along the last axis of the N^d grid, run on blocks of lines and
keeping only the columns the requested modes read, then on each earlier
axis an fft of only the lines that hold an entry some requested mode
reads.  A subtorus profile (k < d) is constant along the d - k free axes,
so F is N^(d-k) times the DFT of the N^k cut grid where every free
frequency is 0 (mod N) and 0 elsewhere; only the cut grid is transformed.
Grids are bounded: by default N^d stays at most 512^2 points for d >= 2
(8192 points for d = 1), and no grid may exceed _MAX_GRID_POINTS.
"""
from __future__ import annotations

import math
from collections.abc import Mapping
from functools import reduce

import numpy as np

from .rootsys import _Record, _set


class NotL2Error(ValueError):
    """The requested singular profile is not square integrable."""


class _OverBudget(ValueError):
    """A grid or mode table past the budgets below."""


class _InvalidProfile(ValueError):
    """A SingularProfile's dimensions not integers, or its codimension or exponent out of range."""


# Grid budget: the default grid for d >= 2 is the finest power-of-two side
# with at most _DEFAULT_GRID_POINTS nodes, and no grid, default or explicit,
# may exceed _MAX_GRID_POINTS nodes.  At the budget, a 2048^2
# distance_profile_coefficients call with 4095 modes, in a fresh process on
# a 2-core VM with numpy 2.4, takes 0.03 s and a 66 MB peak RSS for the
# point profile (codim 2: blocked rffts along the last axis of all 2048^2
# nodes, keeping the 37 columns the modes read, then 2048-point FFTs of
# them), and 0.01 s and 62 MB for the codim-1 profile (one 2048-point FFT).
# A fresh process that imports numpy peaks at 27 MB; the 2048^2 grid is 34 MB.
_DEFAULT_GRID_POINTS = 512**2
_MAX_GRID_POINTS = 1 << 22
# A point profile's last-axis rfft runs over blocks of this many grid values
# (whole lines: 64 at N = 512, 512 at N = 64), so each block's half spectrum
# is freed before the next.  One block of the whole 512^2 grid page-faults
# its 2 MB output on every request; 2^13 ran slower and 2^16 no faster.
_RFFT_BLOCK_POINTS = 1 << 15
# The integer frequency box searched for a mode table, (2b + 1)^d rows of d
# entries, is bounded by its entry count.  _build_table doubles b from 1, so
# the largest b it can search is a power of two, 2^20 on the 1-torus and
# less on any other; FlatTorus refuses a side L whose L^2 or
# (2 pi (_MAX_BOX_BOUND + 1) / L)^2 would overflow, which keeps about
# 4.9e-148 < L < 1.3e154.
_MAX_FREQUENCY_BOX = 1 << 22
_MAX_BOX_BOUND = 1 << (((_MAX_FREQUENCY_BOX - 1) // 2).bit_length() - 1)


def _default_points_per_axis(dimension: int) -> int:
    """Grid side used when none is given: 8192 for d = 1, else the largest
    power of two N with N^d <= 512^2 (512 for d = 2, 64 for d = 3)."""
    if dimension == 1:
        return 8192
    if 2**dimension > _DEFAULT_GRID_POINTS:
        raise _OverBudget(f"no default grid for dimension {dimension}: 2^{dimension} points exceed the budget")
    side = 1
    while (2 * side) ** dimension <= _DEFAULT_GRID_POINTS:
        side *= 2
    return side


class TorusMode(_Record):
    """One eigenmode of a flat torus; ``trig`` is "const", "cos" or "sin"."""

    __slots__ = _compared = ("index", "eigenvalue", "frequency", "trig")


class FlatTorus(_Record):
    """Flat torus given by its side lengths; eigendata enumerated on demand.

    Mode 0 is the constant vol^{-1/2}; every nonzero frequency class
    contributes a cosine mode and a sine mode with eigenvalue
    sum_i (2 pi nu_i / L_i)^2.  Modes are ordered by (eigenvalue,
    frequency, cos-before-sin), which fixes the index once and for all.
    """

    __slots__ = _compared = ("side_lengths",)

    def __init__(self, side_lengths: tuple[float, ...]) -> None:
        sides = tuple(float(s) for s in side_lengths)
        if not sides or any(s <= 0 for s in sides):
            raise ValueError("side lengths must be positive")
        if not all(map(math.isfinite, sides)):
            raise ValueError(f"side lengths must be finite, got {sides}")
        for s in sides:
            top = 2.0 * math.pi * (_MAX_BOX_BOUND + 1) / s
            if not math.isfinite(s * s) or not math.isfinite(top * top):
                raise ValueError(f"side length {s} is outside the range a mode table can serve, about 4.9e-148..1.3e154")
        if not 0.0 < math.prod(sides) < math.inf:
            raise ValueError(f"torus volume must be positive and finite, got {math.prod(sides)} for sides {sides}")
        _set(self, "side_lengths", sides)

    @property
    def dimension(self) -> int:
        return len(self.side_lengths)

    @property
    def volume(self) -> float:
        return math.prod(self.side_lengths)

    def modes(self, count: int) -> tuple[TorusMode, ...]:
        """Modes 0..count inclusive, built from the cached table's arrays."""
        table = _table_for(self.side_lengths, count)
        rows = zip(table.eigenvalues[: count + 1].tolist(), table.frequencies[: count + 1].tolist())
        return tuple(
            TorusMode(j, lam, tuple(nu), "const" if j == 0 else "sin" if _is_sine(j) else "cos")
            for j, (lam, nu) in enumerate(rows)
        )

    def eigenvalues(self, count: int) -> np.ndarray:
        """Read-only eigenvalues of modes 0..count inclusive."""
        return _table_for(self.side_lengths, count).eigenvalues[: count + 1]

    def sample_mode(self, mode: TorusMode, points: np.ndarray) -> np.ndarray:
        """Evaluate an orthonormal eigenfunction on an (N, d) point array."""
        if mode.trig == "const":
            return np.full(points.shape[0], 1.0 / math.sqrt(self.volume))
        phase = np.zeros(points.shape[0])
        for axis, nu in enumerate(mode.frequency):
            if nu:
                phase = phase + (2.0 * math.pi * nu / self.side_lengths[axis]) * points[:, axis]
        amplitude = math.sqrt(2.0 / self.volume)
        return amplitude * (np.cos(phase) if mode.trig == "cos" else np.sin(phase))

    def midpoint_grid(self, points_per_axis: int) -> np.ndarray:
        """Uniform midpoint nodes, shape (points_per_axis^d, d), in C order.

        Raises ValueError for a grid of more than _MAX_GRID_POINTS nodes.
        """
        self._grid_size(points_per_axis)
        axes = [self._midpoint_axis(axis, points_per_axis) for axis in range(self.dimension)]
        mesh = np.meshgrid(*axes, indexing="ij", copy=False)
        return np.stack(mesh, axis=-1).reshape(-1, self.dimension)

    def _grid_size(self, points_per_axis: int) -> int:
        """Node count points_per_axis^d of a midpoint grid; ValueError over the budget."""
        total = points_per_axis**self.dimension
        if points_per_axis < 1 or total > _MAX_GRID_POINTS:
            raise _OverBudget(
                f"a grid of {points_per_axis}^{self.dimension} points is outside "
                f"1..{_MAX_GRID_POINTS} points"
            )
        return total

    def _midpoint_axis(self, axis: int, points_per_axis: int) -> np.ndarray:
        """The midpoint nodes (k + 1/2) L / N of one axis."""
        return (np.arange(points_per_axis) + 0.5) * (self.side_lengths[axis] / points_per_axis)


class _ModeTable(_Record):
    """Modes 0..size of a torus as read-only arrays: ``eigenvalues`` of shape
    (size + 1,) and integer ``frequencies`` of shape (size + 1, d).  Mode 0
    is the constant; each frequency then gives a cosine and a sine, told
    apart by _is_sine."""

    __slots__ = _compared = ("eigenvalues", "frequencies")


def _is_sine(index):
    """Mode index > 0 (int or array) is a sine: _build_table puts each frequency's cosine first."""
    return index % 2 == 0


# The largest table built so far for each torus.  A table is a prefix of
# every larger one, so it serves every smaller count with the same bits; the
# dict is emptied when a new torus would take it past _MAX_CACHED_TORI.
_MAX_CACHED_TORI = 64
_tables: dict[tuple[float, ...], _ModeTable] = {}


def _table_for(side_lengths: tuple[float, ...], count: int) -> _ModeTable:
    """A table covering modes 0..count: the cached one for the torus if it
    is large enough, else a new one of the power-of-two size that covers
    count, which replaces it.  While a torus stays cached, counts up to
    count build at most log2(count) + 1 tables for it, in any order.
    """
    if count < 0:
        raise ValueError(f"mode count must be nonnegative, got {count}")
    table = _tables.get(side_lengths)
    if table is None or len(table.eigenvalues) <= count:
        if table is None and len(_tables) >= _MAX_CACHED_TORI:
            _tables.clear()
        table = _tables[side_lengths] = _build_table(side_lengths, 1 << max(count - 1, 0).bit_length())
    return table


def _build_table(side_lengths: tuple[float, ...], size: int) -> _ModeTable:
    """Modes 0..size ordered by (eigenvalue, frequency, cos-before-sin).

    Frequencies are searched in the box [-b, b]^d, b doubling, keeping one
    representative of each pair +-nu (first nonzero entry positive).  Every
    frequency outside the box has eigenvalue >= (2 pi (b + 1) / max L)^2,
    so the representatives below that value are complete and their order
    is final.  Each eigenvalue is accumulated axis by axis from per-axis
    squares, the same float operations in the same order at any box size.
    """
    dim = len(side_lengths)
    reps_needed = (size + 1) // 2 + 1
    bound = 1
    while True:
        if (2 * bound + 1) ** dim * dim > _MAX_FREQUENCY_BOX:
            raise _OverBudget(f"a {size}-mode table of the {dim}-torus needs a frequency box over the budget")
        span = np.arange(-bound, bound + 1)
        nu = np.stack(np.meshgrid(*(span,) * dim, indexing="ij"), axis=-1).reshape(-1, dim)
        first_nonzero = nu[np.arange(len(nu)), np.argmax(nu != 0, axis=1)]
        nu = nu[first_nonzero > 0]
        lam = np.zeros(len(nu))
        for axis, length in enumerate(side_lengths):
            squares = np.array([(2.0 * math.pi * int(v) / length) ** 2 for v in span])
            lam = lam + squares[nu[:, axis] + bound]
        safe = (2.0 * math.pi * (bound + 1) / max(side_lengths)) ** 2
        usable = lam < safe
        if np.count_nonzero(usable) >= reps_needed:
            break
        bound *= 2
    nu, lam = nu[usable], lam[usable]
    order = np.lexsort((*nu.T[::-1], lam))
    reps = (size + 1) // 2
    nu, lam = nu[order[:reps]], lam[order[:reps]]
    eigenvalues = np.concatenate(([0.0], np.repeat(lam, 2)[:size]))
    frequencies = np.concatenate((np.zeros((1, dim), dtype=nu.dtype), np.repeat(nu, 2, axis=0)[:size]))
    for array in (eigenvalues, frequencies):
        array.setflags(write=False)
    return _ModeTable(eigenvalues, frequencies)


def _quadrature_grid(manifold: FlatTorus, n: int, points_per_axis: int | None = None) -> tuple[int, int, _ModeTable]:
    """(points_per_axis, total, table) for modes 0..n: the default side if
    none is given, the grid budget, n below the N^d node count and the table
    budget, each refused with an _OverBudget, which the CLI's spectral reader
    reports under the flag that set the refused value."""
    if points_per_axis is None:
        points_per_axis = _default_points_per_axis(manifold.dimension)
    total = manifold._grid_size(points_per_axis)
    if not 0 <= n < total:
        raise _OverBudget(f"modes {n} is outside 0..{total - 1} for a {total}-point grid")
    return points_per_axis, total, _table_for(manifold.side_lengths, n)


class SpectralFunction(_Record):
    """Eigen-coefficients c_0..c_n plus ``tail_sq``, the squared L2 mass
    past c_n, and ``tails_sq``, where tails_sq[k] = sum_{j >= k} c_j^2 for
    k = 0..n + 1.

    ``coeffs`` is a read-only float64 copy of the 1-D sequence it is given,
    so ``tails_sq``, read-only too, cannot go stale.  It is one reverse
    running sum of nonnegative terms, so it never increases with k, not
    even by rounding.  For a profile from ``distance_profile_coefficients``
    the coefficients and ``tail_sq`` are midpoint-quadrature values, and
    ``tail_sq`` is the quadrature tail, not a bound on the continuum
    tail: for the point profile on the unit circle at s = 0.45 (N = 8192)
    the squared tail past mode 8, 64 and 128 reads 3.50, 1.82 and 1.35,
    against continuum values of 10.0, 8.24 and 7.69, 3-6x larger."""

    __slots__ = ("coeffs", "tail_sq", "tails_sq")
    _compared = ("coeffs", "tail_sq")  # for repr: equality and hashing are by identity
    __eq__ = object.__eq__
    __hash__ = object.__hash__

    def __init__(self, coeffs: np.ndarray, tail_sq: float = 0.0) -> None:
        if isinstance(coeffs, Mapping):
            raise TypeError("coefficients must be a dense sequence c_0..c_n, not a mapping from index to value")
        coeffs = np.array(coeffs, dtype=float)
        if coeffs.ndim != 1:
            raise ValueError(f"coefficients must be a 1-D sequence c_0..c_n, got shape {coeffs.shape}")
        tails_sq = np.append(np.cumsum(coeffs[::-1] ** 2)[::-1], 0.0)
        for array in (coeffs, tails_sq):
            array.setflags(write=False)
        _set(self, "coeffs", coeffs)
        _set(self, "tail_sq", tail_sq)
        _set(self, "tails_sq", tails_sq)

    def coefficient(self, index: int) -> float:
        """c_index, and 0.0 outside 0..len(coeffs) - 1."""
        return float(self.coeffs[index]) if 0 <= index < len(self.coeffs) else 0.0


class GalerkinSolution(_Record):
    """Truncated conformal weight psi_n with its diagnostics.

    ``modes``, ``psi`` and ``lam`` are aligned arrays over the matched modes
    with a nonzero coefficient.
    """

    __slots__ = _compared = ("truncation", "modes", "psi", "lam", "source_mode0", "residual_l2", "h2_norm")
    __eq__ = object.__eq__  # by identity, as for SpectralFunction
    __hash__ = object.__hash__


def solve_weight(f: SpectralFunction, n: int, manifold: FlatTorus) -> GalerkinSolution:
    """Conformal weight matching the first n modes of f.

    psi_j = c_j / lambda_j for 1 <= j <= n (mode 0 never divides: the
    compatibility condition is mode-0 data and is carried by the reference
    metric).  The residual against the full f is the tail norm, and the
    spectral H2 norm of psi is reported.  A nan or infinite norm, residual
    or c_0 is refused with a ValueError; a finite norm bounds every psi_j.
    """
    if n < 0:
        raise ValueError("truncation order must be nonnegative")
    index, c, lam = _matched_modes(f, 0, n, manifold)
    kept = c != 0.0
    index, c, lam = index[kept], c[kept], lam[kept]
    with np.errstate(all="ignore"):
        psi = c / lam
        h2_sq = float(np.sum((1.0 + lam**2) * psi**2))
    tail_sq = f.tail_sq + float(f.tails_sq[min(n + 1, len(f.coeffs))])
    _require_finite(f"solve_weight at n={n}", squared_h2_norm=h2_sq, squared_residual=tail_sq, c_0=f.coefficient(0))
    return GalerkinSolution(
        truncation=n,
        modes=index,
        psi=psi,
        lam=lam,
        source_mode0=f.coefficient(0),
        residual_l2=math.sqrt(tail_sq),
        h2_norm=math.sqrt(h2_sq),
    )


def _require_finite(where: str, **values: float) -> None:
    """ValueError for a nan or infinite value a caller would return.  An H2
    sum leaves float64 range on a torus far from unit size (at L = 1e-100,
    lambda^2 overflows and (c/lambda)^2 underflows: inf * 0) or for huge
    coefficients; callers sum under np.errstate(all="ignore"), so this
    refusal, not a RuntimeWarning, reports it."""
    for name, value in values.items():
        if not math.isfinite(value):
            raise ValueError(f"{where}: {name} is {value!r}, outside float64 range for this torus and coefficients")


def _matched_modes(
    f: SpectralFunction, m: int, n: int, manifold: FlatTorus
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Indices j with max(m, 0) < j <= n (within f's range), with their
    coefficients and eigenvalues.  The eigenvalues come from the cached
    table for the torus when it covers j <= hi (after
    distance_profile_coefficients it covers all of f, so a ladder of
    truncations builds no table), and a long hand-built f needs no table
    past the modes read."""
    lo, hi = max(m, 0) + 1, min(n, len(f.coeffs) - 1)
    return np.arange(lo, hi + 1), f.coeffs[lo : hi + 1], manifold.eigenvalues(max(hi, 0))[lo : hi + 1]


def spectral_h2_gap(f: SpectralFunction, m: int, n: int, manifold: FlatTorus) -> float:
    """Exact squared spectral H2 distance between psi_n and psi_m; ValueError if it is nan or infinite."""
    _, c, lam = _matched_modes(f, m, n, manifold)
    with np.errstate(all="ignore"):
        gap = float(np.sum((1.0 + lam**2) * (c / lam) ** 2))
    _require_finite(f"spectral_h2_gap for n={n}, m={m}", gap=gap)
    return gap


def h2_cauchy_gap(f: SpectralFunction, n: int, m_idx: int, manifold: FlatTorus) -> tuple[float, float]:
    """Bochner upper bound for the squared H2 gap between psi_n and psi_m, and the gap.

    Bound = 2 * sum_{j=m+1}^{n} (1/lambda_j^2 + 1) c_j^2: a flat torus has
    Ricci curvature 0, so Bochner's formula has no Young term and its
    constant is 1.  As (1/lambda^2 + 1) c^2 = (1 + lambda^2) (c/lambda)^2,
    the bound is twice the gap up to rounding, so no InvariantError checks
    it; a nan or infinite bound or gap raises ValueError.
    """
    if not n > m_idx >= 0:
        raise ValueError("need n > m >= 0")
    _, c, lam = _matched_modes(f, m_idx, n, manifold)
    with np.errstate(all="ignore"):
        bound = 2.0 * float(np.sum((1.0 / lam**2 + 1.0) * c * c))
        gap = float(np.sum((1.0 + lam**2) * (c / lam) ** 2))  # spectral_h2_gap's sum over these modes
    _require_finite(f"h2_cauchy_gap for n={n}, m={m_idx}", bound=bound, gap=gap)
    return bound, gap


def compatibility_constant(profile_mean: float, hym_c: float) -> float:
    """Additive shift moving a profile's mean onto the topological target.

    The prescribed equation needs (1/2pi) x mean = hym constant, i.e. a
    target mean of 2 pi * hym_c; only mode-0 arithmetic is involved.
    """
    return 2.0 * math.pi * float(hym_c) - profile_mean


class SingularProfile(_Record):
    """Distance-power singularity d(x, Y)^{-s} along a codimension-k set."""

    __slots__ = _compared = ("ambient_dim", "codim", "exponent")

    def __init__(self, ambient_dim: int, codim: int, exponent: float) -> None:
        for name, value in (("ambient dimension", ambient_dim), ("codimension", codim)):
            if value % 1:  # a fraction, or nan or inf
                raise _InvalidProfile(f"{name} must be an integer, got {value!r}")
        ambient_dim, codim = int(ambient_dim), int(codim)
        if codim < 1 or codim > ambient_dim:
            raise _InvalidProfile("codimension must lie in 1..ambient_dim")
        if not (math.isfinite(exponent) and exponent > 0):
            raise _InvalidProfile(f"exponent s must be finite and positive, got {exponent!r}")
        _set(self, "ambient_dim", ambient_dim)
        _set(self, "codim", codim)
        _set(self, "exponent", exponent)

    @property
    def square_integrable(self) -> bool:
        return self.exponent < self.codim / 2


class IntegrabilityResult(_Record):
    """A profile's L2 flag and its numeric ``certificate``, "convergent" or "divergent"."""

    __slots__ = _compared = ("finite", "certificate", "tube_integral")


_MAX_CUTOFF_STEPS = 250


def integrability_check(p: SingularProfile) -> IntegrabilityResult:
    """Analytic L2 flag for d(.,Y)^{-s} plus a numeric certificate.

    The analytic flag is s < k/2.  The sign of k - 2s settles the radial
    model integral int_0^1 r^{k-2s-1} dr: when k - 2s <= 0 the certificate
    is divergent, with an infinite tube integral.  Otherwise it evaluates
    int_t^1 r^{k-2s-1} dr = (1 - t^{k-2s}) / (k - 2s) at cutoffs t = 10^-i,
    i <= 250, and declares convergence when the values are Cauchy in the
    cutoff.  With x = 10^-(k-2s) < 1 the i-th value is 1 + x + ... + x^(i-1)
    times the first, so t^{k-2s} can only underflow.  If the values are
    still moving at the last cutoff (k - 2s below about 0.044), the
    certificate is convergent with the limit 1/(k - 2s) as its tube
    integral.
    """
    power = p.codim - 2.0 * p.exponent
    if power <= 0.0:
        return IntegrabilityResult(p.square_integrable, "divergent", math.inf)
    value = math.inf  # no value before the first cutoff: the first test fails
    for step in range(1, _MAX_CUTOFF_STEPS + 1):
        previous, value = value, (1.0 - (10.0**-step) ** power) / power
        if abs(value - previous) <= 1e-12 * max(1.0, abs(value)):
            return IntegrabilityResult(p.square_integrable, "convergent", value)
    return IntegrabilityResult(p.square_integrable, "convergent", 1.0 / power)


def _profile_values(p: SingularProfile, manifold: FlatTorus, points_per_axis: int) -> np.ndarray:
    """d(x, Y)^{-s} on the midpoint grid, flat in C order, where Y is
    the origin point (k = d) or the coordinate subtorus obtained by zeroing
    the first k coordinates.

    The profile depends only on the k cut coordinates.  Their folded squares
    min(x, L - x)^2 are summed axis by axis as an outer sum over the N^k grid
    and the power is taken there, in place.  A point profile returns that
    grid; a subtorus profile repeats each value along the d - k free
    (trailing) axes, so values[::N^(d-k)] is the cut grid in C order.  Every
    node gets the same float operations, in the same order, as a fold over
    the full (N^d, d) point array.  The array is new and the caller's to
    overwrite.  It feeds the mean and the L2 norm for every profile, but the
    FFT only for a point profile.
    """
    squares = []
    for axis in range(p.codim):
        nodes = manifold._midpoint_axis(axis, points_per_axis)
        squares.append(np.minimum(nodes, manifold.side_lengths[axis] - nodes) ** 2)
    values = reduce(np.add.outer, squares).reshape(-1)
    values **= -p.exponent / 2.0
    if p.codim == p.ambient_dim:
        return values
    return np.repeat(values, points_per_axis ** (p.ambient_dim - p.codim))


def distance_profile_coefficients(
    p: SingularProfile,
    manifold: FlatTorus,
    n: int,
    points_per_axis: int | None = None,
) -> SpectralFunction:
    """Eigen-coefficients of the singular profile up to mode n, by quadrature.

    Requires s < k/2 so the profile is square integrable.  The midpoint
    quadrature sums of all modes are read off the DFT F of the profile on
    the N^d grid: with T = F[nu mod N] exp(-i pi sum(nu) / N) sqrt(2/vol)
    vol/N^d, the cosine coefficient is Re T and the sine coefficient is
    -Im T (see the module docstring).  A point profile takes F from rfftn's
    passes over the N^d values: an rfft along the last axis, run on
    _RFFT_BLOCK_POINTS values at a time and keeping only the prefix of
    columns up to the largest one a requested mode reads, then on each
    earlier axis an fft of only the lines that hold a requested entry, so
    each entry read has the bits of the full rfftn and no full N^d half
    spectrum is built.  A subtorus profile takes F[nu] from one fftn of the
    N^k cut grid, times N^(d-k), when every free entry of nu is 0 (mod N),
    and F[nu] = 0 otherwise, so no N^d complex array is built.  For a
    power-of-two N this equals the full rfftn entry for entry, up to the
    sign of some exact zeros; for other N the two agree to rounding.  The
    mean (mode 0) and then the L2 norm sum the full N^d values, the norm
    squaring them in place after the transform.  The default N follows the
    grid budget; n must be below the number of grid points.  The tail is
    the quadrature L2 mass not captured by the materialized modes, which
    keeps Parseval partial sums monotone and bounded; it does not bound the
    continuum tail (see SpectralFunction).
    """
    if p.ambient_dim != manifold.dimension:
        raise ValueError("profile and manifold dimensions disagree")
    if not p.square_integrable:
        raise NotL2Error(f"exponent {p.exponent} >= codim/2 = {p.codim / 2}")
    points_per_axis, total, table = _quadrature_grid(manifold, n, points_per_axis)
    cell = manifold.volume / total
    values = _profile_values(p, manifold, points_per_axis)
    nu = table.frequencies[1 : n + 1]
    index = nu % points_per_axis
    if p.codim < manifold.dimension:
        # Constant along the d - k free axes: F is N^(d-k) times the DFT of
        # the cut grid where every free frequency is 0 (mod N), else 0.
        repeat = points_per_axis ** (manifold.dimension - p.codim)
        cut = np.fft.fftn(values[::repeat].reshape((points_per_axis,) * p.codim))
        on_slice = ~index[:, p.codim :].any(axis=1)
        spectrum = np.where(on_slice, cut[tuple(index[:, : p.codim].T)] * repeat, 0.0)
    else:
        # The profile is real, so the FFT keeps half of the last axis and
        # F[m] = conj(F[-m mod N]) supplies the other half.  The last-axis
        # rfft runs on blocks of lines, and only the columns up to the last
        # one read are copied out, so no block's full output outlives its
        # iteration; a line's rfft does not depend on the other lines.  Each
        # later pass transforms only the lines that the remaining indices
        # read, and index is renumbered onto the lines kept.
        mirrored = index[:, -1] > points_per_axis // 2
        index[mirrored] = -index[mirrored] % points_per_axis
        columns = int(index[:, -1].max(initial=-1)) + 1
        lines = values.reshape(-1, points_per_axis)
        half = np.empty((len(lines), columns), dtype=complex)
        step = max(1, _RFFT_BLOCK_POINTS // points_per_axis)
        for start in range(0, len(lines), step):
            half[start : start + step] = np.fft.rfft(lines[start : start + step], axis=-1)[:, :columns]
        half = half.reshape((points_per_axis,) * (manifold.dimension - 1) + (columns,))
        for axis in range(manifold.dimension - 1, 0, -1):
            keep, index[:, axis] = np.unique(index[:, axis], return_inverse=True)
            half = np.fft.fft(half.take(keep, axis=axis), axis=axis - 1)
        entries = half[tuple(index.T)]
        spectrum = np.where(mirrored, entries.conj(), entries)
    shared = spectrum * np.exp(-1j * math.pi * nu.sum(axis=1) / points_per_axis)
    shared *= math.sqrt(2.0 / manifold.volume) * cell
    trig = np.where(_is_sine(np.arange(1, n + 1)), -shared.imag, shared.real)
    coeffs = [float(np.sum(values)) * cell / math.sqrt(manifold.volume)] + trig.tolist()
    norm_sq = float(np.sum(np.square(values, out=values))) * cell  # nothing reads values after this
    captured = 0.0
    for c in coeffs:
        captured += c * c
    return SpectralFunction(coeffs, tail_sq=max(norm_sq - captured, 0.0))
