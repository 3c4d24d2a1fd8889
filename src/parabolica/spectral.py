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
(k = d) is transformed by rfftn over its N^d values.  A subtorus profile
(k < d) is constant along the d - k free axes, so F is N^(d-k) times the
DFT of the N^k cut grid where every free frequency is 0 (mod N) and 0
elsewhere; only the cut grid is transformed.  Grids are bounded: by
default N^d stays at most 512^2 points for d >= 2 (8192 points for d = 1),
and no grid may exceed _MAX_GRID_POINTS.
"""
from __future__ import annotations

import math
from collections.abc import Mapping
from dataclasses import dataclass
from functools import cached_property, lru_cache, reduce

import numpy as np

from .rootsys import InvariantError


class NotL2Error(ValueError):
    """The requested singular profile is not square integrable."""


# Grid budget: the default grid for d >= 2 is the finest power-of-two side
# with at most _DEFAULT_GRID_POINTS nodes, and no grid, default or explicit,
# may exceed _MAX_GRID_POINTS nodes.  At the budget, a 2048^2
# distance_profile_coefficients call with 4095 modes, in a fresh process on
# a 2-core VM with numpy 2.4, takes 0.14-0.18 s and a 126 MB peak RSS for
# the point profile (codim 2, rfftn over all 2048^2 nodes), and 0.03-0.04 s
# and 93 MB for the codim-1 profile (one 2048-point FFT).
_DEFAULT_GRID_POINTS = 512**2
_MAX_GRID_POINTS = 1 << 22
# The integer frequency box searched for a mode table, (2b + 1)^d rows of d
# entries, is bounded by its entry count.
_MAX_FREQUENCY_BOX = 1 << 22


def _default_points_per_axis(dimension: int) -> int:
    """Grid side used when none is given: 8192 for d = 1, else the largest
    power of two N with N^d <= 512^2 (512 for d = 2, 64 for d = 3)."""
    if dimension == 1:
        return 8192
    if 2**dimension > _DEFAULT_GRID_POINTS:
        raise ValueError(f"no default grid for dimension {dimension}: 2^{dimension} points exceed the budget")
    side = 1
    while (2 * side) ** dimension <= _DEFAULT_GRID_POINTS:
        side *= 2
    return side


@dataclass(frozen=True)
class TorusMode:
    index: int
    eigenvalue: float
    frequency: tuple[int, ...]
    trig: str  # "const", "cos" or "sin"


@dataclass(frozen=True)
class FlatTorus:
    """Flat torus given by its side lengths; eigendata enumerated on demand.

    Mode 0 is the constant vol^{-1/2}; every nonzero frequency class
    contributes a cosine mode and a sine mode with eigenvalue
    sum_i (2 pi nu_i / L_i)^2.  Modes are ordered by (eigenvalue,
    frequency, cos-before-sin), which fixes the index once and for all.
    """

    side_lengths: tuple[float, ...]

    def __post_init__(self) -> None:
        sides = tuple(float(s) for s in self.side_lengths)
        if not sides or any(s <= 0 for s in sides):
            raise ValueError("side lengths must be positive")
        object.__setattr__(self, "side_lengths", sides)

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

    def eigenvalue(self, index: int) -> float:
        return float(self.eigenvalues(index)[index])

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
            raise ValueError(
                f"a grid of {points_per_axis}^{self.dimension} points is outside "
                f"1..{_MAX_GRID_POINTS} points"
            )
        return total

    def _midpoint_axis(self, axis: int, points_per_axis: int) -> np.ndarray:
        """The midpoint nodes (k + 1/2) L / N of one axis."""
        return (np.arange(points_per_axis) + 0.5) * (self.side_lengths[axis] / points_per_axis)


@dataclass(frozen=True)
class _ModeTable:
    """Modes 0..size of a torus as read-only arrays.  Mode 0 is the constant;
    each frequency then gives a cosine and a sine, told apart by _is_sine."""

    eigenvalues: np.ndarray  # (size + 1,)
    frequencies: np.ndarray  # (size + 1, d) integers


def _is_sine(index):
    """Mode index > 0 (int or array) is a sine: _build_table puts each frequency's cosine first."""
    return index % 2 == 0


def _table_for(side_lengths: tuple[float, ...], count: int) -> _ModeTable:
    """The cached table covering modes 0..count.

    The table for a count is a prefix of the table for any larger count, so
    only power-of-two sizes are built and cached; at most log2(count) + 1
    tables exist per torus.
    """
    if count < 0:
        raise ValueError(f"mode count must be nonnegative, got {count}")
    return _build_table(side_lengths, 1 << max(count - 1, 0).bit_length())


@lru_cache(maxsize=64)
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
            raise ValueError(f"a {size}-mode table of the {dim}-torus needs a frequency box over the budget")
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


@dataclass(frozen=True, eq=False)
class SpectralFunction:
    """Eigen-coefficients c_0..c_n plus ``tail_sq``, the squared L2 mass
    past c_n.

    ``coeffs`` is a read-only float64 copy of the 1-D sequence it is given,
    so the arrays cached from it below cannot go stale.  For a profile from
    ``distance_profile_coefficients`` both are midpoint-quadrature values,
    and ``tail_sq`` is the quadrature tail, not a bound on the continuum
    tail: for the point profile on the unit circle at s = 0.45 (N = 8192)
    the squared tail past mode 8, 64 and 128 reads 3.50, 1.82 and 1.35,
    against continuum values of 10.0, 8.24 and 7.69, 3-6x larger."""

    coeffs: np.ndarray
    tail_sq: float = 0.0

    def __post_init__(self) -> None:
        if isinstance(self.coeffs, Mapping):
            raise TypeError("coefficients must be a dense sequence c_0..c_n, not a mapping from index to value")
        coeffs = np.array(self.coeffs, dtype=float)
        if coeffs.ndim != 1:
            raise ValueError(f"coefficients must be a 1-D sequence c_0..c_n, got shape {coeffs.shape}")
        coeffs.setflags(write=False)
        object.__setattr__(self, "coeffs", coeffs)

    @property
    def norm_sq(self) -> float:
        return sum(c * c for c in self.coeffs.tolist()) + self.tail_sq

    def coefficient(self, index: int) -> float:
        """c_index, and 0.0 outside 0..len(coeffs) - 1."""
        return float(self.coeffs[index]) if 0 <= index < len(self.coeffs) else 0.0

    @cached_property
    def tails_sq(self) -> np.ndarray:
        """tails_sq[k] = sum_{j >= k} c_j^2 for k = 0..len(coeffs).

        One reverse running sum of nonnegative terms, so tails_sq never
        increases with k, not even by rounding.
        """
        squares = self.coeffs[::-1] ** 2
        return np.append(np.cumsum(squares)[::-1], 0.0)


@dataclass(frozen=True, eq=False)
class GalerkinSolution:
    """Truncated conformal weight psi_n with its diagnostics.

    ``modes``, ``psi`` and ``lam`` are aligned arrays over the matched modes
    with a nonzero coefficient.
    """

    truncation: int
    modes: np.ndarray
    psi: np.ndarray
    lam: np.ndarray
    source_mode0: float
    residual_l2: float
    h2_norm: float

    def curvature_coeffs(self) -> dict[int, float]:
        """Eigen-coefficients of the resulting mean curvature.

        Mode 0 is carried by the reference-metric constant; every other
        matched mode returns lambda_j * psi_j.
        """
        out = {0: self.source_mode0}
        out.update(zip(self.modes.tolist(), (self.lam * self.psi).tolist()))
        return out


def solve_weight(f: SpectralFunction, n: int, manifold: FlatTorus) -> GalerkinSolution:
    """Conformal weight matching the first n modes of f.

    psi_j = c_j / lambda_j for 1 <= j <= n (mode 0 never divides: the
    compatibility condition is mode-0 data and is carried by the reference
    metric).  The residual against the full f is the tail norm, and the
    spectral H2 norm of psi is reported.
    """
    if n < 0:
        raise ValueError("truncation order must be nonnegative")
    index, c, lam = _matched_modes(f, 0, n, manifold)
    kept = c != 0.0
    index, c, lam = index[kept], c[kept], lam[kept]
    psi = c / lam
    tail_sq = f.tail_sq + float(f.tails_sq[min(n + 1, len(f.coeffs))])
    h2_sq = float(np.sum((1.0 + lam**2) * psi**2))
    return GalerkinSolution(
        truncation=n,
        modes=index,
        psi=psi,
        lam=lam,
        source_mode0=f.coefficient(0),
        residual_l2=math.sqrt(tail_sq),
        h2_norm=math.sqrt(h2_sq),
    )


def _matched_modes(
    f: SpectralFunction, m: int, n: int, manifold: FlatTorus
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Indices j with max(m, 0) < j <= n (within f's range), with their
    coefficients and eigenvalues."""
    lo, hi = max(m, 0) + 1, min(n, len(f.coeffs) - 1)
    return np.arange(lo, hi + 1), f.coeffs[lo : hi + 1], manifold.eigenvalues(max(hi, 0))[lo:]


def spectral_h2_gap(f: SpectralFunction, m: int, n: int, manifold: FlatTorus) -> float:
    """Exact squared spectral H2 distance between psi_n and psi_m."""
    _, c, lam = _matched_modes(f, m, n, manifold)
    return float(np.sum((1.0 + lam**2) * (c / lam) ** 2))


def h2_cauchy_gap(
    f: SpectralFunction, n: int, m_idx: int, manifold: FlatTorus, kappa: float
) -> float:
    """Bochner upper bound for the squared H2 gap between psi_n and psi_m.

    Bound = (1 + C) * sum_{j=m+1}^{n} (1/lambda_j^2 + 1) c_j^2 with
    C = max(1 + |kappa| eps, |kappa| / (4 eps)), eps = 1/(2 |kappa|); for
    kappa = 0 the Young term drops and C = 1.  The bound is checked to
    dominate the directly computed spectral gap (InvariantError if not).
    """
    if not n > m_idx >= 0:
        raise ValueError("need n > m >= 0")
    if kappa == 0:
        const = 1.0
    else:
        eps = 1.0 / (2.0 * abs(kappa))
        const = max(1.0 + abs(kappa) * eps, abs(kappa) / (4.0 * eps))
    _, c, lam = _matched_modes(f, m_idx, n, manifold)
    bound = (1.0 + const) * float(np.sum((1.0 / lam**2 + 1.0) * c * c))
    gap = spectral_h2_gap(f, m_idx, n, manifold)
    if not bound >= gap * (1.0 - 1e-12):
        raise InvariantError(
            f"Bochner bound must dominate the exact H2 gap: bound {bound!r} < gap {gap!r} "
            f"for n={n}, m={m_idx}, kappa={kappa!r}"
        )
    return bound


def compatibility_constant(profile_mean: float, hym_c: float) -> float:
    """Additive shift moving a profile's mean onto the topological target.

    The prescribed equation needs (1/2pi) x mean = hym constant, i.e. a
    target mean of 2 pi * hym_c; only mode-0 arithmetic is involved.
    """
    return 2.0 * math.pi * float(hym_c) - profile_mean


@dataclass(frozen=True)
class SingularProfile:
    """Distance-power singularity d(x, Y)^{-s} along a codimension-k set."""

    ambient_dim: int
    codim: int
    exponent: float

    def __post_init__(self) -> None:
        if self.codim < 1 or self.codim > self.ambient_dim:
            raise ValueError("codimension must lie in 1..ambient_dim")
        if not (math.isfinite(self.exponent) and self.exponent > 0):
            raise ValueError(f"exponent must be positive and finite, got {self.exponent!r}")

    @property
    def square_integrable(self) -> bool:
        return self.exponent < self.codim / 2


@dataclass(frozen=True)
class IntegrabilityResult:
    finite: bool
    certificate: str  # "convergent" or "divergent"
    tube_integral: float


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
    values = []
    for step in range(1, _MAX_CUTOFF_STEPS + 1):
        values.append((1.0 - (10.0**-step) ** power) / power)
        if step > 1 and abs(values[-1] - values[-2]) <= 1e-12 * max(1.0, abs(values[-1])):
            return IntegrabilityResult(p.square_integrable, "convergent", values[-1])
    return IntegrabilityResult(p.square_integrable, "convergent", 1.0 / power)


def _profile_values(p: SingularProfile, manifold: FlatTorus, points_per_axis: int) -> np.ndarray:
    """d(x, Y)^{-s} on the midpoint grid, flat in C order, where Y is
    the origin point (k = d) or the coordinate subtorus obtained by zeroing
    the first k coordinates.

    The profile depends only on the k cut coordinates.  Their folded squares
    min(x, L - x)^2 are summed axis by axis as an outer sum over the N^k grid,
    the power is taken there, and each value is repeated along the d - k free
    (trailing) axes, so values[::N^(d-k)] is the cut grid in C order.  Every
    node gets the same float operations, in the same order, as a fold over
    the full (N^d, d) point array.  The repeated array feeds the mean and
    the L2 norm for every profile, but the FFT only for a point profile.
    """
    if p.ambient_dim != manifold.dimension:
        raise ValueError("profile and manifold dimensions disagree")
    manifold._grid_size(points_per_axis)
    squares = []
    for axis in range(p.codim):
        nodes = manifold._midpoint_axis(axis, points_per_axis)
        squares.append(np.minimum(nodes, manifold.side_lengths[axis] - nodes) ** 2)
    sq = reduce(np.add.outer, squares)
    values = sq ** (-p.exponent / 2.0)
    return np.repeat(values.reshape(-1), points_per_axis ** (p.ambient_dim - p.codim))


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
    -Im T (see the module docstring).  A point profile takes F from one
    rfftn of the N^d values.  A subtorus profile takes F[nu] from one fftn
    of the N^k cut grid, times N^(d-k), when every free entry of nu is 0
    (mod N), and F[nu] = 0 otherwise, so no N^d complex array is built.
    For a power-of-two N this equals the full rfftn entry for entry, up to
    the sign of some exact zeros; for other N the two agree to rounding.
    The mean (mode 0) and the L2 norm sum the full N^d values.  The default
    N follows the grid budget; n must be below the number of grid points.
    The tail is the quadrature L2 mass not captured by the materialized
    modes, which keeps Parseval partial sums monotone and bounded; it does
    not bound the continuum tail (see SpectralFunction).
    """
    if not p.square_integrable:
        raise NotL2Error(f"exponent {p.exponent} >= codim/2 = {p.codim / 2}")
    if points_per_axis is None:
        points_per_axis = _default_points_per_axis(manifold.dimension)
    total = manifold._grid_size(points_per_axis)
    if not 0 <= n < total:
        raise ValueError(f"mode count {n} is outside 0..{total - 1} for a {total}-point grid")
    table = _table_for(manifold.side_lengths, n)
    cell = manifold.volume / total
    values = _profile_values(p, manifold, points_per_axis)
    norm_sq = float(np.sum(values**2)) * cell
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
        # F[m] = conj(F[-m mod N]) supplies the other half.
        half = np.fft.rfftn(values.reshape((points_per_axis,) * manifold.dimension))
        mirrored = index[:, -1] > points_per_axis // 2
        index[mirrored] = -index[mirrored] % points_per_axis
        entries = half[tuple(index.T)]
        spectrum = np.where(mirrored, entries.conj(), entries)
    shared = spectrum * np.exp(-1j * math.pi * nu.sum(axis=1) / points_per_axis)
    shared *= math.sqrt(2.0 / manifold.volume) * cell
    trig = np.where(_is_sine(np.arange(1, n + 1)), -shared.imag, shared.real)
    coeffs = [float(np.sum(values)) * cell / math.sqrt(manifold.volume)] + trig.tolist()
    captured = 0.0
    for c in coeffs:
        captured += c * c
    return SpectralFunction(coeffs, tail_sq=max(norm_sq - captured, 0.0))
