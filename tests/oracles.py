"""Independent routes to values the library stores, for tests to compare
against.  None of them reads the library's coroot tables.

* ``root_norms``: the symmetrizer of a Cartan matrix, the root lengths
  the library never computes;
* ``root_norm_sq`` and ``coroot_coefficients``: (beta, beta) and beta^vee
  from the root norms, in rationals, apart from the reflection closure;
* ``root_as_weight_fold``: a root over the fundamental weights, folded
  one ``Fraction`` product at a time over the rows of C;
* ``delta_from_root_sum``: delta as a sum of roots rewritten one by one;
* ``levi_closure``: the Levi root system built by its own closure over
  C_I, against which the restriction in ``build_parabolic`` is checked;
* ``check_report``: the rules that tie one CLI report's fields to each
  other, read off the parsed JSON alone;
* ``full_fft_profile_coefficients``: a profile's eigen-coefficients read
  off one ``rfftn`` of the whole N^d grid, free axes included, against
  which the cut-axes transform of ``distance_profile_coefficients`` is
  checked.
"""
from __future__ import annotations

import functools
import math
from fractions import Fraction
from typing import Iterable

import numpy as np

from parabolica.parabolic import ParabolicData
from parabolica.rootsys import Root, RootSystem, Weight, root_system_from_cartan
from parabolica.spectral import FlatTorus, SingularProfile, SpectralFunction, _profile_values


@functools.cache
def root_norms(cartan: tuple[tuple[int, ...], ...]) -> tuple[int, ...]:
    """The minimal positive integers e with C_ij e_j = C_ji e_i: e_j is
    proportional to half the squared length of alpha_j, scaled per
    connected component of the Dynkin diagram.  Cached per Cartan matrix."""
    n = len(cartan)
    values: list[Fraction | None] = [None] * n
    for start in range(n):
        if values[start] is not None:
            continue
        values[start] = Fraction(1)
        component, stack = [start], [start]
        while stack:  # walk the component, carrying e_j = e_i C_ji / C_ij
            i = stack.pop()
            for j in range(n):
                if j != i and cartan[i][j] != 0 and values[j] is None:
                    values[j] = values[i] * Fraction(cartan[j][i], cartan[i][j])
                    component.append(j)
                    stack.append(j)
        scale = math.lcm(*(values[i].denominator for i in component))
        divisor = math.gcd(*(int(values[i] * scale) for i in component))
        for i in component:
            values[i] = values[i] * scale / divisor
    return tuple(int(v) for v in values)


def root_norm_sq(rs: RootSystem, root: Root) -> Fraction:
    """(beta, beta) = sum_ij m_i m_j C_ij e_j in the integer normalization
    fixed by root_norms."""
    return Fraction(
        sum(
            mi * mj * cij * e
            for mi, row in zip(root, rs.cartan)
            for mj, cij, e in zip(root, row, root_norms(rs.cartan))
        )
    )


def coroot_coefficients(rs: RootSystem, root: Root) -> tuple[Fraction, ...]:
    """Expansion of beta^vee over the simple coroots alpha_j^vee,
    2 m_j e_j / (beta, beta) in rationals."""
    norm = root_norm_sq(rs, root)
    return tuple(Fraction(2 * m * e, norm) for m, e in zip(root, root_norms(rs.cartan)))


def root_as_weight_fold(rs: RootSystem, root: Root) -> Weight:
    """beta = sum_i m_i alpha_i with alpha_i the i-th row of C, accumulated
    as Fraction(0) + m_i C_ij per root coefficient and coordinate."""
    coords = [Fraction(0)] * rs.rank
    for i, m in enumerate(root):
        if m:
            for j in range(rs.rank):
                coords[j] += m * rs.cartan[i][j]
    return Weight(tuple(coords))


def delta_from_root_sum(rs: RootSystem, roots: Iterable[Root]) -> Weight:
    """delta as the sum of the given roots each rewritten as a weight."""
    total = Weight.zero(rs.rank)
    for root in roots:
        total = total + root_as_weight_fold(rs, root)
    return total


def levi_closure(p: ParabolicData) -> RootSystem:
    """The Levi subsystem as a root system of its own, by a second reflection
    closure over the Levi Cartan matrix C_I."""
    return root_system_from_cartan(p.levi_cartan)


def check_report(report: dict | list) -> None:
    """Raise AssertionError where a parsed report contradicts itself.

    Takes every JSON report the CLI prints: ``analyze``, ``curvature``,
    ``spectral``, ``dump-roots`` and the ``paper-suite`` list.  The rules:

    * ``splits`` holds exactly when ``lambda_L0`` is non-null;
    * a curvature block's ``trace`` is the sum of its eigenvalues, and an
      ``analyze`` report has one eigenvalue per root of ``phi_I_plus``;
    * ``finite`` holds exactly when the certificate is ``convergent``, whose
      tube integral is 1/(k - 2s) to 1e-9 relative;
    * the residuals never increase along the ladder;
    * on the unit torus, ``c0`` is 2*pi*``hym_target`` - ``coeffs_head[0]``.
    """
    if isinstance(report, list):
        for entry in report:
            check_report(entry["report"])
        return
    if "splitting" in report:
        splitting = report["splitting"]
        assert splitting["splits"] == (splitting["lambda_L0"] is not None), splitting
    curvature = report.get("curvature", report if "eigenvalues" in report else None)
    if curvature is not None:
        eigenvalues = curvature["eigenvalues"]
        total = sum(map(Fraction, eigenvalues.values()), Fraction(0))
        assert Fraction(curvature["trace"]) == total, (curvature["trace"], total)
        if "parabolic" in report:
            roots = report["parabolic"]["phi_I_plus"]
            assert len(eigenvalues) == len(roots), (len(eigenvalues), len(roots))
    spectral = report.get("spectral", report if "integrable" in report else None)
    if spectral is not None:
        integrable, profile = spectral["integrable"], spectral["profile"]
        assert integrable["finite"] == (integrable["certificate"] == "convergent"), integrable
        if integrable["certificate"] == "convergent":
            power = profile["codim"] - 2.0 * profile["exponent"]
            assert math.isclose(integrable["tube_integral"], 1 / power, rel_tol=1e-9), (integrable, profile)
        residuals = [row["residual"] for row in spectral.get("residuals", ())]
        assert all(a >= b for a, b in zip(residuals, residuals[1:])), residuals
        if "c0" in spectral and all(side == 1.0 for side in spectral["torus_sides"]):
            expected = 2 * math.pi * spectral["hym_target"] - spectral["coeffs_head"][0]
            assert spectral["c0"] == expected, (spectral["c0"], expected)


def full_fft_profile_coefficients(
    p: SingularProfile, manifold: FlatTorus, n: int, points_per_axis: int
) -> SpectralFunction:
    """Coefficients 0..n of d(x, Y)^{-s} from one ``rfftn`` of the profile
    on the whole N^d grid, free axes included: F[m] = conj(F[-m mod N])
    stands in for the half of the last axis ``rfftn`` drops, then come the
    phase exp(-i pi sum(nu) / N) and the scale sqrt(2/vol) vol/N^d.  Mode
    0 is the mean; the tail is the quadrature L2 mass past mode n."""
    modes = manifold.modes(n)[1:]
    cell = manifold.volume / points_per_axis**manifold.dimension
    values = _profile_values(p, manifold, points_per_axis)
    norm_sq = float(np.sum(values**2)) * cell
    nu = np.array([mode.frequency for mode in modes], dtype=np.int64).reshape(len(modes), manifold.dimension)
    half = np.fft.rfftn(values.reshape((points_per_axis,) * manifold.dimension))
    index = nu % points_per_axis
    mirrored = index[:, -1] > points_per_axis // 2
    index[mirrored] = -index[mirrored] % points_per_axis
    entries = half[tuple(index.T)]
    spectrum = np.where(mirrored, entries.conj(), entries)
    shared = spectrum * np.exp(-1j * math.pi * nu.sum(axis=1) / points_per_axis)
    shared *= math.sqrt(2.0 / manifold.volume) * cell
    sine = np.array([mode.trig == "sin" for mode in modes], dtype=bool)
    trig = np.where(sine, -shared.imag, shared.real)
    coeffs = [float(np.sum(values)) * cell / math.sqrt(manifold.volume)] + trig.tolist()
    captured = 0.0
    for c in coeffs:
        captured += c * c
    return SpectralFunction(coeffs, tail_sq=max(norm_sq - captured, 0.0))
