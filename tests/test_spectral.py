from __future__ import annotations

import math
import random
import re
import tracemalloc
from unittest import mock

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from parabolica import spectral
from parabolica.spectral import (
    FlatTorus,
    NotL2Error,
    SingularProfile,
    SpectralFunction,
    TorusMode,
    compatibility_constant,
    distance_profile_coefficients,
    h2_cauchy_gap,
    integrability_check,
    solve_weight,
    spectral_h2_gap,
)

from conftest import dense
from oracles import curvature_coeffs, full_fft_profile_coefficients, norm_sq

CIRCLE = FlatTorus((2 * math.pi,))


def test_circle_mode_enumeration():
    modes = CIRCLE.modes(8)
    assert modes[0].trig == "const"
    assert modes[0].eigenvalue == 0.0
    eigs = [m.eigenvalue for m in modes]
    assert eigs == sorted(eigs)
    # frequency k contributes eigenvalue k^2 twice (cos and sin)
    assert eigs[1:7] == [1.0, 1.0, 4.0, 4.0, 9.0, 9.0]


def test_constant_mode_normalization():
    grid = CIRCLE.midpoint_grid(64)
    phi0 = CIRCLE.sample_mode(CIRCLE.modes(0)[0], grid)
    assert np.allclose(phi0, 1.0 / math.sqrt(CIRCLE.volume))


def test_modes_orthonormal_under_quadrature():
    torus = FlatTorus((1.0, 2.0))
    grid = torus.midpoint_grid(64)
    cell = torus.volume / grid.shape[0]
    modes = torus.modes(12)
    sampled = [torus.sample_mode(m, grid) for m in modes]
    for i, fi in enumerate(sampled):
        for j, fj in enumerate(sampled):
            inner = float(np.dot(fi, fj)) * cell
            assert abs(inner - (1.0 if i == j else 0.0)) < 1e-10, (i, j)


def test_spectral_function_coefficients_are_read_only():
    for source in ([1.0, 0.0, 3.0], np.array([1.0, 0.0, 3.0])):
        f = SpectralFunction(coeffs=source)
        source[2] = 5.0
        with pytest.raises(ValueError):
            f.coeffs[2] = 5.0
        assert f.coefficient(2) == 3.0 and norm_sq(f) == 10.0
        assert solve_weight(f, 2, CIRCLE).residual_l2 == 0.0


@pytest.mark.parametrize("coeffs", [1.0, [[1.0, 2.0]]], ids=["scalar", "2-d"])
def test_spectral_function_needs_one_axis(coeffs):
    with pytest.raises(ValueError, match="1-D"):
        SpectralFunction(coeffs=coeffs)


def test_spectral_function_refuses_a_mapping():
    with pytest.raises(TypeError, match="dense sequence c_0..c_n"):
        SpectralFunction({1: 2.0})


def test_coefficient_is_zero_outside_the_array():
    f = SpectralFunction(coeffs=[1.0, 2.0])
    assert [f.coefficient(j) for j in (-1, 0, 1, 2, 7)] == [0.0, 1.0, 2.0, 0.0, 0.0]


def test_truncation_error_is_tail_norm():
    rng = random.Random(99)
    coeffs = [rng.uniform(-1, 1) for _ in range(20)]
    f = SpectralFunction(coeffs=coeffs)
    for n in (0, 3, 11, 19):
        diff_sq = sum(c * c for j, c in enumerate(coeffs) if j > n)
        residual = solve_weight(f, n, CIRCLE).residual_l2
        assert math.isclose(residual**2, diff_sq, rel_tol=0, abs_tol=1e-12)


def test_solve_weight_unit_eigenfunction():
    # f = cos(theta) has eigenvalue one, so psi equals f exactly
    f = SpectralFunction(coeffs=[0.0, math.sqrt(math.pi)])
    sol = solve_weight(f, 1, CIRCLE)
    assert sol.modes.tolist() == [1] and sol.psi.tolist() == [math.sqrt(math.pi)]
    assert sol.residual_l2 == 0.0


def test_solve_weight_single_high_mode():
    j = 9  # frequency 5, eigenvalue 25
    lam = float(CIRCLE.eigenvalues(j)[j])
    sol = solve_weight(SpectralFunction(coeffs=dense({j: 1.0})), j, CIRCLE)
    assert sol.modes.tolist() == [j]
    assert math.isclose(sol.psi[0], 1.0 / lam, rel_tol=1e-15)
    assert math.isclose(sol.h2_norm, math.sqrt((1.0 + lam**2) / lam**2), rel_tol=1e-14)


def test_solve_weight_of_no_coefficients_is_empty():
    sol = solve_weight(SpectralFunction([]), 3, CIRCLE)
    assert sol.modes.tolist() == sol.psi.tolist() == sol.lam.tolist() == []
    assert sol.residual_l2 == sol.h2_norm == sol.source_mode0 == 0.0


@pytest.mark.parametrize("sides", [(1.0,), (2 * math.pi,), (1.0, 1.0), (1.0, 2.5), (1.0, 1.0, 1.0)])
def test_each_table_is_a_prefix_of_every_larger_one(sides):
    # the ladder reads rung n's eigenvalues from the table for all of f, so
    # they must carry the bits of rung n's own table
    largest = spectral._build_table(sides, 4096)
    for size in (1 << k for k in range(12)):
        table = spectral._build_table(sides, size)
        assert table.eigenvalues.tobytes() == largest.eigenvalues[: size + 1].tobytes()
        assert table.frequencies.tolist() == largest.frequencies[: size + 1].tolist()


def _count_builds(monkeypatch) -> list[int]:
    """The sizes of the mode tables built from now on, in order."""
    sizes = []
    genuine = spectral._build_table
    monkeypatch.setattr(spectral, "_build_table", lambda sides, size: sizes.append(size) or genuine(sides, size))
    return sizes


def test_ladder_rungs_read_the_table_of_the_whole_function(monkeypatch):
    f = spectral.distance_profile_coefficients(SingularProfile(1, 1, 0.25), CIRCLE, 200, points_per_axis=1024)
    built = _count_builds(monkeypatch)
    for n in (2, 4, 8, 200):
        solve_weight(f, n, CIRCLE)
    h2_cauchy_gap(f, 8, 4, CIRCLE)
    assert built == []


@pytest.mark.parametrize("sides, length", [((1.0,) * 11, 1500), ((1.0,), 2_000_001)], ids=["11-torus", "circle"])
def test_long_hand_built_function_reads_only_the_modes_it_needs(sides, length):
    # no call fetched the table for all of f, which is over budget on both
    # tori, so the modes 1..3 come from the table for mode 3, with its bits
    torus = FlatTorus(sides)
    long, short = SpectralFunction(np.ones(length)), SpectralFunction(np.ones(4))
    sol = solve_weight(long, 3, torus)
    assert sol.modes.tolist() == [1, 2, 3]
    assert sol.lam.tobytes() == solve_weight(short, 3, torus).lam.tobytes()
    assert spectral_h2_gap(long, 0, 3, torus) == spectral_h2_gap(short, 0, 3, torus)
    assert h2_cauchy_gap(long, 3, 1, torus) == h2_cauchy_gap(short, 3, 1, torus)


def test_galerkin_solution_keeps_arrays():
    # modes with a zero coefficient are dropped from the aligned arrays
    f = SpectralFunction(coeffs=[2.0, 0.5, 0.0, -1.5])
    sol = solve_weight(f, 3, CIRCLE)
    assert sol.modes.tolist() == [1, 3]
    lam = {j: float(CIRCLE.eigenvalues(j)[j]) for j in (1, 3)}
    assert sol.lam.tolist() == [lam[1], lam[3]]
    assert sol.psi.tolist() == [0.5 / lam[1], -1.5 / lam[3]]
    assert curvature_coeffs(sol) == {0: 2.0, 1: lam[1] * (0.5 / lam[1]), 3: lam[3] * (-1.5 / lam[3])}


def test_residual_matches_direct_tail_sum():
    n_max = 1500
    f = SpectralFunction(coeffs=dense({j: 1.0 / j for j in range(1, n_max + 1)}))
    for n in (10, 37, 100, 512, 1000):
        sol = solve_weight(f, n, CIRCLE)
        tail = math.sqrt(sum((1.0 / j) ** 2 for j in range(n + 1, n_max + 1)))
        assert abs(sol.residual_l2 - tail) <= 1e-10


def test_exact_mode_matching():
    rng = random.Random(4242)
    coeffs = [rng.uniform(-2, 2) for _ in range(0, 40)]
    f = SpectralFunction(coeffs=coeffs)
    sol = solve_weight(f, 25, CIRCLE)
    curv = curvature_coeffs(sol)
    assert curv[0] == coeffs[0]
    for j in range(1, 26):
        assert abs(curv[j] - coeffs[j]) <= 1e-12 * max(1.0, abs(coeffs[j]))


def test_residual_monotone_nonincreasing():
    rng = random.Random(7)
    f = SpectralFunction(coeffs=[rng.uniform(-1, 1) for _ in range(50)])
    residuals = [solve_weight(f, n, CIRCLE).residual_l2 for n in range(1, 50)]
    for a, b in zip(residuals, residuals[1:]):
        assert b <= a + 1e-15
    assert residuals[-1] == 0.0


def test_h2_gap_single_extra_mode():
    j = 7
    lam = float(CIRCLE.eigenvalues(j)[j])
    c = 0.3
    f = SpectralFunction(coeffs=dense({j: c}))
    bound, gap = h2_cauchy_gap(f, j, j - 1, CIRCLE)
    assert gap == spectral_h2_gap(f, j - 1, j, CIRCLE)
    assert math.isclose(bound, 2.0 * (1.0 / lam**2 + 1.0) * c * c, rel_tol=1e-14)
    assert math.isclose(gap, (1.0 + lam**2) * (c / lam) ** 2, rel_tol=1e-14)
    assert bound >= gap


def test_h2_gap_zero_tail():
    f = SpectralFunction(coeffs=[0.0, 1.0, 0.5])
    assert h2_cauchy_gap(f, 10, 5, CIRCLE) == (0.0, 0.0)
    assert spectral_h2_gap(f, 5, 10, CIRCLE) == 0.0


def test_h2_bound_dominates_gap():
    f = SpectralFunction(coeffs=dense({j: 1.0 / j for j in range(1, 101)}))
    bound, gap = h2_cauchy_gap(f, 100, 10, CIRCLE)
    assert gap == spectral_h2_gap(f, 10, 100, CIRCLE)
    assert bound >= gap > 0.0
    assert math.isfinite(bound)


def test_h2_gap_argument_validation():
    f = SpectralFunction(coeffs=[0.0, 1.0])
    with pytest.raises(ValueError):
        h2_cauchy_gap(f, 5, 5, CIRCLE)


def test_compatibility_constant_trivial():
    target = 2.0 * math.pi * 3.0
    assert compatibility_constant(target, 3.0) == 0.0


def test_compatibility_constant_shift():
    assert math.isclose(
        compatibility_constant(1.25, 2.0), 2.0 * math.pi * 2.0 - 1.25, rel_tol=1e-15
    )


def test_integrability_q5_cases():
    # codimension 10 = real codimension of a point on a 5-fold
    fine = integrability_check(SingularProfile(ambient_dim=10, codim=10, exponent=4.9))
    assert fine.finite and fine.certificate == "convergent"
    assert math.isclose(fine.tube_integral, 1.0 / (10 - 2 * 4.9), rel_tol=1e-9)
    boundary = integrability_check(SingularProfile(ambient_dim=10, codim=10, exponent=5.0))
    assert not boundary.finite and boundary.certificate == "divergent"
    beyond = integrability_check(SingularProfile(ambient_dim=10, codim=10, exponent=5.1))
    assert not beyond.finite and beyond.certificate == "divergent"


@pytest.mark.parametrize(
    "codim, exponent, finite",
    [(2, 0.5, True), (2, 1.0, False), (1, 0.25, True), (1, 0.5, False), (3, 1.4, True)],
)
def test_integrability_small_cases(codim, exponent, finite):
    res = integrability_check(SingularProfile(ambient_dim=4, codim=codim, exponent=exponent))
    assert res.finite == finite
    assert (res.certificate == "convergent") == finite


# Past k/2 the sign of k - 2s settles the certificate: no power of a cutoff
# is taken, so s = 200 cannot overflow, s = 1e308 cannot give a NaN tube,
# and one ulp above k/2 is not certified convergent.
@pytest.mark.parametrize(
    "ambient_dim, codim, exponent",
    [(10, 2, 4.0), (1, 1, 200.0), (1, 1, 1e308), (2, 2, 1.0000000000000002)],
    ids=["codim2-s4", "s200", "s1e308", "ulp-above-half-codim"],
)
def test_integrability_strong_divergence_is_settled_by_sign(ambient_dim, codim, exponent):
    res = integrability_check(SingularProfile(ambient_dim=ambient_dim, codim=codim, exponent=exponent))
    assert not res.finite and res.certificate == "divergent"
    assert res.tube_integral == math.inf


CERTIFICATE = settings(max_examples=300, deadline=None, derandomize=True, database=None)


@CERTIFICATE
@given(
    st.integers(1, 64),
    st.one_of(
        st.floats(min_value=0.0, max_value=32.0, exclude_min=True),
        st.floats(min_value=0.0, exclude_min=True, allow_infinity=False),
    ),
)
@example(1, 0.5)
@example(2, math.nextafter(1.0, math.inf))
@example(64, 31.95)
@example(1, 0.4999)  # k - 2s = 0.0002: the cutoff values never settle
@example(1, 0.49)
def test_certificate_follows_the_sign_of_k_minus_2s(codim, exponent):
    res = integrability_check(SingularProfile(ambient_dim=codim, codim=codim, exponent=exponent))
    power = codim - 2 * exponent
    if power <= 0:
        assert (res.finite, res.certificate, res.tube_integral) == (False, "divergent", math.inf)
    else:
        assert res.finite and res.certificate == "convergent"
        assert math.isclose(res.tube_integral, 1 / power, rel_tol=1e-9)


def test_profile_requires_l2():
    with pytest.raises(NotL2Error):
        distance_profile_coefficients(
            SingularProfile(ambient_dim=1, codim=1, exponent=0.5), CIRCLE, 8
        )


def test_profile_coefficients_circle():
    profile = SingularProfile(ambient_dim=1, codim=1, exponent=0.25)
    f = distance_profile_coefficients(profile, CIRCLE, 512)
    captured = sum(c * c for c in f.coeffs)
    assert captured / norm_sq(f) > 0.98
    # sine coefficients vanish for the even profile
    for mode in CIRCLE.modes(512):
        if mode.trig == "sin":
            assert abs(f.coefficient(mode.index)) < 1e-12


# Midpoint quadrature against the continuum on the unit circle.  The grid
# x_k = (k + 1/2) h straddles the singular point, so by Navot's
# Euler-Maclaurin expansion for an algebraic endpoint singularity
# (I. Navot, J. Math. and Phys. 40 (1961) 271-276), each one-sided sum of
# x^-a g(x) is off from the integral by g(0) (2^a - 1) zeta(a) h^(1-a),
# up to terms of relative size h^2.  The fold min(x, 1 - x) doubles it.
@pytest.mark.parametrize("exponent", [0.25, 0.45])
@pytest.mark.parametrize("points_per_axis", [1024, 8192])
def test_point_profile_quadrature_error_is_navots_term(exponent, points_per_axis):
    unit_circle = FlatTorus((1.0,))
    f = distance_profile_coefficients(
        SingularProfile(ambient_dim=1, codim=1, exponent=exponent), unit_circle, 8, points_per_axis
    )
    h = 1.0 / points_per_axis

    def navot(a: float) -> float:
        return 2 * (2**a - 1) * float(mpmath.zeta(a)) * h ** (1 - a)

    exact_mass = 2 * 0.5 ** (1 - 2 * exponent) / (1 - 2 * exponent)
    assert math.isclose((norm_sq(f) - exact_mass) / navot(2 * exponent), 1.0, abs_tol=1e-3)
    for j, frequency in ((0, 0), (1, 1), (3, 2), (7, 4)):
        phi_at_0 = 1.0 if j == 0 else math.sqrt(2)  # cosine modes sit at odd j
        exact = 2 * phi_at_0 * mpmath.quad(
            lambda x: x**-exponent * mpmath.cos(2 * mpmath.pi * frequency * x), [0, 0.5]
        )
        assert math.isclose((f.coefficient(j) - float(exact)) / (phi_at_0 * navot(exponent)), 1.0, abs_tol=1e-3)
    for j in (2, 4, 6, 8):  # the profile is even, so its sine coefficients vanish
        assert abs(f.coefficient(j)) < 1e-12


# Richardson extrapolation in N for d >= 2 and for subtori.  By the
# d-dimensional form of Navot's expansion (J. N. Lyness, Math. Comp. 30
# (1976) 1-23), the midpoint sum of d(x, Y)^-s g(x) on a grid of step
# h = L/N is off from the integral by a h^(k-s) g|Y + b h^2 + O(h^(k-s+2)),
# where k is the codimension of Y.  The first term comes from the singular
# set, and its constant a depends on the grid but not on g; the second
# comes from the kink of the distance at the cut locus.  The mass, the sum
# of d^-2s, has the same expansion with k - 2s.  Combining grids N and 2N
# as (4 Q(2N) - Q(N)) / 3 drops the h^2 term, and log2 of the ratio of
# successive differences of what is left is the order of the singular
# term.  Since a does not depend on g, the differences of a cosine
# coefficient and of the mean stand in the ratio phi_j(Y) / phi_0(Y) =
# sqrt(2) for every mode constant along Y.
@pytest.mark.parametrize(
    "sides, codim, exponent, sizes",
    [
        ((1.0, 0.8), 2, 0.9, (128, 256, 512, 1024)),
        ((0.7, 0.8, 0.9), 3, 1.4, (16, 32, 64, 128)),
        ((1.0, 0.8), 1, 0.4, (128, 256, 512, 1024)),
        ((0.7, 0.8, 0.9), 2, 0.9, (16, 32, 64, 128)),
    ],
)
def test_profile_quadrature_error_has_the_singular_order(sides, codim, exponent, sizes):
    torus = FlatTorus(sides)
    profile = SingularProfile(ambient_dim=len(sides), codim=codim, exponent=exponent)
    n = 12
    # the mean, then every cosine mode constant along Y
    read = [0] + [mode.index for mode in torus.modes(n) if mode.trig == "cos" and not any(mode.frequency[codim:])]
    assert len(read) >= 3
    rows = []
    for points_per_axis in sizes:
        f = distance_profile_coefficients(profile, torus, n, points_per_axis=points_per_axis)
        rows.append([norm_sq(f), *f.coeffs[read]])
    extrapolated = np.array(rows)
    extrapolated = (4 * extrapolated[1:] - extrapolated[:-1]) / 3
    steps = np.diff(extrapolated, axis=0)
    mass_order, *orders = np.log2(steps[0] / steps[1]).tolist()
    assert math.isclose(mass_order, codim - 2 * exponent, abs_tol=0.05), mass_order
    for j, order in zip(read, orders):
        assert math.isclose(order, codim - exponent, abs_tol=0.05), (j, order)
    for j, ratio in zip(read[1:], (steps[-1, 2:] / steps[-1, 1]).tolist()):
        assert math.isclose(ratio, math.sqrt(2), rel_tol=0.01), (j, ratio)


def test_profile_parseval_partial_sums_monotone_bounded():
    profile = SingularProfile(ambient_dim=1, codim=1, exponent=0.25)
    f = distance_profile_coefficients(profile, CIRCLE, 128)
    running = 0.0
    for j in range(len(f.coeffs)):
        running += f.coefficient(j) ** 2
        assert running <= norm_sq(f) + 1e-9


def test_profile_small_exponent_is_almost_constant():
    profile = SingularProfile(ambient_dim=1, codim=1, exponent=1e-6)
    f = distance_profile_coefficients(profile, CIRCLE, 32)
    mean_value = f.coefficient(0) / math.sqrt(CIRCLE.volume)
    assert math.isclose(mean_value, 1.0, rel_tol=1e-4)
    for j in range(1, 33):
        assert abs(f.coefficient(j)) < 1e-3


def test_subtorus_profile_two_dim():
    torus = FlatTorus((1.0, 1.0))
    profile = SingularProfile(ambient_dim=2, codim=1, exponent=0.25)
    f = distance_profile_coefficients(profile, torus, 32, points_per_axis=256)
    assert f.coefficient(0) > 0
    assert sum(c * c for c in f.coeffs) / norm_sq(f) > 0.9


def test_singular_profile_validation():
    with pytest.raises(ValueError):
        SingularProfile(ambient_dim=2, codim=3, exponent=0.5)
    with pytest.raises(ValueError):
        SingularProfile(ambient_dim=2, codim=1, exponent=0.0)
    for ambient_dim, codim in [(2, 1.5), (2.5, 2), (math.nan, 1), (2, math.inf)]:
        with pytest.raises(spectral._InvalidProfile, match="must be an integer"):
            SingularProfile(ambient_dim, codim, 0.25)
    # an integral float is stored as an int, so the profile's grid can be built
    profile, torus = SingularProfile(2.0, 2.0, 0.25), FlatTorus((1.0, 1.0))
    assert (type(profile.ambient_dim), type(profile.codim)) == (int, int)
    expected = distance_profile_coefficients(SingularProfile(2, 2, 0.25), torus, 8)
    assert distance_profile_coefficients(profile, torus, 8).coeffs.tolist() == expected.coeffs.tolist()


def test_flat_torus_validation():
    with pytest.raises(ValueError):
        FlatTorus(())
    with pytest.raises(ValueError):
        FlatTorus((1.0, -2.0))
    for side in (math.nan, math.inf):
        with pytest.raises(ValueError, match="side lengths must be finite"):
            FlatTorus((1.0, side))
    # L^2 or (2 pi (b + 1) / L)^2 overflows for the largest box b = 2^20
    for side in (1e-320, 1e-160, 1e160, 1e200, 4.8e-148, 1.35e154):
        with pytest.raises(ValueError, match=re.escape(f"side length {side} is outside the range")):
            FlatTorus((1.0, side))
    for side in (4.95e-148, 1.34e154):
        assert FlatTorus((side,)).side_lengths == (side,)
    for sides in ((1e100,) * 4, (1e-100,) * 4):
        with pytest.raises(ValueError, match="torus volume must be positive and finite"):
            FlatTorus(sides)


# ---------------------------------------------------------------------------
# Mode table, FFT coefficients, grid budget and explicit invariants
# ---------------------------------------------------------------------------


def _reference_mode_table(side_lengths, count):
    """Independent enumeration: every frequency of a doubling box, one
    np.ndindex step at a time."""
    dim = len(side_lengths)
    reps_needed = (count + 1) // 2 + 1
    bound = 1
    while True:
        reps = []
        for flat in np.ndindex(*(2 * bound + 1,) * dim):
            nu = tuple(int(v) - bound for v in flat)
            if all(v == 0 for v in nu):
                continue
            first = next(v for v in nu if v != 0)
            if first < 0:
                continue
            lam = sum((2.0 * math.pi * v / length) ** 2 for v, length in zip(nu, side_lengths))
            reps.append((lam, nu))
        reps.sort()
        safe = (2.0 * math.pi * (bound + 1) / max(side_lengths)) ** 2
        usable = [r for r in reps if r[0] < safe]
        if len(usable) >= reps_needed:
            reps = usable
            break
        bound *= 2
    modes = [TorusMode(0, 0.0, (0,) * dim, "const")]
    for lam, nu in reps:
        for trig in ("cos", "sin"):
            if len(modes) > count:
                return tuple(modes)
            modes.append(TorusMode(len(modes), lam, nu, trig))
    return tuple(modes)


@pytest.mark.parametrize(
    "sides, counts",
    [
        ((1.0,), (0, 1, 2, 5, 64, 513, 2048)),
        ((2 * math.pi,), (7, 100)),
        ((1.0, 2.0), (0, 1, 3, 40, 129, 300)),
        ((0.7, 1.3), (2, 17, 200)),
        ((1.0, 1.0, 1.0), (1, 33, 130)),
        ((0.7, 1.3, 1.0), (9, 64)),
    ],
)
def test_mode_table_matches_reference_enumeration(sides, counts):
    for count in counts:
        table = FlatTorus(sides).modes(count)
        assert table == _reference_mode_table(sides, count), (sides, count)
        assert all(type(m.eigenvalue) is float for m in table)
        assert all(type(v) is int for m in table for v in m.frequency)
        eigs = FlatTorus(sides).eigenvalues(count)
        assert eigs.tolist() == [m.eigenvalue for m in table]


def test_mode_table_cache_is_logarithmic(monkeypatch):
    monkeypatch.setattr(spectral, "_tables", {})
    sides = (0.9, 1.1)
    top = 300
    built = _count_builds(monkeypatch)
    for count in range(1, top + 1):
        FlatTorus(sides).modes(count)
    assert len(built) <= math.ceil(math.log2(top)) + 1


def test_mode_table_cache_holds_a_bounded_number_of_tori(monkeypatch):
    monkeypatch.setattr(spectral, "_tables", {})
    for k in range(70):
        spectral._table_for((1.0 + k / 128,), 1)
        assert len(spectral._tables) <= spectral._MAX_CACHED_TORI
    assert (1.0 + 69 / 128,) in spectral._tables
    # a larger table for a torus already held replaces its entry and empties nothing
    held = len(spectral._tables)
    spectral._table_for((1.0 + 69 / 128,), 100)
    assert len(spectral._tables) == held


@pytest.mark.parametrize("sides", [(1.0,), (0.7, 1.3), (1.0, 1.0, 1.0)])
def test_smaller_request_after_a_larger_one_builds_nothing(monkeypatch, sides):
    monkeypatch.setattr(spectral, "_tables", {})
    torus = FlatTorus(sides)
    own = spectral._build_table(sides, 16)
    torus.eigenvalues(1000)
    built = _count_builds(monkeypatch)
    assert torus.eigenvalues(10).tobytes() == own.eigenvalues[:11].tobytes()
    assert [m.frequency for m in torus.modes(16)] == [tuple(nu) for nu in own.frequencies.tolist()]
    assert built == []


@pytest.mark.parametrize("sides", [(1.0,), (0.7, 1.3), (1.0, 1.0, 1.0)])
def test_hand_built_function_reads_the_same_bits_from_any_cached_table(monkeypatch, sides):
    monkeypatch.setattr(spectral, "_tables", {})
    torus, long = FlatTorus(sides), SpectralFunction(np.ones(5000))
    cold = solve_weight(long, 100, torus).lam.tobytes()
    torus.eigenvalues(4096)
    assert solve_weight(long, 100, torus).lam.tobytes() == cold


def test_mode_count_must_be_nonnegative():
    with pytest.raises(ValueError, match="nonnegative"):
        CIRCLE.modes(-3)
    with pytest.raises(ValueError, match="nonnegative"):
        solve_weight(SpectralFunction(coeffs=[0.0, 1.0]), -1, CIRCLE)


def _reference_profile_values(profile, torus, points):
    """The profile on an (M, d) point array: each cut coordinate folded to
    its distance from 0 on the circle, squares summed, then the power."""
    sq = np.zeros(points.shape[0])
    for axis in range(profile.codim):
        length = torus.side_lengths[axis]
        folded = np.minimum(points[:, axis], length - points[:, axis])
        sq = sq + folded**2
    return sq ** (-profile.exponent / 2.0)


@pytest.mark.parametrize(
    "sides, sizes",
    [
        ((1.0,), (1, 2, 7, 64, 8191, 8192)),
        ((0.7,), (3, 1000, 8192)),
        ((1.0, 1.0), (1, 3, 64, 255, 2048)),
        ((0.7, 1.3), (2, 17, 512)),
        ((1.0, 1.0, 1.0), (1, 5, 64)),
        ((0.7, 1.3, 1.0), (4, 33, 161)),
    ],
)
def test_profile_values_match_point_reference(sides, sizes):
    # the tensor-grid sampler and the fold over the point array agree bit for bit
    torus = FlatTorus(sides)
    for points_per_axis in sizes:
        grid = torus.midpoint_grid(points_per_axis)
        for codim in range(1, len(sides) + 1):
            profile = SingularProfile(ambient_dim=len(sides), codim=codim, exponent=0.3)
            values = spectral._profile_values(profile, torus, points_per_axis)
            expected = _reference_profile_values(profile, torus, grid)
            assert np.array_equal(values, expected), (sides, points_per_axis, codim)


def test_profile_sampling_builds_no_point_cloud(monkeypatch):
    def refuse(self, points_per_axis):
        raise AssertionError("midpoint_grid called")

    monkeypatch.setattr(FlatTorus, "midpoint_grid", refuse)
    torus = FlatTorus((1.0, 1.0, 1.0))
    for codim in (1, 2, 3):
        profile = SingularProfile(ambient_dim=3, codim=codim, exponent=0.3)
        distance_profile_coefficients(profile, torus, 20, points_per_axis=16)


def _quadrature_coefficients(profile, torus, n, points_per_axis):
    """The dense-quadrature oracle: one sampled mode per coefficient."""
    grid = torus.midpoint_grid(points_per_axis)
    cell = torus.volume / grid.shape[0]
    values = _reference_profile_values(profile, torus, grid)
    return [float(np.dot(torus.sample_mode(m, grid), values)) * cell for m in torus.modes(n)]


@pytest.mark.parametrize(
    "sides, codim, n, points_per_axis",
    [
        ((0.7,), 1, 63, 64),  # reaches the Nyquist frequency
        ((0.7, 1.3), 2, 255, 16),  # frequencies beyond N/2 alias
        ((0.7, 1.3), 1, 100, 32),
        ((0.7, 1.3, 1.0), 3, 200, 8),
        ((0.7, 1.3, 1.0), 2, 60, 12),
    ],
)
def test_fft_coefficients_match_dense_quadrature(sides, codim, n, points_per_axis):
    torus = FlatTorus(sides)
    profile = SingularProfile(ambient_dim=len(sides), codim=codim, exponent=0.3)
    f = distance_profile_coefficients(profile, torus, n, points_per_axis=points_per_axis)
    expected = _quadrature_coefficients(profile, torus, n, points_per_axis)
    assert len(f.coeffs) == n + 1
    for j, c in enumerate(expected):
        assert abs(f.coefficient(j) - c) <= 1e-12, (j, f.coefficient(j), c)


CUT_AXES = settings(max_examples=120, deadline=None, derandomize=True, database=None)


@st.composite
def _subtorus_requests(draw):
    """(sides, codim, exponent, n, N): d <= 4, k < d, a power-of-two N with
    N^d <= 4096, n < N^d, each side 1.0 or not.  Every mode table these
    sides need fits the frequency-box budget."""
    dim = draw(st.integers(2, 4))
    codim = draw(st.integers(1, dim - 1))
    sides = tuple(draw(st.sampled_from((1.0, 0.7, 1.3))) for _ in range(dim))
    exponent = draw(st.floats(min_value=0.05, max_value=0.95)) * codim / 2
    points_per_axis = 2 ** draw(st.integers(0, 12 // dim))
    n = draw(st.integers(0, points_per_axis**dim - 1))
    return sides, codim, exponent, n, points_per_axis


@CUT_AXES
@given(_subtorus_requests())
# pocketfft writes -0j at cut index 0, free index 2, 8, 32 and 128 of the
# full transform; these reach the modes of those frequencies
@example(((1.0, 1.0), 1, 0.3, 51430, 512))  # mode 51430 is nu = (0, 128)
@example(((1.0, 2.5), 1, 0.45, 20590, 512))  # mode 20590 is nu = (0, 128)
@example(((1.0, 1.0, 1.0), 1, 0.3, 2104, 64))  # mode 2104 is nu = (0, 0, 8)
@example(((1.0, 1.0, 1.0), 2, 0.7, 2104, 64))
@example(((1.0,) * 4, 3, 1.2, 1000, 16))
def test_cut_axes_transform_matches_full_fft(case):
    sides, codim, exponent, n, points_per_axis = case
    torus = FlatTorus(sides)
    profile = SingularProfile(ambient_dim=len(sides), codim=codim, exponent=exponent)
    f = distance_profile_coefficients(profile, torus, n, points_per_axis=points_per_axis)
    expected = full_fft_profile_coefficients(profile, torus, n, points_per_axis)
    assert np.array_equal(f.coeffs, expected.coeffs)
    assert f.tail_sq.hex() == expected.tail_sq.hex()
    if set(sides) == {1.0}:
        # an exact-zero coefficient deep in the spectrum may change sign,
        # but none that a report prints
        assert np.array_equal(np.signbit(f.coeffs[:8]), np.signbit(expected.coeffs[:8]))


def test_subtorus_profile_transforms_only_its_cut_axes(monkeypatch):
    shapes = []
    fftn = np.fft.fftn

    def record(a, *args, **kwargs):
        shapes.append(np.shape(a))
        return fftn(a, *args, **kwargs)

    def refuse(*args, **kwargs):
        raise AssertionError("full-grid rfftn")

    monkeypatch.setattr(np.fft, "fftn", record)
    monkeypatch.setattr(np.fft, "rfftn", refuse)
    torus = FlatTorus((1.0, 1.0, 1.0))
    for codim in (1, 2):
        profile = SingularProfile(ambient_dim=3, codim=codim, exponent=0.3)
        distance_profile_coefficients(profile, torus, 20, points_per_axis=16)
    assert shapes == [(16,), (16, 16)]


@st.composite
def _point_requests(draw):
    """(sides, exponent, n, N): a point profile on d <= 4 axes, N a power of
    two or not, N^d <= 10^4 (4096 for d = 4, where the mode table of a
    larger n is over the frequency-box budget), n < N^d, each side 1.0 or
    not."""
    dim = draw(st.integers(1, 4))
    sides = tuple(draw(st.sampled_from((1.0, 0.7, 1.3))) for _ in range(dim))
    exponent = draw(st.floats(min_value=0.05, max_value=0.95)) * dim / 2
    limit = 4096 if dim == 4 else 10**4
    sizes = [size for size in (1, 2, 3, 4, 6, 8, 15, 16, 21, 64, 100, 128, 1000, 8192) if size**dim <= limit]
    points_per_axis = draw(st.sampled_from(sizes))
    n = draw(st.integers(0, points_per_axis**dim - 1))
    return sides, exponent, n, points_per_axis


@CUT_AXES
@given(_point_requests())
@example(((1.0, 1.0), 0.5, 512, 512))  # the default d = 2 grid
@example(((0.7, 1.3), 0.9, 4095, 100))
@example(((1.0, 1.0, 1.0), 1.2, 1000, 64))  # the default d = 3 grid
@example(((0.7, 1.3, 1.0), 0.3, 3374, 15))
@example(((1.0,), 0.45, 8191, 8192))  # the default d = 1 grid, up to Nyquist
def test_point_profile_transform_matches_full_fft(case):
    # rfftn's passes over only the lines the modes read give rfftn's bits
    sides, exponent, n, points_per_axis = case
    torus = FlatTorus(sides)
    profile = SingularProfile(ambient_dim=len(sides), codim=len(sides), exponent=exponent)
    f = distance_profile_coefficients(profile, torus, n, points_per_axis=points_per_axis)
    expected = full_fft_profile_coefficients(profile, torus, n, points_per_axis)
    assert np.array_equal(f.coeffs, expected.coeffs)
    assert np.array_equal(np.signbit(f.coeffs), np.signbit(expected.coeffs))
    assert f.tail_sq.hex() == expected.tail_sq.hex()


@st.composite
def _ragged_point_requests(draw):
    """A point request and a block size for its last-axis rfft: a whole
    number of lines that does not divide the N^(d-1) lines (when there are
    at least 3), plus a part of a line that the block must round down."""
    sides, exponent, n, points_per_axis = draw(_point_requests())
    lines = points_per_axis ** (len(sides) - 1)
    per_block = draw(st.integers(2, lines - 1).filter(lambda k: lines % k)) if lines > 2 else 1
    block = per_block * points_per_axis + draw(st.integers(0, points_per_axis - 1))
    return (sides, exponent, n, points_per_axis), block


@CUT_AXES
@given(_ragged_point_requests())
@example((((1.0, 1.0), 0.3, 0, 16), 100))  # no mode reads a column
@example((((1.0, 1.0), 0.5, 512, 512), 7 * 512))  # the default d = 2 grid in blocks of 7, 7, ..., 1 lines
@example((((1.0, 1.0, 1.0), 1.2, 1000, 64), 3 * 64 + 5))  # the default d = 3 grid in blocks of 3, ..., 1
@example((((0.7, 1.3), 0.9, 4095, 100), 3 * 100 + 99))
def test_point_profile_transform_matches_full_fft_in_ragged_blocks(case):
    (sides, exponent, n, points_per_axis), block = case
    torus = FlatTorus(sides)
    profile = SingularProfile(ambient_dim=len(sides), codim=len(sides), exponent=exponent)
    with mock.patch.object(spectral, "_RFFT_BLOCK_POINTS", block):
        f = distance_profile_coefficients(profile, torus, n, points_per_axis=points_per_axis)
    expected = full_fft_profile_coefficients(profile, torus, n, points_per_axis)
    assert np.array_equal(f.coeffs, expected.coeffs)
    assert np.array_equal(np.signbit(f.coeffs), np.signbit(expected.coeffs))
    assert f.tail_sq.hex() == expected.tail_sq.hex()


def test_point_profile_transforms_only_the_columns_its_modes_read(monkeypatch):
    calls, blocks, grids = [], [], []
    fft, rfft, profile_values = np.fft.fft, np.fft.rfft, spectral._profile_values

    def record(a, *args, axis=-1, **kwargs):
        calls.append((np.shape(a), axis))
        return fft(a, *args, axis=axis, **kwargs)

    def record_block(a, *args, **kwargs):
        blocks.append(a)
        return rfft(a, *args, **kwargs)

    def record_grid(*args):
        grids.append(profile_values(*args))
        return grids[-1]

    def refuse(*args, **kwargs):
        raise AssertionError("full-grid transform")

    monkeypatch.setattr(np.fft, "fft", record)
    monkeypatch.setattr(np.fft, "rfft", record_block)
    monkeypatch.setattr(np.fft, "rfftn", refuse)
    monkeypatch.setattr(np.fft, "fftn", refuse)
    monkeypatch.setattr(spectral, "_profile_values", record_grid)
    for dim, n, points_per_axis in ((2, 512, 512), (3, 1000, 64)):  # the default grids
        for log in (calls, blocks, grids):
            log.clear()
        profile = SingularProfile(ambient_dim=dim, codim=dim, exponent=0.5)
        distance_profile_coefficients(profile, FlatTorus((1.0,) * dim), n, points_per_axis=points_per_axis)
        # one fft per earlier axis, each of a few columns of the last axis
        assert [axis for _, axis in calls] == list(range(dim - 2, -1, -1))
        for shape, axis in calls:
            assert shape[axis] == points_per_axis
            assert shape[-1] < points_per_axis // 2 + 1, shape
        # the rffts read whole lines of the one sampled grid, at most one
        # block of them per call, and every line exactly once
        (grid,) = grids
        lines = grid.reshape(-1, points_per_axis)
        read = []
        for block in blocks:
            assert np.shares_memory(block, lines) and block.shape[1:] == (points_per_axis,)
            assert block.shape[0] <= spectral._RFFT_BLOCK_POINTS // points_per_axis
            start = (block.ctypes.data - lines.ctypes.data) // lines.strides[0]
            read.extend(range(start, start + block.shape[0]))
        assert len(blocks) > 1 and sorted(read) == list(range(points_per_axis ** (dim - 1)))


def _peak_bytes(profile, torus, n, points_per_axis):
    """tracemalloc's peak over one warm distance_profile_coefficients call."""
    distance_profile_coefficients(profile, torus, n, points_per_axis=points_per_axis)  # the mode table
    tracemalloc.start()
    try:
        distance_profile_coefficients(profile, torus, n, points_per_axis=points_per_axis)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_profile_coefficients_peak_memory():
    # in units of one N^d float64 array: the grid plus, for a point profile,
    # one block's half spectrum, the columns kept and the later passes'
    # lines (about 0.2 of the grid at 512^2, 0.7 at 64^3), not a half
    # spectrum of the whole grid
    torus = FlatTorus((1.0, 1.0))
    point = SingularProfile(ambient_dim=2, codim=2, exponent=0.5)
    subtorus = SingularProfile(ambient_dim=2, codim=1, exponent=0.3)
    assert _peak_bytes(point, torus, 512, 512) <= 1.3 * 512**2 * 8
    assert _peak_bytes(subtorus, torus, 512, 512) <= 1.25 * 512**2 * 8
    point = SingularProfile(ambient_dim=3, codim=3, exponent=1.2)
    assert _peak_bytes(point, FlatTorus((1.0, 1.0, 1.0)), 1000, 64) <= 1.8 * 64**3 * 8


def test_default_grid_follows_the_point_budget():
    assert spectral._default_points_per_axis(1) == 8192
    assert spectral._default_points_per_axis(2) == 512
    assert spectral._default_points_per_axis(3) == 64
    assert spectral._default_points_per_axis(4) == 16
    with pytest.raises(ValueError, match="no default grid"):
        spectral._default_points_per_axis(40)


def test_explicit_grid_over_budget_is_refused():
    torus = FlatTorus((1.0, 1.0, 1.0))
    profile = SingularProfile(ambient_dim=3, codim=3, exponent=0.5)
    with pytest.raises(ValueError, match="grid of 512\\^3 points"):
        distance_profile_coefficients(profile, torus, 8, points_per_axis=512)
    with pytest.raises(ValueError, match="grid of 256\\^3 points"):
        distance_profile_coefficients(profile, torus, 8, points_per_axis=256)


def test_mode_table_is_refused_before_sampling(monkeypatch):
    def refuse(*args):
        raise AssertionError("profile sampled")

    monkeypatch.setattr(spectral, "_profile_values", refuse)
    torus = FlatTorus((1.0,) * 18)
    profile = SingularProfile(ambient_dim=18, codim=18, exponent=0.25)
    with pytest.raises(ValueError, match="frequency box over the budget"):
        distance_profile_coefficients(profile, torus, 8)
    circle_profile = SingularProfile(ambient_dim=1, codim=1, exponent=0.25)
    with pytest.raises(ValueError, match="modes 64 is outside 0..63"):
        distance_profile_coefficients(circle_profile, CIRCLE, 64, points_per_axis=64)


def test_dimension_mismatch_is_refused_before_any_table(monkeypatch):
    monkeypatch.setattr(spectral, "_tables", {})
    with pytest.raises(ValueError, match="dimensions disagree"):
        distance_profile_coefficients(SingularProfile(1, 1, 0.25), FlatTorus((1.0, 1.0)), 8)
    assert spectral._tables == {}


def test_more_modes_than_grid_points_is_refused():
    profile = SingularProfile(ambient_dim=1, codim=1, exponent=0.25)
    with pytest.raises(ValueError, match="modes 64 is outside 0..63"):
        distance_profile_coefficients(profile, CIRCLE, 64, points_per_axis=64)


def test_non_finite_exponent_is_refused():
    for bad in (math.nan, math.inf):
        with pytest.raises(ValueError, match="finite"):
            SingularProfile(ambient_dim=1, codim=1, exponent=bad)


def test_residual_tail_is_a_running_sum():
    # equal-magnitude tiny and huge coefficients: the tail at n must equal
    # the tail at n + 1 plus c_{n+1}^2 exactly, so it never increases
    rng = random.Random(3)
    f = SpectralFunction(coeffs=[rng.choice((1e-9, 1.0, 3e7)) for _ in range(300)], tail_sq=0.5)
    residuals = [solve_weight(f, n, CIRCLE).residual_l2 for n in range(300)]
    assert all(b <= a for a, b in zip(residuals, residuals[1:]))
    assert residuals[-1] == math.sqrt(0.5)


def test_h2_sums_past_float_range_are_refused():
    """Every value solve_weight, spectral_h2_gap and h2_cauchy_gap return is
    finite, or the call raises ValueError.  At L = 1e-100 lambda^2 overflows
    and (c/lambda)^2 underflows, so the sums read inf * 0 = nan; at L = 1e100
    (c/lambda)^2 overflows; a hand-built c_1 = 1e200 on the unit circle
    overflows its square.  No RuntimeWarning escapes (warnings are errors here)."""
    profile = SingularProfile(ambient_dim=1, codim=1, exponent=0.25)
    cases = []
    for side, value in ((1e-100, "nan"), (1e100, "inf")):
        torus = FlatTorus((side,))
        cases.append((distance_profile_coefficients(profile, torus, 8), torus, 8, 4, value))
    with np.errstate(over="ignore"):  # its own tails_sq overflows too
        huge = SpectralFunction([0.0, 1e200])
    cases.append((huge, FlatTorus((1.0,)), 1, 0, "inf"))
    for f, torus, n, m, value in cases:
        with pytest.raises(ValueError, match=f"^solve_weight at n={n}: squared_h2_norm is {value}, outside float64"):
            solve_weight(f, n, torus)
        with pytest.raises(ValueError, match=f"^spectral_h2_gap for n={n}, m={m}: gap is {value}, outside float64"):
            spectral_h2_gap(f, m, n, torus)
        with pytest.raises(ValueError, match=f"^h2_cauchy_gap for n={n}, m={m}: (bound|gap) is {value}, outside"):
            h2_cauchy_gap(f, n, m, torus)
    with pytest.raises(ValueError, match="^solve_weight at n=0: squared_residual is inf, outside float64"):
        solve_weight(huge, 0, FlatTorus((1.0,)))
