"""Acceptance gate: every criterion at its stated tolerance.

Each test prints one PASS line when its criterion holds; run with
``pytest tests/test_acceptance.py -v -s`` to see the lines.
"""
from __future__ import annotations

import math
import random
import time
from fractions import Fraction

import numpy as np

from parabolica import (
    BundleSpec,
    KahlerClass,
    Weight,
    einstein_class,
    endo_eigenvalues,
    fundamental_weight,
    hym_constant,
    line_bundle_weight,
    omega_trace,
    positive_root_count,
    splitting_report,
    weyl_dim,
)
from parabolica.spectral import (
    FlatTorus,
    SingularProfile,
    SpectralFunction,
    compatibility_constant,
    distance_profile_coefficients,
    h2_cauchy_gap,
    integrability_check,
    solve_weight,
    spectral_h2_gap,
)
from parabolica.cli import run_reference_suite

from conftest import cached_parabolic, cached_system, dense
from oracles import combine, curvature_coeffs, det

RANK6_TYPES = (
    [f"A{n}" for n in range(1, 7)]
    + [f"B{n}" for n in range(2, 7)]
    + [f"C{n}" for n in range(2, 7)]
    + [f"D{n}" for n in range(3, 7)]
    + ["E6", "F4", "G2"]
)

RANK8_TYPES = (
    [f"A{n}" for n in range(1, 9)]
    + [f"B{n}" for n in range(2, 9)]
    + [f"C{n}" for n in range(2, 9)]
    + [f"D{n}" for n in range(3, 9)]
    + ["E6", "E7", "E8", "F4", "G2"]
)


def proper_subsets(rank):
    for mask in range(2**rank - 1):
        yield tuple(i for i in range(rank) if mask >> i & 1)


def test_acceptance_1_reference_fixture_battery():
    """Exact rational values of every pinned example, under one second."""
    start = time.perf_counter()

    gr2c4 = cached_parabolic("A3", (0, 2))
    q5 = cached_parabolic("B3", (1, 2))
    spin8 = cached_parabolic("D4", (0, 1))

    universal = splitting_report(BundleSpec(gr2c4, Weight.of(1, 0, 0)))
    assert universal.chern.cramer_a == (Fraction(1), Fraction(0))
    assert universal.chern.lambda_E == Weight.of(0, -1, 0)
    assert universal.criterion_values == {1: Fraction(-1, 2)}
    assert universal.splits is False

    spinor = splitting_report(BundleSpec(q5, Weight.of(0, 0, 1)))
    assert spinor.chern.cramer_a == (Fraction(2), Fraction(4))
    assert spinor.chern.lambda_E == Weight.of(-2, 0, 0)
    assert spinor.criterion_values == {0: Fraction(-1, 2)}
    assert spinor.splits is False

    sym2 = splitting_report(BundleSpec(q5, Weight.of(0, 0, 2)))
    assert sym2.chern.rank == 10
    assert sym2.chern.cramer_a == (Fraction(10), Fraction(20))
    assert sym2.criterion_values == {0: Fraction(-1)}
    assert sym2.splits is True
    assert sym2.lambda_L0 == Weight.of(-1, 0, 0)

    delta = gr2c4.delta
    assert gr2c4.rs.weight_in_simple_roots(delta) == (2, 4, 2)
    assert delta == Weight.of(0, 4, 0)
    tangent_rank = len(gr2c4.complement_roots)
    assert Fraction(delta[1], tangent_rank) == 1

    assert det(spin8.levi.cartan) == 3
    failing = splitting_report(BundleSpec(spin8, Weight.of(1, 0, 0, 0)))
    assert failing.criterion_values == {2: Fraction(-1, 3), 3: Fraction(-1, 3)}
    assert failing.splits is False
    passing = splitting_report(BundleSpec(spin8, Weight.of(1, 1, 0, 0)))
    assert passing.criterion_values == {2: Fraction(-1), 3: Fraction(-1)}
    assert passing.splits is True

    run_reference_suite()

    elapsed = time.perf_counter() - start
    assert elapsed < 1.0, f"fixture battery took {elapsed:.3f}s"
    print(f"ACCEPTANCE 1 reference-fixture battery: PASS ({elapsed:.3f}s)")


def test_acceptance_2_structural_property_suites():
    """Exact structural invariants plus the randomized spec matrix."""
    for name in RANK8_TYPES:
        rs = cached_system(name)
        assert len(rs.positive_roots) == positive_root_count(rs.lie_type)
        total = combine(*((1, rs.root_as_weight(root)) for root in rs.positive_roots))
        assert total == Weight.of(*[2] * rs.rank)  # 2 rho: rho has every coordinate 1

    for name in RANK6_TYPES:
        rs = cached_system(name)
        for nodes in proper_subsets(rs.rank):
            p = cached_parabolic(name, nodes)
            for i in p.levi_nodes:
                assert p.delta[i] == 0
            for j in p.picard_nodes:
                assert p.delta[j] > 0

    rng = random.Random(60309)
    pool = ["A2", "A3", "A4", "A5", "B2", "B3", "B4", "C3", "C4", "D4", "D5", "E6", "F4", "G2"]
    checked = 0
    while checked < 500:
        name = rng.choice(pool)
        rs = cached_system(name)
        nodes = tuple(i for i in range(rs.rank) if rng.random() < 0.5)
        if len(nodes) == rs.rank:
            nodes = nodes[: rs.rank - 1]
        p = cached_parabolic(name, nodes)
        coords = [
            rng.randint(0, 4) if i in nodes else rng.randint(-4, 4) for i in range(rs.rank)
        ]
        spec = BundleSpec(p, Weight.of(*coords))
        report = splitting_report(spec)

        # Cramer per-entry determinants by cofactor expansion, and the
        # coefficients substituted into C_I^T x = rank * lambda_s
        if p.levi_nodes:
            base = [list(row) for row in p.levi.cartan]
            denom = det(base)
            lam_s = spec.highest_weight.restricted(p.levi_nodes)
            b = [report.chern.rank * lam_s[i] for i in p.levi_nodes]
            x = report.chern.cramer_a
            assert [sum(row[col] * xk for row, xk in zip(base, x)) for col in range(len(b))] == b
            for pos in range(len(p.levi_nodes)):
                replaced = [row[:] for row in base]
                replaced[pos] = [lam_s[i] for i in p.levi_nodes]
                assert Fraction(report.chern.rank * det(replaced), denom) == x[pos]

        # (B) <=> (C): integrality of lambda(E)/rank against the criterion sums
        per_generator = combine((Fraction(1, report.chern.rank), report.chern.lambda_E))
        assert report.splits == per_generator.is_integral
        assert report.splits == all(
            v.denominator == 1 for v in report.criterion_values.values()
        )

        # twist equivariance under an integral central shift
        mu = Weight.of(
            *(0 if i in p.levi_nodes else rng.randint(-3, 3) for i in range(rs.rank))
        )
        twisted = splitting_report(BundleSpec(p, combine((1, spec.highest_weight), (1, mu))))
        assert twisted.chern.lambda_E == combine((1, report.chern.lambda_E), (-report.chern.rank, mu))
        assert twisted.splits == report.splits
        checked += 1

    print(f"ACCEPTANCE 2 structural property suites: PASS ({checked} random specs)")


def test_acceptance_3_weyl_dimension_oracles():
    gr2c4 = cached_parabolic("A3", (0, 2))
    q5 = cached_parabolic("B3", (1, 2))
    assert weyl_dim(gr2c4, Weight.of(1, 0, 0)) == 2
    assert weyl_dim(q5, Weight.of(0, 0, 1)) == 4
    assert weyl_dim(q5, Weight.of(0, 0, 2)) == 10

    sl2 = cached_parabolic("A2", (0,))
    for m in range(21):
        assert weyl_dim(sl2, Weight.of(m, 0)) == m + 1

    a2 = cached_parabolic("A3", (0, 1))
    assert weyl_dim(a2, Weight.of(1, 1, 0)) == 8
    print("ACCEPTANCE 3 Weyl dimension oracles: PASS")


def test_acceptance_4_curvature_identities():
    cases = [("A3", (0, 2)), ("B3", (1, 2)), ("D4", (0, 1)), ("G2", (0,)), ("A1", ())]
    for name, nodes in cases:
        p = cached_parabolic(name, nodes)
        picard = p.picard_nodes
        grids = [
            KahlerClass(tuple(Fraction(c) for c in combo))
            for combo in _kahler_grid(len(picard))
        ]
        for omega in grids:
            for alpha in picard:
                spectrum = endo_eigenvalues(fundamental_weight(p.rs.rank, alpha), omega, p)
                assert spectrum.trace() == omega_trace(alpha, omega, p)
        einstein = einstein_class(p)
        self_eigs = endo_eigenvalues(line_bundle_weight(einstein.coeffs, p), einstein, p)
        assert all(q == 1 for q in self_eigs.eigenvalues.values())

    p1 = cached_parabolic("A1", ())
    unit = KahlerClass((Fraction(1),))
    assert hym_constant(line_bundle_weight([1], p1), unit, p1) == 1
    print("ACCEPTANCE 4 curvature identities: PASS")


def _kahler_grid(size):
    if size == 0:
        return [()]
    values = (1, 2, Fraction(1, 2))
    grid = [()]
    for _ in range(size):
        grid = [combo + (v,) for combo in grid for v in values]
    return grid


def test_acceptance_5_spectral_suite():
    start = time.perf_counter()
    circle = FlatTorus((2 * math.pi,))

    # exact-mode matching at relative 1e-12
    rng = random.Random(515)
    f_rand = SpectralFunction(coeffs=[rng.uniform(-2, 2) for _ in range(0, 200)])
    sol = solve_weight(f_rand, 150, circle)
    curv = curvature_coeffs(sol)
    assert curv[0] == f_rand.coefficient(0)
    for j in range(1, 151):
        expected = f_rand.coefficient(j)
        assert abs(curv[j] - expected) <= 1e-12 * max(1.0, abs(expected))

    # residual tail agreement at 1e-10 for c_j = 1/j, n = 10..1000
    n_max = 1500
    f_harmonic = SpectralFunction(coeffs=dense({j: 1.0 / j for j in range(1, n_max + 1)}))
    for n in (10, 50, 100, 300, 1000):
        sol = solve_weight(f_harmonic, n, circle)
        tail = math.sqrt(sum((1.0 / j) ** 2 for j in range(n + 1, n_max + 1)))
        assert abs(sol.residual_l2 - tail) <= 1e-10

    # Bochner bound dominates the exact spectral gap for every tested case
    for m, n in ((0, 10), (10, 50), (50, 100), (10, 100), (100, 1000)):
        bound, gap = h2_cauchy_gap(f_harmonic, n, m, circle)
        assert gap == spectral_h2_gap(f_harmonic, m, n, circle)
        assert bound >= gap

    # integrability dichotomy over the (k, s) grid, including the boundary
    for k in range(1, 13):
        for tenths in range(1, 5 * k + 2):
            s = tenths / 10.0
            res = integrability_check(SingularProfile(ambient_dim=12, codim=k, exponent=s))
            analytic = s < k / 2
            assert res.finite == analytic, (k, s)
            assert (res.certificate == "convergent") == analytic, (k, s)
    q5_point = integrability_check(SingularProfile(ambient_dim=10, codim=10, exponent=5.0))
    assert not q5_point.finite and q5_point.certificate == "divergent"
    q5_below = integrability_check(SingularProfile(ambient_dim=10, codim=10, exponent=4.9))
    assert q5_below.finite and q5_below.certificate == "convergent"

    # compatibility constant, from c_0 as the CLI reads it, against a
    # 10^6-point midpoint oracle
    torus = FlatTorus((1.0, 1.0))
    profile = SingularProfile(ambient_dim=2, codim=2, exponent=0.5)
    f = distance_profile_coefficients(profile, torus, 0, points_per_axis=1024)
    mean = f.coefficient(0) / math.sqrt(torus.volume)
    grid_points = 1024
    xs = (np.arange(grid_points) + 0.5) / grid_points
    gx, gy = np.meshgrid(xs, xs, indexing="ij")
    dist_sq = np.minimum(gx, 1.0 - gx) ** 2 + np.minimum(gy, 1.0 - gy) ** 2
    oracle_mean = float(np.mean(dist_sq**-0.25))
    target = 2.0 * math.pi * 1.0
    c0 = compatibility_constant(mean, 1.0)
    c0_oracle = target - oracle_mean
    assert abs(c0 - c0_oracle) <= 1e-6

    elapsed = time.perf_counter() - start
    assert elapsed < 30.0, f"spectral suite took {elapsed:.1f}s"
    print(f"ACCEPTANCE 5 spectral suite: PASS ({elapsed:.2f}s)")
