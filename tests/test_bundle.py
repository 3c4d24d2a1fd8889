from __future__ import annotations

import random
import subprocess
import sys
from fractions import Fraction

import pytest

from parabolica import (
    BundleSpec,
    InvariantError,
    NotDominantError,
    RootSystem,
    Weight,
    chern_weight,
    cramer_coefficients,
    criterion_ratios,
    decompose_weight,
    is_dominant_for_levi,
    line_bundle_weight,
    splitting_report,
    weyl_dim,
)
from parabolica import bundle, parabolic

from conftest import cached_parabolic, cached_system, child_env
from oracles import combine, det


def test_weyl_dim_universal(gr2c4):
    assert weyl_dim(gr2c4, Weight.of(1, 0, 0)) == 2


def test_weyl_dim_spinor(q5):
    assert weyl_dim(q5, Weight.of(0, 0, 1)) == 4
    assert weyl_dim(q5, Weight.of(0, 0, 2)) == 10


def test_weyl_dim_trivial(q5, gr2c4, p1):
    for p in (q5, gr2c4, p1):
        assert weyl_dim(p, Weight.of(*[0] * p.rs.rank)) == 1


def test_weyl_dim_sl2_series():
    p = cached_parabolic("A2", (0,))
    for m in range(21):
        assert weyl_dim(p, Weight.of(m, 0)) == m + 1


def test_weyl_dim_a2_adjoint():
    p = cached_parabolic("A3", (0, 1))
    assert weyl_dim(p, Weight.of(1, 1, 0)) == 8


def test_weyl_dim_rejects_non_dominant(gr2c4):
    with pytest.raises(NotDominantError):
        weyl_dim(gr2c4, Weight.of(-1, 0, 0))
    with pytest.raises(ValueError):
        weyl_dim(gr2c4, Weight.of(0, 1, 0))


def test_weyl_dim_rejects_non_integral(gr2c4):
    with pytest.raises(ValueError, match="^integral lambda_s required$"):
        weyl_dim(gr2c4, Weight.of("1/2", 0, 0))


def test_weyl_dim_rejects_wrong_rank(q5):
    """The rank is checked before any Levi coordinate is read."""
    with pytest.raises(ValueError, match="dimension mismatch"):
        weyl_dim(q5, Weight.of(0, 1))


@pytest.mark.parametrize(
    "call",
    [
        lambda p, w: decompose_weight(w, p),
        lambda p, w: criterion_ratios(p, w),
        lambda p, w: is_dominant_for_levi(w, p),
    ],
    ids=["decompose_weight", "criterion_ratios", "is_dominant_for_levi"],
)
def test_levi_coords_reject_wrong_rank(q5, call):
    """Every reader of Levi coordinates checks the rank first."""
    with pytest.raises(ValueError, match="dimension mismatch"):
        call(q5, Weight.of(0, 1))


def test_cramer_universal(gr2c4):
    spec = BundleSpec(gr2c4, Weight.of(1, 0, 0))
    assert cramer_coefficients(spec) == (1, 0)


def test_cramer_spinor(q5):
    assert cramer_coefficients(BundleSpec(q5, Weight.of(0, 0, 1))) == (2, 4)
    assert cramer_coefficients(BundleSpec(q5, Weight.of(0, 0, 2))) == (10, 20)


def test_criterion_ratios_match_manual_determinants(q5):
    # C_I = [[2,-2],[-1,2]], det 2; lambda_s = w3 pins rows (0,1)
    solution, denom = criterion_ratios(q5, Weight.of(0, 0, 1))
    assert (solution, denom) == ((1, 2), 2)
    ratios = tuple(Fraction(y, denom) for y in solution)
    det_row1 = det([[0, 1], [-1, 2]])
    det_row2 = det([[2, -2], [0, 1]])
    assert ratios == (Fraction(det_row1, 2), Fraction(det_row2, 2)) == (Fraction(1, 2), 1)


def test_chern_weight_universal(gr2c4):
    data = chern_weight(BundleSpec(gr2c4, Weight.of(1, 0, 0)))
    assert data.rank == 2
    assert data.lambda_E.coords == (0, -1, 0)


def test_chern_weight_spinor(q5):
    data = chern_weight(BundleSpec(q5, Weight.of(0, 0, 1)))
    assert data.rank == 4
    assert data.lambda_E.coords == (-2, 0, 0)


def test_canonical_weights(gr2c4, q5, p1):
    # the first-Chern weight of the tangent bundle is delta
    assert gr2c4.delta.coords == (0, 4, 0)
    assert p1.delta.coords == (2,)
    assert q5.delta.coords == (5, 0, 0)


def test_tangent_bundle_splits(gr2c4):
    # rank of the tangent bundle is dim X = |Phi_I^+|; degree/rank = 4/4
    delta = gr2c4.delta
    dim = len(gr2c4.complement_roots)
    assert dim == 4
    assert (delta[1] / dim).denominator == 1


def test_splitting_universal(gr2c4):
    report = splitting_report(BundleSpec(gr2c4, Weight.of(1, 0, 0)))
    assert report.criterion_values == {1: Fraction(-1, 2)}
    assert not report.splits
    assert report.lambda_L0 is None and report.lambda_E0_check is None


def test_splitting_spinor(q5):
    report = splitting_report(BundleSpec(q5, Weight.of(0, 0, 1)))
    assert report.criterion_values == {0: Fraction(-1, 2)}
    assert not report.splits


def test_splitting_spinor_square(q5):
    report = splitting_report(BundleSpec(q5, Weight.of(0, 0, 2)))
    assert report.criterion_values == {0: Fraction(-1)}
    assert report.splits
    assert report.lambda_L0.coords == (-1, 0, 0)
    assert not any(report.lambda_E0_check.coords)


def test_splitting_spin8_family(spin8):
    failing = splitting_report(BundleSpec(spin8, Weight.of(1, 0, 0, 0)))
    assert failing.criterion_values == {2: Fraction(-1, 3), 3: Fraction(-1, 3)}
    assert not failing.splits
    passing = splitting_report(BundleSpec(spin8, Weight.of(1, 1, 0, 0)))
    assert passing.criterion_values == {2: Fraction(-1), 3: Fraction(-1)}
    assert passing.splits
    assert passing.chern.rank == 8


def test_spin8_general_criterion(spin8):
    # criterion is -(m1 + 2 m2)/3 at both unmarked nodes
    for m1 in range(4):
        for m2 in range(4):
            report = splitting_report(BundleSpec(spin8, Weight.of(m1, m2, 0, 0)))
            expected = Fraction(-(m1 + 2 * m2), 3)
            assert report.criterion_values[2] == expected
            assert report.criterion_values[3] == expected
            assert report.splits == ((m1 + 2 * m2) % 3 == 0)


def test_line_bundles_split_trivially(p1, q5):
    borel = splitting_report(BundleSpec(p1, Weight.of(5)))
    assert borel.splits and borel.chern.rank == 1
    assert borel.lambda_L0.coords == (-5,)
    # lambda_s = 0 with nonempty I: every Cramer determinant vanishes
    line = splitting_report(BundleSpec(q5, Weight.of(-3, 0, 0)))
    assert line.criterion_values == {0: Fraction(0)}
    assert line.splits and line.chern.rank == 1
    assert line.lambda_L0.coords == (3, 0, 0)


def test_line_bundle_weight(gr2c4, q5):
    assert line_bundle_weight([1], gr2c4).coords == (0, 1, 0)
    assert not any(line_bundle_weight([0], gr2c4).coords)
    assert line_bundle_weight([-1], q5).coords == (-1, 0, 0)
    with pytest.raises(ValueError):
        line_bundle_weight([1, 2], q5)


def test_twist_equivariance(q5, gr2c4, spin8):
    cases = [
        (q5, Weight.of(0, 0, 1), Weight.of(2, 0, 0)),
        (gr2c4, Weight.of(1, 0, 0), Weight.of(0, -3, 0)),
        (spin8, Weight.of(1, 1, 0, 0), Weight.of(0, 0, 1, -2)),
    ]
    for p, weight, mu_c in cases:
        base = splitting_report(BundleSpec(p, weight))
        twisted = splitting_report(BundleSpec(p, combine((1, weight), (1, mu_c))))
        r = base.chern.rank
        assert twisted.chern.rank == r
        assert twisted.chern.lambda_E == combine((1, base.chern.lambda_E), (-r, mu_c))
        assert twisted.splits == base.splits
        assert twisted.criterion_values == base.criterion_values


def test_residue_identity_explicit(q5):
    spec = BundleSpec(q5, Weight.of(0, 0, 1))
    data = chern_weight(spec)
    residue = combine((data.rank, spec.highest_weight), (1, data.lambda_E))
    coords = q5.rs.weight_in_simple_roots(residue)
    assert coords == (0, 2, 4)  # a_alpha on I = {2, 3}, zero elsewhere


def test_verdict_matches_degree_integrality_randomized():
    rng = random.Random(1105)
    pool = ["A3", "A4", "B3", "B4", "C3", "D4", "F4", "G2"]
    for _ in range(60):
        rs = cached_system(rng.choice(pool))
        nodes = tuple(i for i in range(rs.rank) if rng.random() < 0.5)
        if len(nodes) == rs.rank:
            nodes = nodes[:-1]
        p = cached_parabolic(str(rs.lie_type), nodes)
        coords = [
            rng.randint(0, 3) if i in nodes else rng.randint(-3, 3) for i in range(rs.rank)
        ]
        report = splitting_report(BundleSpec(p, Weight.of(*coords)))
        per_generator = combine((Fraction(1, report.chern.rank), report.chern.lambda_E))
        assert report.splits == per_generator.is_integral


def test_bundle_spec_validation(gr2c4):
    with pytest.raises(NotDominantError):
        BundleSpec(gr2c4, Weight.of(-1, 0, 0))
    with pytest.raises(ValueError):
        BundleSpec(gr2c4, Weight.of("1/2", 0, 0))
    with pytest.raises(ValueError):
        BundleSpec(gr2c4, Weight.of(1, 0))


def test_splitting_report_derives_each_input_once(q5, monkeypatch):
    calls = {}
    for name in ("decompose_weight", "weyl_dim", "criterion_ratios"):
        original = getattr(bundle, name)

        def counted(*args, _name=name, _original=original):
            calls[_name] = calls.get(_name, 0) + 1
            return _original(*args)

        monkeypatch.setattr(bundle, name, counted)
    report = splitting_report(BundleSpec(q5, Weight.of(0, 0, 2)))
    assert calls == {"decompose_weight": 1, "weyl_dim": 1, "criterion_ratios": 1}
    assert report.split.lambda_s == Weight.of(0, 0, 2)
    assert not any(report.split.lambda_c.coords)


def test_one_levi_dominance_check_per_report(q5, monkeypatch):
    calls = []
    original = parabolic.is_dominant_for_levi

    def counted(*args):
        calls.append(args)
        return original(*args)

    for module in (parabolic, bundle):  # every module that may bind the check
        monkeypatch.setattr(module, "is_dominant_for_levi", counted, raising=False)
    splitting_report(BundleSpec(q5, Weight.of(0, 0, 2)))
    assert len(calls) == 1


def test_broken_residue_identity_raises_invariant_error(q5, monkeypatch):
    monkeypatch.setattr(RootSystem, "simple_root_numerators", lambda self, nums: (0,) * self.rank)
    message = r"residue identity failed: B3, Levi nodes \(1, 2\), highest weight \(0, 0, 1\)"
    with pytest.raises(InvariantError, match=message):
        splitting_report(BundleSpec(q5, Weight.of(0, 0, 1)))


def test_bundle_invariants_survive_optimized_mode():
    script = (
        "import sys\n"
        "import parabolica as pb\n"
        "if not sys.flags.optimize:\n"
        "    raise SystemExit(4)\n"
        "p = pb.build_parabolic(pb.build_root_system('B3'), [1, 2])\n"
        "pb.RootSystem.simple_root_numerators = lambda self, nums: (0,) * self.rank\n"
        "try:\n"
        "    pb.splitting_report(pb.BundleSpec(p, pb.Weight.of(0, 0, 1)))\n"
        "except pb.InvariantError as exc:\n"
        "    raise SystemExit(0 if 'residue identity' in str(exc) else 2)\n"
        "raise SystemExit(1)\n"
    )
    done = subprocess.run([sys.executable, "-O", "-c", script], env=child_env(), capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
