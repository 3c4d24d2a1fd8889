from __future__ import annotations

import itertools
import random
from fractions import Fraction

import pytest

from parabolica import (
    BundleSpec,
    KahlerClass,
    NotKahlerError,
    Weight,
    einstein_class,
    endo_eigenvalues,
    fundamental_weight,
    hym_constant,
    line_bundle_weight,
    omega_trace,
    spectrum_and_traces,
    splitting_report,
)

from conftest import cached_parabolic
from oracles import combine, coroot_coefficients


def unit_class(p):
    return KahlerClass((Fraction(1),) * len(p.picard_nodes))


def test_identity_endomorphism(gr2c4, q5):
    for p in (gr2c4, q5):
        omega = KahlerClass(tuple(Fraction(k + 1) for k in range(len(p.picard_nodes))))
        spectrum = endo_eigenvalues(line_bundle_weight(omega.coeffs, p), omega, p)
        assert all(q == 1 for q in spectrum.eigenvalues.values())


def test_gr2c4_generator_eigenvalues(gr2c4):
    spectrum = endo_eigenvalues(fundamental_weight(3, 1), einstein_class(gr2c4), gr2c4)
    assert len(spectrum.eigenvalues) == 4
    assert set(spectrum.eigenvalues.values()) == {Fraction(1, 4)}


def test_zero_endomorphism(q5):
    spectrum = endo_eigenvalues(Weight.of(0, 0, 0), unit_class(q5), q5)
    assert all(q == 0 for q in spectrum.eigenvalues.values())


def test_omega_trace_gr2c4(gr2c4):
    assert omega_trace(1, unit_class(gr2c4), gr2c4) == 4


def test_omega_trace_p1(p1):
    assert omega_trace(0, unit_class(p1), p1) == 1


def test_hym_p1_degree_one(p1):
    assert hym_constant(fundamental_weight(1, 0), unit_class(p1), p1) == 1


def test_hym_trivial(q5):
    assert hym_constant(Weight.of(0, 0, 0), unit_class(q5), q5) == 0


def test_hym_q5_line_from_split(q5):
    """The short root weights the coroot expansion, so the oracle must sum
    exact pairings; all five ratios equal -1 here and the constant is -5."""
    line = line_bundle_weight([-1], q5)
    value = hym_constant(line, unit_class(q5), q5)
    oracle = Fraction(0)
    w1 = fundamental_weight(3, 0)
    for root in q5.complement_roots:
        coroot = coroot_coefficients(q5.rs, root)
        num = sum(c * x for c, x in zip(coroot, line.coords))
        den = sum(c * x for c, x in zip(coroot, w1.coords))
        oracle += num / den
    assert value == oracle == -5


def test_einstein_classes(gr2c4, q5, p1):
    assert einstein_class(gr2c4).coeffs == (4,)
    assert einstein_class(p1).coeffs == (2,)
    assert einstein_class(q5).coeffs == (5,)


@pytest.mark.parametrize(
    "name, nodes",
    [("A3", (0, 2)), ("B3", (1, 2)), ("C3", (0,)), ("D4", (0, 1)), ("G2", (0,)), ("A2", ())],
)
def test_trace_consistency_grid(name, nodes):
    p = cached_parabolic(name, nodes)
    picard = p.picard_nodes
    for coeffs in itertools.product((1, 2, 3), repeat=len(picard)):
        omega = KahlerClass(tuple(Fraction(c) for c in coeffs))
        for alpha in picard:
            spectrum = endo_eigenvalues(fundamental_weight(p.rs.rank, alpha), omega, p)
            assert spectrum.trace() == omega_trace(alpha, omega, p)


def test_endo_linearity(q5):
    omega = KahlerClass((Fraction(3, 2),))
    psi_a = fundamental_weight(3, 0)
    psi_b = Weight.of(Fraction(5, 3), 0, 0)
    combined = endo_eigenvalues(combine((1, psi_a), (1, psi_b)), omega, q5)
    separate_a = endo_eigenvalues(psi_a, omega, q5)
    separate_b = endo_eigenvalues(psi_b, omega, q5)
    for root in q5.complement_roots:
        assert combined.eigenvalues[root] == (
            separate_a.eigenvalues[root] + separate_b.eigenvalues[root]
        )
    scaled = endo_eigenvalues(combine((Fraction(7, 2), psi_a)), omega, q5)
    for root in q5.complement_roots:
        assert scaled.eigenvalues[root] == Fraction(7, 2) * separate_a.eigenvalues[root]


def test_trace_additivity_two_generators(spin8):
    omega = KahlerClass((Fraction(1), Fraction(2)))
    combined = hym_constant(
        combine((1, fundamental_weight(4, 2)), (1, fundamental_weight(4, 3))), omega, spin8
    )
    assert combined == omega_trace(2, omega, spin8) + omega_trace(3, omega, spin8)


def test_hym_additivity(gr2c4):
    omega = KahlerClass((Fraction(2),))
    a = line_bundle_weight([2], gr2c4)
    b = line_bundle_weight([-5], gr2c4)
    total = hym_constant(combine((1, a), (1, b)), omega, gr2c4)
    assert total == hym_constant(a, omega, gr2c4) + hym_constant(b, omega, gr2c4)


@pytest.mark.parametrize("name, nodes", [("A3", (0, 2)), ("B4", (1, 2, 3)), ("D4", ())])
def test_hym_positivity(name, nodes):
    rng = random.Random(7040)
    p = cached_parabolic(name, nodes)
    k = len(p.picard_nodes)
    for _ in range(20):
        omega = KahlerClass(tuple(Fraction(rng.randint(1, 9), rng.randint(1, 4)) for _ in range(k)))
        degrees = [rng.randint(1, 6) for _ in range(k)]
        assert hym_constant(line_bundle_weight(degrees, p), omega, p) > 0


@pytest.mark.parametrize(
    "name, nodes",
    [("A3", (0, 2)), ("B3", (1, 2)), ("D4", (0, 1)), ("G2", (1,)), ("F4", (0, 3))],
)
def test_einstein_self_consistency(name, nodes):
    p = cached_parabolic(name, nodes)
    omega = einstein_class(p)
    spectrum = endo_eigenvalues(line_bundle_weight(omega.coeffs, p), omega, p)
    assert all(q == 1 for q in spectrum.eigenvalues.values())


def test_not_kahler_rejected():
    with pytest.raises(NotKahlerError):
        KahlerClass((Fraction(0),))
    with pytest.raises(NotKahlerError):
        KahlerClass((Fraction(1), Fraction(-2)))


def test_hym_rejects_levi_support(q5):
    with pytest.raises(ValueError):
        hym_constant(fundamental_weight(3, 2), unit_class(q5), q5)


def test_hym_rejects_wrong_rank(q5):
    """The rank is checked before any Levi coordinate is read."""
    with pytest.raises(ValueError, match="dimension mismatch"):
        hym_constant(Weight.of(1), einstein_class(q5), q5)


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda p: endo_eigenvalues(Weight.of(0, 0, 0), KahlerClass((1, 1)), p), r"expected 1 value\(s\) over"),
        (lambda p: endo_eigenvalues(Weight.of(1), unit_class(p), p), "dimension mismatch"),
        (lambda p: omega_trace(1, unit_class(p), p), "node 1 is not a Picard generator"),
    ],
    ids=["kahler-length", "psi-rank", "levi-node"],
)
def test_curvature_refusals(q5, call, message):
    """Q5 = B3/P1 has one Picard node, 0; nodes 1 and 2 are Levi nodes."""
    with pytest.raises(ValueError, match=message):
        call(q5)


def test_splitting_to_curvature_pipeline(q5):
    """L0 built from the splitting verdict feeds the curvature formulas."""
    report = splitting_report(BundleSpec(q5, Weight.of(0, 0, 2)))
    assert report.splits
    value = hym_constant(report.lambda_L0, unit_class(q5), q5)
    assert value == -5


SWEEP_TYPES = (
    [f"A{n}" for n in range(1, 9)]
    + [f"B{n}" for n in range(2, 9)]
    + [f"C{n}" for n in range(2, 9)]
    + [f"D{n}" for n in range(3, 9)]
    + ["E6", "E7", "E8", "F4", "G2"]
)


@pytest.mark.parametrize("name", SWEEP_TYPES)
def test_spectrum_and_traces_match_reference(name):
    """Every maximal parabolic and the Borel parabolic of each type, against
    the Einstein class and a class with distinct fractional coefficients:
    the one-pass traces equal omega_trace, and the spectrum endo_eigenvalues."""
    rank = int(name[1:])
    levis = [tuple(i for i in range(rank) if i != k) for k in range(rank)] + [()]
    for nodes in levis:
        p = cached_parabolic(name, nodes)
        fractional = KahlerClass(tuple(Fraction(k + 1, k + 2) for k in range(len(p.picard_nodes))))
        psi = fundamental_weight(p.rs.rank, p.picard_nodes[0])
        for kahler in (einstein_class(p), fractional):
            spectrum, traces = spectrum_and_traces(psi, kahler, p)
            assert list(traces) == list(p.picard_nodes)
            assert traces == {alpha: omega_trace(alpha, kahler, p) for alpha in p.picard_nodes}
            assert spectrum == endo_eigenvalues(psi, kahler, p)
