"""Curvature constants of invariant Kahler metrics on flag varieties.

Every closed invariant real (1,1)-class is a rational combination of the
Picard generator forms, so eigenvalues of omega^-1 o psi, omega-traces and
line-bundle mean-curvature constants are all finite sums of exact pairing
ratios over the complementary positive roots.  The 2*pi normalization is a
reporting convention and is never stored here.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from operator import mul

from .bundle import line_bundle_weight
from .parabolic import ParabolicData
from .rootsys import InvariantError, Root, Weight, fundamental_weight


class NotKahlerError(ValueError):
    """A Kahler class needs strictly positive generator coefficients."""


@dataclass(frozen=True)
class KahlerClass:
    """Coefficients over the Picard generators, ordered by node index."""

    coeffs: tuple[Fraction, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "coeffs", tuple(Fraction(c) for c in self.coeffs))
        if any(c <= 0 for c in self.coeffs):
            raise NotKahlerError("all generator coefficients must be positive")


@dataclass(frozen=True)
class EndomorphismSpectrum:
    """Eigenvalue of omega^-1 o psi per complementary positive root."""

    eigenvalues: dict[Root, Fraction]

    def trace(self) -> Fraction:
        """The sum of the eigenvalues: integer numerators over the lcm of
        their denominators, one Fraction."""
        values = self.eigenvalues.values()
        common = math.lcm(*(q.denominator for q in values))
        return Fraction(sum(q.numerator * (common // q.denominator) for q in values), common)


def _kahler_denominators(omega0: KahlerClass, p: ParabolicData) -> tuple[list[int], int]:
    """(denominators, d) with <omega0, beta^vee> = denominators[k] / d for
    the k-th root beta of Phi_I^+: integer dot products with the stored
    coroots, each checked positive."""
    coroots = p.rs.coroots
    w0 = line_bundle_weight(omega0.coeffs, p)
    w0_nums, w0_den = w0.cleared()
    denominators = []
    for root in p.complement_roots:
        denom = sum(map(mul, coroots[root], w0_nums))
        if denom <= 0:
            raise InvariantError(
                f"Kahler positivity must make every denominator positive: root {root}, class {w0}"
            )
        denominators.append(denom)
    return denominators, w0_den


def _spectrum(psi: Weight, denominators: list[int], w0_den: int, p: ParabolicData) -> EndomorphismSpectrum:
    if psi.rank != p.rs.rank:
        raise ValueError("dimension mismatch")
    coroots = p.rs.coroots
    psi_nums, psi_den = psi.cleared()
    eigenvalues = {
        root: Fraction(sum(map(mul, coroots[root], psi_nums)) * w0_den, denom * psi_den)
        for root, denom in zip(p.complement_roots, denominators)
    }
    return EndomorphismSpectrum(eigenvalues=eigenvalues)


def endo_eigenvalues(psi: Weight, omega0: KahlerClass, p: ParabolicData) -> EndomorphismSpectrum:
    """q_beta = <psi, beta^vee> / <omega0, beta^vee> over Phi_I^+.

    psi and omega0 are brought to integer numerators over one denominator
    each, so both pairings are integer dot products with the stored coroot
    and each root costs one Fraction.
    """
    return _spectrum(psi, *_kahler_denominators(omega0, p), p)


def _coroot_totals(omega0: KahlerClass, p: ParabolicData) -> tuple[list[int], int, list[int], int]:
    """(denominators, w0_den, totals, common): the denominators of
    ``_kahler_denominators`` and, for every node alpha,

        sum over Phi_I^+ of <omega_alpha, beta^vee> / <omega0, beta^vee>
            = totals[alpha] * w0_den / common,

    since <omega_alpha, beta^vee> is the alpha-th coefficient of the stored
    coroot.  The coroots of the roots sharing a denominator are summed column
    by column as integers and scaled to the lcm of the denominators: a
    Fraction sum per root and node took 4.1 ms instead of 0.56 ms on the E8
    Borel parabolic.  The grouping stays because a block has few distinct
    denominators: one pass scaling every root to the lcm does a big-integer
    product per root and node, and measured slower (D8 with Levi {3,6}: 407
    instead of 242 us; the A8 Borel: 294 instead of 184 us).
    """
    denominators, w0_den = _kahler_denominators(omega0, p)
    coroots = p.rs.coroots
    groups: dict[int, list[tuple[int, ...]]] = {}
    for root, denom in zip(p.complement_roots, denominators):
        groups.setdefault(denom, []).append(coroots[root])
    common = math.lcm(*groups)
    totals = [0] * p.rs.rank
    for denom, group in groups.items():
        scale = common // denom
        totals = [t + scale * s for t, s in zip(totals, map(sum, zip(*group)))]
    return denominators, w0_den, totals, common


def spectrum_and_traces(
    psi: Weight, omega0: KahlerClass, p: ParabolicData
) -> tuple[EndomorphismSpectrum, dict[int, Fraction]]:
    """endo_eigenvalues(psi, omega0, p) and the omega_trace of every Picard
    node, from one computation of the denominators <omega0, beta^vee>; each
    trace is one Fraction read off ``_coroot_totals``."""
    denominators, w0_den, totals, common = _coroot_totals(omega0, p)
    traces = {alpha: Fraction(w0_den * totals[alpha], common) for alpha in p.picard_nodes}
    return _spectrum(psi, denominators, w0_den, p), traces


def omega_trace(alpha: int, omega0: KahlerClass, p: ParabolicData) -> Fraction:
    """omega-trace of the Picard generator form attached to node alpha."""
    if alpha not in p.picard_nodes:
        raise ValueError(f"node {alpha} is not a Picard generator")
    return hym_constant(fundamental_weight(p.rs.rank, alpha), omega0, p)


def hym_constant(line_weight: Weight, omega0: KahlerClass, p: ParabolicData) -> Fraction:
    """Constant mean curvature (over 2*pi) of the invariant metric on a line bundle.

    This is the trace of endo_eigenvalues(lambda(L), omega0, p), the sum over
    Phi_I^+ of <lambda(L), beta^vee> / <omega0, beta^vee>, using the exact
    coroot pairing; naive coefficient counting would be wrong whenever short
    roots are present.  It is linear in lambda(L), so it is the sum of
    lambda(L)_alpha times the omega-trace of node alpha: one integer dot
    product with the totals of ``_coroot_totals`` and one Fraction.
    """
    for i in p.levi_nodes:
        if line_weight[i] != 0:
            raise ValueError("line bundle weights are supported off the Levi nodes")
    if line_weight.rank != p.rs.rank:
        raise ValueError("dimension mismatch")
    _, w0_den, totals, common = _coroot_totals(omega0, p)
    nums, denom = line_weight.cleared()
    return Fraction(w0_den * sum(map(mul, nums, totals)), denom * common)


def einstein_class(p: ParabolicData) -> KahlerClass:
    """Kahler-Einstein class: generator coefficients <delta, alpha^vee>, alpha off I.

    Reports that want curvature forms multiply by 2*pi at the edge.
    """
    return KahlerClass(tuple(p.delta[i] for i in p.picard_nodes))
