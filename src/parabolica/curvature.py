"""Curvature constants of invariant Kahler metrics on flag varieties.

Every closed invariant real (1,1)-class is a rational combination of the
Picard generator forms, so eigenvalues of omega^-1 o psi, omega-traces and
line-bundle mean-curvature constants are all finite sums of exact pairing
ratios over the complementary positive roots.  The 2*pi normalization is a
reporting convention and is never stored here.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

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

    def as_weight(self, p: ParabolicData) -> Weight:
        return line_bundle_weight(self.coeffs, p)


@dataclass(frozen=True)
class EndomorphismSpectrum:
    """Eigenvalue of omega^-1 o psi per complementary positive root."""

    eigenvalues: dict[Root, Fraction]

    def trace(self) -> Fraction:
        return sum(self.eigenvalues.values(), Fraction(0))


def endo_eigenvalues(psi: Weight, omega0: KahlerClass, p: ParabolicData) -> EndomorphismSpectrum:
    """q_beta = <psi, beta^vee> / <omega0, beta^vee> over Phi_I^+.

    psi and omega0 are brought to integer numerators over one denominator
    each, so both pairings are integer dot products with the stored coroot
    and each root costs one Fraction.
    """
    if psi.rank != p.rs.rank:
        raise ValueError("dimension mismatch")
    coroots = p.rs.coroots
    w0 = omega0.as_weight(p)
    psi_nums, psi_den = psi.cleared()
    w0_nums, w0_den = w0.cleared()
    eigenvalues = {}
    for root in p.complement_roots:
        coroot = coroots[root]
        denom = sum(k * x for k, x in zip(coroot, w0_nums))
        if denom <= 0:
            raise InvariantError(
                f"Kahler positivity must make every denominator positive: root {root}, class {w0}"
            )
        eigenvalues[root] = Fraction(sum(k * x for k, x in zip(coroot, psi_nums)) * w0_den, denom * psi_den)
    return EndomorphismSpectrum(eigenvalues=eigenvalues)


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
    roots are present.
    """
    for i in p.levi_nodes:
        if line_weight[i] != 0:
            raise ValueError("line bundle weights are supported off the Levi nodes")
    return endo_eigenvalues(line_weight, omega0, p).trace()


def einstein_class(p: ParabolicData) -> KahlerClass:
    """Kahler-Einstein class: generator coefficients <delta, alpha^vee>, alpha off I.

    Reports that want curvature forms multiply by 2*pi at the edge.
    """
    return KahlerClass(tuple(p.delta[i] for i in p.picard_nodes))
