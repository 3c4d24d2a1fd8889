"""Curvature constants of invariant Kahler metrics on flag varieties.

Every closed invariant real (1,1)-class is a rational combination of the
Picard generator forms, so eigenvalues of omega^-1 o psi, omega-traces and
line-bundle mean-curvature constants are all finite sums of exact pairing
ratios over the complementary positive roots.  The 2*pi normalization is a
reporting convention and is never stored here.

A weight's pairings with every coroot of Phi_I^+ are one integer sweep over
``ParabolicData.complement_columns``, one column per node where the weight
is nonzero, so a maximal parabolic with a weight off the Levi reads one
column.  Each distinct eigenvalue is one Fraction, shared by the roots
that have it: a (pairing, denominator) pair is reduced by its gcd before
the Fraction is built, so on E8 with Levi E7 the 57 eigenvalues of a
line-bundle weight are one Fraction.  A spectrum is keyed by the roots
themselves: a report names each by the ambient ``RootSystem.labels``
table, built with the root system.
"""
from __future__ import annotations

import math
from collections.abc import Iterable
from fractions import Fraction
from operator import mul

from .parabolic import ParabolicData
from .rootsys import Weight, _Record, _rationals, _set, _shown, fundamental_weight


class NotKahlerError(ValueError):
    """A Kahler class needs strictly positive generator coefficients."""


class KahlerClass(_Record):
    """Coefficients over the Picard generators, ordered by node index."""

    __slots__ = _compared = ("coeffs",)

    def __init__(self, coeffs: tuple[Fraction, ...]) -> None:
        coeffs = _rationals(tuple(coeffs), "a Kahler coefficient")  # any iterable; _rationals reads a sequence
        if any(c <= 0 for c in coeffs):
            raise NotKahlerError("all generator coefficients must be positive")
        _set(self, "coeffs", coeffs)


class EndomorphismSpectrum(_Record):
    """Eigenvalue of omega^-1 o psi per complementary positive root."""

    __slots__ = _compared = ("eigenvalues",)
    __hash__ = None  # eigenvalues is a dict

    def trace(self) -> Fraction:
        """The sum of the eigenvalues: integer numerators over the lcm of
        their denominators, one Fraction."""
        values = self.eigenvalues.values()
        common = math.lcm(*(q.denominator for q in values))
        return Fraction(sum(q.numerator * (common // q.denominator) for q in values), common)


def _column_sum(terms: Iterable[tuple[int, int]], p: ParabolicData) -> list[int]:
    """sum of n * complement_columns[i] over the (i, n) in terms with n != 0:
    entry k is the pairing of sum n omega_i with the k-th coroot of Phi_I^+."""
    total = [0] * len(p.complement_roots)
    for i, n in terms:
        if n:
            total = [t + n * x for t, x in zip(total, p.complement_columns[i])]
    return total


def _kahler_denominators(omega0: KahlerClass, p: ParabolicData) -> tuple[list[int], int]:
    """(denominators, d) with <omega0, beta^vee> = denominators[k] / d for
    the k-th root beta of Phi_I^+: the coefficients of omega0 as integers
    over their lcm d, swept over the columns of the Picard nodes.  Each sum
    is positive: the closure checked every coroot nonnegative with its
    root's support, and each root here has a Picard coefficient."""
    coeffs = omega0.coeffs
    nodes = p.picard_nodes
    if len(coeffs) != len(nodes):
        raise ValueError(f"expected {len(nodes)} value(s) over the Picard nodes, got {len(coeffs)}")
    d = math.lcm(*(c.denominator for c in coeffs))
    return _column_sum(((i, c.numerator * (d // c.denominator)) for i, c in zip(nodes, coeffs)), p), d


def _spectrum(psi: Weight, denominators: list[int], w0_den: int, p: ParabolicData) -> EndomorphismSpectrum:
    """The eigenvalues from the columns of the nodes where psi is nonzero:
    each distinct (pairing, denominator) key is reduced by its gcd, and
    roots whose keys reduce alike share one Fraction."""
    if psi.rank != p.rs.rank:
        raise ValueError("dimension mismatch")
    psi_nums, psi_den = psi.cleared()
    keys = list(zip(_column_sum(enumerate(psi_nums), p), denominators))
    values: dict[tuple[int, int], Fraction] = {}
    shared = {}
    for pairing, denom in set(keys):
        g = math.gcd(pairing, denom)
        reduced = (pairing // g, denom // g)
        value = values.get(reduced)
        if value is None:
            value = values[reduced] = Fraction(reduced[0] * w0_den, reduced[1] * psi_den)
        shared[pairing, denom] = value
    return EndomorphismSpectrum(eigenvalues=dict(zip(p.complement_roots, map(shared.__getitem__, keys))))


def endo_eigenvalues(psi: Weight, omega0: KahlerClass, p: ParabolicData) -> EndomorphismSpectrum:
    """q_beta = <psi, beta^vee> / <omega0, beta^vee> over Phi_I^+.

    psi and omega0 are brought to integer numerators over one denominator
    each, so both pairings are integer sums of the stored coroot columns,
    and each distinct eigenvalue costs one Fraction.
    """
    return _spectrum(psi, *_kahler_denominators(omega0, p), p)


def _coroot_totals(omega0: KahlerClass, p: ParabolicData) -> tuple[list[int], int, dict[int, int], int]:
    """(denominators, w0_den, totals, common): the denominators of
    ``_kahler_denominators`` and, for every Picard node alpha,

        sum over Phi_I^+ of <omega_alpha, beta^vee> / <omega0, beta^vee>
            = totals[alpha] * w0_den / common,

    since <omega_alpha, beta^vee> is the k-th entry of the stored column of
    alpha.  Each root's scale common / denominator is computed once, and each
    column is one integer dot product with the scales.  On the stored
    columns this took about half the time of summing each column over the
    roots that share a denominator and scaling the group sums (Einstein
    class, denominators included, Python 3.11 on a shared 2-core x86-64 VM):
    D8 with Levi {3,6} 64 instead of 131 us, the A8 Borel 58 instead of
    109 us, the E8 Borel 179 instead of 341 us.
    """
    denominators, w0_den = _kahler_denominators(omega0, p)
    common = math.lcm(*denominators)
    scales = [common // denom for denom in denominators]
    totals = {alpha: sum(map(mul, p.complement_columns[alpha], scales)) for alpha in p.picard_nodes}
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
        raise ValueError(f"node {_shown(alpha)} is not a Picard generator")
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
    if line_weight.rank != p.rs.rank:
        raise ValueError("dimension mismatch")
    for i in p.levi_nodes:
        if line_weight[i] != 0:
            raise ValueError("line bundle weights are supported off the Levi nodes")
    _, w0_den, totals, common = _coroot_totals(omega0, p)
    nums, denom = line_weight.cleared()
    return Fraction(w0_den * sum(nums[alpha] * total for alpha, total in totals.items()), denom * common)


def einstein_class(p: ParabolicData) -> KahlerClass:
    """Kahler-Einstein class: generator coefficients <delta, alpha^vee>, alpha off I.

    Reports that want curvature forms multiply by 2*pi at the edge.
    """
    return KahlerClass(tuple(p.delta[i] for i in p.picard_nodes))
