"""Splitting analysis for irreducible homogeneous vector bundles.

A bundle is specified by a parabolic and a highest weight that is dominant
for the Levi.  The questions answered here: the rank of the defining
module (Weyl dimension formula over the Levi), the first-Chern weight
lambda(E), and whether E factors as E0 (x) L0 with c1(E0) = 0.  The
verdict is an integrality test, so every quantity is an exact rational.

``splitting_report`` is the one derivation: it reads the split that the
``BundleSpec`` made, takes the Weyl dimension and the Cramer numerators
once each, and builds every other quantity from those as integer
numerators over det(C_I); Fractions are built only for the report.  One
cross-check remains, the residue identity, because it goes through the
ambient inverse adj(C^T), which the report is not built from; it runs in
the integers and raises InvariantError, also under ``python -O``.  Every
other relation between the report's fields holds by construction.
"""
from __future__ import annotations

from collections.abc import Sequence
from fractions import Fraction
from operator import mul

from .parabolic import NotDominantError, ParabolicData, decompose_weight
from .rootsys import InvariantError, Weight, _Record, _rationals, _set


class BundleSpec(_Record):
    __slots__ = ("parabolic", "highest_weight", "split")
    _compared = ("parabolic", "highest_weight")

    def __init__(self, parabolic: ParabolicData, highest_weight: Weight) -> None:
        if highest_weight.rank != parabolic.rs.rank:
            raise ValueError("weight rank must match the root system rank")
        _set(self, "parabolic", parabolic)
        _set(self, "highest_weight", highest_weight)
        _set(self, "split", decompose_weight(highest_weight, parabolic))  # which validates the weight


class ChernData(_Record):
    __slots__ = _compared = ("rank", "lambda_E", "cramer_a")


class SplittingReport(_Record):
    __slots__ = _compared = ("chern", "criterion_values", "splits", "lambda_L0", "lambda_E0_check", "split")
    __hash__ = None  # criterion_values is a dict


def weyl_dim(p: ParabolicData, lambda_s: Weight) -> int:
    """Dimension of the irreducible Levi module with highest weight lambda_s.

    Weyl's formula prod <lambda_s + rho, alpha^vee> / prod <rho, alpha^vee>
    over the positive roots of the Levi subsystem, as two integer products
    over its coroot table; the quotient is checked to be exact and positive.
    """
    if lambda_s.rank != p.rs.rank:
        raise ValueError("dimension mismatch")
    if not lambda_s.is_integral:
        raise ValueError("integral lambda_s required")
    if any(lambda_s[i] for i in p.picard_nodes):
        raise ValueError("lambda_s must be supported on the Levi nodes")
    levi = [lambda_s[i].numerator for i in p.levi_nodes]
    if any(x < 0 for x in levi):
        raise NotDominantError("lambda_s must be dominant for the Levi factor")
    shifted = [x + 1 for x in levi]  # lambda_s + rho over the Levi
    numerator = denominator = 1
    for coroot in p.levi.coroots.values():
        numerator *= sum(map(mul, coroot, shifted))
        denominator *= sum(coroot)  # <rho, alpha^vee> is the coroot's height
    dim, remainder = divmod(numerator, denominator)
    if remainder or dim <= 0:
        raise InvariantError(
            f"Weyl dimension {Fraction(numerator, denominator)} must be a positive integer: lambda_s {lambda_s}"
        )
    return dim


def criterion_ratios(p: ParabolicData, lambda_s: Weight) -> tuple[tuple[int, ...], int]:
    """det(C_I(lambda_s, alpha)) / det(C_I) for each alpha in I, as integer
    numerators over one positive denominator.

    The alpha-row of the Levi Cartan matrix is replaced by the row of
    pairings (<lambda_s, beta^vee>)_{beta in I}.  By Cramer's rule these are
    the solution of C_I^T x = b with b the lambda_s coordinate vector on I,
    read off the stored adjugate of C_I^T as adj(C_I^T) b / det(C_I); the
    adjugate is proven when the parabolic is built, in ``_inverse_transpose``.
    With b = nums / d cleared to integers, the numerators are adj(C_I^T) nums
    over d * det(C_I); for an integral lambda_s, d = 1.
    """
    nums, denom = p.levi_coords(lambda_s).cleared()
    levi = p.levi
    # not levi.simple_root_numerators: _verify's residue identity checks this
    # product with RootSystem.simple_root_numerators, so a fault there must not
    # reach both sides
    return tuple(sum(map(mul, row, nums)) for row in levi.cartan_t_adjugate), denom * levi.cartan_det


def cramer_coefficients(spec: BundleSpec) -> tuple[Fraction, ...]:
    """First-Chern coefficients a_alpha(E) = rank * det-ratio, alpha in I."""
    return splitting_report(spec).chern.cramer_a


def chern_weight(spec: BundleSpec) -> ChernData:
    """lambda(E) from the Cramer coefficients and the central character."""
    return splitting_report(spec).chern


def splitting_report(spec: BundleSpec) -> SplittingReport:
    """Full splitting verdict with per-generator criterion values.

    From the spec's split lambda = lambda_s + lambda_c, the rank r = weyl_dim
    and the Cramer numerators y over d = det(C_I) (one call each), in integers:

    * a_alpha = r * y_alpha / d for alpha in I;
    * criterion[beta] = c_beta / d with c_beta = sum_{alpha in I} y_alpha
      <alpha, beta^vee>, for every node beta outside I;
    * lambda(E) = r * (criterion - lambda_c) on the Picard nodes, zero on I,
      with numerators r * (c_beta - d * lambda_beta) over d.

    The bundle splits as E0 (x) L0 with c1(E0) = 0 exactly when d divides
    every c_beta, and then lambda(L0) = lambda(E) / r.  ``_verify`` runs
    the one cross-check, the residue identity, on these numerators; the
    report's Fractions are built once from them afterwards.
    """
    p = spec.parabolic
    rs = p.rs
    rank = weyl_dim(p, spec.split.lambda_s)
    solution, det = criterion_ratios(p, spec.split.lambda_s)
    lam = [c.numerator for c in spec.highest_weight.coords]

    criterion = {
        beta: sum(y * rs.cartan[alpha][beta] for y, alpha in zip(solution, p.levi_nodes)) for beta in p.picard_nodes
    }
    lambda_e = {beta: rank * (c - det * lam[beta]) for beta, c in criterion.items()}
    splits = all(c % det == 0 for c in criterion.values())
    _verify(spec, rank, lam, solution, lambda_e)

    zero = Fraction(0)

    def over_det(n: int) -> Fraction:
        return Fraction(n, det) if n else zero

    def weight_over_det(on_picard: dict[int, int]) -> Weight:
        coords = [zero] * rs.rank
        for beta, n in on_picard.items():
            coords[beta] = over_det(n)
        return Weight(tuple(coords))

    lambda_l0 = lambda_e0 = None
    if splits:
        l0 = {beta: n // rank for beta, n in lambda_e.items()}
        lambda_l0 = weight_over_det(l0)
        lambda_e0 = weight_over_det({beta: n - rank * l0[beta] for beta, n in lambda_e.items()})
    return SplittingReport(
        chern=ChernData(
            rank=rank, lambda_E=weight_over_det(lambda_e), cramer_a=tuple(over_det(rank * y) for y in solution)
        ),
        criterion_values={beta: over_det(c) for beta, c in criterion.items()},
        splits=splits,
        lambda_L0=lambda_l0,
        lambda_E0_check=lambda_e0,
        split=spec.split,
    )


def _verify(spec: BundleSpec, rank: int, lam: list[int], solution: tuple[int, ...], lambda_e: dict[int, int]) -> None:
    """The one cross-check of a splitting report, the residue identity;
    InvariantError, naming the bundle, if it fails.

    It runs in the integers, on the numerators the report was built from:
    lam (the highest weight), solution (the Cramer numerators over
    det(C_I)) and lambda_e (lambda(E) over det(C_I) on the Picard nodes).
    It goes through the ambient inverse adj(C^T), a table the report was
    not built from; every other relation between the report's fields holds
    by construction.
    """
    p = spec.parabolic
    rs = p.rs
    det = p.levi.cartan_det

    def require(ok: bool, invariant: str) -> None:
        if not ok:
            raise InvariantError(
                f"{invariant}: {rs.lie_type}, Levi nodes {p.levi_nodes}, highest weight {spec.highest_weight}"
            )

    # r*lambda + lambda(E) must land in the span of the Levi simple roots,
    # with exactly the Cramer coefficients as coordinates.  Times det(C_I):
    # adj(C^T) (r det lambda + lambda_e) = det(C) r solution on I, 0 off I.
    residue = [rank * det * x for x in lam]
    for beta, n in lambda_e.items():
        residue[beta] += n
    expected = [0] * rs.rank
    for alpha, y in zip(p.levi_nodes, solution):
        expected[alpha] = rs.cartan_det * rank * y
    require(list(rs.simple_root_numerators(residue)) == expected, "residue identity failed")


def line_bundle_weight(coeffs: Sequence[int | Fraction], p: ParabolicData) -> Weight:
    """Embed per-generator degrees as a weight supported off I.

    ``coeffs`` are ordered by increasing node index over the complement of I;
    the resulting weight has <w, alpha^vee> equal to the given degree on each
    Picard generator and zero on the Levi nodes.
    """
    nodes = p.picard_nodes
    if len(coeffs) != len(nodes):
        raise ValueError(f"expected {len(nodes)} value(s) over the Picard nodes, got {len(coeffs)}")
    coords = [Fraction(0)] * p.rs.rank
    for value, node in zip(_rationals(coeffs, "a line degree"), nodes):
        coords[node] = value
    return Weight(tuple(coords))
