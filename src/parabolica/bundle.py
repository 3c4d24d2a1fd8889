"""Splitting analysis for irreducible homogeneous vector bundles.

A bundle is specified by a parabolic and a highest weight that is dominant
for the Levi.  The questions answered here: the rank of the defining
module (Weyl dimension formula over the Levi), the first-Chern weight
lambda(E), and whether E factors as E0 (x) L0 with c1(E0) = 0.  The
verdict is an integrality test, so every quantity is an exact rational.

``splitting_report`` is the one derivation: it splits the weight, takes
the Weyl dimension and the Cramer ratios once each, and builds every other
quantity from those.  Its cross-checks run afterwards in one verification
step and raise InvariantError, also under ``python -O``.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .parabolic import NotDominantError, ParabolicData, WeightSplit, decompose_weight, is_dominant_for_levi
from .rootsys import InvariantError, Weight


@dataclass(frozen=True)
class BundleSpec:
    parabolic: ParabolicData
    highest_weight: Weight

    def __post_init__(self) -> None:
        if self.highest_weight.rank != self.parabolic.rs.rank:
            raise ValueError("weight rank must match the root system rank")
        if not self.highest_weight.is_integral:
            raise ValueError("integral highest weight required")
        if not is_dominant_for_levi(self.highest_weight, self.parabolic):
            raise NotDominantError("highest weight must be dominant for the Levi factor")


@dataclass(frozen=True)
class ChernData:
    rank: int
    lambda_E: Weight
    cramer_a: tuple[Fraction, ...]


@dataclass(frozen=True)
class SplittingReport:
    chern: ChernData
    criterion_values: dict[int, Fraction]
    splits: bool
    lambda_L0: Weight | None
    lambda_E0_check: Weight | None
    split: WeightSplit


def weyl_dim(p: ParabolicData, lambda_s: Weight) -> int:
    """Dimension of the irreducible Levi module with highest weight lambda_s.

    Weyl's formula prod <lambda_s + rho, alpha^vee> / prod <rho, alpha^vee>
    over the positive roots of the Levi subsystem, as two integer products
    over its coroot table; the quotient is checked to be exact and positive.
    """
    if not lambda_s.is_integral:
        raise ValueError("integral lambda_s required")
    for i in p.picard_nodes:
        if lambda_s[i] != 0:
            raise ValueError("lambda_s must be supported on the Levi nodes")
    for i in p.levi_nodes:
        if lambda_s[i] < 0:
            raise NotDominantError("lambda_s must be dominant for the Levi factor")
    shifted = [int(lambda_s[i]) + 1 for i in p.levi_nodes]  # lambda_s + rho over the Levi
    numerator = denominator = 1
    for coroot in p.levi_coroots.values():
        numerator *= sum(k * x for k, x in zip(coroot, shifted))
        denominator *= sum(coroot)  # <rho, alpha^vee> is the coroot's height
    dim, remainder = divmod(numerator, denominator)
    if remainder or dim <= 0:
        raise InvariantError(
            f"Weyl dimension {Fraction(numerator, denominator)} must be a positive integer: lambda_s {lambda_s}"
        )
    return dim


def criterion_ratios(p: ParabolicData, lambda_s: Weight) -> tuple[Fraction, ...]:
    """det(C_I(lambda_s, alpha)) / det(C_I) for each alpha in I.

    The alpha-row of the Levi Cartan matrix is replaced by the row of
    pairings (<lambda_s, beta^vee>)_{beta in I}.  By Cramer's rule these are
    the solution of C_I^T x = b with b the lambda_s coordinate vector on I,
    read off the stored adjugate of C_I^T as adj(C_I^T) b / det(C_I).  With
    b = nums / d cleared to integers, the integer residual check
    C_I^T (adj(C_I^T) nums) = det(C_I) nums proves it is the unique solution,
    since C_I^T is nonsingular.
    """
    if not p.levi_nodes:
        return ()
    nums, denom = p.levi_coords(lambda_s).cleared()
    det = p.levi_det
    solution = [sum(a * x for a, x in zip(row, nums)) for row in p.levi_t_adjugate]
    # row i of C_I^T is column i of C_I
    residual = [sum(row[i] * y for row, y in zip(p.levi_cartan, solution)) for i in range(len(nums))]
    if residual != [det * x for x in nums]:
        raise InvariantError(
            f"Cramer determinants must agree with the solution of C_I^T x = b: "
            f"Levi nodes {p.levi_nodes}, lambda_s {lambda_s}"
        )
    denom *= det
    return tuple(Fraction(y, denom) for y in solution)


def cramer_coefficients(spec: BundleSpec) -> tuple[Fraction, ...]:
    """First-Chern coefficients a_alpha(E) = rank * det-ratio, alpha in I."""
    return splitting_report(spec).chern.cramer_a


def chern_weight(spec: BundleSpec) -> ChernData:
    """lambda(E) from the Cramer coefficients and the central character."""
    return splitting_report(spec).chern


def splitting_report(spec: BundleSpec) -> SplittingReport:
    """Full splitting verdict with per-generator criterion values.

    From the split lambda = lambda_s + lambda_c, the rank r = weyl_dim and
    the Cramer ratios (one call each):

    * a_alpha = r * det-ratio(alpha) for alpha in I;
    * criterion[beta] = sum_{alpha in I} det-ratio(alpha) * <alpha, beta^vee>
      for each node beta outside I, reported for every beta;
    * lambda(E) = r * (criterion - lambda_c) on the Picard nodes, zero on I.

    The bundle splits as E0 (x) L0 with c1(E0) = 0 exactly when every
    criterion value is an integer, and then lambda(L0) = lambda(E) / r.
    The report is returned only after ``_verify`` has cross-checked it.
    """
    p = spec.parabolic
    rs = p.rs
    split = decompose_weight(spec.highest_weight, p)
    rank = weyl_dim(p, split.lambda_s)
    ratios = criterion_ratios(p, split.lambda_s)

    criterion = {
        beta: sum((r * rs.cartan[alpha][beta] for r, alpha in zip(ratios, p.levi_nodes)), Fraction(0))
        for beta in p.picard_nodes
    }
    on_picard = Weight(tuple(criterion.get(i, Fraction(0)) for i in range(rs.rank)))
    lambda_e = rank * (on_picard - split.lambda_c)
    chern = ChernData(rank=rank, lambda_E=lambda_e, cramer_a=tuple(rank * r for r in ratios))

    splits = all(v.denominator == 1 for v in criterion.values())
    lambda_l0 = lambda_e / rank if splits else None
    report = SplittingReport(
        chern=chern,
        criterion_values=criterion,
        splits=splits,
        lambda_L0=lambda_l0,
        lambda_E0_check=lambda_e - rank * lambda_l0 if splits else None,
        split=split,
    )
    _verify(spec, report)
    return report


def _verify(spec: BundleSpec, report: SplittingReport) -> None:
    """Every cross-check of a splitting report; InvariantError on the first
    that fails, naming it and the bundle."""
    p = spec.parabolic
    rs = p.rs
    chern = report.chern

    def require(ok: bool, invariant: str) -> None:
        if not ok:
            raise InvariantError(
                f"{invariant}: {rs.lie_type}, Levi nodes {p.levi_nodes}, highest weight {spec.highest_weight}"
            )

    require(
        all((a * p.levi_det).denominator == 1 for a in chern.cramer_a),
        "a_alpha denominators must divide det(C_I)",
    )
    require(all(chern.lambda_E[i] == 0 for i in p.levi_nodes), "lambda(E) must vanish on the Levi nodes")

    # r*lambda + lambda(E) must land in the span of the Levi simple roots,
    # with exactly the Cramer coefficients as coordinates.
    on_levi = dict(zip(p.levi_nodes, chern.cramer_a))
    in_simple = rs.weight_in_simple_roots(chern.rank * spec.highest_weight + chern.lambda_E)
    require(list(in_simple) == [on_levi.get(i, 0) for i in range(rs.rank)], "residue identity failed")

    per_generator = chern.lambda_E / chern.rank
    require(
        all(per_generator[b] == v - report.split.lambda_c[b] for b, v in report.criterion_values.items()),
        "per-generator degree must equal criterion - lambda_c",
    )
    require(report.splits == per_generator.is_integral, "criterion and degree tests disagree")
    if report.splits:
        require(report.lambda_E0_check.is_zero, "c1(E0) must vanish")


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
    for value, node in zip(coeffs, nodes):
        coords[node] = Fraction(value)
    return Weight(tuple(coords))
