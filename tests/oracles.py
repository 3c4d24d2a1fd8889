"""Independent routes to values the library stores, for tests to compare
against, and the helpers tests share.  None of them reads the library's
coroot tables.

* ``combine``: the weight sum_i k_i w_i over ``.coords``, the one place
  tests add, subtract or scale weights (the library never does);
* ``root_norms``: the symmetrizer of a Cartan matrix, the root lengths
  the library never computes;
* ``root_norm_sq`` and ``coroot_coefficients``: (beta, beta) and beta^vee
  from the root norms, in rationals, apart from the reflection closure;
* ``pairing_fold``: <lambda, beta^vee> as 2 (lambda, beta) / (beta, beta),
  and from it ``weyl_dim_fold``, Weyl's formula as a ``Fraction`` product;
* ``det``: the determinant by Laplace expansion along the first row, its
  definition, with no elimination;
* ``cramer_ratios_fold``: the Cramer ratios as determinants of row-replaced
  Levi Cartan matrices, by ``det``;
* ``splitting_fold``: a whole splitting report by ``Weight`` arithmetic, one
  ``Fraction`` per coordinate and operation, from the two folds above;
* ``root_as_weight_fold``: a root over the fundamental weights, folded
  one ``Fraction`` product at a time over the rows of C;
* ``delta_from_root_sum``: delta as a sum of roots rewritten one by one;
* ``dual_highest_weight``: -w_{0,I} lambda, the highest weight of the dual
  bundle, by simple reflections over the Levi nodes;
* ``levi_closure``: the Levi root system built by its own closure over
  C_I, against which the restriction in ``build_parabolic`` is checked;
* ``levi_module_weights``: the weights of a Levi module with their
  multiplicities, by Freudenthal's formula over the Levi's positive roots
  and root norms, lifted to the ambient weight lattice;
* ``norm_sq`` and ``curvature_coeffs``: a spectral function's squared L2
  mass and a Galerkin solution's curvature coefficients, read off their
  arrays;
* ``check_report``: the rules that tie one CLI report's fields to each
  other, read off the parsed JSON alone;
* ``full_fft_profile_coefficients``: a profile's eigen-coefficients read
  off one ``rfftn`` of the whole N^d grid, free axes included, against
  which the cut-axes transform of ``distance_profile_coefficients`` is
  checked;
* ``argparse_parser``: the CLI's flags as an ``argparse`` parser, against
  which ``cli._read_flags`` is checked (the one place argparse remains).
"""
from __future__ import annotations

import argparse
import functools
import math
from fractions import Fraction
from typing import Iterable, Sequence

import numpy as np

from parabolica import __version__
from parabolica.bundle import BundleSpec, ChernData, SplittingReport
from parabolica.cli import ParseError
from parabolica.parabolic import ParabolicData, WeightSplit
from parabolica.rootsys import Root, RootSystem, Weight, root_system_from_cartan
from parabolica.spectral import FlatTorus, GalerkinSolution, SingularProfile, SpectralFunction, _profile_values


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


def combine(*terms: tuple[int | Fraction, Weight]) -> Weight:
    """The weight sum_i k_i w_i of (k_i, w_i) pairs of equal rank, summed
    coordinate by coordinate from Fraction(0)."""
    (rank,) = {w.rank for _, w in terms}
    return Weight(tuple(sum((k * w.coords[i] for k, w in terms), Fraction(0)) for i in range(rank)))


def pairing_fold(cartan, e, weight: Weight, root) -> Fraction:
    """<lambda, beta^vee> = 2 (lambda, beta) / (beta, beta) in rationals,
    with e the root norms of the Cartan matrix."""
    norm = sum(
        mi * mj * cartan[i][j] * e[j] for i, mi in enumerate(root) for j, mj in enumerate(root)
    )
    num = 2 * sum((m * c * ej for m, c, ej in zip(root, weight.coords, e)), Fraction(0))
    return num / norm


def weyl_dim_fold(p: ParabolicData, lambda_s: Weight) -> Fraction:
    """Weyl's formula over the positive roots of ``levi_closure``, each
    pairing through (beta, beta) with the Levi's own root norms."""
    e = root_norms(p.levi.cartan)
    rho = Weight.of(*(1 for _ in p.levi_nodes))
    shifted = combine((1, p.levi_coords(lambda_s)), (1, rho))
    dim = Fraction(1)
    for root in levi_closure(p).positive_roots:
        dim *= pairing_fold(p.levi.cartan, e, shifted, root) / pairing_fold(p.levi.cartan, e, rho, root)
    return dim


def det(rows: Sequence[Sequence[int | Fraction]]) -> int | Fraction:
    """The determinant by Laplace expansion along the first row:
    sum_j (-1)^j a_0j det(minor_0j), skipping zero entries, so the sparse
    Cartan matrices of rank <= 8 stay fast.  The empty matrix has
    determinant 1."""
    if not rows:
        return 1
    first, rest = rows[0], rows[1:]
    return sum((-1) ** j * x * det([[*row[:j], *row[j + 1 :]] for row in rest]) for j, x in enumerate(first) if x)


def cramer_ratios_fold(p: ParabolicData, lambda_s: Weight) -> tuple[Fraction, ...]:
    """det of C_I with its alpha-row replaced by lambda_s, over det C_I."""
    coords = [lambda_s[i] for i in p.levi_nodes]
    base = [list(row) for row in p.levi.cartan]
    denom = det(base)
    ratios = []
    for pos in range(len(coords)):
        replaced = [row[:] for row in base]
        replaced[pos] = coords
        ratios.append(Fraction(det(replaced), denom))
    return tuple(ratios)


def splitting_fold(spec: BundleSpec) -> SplittingReport:
    """The splitting report by ``Weight`` arithmetic: lambda_s by
    restriction and lambda_c = lambda - lambda_s, the rank and the Cramer
    ratios from the folds above, criterion[beta] = sum_alpha ratio_alpha
    <alpha, beta^vee>, lambda(E) = r (criterion - lambda_c),
    lambda(L0) = lambda(E) / r and lambda(E0) = lambda(E) - r lambda(L0)."""
    p, weight = spec.parabolic, spec.highest_weight
    rs = p.rs
    picard = [i for i in range(rs.rank) if i not in p.levi_nodes]
    lambda_s = Weight(tuple(c if i in p.levi_nodes else Fraction(0) for i, c in enumerate(weight.coords)))
    lambda_c = combine((1, weight), (-1, lambda_s))
    dim = weyl_dim_fold(p, lambda_s)
    assert dim.denominator == 1 and dim > 0, dim
    rank = int(dim)
    ratios = cramer_ratios_fold(p, lambda_s)
    criterion = {
        beta: sum((r * rs.cartan[alpha][beta] for r, alpha in zip(ratios, p.levi_nodes)), Fraction(0))
        for beta in picard
    }
    on_picard = Weight(tuple(criterion.get(i, Fraction(0)) for i in range(rs.rank)))
    lambda_e = combine((rank, on_picard), (-rank, lambda_c))
    splits = all(v.denominator == 1 for v in criterion.values())
    lambda_l0 = combine((Fraction(1, rank), lambda_e)) if splits else None
    return SplittingReport(
        chern=ChernData(rank=rank, lambda_E=lambda_e, cramer_a=tuple(rank * r for r in ratios)),
        criterion_values=criterion,
        splits=splits,
        lambda_L0=lambda_l0,
        lambda_E0_check=combine((1, lambda_e), (-rank, lambda_l0)) if splits else None,
        split=WeightSplit(lambda_s=lambda_s, lambda_c=lambda_c),
    )


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
    zero = Weight.of(*[0] * rs.rank)
    return combine((1, zero), *((1, root_as_weight_fold(rs, root)) for root in roots))


def dual_highest_weight(cartan, levi: tuple[int, ...], coords: tuple[int, ...]) -> tuple[int, ...]:
    """-w_{0,I} lambda, the highest weight of E*: the Levi-dominant weight in
    the Levi Weyl orbit of -lambda, reached by the simple reflections
    mu -> mu - mu_i (row i of C) while some mu_i < 0 with i in I."""
    mu = [-c for c in coords]
    while (i := next((i for i in levi if mu[i] < 0), None)) is not None:
        k = mu[i]
        mu = [m - k * a for m, a in zip(mu, cartan[i])]
    return tuple(mu)


def levi_closure(p: ParabolicData) -> RootSystem:
    """The Levi subsystem as a root system of its own, by a second reflection
    closure over the Levi Cartan matrix C_I."""
    return root_system_from_cartan(p.levi.cartan)


def levi_module_weights(p: ParabolicData, coords: Sequence[int]) -> dict[tuple[int, ...], int]:
    """Each weight of the Levi module with highest weight ``coords`` (over the
    ambient fundamental weights, dominant on the Levi nodes) with its
    multiplicity, by Freudenthal's formula (Humphreys, Introduction to Lie
    Algebras and Representation Theory, 22.3).  It reads only the positive
    roots of ``p.levi`` and the form (alpha_i, alpha_j) = C_ij e_j of the
    root norms e: no coroot table and no Weyl product.

    A weight is mu = lambda - gamma, with gamma = sum_i k_i alpha_i over the
    Levi simple roots.  Since (lambda, alpha_j) = lambda_j e_j and
    (rho, alpha_j) = e_j, the formula reads, in integers,

        (2 (lambda + rho, gamma) - (gamma, gamma)) m(mu)
            = 2 sum_{alpha > 0} sum_{k >= 1} m(mu + k alpha) (mu + k alpha, alpha),

    where the left factor, |lambda + rho|^2 - |mu + rho|^2, is positive on
    every weight other than lambda.  Every such weight is one simple root
    below another weight, so the weights are found layer by layer in the
    height of gamma, each layer from the one above.  Each is returned lifted
    to the ambient lattice: lambda minus gamma over the rows of C."""
    cartan, nodes, roots = p.levi.cartan, p.levi_nodes, p.levi.positive_roots
    e = root_norms(cartan)
    top = [coords[i] for i in nodes]

    def form(x, y) -> int:
        return sum(a * b * cartan[i][j] * e[j] for i, a in enumerate(x) for j, b in enumerate(y))

    def paired(gamma, root) -> int:  # (lambda - gamma, root)
        return sum(a * t * f for a, t, f in zip(root, top, e)) - form(gamma, root)

    mult = {(0,) * len(nodes): 1}
    layer = list(mult)
    while layer:
        below = sorted({g[:i] + (g[i] + 1,) + g[i + 1 :] for g in layer for i in range(len(nodes))})
        layer = []
        for gamma in below:
            gap = 2 * sum(k * (t + 1) * f for k, t, f in zip(gamma, top, e)) - form(gamma, gamma)
            if gap <= 0:  # not a weight
                continue
            total = 0
            for root in roots:
                k = 1
                while all(g >= k * a for g, a in zip(gamma, root)):
                    higher = tuple(g - k * a for g, a in zip(gamma, root))
                    total += mult.get(higher, 0) * paired(higher, root)
                    k += 1
            m, rest = divmod(2 * total, gap)
            assert rest == 0 and m >= 0, (p.levi.cartan, coords, gamma, Fraction(2 * total, gap))
            if m:
                mult[gamma] = m
                layer.append(gamma)
    rows = [p.rs.cartan[i] for i in nodes]
    return {
        tuple(c - sum(k * row[j] for k, row in zip(gamma, rows)) for j, c in enumerate(coords)): m
        for gamma, m in mult.items()
    }


def norm_sq(f: SpectralFunction) -> float:
    """sum_j c_j^2 + tail_sq, summed in index order."""
    return sum(c * c for c in f.coeffs.tolist()) + f.tail_sq


def curvature_coeffs(sol: GalerkinSolution) -> dict[int, float]:
    """Mode 0 from the reference-metric constant, lambda_j psi_j for every
    other matched mode j."""
    return {0: sol.source_mode0, **dict(zip(sol.modes.tolist(), (sol.lam * sol.psi).tolist()))}


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


class _ArgumentParser(argparse.ArgumentParser):
    def error(self, message: str):  # one line on stderr instead of usage text
        raise ParseError(f"{self.prog}: {message}")


@functools.cache
def argparse_parser() -> argparse.ArgumentParser:
    parser = _ArgumentParser(
        prog="parabolica",
        description="Exact splitting analysis of homogeneous vector bundles on flag varieties.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser, weighted: bool) -> None:
        p.add_argument("--type", required=True, help="Dynkin type, e.g. A3, B3, D4 (case-insensitive)")
        p.add_argument("--parabolic", required=True, help="Levi nodes, 1-based, e.g. 2,3 (empty: Borel)")
        if weighted:
            p.add_argument("--weight", required=True, help="highest weight coordinates, e.g. 0,0,2")

    analyze = sub.add_parser("analyze", help="splitting report for a bundle")
    common(analyze, weighted=True)
    analyze.add_argument("--kahler", help="Kahler coefficients over the Picard nodes, e.g. 1 or 1,2")
    analyze.add_argument("--line", help="line bundle degrees over the Picard nodes")
    analyze.add_argument("--spectral", help="spectral demo spec, e.g. dim=1,modes=128,s=0.25")

    curv = sub.add_parser("curvature", help="invariant curvature constants")
    common(curv, weighted=False)
    curv.add_argument("--kahler", help="Kahler coefficients (default: the Einstein class)")
    curv.add_argument("--line", help="line bundle degrees over the Picard nodes")

    spec = sub.add_parser("spectral", help="Galerkin demo for a singular profile")
    spec.add_argument("--dim", type=int, help="torus dimension (default 1)")
    spec.add_argument("--modes", type=int, help="eigenmodes to materialize (default 128)")
    spec.add_argument("--profile", required=True, help="e.g. point:s=0.25 or subtorus:s=0.4,codim=1")
    spec.add_argument("--hym", type=float, help="target mean-curvature constant (default 1)")
    spec.add_argument("--csv", action="store_true", help="residual ladder as CSV instead of JSON")

    suite = sub.add_parser("paper-suite", help="run the pinned example battery")
    suite.add_argument("--quiet", action="store_true", help="no ok <name> lines on stderr")

    dump = sub.add_parser("dump-roots", help="emit a root-system dump as JSON")
    dump.add_argument("--type", required=True)
    return parser
