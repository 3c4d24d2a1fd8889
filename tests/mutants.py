"""Catalogue of source mutants, each with the tests that must catch it, and
a runner that checks they do.

Each entry names a file under ``src/``, an exact snippet that occurs once
in it, the replacement that makes the mutant, and the test ids (file::name,
as pytest takes them) of which every one must fail on the mutant: run,
and fail or raise (a module that cannot even be collected does not count).
The runner copies ``src/``, ``tests/`` and ``pyproject.toml`` to a temporary
directory, applies one mutant there, runs its named tests with pytest and
prints ``caught`` or ``MISSED``; it exits 1 if any mutant was missed, or its
run ended without a test report.  The checkout itself is never edited.

    python tests/mutants.py              # every mutant, about a minute
    python tests/mutants.py NAME ...     # the named ones

A full run takes one pytest start-up per mutant, too slow for Tier-1;
``tests/test_source.py`` checks only that every snippet still occurs once
and every named test still exists.  Run this after editing a named test.
"""
from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import xml.etree.ElementTree as ElementTree
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parents[1]
# A mutant can make a closure run without end; its run is then cut, and missed.
TIMEOUT_S = 600


class Mutant(NamedTuple):
    name: str
    file: str
    snippet: str
    replacement: str
    tests: tuple[str, ...]


MUTANTS = (
    Mutant(
        "adjugate-det-sign",
        "src/parabolica/linalg.py",
        "return sign * prev, tuple(",
        "return prev, tuple(",
        (
            "tests/test_kernel.py::test_adjugate_against_cofactors",
            "tests/test_kernel.py::test_det_against_cofactor_expansion",
        ),
    ),
    Mutant(
        "adjugate-entry-sign",
        "src/parabolica/linalg.py",
        "tuple(tuple(sign * x for x in row[n:]) for row in m)",
        "tuple(tuple(x for x in row[n:]) for row in m)",
        ("tests/test_kernel.py::test_adjugate_against_cofactors",),
    ),
    Mutant(
        "solve-reads-first-column",
        "src/parabolica/linalg.py",
        "sum(a * row[n] for a, row in zip(adj_row, augmented))",
        "sum(a * row[0] for a, row in zip(adj_row, augmented))",
        ("tests/test_kernel.py::test_solve_satisfies_its_system",),
    ),
    Mutant(
        "closure-pairing-transposed",
        "src/parabolica/rootsys.py",
        "pairings = [sum(m * cartan[j][i] for j, m in enumerate(root) if m) for i in range(n)]",
        "pairings = [sum(m * cartan[i][j] for j, m in enumerate(root) if m) for i in range(n)]",
        (
            "tests/test_kernel.py::test_coroot_table_rows",
            "tests/test_kernel.py::test_root_tables_are_pinned",
            "tests/test_rootsys.py::test_pairing_times_norm_identity",
        ),
    ),
    Mutant(
        "levi-restriction-reads-roots",
        "src/parabolica/parabolic.py",
        "= tuple(map(coroot.__getitem__, nodes))",
        "= tuple(map(root.__getitem__, nodes))",
        ("tests/test_kernel.py::test_levi_restriction_matches_its_own_closure",),
    ),
    Mutant(
        "lambda-e-negated",
        "src/parabolica/bundle.py",
        "lambda_e = {beta: rank * (c - det * lam[beta])",
        "lambda_e = {beta: rank * (det * lam[beta] - c)",
        (
            "tests/test_kernel.py::test_cominuscule_tangent_module_gives_the_canonical_class",
            "tests/test_kernel.py::test_levi_module_weights_give_rank_and_first_chern_weight",
        ),
    ),
    Mutant(
        "cramer-a-over-twice-det",
        "src/parabolica/bundle.py",
        "cramer_a=tuple(over_det(rank * y) for y in solution)",
        "cramer_a=tuple(Fraction(rank * y, 2 * det) for y in solution)",
        ("tests/test_kernel.py::test_splitting_report_matches_weight_fold",),
    ),
    Mutant(
        "report-levi-coords-nonzero",
        "src/parabolica/bundle.py",
        "coords = [zero] * rs.rank",
        "coords = [Fraction(1, det)] * rs.rank",
        ("tests/test_kernel.py::test_splitting_report_matches_weight_fold",),
    ),
    Mutant(
        "criterion-values-shifted",
        "src/parabolica/bundle.py",
        "criterion_values={beta: over_det(c) for",
        "criterion_values={beta: over_det(c + 1) for",
        ("tests/test_kernel.py::test_splitting_report_matches_weight_fold",),
    ),
    Mutant(
        "splits-on-any-node",
        "src/parabolica/bundle.py",
        "splits = all(c % det == 0",
        "splits = any(c % det == 0",
        ("tests/test_kernel.py::test_splitting_report_matches_weight_fold",),
    ),
    Mutant(
        "lambda-l0-off-by-one",
        "src/parabolica/bundle.py",
        "l0 = {beta: n // rank for",
        "l0 = {beta: n // rank + 1 for",
        ("tests/test_kernel.py::test_splitting_report_matches_weight_fold",),
    ),
    Mutant(
        "weyl-dim-reads-roots",
        "src/parabolica/bundle.py",
        "for coroot in p.levi.coroots.values():",
        "for coroot in p.levi.positive_roots:",
        ("tests/test_kernel.py::test_levi_module_weights_give_rank_and_first_chern_weight",),
    ),
    Mutant(
        "cramer-through-simple-root-numerators",
        "src/parabolica/bundle.py",
        "return tuple(sum(map(mul, row, nums)) for row in p.levi.cartan_t_adjugate), denom",
        "return p.levi.simple_root_numerators(nums), denom",
        (
            "tests/test_bundle.py::test_broken_residue_identity_raises_invariant_error",
            "tests/test_bundle.py::test_bundle_invariants_survive_optimized_mode",
        ),
    ),
    Mutant(
        "coroot-totals-unscaled",
        "src/parabolica/curvature.py",
        "scales = [common // denom for denom in denominators]",
        "scales = [1 for denom in denominators]",
        ("tests/test_kernel.py::test_hym_constant_is_a_ratio_of_intersection_numbers",),
    ),
    Mutant(
        "kahler-picard-order-reversed",
        "src/parabolica/curvature.py",
        "for i, c in zip(nodes, coeffs)), p), d",
        "for i, c in zip(reversed(nodes), coeffs)), p), d",
        ("tests/test_kernel.py::test_diagram_symmetry_relabels_the_report",),
    ),
    Mutant(
        "subtorus-profile-tiled",
        "src/parabolica/spectral.py",
        "return np.repeat(values, points_per_axis ** (p.ambient_dim - p.codim))",
        "return np.tile(values, points_per_axis ** (p.ambient_dim - p.codim))",
        ("tests/test_spectral.py::test_profile_values_match_point_reference",),
    ),
    Mutant(
        "fft-amplitude-halved",
        "src/parabolica/spectral.py",
        "shared *= math.sqrt(2.0 / manifold.volume) * cell",
        "shared *= math.sqrt(1.0 / manifold.volume) * cell",
        ("tests/test_spectral.py::test_point_profile_quadrature_error_is_navots_term",),
    ),
    Mutant(
        "fft-phase-sign",
        "src/parabolica/spectral.py",
        "np.exp(-1j * math.pi * nu.sum(axis=1) / points_per_axis)",
        "np.exp(1j * math.pi * nu.sum(axis=1) / points_per_axis)",
        ("tests/test_spectral.py::test_point_profile_quadrature_error_is_navots_term",),
    ),
    Mutant(
        "mode-range-admits-grid-size",
        "src/parabolica/spectral.py",
        "if not 0 <= n < total:",
        "if not 0 <= n <= total:",
        ("tests/test_spectral.py::test_mode_table_is_refused_before_sampling",),
    ),
    Mutant(
        "levi-nodes-rendered-zero-based",
        "src/parabolica/cli.py",
        '"levi_nodes": [i + 1 for i in p.levi_nodes],',
        '"levi_nodes": [i for i in p.levi_nodes],',
        (
            "tests/test_cli.py::test_paper_suite_quiet_stdout_is_pinned",
            "tests/test_cli.py::test_report_is_byte_stable",
        ),
    ),
    Mutant(
        "profile-colon-unchecked",
        "src/parabolica/cli.py",
        "if not colon:",
        'if not values["profile"]:',
        ("tests/test_cli.py::test_main_spectral_rejects_bad_values",),
    ),
    Mutant(
        "point-profile-takes-spectral-keys",
        "src/parabolica/cli.py",
        '("s",) if kind == "point"',
        '_SPECTRAL_KEYS if kind == "point"',
        ("tests/test_cli.py::test_spectral_defaults_are_shared",),
    ),
    Mutant(
        "torus-sides-finiteness-dropped",
        "src/parabolica/spectral.py",
        "if not all(map(math.isfinite, sides)):",
        "if False:",
        ("tests/test_spectral.py::test_flat_torus_validation",),
    ),
    Mutant(
        "torus-side-bound-dropped",
        "src/parabolica/spectral.py",
        "if not math.isfinite(s * s) or not math.isfinite(top * top):",
        "if False:",
        ("tests/test_spectral.py::test_flat_torus_validation",),
    ),
    Mutant(
        "torus-volume-check-dropped",
        "src/parabolica/spectral.py",
        "if not 0.0 < math.prod(sides) < math.inf:",
        "if False:",
        ("tests/test_spectral.py::test_flat_torus_validation",),
    ),
    Mutant(
        "h2-overflow-returned",
        "src/parabolica/spectral.py",
        "if not math.isfinite(value):",
        "if False:",
        ("tests/test_spectral.py::test_h2_sums_past_float_range_are_refused",),
    ),
    Mutant(
        "profile-integral-check-dropped",
        "src/parabolica/spectral.py",
        "if value % 1:  # a fraction, or nan or inf",
        "if False:",
        ("tests/test_spectral.py::test_singular_profile_validation",),
    ),
    Mutant(
        "spectral-imported-eagerly",
        "src/parabolica/__init__.py",
        'spectral = _register_deferred("spectral")',
        "from . import spectral",
        ("tests/test_lazy_import.py::test_exact_request_imports_no_numpy",),
    ),
    Mutant(
        "memo-rank-cap",
        "src/parabolica/rootsys.py",
        "    return _memoized_root_system(t)",
        "    if t.rank > 8:\n        return _memoized_root_system.__wrapped__(t)\n"
        "    return _memoized_root_system(t)",
        (
            "tests/test_rootsys.py::test_every_rank_is_built_once",
            "tests/test_rootsys.py::test_memo_holds_one_entry_per_type",
        ),
    ),
    Mutant(
        "type-rank-truncated",
        "src/parabolica/rootsys.py",
        "if rank % 1:",
        "if False:",
        ("tests/test_rootsys.py::test_fractional_rank_is_refused",),
    ),
    Mutant(
        "cartan-entries-truncated",
        "src/parabolica/rootsys.py",
        "if cartan[i][j] % 1:",
        "if False:",
        ("tests/test_rootsys.py::test_malformed_cartan_is_refused",),
    ),
    Mutant(
        "record-equality-across-classes",
        "src/parabolica/rootsys.py",
        "if other.__class__ is self.__class__:",
        "if isinstance(other, _Record):",
        ("tests/test_rootsys.py::test_records_of_different_classes_are_unequal",),
    ),
    Mutant(
        "weyl-dim-integral-check-dropped",
        "src/parabolica/bundle.py",
        "if not lambda_s.is_integral:",
        "if False:",
        ("tests/test_bundle.py::test_weyl_dim_rejects_non_integral",),
    ),
    Mutant(
        "omega-trace-on-levi-node",
        "src/parabolica/curvature.py",
        "if alpha not in p.picard_nodes:",
        "if not 0 <= alpha < p.rs.rank:",
        ("tests/test_curvature.py::test_curvature_refusals",),
    ),
)


def failed_tests(report: Path) -> set[str]:
    """file::name of every test case, parameters dropped, with a failure or
    an error in a junit XML report."""
    failed = set()
    for case in ElementTree.parse(report).iter("testcase"):
        if case.find("failure") is not None or case.find("error") is not None:
            module = case.get("classname", "").replace(".", "/")
            failed.add(f"{module}.py::{case.get('name', '').split('[')[0]}")
    return failed


def run(mutant: Mutant) -> tuple[bool, str]:
    """(caught, detail) for one mutant, applied to a temporary copy."""
    with tempfile.TemporaryDirectory(prefix="mutant-") as tmp:
        work = Path(tmp)
        ignore = shutil.ignore_patterns("__pycache__", ".hypothesis", ".pytest_cache")
        for part in ("src", "tests"):
            shutil.copytree(ROOT / part, work / part, ignore=ignore)
        shutil.copy(ROOT / "pyproject.toml", work)
        target = work / mutant.file
        text = target.read_text()
        if text.count(mutant.snippet) != 1:
            return False, f"snippet occurs {text.count(mutant.snippet)} times in {mutant.file}"
        target.write_text(text.replace(mutant.snippet, mutant.replacement))
        report = work / "report.xml"
        command = [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", f"--junitxml={report}"]
        env = dict(os.environ, PYTHONPATH=str(work / "src"))
        try:
            subprocess.run(
                command + list(mutant.tests), cwd=work, env=env, capture_output=True, text=True, timeout=TIMEOUT_S
            )
        except subprocess.TimeoutExpired:
            return False, f"no report within {TIMEOUT_S} s"
        if not report.exists():
            return False, "pytest wrote no report"
        missed = [test for test in mutant.tests if test not in failed_tests(report)]
        return not missed, ("did not fail: " + ", ".join(missed)) if missed else f"{len(mutant.tests)} test(s) failed"


def main(names: list[str]) -> int:
    known = {mutant.name: mutant for mutant in MUTANTS}
    unknown = [name for name in names if name not in known]
    if unknown:
        print(f"unknown mutant(s): {', '.join(unknown)}; known: {', '.join(known)}", file=sys.stderr)
        return 2
    chosen = [known[name] for name in names] or list(MUTANTS)
    missed = 0
    for mutant in chosen:
        caught, detail = run(mutant)
        missed += not caught
        print(f"{'caught' if caught else 'MISSED'}  {mutant.name}  ({detail})", flush=True)
    print(f"{len(chosen) - missed} of {len(chosen)} caught")
    return 1 if missed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
