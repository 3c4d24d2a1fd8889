"""Output checks.  Any CheckError marks the op as failed.

Three layers of checking, all read from what the program printed:

- every op: exit 0, empty stderr, stdout that is strict JSON (no NaN or
  Infinity);
- any seed: identities that hold for every correct report;
- the default seed: goldens recorded from the parent of the benchmark, byte
  for byte on the exact side and within a relative tolerance on the float side.
"""
from __future__ import annotations

import hashlib
import json
import math
from fractions import Fraction

# Float tolerance for spectral goldens: loose enough for a reordered
# summation (an FFT drifts by about 1e-15), tight enough to catch a wrong mode.
SPECTRAL_RTOL = 1e-9
SPECTRAL_ATOL = 1e-12


class CheckError(Exception):
    """An op's output is wrong; the message says which check failed."""


def _reject_constant(name: str):
    raise CheckError(f"non-standard JSON constant {name}")


def strict_json(text: str):
    try:
        return json.loads(text, parse_constant=_reject_constant)
    except json.JSONDecodeError as exc:
        raise CheckError(f"stdout is not JSON: {exc}") from exc


def _fractions(values) -> list[Fraction]:
    return [Fraction(v) for v in values]


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckError(message)


def check_splitting(block: dict, levi_nodes: list[int]) -> None:
    """Identities of a splitting block; levi_nodes are 1-based."""
    rank = block["rank"]
    _require(isinstance(rank, int) and rank > 0, f"rank {rank!r} is not a positive integer")
    lambda_e = _fractions(block["lambda_E"])
    _require(all(lambda_e[i - 1] == 0 for i in levi_nodes), "lambda_E is not zero on the Levi nodes")
    integral = all(v.denominator == 1 for v in _fractions(block["criterion"].values()))
    _require(block["splits"] == integral, "splits disagrees with the integrality of the criterion")
    if block["splits"]:
        expected = [c / rank for c in lambda_e]
        _require(_fractions(block["lambda_L0"]) == expected, "lambda_L0 != lambda_E / rank")
    else:
        _require(block["lambda_L0"] is None, "lambda_L0 given for a bundle that does not split")


def check_curvature(block: dict) -> None:
    eigen_sum = sum(_fractions(block["eigenvalues"].values()), Fraction(0))
    _require(eigen_sum == Fraction(block["trace"]), "curvature trace != sum of eigenvalues")


def check_analyze(report: dict) -> None:
    check_splitting(report["splitting"], report["parabolic"]["levi_nodes"])
    if "curvature" in report:
        check_curvature(report["curvature"])


def positive_root_count(lie_type: str) -> int:
    """Closed-form count, kept here so the check does not trust parabolica's own."""
    family, n = lie_type[0], int(lie_type[1:])
    table = {"A": n * (n + 1) // 2, "B": n * n, "C": n * n, "D": n * (n - 1), "G": 6, "F": 24}
    return table[family] if family in table else {6: 36, 7: 63, 8: 120}[n]


def check_dump_roots(report: dict) -> None:
    lie_type = report["type"]
    count = len(report["positive_roots"])
    _require(count == positive_root_count(lie_type), f"{lie_type}: {count} positive roots")
    _require(all(row[i] == 2 for i, row in enumerate(report["cartan"])), "Cartan diagonal is not 2")


def check_spectral(report: dict) -> None:
    # The generator only draws s < codim/2, so the profile must be L2.
    _require(report["integrable"]["finite"] is True, "square-integrable profile reported as not finite")
    residuals = [row["residual"] for row in report["residuals"]]
    ladder = [row["n"] for row in report["residuals"]]
    _require(ladder == sorted(set(ladder)), "truncation ladder is not increasing")
    _require(
        all(b <= a for a, b in zip(residuals, residuals[1:])),
        "residuals increase along the truncation ladder",
    )
    for row in report["h2_gaps"]:
        _require(row["bound"] >= row["gap"] * (1.0 - 1e-12), f"H2 bound < gap at m={row['m']}")


def check_sweep_record(record: dict) -> None:
    """Identities of one exact-sweep query (see worker.render_sweep)."""
    check_splitting(record, record["levi"])
    trace = Fraction(record["endo_trace"])
    _require(sum(_fractions(record["eigenvalues"]), Fraction(0)) == trace, "endo trace != sum of eigenvalues")
    if record["splits"]:
        # hym_constant is linear in the line weight and lambda_E = rank * lambda_L0.
        _require(trace == record["rank"] * Fraction(record["hym_L0"]), "endo trace != rank * hym(L0)")
    else:
        _require(record["hym_L0"] is None, "hym constant given for a bundle that does not split")


CHECK_BY_KIND = {
    "analyze": check_analyze,
    "curvature": check_curvature,
    "dump-roots": check_dump_roots,
    "spectral": check_spectral,
    "sweep": check_sweep_record,
}


def check_output(kind: str, exit_code: int, stdout: str, stderr: str) -> dict:
    """Per-op checks plus the kind's identities; returns the parsed report."""
    _require(exit_code == 0, f"exit code {exit_code}; stderr {stderr.strip()[:200]!r}")
    _require(stderr == "", f"stderr not empty: {stderr.strip()[:200]!r}")
    report = strict_json(stdout)
    try:
        CHECK_BY_KIND[kind](report)
    except (KeyError, TypeError, ValueError, ZeroDivisionError) as exc:
        raise CheckError(f"malformed {kind} report: {exc!r}") from exc
    return report


# ---------------------------------------------------------------------------
# Goldens
# ---------------------------------------------------------------------------


def exact_digest(stdout: str) -> str:
    return hashlib.sha256(stdout.encode()).hexdigest()[:16]


def spectral_golden(report) -> dict:
    """Every float of a spectral report, plus a digest of everything else."""
    floats: list[float] = []

    def skeleton(node):
        if isinstance(node, dict):
            return {k: skeleton(v) for k, v in node.items()}
        if isinstance(node, list):
            return [skeleton(v) for v in node]
        if type(node) is float:
            floats.append(node)
            return "<float>"
        return node

    shape = json.dumps(skeleton(report), separators=(",", ":"))
    return {"shape": exact_digest(shape), "floats": floats}


def golden_of(kind: str, stdout: str, report):
    """What a golden file stores for one op."""
    return spectral_golden(report) if kind == "spectral" else exact_digest(stdout)


def compare_golden(kind: str, stdout: str, report, golden) -> None:
    actual = golden_of(kind, stdout, report)
    if kind != "spectral":
        _require(actual == golden, "stdout differs from the golden")
        return
    _require(actual["shape"] == golden["shape"], "report structure differs from the golden")
    _require(len(actual["floats"]) == len(golden["floats"]), "float count differs from the golden")
    for pos, (a, b) in enumerate(zip(actual["floats"], golden["floats"])):
        if not math.isclose(a, b, rel_tol=SPECTRAL_RTOL, abs_tol=SPECTRAL_ATOL):
            raise CheckError(f"float #{pos} is {a!r}, golden {b!r}")
