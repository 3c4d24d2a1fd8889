from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from parabolica.cli import (
    FixtureMismatchError,
    SpectralRequest,
    _build_parser,
    _check_fixture,
    _lie_fields,
    build_analysis_report,
    main,
    run_reference_suite,
)

from oracles import check_report


def _analyze(capsys, *flags: str) -> dict:
    """The report of `analyze` with these flags, which must exit 0."""
    assert main(["analyze", *flags]) == 0
    return _strict_json(capsys.readouterr().out)


def _refusal(capsys, *flags: str) -> str:
    """The one stderr line of an `analyze` that must exit 1 with no report."""
    assert main(["analyze", *flags]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.count("\n") == 1
    return captured.err


def test_parse_spinor_request(capsys):
    report = _analyze(capsys, "--type", "B3", "--parabolic", "2,3", "--weight", "0,0,1")
    assert report["request"] == {"lie_type": "B3", "parabolic": [2, 3], "weight": [0, 0, 1]}
    assert "curvature" not in report and "spectral" not in report


def test_parse_universal_request(capsys):
    report = _analyze(capsys, "--type", "a3", "--parabolic", "3,1", "--weight", "1,0,0")
    assert report["request"] == {"lie_type": "A3", "parabolic": [1, 3], "weight": [1, 0, 0]}


def test_parse_rejects_full_node_set(capsys):
    err = _refusal(capsys, "--type", "A3", "--parabolic", "1,2,3", "--weight", "1,0,0")
    assert err == "error: --parabolic: the full node set is not a parabolic (the variety would be a point)\n"


def test_parse_rejects_bad_weight_length(capsys):
    err = _refusal(capsys, "--type", "A3", "--parabolic", "1,3", "--weight", "1,0")
    assert err == "error: --weight: expected 3 coordinates, got 2\n"


def test_parse_rejects_unknown_family(capsys):
    assert _refusal(capsys, "--type", "Q5", "--parabolic", "1", "--weight", "1,0,0").startswith("error: ")


def test_parse_rejects_duplicates_and_range(capsys):
    err = _refusal(capsys, "--type", "A3", "--parabolic", "1,1", "--weight", "0,0,0")
    assert err == "error: --parabolic: duplicate node indices\n"
    err = _refusal(capsys, "--type", "A3", "--parabolic", "4", "--weight", "0,0,0")
    assert err == "error: --parabolic: node 4 outside 1..3\n"


# Each flag of a full request shows up in the report's blocks: the request
# goes in as tokens and comes back out of `main` unchanged.
def test_request_round_trip(capsys):
    report = _analyze(
        capsys,
        "--type=B3",
        "--parabolic=2,3",
        "--weight=0,0,1",
        "--kahler=1",
        "--line=-1",
        "--spectral=dim=2,modes=16,s=0.25,codim=1,hym=2.5",
    )
    assert report["request"] == {"lie_type": "B3", "parabolic": [2, 3], "weight": [0, 0, 1]}
    assert report["curvature"]["kahler_class"] == ["1"]
    assert report["curvature"]["psi"] == ["-1", "0", "0"]
    block = report["spectral"]
    assert block["torus_sides"] == [1.0, 1.0]
    assert block["profile"] == {"codim": 1, "exponent": 0.25}
    assert block["residuals"][-1]["n"] == 16
    assert block["hym_target"] == 2.5  # the spinor bundle does not split, so hym= is the target


def test_request_round_trip_minimal(capsys):
    report = _analyze(capsys, "--type=D4", "--parabolic=1,2", "--weight=1,1,0,0")
    assert report["request"] == {"lie_type": "D4", "parabolic": [1, 2], "weight": [1, 1, 0, 0]}
    assert report["parabolic"]["picard_nodes"] == [3, 4]
    assert "curvature" not in report and "spectral" not in report


def test_request_round_trip_leading_negatives(capsys):
    # --flag=value keeps a leading minus from being read as an option
    report = _analyze(capsys, "--type=A3", "--parabolic=2,3", "--weight=-1,0,0")
    assert report["request"]["weight"] == [-1, 0, 0]
    report = _analyze(capsys, "--type=A3", "--parabolic=2", "--weight=-1,0,-2", "--kahler=1/2,3", "--line=-2,1")
    assert report["request"] == {"lie_type": "A3", "parabolic": [2], "weight": [-1, 0, -2]}
    assert report["curvature"]["kahler_class"] == ["1/2", "3"]
    assert report["curvature"]["psi"] == ["-2", "0", "1"]


def test_report_is_byte_stable():
    req = dict(lie_type="B3", parabolic=(2, 3), weight=(0, 0, 2))
    first = json.dumps(build_analysis_report(**req))
    second = json.dumps(build_analysis_report(**req))
    assert first == second


def test_report_rationals_rendered_as_strings():
    report = build_analysis_report(lie_type="B3", parabolic=(2, 3), weight=(0, 0, 1))
    assert report["schema_version"] == "1"
    assert report["splitting"]["criterion"] == {"1": "-1/2"}
    assert report["splitting"]["lambda_E"] == ["-2", "0", "0"]
    assert report["parabolic"]["det_levi_cartan"] == "2"


def test_reference_suite_passes():
    reports = run_reference_suite()
    names = [entry["name"] for entry in reports]
    assert names == [
        "universal-bundle-gr2c4",
        "spinor-bundle-q5",
        "sym2-spinor-q5",
        "spin8-fundamental",
        "spin8-adjoint-levi",
        "tangent-gr2c4",
    ]


def test_fixture_mismatch_names_field():
    with pytest.raises(FixtureMismatchError, match="demo-fixture.*rank"):
        _check_fixture("demo-fixture", {"rank": 3}, {"rank": 4})
    with pytest.raises(FixtureMismatchError, match="missing field"):
        _check_fixture("demo-fixture", {"absent": 1}, {})


def test_main_analyze_exit_zero(capsys):
    assert main(["analyze", "--type", "A3", "--parabolic", "1,3", "--weight", "1,0,0"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["splitting"]["splits"] is False


def test_main_output_deterministic(capsys):
    argv = ["analyze", "--type", "D4", "--parabolic", "1,2", "--weight", "1,1,0,0"]
    assert main(argv) == 0
    first = capsys.readouterr().out
    assert main(argv) == 0
    second = capsys.readouterr().out
    assert first == second


def test_main_input_error_exit_one(capsys):
    assert main(["analyze", "--type", "A3", "--parabolic", "1,2,3", "--weight", "1,0,0"]) == 1
    err = capsys.readouterr().err
    assert "full node set" in err


def test_main_dump_roots(capsys):
    assert main(["dump-roots", "--type", "B3"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload == {
        "type": "B3",
        "cartan": [[2, -1, 0], [-1, 2, -2], [0, -1, 2]],
        "positive_roots": [
            [0, 0, 1],
            [0, 1, 0],
            [1, 0, 0],
            [0, 1, 1],
            [1, 1, 0],
            [0, 1, 2],
            [1, 1, 1],
            [1, 1, 2],
            [1, 2, 2],
        ],
    }


def test_main_curvature(capsys):
    assert main(["curvature", "--type", "A3", "--parabolic", "1,3", "--kahler", "1", "--line", "1"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["trace"] == "4"
    assert payload["hym_constant"] == "4"
    assert payload["omega_traces"] == {"2": "4"}
    assert set(payload["eigenvalues"].values()) == {"1"}


def test_main_curvature_default_einstein(capsys):
    assert main(["curvature", "--type", "B3", "--parabolic", "2,3"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["kahler_class"] == ["5"]
    assert set(payload["eigenvalues"].values()) == {"1"}


def test_main_paper_suite(capsys):
    assert main(["paper-suite", "--quiet"]) == 0
    out = capsys.readouterr().out
    payload = json.loads(out)
    assert len(payload) == 6


# sha256 of `paper-suite --quiet` stdout.  The suite's reports are the pinned
# outputs of the exact side; a change that moves any byte of them must say so
# here.
PAPER_SUITE_SHA256 = "26884516927e8f7a3c777e381da161a6c4118769b985142dc7d0decaff5e8910"


def test_paper_suite_quiet_stdout_is_pinned(capsys):
    assert main(["paper-suite", "--quiet"]) == 0
    out = capsys.readouterr().out
    check_report(json.loads(out))
    assert hashlib.sha256(out.encode()).hexdigest() == PAPER_SUITE_SHA256


# sha256 of the concatenated stdout of these spectral requests: d = 1 point
# and subtorus, d = 2 point and codim-1 subtorus, d = 3 on the default 64^3
# grid, one CSV ladder and one analyze report with a spectral block.  Taken
# before the profile was sampled on the tensor grid of its cut axes.
SPECTRAL_REQUESTS = (
    ["spectral", "--dim=1", "--modes=128", "--profile=point:s=0.25"],
    ["spectral", "--dim=1", "--modes=300", "--profile=subtorus:s=0.4,codim=1"],
    ["spectral", "--dim=2", "--modes=512", "--profile=point:s=0.25"],
    ["spectral", "--dim=2", "--modes=200", "--profile=subtorus:s=0.3,codim=1"],
    ["spectral", "--dim=3", "--modes=100", "--profile=subtorus:s=0.6,codim=2"],
    ["spectral", "--dim=2", "--modes=64", "--profile=point:s=0.45", "--csv"],
    ["analyze", "--type=B3", "--parabolic=2,3", "--weight=0,0,2", "--spectral=dim=2,modes=64,s=0.3,codim=1"],
)
SPECTRAL_SHA256 = "a33fe31396e3357f887129870cca541b2c71d8cc4702f02e9f4515da9abaca8e"


# One field of a consistent report changed so that the report contradicts
# itself, for each rule of check_report.
_CONTRADICTIONS = {
    "splits-without-l0": lambda r: r["splitting"].update(lambda_L0=None),
    "trace": lambda r: r["curvature"].update(trace="0"),
    "eigenvalue-count": lambda r: r["parabolic"]["phi_I_plus"].append([1, 1, 1]),
    "finite-but-divergent": lambda r: r["spectral"]["integrable"].update(certificate="divergent"),
    "tube-integral": lambda r: r["spectral"]["integrable"].update(tube_integral=1.0),
    "rising-residuals": lambda r: r["spectral"]["residuals"].reverse(),
    "c0": lambda r: r["spectral"].update(c0=0.0),
}


@pytest.mark.parametrize("contradiction", _CONTRADICTIONS)
def test_report_checker_flags_each_contradiction(capsys, contradiction):
    report = _analyze(capsys, "--type=B3", "--parabolic=2,3", "--weight=0,0,2", "--kahler=1", "--spectral=s=0.25,modes=16")
    check_report(report)
    _CONTRADICTIONS[contradiction](report)
    with pytest.raises(AssertionError):
        check_report(report)


def test_spectral_stdout_is_pinned(capsys):
    digest = hashlib.sha256()
    for tokens in SPECTRAL_REQUESTS:
        assert main(tokens) == 0, tokens
        out = capsys.readouterr().out
        if "--csv" not in tokens:
            check_report(json.loads(out))
        digest.update(out.encode())
    assert digest.hexdigest() == SPECTRAL_SHA256


# sha256 of the concatenated stdout of the edge requests of the spectral
# ladder: no modes past the constant, one mode, the top of the benchmark's
# --modes range with its own --hym, and an analyze report that splits, so
# its hym_target is the L0 constant (-5.0).  Taken before SpectralFunction
# held its coefficients as one array.
SPECTRAL_EDGE_REQUESTS = (
    ["spectral", "--dim=1", "--modes=0", "--profile=point:s=0.25"],
    ["spectral", "--dim=1", "--modes=1", "--profile=point:s=0.25"],
    ["spectral", "--dim=1", "--modes=4096", "--profile=subtorus:s=0.3,codim=1", "--hym=0.75"],
    ["analyze", "--type=B3", "--parabolic=2,3", "--weight=0,0,2", "--kahler=1", "--spectral=dim=1,modes=200,s=0.25"],
)
SPECTRAL_EDGE_SHA256 = "6171ca62e7554281d0514e759cbac8b1f1506adca155945c72379133cc5c2b36"


def test_spectral_edge_stdout_is_pinned(capsys):
    digest = hashlib.sha256()
    for tokens in SPECTRAL_EDGE_REQUESTS:
        assert main(tokens) == 0, tokens
        out = capsys.readouterr().out
        check_report(json.loads(out))
        digest.update(out.encode())
    assert digest.hexdigest() == SPECTRAL_EDGE_SHA256


# sha256 of the concatenated stdout of subtorus requests in d >= 3, each on
# its default grid: codim 1 of d = 3 (64^3), codim 1 and 3 of d = 4 (16^4),
# codim 2 of d = 6 (8^6), codim 1 of d = 10 (2^10, where every frequency
# +-1 is the Nyquist one), a CSV ladder and an analyze report with a d = 3
# codim-2 spectral block.  Taken while the FFT still ran over the whole
# N^d grid.
SUBTORUS_REQUESTS = (
    ["spectral", "--dim=3", "--modes=300", "--profile=subtorus:s=0.35,codim=1"],
    ["spectral", "--dim=4", "--modes=500", "--profile=subtorus:s=0.2,codim=1"],
    ["spectral", "--dim=4", "--modes=1000", "--profile=subtorus:s=1.2,codim=3", "--hym=0.5"],
    ["spectral", "--dim=6", "--modes=400", "--profile=subtorus:s=0.7,codim=2"],
    ["spectral", "--dim=10", "--modes=1023", "--profile=subtorus:s=0.3,codim=1"],
    ["spectral", "--dim=4", "--modes=64", "--profile=subtorus:s=0.45,codim=1", "--csv"],
    ["analyze", "--type=B3", "--parabolic=2,3", "--weight=0,0,2", "--spectral=dim=3,modes=100,s=0.9,codim=2"],
)
SUBTORUS_SHA256 = "1269145658133bdaf972d3e4bde44e9b377a6faf33313c84d072d81f99f89d0a"


def test_subtorus_stdout_is_pinned(capsys):
    digest = hashlib.sha256()
    for tokens in SUBTORUS_REQUESTS:
        assert main(tokens) == 0, tokens
        out = capsys.readouterr().out
        if "--csv" not in tokens:
            check_report(json.loads(out))
        digest.update(out.encode())
    assert digest.hexdigest() == SUBTORUS_SHA256


# sha256 of the concatenated stdout of these curvature requests: the Einstein
# class by default, a Kahler class with a line, a line alone, a fractional
# Kahler class, and the full flag variety of E8.  Taken before curvature read
# its flags through analyze's reader.
CURVATURE_REQUESTS = (
    ["curvature", "--type=A3", "--parabolic=1,3"],
    ["curvature", "--type=A3", "--parabolic=1,3", "--kahler=1", "--line=1"],
    ["curvature", "--type=G2", "--parabolic=1", "--line=-2"],
    ["curvature", "--type=D4", "--parabolic=1,2", "--kahler=1/2,3"],
    ["curvature", "--type=E8", "--parabolic=", "--kahler=1,2,3,4,5,6,7,8"],
)
CURVATURE_SHA256 = "1aad5d812ee4de83ea9bd1f89cb7cdbc4514425108b8cc522cc36830527d4259"


def test_curvature_stdout_is_pinned(capsys):
    digest = hashlib.sha256()
    for tokens in CURVATURE_REQUESTS:
        assert main(tokens) == 0, tokens
        out = capsys.readouterr().out
        check_report(json.loads(out))
        digest.update(out.encode())
    assert digest.hexdigest() == CURVATURE_SHA256


@pytest.mark.parametrize(
    "argv, message",
    [
        (["curvature", "--type=A2", "--parabolic=1", "--kahler=1,2,3"], "--kahler: expected 1 coefficient(s)"),
        (["curvature", "--type=A2", "--parabolic=1", "--line=1,2"], "--line: expected 1 coefficient(s)"),
        (
            ["analyze", "--type=A2", "--parabolic=1", "--weight=1,0", "--kahler=1", "--line=1,2"],
            "--line: expected 1 coefficient(s)",
        ),
        # an empty value is refused, not read as an absent flag
        (["curvature", "--type=A3", "--parabolic=1,3", "--kahler=", "--line="], "--kahler: expected 1 coefficient(s)"),
        (["curvature", "--type=A3", "--parabolic=1,3", "--line="], "--line: expected 1 coefficient(s)"),
        (["analyze", "--type=A2", "--parabolic=1", "--weight=1,0", "--kahler="], "--kahler: expected 1 coefficient(s)"),
        (
            ["analyze", "--type=A2", "--parabolic=1", "--weight=1,0", "--kahler=1", "--line="],
            "--line: expected 1 coefficient(s)",
        ),
    ],
    ids=[
        "curvature-kahler",
        "curvature-line",
        "analyze-line",
        "curvature-empty-kahler",
        "curvature-empty-line",
        "analyze-empty-kahler",
        "analyze-empty-line",
    ],
)
def test_wrong_picard_length_names_its_flag(capsys, argv, message):
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("\n") == 1
    assert captured.err.startswith(f"error: {message} over the Picard nodes, got ")


def test_analyze_line_needs_kahler(capsys):
    assert main(["analyze", "--type=A2", "--parabolic=1", "--weight=1,0", "--line=1"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("\n") == 1 and captured.err.startswith("error: --line: ")
    assert "--kahler" in captured.err


@pytest.mark.parametrize(
    "argv, label",
    [
        (["curvature", "--type=A2", "--parabolic=1", "--line=" + "9" * 8000 + "x"], "--line"),
        (["analyze", "--type=A2", "--parabolic=1", "--weight=" + "9" * 8000 + "x"], "--weight"),
        (["spectral", "--modes=" + "9" * 5000 + "x", "--profile=point:s=0.25"], "--modes"),
        (["analyze", "--type=A2", "--parabolic=1", "--weight=1,0", "--spectral=s=" + "9" * 5000 + "x"], "--spectral: "),
    ],
    ids=["line", "weight", "modes", "spectral"],
)
def test_error_line_echoes_a_bounded_input(capsys, argv, label):
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("\n") == 1 and captured.err.startswith("error: ")
    assert len(captured.err) <= 200 + len("error: \n")
    assert label in captured.err and captured.err.endswith("...\n")


def test_closed_stdout_exits_one_without_traceback():
    # The read end is closed before the child starts, so its first write
    # fails with EPIPE whatever the pipe's buffer size.
    read_end, write_end = os.pipe()
    os.close(read_end)
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
    try:
        done = subprocess.run(
            [sys.executable, "-m", "parabolica.cli", "dump-roots", "--type=E8"],
            stdout=write_end,
            stderr=subprocess.PIPE,
            text=True,
            env=env,
        )
    finally:
        os.close(write_end)
    assert done.returncode == 1
    assert "Traceback" not in done.stderr
    assert done.stderr == ""


def test_main_paper_suite_progress_lines(capsys):
    assert main(["paper-suite"]) == 0
    captured = capsys.readouterr()
    assert captured.err.count("ok ") == 6
    assert len(json.loads(captured.out)) == 6


def test_main_paper_suite_mismatch_exit_two(capsys, monkeypatch):
    import parabolica.cli as cli_module

    broken = dict(cli_module._REFERENCE_FIXTURES[0])
    broken["expected"] = dict(broken["expected"], rank=99)
    monkeypatch.setattr(cli_module, "_REFERENCE_FIXTURES", (broken,))
    assert main(["paper-suite"]) == 2
    err = capsys.readouterr().err
    assert "universal-bundle-gr2c4" in err and "rank" in err


def test_analyze_with_curvature_and_spectral_blocks(capsys):
    argv = [
        "analyze",
        "--type",
        "B3",
        "--parabolic",
        "2,3",
        "--weight",
        "0,0,2",
        "--kahler",
        "1",
        "--line",
        "-1",
        "--spectral",
        "dim=1,modes=16,s=0.25",
    ]
    assert main(argv) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["curvature"]["hym_constant"] == "-5"
    assert payload["spectral"]["integrable"]["finite"] is True
    # the demo targets the constant mean curvature of the split-off L0
    assert payload["spectral"]["hym_target"] == -5.0
    profile_mean = 2.0 * math.pi * -5.0 - payload["spectral"]["c0"]
    assert profile_mean > 0.0


def test_main_spectral_json(capsys):
    assert (
        main(["spectral", "--dim", "1", "--modes", "32", "--profile", "point:s=0.25"]) == 0
    )
    payload = json.loads(capsys.readouterr().out)
    assert payload["integrable"]["finite"] is True
    assert payload["residuals"][-1]["n"] == 32
    assert len(payload["coeffs_head"]) == 8


def test_main_spectral_not_integrable(capsys):
    assert main(["spectral", "--dim", "1", "--modes", "8", "--profile", "point:s=0.9"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["integrable"]["finite"] is False
    assert "residuals" not in payload


@pytest.mark.parametrize(
    "argv",
    [
        ["spectral", "--profile=point:s=200"],
        ["spectral", "--profile=point:s=1e308"],
        ["spectral", "--dim=2", "--profile=point:s=1.0000000000000002"],
        ["analyze", "--type=A1", "--parabolic=", "--weight=1", "--spectral=s=200"],
    ],
    ids=["s-200", "s-1e308", "ulp-above-half-codim", "analyze-s-200"],
)
def test_non_l2_exponent_is_certified_divergent(capsys, argv):
    assert main(argv) == 0
    payload = _strict_json(capsys.readouterr().out)
    block = payload["spectral"] if argv[0] == "analyze" else payload
    assert block["integrable"] == {"finite": False, "certificate": "divergent", "tube_integral": "divergent"}
    assert "residuals" not in block


def test_main_spectral_csv(capsys):
    assert (
        main(["spectral", "--dim", "1", "--modes", "16", "--profile", "point:s=0.25", "--csv"])
        == 0
    )
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "n,residual"
    assert lines[1].startswith("2,")
    assert lines[-1].startswith("16,")


def test_main_spectral_bad_profile(capsys):
    assert main(["spectral", "--dim", "1", "--modes", "8", "--profile", "blob:s=1"]) == 1
    assert "singular-set kind" in capsys.readouterr().err


def test_spectral_subtorus_profile(capsys):
    argv = [
        "spectral",
        "--dim",
        "2",
        "--modes",
        "8",
        "--profile",
        "subtorus:s=0.25,codim=1",
    ]
    assert main(argv) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["profile"]["codim"] == 1


def _strict_json(text: str):
    def refuse(token):
        raise ValueError(f"non-standard JSON constant {token}")

    return json.loads(text, parse_constant=refuse)


def test_main_spectral_three_dim_default_grid(capsys):
    assert main(["spectral", "--dim=3", "--profile=point:s=0.5"]) == 0
    payload = _strict_json(capsys.readouterr().out)
    assert payload["torus_sides"] == [1.0, 1.0, 1.0]
    assert payload["residuals"][-1]["n"] == 128


def test_main_spectral_residual_ladder_never_increases(capsys):
    argv = ["spectral", "--dim=2", "--modes=113", "--profile=subtorus:s=0.0838,codim=1"]
    assert main(argv) == 0
    residuals = [row["residual"] for row in _strict_json(capsys.readouterr().out)["residuals"]]
    assert [a >= b for a, b in zip(residuals, residuals[1:])] == [True] * (len(residuals) - 1)


@pytest.mark.parametrize(
    "argv, message",
    [
        (["--modes=-3", "--profile=point:s=0.25"], "modes must be nonnegative"),
        (["--profile=point:s=nan"], "s must be finite"),
        (["--profile=point:s=inf"], "s must be finite"),
        (["--profile=subtorus:s=-inf,codim=1"], "s must be finite"),
        (["--profile=point:s=0.25", "--hym=nan"], "hym must be finite"),
        (["--profile=point:s=0.25", "--hym=-inf"], "hym must be finite"),
        (["--dim=0", "--profile=point:s=0.25"], "dim must be at least 1"),
        (["--dim=12", "--profile=point:s=0.25"], "frequency box over the budget"),
        (["--dim=40", "--profile=point:s=0.25"], "no default grid for dimension 40"),
        (["--modes=8192", "--profile=point:s=0.25"], "outside 0..8191 for a 8192-point grid"),
        (["--profile=point:s=0.25", "--hym=3e307"], "--hym: hym 3e+307 puts the target mean 2*pi*hym past float range"),
        (["--profile=point:s=0.25", "--hym=-3e307"], "--hym: hym -3e+307 puts the target mean"),
        (["--profile=point:s=0.25,s=0.3"], "--profile: key 's' given twice"),
        (["--profile=subtorus:s=0.25,codim=1,dim=2,dim=3"], "--profile: key 'dim' given twice"),
    ],
)
def test_main_spectral_rejects_bad_values(capsys, argv, message):
    assert main(["spectral", "--modes=8", *argv]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert message in captured.err


@pytest.mark.parametrize(
    "spec, message",
    [
        ("dim=1,modes=-3,s=0.25", "modes must be nonnegative"),
        ("dim=1,modes=8,s=nan", "s must be finite"),
        ("dim=1,modes=8,s=0.25,hym=inf", "hym must be finite"),
        ("dim=1,modes=8,s=0.25,hym=3e307", "--spectral: hym 3e+307 puts the target mean 2*pi*hym past float range"),
        ("dim=1,modes=8,s=0.25,s=0.3", "--spectral: key 's' given twice"),
    ],
)
def test_main_analyze_rejects_bad_spectral_spec(capsys, spec, message):
    argv = ["analyze", "--type=A3", "--parabolic=1,3", "--weight=1,0,0", f"--spectral={spec}"]
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert message in captured.err


def test_l0_target_past_float_range_names_kahler(capsys):
    # B3/P(2,3) with Sym^2 of the spinor weight splits; its L0 constant is -5
    # over the Kahler coefficient, so 10^-307 puts 2*pi*hym_target past -inf
    tiny = "0." + "0" * 306 + "1"
    argv = ["analyze", "--type=B3", "--parabolic=2,3", "--weight=0,0,2", f"--kahler={tiny}", "--spectral=s=0.25"]
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: --kahler: values too large or too finely divided for an exact report\n"


def test_main_refuses_to_emit_non_standard_json(capsys, monkeypatch):
    import parabolica.cli as cli_module

    monkeypatch.setattr(cli_module, "_spectral_block", lambda req: {"residual": math.nan})
    assert main(["spectral", "--modes=8", "--profile=point:s=0.25"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "error:" in captured.err


def test_build_analysis_report_derives_splitting_once(monkeypatch):
    import parabolica.cli as cli_module

    calls = []
    original = cli_module.splitting_report

    def counted(spec):
        calls.append(spec)
        return original(spec)

    monkeypatch.setattr(cli_module, "splitting_report", counted)
    report = build_analysis_report(
        lie_type="B3",
        parabolic=(2, 3),
        weight=(0, 0, 2),
        kahler=(Fraction(1),),
        spectral=SpectralRequest(dim=1, modes=16, exponent=0.25),
    )
    assert len(calls) == 1
    assert report["splitting"]["lambda_s"] == ["0", "0", "2"]
    assert report["spectral"]["hym_target"] == -5.0


def test_main_invariant_violation_exit_three(capsys, monkeypatch):
    from parabolica.rootsys import RootSystem

    monkeypatch.setattr(RootSystem, "weight_in_simple_roots", lambda self, w: (Fraction(0),) * self.rank)
    assert main(["analyze", "--type=B3", "--parabolic=2,3", "--weight=0,0,1"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("invariant violated: residue identity failed: B3")
    assert "Traceback" not in captured.err


def test_analyze_borel_parabolic(capsys):
    assert main(["analyze", "--type=A2", "--parabolic=", "--weight=1,0"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["parabolic"]["levi_nodes"] == []
    assert payload["parabolic"]["picard_nodes"] == [1, 2]
    assert payload["splitting"]["rank"] == 1
    assert payload["splitting"]["splits"] is True
    assert payload["splitting"]["lambda_L0"] == ["-1", "0"]


def test_request_round_trip_borel(capsys):
    report = _analyze(capsys, "--type=A2", "--parabolic=", "--weight=1,0")
    assert report["request"] == {"lie_type": "A2", "parabolic": [], "weight": [1, 0]}
    assert report["parabolic"]["levi_nodes"] == []


@pytest.mark.parametrize(
    "argv, message",
    [
        (["curvature", "--type=A3", "--parabolic=1,1"], "--parabolic: duplicate node indices"),
        (["curvature", "--type=A3", "--parabolic=4"], "--parabolic: node 4 outside 1..3"),
        (["curvature", "--type=A3", "--parabolic=1,2,3"], "full node set"),
        (["analyze", "--type=A3", "--parabolic=1,x", "--weight=0,0,0"], "expected comma-separated integers"),
    ],
)
def test_parabolic_nodes_validated_alike(capsys, argv, message):
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert message in captured.err


@pytest.mark.parametrize(
    "argv, message",
    [
        (
            ["analyze", "--type=A3", "--parabolic=1,3", "--weight=1,0,0", "--spectral=dim=1,modes"],
            "--spectral: expected key=value, got 'modes'",
        ),
        (
            ["analyze", "--type=A3", "--parabolic=1,3", "--weight=1,0,0", "--spectral=dim=1"],
            "--spectral: missing required field 's'",
        ),
        (["spectral", "--profile=point:s=0.25,codim"], "--profile: expected key=value, got 'codim'"),
        (["spectral", "--profile=point:codim=1"], "--profile: missing exponent s"),
        (["spectral", "--profile=subtorus:s=0.25"], "--profile: subtorus profiles need codim="),
        (
            ["analyze", "--type=A3", "--parabolic=1,3", "--weight=1,0,0", "--spectral=s=0.25,mode=512"],
            "--spectral: unknown field 'mode'",
        ),
        (["spectral", "--profile=point:s=0.25,mode=512"], "--profile: unknown field 'mode'"),
        (["spectral", "--profile=point:s=0.25,bogus=7"], "--profile: unknown field 'bogus'"),
        # an empty value is refused, not read as an absent flag
        (
            ["analyze", "--type=A2", "--parabolic=1", "--weight=1,0", "--spectral="],
            "--spectral: expected key=value, got ''",
        ),
    ],
)
def test_key_value_specs_share_one_parser(capsys, argv, message):
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert message in captured.err


@pytest.mark.parametrize(
    "argv",
    [
        ["analyze", "--type=A3", "--parabolic=1,3", "--weight=1,0,0", "--json"],
        ["analyze", "--type=A3", "--parabolic=1,3", "--weight=1,0,0", "--csv"],
        ["curvature", "--type=A3", "--parabolic=1,3", "--quiet"],
        ["dump-roots", "--type=B3", "--csv"],
        ["paper-suite", "--csv"],
        ["spectral", "--profile=point:s=0.25", "--report=csv"],
        ["spectral", "--profile=point:s=0.25", "--json"],
        ["spectral", "--profile=point:s=0.25", "--quiet"],
    ],
)
def test_removed_flags_are_rejected(capsys, argv):
    assert main(argv) == 1
    assert capsys.readouterr().out == ""


def test_parser_is_built_once():
    assert _build_parser() is _build_parser()


def test_cold_cache_outputs_match_warm(capsys):
    from parabolica import rootsys

    requests = (
        ["analyze", "--type=E7", "--parabolic=1,2,3,4,5,6", "--weight=1,0,0,0,0,0,-2", "--kahler=2"],
        ["paper-suite", "--quiet"],
    )
    for argv in requests:
        rootsys._memoized_root_system.cache_clear()
        assert main(argv) == 0
        cold = capsys.readouterr().out
        assert main(argv) == 0
        assert capsys.readouterr().out == cold


E8_KAHLER = ",".join(f"{10**16 + 2 * i + 1}/{10**16 + 6 * i + 7}" for i in range(8))
TINY_DECIMAL = "0." + "0" * 400 + "1"


@pytest.mark.parametrize(
    "argv, flags",
    [
        (["curvature", "--type=D9", "--parabolic=7", "--kahler=1,1,1,1,1/2,1,1e308,1"], "--kahler"),
        (
            ["analyze", "--type=B3", "--parabolic=", "--weight=1,1,0", "--spectral=dim=1,modes=16,s=0.25"]
            + ["--kahler=2,1e-320,1e-320", "--line=0,0,-1"],
            "--kahler",
        ),
        (["curvature", "--type=A2", "--parabolic=1", "--kahler=1e3000000"], "--kahler"),
        # no exponent: eight 17-digit p/q push E8's report rationals past 4300 digits
        (["curvature", "--type=E8", "--parabolic=", f"--kahler={E8_KAHLER}"], "--kahler"),
        # a plain decimal whose mean-curvature target passes float range
        (
            ["analyze", "--type=B3", "--parabolic=", "--weight=1,1,0", "--spectral=dim=1,modes=16,s=0.25"]
            + [f"--kahler=2,{TINY_DECIMAL},1", "--line=0,0,-1"],
            "--kahler and --line",
        ),
        # a 600-digit coordinate puts the E7 Levi module's rank past 4300 digits
        (["analyze", "--type=E8", "--parabolic=1,2,3,4,5,6,7", f"--weight={'9' * 600},0,0,0,0,0,0,0"], "--weight"),
        # the L0 target is linear in lambda(L0), and a 400-digit weight puts it past float range
        (["analyze", "--type=A1", "--parabolic=", f"--weight={'9' * 400}", "--kahler=1", "--spectral=s=0.25"], "--weight"),
        # a weight of 10^308 leaves the target in float range but not 2*pi times it
        (["analyze", "--type=A1", "--parabolic=", f"--weight=1{'0' * 308}", "--kahler=1", "--spectral=s=0.25"], "--weight"),
    ],
    ids=[
        "exponent",
        "exponent-with-line",
        "huge-exponent",
        "e8-digits",
        "hym-float-range",
        "e8-weight",
        "l0-target-weight",
        "l0-target-weight-2pi",
    ],
)
def test_oversized_exact_inputs_name_their_flag(capsys, argv, flags):
    start = time.perf_counter()
    assert main(argv) == 1
    elapsed = time.perf_counter() - start
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("\n") == 1
    assert captured.err.startswith(f"error: {flags}: ")
    assert elapsed < 0.5  # 1e3000000 is refused before it becomes a 3-million-digit integer


def test_analyze_builds_each_root_system_once(monkeypatch, capsys):
    from parabolica import rootsys

    enumerated = []
    genuine = rootsys._positive_roots
    monkeypatch.setattr(rootsys, "_positive_roots", lambda cartan: enumerated.append(cartan) or genuine(cartan))
    argv = ["analyze", "--type=B3", "--parabolic=2,3", "--weight=0,0,2"]
    rootsys._memoized_root_system.cache_clear()
    assert _lie_fields(_build_parser().parse_args(argv))["lie_type"] == "B3"
    assert enumerated == []  # parsing only canonicalizes the type
    assert main(argv) == 0
    assert len(enumerated) == 1  # G only: the Levi is read off G's coroot table
    enumerated.clear()
    assert main(argv) == 0
    assert enumerated == []
    rootsys._memoized_root_system.cache_clear()
    assert main(["paper-suite", "--quiet"]) == 0
    assert len(enumerated) == 3  # A3, B3 and D4


def test_curvature_block_computes_kahler_denominators_once(monkeypatch, capsys):
    from parabolica import curvature

    calls = []
    genuine = curvature._kahler_denominators
    monkeypatch.setattr(curvature, "_kahler_denominators", lambda k, p: calls.append(k) or genuine(k, p))
    assert main(["curvature", "--type", "A4", "--parabolic", "2,3", "--kahler", "1,2"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert len(payload["omega_traces"]) == 2
    assert len(calls) == 1


@pytest.mark.parametrize(
    "argv, message",
    [
        (["dump-roots", "--type=A120"], "rank 120 out of range for type A: expected 1..32"),
        (["curvature", "--type=D33", "--parabolic=1"], "rank 33 out of range for type D: expected 3..32"),
        (["analyze", "--type=C1000000", "--parabolic=", "--weight=0"], "rank 1000000 out of range for type C"),
        (["spectral", "--dim=65", "--profile=subtorus:s=0.9,codim=1"], "dim must be at most 64, got 65"),
        (
            ["analyze", "--type=A1", "--parabolic=", "--weight=1", "--spectral=dim=1000000,s=0.9,codim=1"],
            "dim must be at most 64, got 1000000",
        ),
    ],
)
def test_request_sizes_are_bounded(capsys, argv, message):
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("\n") == 1 and message in captured.err


def test_spectral_defaults_are_shared(capsys):
    """`spectral --profile` and `analyze --spectral` read one request with
    the same defaults (dim 1, 128 modes, hym 1), so the blocks agree.  A
    profile's own dim, modes and hym keys are ignored: only the options set
    them."""
    assert main(["spectral", "--profile=point:s=0.25"]) == 0
    alone = json.loads(capsys.readouterr().out)
    assert main(["spectral", "--profile=point:s=0.25,dim=2,modes=8,hym=3"]) == 0
    assert json.loads(capsys.readouterr().out) == alone
    assert main(["analyze", "--type=A1", "--parabolic=", "--weight=1", "--spectral=s=0.25"]) == 0
    assert json.loads(capsys.readouterr().out)["spectral"] == alone
    assert alone["residuals"][-1]["n"] == 128 and alone["hym_target"] == 1.0


# CLI fuzzing: every request exits 0 with strict JSON (or CSV when asked),
# or exits 1 with one line on stderr and nothing on stdout.  A request has at
# most one malformed or extreme field, so the report paths run too.
FUZZ = settings(max_examples=200, deadline=None, derandomize=True, database=None)
_TYPE_RANKS = {"A1": 1, "a3": 3, "B3": 3, "C4": 4, "D4": 4, "G2": 2, "F4": 4, "E6": 6, "A9": 9, "D9": 9}
_NUMBERS = ["0", "-1", "1/2", "1/0", "nan", "inf", "-inf", "1e308", "1e-320", "9" * 40, "x", ""]
_ODD_LISTS = st.lists(st.sampled_from(_NUMBERS), max_size=4).map(",".join)
_FIELDS = {  # flag -> (well-formed values, odd values; None: drawn elsewhere)
    "--type": (list(_TYPE_RANKS), ["A0", "B1", "D1000000", "E9", "G3", "Q3", "A", "3"]),
    "--parabolic": (None, ["1,1", "0", "-1", "99", "1,,2", ",", "x"]),
    "--weight": (["0", "1", "2", "9" * 40], None),
    "--kahler": (["1", "2", "1/2", "1e308", "1e-320"], None),
    "--line": (["0", "1", "-1", "9" * 40], None),
    "--spectral": (
        ["s=0.25", "dim=1,modes=16,s=0.25", "dim=2,modes=8,s=0.2,codim=1", "s=0.9,hym=2"],
        ["dim=0,s=0.25", "dim=1000000,s=0.9", "modes=1000000000,s=0.25", "modes=-1,s=0.25", "s=inf"]
        + ["s=0.25,hym=1e308", "s=0.25,hym=1/0", "s=", "dim", "=", ""],
    ),
    "--profile": (
        ["point:s=0.25", "subtorus:s=0.2,codim=1", "subtorus:s=0.9,codim=1", "point:s=0.7"],
        ["point:s=0.25,codim=x", "subtorus:s=0.2,codim=0", "subtorus:s=0.2,codim=99", "subtorus:s=0.2"]
        + ["point:codim=1", "point:s=nan", "point:s=1/0", "point:s=-1", "point:s=0.25,,", "point:="]
        + ["point", ":", "blob:s=1", ""],
    ),
    "--dim": (["1", "2", "3"], ["0", "-1", "12", "40", "65", "1000000000", "x"]),
    "--modes": (["1", "8", "64"], ["0", "-1", "1000000000", "x"]),
    "--hym": (["1", "-2"], _NUMBERS),
}


@st.composite
def _cli_tokens(draw) -> list[str]:
    command = draw(st.sampled_from(["analyze", "curvature", "spectral", "dump-roots"]))
    odd = draw(st.sampled_from([None, *_FIELDS]))

    def value(flag: str, size: int = 1) -> str:
        good, bad = _FIELDS[flag]
        if flag == odd:
            return draw(st.sampled_from(bad) if bad else _ODD_LISTS)
        return ",".join(draw(st.lists(st.sampled_from(good), min_size=size, max_size=size)))

    def optional(*flags: str, size: int = 1) -> list[str]:
        return [f"{flag}={value(flag, size)}" for flag in flags if flag == odd or draw(st.booleans())]

    if command == "spectral":
        csv = draw(st.sampled_from([[], ["--csv"]]))
        return [command, f"--profile={value('--profile')}", *optional("--dim", "--modes", "--hym"), *csv]
    lie_type = value("--type")
    if command == "dump-roots":
        return [command, f"--type={lie_type}"]
    rank = _TYPE_RANKS.get(lie_type, 3)
    levi = sorted(draw(st.sets(st.integers(1, rank), max_size=rank - 1)))
    nodes = value("--parabolic") if odd == "--parabolic" else ",".join(map(str, levi))
    tokens = [command, f"--type={lie_type}", f"--parabolic={nodes}"]
    if command == "analyze":
        tokens += [f"--weight={value('--weight', rank)}", *optional("--spectral")]
    return tokens + optional("--kahler", "--line", size=rank - len(levi))


@FUZZ
@given(_cli_tokens())
@example(["analyze", "--type=B3", "--parabolic=2,3", "--weight=0,0,2", "--kahler=1e-320", "--spectral=s=0.25"])
@example(["spectral", "--modes=8", "--profile=point:s=0.4999"])
def test_cli_fuzz_exits_cleanly(tokens):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(tokens)
    out, err = out.getvalue(), err.getvalue()
    if code == 0:
        assert err == ""
        if "--csv" in tokens:
            header, *rows = out.splitlines()
            assert header == "n,residual"
            assert all(math.isfinite(float(row.split(",")[1])) for row in rows)
        else:
            check_report(_strict_json(out))
    else:
        assert code == 1, (tokens, err)
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1, err
