"""The benchmark's own tests: seeded generation and output checks.

    python3 -m pytest -q bench/tests
"""
from __future__ import annotations

import contextlib
import copy
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import checks
import reference
import run
import tracer
import worker
import workloads

ROOT = Path(__file__).resolve().parents[2]


def cli_output(tokens: list[str]) -> str:
    import parabolica.cli as cli

    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.main(tokens) == 0
    return out.getvalue()


def sweep_output(lie_type: str, levi: tuple[int, ...], weight: tuple[int, ...]) -> str:
    import parabolica as pb

    p = pb.build_parabolic(pb.build_root_system(lie_type), levi)
    group = workloads.SweepGroup(lie_type, levi, (weight,))
    return worker.render_sweep(group, weight, *worker.sweep_query(pb, p, weight))


# ---------------------------------------------------------------------------
# Generation
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_units_are_deterministic_per_seed(workload):
    make = workloads.UNIT_OF[workload]
    assert make(7, 0) == make(7, 0)
    assert make(7, 1) == make(7, 1)
    assert make(7, 0) != make(8, 0)
    assert make(7, 0) != make(7, 1)


def test_exact_cli_block_covers_every_type_with_valid_tokens():
    kinds = set()
    for block in range(5):
        ops = workloads.exact_cli_block(3, block)
        assert sorted(op.tokens[1].split("=")[1] for op in ops) == sorted(workloads.EXACT_TYPES)
        for op in ops:
            kinds.add(op.kind)
            # every option carries its value after "=", so a negative
            # leading coordinate is never a token of its own
            assert all(tok.startswith("--") and "=" in tok for tok in op.tokens[1:])
    assert kinds == {"analyze", "curvature", "dump-roots"}


def test_exact_cli_weights_are_levi_dominant_and_sometimes_lead_negative():
    leading_negative = 0
    for block in range(10):
        for op in workloads.exact_cli_block(0, block):
            if op.kind != "analyze":
                continue
            fields = dict(tok[2:].split("=", 1) for tok in op.tokens[1:])
            levi = [int(n) for n in fields["parabolic"].split(",")]
            weight = [int(c) for c in fields["weight"].split(",")]
            assert 0 < len(levi) < len(weight)
            assert all(weight[n - 1] >= 0 for n in levi)
            leading_negative += weight[0] < 0
    assert leading_negative > 0


def test_spectral_block_stays_square_integrable_and_spreads_modes():
    ops = workloads.spectral_cli_block(0, 0)
    dims = sorted(int(op.tokens[1].split("=")[1]) for op in ops)
    assert dims == [1] * 7 + [2] * 3
    for op in ops:
        fields = dict(tok[2:].split("=", 1) for tok in op.tokens[1:])
        kind, params = fields["profile"].split(":")
        values = dict(p.split("=") for p in params.split(","))
        codim = int(values.get("codim", fields["dim"]))
        assert 0 < float(values["s"]) < codim / 2
    modes = sorted(int(op.tokens[2].split("=")[1]) for op in ops if op.tokens[1] == "--dim=1")
    assert modes[0] < 128 and modes[-1] > 2048


def test_spectral_modes_are_the_same_for_every_seed_and_the_rest_is_not():
    def modes(seed, block):
        return sorted(op.tokens[1:3] for op in workloads.spectral_cli_block(seed, block))

    def profiles(seed, block):
        return sorted(op.tokens[3] for op in workloads.spectral_cli_block(seed, block))

    assert modes(3, 5) == modes(4, 5)
    assert modes(3, 5) != modes(3, 6)
    assert profiles(3, 5) != profiles(4, 5)


def test_exact_cli_kahler_choice_follows_the_kronecker_sequence():
    # Over 20 blocks, each type sends --kahler= in half of its analyze and
    # curvature requests, give or take 2, whatever the seed.
    for seed in (0, 1, 2):
        asked = {t: [0, 0] for t in workloads.EXACT_TYPES if t != "A1"}
        for block in range(20):
            for op in workloads.exact_cli_block(seed, block):
                if op.kind != "dump-roots":
                    counts = asked[op.tokens[1].split("=")[1]]
                    counts[0] += 1
                    counts[1] += any(t.startswith("--kahler=") for t in op.tokens)
        for lie_type, (requests, with_kahler) in asked.items():
            assert abs(with_kahler - requests / 2) <= 2, (seed, lie_type, requests, with_kahler)


def test_sweep_covers_maximal_and_borel_parabolics_of_every_type():
    parabolics = workloads.sweep_parabolics()
    assert len(parabolics) == len(set(parabolics))
    for lie_type in workloads.EXACT_TYPES:
        levis = [levi for t, levi in parabolics if t == lie_type]
        rank = workloads.rank_of(lie_type)
        assert () in levis
        assert sum(len(levi) == rank - 1 for levi in levis) == rank
    groups = workloads.sweep_pass(0, 0)
    assert sorted((g.lie_type, g.levi) for g in groups) == sorted(parabolics)
    for g in groups:
        assert all(w[i] >= 0 for w in g.weights for i in g.levi)


# ---------------------------------------------------------------------------
# Checks reject corrupted reports
# ---------------------------------------------------------------------------

ANALYZE = ["analyze", "--type=B3", "--parabolic=2,3", "--weight=0,0,2", "--kahler=1", "--line=-1"]
ANALYZE_NOT_SPLIT = ["analyze", "--type=A3", "--parabolic=1,3", "--weight=1,0,0"]
CURVATURE = ["curvature", "--type=A3", "--parabolic=1,3", "--kahler=1", "--line=1"]
DUMP = ["dump-roots", "--type=G2"]
SPECTRAL = ["spectral", "--dim=1", "--modes=16", "--profile=point:s=0.25"]


def corrupt_and_check(kind: str, text: str, corrupt) -> None:
    report = json.loads(text)
    checks.check_output(kind, 0, text, "")  # the genuine report passes
    corrupt(report)
    with pytest.raises(checks.CheckError):
        checks.check_output(kind, 0, json.dumps(report), "")


@pytest.mark.parametrize(
    "tokens, corrupt",
    [
        (ANALYZE, lambda r: r["splitting"].update(splits=False)),
        (ANALYZE, lambda r: r["splitting"].update(lambda_L0=["-2", "0", "0"])),
        (ANALYZE, lambda r: r["splitting"]["lambda_E"].__setitem__(1, "1")),
        (ANALYZE, lambda r: r["splitting"]["criterion"].update({"1": "-1/2"})),
        (ANALYZE, lambda r: r["curvature"].update(trace="-4")),
        (ANALYZE, lambda r: r["splitting"].update(rank=0)),
        (ANALYZE, lambda r: r.pop("splitting")),
        (ANALYZE_NOT_SPLIT, lambda r: r["splitting"].update(splits=True)),
        (ANALYZE_NOT_SPLIT, lambda r: r["splitting"].update(lambda_L0=["0", "-1", "0"])),
    ],
)
def test_analyze_checks_reject_corruption(tokens, corrupt):
    corrupt_and_check("analyze", cli_output(tokens), corrupt)


def test_curvature_check_rejects_wrong_trace():
    corrupt_and_check("curvature", cli_output(CURVATURE), lambda r: r.update(trace="0"))


@pytest.mark.parametrize(
    "corrupt",
    [lambda r: r["positive_roots"].pop(), lambda r: r["cartan"][0].__setitem__(0, 1)],
)
def test_dump_roots_checks_reject_corruption(corrupt):
    corrupt_and_check("dump-roots", cli_output(DUMP), corrupt)


@pytest.mark.parametrize(
    "corrupt",
    [
        lambda r: r["residuals"][-1].update(residual=r["residuals"][0]["residual"] * 2),
        lambda r: r["h2_gaps"][0].update(gap=r["h2_gaps"][0]["bound"] * 1.01),
        lambda r: r["integrable"].update(finite=False),
        lambda r: r["residuals"].reverse(),
    ],
)
def test_spectral_checks_reject_corruption(corrupt):
    corrupt_and_check("spectral", cli_output(SPECTRAL), corrupt)


@pytest.mark.parametrize(
    "weight, corrupt",
    [
        ((0, 0, 2), lambda r: r.update(splits=False)),
        ((0, 0, 2), lambda r: r.update(hym_L0="-4")),
        ((0, 0, 2), lambda r: r.update(endo_trace="1")),
        ((0, 0, 2), lambda r: r["lambda_E"].__setitem__(2, "1")),
        ((0, 0, 1), lambda r: r.update(hym_L0="-1")),
        ((0, 0, 1), lambda r: r.update(lambda_L0=["-1/2", "0", "0"])),
    ],
)
def test_sweep_checks_reject_corruption(weight, corrupt):
    corrupt_and_check("sweep", sweep_output("B3", (1, 2), weight), corrupt)


def test_sweep_check_accepts_borel():
    checks.check_output("sweep", 0, sweep_output("E6", (), (1, -2, 0, 3, 0, 1)), "")


def test_per_op_checks_reject_exit_code_stderr_and_non_standard_json():
    text = cli_output(SPECTRAL)
    with pytest.raises(checks.CheckError):
        checks.check_output("spectral", 1, text, "")
    with pytest.raises(checks.CheckError):
        checks.check_output("spectral", 0, text, "warning\n")
    with pytest.raises(checks.CheckError):
        checks.check_output("spectral", 0, text.replace("1.0", "NaN", 1), "")
    with pytest.raises(checks.CheckError):
        checks.check_output("spectral", 0, text.replace("0.25", "Infinity", 1), "")
    with pytest.raises(checks.CheckError):
        checks.check_output("spectral", 0, "ok spinor\n" + text, "")


def test_goldens_exact_byte_for_byte():
    text = cli_output(ANALYZE)
    golden = checks.golden_of("analyze", text, None)
    checks.compare_golden("analyze", text, None, golden)
    with pytest.raises(checks.CheckError):
        checks.compare_golden("analyze", text.replace("\n", "\r\n", 1), None, golden)


def test_goldens_spectral_tolerate_summation_drift_only():
    text = cli_output(SPECTRAL)
    report = json.loads(text)
    golden = checks.golden_of("spectral", text, report)

    drifted = copy.deepcopy(report)
    drifted["coeffs_head"] = [c * (1 + 1e-15) + 1e-17 for c in drifted["coeffs_head"]]
    checks.compare_golden("spectral", "", drifted, golden)

    wrong = copy.deepcopy(report)
    wrong["coeffs_head"][1] *= 1 + 1e-6
    with pytest.raises(checks.CheckError):
        checks.compare_golden("spectral", "", wrong, golden)
    reshaped = copy.deepcopy(report)
    reshaped["residuals"][0]["n"] = 3
    with pytest.raises(checks.CheckError):
        checks.compare_golden("spectral", "", reshaped, golden)


# ---------------------------------------------------------------------------
# Tracer and metric names
# ---------------------------------------------------------------------------


def test_tracer_self_time_subtracts_children():
    t = tracer.Tracer()
    t.start.extend([0.0, 1.0, 2.0])
    t.end.extend([10.0, 4.0, 3.0])
    t.fn.extend([0, 1, 1])
    t.parent.extend([-1, 0, 1])
    t.op.extend([0, 0, 0])
    t.names = ["bundle.splitting_report", "bundle.weyl_dim"]
    summary = t.summary()
    assert summary["bundle.splitting_report.self_ms"] == pytest.approx(7000.0)
    assert summary["bundle.weyl_dim.calls"] == 2
    assert summary["bundle.weyl_dim.self_ms"] == pytest.approx(3000.0)
    assert summary["bundle.weyl_dim.total_ms"] == pytest.approx(4000.0)
    assert summary["bundle.self_ms"] == pytest.approx(10000.0)


def benchmark_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def test_benchmark_json_lists_what_run_reports():
    spec = benchmark_spec()
    t = tracer.Tracer()
    for name in tracer.function_metrics():
        t.wrap(name, lambda: None)
    traced = {
        "layers": t.summary(),
        "counters": t.counters,
        "cli_stdout_bytes": 1,
        "scaled_program_s": 2.0,
        "ops": 1,
        "kinds": {},
    }
    per_layer = run.per_layer_metrics(traced, {"scaled_program_s": 1.0})
    assert [m["name"] for m in spec["per_layer"]] == list(per_layer)
    assert all(m["unit"] == per_layer[m["name"]][1] for m in spec["per_layer"])

    timed = {
        "workload": "exact-cli",
        "latencies_s": [0.001 * i for i in range(1, 200)],
        "scaled_latencies_s": [0.0005 * i for i in range(1, 200)],
        "ops": 199,
        "failed": 0,
        "program_s": 1.0,
        "scaled_program_s": 0.5,
        "build_s": 0.0,
        "units": 1,
        "peak_rss_kb": 1024,
    }
    end_to_end, _ = run.end_to_end_metrics(timed, [0.2, 0.3, 0.25])
    names = [m["name"] for m in spec["end_to_end"]]
    assert names == [n for n in end_to_end if n != "failed_ratio"]
    assert all(m["unit"] == end_to_end[m["name"]][1] for m in spec["end_to_end"])
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


def test_end_to_end_times_are_the_scaled_ones():
    timed = {
        "workload": "exact-cli",
        "latencies_s": [0.002] * 100,
        "scaled_latencies_s": [0.001] * 100,
        "ops": 100,
        "failed": 0,
        "program_s": 0.2,
        "scaled_program_s": 0.1,
        "build_s": 0.0,
        "units": 1,
        "peak_rss_kb": 1024,
    }
    metrics, notes = run.end_to_end_metrics(timed, [0.3, 0.5, 0.4])
    assert metrics["op_p50_ms"][0] == pytest.approx(1.0)
    assert metrics["op_tail_ms"][0] == pytest.approx(1.0)
    assert metrics["ops_per_s"][0] == pytest.approx(1000.0)
    assert metrics["setup_s"][0] == pytest.approx(0.4)  # set-up time is not scaled
    assert "raw 2" in notes["op_p50_ms"]


def test_slowdown_is_the_median_of_the_nearest_kernel_samples():
    log = reference.SpeedLog()
    log.at = [float(i) for i in range(100)]
    # The machine runs at nominal speed for 50 s, then at half speed.
    log.took = [reference.NOMINAL_S] * 50 + [2 * reference.NOMINAL_S] * 50
    assert log.slowdown(10.0) == pytest.approx(1.0)
    assert log.slowdown(90.0) == pytest.approx(2.0)
    assert log.slowdown(-5.0) == pytest.approx(1.0)  # before the first sample
    assert log.slowdown(500.0) == pytest.approx(2.0)  # after the last one
    few = reference.SpeedLog()
    few.at, few.took = [1.0, 2.0], [reference.NOMINAL_S, 3 * reference.NOMINAL_S]
    assert few.slowdown(1.5) == pytest.approx(2.0)
    with pytest.raises(ValueError):
        reference.SpeedLog().slowdown(0.0)


def test_worker_scales_each_op_by_the_slowdown_around_it():
    w = worker.Run(None, None)
    w.speed.at = [float(i) for i in range(100)]
    w.speed.took = [reference.NOMINAL_S] * 50 + [2 * reference.NOMINAL_S] * 50
    w.latencies_s, w.op_moments = [0.010, 0.010], [10.0, 90.0]
    w.builds = [(90.0, 0.004)]
    latencies, program_s = w.scaled()
    assert latencies == pytest.approx([0.010, 0.005])
    assert program_s == pytest.approx(0.017)


def test_percentile_is_nearest_rank():
    values = [float(i) for i in range(1, 101)]
    assert run.percentile(values, 99) == (99.0, 1)
    assert run.percentile(values, 75) == (75.0, 25)


def test_tracer_wraps_every_binding_site():
    # In a subprocess: install() rebinds the library's functions for the
    # life of the process.
    code = (
        "import parabolica, parabolica.bundle as b, parabolica.cli as c, tracer\n"
        "original = b.splitting_report\n"
        "t = tracer.Tracer(); t.install()\n"
        "assert b.splitting_report is c.splitting_report is parabolica.splitting_report\n"
        "assert b.splitting_report is not original\n"
        "assert t.binding_sites['bundle.splitting_report'] == 3\n"
        "assert all(t.binding_sites.values())\n"
        "c.main(['analyze', '--type=B3', '--parabolic=2,3', '--weight=0,0,2'])\n"
        "s = t.summary()\n"
        "assert s['bundle.splitting_report.calls'] == 1 and s['parabolic.decompose_weight.calls'] == 4\n"
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(ROOT / "src"), str(ROOT / "bench")]))
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
