"""parabolica's benchmark: one workload, one seed, one measurement.

Run from the root of a checkout:

    python3 bench/run.py --workload exact-cli --seed 0 --seconds 30 --trace 0
    python3 bench/run.py --workload all        # the three workloads in turn

With --trace 0 it times the workload in a fresh process with tracing off and
prints the end-to-end metrics.  With --trace 1 it runs a fixed number of units
twice, untraced and traced, each in a fresh process, checks that both printed
the same bytes and prints the per-layer metrics.  Every output is checked; the
last line of stdout is one JSON object with the result.  A full record goes to
.bench_out/ in the checkout.  See bench/README.md.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

import tracer
import workloads

BENCH_DIR = Path(__file__).resolve().parent
OUT_DIR = Path(".bench_out")
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
# One BLAS thread.  On the 2-core host the benchmark was tuned on, two threads
# ran the d=2 spectral requests about 30% slower and their wall time varied
# twice as much: the second thread waits on whatever else the host runs.
BLAS_THREADS = 1
SETUP_REPEATS = 4  # before the workload, and as many again after it
SETUP_CODE = (
    "import time; t = time.perf_counter(); import parabolica, parabolica.cli; "
    "print(time.perf_counter() - t)"
)
TIMED_WORKER_TIMEOUT_S = 150
TRACE_WORKER_TIMEOUT_S = 75

RATIOS = (  # (metric, numerator calls, base, unit)
    ("bundle.weyl_dim.calls_per_report", "bundle.weyl_dim", "report", "calls/report"),
    ("bundle.criterion_ratios.calls_per_report", "bundle.criterion_ratios", "report", "calls/report"),
    ("parabolic.decompose_weight.calls_per_report", "parabolic.decompose_weight", "report", "calls/report"),
    ("parabolic.decompose_weight.calls_per_analyze", "parabolic.decompose_weight", "analyze", "calls/request"),
    ("rootsys.pairing.calls_per_op", "rootsys.pairing", "op", "calls/op"),
    ("linalg.det.calls_per_op", "linalg.det", "op", "calls/op"),
    ("spectral.sample_mode.calls_per_op", "spectral.sample_mode", "op", "calls/op"),
)


class WorkerError(RuntimeError):
    pass


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def child_env(root: Path) -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(root / "src"), env.get("PYTHONPATH")]))
    for var in THREAD_VARS:
        env[var] = str(BLAS_THREADS)
    return env


def git_commit(root: Path) -> str:
    """HEAD of the checkout, read from .git without leaving the checkout."""
    git = root / ".git"
    head = git / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    if (git / name).is_file():
        return (git / name).read_text().strip()
    packed = git / "packed-refs"
    for line in packed.read_text().splitlines() if packed.is_file() else ():
        if line.endswith(" " + name):
            return line.split()[0]
    return f"unknown ({name})"


def percentile(latencies: list[float], pct: float) -> tuple[float, int]:
    """(value, samples beyond it) of the nearest-rank percentile."""
    ordered = sorted(latencies)
    rank = max(1, math.ceil(pct * len(ordered) / 100))
    return ordered[rank - 1], len(ordered) - rank


def preflight(env: dict[str, str]) -> subprocess.CompletedProcess:
    """paper-suite --quiet replays the pinned examples; exit 0 means they match."""
    cmd = [sys.executable, "-m", "parabolica.cli", "paper-suite", "--quiet"]
    return subprocess.run(cmd, env=env, capture_output=True, text=True, timeout=120)


def measure_setup(env: dict[str, str], repeats: int) -> list[float]:
    """Import time of parabolica + parabolica.cli in fresh interpreters."""
    times = []
    for _ in range(repeats):
        done = subprocess.run(
            [sys.executable, "-c", SETUP_CODE], env=env, capture_output=True, text=True, timeout=60, check=True
        )
        times.append(float(done.stdout.strip()))
    return times


def run_worker(env: dict[str, str], workload: str, seed: int, limit: list[str], timeout: float) -> dict:
    cmd = [sys.executable, str(BENCH_DIR / "worker.py"), "--workload", workload, "--seed", str(seed), *limit]
    done = subprocess.run(cmd, env=env, capture_output=True, text=True, timeout=timeout)
    if done.returncode != 0:
        raise WorkerError(f"worker exited {done.returncode}: {done.stderr.strip()[-2000:]}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def end_to_end_metrics(result: dict, setup: list[float]) -> tuple[dict, dict]:
    """Metrics (name -> value, unit) and the notes printed beside them.

    Op and program times are scaled by the machine's slowdown (reference.py);
    each note gives the raw figure as well.  Set-up time is raw: a kernel
    timed in the fresh interpreter tracked the import no better than chance.
    """
    pct = workloads.TAIL_PERCENTILE[result["workload"]]
    raw, scaled = result["latencies_s"], result["scaled_latencies_s"]
    tail, beyond = percentile(scaled, pct)
    raw_tail, _ = percentile(raw, pct)
    ops = result["ops"]
    metrics = {
        "ops_per_s": (ops / result["scaled_program_s"], "1/s"),
        "op_p50_ms": (statistics.median(scaled) * 1e3, "ms"),
        "op_tail_ms": (tail * 1e3, "ms"),
        "failed_ratio": (result["failed"] / ops, "ratio"),
        "peak_rss_mb": (result["peak_rss_kb"] / 1024, "MB"),
        "setup_s": (statistics.median(setup), "s"),
    }
    notes = {
        "ops_per_s": f"{ops} ops in {result['program_s']:.2f} s of program time "
        f"({result['build_s']:.2f} s of it in builds), {result['units']} whole units; "
        f"raw {ops / result['program_s']:.4g}",
        "op_p50_ms": f"median of {ops} ops; raw {statistics.median(raw) * 1e3:.4g}",
        "op_tail_ms": f"p{pct} of {ops} ops, {beyond} beyond it; raw {raw_tail * 1e3:.4g}",
        "failed_ratio": f"{result['failed']} of {ops} ops failed",
        "peak_rss_mb": "ru_maxrss of the workload process",
        "setup_s": f"median of {len(setup)} fresh imports of parabolica + parabolica.cli, "
        "half before and half after the workload",
    }
    return metrics, notes


def per_layer_metrics(traced: dict, plain: dict) -> dict:
    layers = traced["layers"]
    metrics = {}
    for name in tracer.function_metrics():
        metrics[f"{name}.calls"] = (layers[f"{name}.calls"], "count")
        metrics[f"{name}.self_ms"] = (layers[f"{name}.self_ms"], "ms")
        metrics[f"{name}.total_ms"] = (layers[f"{name}.total_ms"], "ms")
    for layer in tracer.LAYERS:
        metrics[f"{layer}.self_ms"] = (layers[f"{layer}.self_ms"], "ms")
    counters = traced["counters"]
    metrics["spectral.grid_points"] = (counters["spectral.grid_points"], "count")
    metrics["spectral.quadrature_mb_computed"] = (counters["spectral.quadrature_bytes"] / 1e6, "MB")
    metrics["cli.stdout_bytes"] = (traced["cli_stdout_bytes"], "B")
    metrics["trace.overhead_pct"] = ((traced["scaled_program_s"] / plain["scaled_program_s"] - 1) * 100, "%")
    metrics["trace.ops"] = (traced["ops"], "count")
    bases = {
        "report": layers["bundle.splitting_report.calls"],
        "analyze": traced["kinds"].get("analyze", 0),
        "op": traced["ops"],
    }
    for name, function, base, unit in RATIOS:
        # 0 when the base is 0: the workload never makes that call.
        calls = layers[f"{function}.calls"]
        metrics[name] = (calls / bases[base] if bases[base] else 0.0, unit)
    return metrics


def print_table(metrics: dict, notes: dict) -> None:
    for name, (value, unit) in metrics.items():
        print(f"  {name:<52} {value:>14.6g} {unit:<13} {notes.get(name, '')}")


def measure(workload: str, args: argparse.Namespace, root: Path, env: dict[str, str]) -> dict:
    """Preflight, run and check one workload; print its table and return the result line."""
    tag = f"{workload}-seed{args.seed}-trace{args.trace}"
    pre = preflight(env)
    problems = [] if pre.returncode == 0 else [f"preflight paper-suite --quiet exited {pre.returncode}: {pre.stderr.strip()}"]
    print(f"parabolica benchmark: workload {workload}, seed {args.seed}, closed loop, 1 client, in process")
    print(f"  preflight: paper-suite --quiet exit {pre.returncode}")
    if args.trace:
        units = ["--units", str(workloads.TRACE_UNITS[workload])]
        plain = run_worker(env, workload, args.seed, units, TRACE_WORKER_TIMEOUT_S)
        spans = OUT_DIR / f"spans-{workload}-seed{args.seed}.csv.gz"
        traced_limit = [*units, "--trace", "--spans", str(spans)]
        result = run_worker(env, workload, args.seed, traced_limit, TRACE_WORKER_TIMEOUT_S)
        metrics, notes = per_layer_metrics(result, plain), {}
        if result["digest"] != plain["digest"]:
            problems.append("traced and untraced runs printed different bytes")
        unbound = [name for name, sites in result["binding_sites"].items() if not sites]
        if unbound:
            problems.append(f"traced functions found at no binding site: {unbound}")
        problems += plain["failures"]
        attempted, failed = result["ops"] + plain["ops"], result["failed"] + plain["failed"]
        print(f"  traced run: {result['ops']} ops, {result['spans']} spans written to {spans}")
        print(f"  stdout digest traced {result['digest'][:16]}, untraced {plain['digest'][:16]}")
    else:
        # The first, untimed, import writes the bytecode cache.  Half the
        # timed imports come after the workload, so that the median spans
        # the run rather than one moment of the machine's load.
        setup = measure_setup(env, SETUP_REPEATS + 1)[1:]
        result = run_worker(env, workload, args.seed, ["--seconds", str(args.seconds)], TIMED_WORKER_TIMEOUT_S)
        setup += measure_setup(env, SETUP_REPEATS)
        metrics, notes = end_to_end_metrics(result, setup)
        attempted, failed = result["ops"], result["failed"]
    problems += result["failures"]

    print_table(metrics, notes)
    print(f"  goldens compared for {result['golden_checked']} ops (seed {workloads.DEFAULT_SEED} only)")
    environment = {
        "commit": git_commit(root),
        "python": platform.python_version(),
        "numpy": result["numpy"],
        "nproc": nproc(),
        "thread_caps": {var: env[var] for var in THREAD_VARS},
        "platform": platform.platform(),
    }
    print("  env: " + ", ".join(f"{k} {v}" for k, v in environment.items()))
    for problem in problems:
        print(f"  FAILED: {problem}")

    as_json = {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()}
    summary = {
        "correct": failed == 0 and not problems,
        "attempted": attempted,
        "failed": failed,
        # failed_ratio reads 0 on every correct run, so it cannot carry a
        # relative bound; the line gives it as failed / attempted instead.
        "metrics": {name: value for name, value in as_json.items() if name != "failed_ratio"},
    }
    worker = {k: v for k, v in result.items() if k not in ("latencies_s", "scaled_latencies_s")}
    record = dict(summary, metrics=as_json, workload=workload, seed=args.seed, seconds=args.seconds,
                  notes=notes, problems=problems, environment=environment, worker=worker)
    (OUT_DIR / f"{tag}.json").write_text(json.dumps(record, indent=1) + "\n")
    print(f"  record: {OUT_DIR / tag}.json")
    return summary


def main() -> int:
    parser = argparse.ArgumentParser(description="parabolica benchmark")
    parser.add_argument("--workload", choices=(*workloads.WORKLOADS, "all"), required=True)
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    root = Path.cwd()
    if not (root / "src" / "parabolica" / "__init__.py").is_file():
        print(f"error: {root} holds no src/parabolica; run from the root of a parabolica checkout", file=sys.stderr)
        return 2
    env = child_env(root)
    OUT_DIR.mkdir(exist_ok=True)
    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    try:
        summaries = {name: measure(name, args, root, env) for name in names}
    except (WorkerError, subprocess.SubprocessError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if len(summaries) == 1:
        print(json.dumps(summaries[args.workload]))
        return 0
    # All workloads: one line over all of them, metric names prefixed by workload.
    print(json.dumps({
        "correct": all(s["correct"] for s in summaries.values()),
        "attempted": sum(s["attempted"] for s in summaries.values()),
        "failed": sum(s["failed"] for s in summaries.values()),
        "metrics": {f"{w}.{m}": v for w, s in summaries.items() for m, v in s["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
