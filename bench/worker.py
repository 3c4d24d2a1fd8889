"""Workload process: one closed-loop client calling parabolica in process.

Runs whole units of one workload (see workloads.py), checks every output and
prints one JSON line with the raw measurements.  run.py starts a fresh one of
these per measurement, so peak RSS and the library's in-process caches belong
to that measurement alone.

    python3 bench/worker.py --workload exact-cli --seed 0 --seconds 30
    python3 bench/worker.py --workload exact-cli --seed 0 --units 20 --trace --spans out.csv.gz
    python3 bench/worker.py --workload exact-cli --seed 0 --units 60 --record bench/goldens/exact-cli.json
"""
from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import resource
import time
import traceback
from collections import Counter
from pathlib import Path

import checks
import reference
import workloads
from tracer import Tracer

GOLDEN_DIR = Path(__file__).resolve().parent / "goldens"
MAX_FAILURE_MESSAGES = 20


def golden_path(workload: str) -> Path:
    return GOLDEN_DIR / f"{workload}.json"


class Run:
    """Counts, latencies and the output digest of one run."""

    def __init__(self, goldens: list | None, tracer: Tracer | None, record: bool = False) -> None:
        self.goldens = goldens or []
        self.recorded: list | None = [] if record else None
        self.tracer = tracer
        self.ops = 0
        self.failed = 0
        self.failures: list[str] = []
        self.latencies_s: list[float] = []
        self.program_s = 0.0  # ops plus builds: the program's share of the wall time
        self.build_s = 0.0
        self.speed = reference.SpeedLog()
        self.op_moments: list[float] = []  # midpoint of each timed op
        self.builds: list[tuple[float, float]] = []  # (midpoint, seconds) of each build
        self.kinds: Counter = Counter()
        self.cli_stdout_bytes = 0
        self.golden_checked = 0
        self.digest = hashlib.sha256()

    def begin_op(self) -> None:
        self.speed.maybe_sample()
        if self.tracer is not None:
            self.tracer.op_id = self.ops

    def finish_op(self, kind: str, start: float, seconds: float, stdout: str, check) -> None:
        """Record one op; ``check`` returns the parsed report or raises CheckError."""
        index = self.ops
        self.ops += 1
        self.kinds[kind] += 1
        self.latencies_s.append(seconds)
        self.op_moments.append(start + seconds / 2)
        self.program_s += seconds
        data = stdout.encode()
        self.digest.update(len(data).to_bytes(8, "little") + data)
        try:
            report = check()
            if self.recorded is not None:
                self.recorded.append(checks.golden_of(kind, stdout, report))
            elif index < len(self.goldens):
                checks.compare_golden(kind, stdout, report, self.goldens[index])
                self.golden_checked += 1
        except checks.CheckError as exc:
            self.fail(f"op {index} ({kind}): {exc}")

    def scaled(self) -> tuple[list[float], float]:
        """Op latencies and program time divided by the machine's slowdown
        at the moment of each op and build (see reference.py)."""
        slowdown = self.speed.slowdown
        latencies = [s / slowdown(t) for s, t in zip(self.latencies_s, self.op_moments)]
        builds = sum(s / slowdown(t) for t, s in self.builds)
        return latencies, sum(latencies) + builds

    def fail(self, message: str) -> None:
        self.failed += 1
        if len(self.failures) < MAX_FAILURE_MESSAGES:
            self.failures.append(message)


def run_cli_op(op: workloads.CliOp, run: Run, cli) -> None:
    out, err = io.StringIO(), io.StringIO()
    run.begin_op()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(list(op.tokens))
    except Exception:  # the client keeps going; the op counts as failed
        code = "exception"
        err.write(traceback.format_exc())
    elapsed = time.perf_counter() - start
    stdout, stderr = out.getvalue(), err.getvalue()
    run.cli_stdout_bytes += len(stdout.encode())
    run.finish_op(op.kind, start, elapsed, stdout, lambda: checks.check_output(op.kind, code, stdout, stderr))


def render_sweep(group: workloads.SweepGroup, weight, report, spectrum, hym) -> str:
    """Canonical text of one sweep query; what its golden digest covers."""
    chern = report.chern
    record = {
        "type": group.lie_type,
        "levi": [i + 1 for i in group.levi],
        "weight": list(weight),
        "rank": chern.rank,
        "cramer_a": [str(a) for a in chern.cramer_a],
        "lambda_E": [str(c) for c in chern.lambda_E.coords],
        "criterion": {str(b + 1): str(v) for b, v in sorted(report.criterion_values.items())},
        "splits": report.splits,
        "lambda_L0": None if report.lambda_L0 is None else [str(c) for c in report.lambda_L0.coords],
        "eigenvalues": [str(q) for q in spectrum.eigenvalues.values()],
        "endo_trace": str(spectrum.trace()),
        "hym_L0": None if hym is None else str(hym),
    }
    return json.dumps(record, separators=(",", ":"))


def sweep_query(pb, p, weight):
    """One exact-sweep op: splitting_report, endo_eigenvalues of lambda_E
    against the Einstein class, and the mean-curvature constant of L0 when
    the bundle splits."""
    report = pb.splitting_report(pb.BundleSpec(p, pb.Weight.of(*weight)))
    kahler = pb.einstein_class(p)
    spectrum = pb.endo_eigenvalues(report.chern.lambda_E, kahler, p)
    hym = pb.hym_constant(report.lambda_L0, kahler, p) if report.splits else None
    return report, spectrum, hym


def run_sweep_group(group: workloads.SweepGroup, run: Run, pb) -> None:
    """Build the parabolic once, then one sweep_query per weight."""
    run.speed.maybe_sample()
    start = time.perf_counter()
    try:
        p = pb.build_parabolic(pb.build_root_system(group.lie_type), group.levi)
    except Exception:
        for _ in group.weights:
            run.ops += 1
            run.fail(f"build {group.lie_type} {group.levi}: {traceback.format_exc(limit=3)}")
        return
    finally:
        elapsed = time.perf_counter() - start
        run.build_s += elapsed
        run.program_s += elapsed
        run.builds.append((start + elapsed / 2, elapsed))
    for weight in group.weights:
        run.begin_op()
        start = time.perf_counter()
        try:
            report, spectrum, hym = sweep_query(pb, p, weight)
        except Exception:
            elapsed = time.perf_counter() - start
            text, error = "", traceback.format_exc(limit=3)
        else:
            elapsed = time.perf_counter() - start
            text, error = render_sweep(group, weight, report, spectrum, hym), ""
        run.finish_op("sweep", start, elapsed, text, lambda: checks.check_output("sweep", 0, text, error))


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    limit = parser.add_mutually_exclusive_group(required=True)
    limit.add_argument("--seconds", type=float, help="run whole units until this much time has passed")
    limit.add_argument("--units", type=int, help="run exactly this many units")
    parser.add_argument("--trace", action="store_true", help="wrap the library and record spans")
    parser.add_argument("--spans", help="where a traced run writes its spans (gzipped CSV)")
    parser.add_argument("--record", help="write this run's outputs as the workload's golden file here")
    args = parser.parse_args()

    import numpy
    import parabolica as pb
    import parabolica.cli as cli

    tracer = None
    if args.trace:
        tracer = Tracer()
        tracer.install()
    goldens = None
    if args.seed == workloads.DEFAULT_SEED and not args.record:
        goldens = json.loads(golden_path(args.workload).read_text())["ops"]
    run = Run(goldens, tracer, record=bool(args.record))
    make_unit = workloads.UNIT_OF[args.workload]

    start = time.perf_counter()
    units = 0
    while True:
        for item in make_unit(args.seed, units):
            if isinstance(item, workloads.SweepGroup):
                run_sweep_group(item, run, pb)
            else:
                run_cli_op(item, run, cli)
        units += 1
        if args.units is not None and units >= args.units:
            break
        if args.seconds is not None and time.perf_counter() - start >= args.seconds:
            break
    wall_s = time.perf_counter() - start
    run.speed.sample()  # so that the last ops have samples on both sides
    scaled_latencies_s, scaled_program_s = run.scaled()

    result = {
        "workload": args.workload,
        "seed": args.seed,
        "units": units,
        "ops": run.ops,
        "failed": run.failed,
        "failures": run.failures,
        "kinds": dict(run.kinds),
        "latencies_s": run.latencies_s,
        "scaled_latencies_s": scaled_latencies_s,
        "program_s": run.program_s,
        "scaled_program_s": scaled_program_s,
        "reference": run.speed.summary(),
        "build_s": run.build_s,
        "wall_s": wall_s,
        "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "cli_stdout_bytes": run.cli_stdout_bytes,
        "digest": run.digest.hexdigest(),
        "golden_checked": run.golden_checked,
        "numpy": numpy.__version__,
    }
    if args.record:
        if run.failed:
            raise SystemExit(f"not recording goldens: {run.failures}")
        head = json.dumps({"workload": args.workload, "seed": args.seed, "units": units})[:-1]
        ops = ",\n".join(json.dumps(g) for g in run.recorded)
        Path(args.record).write_text(f'{head}, "ops": [\n{ops}\n]}}\n')
    if tracer is not None:
        result["layers"] = tracer.summary()
        result["counters"] = tracer.counters
        result["binding_sites"] = tracer.binding_sites
        result["spans"] = len(tracer.start)
        if args.spans:
            tracer.write(args.spans)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
