"""qinlab benchmark: one workload per run, closed loop, one client.

    python3 qinbench/run.py --workload tree_pipeline --seed 1 --seconds 20 \
        --trace 0

Run from the repository root. Set-up time is measured in fresh processes
from before ``import qinlab`` until the first job could start; then the
workload's seeded job list runs in whole passes until the jobs have been
busy for ``--seconds``. Each job's output is checked against the
benchmark's own oracle outside the timing. The last line of standard output
is one JSON object: the end-to-end metrics with ``--trace 0``, the per-layer
metrics of a traced run with ``--trace 1``.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from collections import Counter
from pathlib import Path

from calibrate import Calibrator
from tracing import LAYER_CALLS, MODULES, Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
WORKLOAD_NAMES = ("tree_pipeline", "schedule_scan", "tree_audit")
SETUP_PROBES = 5   # fresh processes whose median set-up time is reported
SETUP_SLICES = 30  # reference slices before each set-up
# work counters the workloads' checks add up, printed by a traced run
COUNTERS = ("querytree.nodes", "auditor.cells", "auditor.deviations_checked",
            "auditor.coalitions_checked", "auditor.fail_verdicts",
            "auditor.replay_unsupported", "experiments.rows",
            "cli.exit_nonzero")


def _setup(workload, seed, tmp):
    """Import the package and build the workload's inputs; returns the
    workload and the calibrated and raw seconds that took. The reference
    slices run first, while the interpreter holds none of the program."""
    cal = Calibrator()
    cal.run(SETUP_SLICES)
    start = time.perf_counter()
    sys.path.insert(0, str(SRC))
    import qinlab  # noqa: F401  (timed: the package and numpy)
    from workloads import WORKLOADS
    built = WORKLOADS[workload](seed, tmp)
    raw = time.perf_counter() - start
    return built, raw * cal.factor(), raw


def _probe_setup(workload, seed):
    """Calibrated and raw set-up seconds of one fresh interpreter."""
    done = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload",
         workload, "--seed", str(seed), "--probe"],
        capture_output=True, text=True, timeout=120, check=True)
    return tuple(map(float, done.stdout.split()[-2:]))


def run_passes(workload, seconds, tracer=None):
    """Whole passes over the job list until the jobs were busy ``seconds``
    (at least one pass), with reference slices in between. Returns
    latencies, failures, counters and the calibration factor."""
    cal = Calibrator()
    cal.run(5)
    latencies, problems, counts = [], [], Counter()
    failed = passes = 0
    busy = 0.0
    while passes == 0 or busy < seconds:
        for index, job in enumerate(workload.jobs):
            error = None
            if tracer is not None:
                tracer.job = f"{passes}:{index}"
            # start every job from an empty young generation, so when the
            # collector runs inside a job depends on that job alone
            gc.collect()
            start = time.perf_counter()
            try:
                if tracer is None:
                    out = workload.run(job)
                else:
                    with tracer.span(f"job.{job.kind}"):
                        out = workload.run(job)
            except Exception as exc:  # a failed job, counted below
                error = f"{job.kind} job {index}: {type(exc).__name__}: {exc}"
            elapsed = time.perf_counter() - start
            busy += elapsed
            latencies.append(elapsed)
            if error is None:
                try:
                    found = workload.check(index, job, out, counts)
                except Exception as exc:  # malformed output
                    found = [f"check raised {type(exc).__name__}: {exc}"]
                error = found and f"{job.kind} job {index}: {found[0]}"
            if error:
                failed += 1
                problems.append(error)
            # the reference slices run without the job's output in the heap
            out = None
            if cal.behind(busy):
                gc.collect()
                cal.keep_up(busy)
        passes += 1
    return {"latencies": latencies, "failed": failed, "busy": busy,
            "problems": problems, "counts": counts, "passes": passes,
            "scaled": cal.scale(latencies), "factor": cal.factor()}


def _jobs_per_s(result, key="scaled"):
    passed = len(result[key]) - result["failed"]
    return passed / sum(result[key])


def end_to_end(result, setup_samples, key="scaled"):
    """End-to-end metrics from the calibrated job times, or from the raw
    wall-clock ones with ``key="latencies"``. A job's latency is its median
    over the passes, which all run the same jobs."""
    times = result[key]
    jobs = len(times) // result["passes"]
    ms = [1000.0 * statistics.median(times[j::jobs]) for j in range(jobs)]
    deciles = statistics.quantiles(ms, n=10)
    return {
        "setup_s": (statistics.median(setup_samples), "s"),
        "jobs_per_s": (_jobs_per_s(result, key), "1/s"),
        "job_ms_p50": (statistics.median(ms), "ms"),
        "job_ms_p90": (deciles[8], "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                        / 1024.0, "MB"),
    }


def per_layer(tracer, traced, untraced):
    busy, calls = tracer.self_seconds()
    metrics = {}
    module_self = Counter()
    for module, path in LAYER_CALLS:
        name = f"{module}.{path}"
        metrics[f"{name}.s"] = (busy[name], "s")
        metrics[f"{name}.calls"] = (calls[name], "count")
        module_self[module] += busy[name]
    for module in MODULES:
        metrics[f"{module}.self_s"] = (module_self[module], "s")
        metrics[f"{module}.errors"] = (tracer.errors[module], "count")
    metrics["bench.self_s"] = (sum(v for k, v in busy.items()
                                   if k.startswith("job.")), "s")
    for key in COUNTERS:
        metrics[key] = (traced["counts"][key], "count")
    jps, base = _jobs_per_s(traced), _jobs_per_s(untraced)
    metrics["trace.jobs_per_s"] = (jps, "1/s")
    metrics["trace.untraced_jobs_per_s"] = (base, "1/s")
    metrics["trace.overhead"] = (base / jps - 1.0, "ratio")
    metrics["host.speed_factor"] = (traced["factor"], "ratio")
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe", action="store_true",
                        help="internal: print this process's set-up time")
    args = parser.parse_args(argv)
    if not (SRC / "qinlab" / "__init__.py").is_file():
        print(f"error: no qinlab package under {SRC}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT))
    try:
        if args.probe:
            print(*_setup(args.workload, args.seed, tmp)[1:])
            return 0
        samples = [] if args.trace else [
            _probe_setup(args.workload, args.seed)
            for _ in range(SETUP_PROBES - 1)]
        workload, *own_setup = _setup(args.workload, args.seed, tmp)
        samples.append(tuple(own_setup))
        if args.trace:
            import qinlab
            untraced = run_passes(workload, 0)
            tracer = Tracer()
            with tracer.installed(qinlab):
                result = run_passes(workload, args.seconds, tracer)
            spans = OUT / f"trace-{args.workload}-{args.seed}.jsonl"
            tracer.write(spans)
            metrics = per_layer(tracer, result, untraced)
            result["passes"] += untraced["passes"]
            result["failed"] += untraced["failed"]
            result["problems"] += untraced["problems"]
            for key in ("latencies", "scaled"):
                result[key] += untraced[key]
            print(f"spans: {len(tracer.spans)} written to {spans}")
        else:
            result = run_passes(workload, args.seconds)
            metrics = end_to_end(result, [s[0] for s in samples])
            raw = end_to_end(result, [s[1] for s in samples], "latencies")
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    attempted = len(result["latencies"])
    for problem in result["problems"][:20]:
        print(f"FAILED {problem}", file=sys.stderr)
    print(f"workload {args.workload} seed {args.seed}: {attempted} jobs in "
          f"{result['passes']} pass(es), {result['failed']} failed, "
          f"error_rate {result['failed'] / attempted:.4g} ratio, "
          f"set-up samples {len(samples)}, latency samples "
          f"{attempted // result['passes']} (each job's median over passes)")
    if not args.trace:
        print(f"calibration factor: jobs {result['factor']:.4f}, set-up "
              f"{statistics.median(c / r for c, r in samples):.4f}; raw "
              "wall-clock values in brackets")
    for name, (value, unit) in metrics.items():
        extra = "" if args.trace else f"   [{raw[name][0]:.6g}]"
        print(f"  {name:<48} {value:>14.6g} {unit}{extra}")
    print(json.dumps({
        "correct": result["failed"] == 0, "attempted": attempted,
        "failed": result["failed"],
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
