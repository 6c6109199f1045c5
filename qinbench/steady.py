"""Steadiness mode: repeat each workload over seeds and report the spread.

    python3 qinbench/steady.py --seeds 1-10 [--apply]

Runs ``run.py --trace 0`` once per (workload, seed) with the command,
workloads and ``run_seconds`` from BENCHMARK.json, in two sets: the given
seeds, then as many seeds shifted past them. For each end-to-end metric it
prints the median, the quartiles (``statistics.quantiles(n=4)``) and their
distance as a share of the median for both sets, and the drift of the second
median from the first in the metric's worse direction. It also prints the
median calibration factors (calibrated over raw time) of jobs and set-up per
workload. ``--apply`` writes bounds into BENCHMARK.json: ``setup_s`` gets
0.25; every other metric four times the larger of its widest spread and its
worst drift over all workloads and sets, rounded up to a multiple of 0.05,
at least 0.05 and at most 0.25.
"""

from __future__ import annotations

import argparse
import json
import math
import re
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SPEC = ROOT / "BENCHMARK.json"
FACTORS = re.compile(r"calibration factor: jobs ([\d.]+), set-up ([\d.]+)")


def _seeds(text):
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def run_once(bench, workload, seed):
    """The run's metric values and its (jobs, set-up) calibration factors."""
    argv = bench["command"] + ["--workload", workload, "--seed", str(seed),
                               "--seconds", str(bench["run_seconds"]),
                               "--trace", "0"]
    done = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True,
                          timeout=900)
    if done.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} exited {done.returncode}:\n"
                         f"{done.stderr}")
    result = json.loads(done.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        raise SystemExit(f"{workload} seed {seed}: {result['failed']} "
                         f"failed jobs\n{done.stderr}")
    factors = tuple(map(float, FACTORS.search(done.stdout).groups()))
    return {k: v["value"] for k, v in result["metrics"].items()}, factors


def summarise(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "spread": (q3 - q1) / statistics.median(values)}


def bound(name, widest):
    if name == "setup_s":
        return 0.25
    return min(0.25, max(0.05, math.ceil(round(80 * widest, 6)) / 20))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seeds", type=_seeds, default=_seeds("1-10"),
                        help="seed range of the first set, e.g. 1-10")
    parser.add_argument("--apply", action="store_true",
                        help="write the derived bounds into BENCHMARK.json")
    args = parser.parse_args(argv)
    bench = json.loads(SPEC.read_text())
    metrics = bench["end_to_end"]
    shift = len(args.seeds)
    widest = {m["name"]: 0.0 for m in metrics}
    report = {}
    for workload in (w["name"] for w in bench["workloads"]):
        sets, factors = [], []
        for k in range(2):
            runs = [run_once(bench, workload, seed + k * shift)
                    for seed in args.seeds]
            factors += [f for _, f in runs]
            sets.append({m["name"]: summarise([r[m["name"]] for r, _ in runs])
                         for m in metrics})
            for m in metrics:
                values = " ".join(f"{r[m['name']]:.4g}" for r, _ in runs)
                print(f"  set {k + 1} {m['name']}: {values}", flush=True)
        report[workload] = sets
        print(f"{workload}  ({shift} seeds x 2 sets); calibration factor "
              f"median: jobs {statistics.median(f[0] for f in factors):.4f}, "
              f"set-up {statistics.median(f[1] for f in factors):.4f}")
        for m in metrics:
            name = m["name"]
            first, second = sets[0][name], sets[1][name]
            sign = 1.0 if m["better"] == "lower" else -1.0
            drift = sign * (second["median"] - first["median"]) \
                / first["median"]
            widest[name] = max(widest[name], first["spread"],
                               second["spread"], drift)
            print(f"  {name:<12} median {first['median']:.6g} "
                  f"q1 {first['q1']:.6g} q3 {first['q3']:.6g} "
                  f"spread {first['spread']:.4f}  second spread "
                  f"{second['spread']:.4f}  median drift {drift:+.4f}  "
                  f"(bound {m['bound']})", flush=True)
    if args.apply:
        for m in metrics:
            m["bound"] = bound(m["name"], widest[m["name"]])
        SPEC.write_text(json.dumps(bench, indent=2) + "\n")
        print(f"bounds written to {SPEC}")
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
