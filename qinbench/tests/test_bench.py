"""Tests of the benchmark itself: metric names, seeding, and that every
oracle can fail.

    python3 -m pytest qinbench/tests -q
"""

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import run  # noqa: E402
import workloads  # noqa: E402
from qinlab import (adversary, analytics, auditor, experiments,  # noqa: E402
                    mechanisms, querytree)
from tracing import Tracer  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.fixture
def tmp_path():
    """Scratch space inside the benchmark's ignored output directory."""
    (BENCH / "out").mkdir(exist_ok=True)
    path = Path(tempfile.mkdtemp(prefix="test-", dir=BENCH / "out"))
    yield path
    shutil.rmtree(path, ignore_errors=True)


def build(name, tmp_path, seed=1, per_kind=4):
    """A workload cut to its first ``per_kind`` jobs of each kind."""
    tmp_path.mkdir(exist_ok=True)
    wl = workloads.WORKLOADS[name](seed, tmp_path)
    seen = {}
    wl.jobs = [j for j in wl.jobs
               if seen.setdefault(j.kind, []).append(j) or
               len(seen[j.kind]) <= per_kind]
    return wl


def only(wl, kind, count=None):
    wl.jobs = [j for j in wl.jobs if j.kind == kind][:count]
    return wl


@pytest.mark.parametrize("name", run.WORKLOAD_NAMES)
def test_smoke_prints_every_metric_with_its_unit(name, tmp_path):
    import qinlab
    wl = build(name, tmp_path)
    result = run.run_passes(wl, 0)
    assert result["failed"] == 0, result["problems"]
    e2e = run.end_to_end(result, [0.5])
    assert {k: u for k, (_, u) in e2e.items()} == \
        {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert all(v > 0 for v, _ in e2e.values())
    tracer = Tracer()
    with tracer.installed(qinlab):
        traced = run.run_passes(wl, 0, tracer)
    layers = run.per_layer(tracer, traced, result)
    assert {k: u for k, (_, u) in layers.items()} == \
        {m["name"]: m["unit"] for m in SPEC["per_layer"]}


def test_traced_runs_give_self_time_for_every_module(tmp_path):
    import qinlab
    seen = {}
    for name in run.WORKLOAD_NAMES:
        wl = build(name, tmp_path / name, per_kind=2)
        tracer = Tracer()
        with tracer.installed(qinlab):
            traced = run.run_passes(wl, 0, tracer)
        for key, (value, _) in run.per_layer(tracer, traced, traced).items():
            if key.endswith(".self_s"):
                seen[key] = seen.get(key, 0.0) + value
        spans = tracer.spans
        assert all(s[4] >= s[3] for s in spans)
        assert {s[5] for s in spans} <= {f"0:{i}" for i in range(len(wl.jobs))}
    assert querytree.tree_from_json.__name__ == "tree_from_json"  # restored
    assert all(seen[f"{m}.self_s"] > 0 for m in
               ("querytree", "mechanisms", "adversary", "analytics",
                "auditor", "experiments", "cli")), seen


def _fingerprint(wl):
    return repr([(j.kind, j.data) for j in wl.jobs])


@pytest.mark.parametrize("name", run.WORKLOAD_NAMES)
def test_seeds_give_different_but_repeatable_inputs(name, tmp_path):
    cls = workloads.WORKLOADS[name]
    one, again, other = (_fingerprint(cls(seed, tmp_path))
                         for seed in (1, 1, 2))
    assert one == again
    assert one != other


def test_job_counts_leave_ten_samples_beyond_p90(tmp_path):
    for name in run.WORKLOAD_NAMES:
        assert len(workloads.WORKLOADS[name](1, tmp_path).jobs) >= 100


# ---------------------------------------------------------------------------
# Planted wrong answers: each oracle must notice
# ---------------------------------------------------------------------------

def failures(wl):
    result = run.run_passes(wl, 0)
    return result["failed"] / len(result["latencies"])


def test_allocate_returning_a_deeper_solver_is_caught(tmp_path, monkeypatch):
    real = querytree.allocate

    def deeper(tree, rng_seed):
        path = real(tree, rng_seed)
        depth = {tree.root: 0}
        for node in tree._iter_bfs():
            for kid in tree.children[node]:
                depth[kid] = depth[node] + 1
        worse = [n for n in tree.solvers() if depth.get(n, 0) > path.n]
        if not worse:
            return path
        return querytree.AllocationPath(querytree._path_to(tree, worse[0]))

    wl = only(build("tree_pipeline", tmp_path, per_kind=30), "load")
    monkeypatch.setattr(querytree, "allocate", deeper)
    assert failures(wl) > 0


@pytest.mark.parametrize("target, fake", [
    ("reward_vector", lambda real: lambda path, spec: mechanisms.RewardVector(
        tuple(v * (1 + 1e-9) for v in real(path, spec).values))),
    ("apply_sybil_to_tree", lambda real: lambda tree, agent, lam:
        real(tree, agent, lam + 1)),
    ("tree_to_json", lambda real: lambda tree, profile=None:
        {**real(tree, profile), "edges": real(tree, profile)["edges"][1:]}),
    ("derive_reported_tree", lambda real: lambda tree, profile:
        real(tree, querytree.ReportProfile())),
])
def test_tree_pipeline_oracles_catch_planted_errors(target, fake, tmp_path,
                                                    monkeypatch):
    module = mechanisms if target == "reward_vector" else (
        adversary if target == "apply_sybil_to_tree" else querytree)
    wl = only(build("tree_pipeline", tmp_path, per_kind=10), "load")
    if target == "derive_reported_tree":   # only deviating trees notice
        wl.jobs = [j for j in wl.jobs if '"reports"' in j.data["text"]]
    monkeypatch.setattr(module, target, fake(getattr(module, target)))
    assert failures(wl) > 0


def test_generation_and_cli_oracles_catch_planted_errors(tmp_path,
                                                         monkeypatch):
    wl = only(build("tree_pipeline", tmp_path, per_kind=2), "build", 1)
    real = querytree.generate_random_tree
    monkeypatch.setattr(querytree, "generate_random_tree",
                        lambda d, b, p, s, **kw: real(d - 1, b, p, s, **kw))
    assert failures(wl) == 1
    monkeypatch.undo()
    wl = workloads.TreePipeline(1, tmp_path)
    wl.jobs = [j for j in wl.jobs if "file" in j.data][:2]
    real_rv = mechanisms.reward_vector
    calls = []

    def late(path, spec):  # in-process calls pass, the CLI's call is off
        calls.append(1)
        vec = real_rv(path, spec)
        if len(calls) % 4 == 0:
            return mechanisms.RewardVector(tuple(v * 2 for v in vec.values))
        return vec
    monkeypatch.setattr(mechanisms, "reward_vector", late)
    assert failures(wl) > 0


@pytest.mark.parametrize("target, name, fake", [
    (auditor, "check_sp", lambda real: lambda spec, *a, **k: auditor.
     PropertyReport("sp", "pass", details={"per_lambda": {},
                                           "equality_at": [1]})),
    (auditor, "check_bb", lambda real: lambda spec, *a, **k: auditor.
     PropertyReport("bb", "pass")),
    (auditor, "check_cp", lambda real: lambda spec, *a, **k:
     _retag(real(spec, *a, **k), equality_at=[])),
    (auditor, "replay_witness", lambda real: lambda *a, **k: False),
    (auditor, "impossibility_certificate", lambda real: lambda table:
     _retag(real(table), verdict="fail")),
])
def test_schedule_oracles_catch_planted_errors(target, name, fake, tmp_path,
                                               monkeypatch):
    wl = only(build("schedule_scan", tmp_path, per_kind=40), "spec")
    monkeypatch.setattr(target, name, fake(getattr(target, name)))
    assert failures(wl) > 0


def _retag(report, verdict=None, **details):
    if verdict:
        report.verdict = verdict
    report.details.update(details)
    return report


def test_analytics_scenario_sweep_and_cli_oracles(tmp_path, monkeypatch):
    wl = workloads.ScheduleScan(1, tmp_path)
    alpha_jobs = [j for j in wl.jobs if j.kind == "alpha"]
    monkeypatch.setattr(analytics, "rounding_mismatches",
                        lambda alphas: {"sybil": [], "path_length": []})
    wl.jobs = [j for j in alpha_jobs if j.data["alpha"] in (0.05, 0.76)]
    assert failures(wl) == 1.0
    monkeypatch.undo()
    monkeypatch.setattr(analytics, "lambda_star", lambda a: 2)
    wl.jobs = [j for j in alpha_jobs if j.data["alpha"] == 0.9]
    assert failures(wl) == 1.0
    monkeypatch.undo()

    wl = workloads.ScheduleScan(1, tmp_path)
    real = adversary.run_scenario
    monkeypatch.setattr(adversary, "run_scenario", lambda spec, sc: real(
        spec, {**sc, "n": sc["n"] + 1}))
    assert failures(only(wl, "scenario", 3)) == 1.0
    monkeypatch.undo()

    wl = workloads.ScheduleScan(1, tmp_path)
    real_run = experiments.run

    def noisy(config):
        path = real_run(config)
        path.write_text(path.read_text() + "x\n")
        return path
    monkeypatch.setattr(experiments, "run", noisy)
    assert failures(only(wl, "sweep")) == 1.0
    monkeypatch.undo()

    wl = workloads.ScheduleScan(1, tmp_path)
    monkeypatch.setattr(auditor, "check_sp", lambda spec, *a, **k:
                        auditor.PropertyReport(
                            "sp", "pass", details={"per_lambda": {},
                                                   "equality_at": [1]}))
    assert failures(only(wl, "cli")) > 0


def test_tree_audit_oracles_catch_planted_errors(tmp_path, monkeypatch):
    def jobs(spec_name):
        wl = workloads.TreeAudit(1, tmp_path)
        wl.jobs = [j for j in wl.jobs if j.data["spec_name"] == spec_name
                   and j.data["nodes"] <= 7][:15]
        return wl

    baseline = jobs("table")
    assert failures(baseline) == 0
    verdicts = [auditor.check_core(querytree.tree_from_json(j.data["doc"]),
                                   j.data["spec"]).passed
                for j in baseline.jobs]
    assert not all(verdicts)     # the table spec does have blocking coalitions
    monkeypatch.setattr(auditor, "check_core", lambda tree, spec, **kw:
                        auditor.PropertyReport("core", "pass"))
    assert failures(jobs("table")) > 0
    monkeypatch.undo()
    real_ic = auditor.check_ic

    def inflated(tree, spec, **kw):
        report = real_ic(tree, spec, **kw)
        if report.witness:
            report.witness["deviant_reward"] *= 1.5
        return report
    monkeypatch.setattr(auditor, "check_ic", inflated)
    monkeypatch.setattr(auditor, "replay_witness", lambda *a, **k: True)
    assert failures(jobs("table")) > 0
    monkeypatch.undo()
    monkeypatch.setattr(auditor, "check_ic", lambda tree, spec, **kw:
                        auditor.PropertyReport("ic", "pass"))
    assert failures(jobs("table")) > 0


def test_tree_audit_oracle_pins_the_first_witness(tmp_path, monkeypatch):
    """A valid blocking coalition other than the first one the auditor's
    size-major order reaches is a wrong answer."""
    import oracles
    real_core = auditor.check_core
    swapped = []

    def later_witness(tree, spec, **kw):
        report = real_core(tree, spec, **kw)
        if report.passed:
            return report
        game = oracles.TreeGame(tree.root, dict(tree.children),
                                dict(tree.resp), workloads._schedule(spec))
        found = game.core_witnesses()
        next(found)
        other = next(found, None)
        if other is None:
            return report
        swapped.append(other)
        base, pay = game.baseline, game.payoffs(other)
        report.witness = {
            "coalition": sorted(other),
            "deviation": {a: {"resp": o[0], "children": list(o[1])}
                          for a, o in other.items()},
            "truthful": {a: base.get(a, 0.0) for a in other},
            "deviant": {a: pay.get(a, 0.0) for a in other}}
        return report

    wl = workloads.TreeAudit(1, tmp_path)
    wl.jobs = [j for j in wl.jobs if j.data["spec_name"] == "table"
               and j.data["nodes"] <= 7][:15]
    assert failures(wl) == 0
    monkeypatch.setattr(auditor, "check_core", later_witness)
    monkeypatch.setattr(auditor, "replay_witness", lambda *a, **k: True)
    assert failures(wl) > 0 and swapped


def test_refuses_to_run_without_the_program(tmp_path):
    (tmp_path / "qinbench").mkdir()
    for path in BENCH.glob("*.py"):
        (tmp_path / "qinbench" / path.name).write_text(path.read_text())
    (tmp_path / "BENCHMARK.json").write_text(json.dumps(SPEC))
    done = subprocess.run(
        [sys.executable, "qinbench/run.py", "--workload", "tree_audit",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert done.returncode != 0
    assert done.stdout.strip() == ""
