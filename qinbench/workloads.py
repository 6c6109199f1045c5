"""The three workloads: seeded inputs, the jobs that call qinlab, and the
checks that hold each job's output against ``oracles``.

Set-up (the constructor) builds every input from the seed; ``run`` is the
timed job and calls the package only through its module attributes, so a
traced run sees each layer call; ``check`` runs outside the timing.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
from dataclasses import dataclass
from pathlib import Path

from qinlab import (adversary, analytics, auditor, cli, experiments,
                    mechanisms, querytree)

import oracles

HERE = Path(__file__).resolve().parent
DIGESTS = json.loads((HERE / "digests.json").read_text())

# Common-split ratios the schedule jobs draw from. Below 0.35 the longest
# paths of the default audit domain pay less than the 1e-12 * budget
# equality tolerance, so every split size reads as break-even and the
# paper's sp/cp verdict pattern is not observable there.
RHO_GRID = tuple(round(0.05 * k, 2) for k in range(7, 20))


@dataclass
class Job:
    kind: str
    data: dict


def _parse_doc(doc):
    """(root, children, resp, reports) of a wire-format tree, by hand."""
    root = doc["root"]
    kids = {root: []}
    for p, c in doc["edges"]:
        kids.setdefault(p, []).append(c)
        kids.setdefault(c, [])
    children = {n: tuple(sorted(k)) for n, k in kids.items()}
    resp = {n: bool(doc["resp"].get(str(n), 0)) for n in children}
    reports = {int(a): (bool(r["resp"]), tuple(r["children"]))
               for a, r in doc.get("reports", {}).items()}
    return root, children, resp, reports


def _schedule(spec):
    beta = dict(spec.beta) if isinstance(spec.beta, dict) else spec.beta
    return oracles.Schedule(spec.family, spec.alpha, spec.budget, beta)


def _report_problems(report, schedule, prop, counts, spec):
    """Oracle comparison plus witness replay for one audit report."""
    if not report.passed:
        counts["auditor.fail_verdicts"] += 1
    problems = oracles.compare_report(
        report.to_json(), oracles.expected_schedule_report(schedule, prop),
        prop)
    if not report.passed and not auditor.replay_witness(report, spec):
        if prop == "monotone":
            # replay_witness has no monotone branch; the recomputation in
            # compare_report above has already checked this witness
            counts["auditor.replay_unsupported"] += 1
        else:
            problems.append(f"{prop}: fail witness does not replay")
    return problems


# ---------------------------------------------------------------------------
# tree_pipeline
# ---------------------------------------------------------------------------

class TreePipeline:
    """Load, derive, allocate, pay and attack trees of 300 to 1400 nodes,
    and generate, allocate and serialise trees of 37k nodes.

    Job costs come in tiers of equal size, and each percentile lands inside
    one: the median among the 900-node loads, p90 among the builds. A tier
    of equal jobs gives a percentile that many samples share; a ladder of
    sizes left it to one or two jobs whose time varies +-20% a pass.
    """

    # (node count, jobs): small loads carry the CLI calls, medium ones the
    # median, large ones sit between them and the builds
    TIERS = ((300, 36), (900, 48), (1400, 24))
    CLI_EVERY = 3          # every third small load also runs `qinlab reward`
    BUILD = (8, 5)         # (branching, depth): exact 8-ary, 37449 nodes
    BUILDS = 20
    SOLVER_P = 0.05

    def __init__(self, seed, tmp: Path):
        rng = random.Random(f"tree_pipeline:{seed}")
        self.jobs = []
        k = 0
        for size, count in self.TIERS:
            for j in range(count):
                doc = self._random_doc(rng, size, deviate=j % 2 == 0)
                data = {"text": json.dumps(doc),
                        "rho": rng.choice(RHO_GRID),
                        "seed": rng.randrange(2 ** 31),
                        "lam": rng.randint(1, 3), "where": rng.random()}
                if size == self.TIERS[0][0] and j % self.CLI_EVERY == 1:
                    data["file"] = tmp / f"tree{k}.json"
                    data["file"].write_text(data["text"])
                    data["out"] = tmp / f"reward{k}.json"
                self.jobs.append(Job("load", data))
                k += 1
        b, d = self.BUILD
        for _ in range(self.BUILDS):
            self.jobs.append(Job("build", {
                "branching": b, "depth": d, "gen_seed": rng.randrange(2 ** 31),
                "seed": rng.randrange(2 ** 31)}))
        # one order for every seed: what a job follows (a freed 37k-node
        # tree, say) changes its time, and that should not vary by seed
        random.Random("tree_pipeline order").shuffle(self.jobs)

    def _random_doc(self, rng, size, deviate):
        # random recursive tree: node j hangs under a uniform earlier node
        parent = [None] + [rng.randrange(j) for j in range(1, size)]
        resp = [False] + [rng.random() < self.SOLVER_P for _ in range(1, size)]
        kids = [[] for _ in range(size)]
        for j in range(1, size):
            kids[parent[j]].append(j)
        # one solver that no report hides, so every allocation succeeds
        keeper = rng.randrange(1, size)
        resp[keeper] = True
        protected = set()
        node = keeper
        while node is not None:
            protected.add(node)
            node = parent[node]
        doc = {"root": 0, "edges": [[parent[j], j] for j in range(1, size)],
               "resp": {str(j): int(resp[j]) for j in range(size)}}
        if deviate:
            reports = {}
            for j in range(1, size):
                if j in protected or rng.random() >= 0.05:
                    continue
                reports[str(j)] = {
                    "resp": int(resp[j] and rng.random() < 0.5),
                    "children": [c for c in kids[j] if rng.random() < 0.5]}
            doc["reports"] = reports
        return doc

    def run(self, job):
        d = job.data
        if job.kind == "build":
            tree = querytree.generate_random_tree(
                d["depth"], d["branching"], 0.01, d["gen_seed"],
                exact_branching=True)
            path = querytree.allocate(tree, d["seed"])
            return {"path": path, "doc": querytree.tree_to_json(tree)}
        doc = json.loads(d["text"])
        tree = querytree.tree_from_json(doc)
        profile = querytree.profile_from_json(doc)
        truthful = querytree.derive_reported_tree(
            tree, querytree.ReportProfile.truthful(tree))
        reported = querytree.derive_reported_tree(
            tree, profile or querytree.ReportProfile())
        path = querytree.allocate(reported, d["seed"])
        specs = mechanisms.specs_for_rho(d["rho"])
        rewards = {name: mechanisms.reward_vector(path, spec)
                   for name, spec in specs.items()}
        attacker = path.agents[1 + int(d["where"] * path.n)]
        attacked = adversary.apply_sybil_to_tree(reported, attacker, d["lam"])
        rerouted = querytree.allocate(attacked.tree, d["seed"])
        out = {"tree": tree, "truthful": truthful, "reported": reported,
               "path": path, "rewards": rewards, "attacker": attacker,
               "attacked": attacked, "rerouted": rerouted,
               "doc": querytree.tree_to_json(reported)}
        if "file" in d:
            out["exit"] = cli.main(
                ["reward", "--tree", str(d["file"]), "--mechanism", "gcrm",
                 "--rho", repr(d["rho"]), "--seed", str(d["seed"]),
                 "--out", str(d["out"])])
        return out

    def check(self, index, job, out, counts):
        if job.kind == "build":
            return self._check_build(job.data, out, counts)
        d = job.data
        root, children, resp, reports = _parse_doc(json.loads(d["text"]))
        counts["querytree.nodes"] += len(children)
        problems = []
        for name, tree in (("tree_from_json", out["tree"]),
                           ("truthful derive", out["truthful"])):
            if dict(tree.children) != children or dict(tree.resp) != resp:
                problems.append(f"{name}: tree differs from the input")
        kids, flags = oracles.derive(root, children, resp, reports)
        rep = out["reported"]
        if dict(rep.children) != kids or dict(rep.resp) != flags:
            problems.append("derive_reported_tree: wrong reported tree")
        path = out["path"].agents
        problems += oracles.check_min_path(path, root, kids, flags, "allocate")
        n = len(path) - 1
        for name, vector in out["rewards"].items():
            want = oracles.rho_rewards(name, d["rho"], n)
            if len(vector.values) != n or not all(
                    map(oracles.close, vector.values, want)):
                problems.append(f"reward_vector {name}: {vector.values} != "
                                f"{want}")
        problems += self._check_attack(d, out, root, kids, flags)
        if out["doc"] != oracles.tree_doc(root, kids, flags):
            problems.append("tree_to_json: document differs")
        if "file" in d:
            problems += self._check_cli(d, out)
        return problems

    @staticmethod
    def _check_attack(d, out, root, kids, flags):
        agent, lam = out["attacker"], d["lam"]
        s_kids, s_flags, chain = oracles.sybil_split(kids, flags, agent, lam)
        attacked = out["attacked"]
        problems = []
        if (attacked.chain != chain or dict(attacked.tree.children) != s_kids
                or dict(attacked.tree.resp) != s_flags):
            problems.append("apply_sybil_to_tree: wrong attacked tree")
        before = oracles.depths(root, kids)[agent]
        after = oracles.depths(root, s_kids)[chain[-1]]
        if after != before + lam:
            problems.append(f"sybil split moved the attacker from depth "
                            f"{before} to {after}, expected +{lam}")
        problems += oracles.check_min_path(out["rerouted"].agents, root,
                                           s_kids, s_flags, "re-allocate")
        return problems

    @staticmethod
    def _check_cli(d, out):
        if out["exit"] != 0:
            return [f"qinlab reward exited {out['exit']}"]
        got = json.loads(d["out"].read_text())
        path = out["path"].agents
        want = oracles.rho_rewards("gcrm", d["rho"], len(path) - 1)
        if got["path"] != list(path) or not all(
                map(oracles.close, got["rewards"], want)) \
                or len(got["rewards"]) != len(want) \
                or not oracles.close(got["total"], math.fsum(want)):
            return ["qinlab reward: output differs from the oracle"]
        return []

    def _check_build(self, d, out, counts):
        b, depth = d["branching"], d["depth"]
        size = (b ** (depth + 1) - 1) // (b - 1)
        root, children, resp, _ = _parse_doc(out["doc"])
        counts["querytree.nodes"] += len(children)
        problems = []
        if len(children) != size or len(out["doc"]["edges"]) != size - 1:
            problems.append(f"generate_random_tree: {len(children)} nodes, "
                            f"expected {size}")
        dep = oracles.depths(root, children)
        if len(dep) != len(children) or any(
                len(children[n]) != (b if dep[n] < depth else 0)
                for n in children):
            problems.append("generate_random_tree: not an exact "
                            f"{b}-ary tree of depth {depth}")
        problems += oracles.check_min_path(out["path"].agents, root,
                                           children, resp, "allocate")
        return problems


# ---------------------------------------------------------------------------
# schedule_scan
# ---------------------------------------------------------------------------

SCHEDULE_PROPS = ("po", "bb", "split", "sp", "cp", "monotone")


class ScheduleScan:
    """Schedule audits at the auditor defaults, per-alpha analytics, one-cell
    attack grids, the five sweeps and a few ``qinlab audit`` calls."""

    RHOS_PER_SEED = 8
    SCENARIO_JOBS = 40

    def __init__(self, seed, tmp: Path):
        rng = random.Random(f"schedule_scan:{seed}")
        self.jobs = []
        named = []
        for rho in rng.sample(RHO_GRID, self.RHOS_PER_SEED):
            for name, spec in mechanisms.specs_for_rho(rho).items():
                named.append((name, rho, spec))
        for beta in ("sp", "cp"):
            named.append((f"tdgm-{beta}", None, mechanisms.MechanismSpec(
                mechanisms.TDGM, rng.choice(RHO_GRID), 1.0, beta)))
        alpha = rng.choice(RHO_GRID)
        cap = {n: mechanisms.beta_cp(n, 1.0, alpha) for n in range(1, 51)}
        named.append(("table", None, mechanisms.MechanismSpec(
            mechanisms.TDGM, alpha, 1.0,
            {n: rng.uniform(0.5, 1.0) * c for n, c in cap.items()})))
        named.append(("broken-table", None, mechanisms.MechanismSpec.unchecked(
            mechanisms.TDGM, alpha, 1.0,
            {n: rng.uniform(1.05, 1.5) * c for n, c in cap.items()})))
        for name, rho, spec in named:
            self.jobs.append(Job("spec", {"name": name, "rho": rho,
                                          "spec": spec}))
        for a in analytics.ALPHA_GRID_FINE:
            self.jobs.append(Job("alpha", {"alpha": a}))
        plain = [(name, rho, spec) for name, rho, spec in named if rho]
        for _ in range(self.SCENARIO_JOBS):
            name, rho, spec = rng.choice(plain)
            kind = rng.choice(("sybil", "collusion"))
            n = rng.randint(3, 12)
            sizes = range(1, 6) if kind == "sybil" else range(2, 7)
            cells = [adversary.scenario_from_json(
                {"kind": kind, "position": i, "size": size, "n": n})
                for i in range(1, n + 1) for size in sizes]
            self.jobs.append(Job("scenario", {"spec": spec, "cells": cells}))
        for name in experiments.EXPERIMENTS:
            config = experiments.ExperimentConfig(
                experiment=name, output_path=str(tmp / f"{name}.csv"))
            self.jobs.append(Job("sweep", {"name": name, "config": config}))
        for mech, props in (("dgm", "sp,cp"), ("geom", "sp,bb"),
                            ("gcrm", "po,bb,split,monotone,impossibility")):
            rho = rng.choice(RHO_GRID)
            out = tmp / f"audit-{mech}.json"
            self.jobs.append(Job("cli", {
                "mech": mech, "rho": rho, "out": out,
                "argv": ["audit", "--mechanism", mech, "--rho", repr(rho),
                         "--property", props, "--format", "json",
                         "--out", str(out)]}))
        rng.shuffle(self.jobs)

    def run(self, job):
        d = job.data
        if job.kind == "spec":
            spec = d["spec"]
            reports = [auditor.check_po(spec), auditor.check_bb(spec),
                       auditor.check_split(spec), auditor.check_sp(spec),
                       auditor.check_cp(spec),
                       auditor.check_monotone_solver_reward(spec)]
            table = auditor.reward_table(spec, 6)
            return reports, table, auditor.impossibility_certificate(table)
        if job.kind == "alpha":
            a = d["alpha"]
            return (analytics.rounding_mismatches([a]),
                    analytics.sybil_profile(a), analytics.lambda_star(a))
        if job.kind == "scenario":
            return [adversary.run_scenario(d["spec"], cell)
                    for cell in d["cells"]]
        if job.kind == "sweep":
            return experiments.run(d["config"])
        return cli.main(d["argv"])

    def check(self, index, job, out, counts):
        return getattr(self, f"_check_{job.kind}")(job.data, out, counts)

    def _check_spec(self, d, out, counts):
        reports, table, certificate = out
        spec, schedule = d["spec"], _schedule(d["spec"])
        problems = []
        for prop, report in zip(SCHEDULE_PROPS, reports):
            counts["auditor.cells"] += _cells(report)
            problems += _report_problems(report, schedule, prop, counts, spec)
        problems += _paper_pattern(d["name"], {r.property: r.to_json()
                                               for r in reports})
        if any(not oracles.close(v, schedule.x(i, n))
               for (i, n), v in table.items()) or len(table) != 21:
            problems.append("reward_table: entries differ from the formula")
        counts["auditor.cells"] += len(table)
        flags = oracles.impossibility_flags(table)
        if certificate.verdict != "pass" or any(
                (certificate.details[k] == "fail") != flags[k] for k in flags):
            problems.append("impossibility_certificate: wrong verdict")
        return problems

    def _check_alpha(self, d, out, counts):
        mismatches, profile, star = out
        a = d["alpha"]
        problems = []
        for kind, frozen in oracles.ROUNDING_MISSES.items():
            hits = mismatches[kind]
            if [m["alpha"] for m in hits] != ([a] if a in frozen else []) \
                    or any(m["argmax"] != m["rounded"] + 1 for m in hits):
                problems.append(f"rounding_mismatches {kind} at {a}: {hits}")
        if profile.lambda_star != star or not oracles.lambda_star_ok(a, star):
            problems.append(f"lambda_star({a}) = {star} is not the first "
                            "split count with f <= 1")
        if sorted(profile.f_values) != list(range(1, star + 1)) or not all(
                oracles.close(f, oracles.sybil_factor(a, lam))
                for lam, f in profile.f_values.items()):
            problems.append(f"sybil_profile({a}): f table differs")
        return problems

    def _check_scenario(self, d, out, counts):
        schedule = _schedule(d["spec"])
        for cell, outcome in zip(d["cells"], out):
            before, after = oracles.attack_rewards(
                schedule, cell["kind"], cell["position"], cell["size"],
                cell["n"])
            if not (oracles.close(outcome.reward_before, before)
                    and oracles.close(outcome.reward_after, after)):
                return [f"run_scenario {cell}: {outcome.reward_before}/"
                        f"{outcome.reward_after}, expected {before}/{after}"]
        return [] if len(out) == len(d["cells"]) else ["run_scenario: missing"]

    def _check_sweep(self, d, path, counts):
        data = Path(path).read_bytes()
        counts["experiments.rows"] += data.count(b"\n") - 1
        if hashlib.sha256(data).hexdigest() != DIGESTS["sweeps"][d["name"]]:
            return [f"sweep {d['name']}: CSV differs from the recorded digest"]
        return []

    def _check_cli(self, d, code, counts):
        counts["cli.exit_nonzero"] += code != 0
        reports = {r["property"]: r for r in json.loads(d["out"].read_text())}
        specs = {"dgm": ("TDGM", d["rho"], "sp"),
                 "geom": ("TDGM", d["rho"], "cp"),
                 "gcrm": ("GCRM", (math.sqrt(1 + 4 * d["rho"]) - 1) / 2, None)}
        family, alpha, beta = specs[d["mech"]]
        schedule = oracles.Schedule(family, alpha, 1.0, beta)
        problems = []
        for prop, report in reports.items():
            if prop == "impossibility":
                if report["verdict"] != "pass":
                    problems.append("audit impossibility: not pass")
                continue
            prop_key = "monotone" if prop.endswith("monotone") else prop
            problems += oracles.compare_report(
                report, oracles.expected_schedule_report(schedule, prop_key),
                prop_key)
        problems += _paper_pattern(d["mech"], reports)
        want = 0 if all(r["verdict"] == "pass" for r in reports.values()) else 1
        if code != want:
            problems.append(f"qinlab audit exited {code}, expected {want}")
        return problems


def _cells(report):
    """Cells a schedule check scanned, from its report's domain."""
    dom = report.domain
    n = dom["n_max"]
    tri = n * (n + 1) // 2
    if report.property in ("sp", "cp"):
        return tri * dom.get("lambda_max", dom.get("gamma_max", 1))
    return n if report.property == "solver_reward_monotone" else tri


def _paper_pattern(name, reports):
    """The verdicts the paper predicts: the sp schedule (dgm) breaks even at
    one fake and resists bigger splits but not merges of three or more; the
    cp schedule (geom) already pays a single fake."""
    problems = []
    sp, cp = reports.get("sp"), reports.get("cp")
    if name == "dgm" and sp and (sp["verdict"] != "pass"
                                 or sp["details"]["equality_at"] != [1]):
        problems.append("dgm sp: expected pass with equality only at 1")
    if name == "dgm" and cp:
        per = {int(k): v for k, v in cp["details"]["per_merge_size"].items()}
        if per[2] != "pass" or any(v != "fail" for k, v in per.items()
                                   if k >= 3):
            problems.append("dgm cp: expected failures from merge size 3")
    if name == "geom" and sp and (sp["verdict"] != "fail"
                                  or sp["witness"]["lambda"] != 1):
        problems.append("geom sp: expected a failure at lambda 1")
    return problems


# ---------------------------------------------------------------------------
# tree_audit
# ---------------------------------------------------------------------------

class TreeAudit:
    """Exhaustive IC and core checks, one job per (tree, spec).

    The seed draws the 6- and 7-node trees and the job order. The 8- to
    10-node trees, which carry about nine tenths of the time, are one fixed
    set, each tree audited several times: their enumeration cost spans two
    decades with the tree's shape, so seeded trees made the totals depend on
    the seed more than on the code, and with one job per cost the median and
    p90 fell on single jobs whose time varies +-20% a pass. Repeated jobs
    put several equal samples at each percentile.
    """

    SEEDED = {6: 10, 7: 10}            # node count -> trees drawn per seed
    CANDIDATES = 100                   # drawn per node count, then stratified
    FIXED = {8: (5, 5), 9: (1, 3), 10: (1, 1)}  # node count -> (trees, copies)
    FIXED_SEED = 20230213
    TABLE = {1: 0.05, 2: 0.1, 3: 0.6, **{n: 0.7 for n in range(4, 13)}}

    def __init__(self, seed, tmp: Path):
        rng = random.Random(f"tree_audit:{seed}")
        trees = []
        for nodes, count in self.SEEDED.items():
            pool = querytree.generate_trees(
                self.CANDIDATES, rng.randrange(2 ** 31), max_nodes=nodes,
                min_nodes=nodes)
            # even steps through the pool sorted by deviation-space size,
            # so every seed gets the same mix of cheap and costly trees
            pool.sort(key=_deviation_space)
            trees += [pool[(2 * k + 1) * len(pool) // (2 * count)]
                      for k in range(count)]
        for nodes, (count, copies) in self.FIXED.items():
            trees += querytree.generate_trees(
                count, self.FIXED_SEED + nodes, max_nodes=nodes,
                min_nodes=nodes) * copies
        specs = dict(mechanisms.specs_for_rho(0.6))
        specs["table"] = mechanisms.MechanismSpec(mechanisms.TDGM, 0.2, 1.0,
                                                  self.TABLE)
        self.jobs = [Job("audit", {"doc": querytree.tree_to_json(t),
                                   "nodes": len(t.nodes), "spec": spec,
                                   "spec_name": name})
                     for t in trees for name, spec in specs.items()]
        rng.shuffle(self.jobs)
        self._verified = {}

    def run(self, job):
        d = job.data
        tree = querytree.tree_from_json(d["doc"])
        ic = auditor.check_ic(tree, d["spec"])
        core = auditor.check_core(tree, d["spec"],
                                  coalition_cap=max(8, d["nodes"]))
        replays = [auditor.replay_witness(r, d["spec"], tree)
                   for r in (ic, core) if not r.passed]
        return ic, core, replays

    def check(self, index, job, out, counts):
        ic, core, replays = out
        d = job.data
        counts["querytree.nodes"] += d["nodes"]
        counts["auditor.deviations_checked"] += ic.details.get(
            "deviations_checked", 0)
        counts["auditor.coalitions_checked"] += core.details.get(
            "coalitions_checked", 0)
        counts["auditor.fail_verdicts"] += (not ic.passed) + (not core.passed)
        problems = [] if all(replays) else ["a fail witness does not replay"]
        # copies of a tree and later passes repeat a (tree, spec) pair: the
        # oracle runs once per pair and reports equal to a verified one pass
        pair = (json.dumps(d["doc"], sort_keys=True), d["spec_name"])
        verdicts = (ic.verdict, core.verdict,
                    json.dumps([ic.witness, core.witness], sort_keys=True))
        if self._verified.get(pair) == verdicts:
            return problems
        root, children, resp, _ = _parse_doc(d["doc"])
        game = oracles.TreeGame(root, children, resp, _schedule(d["spec"]))
        for prop, report, blocked in (("ic", ic, game.ic_blocked),
                                      ("core", core, game.core_blocked)):
            if report.passed:
                if blocked():
                    problems.append(f"{prop}: pass, but a profitable "
                                    "deviation exists")
            else:
                problems += game.witness_problems(prop, report.witness)
        if not problems:
            self._verified[pair] = verdicts
        return problems


def _deviation_space(tree):
    """Reports the coalition search can combine: prod over agents of
    1 + (answer choices) * 2^(children)."""
    size = 1
    for agent in tree.agents:
        size *= 1 + (2 if tree.resp[agent] else 1) * 2 ** len(
            tree.children[agent])
    return size


WORKLOADS = {"tree_pipeline": TreePipeline, "schedule_scan": ScheduleScan,
             "tree_audit": TreeAudit}
