"""Property verdicts for reward mechanisms, with re-checkable witnesses.

Schedule-level checks scan bounded (position, length, attack-size) domains:
strictly positive pay (PO), budget balance (BB), the split ratio, and the
split and merge inequalities (one scan: a merge is a split run backwards). Tree-level checks enumerate
deviations exhaustively on small trees: truth-telling as a dominant strategy
(IC) and coalition stability (core). A certificate check confirms that no
positive schedule survives the split and merge inequalities together.

Every check is pure and independent; reports merge deterministically.
Verdict conventions:

* Weak inequalities hold with equality: boundary schedules pass exactly
  where the algebra says they break even, and the report surfaces equality
  separately (detected at 1e-12 relative to the larger of the budget and
  the compared amounts).
* A ``fail`` verdict always carries a witness whose replay through its
  property's entry in ``PROPERTIES`` reproduces the numbers bit for bit
  (see :func:`replay_witness`), also after a round trip through JSON.

Tree-level checks state reports as ``querytree.AgentReport`` and find the
tied shortest paths with allocation's own walk, ``querytree.tied_solvers``.
Tie-breaks are handled in expectation over those paths -- no sampling, so
IC/core verdicts are deterministic. IC and core search for the first
blocking deviation the same way: IC over the on-path agents alone, core
over every coalition, smaller ones first, each over the profiles in which
every member misreports.

Blocking, for the core check, means a joint deviation that every coalition
member strictly prefers: a deviation some member loses by is not a coalition
its members would form (rewards are paid to individuals on the path, and a
deviation needs the loser's cooperation). Under the unrestricted reading --
maximum coalition total over arbitrary joint deviations -- no shortest-path
geometric mechanism is stable: one agent can always sacrifice its own pay to
reroute the path toward fellow members.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass, field
from typing import Callable, Mapping, NamedTuple, Optional

import numpy as np

from . import adversary, mechanisms, querytree
from .mechanisms import (EQ_TOL, MechanismSpec, position_reward,
                         rewards_for_length)
from .querytree import AgentReport, InvalidTreeError, QueryTree

DEFAULT_N_MAX = 50
DEFAULT_ATTACK_N_MAX = 20
DEFAULT_SIZE_MAX = 20
DEFAULT_TABLE_N_MAX = 6
DEFAULT_TREE_CAP = 10
DEFAULT_COALITION_CAP = 10
DEFAULT_IC_TREES = 200
DEFAULT_CORE_TREES = 100


class AuditError(ValueError):
    """Rejected audit input (oversized tree, malformed table)."""


@dataclass
class PropertyReport:
    property: str
    verdict: str                      # "pass" | "fail"
    witness: Optional[dict] = None
    domain: dict = field(default_factory=dict)
    details: dict = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return self.verdict == "pass"

    def to_json(self) -> dict:
        return {"property": self.property, "verdict": self.verdict,
                "witness": self.witness, "domain": self.domain,
                "details": self.details}


def render_table(reports) -> str:
    """Human-readable one-line-per-property summary."""
    lines = [f"{'property':<14} {'verdict':<8} notes"]
    for rep in reports:
        notes = []
        for key, value in rep.details.items():
            if isinstance(value, float):
                notes.append(f"{key}={value:.6g}")
            elif isinstance(value, (str, bool, int)):
                notes.append(f"{key}={value}")
        if rep.witness is not None:
            notes.append(f"witness={rep.witness}")
        lines.append(f"{rep.property:<14} {rep.verdict:<8} {'; '.join(notes)}")
    return "\n".join(lines)


def _scan_n_max(spec: MechanismSpec, n_max: int) -> int:
    # explicit tables only cover the lengths they list
    if isinstance(spec.beta, Mapping):
        return min(n_max, max(spec.beta))
    return n_max


# ---------------------------------------------------------------------------
# Schedule-level checks
# ---------------------------------------------------------------------------

def check_po(spec: MechanismSpec, n_max: int = DEFAULT_N_MAX) -> PropertyReport:
    """Strictly positive pay at every position of every length <= n_max."""
    n_max = _scan_n_max(spec, n_max)
    for n in range(1, n_max + 1):
        for i in range(1, n + 1):
            x = position_reward(i, n, spec)
            if not x > 0.0:
                return PropertyReport(
                    "po", "fail",
                    witness={"i": i, "n": n, "reward": x},
                    domain={"n_max": n_max})
    return PropertyReport("po", "pass", domain={"n_max": n_max})


def check_bb(spec: MechanismSpec, n_max: int = DEFAULT_N_MAX) -> PropertyReport:
    """Total pay never exceeds the budget; flags exact exhaustion."""
    n_max = _scan_n_max(spec, n_max)
    budget = spec.budget
    strongly = True
    worst_total, worst_n = -1.0, 1
    for n in range(1, n_max + 1):
        total = rewards_for_length(n, spec).total
        if total > worst_total:
            worst_total, worst_n = total, n
        if abs(total - budget) > EQ_TOL * budget:
            strongly = False
        if total > budget * (1.0 + EQ_TOL):
            return PropertyReport(
                "bb", "fail",
                witness={"n": n, "total": total, "budget": budget},
                domain={"n_max": n_max})
    return PropertyReport(
        "bb", "pass", domain={"n_max": n_max},
        details={"strongly_bb": strongly, "max_total": worst_total,
                 "max_total_n": worst_n})


def check_split(spec: MechanismSpec, rho_expected: Optional[float] = None,
                n_max: int = DEFAULT_N_MAX) -> PropertyReport:
    """Adjacent positions split at least rho_expected; reports the exact
    achieved ratio. Defaults to the family's own ratio capped at 1."""
    n_max = _scan_n_max(spec, n_max)
    theoretical = mechanisms.split_ratio(spec)
    if rho_expected is None:
        rho_expected = min(theoretical, 1.0)
    achieved = None
    for n in range(2, n_max + 1):
        for i in range(1, n):
            lhs = position_reward(i, n, spec)
            rhs = position_reward(i + 1, n, spec)
            ratio = lhs / rhs
            achieved = ratio if achieved is None else min(achieved, ratio)
            if lhs < rho_expected * rhs * (1.0 - EQ_TOL):
                return PropertyReport(
                    "split", "fail",
                    witness={"i": i, "n": n, "ratio": ratio,
                             "rho_expected": rho_expected},
                    domain={"n_max": n_max},
                    details={"theoretical_ratio": theoretical})
    return PropertyReport(
        "split", "pass", domain={"n_max": n_max, "rho_expected": rho_expected},
        details={"theoretical_ratio": theoretical,
                 "achieved_ratio": achieved if achieved is not None else theoretical,
                 "increasing_toward_root": theoretical > 1.0})


def _attack_scan(gain: Callable[..., adversary.AttackOutcome],
                 spec: MechanismSpec, size_max: int, n_max: int,
                 witness: Callable[[int, adversary.AttackOutcome], dict]):
    """Every cell (size, n, i) of one attack through ``gain``, sizes
    outermost: the per-size verdicts and the sorted break-even sizes, both
    keyed by ``AttackOutcome.size``; the smallest profitable size per
    ``"i,n"`` cell; and the first profitable cell's witness,
    ``witness(n, outcome)`` plus its payouts, or None when no cell pays."""
    if n_max < 1:
        raise AuditError(f"n_max must be >= 1, got {n_max}")
    per_size: dict[int, str] = {}
    smallest_violating: dict[str, int] = {}
    equality_sizes: set[int] = set()
    first = None
    for size in range(1, size_max + 1):
        size_ok = True
        for n in range(1, n_max + 1):
            for i in range(1, n + 1):
                out = gain(spec, i, n, size)
                if out.break_even:
                    equality_sizes.add(out.size)
                elif out.profitable:
                    size_ok = False
                    smallest_violating.setdefault(f"{i},{n}", out.size)
                    if first is None:
                        first = {**witness(n, out),
                                 "reward_before": out.reward_before,
                                 "reward_after": out.reward_after}
        per_size[out.size] = "pass" if size_ok else "fail"
    return per_size, sorted(equality_sizes), smallest_violating, first


def check_sp(spec: MechanismSpec, lambda_max: int = DEFAULT_SIZE_MAX,
             n_max: int = DEFAULT_ATTACK_N_MAX) -> PropertyReport:
    """Splitting any position into any number of extra identities (up to
    lambda_max) never pays. Per-size verdicts expose the threshold at which
    an almost-proof mechanism starts holding."""
    per_lambda, equality_at, smallest_violating, witness = _attack_scan(
        adversary.sybil_gain, spec, lambda_max, n_max,
        lambda n, out: {"i": out.position, "n": n, "lambda": out.size})
    return PropertyReport(
        "sp", "pass" if witness is None else "fail", witness=witness,
        domain={"n_max": n_max, "lambda_max": lambda_max},
        details={"per_lambda": per_lambda, "equality_at": equality_at,
                 "smallest_violating_lambda": smallest_violating})


def check_cp(spec: MechanismSpec, gamma_max: int = DEFAULT_SIZE_MAX,
             n_max: int = DEFAULT_ATTACK_N_MAX) -> PropertyReport:
    """Merging consecutive identities (merge sizes up to gamma_max+1) never
    pays. Per-size verdicts expose the approximate-proof threshold."""
    per_size, equality_at, _, witness = _attack_scan(
        adversary.collusion_gain, spec, gamma_max, n_max,
        lambda n, out: {"i": out.position, "n_merged": n,
                        "gamma": out.size - 1, "merge_size": out.size})
    return PropertyReport(
        "cp", "pass" if witness is None else "fail", witness=witness,
        domain={"n_max": n_max, "gamma_max": gamma_max},
        details={"per_merge_size": per_size, "equality_at": equality_at})


def check_monotone_solver_reward(spec: MechanismSpec,
                                 n_max: int = DEFAULT_N_MAX) -> PropertyReport:
    """Direction of the solver's own pay x(n, n) as paths lengthen.

    Split-proof schedules must pay later solvers no more; the check records
    the observed direction for every family rather than asserting a
    direction, and passes whenever the sequence is monotone at all.
    """
    n_max = _scan_n_max(spec, n_max)
    xs = [position_reward(n, n, spec) for n in range(1, n_max + 1)]
    non_increasing = all(a >= b * (1.0 - EQ_TOL) for a, b in zip(xs, xs[1:]))
    non_decreasing = all(a <= b * (1.0 + EQ_TOL) for a, b in zip(xs, xs[1:]))
    if non_increasing and non_decreasing:
        direction = "constant"
    elif non_increasing:
        direction = "non-increasing"
    elif non_decreasing:
        direction = "non-decreasing"
    else:
        direction = "none"
    witness = None
    if direction == "none":
        for n, (a, b) in enumerate(zip(xs, xs[1:]), start=1):
            if a < b:
                witness = {"n": n, "x_n": a, "x_n_plus_1": b}
                break
    return PropertyReport(
        "solver_reward_monotone", "pass" if direction != "none" else "fail",
        witness=witness, domain={"n_max": n_max},
        details={"direction": direction,
                 "sp_direction": direction in ("non-increasing", "constant")})


# ---------------------------------------------------------------------------
# Impossibility certificate
# ---------------------------------------------------------------------------

def reward_table(spec: MechanismSpec, n_max: int) -> dict[tuple[int, int], float]:
    """Explicit x(i, n) table for 1 <= i <= n <= n_max."""
    return {(i, n): position_reward(i, n, spec)
            for n in range(1, n_max + 1) for i in range(1, n + 1)}


def random_positive_table(rng: np.random.Generator,
                          n_max: int) -> dict[tuple[int, int], float]:
    """Uniform entries in [0.05, 1); PO holds by construction."""
    return {(i, n): float(rng.uniform(0.05, 1.0))
            for n in range(1, n_max + 1) for i in range(1, n + 1)}


def impossibility_certificate(table: Mapping[tuple[int, int], float],
                              budget: float = 1.0) -> PropertyReport:
    """No positive schedule survives both attack inequalities.

    Checks three things on the table: strict positivity, the split
    inequality at one extra identity, and the merge inequality at merge size
    three. Applying the split bound twice and combining with the merge bound
    forces x(i+1, n+2) <= 0, so a table passing all three contradicts
    positivity; the verdict is ``pass`` ("consistent") when at least one of
    the three fails, and names which. Equality is tested at 1e-12 relative
    to the largest of ``budget`` and the two sides.
    """
    if not table:
        raise AuditError("empty reward table")
    n_top = max(n for (_, n) in table)
    if n_top < 3:
        raise AuditError(f"table must cover lengths up to 3, got {n_top}")
    cells = [(i, n) for n in range(1, n_top + 1) for i in range(1, n + 1)]
    for i, n in cells:
        value = table.get((i, n))
        if value is None or not np.isfinite(value):
            raise AuditError(f"table entry ({i},{n}) missing or not finite")

    def holds(span, violated) -> bool:
        # x(i, n) against the summed positions i..i+span at length n+span
        for i, n in cells:
            if n + span <= n_top:
                lhs = table[(i, n)]
                rhs = table[(i, n + span)]
                for k in range(1, span + 1):  # not sum(): 3.12 compensates
                    rhs += table[(i + k, n + span)]
                if violated(lhs, rhs,
                            EQ_TOL * max(budget, abs(lhs), abs(rhs))):
                    return False
        return True

    verdicts = {"po": all(table[cell] > 0.0 for cell in cells),
                "sp_m1": holds(1, lambda lhs, rhs, tol: lhs < rhs - tol),
                "cp_m2": holds(2, lambda lhs, rhs, tol: lhs > rhs + tol)}
    failed = [name for name, ok in verdicts.items() if not ok]
    details = {
        **{name: "pass" if ok else "fail" for name, ok in verdicts.items()},
        "failed_properties": failed,
        "certificate": ("joint satisfaction chains the split bound twice "
                        "against the merge bound and forces x(i+1, n+2) <= 0, "
                        "contradicting strict positivity"),
    }
    if failed:
        return PropertyReport("impossibility", "pass",
                              domain={"n_max": n_top}, details=details)
    witness = {"po": "holds", "sp_m1": "holds", "cp_m2": "holds",
               "note": "table claims all three; positivity must be broken"}
    return PropertyReport("impossibility", "fail", witness=witness,
                          domain={"n_max": n_top}, details=details)


# ---------------------------------------------------------------------------
# Tree-level checks: exact tie expectations, deviations, coalitions
# ---------------------------------------------------------------------------

class _DeviationEngine:
    """Exhaustive deviation evaluation on one (tree, spec) pair.

    Expected rewards are exact: tied shortest paths are enumerated and each
    carries equal probability. The search combines only each agent's
    ``misreports``, so no two profiles it evaluates are alike and nothing
    but the per-position rewards is memoized.
    """

    def __init__(self, tree: QueryTree, spec: MechanismSpec):
        self.tree = tree
        self.spec = spec
        truth = querytree.ReportProfile.truthful(tree).reports
        self.misreports = {a: _misreports(rep) for a, rep in truth.items()}
        self.reward = functools.cache(lambda i, n: position_reward(i, n, spec))
        self.baseline = self.expected({})
        self.coalitions = self.deviations = 0   # evaluated by first_block

    def expected(self, overrides: Mapping[int, AgentReport]
                 ) -> dict[int, float]:
        """Expected reward per agent under the given deviations (everyone
        else truthful); agents off every tied path are absent (reward 0)."""
        depth, tied = querytree.tied_solvers(self.tree, overrides)
        result: dict[int, float] = {}
        if tied:
            share = 1.0 / len(tied)
            root, parent = self.tree.root, self.tree.parent
            for solver in tied:
                node, pos = solver, depth
                while node != root:
                    result[node] = result.get(node, 0.0) + \
                        share * self.reward(pos, depth)
                    node = parent[node]
                    pos -= 1
        return result

    def first_block(self, coalitions) -> Optional[tuple]:
        """First ``(coalition, deviation, payoffs)`` every coalition member
        strictly prefers to the truth: coalitions in the given order, each
        over its fully-deviating profiles (every member misreports) in
        ``misreports`` order. None when nothing blocks.

        When every proper subset of a coalition comes before it (singletons;
        ``check_core``'s smaller-first order), this is the first block of
        the search over every profile, truthful members included: if such a
        profile blocked coalition C, its deviators D, a proper subset of C,
        would all gain strictly under the same overrides, and D came
        first."""
        tol = EQ_TOL * self.spec.budget
        baseline = self.baseline
        for coalition in coalitions:
            self.coalitions += 1
            for profile in itertools.product(
                    *(self.misreports[a] for a in coalition)):
                overrides = dict(zip(coalition, profile))
                self.deviations += 1
                payoffs = self.expected(overrides)
                if all(payoffs.get(a, 0.0) > baseline.get(a, 0.0) + tol
                       for a in coalition):
                    return coalition, overrides, payoffs
        return None


def _misreports(truth: AgentReport) -> list[AgentReport]:
    """Every report an agent can make other than the truth, answer kept
    before answer withheld, then more children before fewer. An answer can
    be withheld but not invented; children can be pruned but not added."""
    answers = (True, False) if truth.resp else (False,)
    subsets = [combo for r in range(len(truth.children), -1, -1)
               for combo in itertools.combinations(truth.children, r)]
    return [AgentReport(resp, kids) for resp in answers for kids in subsets
            if (resp, kids) != truth]


def _report_json(report: AgentReport) -> dict:
    return {"resp": report.resp, "children": list(report.children)}


def expected_rewards(tree: QueryTree, spec: MechanismSpec) -> dict[int, float]:
    """Truthful expected reward per agent, exact over tie-breaks."""
    return dict(_DeviationEngine(tree, spec).baseline)


def check_ic(tree: QueryTree, spec: MechanismSpec,
             size_cap: int = DEFAULT_TREE_CAP) -> PropertyReport:
    """No on-path agent gains by withholding its answer or pruning invites.

    Every unilateral deviation of every agent on a tied shortest path is
    enumerated against the truthful profile; comparisons use exact expected
    rewards, so no tie-break is drawn.
    """
    if len(tree.nodes) > size_cap:
        raise AuditError(f"tree has {len(tree.nodes)} nodes; IC enumeration "
                         f"is capped at {size_cap}")
    engine = _DeviationEngine(tree, spec)
    agents = sorted(engine.baseline)
    domain = {"tree_nodes": len(tree.nodes)}
    block = engine.first_block((a,) for a in agents)
    if block is not None:
        (agent,), overrides, payoffs = block
        return PropertyReport(
            "ic", "fail",
            witness={"agent": agent,
                     "report": _report_json(overrides[agent]),
                     "truthful_reward": engine.baseline[agent],
                     "deviant_reward": payoffs[agent]},
            domain=domain, details={"on_path_agents": agents})
    return PropertyReport(
        "ic", "pass", domain=domain,
        details={"on_path_agents": agents,
                 "deviations_checked": engine.deviations})


def check_core(tree: QueryTree, spec: MechanismSpec,
               coalition_cap: int = DEFAULT_COALITION_CAP) -> PropertyReport:
    """No coalition has a joint deviation every member strictly prefers.

    Candidate coalitions are all non-empty agent subsets, smaller first; for
    each, every combination of member misreports (others truthful) is
    evaluated in exact expectation. Profiles in which some members report
    truthfully are not evaluated: such a profile blocks only if its
    deviators, a smaller coalition checked earlier, already block with it,
    so the verdict, the first witness and ``coalitions_checked`` are those
    of the search over every profile. A blocking witness names the
    coalition, the deviation, and both payoff vectors. Singleton coalitions
    reduce to the IC check.
    """
    if len(tree.nodes) > coalition_cap:
        raise AuditError(f"tree has {len(tree.nodes)} nodes; coalition "
                         f"enumeration is capped at {coalition_cap}")
    engine = _DeviationEngine(tree, spec)
    agents = sorted(tree.agents)
    block = engine.first_block(itertools.chain.from_iterable(
        itertools.combinations(agents, size)
        for size in range(1, len(agents) + 1)))
    domain = {"tree_nodes": len(tree.nodes)}
    details = {"coalitions_checked": engine.coalitions}
    if block is None:
        return PropertyReport("core", "pass", domain=domain, details=details)
    coalition, overrides, payoffs = block
    return PropertyReport(
        "core", "fail",
        witness={
            "coalition": list(coalition),
            "deviation": {a: _report_json(rep)
                          for a, rep in overrides.items()},
            "truthful": {a: engine.baseline.get(a, 0.0) for a in coalition},
            "deviant": {a: payoffs[a] for a in coalition}},
        domain=domain, details=details)


# ---------------------------------------------------------------------------
# Property registry: each property's knobs with defaults, check and replay
# ---------------------------------------------------------------------------

class AuditProperty(NamedTuple):
    name: str                         # as selected on the command line
    report: str                       # as PropertyReport.property
    defaults: Mapping[str, object]    # the knobs the check reads
    run: Callable[[MechanismSpec, dict], PropertyReport]  # (spec, knobs)
    # (witness, spec, tree, domain): True when the witness recomputes bit
    # for bit through the original operation and still violates
    replay: Callable[..., bool]


def _audit_trees(check: Callable, counter: str, k: dict) -> PropertyReport:
    """``check(tree, cap)`` on the given tree, or on a seeded batch of
    generated trees up to the first failure, whose tree joins the witness."""
    if k["tree"] is not None:
        return check(k["tree"], k["max_nodes"])
    total = 0
    for index, tree in enumerate(querytree.generate_trees(
            k["trees"], k["seed"], max_nodes=k["max_nodes"])):
        report = check(tree, k["max_nodes"])
        total += report.details.get(counter, 0)
        if not report.passed:
            report.witness["tree"] = querytree.tree_to_json(tree)
            report.domain.update({"trees": k["trees"], "failed_at": index,
                                  "seed": k["seed"]})
            return report
    report.domain.update({"trees": k["trees"], "seed": k["seed"]})
    report.details[counter] = total
    return report


def _replay_deviation(w, spec, tree, deviation, truthful, deviant) -> bool:
    """Each member of ``truthful`` is paid as recorded and gains strictly,
    by a deviation the tree allows (no invented answer, no non-child). Ids
    may be JSON object keys; without ``tree`` the witness's own recorded
    tree is replayed."""
    if tree is None and "tree" not in w:
        raise AuditError("the witness records no tree; pass the audited one")
    engine = _DeviationEngine(tree or querytree.tree_from_json(w["tree"]),
                              spec)
    profile = querytree.profile_from_json({"reports": deviation})
    try:
        profile.validate_against(engine.tree)
    except InvalidTreeError:
        return False
    payoffs = engine.expected(profile.reports)
    return all(engine.baseline.get(int(a), 0.0) == before
               and payoffs.get(int(a), 0.0) == deviant[a] > before
               for a, before in truthful.items())


# Checks are named as module globals, so a wrapper installed on this module
# (a tracer, a test double) runs. Schedule witnesses replay by re-running the
# check on the smallest domain where it finds them first, bit for bit.
PROPERTIES: dict[str, AuditProperty] = {p.name: p for p in (
    AuditProperty("po", "po", {"n_max": DEFAULT_N_MAX},
                  lambda spec, k: check_po(spec, k["n_max"]),
                  lambda w, spec, *_: check_po(spec, w["n"]).witness == w),
    AuditProperty("bb", "bb", {"n_max": DEFAULT_N_MAX},
                  lambda spec, k: check_bb(spec, k["n_max"]),
                  lambda w, spec, *_: check_bb(spec, w["n"]).witness == w),
    AuditProperty("split", "split", {"rho_expected": None,
                                     "n_max": DEFAULT_N_MAX},
                  lambda spec, k: check_split(spec, k["rho_expected"],
                                              k["n_max"]),
                  lambda w, spec, *_: check_split(
                      spec, w["rho_expected"], w["n"]).witness == w),
    AuditProperty("sp", "sp", {"lambda_max": DEFAULT_SIZE_MAX,
                               "n_max": DEFAULT_ATTACK_N_MAX},
                  lambda spec, k: check_sp(spec, k["lambda_max"], k["n_max"]),
                  lambda w, spec, *_: check_sp(
                      spec, w["lambda"], w["n"]).witness == w),
    AuditProperty("cp", "cp", {"gamma_max": DEFAULT_SIZE_MAX,
                               "n_max": DEFAULT_ATTACK_N_MAX},
                  lambda spec, k: check_cp(spec, k["gamma_max"], k["n_max"]),
                  lambda w, spec, *_: check_cp(
                      spec, w["gamma"], w["n_merged"]).witness == w),
    # a shorter scan can turn out monotone, so this one replays on the whole
    AuditProperty("monotone", "solver_reward_monotone",
                  {"n_max": DEFAULT_N_MAX},
                  lambda spec, k: check_monotone_solver_reward(
                      spec, k["n_max"]),
                  lambda w, spec, tree, domain: check_monotone_solver_reward(
                      spec, domain["n_max"]).witness == w),
    # the certificate needs lengths up to 3
    AuditProperty("impossibility", "impossibility",
                  {"n_max": DEFAULT_TABLE_N_MAX},
                  lambda spec, k: impossibility_certificate(
                      reward_table(spec, max(3, k["n_max"])), spec.budget),
                  lambda w, spec, tree, domain: impossibility_certificate(
                      reward_table(spec, domain["n_max"]),
                      spec.budget).witness == w),
    AuditProperty("ic", "ic", {"tree": None, "trees": DEFAULT_IC_TREES,
                               "max_nodes": DEFAULT_TREE_CAP, "seed": 0},
                  lambda spec, k: _audit_trees(lambda tree, cap: check_ic(
                      tree, spec, size_cap=cap), "deviations_checked", k),
                  lambda w, spec, tree, _: _replay_deviation(
                      w, spec, tree, {w["agent"]: w["report"]},
                      {w["agent"]: w["truthful_reward"]},
                      {w["agent"]: w["deviant_reward"]})),
    AuditProperty("core", "core", {"tree": None, "trees": DEFAULT_CORE_TREES,
                                   "max_nodes": DEFAULT_COALITION_CAP,
                                   "seed": 0},
                  lambda spec, k: _audit_trees(lambda tree, cap: check_core(
                      tree, spec, coalition_cap=cap), "coalitions_checked", k),
                  lambda w, spec, tree, _: _replay_deviation(
                      w, spec, tree, w["deviation"], w["truthful"],
                      w["deviant"])),
)}

KNOBS = frozenset(key for p in PROPERTIES.values() for key in p.defaults)

# smallest accepted value per size knob; a node cap below 2 admits no tree
_KNOB_MIN = {"n_max": 1, "lambda_max": 1, "gamma_max": 1, "trees": 1,
             "max_nodes": 2}


def audit(names, spec: MechanismSpec, **knobs) -> list[PropertyReport]:
    """Run the named properties in order ("all": every one). Knobs left out
    or None take each property's default; bad sizes fail before any check."""
    names = list(PROPERTIES) if "all" in names else names
    unknown = set(names) - set(PROPERTIES)
    if unknown:
        raise AuditError(f"unknown properties: {sorted(unknown)}; "
                         f"choose from {tuple(PROPERTIES)}")
    if not KNOBS.issuperset(knobs):
        raise TypeError(f"unknown audit knobs {sorted(set(knobs) - KNOBS)}")
    given = {key: value for key, value in knobs.items() if value is not None}
    for key, low in _KNOB_MIN.items():
        if given.get(key, low) < low:
            raise AuditError(f"{key} must be >= {low}, got {given[key]}")
    return [PROPERTIES[name].run(spec, {**PROPERTIES[name].defaults, **given})
            for name in names]


def replay_witness(report: PropertyReport, spec: Optional[MechanismSpec] = None,
                   tree: Optional[QueryTree] = None) -> bool:
    """Recompute a fail witness through the original operation.

    True when the replay reproduces the recorded numbers exactly and still
    constitutes a violation. Pass verdicts replay trivially.
    """
    if report.verdict == "pass":
        return True
    w = report.witness
    entry = next((p for p in PROPERTIES.values()
                  if p.report == report.property), None)
    if w is None or entry is None:
        return False
    return entry.replay(w, spec, tree, report.domain)
