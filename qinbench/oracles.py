"""The benchmark's own answers, written without the qinlab package.

Every function here works on plain data (dicts, tuples, floats) so that the
program under test is never its own oracle. The checks return a list of
problem strings; an empty list means the output is correct.
"""

from __future__ import annotations

import itertools
import math
from collections import deque

EQ_TOL = 1e-12  # the equality tolerance the audits document
REL = 1e-12     # relative tolerance for recomputed floats


def close(a: float, b: float, rel: float = REL) -> bool:
    return a == b or abs(a - b) <= rel * max(abs(a), abs(b))


# ---------------------------------------------------------------------------
# Trees: plain {node: tuple(children)} and {node: bool} mappings
# ---------------------------------------------------------------------------

def depths(root, children):
    out = {root: 0}
    queue = deque([root])
    while queue:
        node = queue.popleft()
        for kid in children.get(node, ()):
            out[kid] = out[node] + 1
            queue.append(kid)
    return out


def min_depth_solvers(root, children, resp):
    """(depth, solvers at that depth) of the shallowest reported solvers."""
    level = [root]
    depth = 0
    while level:
        tied = [n for n in level if n != root and resp[n]]
        if tied:
            return depth, set(tied)
        level = [k for n in level for k in children.get(n, ())]
        depth += 1
    return None, set()


def derive(root, children, resp, reports):
    """Reported tree: only reported edges, reported answers."""
    out_kids, out_resp = {}, {root: resp[root]}
    queue = deque([root])
    while queue:
        node = queue.popleft()
        if node != root and node in reports:
            r, kids = reports[node]
            out_resp[node] = r
        else:
            kids = children[node]
            if node != root:
                out_resp[node] = resp[node]
        out_kids[node] = tuple(kids)
        queue.extend(kids)
    return out_kids, out_resp


def sybil_split(children, resp, agent, lam):
    """Chain of lam fresh identities under ``agent``; the last one takes
    over the agent's children and answer."""
    base = max(children) + 1
    chain = (agent,) + tuple(range(base, base + lam))
    kids, flags = dict(children), dict(resp)
    for head, tail in zip(chain, chain[1:]):
        kids[head] = (tail,)
    kids[chain[-1]] = children[agent]
    flags[chain[-1]] = resp[agent]
    for fake in chain[:-1]:
        flags[fake] = False
    return kids, flags, chain


def check_min_path(agents, root, children, resp, what):
    """``agents`` must be a root-to-solver path of minimum depth."""
    depth, tied = min_depth_solvers(root, children, resp)
    if depth is None:
        return [f"{what}: a path was returned but no solver is reachable"]
    if agents is None:
        return [f"{what}: no path, expected one of depth {depth}"]
    problems = []
    if agents[0] != root:
        problems.append(f"{what}: path starts at {agents[0]}, not the root")
    for parent, kid in zip(agents, agents[1:]):
        if kid not in children.get(parent, ()):
            problems.append(f"{what}: {kid} is not a reported child of "
                            f"{parent}")
            break
    if len(agents) - 1 != depth:
        problems.append(f"{what}: path length {len(agents) - 1}, minimum "
                        f"is {depth}")
    if agents[-1] not in tied:
        problems.append(f"{what}: {agents[-1]} is not a minimum-depth solver")
    return problems


def tree_doc(root, children, resp):
    """The wire-format fields a tree serialises to."""
    return {"root": root,
            "edges": sorted([p, c] for p, kids in children.items()
                            for c in kids),
            "resp": {str(n): int(resp[n]) for n in sorted(children)}}


# ---------------------------------------------------------------------------
# Reward schedules from their formulas
# ---------------------------------------------------------------------------

def rho_rewards(name, rho, n):
    """x(1..n) of the rho-split dgm / geom / gcrm mechanisms, budget 1."""
    if name == "dgm":
        return [rho ** (n - i) / (1.0 + rho) ** (n - 1)
                for i in range(1, n + 1)]
    if name == "geom":
        return [rho ** (n - i) * (1.0 - rho) / (1.0 - rho ** n)
                for i in range(1, n + 1)]
    a = (math.sqrt(1.0 + 4.0 * rho) - 1.0) / 2.0
    return [a ** (n - i) / (1.0 + a) ** i for i in range(1, n + 1)]


class Schedule:
    """x(i, n) of a spec given by (family, alpha, budget, beta), memoised."""

    def __init__(self, family, alpha, budget, beta):
        self.family, self.alpha, self.budget, self.beta = \
            family, alpha, budget, beta
        self._x = {}

    def beta_n(self, n):
        a, b = self.alpha, self.budget
        if self.beta == "sp":
            return b / (1.0 + a) ** (n - 1)
        if self.beta == "cp":
            return (1.0 - a) / (1.0 - a ** n) * b
        return self.beta[n]

    def x(self, i, n):
        key = (i, n)
        if key not in self._x:
            a = self.alpha
            if self.family == "GCRM":
                self._x[key] = a ** (n - i) / (1.0 + a) ** i * self.budget
            else:
                self._x[key] = a ** (n - i) * self.beta_n(n)
        return self._x[key]

    def scan_n_max(self, n_max):
        if isinstance(self.beta, dict):
            return min(n_max, max(self.beta))
        return n_max

    def cells(self, n_max):
        return [(i, n) for n in range(1, n_max + 1) for i in range(1, n + 1)]


def _gain_class(before, after):
    scale = max(1.0, before, after)
    if abs(after - before) <= EQ_TOL * scale:
        return "even"
    return "gain" if after > before + EQ_TOL * scale else "loss"


def expected_schedule_report(s: Schedule, prop, n_max=None, size_max=20):
    """(verdict, first witness cell, details) recomputed for one property at
    the auditor's default domain."""
    if prop == "po":
        n_top = s.scan_n_max(50 if n_max is None else n_max)
        for i, n in s.cells(n_top):
            if not s.x(i, n) > 0.0:
                return "fail", {"i": i, "n": n, "reward": s.x(i, n)}, {}
        return "pass", None, {}
    if prop == "bb":
        n_top = s.scan_n_max(50 if n_max is None else n_max)
        for n in range(1, n_top + 1):
            total = math.fsum(s.x(i, n) for i in range(1, n + 1))
            if total > s.budget * (1.0 + EQ_TOL):
                return "fail", {"n": n, "total": total}, {}
        return "pass", None, {}
    if prop == "split":
        n_top = s.scan_n_max(50 if n_max is None else n_max)
        theory = s.alpha if s.family == "TDGM" else s.alpha * (1 + s.alpha)
        rho = min(theory, 1.0)
        for n in range(2, n_top + 1):
            for i in range(1, n):
                lhs, rhs = s.x(i, n), s.x(i + 1, n)
                if lhs < rho * rhs * (1.0 - EQ_TOL):
                    return "fail", {"i": i, "n": n, "ratio": lhs / rhs}, {}
        return "pass", None, {}
    if prop in ("sp", "cp"):
        n_top = 20 if n_max is None else n_max
        per, equal, witness = {}, set(), None
        for size in range(1, size_max + 1):
            ok = True
            for i, n in s.cells(n_top):
                run = [s.x(i + k, n + size) for k in range(size + 1)]
                if prop == "sp":
                    before, after = s.x(i, n), math.fsum(run)
                else:
                    before, after = math.fsum(run), s.x(i, n)
                kind = _gain_class(before, after)
                if kind == "even":
                    equal.add(size if prop == "sp" else size + 1)
                elif kind == "gain":
                    ok = False
                    if witness is None:
                        witness = ({"i": i, "n": n, "lambda": size}
                                   if prop == "sp" else
                                   {"i": i, "n_merged": n, "gamma": size})
                        witness.update(reward_before=before,
                                       reward_after=after)
            per[size if prop == "sp" else size + 1] = "pass" if ok else "fail"
        verdict = "pass" if witness is None else "fail"
        return verdict, witness, {"per_size": per,
                                  "equality_at": sorted(equal)}
    if prop == "monotone":
        n_top = s.scan_n_max(50 if n_max is None else n_max)
        xs = [s.x(n, n) for n in range(1, n_top + 1)]
        pairs = list(zip(xs, xs[1:]))
        down = all(a >= b * (1.0 - EQ_TOL) for a, b in pairs)
        up = all(a <= b * (1.0 + EQ_TOL) for a, b in pairs)
        if down or up:
            return "pass", None, {}
        n = next(k for k, (a, b) in enumerate(pairs, 1) if a < b)
        return "fail", {"n": n, "x_n": xs[n - 1], "x_n_plus_1": xs[n]}, {}
    raise ValueError(prop)


def impossibility_flags(table):
    """Which of po / sp_m1 / cp_m2 fail on an {(i, n): x} table."""
    n_top = max(n for _, n in table)
    po = any(not table[(i, n)] > 0.0 for (i, n) in table)
    sp1 = cp2 = False
    for n in range(1, n_top):
        for i in range(1, n + 1):
            lhs = table[(i, n)]
            rhs = table[(i, n + 1)] + table[(i + 1, n + 1)]
            if lhs < rhs - EQ_TOL * max(1.0, abs(lhs), abs(rhs)):
                sp1 = True
            if n + 2 <= n_top:
                rhs2 = sum(table[(i + k, n + 2)] for k in range(3))
                if lhs > rhs2 + EQ_TOL * max(1.0, abs(lhs), abs(rhs2)):
                    cp2 = True
    return {"po": po, "sp_m1": sp1, "cp_m2": cp2}


def compare_report(report: dict, expected, prop) -> list[str]:
    """Match an audit report (its JSON form) to the recomputed verdict."""
    verdict, witness, details = expected
    problems = []
    if report["verdict"] != verdict:
        return [f"{prop}: verdict {report['verdict']}, expected {verdict}"]
    got = report["witness"] or {}
    for key, value in (witness or {}).items():
        same = (close(got[key], value) if isinstance(value, float)
                else got[key] == value) if key in got else False
        if not same:
            problems.append(f"{prop}: witness {key}={got.get(key)}, "
                            f"recomputed {value}")
    if prop in ("sp", "cp"):
        per_key = "per_lambda" if prop == "sp" else "per_merge_size"
        per = {int(k): v for k, v in report["details"][per_key].items()}
        if per != details["per_size"]:
            problems.append(f"{prop}: per-size verdicts differ")
        if report["details"]["equality_at"] != details["equality_at"]:
            problems.append(f"{prop}: equality_at "
                            f"{report['details']['equality_at']}, expected "
                            f"{details['equality_at']}")
    return problems


# ---------------------------------------------------------------------------
# Attack ratios and analytics
# ---------------------------------------------------------------------------

def attack_rewards(s: Schedule, kind, position, size, n):
    """(before, after) of one attack cell, as the scenario format means it."""
    if kind == "sybil":
        return (s.x(position, n),
                math.fsum(s.x(position + k, n + size) for k in range(size + 1)))
    gamma = size - 1
    return (math.fsum(s.x(position + k, n + gamma) for k in range(gamma + 1)),
            s.x(position, n))


def sybil_factor(alpha, lam):
    return math.fsum(alpha ** (lam - k) / (1.0 + alpha) ** k
                     for k in range(lam + 1))


def lambda_star_ok(alpha, got):
    """True when ``got`` is the first split count with f <= 1 (a factor
    within the tolerance of 1 may land on either side)."""
    def le_one(lam):
        f = sybil_factor(alpha, lam)
        return None if abs(f - 1.0) <= 1e-12 else f <= 1.0
    if le_one(got) is False:
        return False
    return all(le_one(lam) is not True for lam in range(1, got))


# Frozen in tests/test_analytics.py: the alphas of ALPHA_GRID_FINE where
# nearest-integer rounding of the stationary point misses the scanned argmax
# by one.
ROUNDING_MISSES = {
    "sybil": {0.76, 0.91},
    "path_length": {round(0.01 * k, 2) for k in range(1, 17)} | {0.76, 0.91},
}


# ---------------------------------------------------------------------------
# Tree audits: exact expected rewards under joint deviations
# ---------------------------------------------------------------------------

class TreeGame:
    """Exhaustive deviation search on one small tree, from scratch.

    A deviating agent withholds its answer and/or forwards a subset of its
    children. Expected rewards split the schedule evenly over the tied
    minimum-depth solvers.
    """

    def __init__(self, root, children, resp, schedule: Schedule):
        self.root, self.children, self.resp = root, children, resp
        self.s = schedule
        self.parent = {k: p for p, kids in children.items() for k in kids}
        self.depth = depths(root, children)
        self.baseline = self.payoffs({})

    def options(self, agent):
        """Every report of ``agent`` in the order the auditor documents:
        the answer kept before it is withheld, larger sets of forwarded
        children before smaller, lexicographic within a size."""
        resp, kids = self.resp[agent], self.children[agent]
        answers = (True, False) if resp else (False,)
        subsets = [c for r in range(len(kids), -1, -1)
                   for c in itertools.combinations(kids, r)]
        return [(a, k) for a in answers for k in subsets]

    def truthful(self, agent):
        return (self.resp[agent], self.children[agent])

    def payoffs(self, deviations):
        level, depth = [self.root], 0
        while level:
            tied = [n for n in level if n != self.root and
                    deviations.get(n, (self.resp[n],))[0]]
            if tied:
                break
            nxt = []
            for n in level:
                nxt.extend(deviations[n][1] if n in deviations
                           else self.children[n])
            level, depth = nxt, depth + 1
        else:
            return {}
        count = {}
        for solver in tied:
            node = solver
            while node != self.root:
                count[node] = count.get(node, 0) + 1
                node = self.parent[node]
        return {a: c * self.s.x(self.depth[a], depth) / len(tied)
                for a, c in count.items()}

    def gains(self, deviations):
        pay = self.payoffs(deviations)
        tol = EQ_TOL * self.s.budget
        return all(pay.get(a, 0.0) > self.baseline.get(a, 0.0) + tol
                   for a in deviations), pay

    def on_path(self):
        return sorted(self.baseline)

    def ic_witnesses(self):
        """Profitable unilateral deviations of on-path agents, agents in
        ascending order, each agent's reports in ``options`` order."""
        for agent in self.on_path():
            for opt in self.options(agent):
                if opt != self.truthful(agent) and \
                        self.gains({agent: opt})[0]:
                    yield {agent: opt}

    def core_witnesses(self):
        """Blocking deviations in size-major order: coalitions by size, then
        lexicographic over the sorted agents, then the product of the
        members' reports in ``options`` order. Only profiles in which every
        member deviates are listed: a block with a truthful member comes
        after the block of its deviators alone, a smaller coalition."""
        agents = sorted(a for a in self.children if a != self.root)
        devs = {a: [o for o in self.options(a) if o != self.truthful(a)]
                for a in agents}
        for size in range(1, len(agents) + 1):
            for coalition in itertools.combinations(agents, size):
                for profile in itertools.product(*(devs[a]
                                                   for a in coalition)):
                    deviations = dict(zip(coalition, profile))
                    if self.gains(deviations)[0]:
                        yield deviations

    def ic_blocked(self):
        """Some on-path agent gains by a unilateral deviation."""
        return next(self.ic_witnesses(), None) is not None

    def core_blocked(self):
        """Some set of deviating agents all strictly gain. Agents cut off
        by an ancestor's pruning stay truthful: a deviator off every path
        earns 0 and cannot gain."""
        order = [a for a in self.depth if a != self.root]

        def search(k, reached, deviations):
            if k == len(order):
                return bool(deviations) and self.gains(deviations)[0]
            agent = order[k]
            if agent not in reached:
                return search(k + 1, reached, deviations)
            for opt in self.options(agent):
                truthful = opt == self.truthful(agent)
                if not truthful:
                    deviations[agent] = opt
                if search(k + 1, reached | set(opt[1]), deviations):
                    return True
                deviations.pop(agent, None)
            return False

        return search(0, set(self.children[self.root]), {})

    def witness_problems(self, prop, witness):
        """A fail witness must name valid reports that really gain, and be
        the first such deviation in the auditor's enumeration order."""
        if prop == "ic":
            devs = {witness["agent"]: (witness["report"]["resp"],
                                       tuple(witness["report"]["children"]))}
            members = [witness["agent"]]
            first = next(self.ic_witnesses(), None)
            claimed = {witness["agent"]: (witness["truthful_reward"],
                                          witness["deviant_reward"])}
        else:
            devs = {int(a): (r["resp"], tuple(r["children"]))
                    for a, r in witness["deviation"].items()}
            members = [int(a) for a in witness["coalition"]]
            claimed = {int(a): (witness["truthful"][a], witness["deviant"][a])
                       for a in witness["coalition"]}
            first = next(self.core_witnesses(), None)
        if devs != first or members != sorted(first):
            return [f"{prop}: witness {devs} (members {members}) is not the "
                    f"first blocking deviation in the auditor's order, "
                    f"{first}"]
        problems = []
        for agent, opt in devs.items():
            if agent not in members or opt not in self.options(agent) \
                    or opt == self.truthful(agent):
                problems.append(f"{prop}: invalid deviation for {agent}")
        if problems:
            return problems
        pay = self.payoffs(devs)
        tol = EQ_TOL * self.s.budget
        for agent in members:
            before, after = self.baseline.get(agent, 0.0), pay.get(agent, 0.0)
            if not (close(before, claimed[agent][0])
                    and close(after, claimed[agent][1])):
                problems.append(f"{prop}: payoffs of {agent} recompute to "
                                f"{before}/{after}, witness says "
                                f"{claimed[agent]}")
            if not after > before + tol:
                problems.append(f"{prop}: {agent} does not gain")
        return problems
