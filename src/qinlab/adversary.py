"""Attack transformations on allocation paths and trees.

One move, read in two directions, stated purely on path indices:

* **Sybil split** -- one agent at position i becomes lam+1 consecutive
  identities, stretching the path from n to n+lam; the attacker collects
  positions i..i+lam.
* **Collusion merge** -- the split run backwards: gamma+1 consecutive agents
  at positions i..i+gamma collapse into one identity, shrinking the path
  from n+gamma to n; the merged agent collects position i alone.

The structural realization on trees inserts a linear chain (each fake invites
the next); which identities share an owner is recorded in a principal map
that lives here, invisible to the reward schedules -- the owner cannot tell
fakes from honest agents.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .mechanisms import EQ_TOL, MechanismSpec, RewardDomainError, position_reward
from .querytree import QueryTree, _json_int


@dataclass(frozen=True)
class AttackOutcome:
    """Before/after payout of one attack at one position.

    ``profitable`` means the payout strictly grew beyond the 1e-12 equality
    tolerance, relative to the largest of the budget and both payouts;
    exact break-even schedules (which hit equality only up to float
    rounding) report ``break_even`` instead.
    """

    kind: str              # "sybil" | "collusion"
    position: int
    size: int              # fakes added (sybil) or merge size gamma+1
    reward_before: float
    reward_after: float
    budget: float          # the spec's; floors the tolerance's scale

    @property
    def ratio(self) -> float:
        return self.reward_after / self.reward_before

    @property
    def _scale(self) -> float:
        return max(self.budget, self.reward_before, self.reward_after)

    @property
    def profitable(self) -> bool:
        return self.reward_after > self.reward_before + EQ_TOL * self._scale

    @property
    def break_even(self) -> bool:
        return abs(self.reward_after - self.reward_before) <= \
            EQ_TOL * self._scale

    def to_json(self) -> dict:
        return {"kind": self.kind, "position": self.position,
                "size": self.size, "reward_before": self.reward_before,
                "reward_after": self.reward_after, "ratio": self.ratio,
                "profitable": self.profitable}


def _split(spec: MechanismSpec, i: int, n: int,
           lam: int) -> tuple[float, float]:
    """A split's pair: x(i, n) and the fsum of x(i+k, n+lam), k = 0..lam."""
    if not 1 <= i <= n:
        raise RewardDomainError(f"position {i} outside 1..{n}")
    return (position_reward(i, n, spec),
            math.fsum(position_reward(i + k, n + lam, spec)
                      for k in range(lam + 1)))


def sybil_gain(spec: MechanismSpec, i: int, n: int, lam: int) -> AttackOutcome:
    """Outcome of splitting position i on a length-n path into lam+1
    identities: before = x(i, n), after = sum_k x(i+k, n+lam)."""
    if lam < 1:
        raise RewardDomainError(f"need at least one fake identity, got {lam}")
    return AttackOutcome("sybil", i, lam, *_split(spec, i, n, lam),
                         spec.budget)


def collusion_gain(spec: MechanismSpec, i: int, n_merged: int,
                   gamma: int) -> AttackOutcome:
    """Outcome of gamma+1 consecutive agents merging into position i of a
    length-``n_merged`` path: before = their separate sum on the true
    (length n_merged+gamma) path, after = x(i, n_merged)."""
    if gamma < 1:
        raise RewardDomainError(f"need at least two agents to merge, got "
                                f"gamma={gamma}")
    after, before = _split(spec, i, n_merged, gamma)
    return AttackOutcome("collusion", i, gamma + 1, before, after,
                         spec.budget)


@dataclass(frozen=True)
class SybiledTree:
    """Tree after a Sybil split plus the adversary-side bookkeeping:
    ``principal`` maps every identity to its controlling agent (fakes to the
    attacker, honest nodes to themselves); ``chain`` lists the attacker's
    identities top-down."""

    tree: QueryTree
    principal: dict[int, int]
    chain: tuple[int, ...]


def apply_sybil_to_tree(tree: QueryTree, agent: int, lam: int) -> SybiledTree:
    """Replace ``agent`` with a chain of lam+1 identities it controls.

    The original node heads the chain, ``lam`` fresh ids follow, the original
    children hang off the last link, and the answer flag moves to the last
    link (the principal answers through its deepest identity). Depths below
    the attacked branch grow by exactly lam, which is what lets shortest-path
    allocation punish the split: an honest same-depth sibling now wins.
    """
    if agent == tree.root:
        raise RewardDomainError("the owner does not attack her own query")
    if agent not in tree.nodes:
        raise RewardDomainError(f"agent {agent} not in tree")
    if lam < 1:
        raise RewardDomainError(f"need at least one fake identity, got {lam}")
    base = max(tree.nodes) + 1
    fakes = tuple(range(base, base + lam))
    chain = (agent,) + fakes
    children = {n: kids for n, kids in tree.children.items()}
    resp = {n: r for n, r in tree.resp.items()}
    original_kids = children[agent]
    for head, tail in zip(chain, chain[1:]):
        children[head] = (tail,)
    children[chain[-1]] = original_kids
    resp[chain[-1]] = resp[agent]
    for fake in chain[:-1]:
        resp[fake] = False
    principal = {n: n for n in tree.nodes}
    principal.update({fake: agent for fake in fakes})
    return SybiledTree(QueryTree(tree.root, children, resp), principal, chain)


def scenario_from_json(doc: dict) -> dict:
    """Validate an attack scenario {"kind", "position", "size", "n"}.

    ``size`` counts fakes added for a split and merged identities for a
    merge (so it is at least 2 there).
    """
    try:
        kind = doc["kind"]
        position = _json_int(doc["position"], "position")
        size = _json_int(doc["size"], "size")
        n = _json_int(doc["n"], "n")
    except (KeyError, TypeError, ValueError) as exc:
        raise RewardDomainError(f"malformed attack scenario: {exc}") from exc
    if kind not in ("sybil", "collusion"):
        raise RewardDomainError(f"unknown attack kind {kind!r}")
    return {"kind": kind, "position": position, "size": size, "n": n}


def run_scenario(spec: MechanismSpec, scenario: dict) -> AttackOutcome:
    """Dispatch a validated scenario to the matching gain computation."""
    if scenario["kind"] == "sybil":
        return sybil_gain(spec, scenario["position"], scenario["n"],
                          scenario["size"])
    return collusion_gain(spec, scenario["position"], scenario["n"],
                          scenario["size"] - 1)
