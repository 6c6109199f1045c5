"""Query trees, report profiles, and shortest-path task allocation.

A query tree is rooted at the task owner. Each edge means the parent informed
the child about the task; each non-root agent either can answer (resp=True) or
cannot. Agents report a possibly-withheld answer and a subset of their
children; allocation walks the *reported* tree and picks a minimum-depth
solver, breaking ties uniformly at random with a seeded generator.

Every operation here costs time linear in the tree size, up to sorting ids:
the JSON loader builds the children lists in one pass over the edges, a tree
computes its node sets once, and the generator pops its BFS frontier from a
deque.

All types are immutable after construction. Operations are pure given the
seed: the RNG (numpy PCG64 via ``default_rng``) is instantiated per call and
never shared, so everything here is safe to evaluate concurrently.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable, Iterator, Mapping, NamedTuple, Optional

import numpy as np

ROOT_ID = 0  # the owner's reserved identifier in generated trees

# Child counts are Poisson(branching_mean) truncated at this cap.
MAX_CHILDREN_CAP = 8

# max_depth, branching_mean and solver_probability of generate_trees' draws
_BATCH_SHAPE = (4, 1.3, 0.5)


class InvalidTreeError(ValueError):
    """Raised when a tree or report profile violates its invariants."""


# ---------------------------------------------------------------------------
# Core types
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class QueryTree:
    """Rooted tree of agents with per-agent yes/no answering ability.

    ``children`` maps every node (including leaves) to its ordered child
    tuple; ``resp`` maps every node to whether it can answer. The root's
    ``resp`` is irrelevant: the owner never solves her own task.

    For a tree derived from reports (see :func:`derive_reported_tree`) the
    ``resp`` mapping holds the *reported* answers, which is all the
    allocation rule is allowed to see.
    """

    root: int
    children: Mapping[int, tuple[int, ...]]
    resp: Mapping[int, bool]

    def __post_init__(self):
        nodes = set(self.children)
        if self.root not in nodes:
            raise InvalidTreeError(f"root {self.root} missing from node set")
        seen_parent: dict[int, int] = {}
        for parent, kids in self.children.items():
            for child in kids:
                if child == self.root:
                    raise InvalidTreeError("root cannot be a child")
                if child not in nodes:
                    raise InvalidTreeError(f"edge to unknown node {child}")
                if child in seen_parent:
                    raise InvalidTreeError(f"node {child} has two parents")
                seen_parent[child] = parent
        missing = nodes - set(self.resp)
        if missing:
            raise InvalidTreeError(f"resp missing for nodes {sorted(missing)}")
        # reachability from the root covers everything (also rules out cycles)
        reached = set(self._iter_bfs())
        if reached != nodes:
            raise InvalidTreeError(
                f"nodes unreachable from root: {sorted(nodes - reached)}")

    def _iter_bfs(self) -> Iterator[int]:
        frontier = [self.root]
        seen = {self.root}
        while frontier:
            nxt = []
            for node in frontier:
                yield node
                for child in self.children.get(node, ()):
                    if child not in seen:
                        seen.add(child)
                        nxt.append(child)
            frontier = nxt

    @cached_property
    def nodes(self) -> frozenset[int]:
        return frozenset(self.children)

    @cached_property
    def agents(self) -> frozenset[int]:
        """All nodes except the owner."""
        return frozenset(n for n in self.children if n != self.root)

    @cached_property
    def parent(self) -> dict[int, int]:
        return {c: p for p, kids in self.children.items() for c in kids}

    @cached_property
    def depth(self) -> dict[int, int]:
        depths = {self.root: 0}
        for node in self._iter_bfs():
            for child in self.children[node]:
                depths[child] = depths[node] + 1
        return depths

    def solvers(self) -> list[int]:
        """Non-root nodes whose resp flag is set, in id order."""
        return sorted(n for n in self.children
                      if n != self.root and self.resp[n])


class AgentReport(NamedTuple):
    """One agent's reported action: claimed answer and forwarded children."""

    resp: bool
    children: tuple[int, ...]


@dataclass(frozen=True)
class ReportProfile:
    """Per-agent reports. Agents absent from ``reports`` act truthfully.

    Reports cannot fabricate: an agent may claim to answer only if it truly
    can, and may forward only to children it truly has.
    """

    reports: Mapping[int, AgentReport] = field(default_factory=dict)

    @classmethod
    def truthful(cls, tree: QueryTree) -> "ReportProfile":
        return cls({n: AgentReport(tree.resp[n], tree.children[n])
                    for n in tree.agents})

    def report_for(self, tree: QueryTree, node: int) -> AgentReport:
        rep = self.reports.get(node)
        if rep is None:
            return AgentReport(tree.resp[node], tree.children[node])
        return rep

    def validate_against(self, tree: QueryTree) -> None:
        for node, rep in self.reports.items():
            if node not in tree.nodes:
                raise InvalidTreeError(f"report for unknown agent {node}")
            if rep.resp and not tree.resp[node]:
                raise InvalidTreeError(
                    f"agent {node} claims an answer it does not have")
            extra = set(rep.children) - set(tree.children[node])
            if extra:
                raise InvalidTreeError(
                    f"agent {node} forwards to non-children {sorted(extra)}")


@dataclass(frozen=True)
class AllocationPath:
    """Winning root-to-solver path. ``n`` counts the non-root agents."""

    agents: tuple[int, ...]

    def __post_init__(self):
        if len(self.agents) < 2:
            raise InvalidTreeError("a path needs the root and one agent")

    @property
    def n(self) -> int:
        return len(self.agents) - 1

    @property
    def solver(self) -> int:
        return self.agents[-1]


# ---------------------------------------------------------------------------
# Operations
# ---------------------------------------------------------------------------

def derive_reported_tree(tree: QueryTree, profile: ReportProfile) -> QueryTree:
    """Tree the owner actually sees: nodes reachable via reported edges only.

    The result's ``resp`` holds the reported answers (the root keeps its
    irrelevant flag). Truthful reports reproduce the input tree exactly.
    """
    profile.validate_against(tree)
    children: dict[int, tuple[int, ...]] = {}
    resp: dict[int, bool] = {tree.root: tree.resp[tree.root]}
    frontier = [tree.root]
    while frontier:
        nxt = []
        for node in frontier:
            if node == tree.root:
                kids = tree.children[node]
            else:
                rep = profile.report_for(tree, node)
                kids = rep.children
                resp[node] = rep.resp
            children[node] = tuple(kids)
            nxt.extend(kids)
        frontier = nxt
    return QueryTree(tree.root, children, resp)


def tied_solvers(tree: QueryTree, reports: Mapping[int, AgentReport] = {}
                 ) -> tuple[int, list[int]]:
    """Depth and sorted ids of the minimum-depth solvers, ``(0, [])`` when
    none is reachable. The agents in ``reports`` report as given (withheld
    answers, pruned children); everyone else reports truthfully."""
    root = tree.root
    frontier, depth = [root], 0
    while frontier:
        tied = sorted(n for n in frontier if n != root and (
            reports[n].resp if n in reports else tree.resp[n]))
        if tied:
            return depth, tied
        frontier = [c for n in frontier for c in (
            reports[n].children if n in reports else tree.children[n])]
        depth += 1
    return 0, []


def allocate(tree_reported: QueryTree, rng_seed: int) -> Optional[AllocationPath]:
    """Pick the minimum-depth reported solver; ties uniform at random.

    Returns ``None`` when nobody reachable reports an answer (the task goes
    unsolved and nothing is paid). The tie-break draws once from
    ``numpy.random.default_rng(rng_seed)``, so a recorded seed replays the
    exact outcome; a single tied solver draws nothing.
    """
    _, tied = tied_solvers(tree_reported)
    if not tied:
        return None
    pick = 0 if len(tied) == 1 else int(
        np.random.default_rng(rng_seed).integers(len(tied)))
    return AllocationPath(_path_to(tree_reported, tied[pick]))


def _path_to(tree: QueryTree, node: int) -> tuple[int, ...]:
    path = [node]
    while node != tree.root:
        node = tree.parent[node]
        path.append(node)
    return tuple(reversed(path))


def generate_random_tree(max_depth: int, branching_mean: float,
                         solver_probability: float, seed: int,
                         exact_branching: bool = False) -> QueryTree:
    """Random rooted tree fixture with dense BFS-ordered ids (root = 0).

    Child counts are drawn per node from Poisson(branching_mean) truncated at
    ``MAX_CHILDREN_CAP``; nodes at ``max_depth`` get none. With
    ``exact_branching`` every internal node gets exactly
    ``round(branching_mean)`` children (forced shapes for tests). Each
    non-root node answers independently with ``solver_probability``. The same
    seed always yields the same tree, node for node.
    """
    if max_depth < 1:
        raise ValueError("max_depth must be >= 1")
    if branching_mean <= 0:
        raise ValueError("branching_mean must be positive")
    if not 0.0 <= solver_probability <= 1.0:
        raise ValueError("solver_probability must lie in [0, 1]")
    rng = np.random.default_rng(seed)
    children: dict[int, tuple[int, ...]] = {}
    resp: dict[int, bool] = {ROOT_ID: False}
    next_id = ROOT_ID + 1
    frontier = deque([(ROOT_ID, 0)])
    while frontier:
        node, depth = frontier.popleft()
        if depth >= max_depth:
            children[node] = ()
            continue
        if exact_branching:
            count = int(round(branching_mean))
        else:
            count = min(int(rng.poisson(branching_mean)), MAX_CHILDREN_CAP)
        kids = tuple(range(next_id, next_id + count))
        next_id += count
        children[node] = kids
        for kid in kids:
            resp[kid] = bool(rng.random() < solver_probability)
            frontier.append((kid, depth + 1))
    return QueryTree(ROOT_ID, children, resp)


def generate_trees(count: int, seed: int, max_nodes: int,
                   min_nodes: int = 2) -> list[QueryTree]:
    """Deterministic batch of random trees with a node-count window.

    Oversized or degenerate draws are re-drawn from a derived sub-seed, so
    the batch depends only on (count, seed, max_nodes, min_nodes).
    """
    if max_nodes < min_nodes:
        raise ValueError(f"max_nodes {max_nodes} < min_nodes {min_nodes}")
    trees = []
    for k in range(count):
        attempt = 0
        while True:
            sub_seed = seed * 1_000_003 + k * 1009 + attempt
            tree = generate_random_tree(*_BATCH_SHAPE, sub_seed)
            if min_nodes <= len(tree.nodes) <= max_nodes:
                trees.append(tree)
                break
            attempt += 1
    return trees


# ---------------------------------------------------------------------------
# JSON wire format
# ---------------------------------------------------------------------------
# One document carries the tree and, optionally, the report profile:
#   {"root": id, "edges": [[parent, child], ...], "resp": {id: 0|1},
#    "reports": {id: {"resp": 0|1, "children": [id, ...]}}}

def tree_to_json(tree: QueryTree,
                 profile: Optional[ReportProfile] = None) -> dict:
    doc = {
        "root": tree.root,
        "edges": sorted([p, c] for p, kids in tree.children.items()
                        for c in kids),
        "resp": {str(n): int(tree.resp[n]) for n in sorted(tree.nodes)},
    }
    if profile is not None:
        doc["reports"] = {
            str(n): {"resp": int(rep.resp),
                     "children": sorted(rep.children)}
            for n, rep in sorted(profile.reports.items())
        }
    return doc


def _json_int(value, what: str) -> int:
    """A JSON id, position, size or length: never a bool, float or string."""
    if type(value) is not int:
        raise InvalidTreeError(f"{what} must be an integer, got {value!r}")
    return value


def _json_flag(value, what: str) -> bool:
    """A JSON answer flag: true, false, 0 or 1."""
    if isinstance(value, int) and value in (0, 1):
        return bool(value)
    raise InvalidTreeError(f"{what} must be true, false, 0 or 1, got {value!r}")


def tree_from_json(doc: Mapping) -> QueryTree:
    try:
        root = _json_int(doc["root"], "root")
        edges = [(_json_int(p, "edge parent"), _json_int(c, "edge child"))
                 for p, c in doc["edges"]]
        resp = {int(k): _json_flag(v, f"resp of {k}")
                for k, v in doc.get("resp", {}).items()}
    except (KeyError, TypeError, ValueError) as exc:
        raise InvalidTreeError(f"malformed tree document: {exc}") from exc
    nodes = {root} | {n for e in edges for n in e}
    unknown = resp.keys() - nodes
    if unknown:
        raise InvalidTreeError(f"resp for unknown nodes {sorted(unknown)}")
    kids: dict[int, list[int]] = {n: [] for n in nodes}
    for p, c in edges:
        kids[p].append(c)
    children = {n: tuple(sorted(kids[n])) for n in nodes}
    full_resp = {n: resp.get(n, False) for n in nodes}
    return QueryTree(root, children, full_resp)


def profile_from_json(doc: Mapping) -> Optional[ReportProfile]:
    raw = doc.get("reports")
    if raw is None:
        return None
    reports = {}
    try:
        for key, rep in raw.items():
            reports[int(key)] = AgentReport(
                _json_flag(rep["resp"], f"resp of {key}"),
                tuple(_json_int(c, "child id") for c in rep["children"]))
    except (KeyError, TypeError, ValueError) as exc:
        raise InvalidTreeError(f"malformed reports: {exc}") from exc
    return ReportProfile(reports)
