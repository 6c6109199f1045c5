"""Tree model, report derivation, allocation, and fixtures."""

import collections
import hashlib
import json
import math
import random
import time

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qinlab.querytree import (
    AgentReport,
    AllocationPath,
    InvalidTreeError,
    QueryTree,
    ReportProfile,
    allocate,
    derive_reported_tree,
    generate_random_tree,
    generate_trees,
    profile_from_json,
    tied_solvers,
    tree_from_json,
    tree_to_json,
)


def chain(length, solver_last=True):
    """0 -> 1 -> ... -> length; only the last node answers."""
    children = {i: (i + 1,) for i in range(length)}
    children[length] = ()
    resp = {i: False for i in range(length + 1)}
    if solver_last:
        resp[length] = True
    return QueryTree(0, children, resp)


def subtree(tree, node):
    """All descendants of ``node`` in ``tree``, including itself."""
    out, stack = set(), [node]
    while stack:
        cur = stack.pop()
        out.add(cur)
        stack.extend(tree.children[cur])
    return out


def tied_shortest_paths(tree):
    """All minimum-depth solver paths; allocation's tie-break picks
    uniformly among these."""
    paths = []
    for solver in tied_solvers(tree)[1]:
        path = [solver]
        while path[-1] != tree.root:
            path.append(tree.parent[path[-1]])
        paths.append(AllocationPath(tuple(reversed(path))))
    return paths


def two_branch():
    """root -> {1 -> 2 (answers at depth 2), 3 -> 4 -> 5 (answers at 3)}."""
    children = {0: (1, 3), 1: (2,), 2: (), 3: (4,), 4: (5,), 5: ()}
    resp = {0: False, 1: False, 2: True, 3: False, 4: False, 5: True}
    return QueryTree(0, children, resp)


# SHA-256 over json.dumps(tree_to_json(t)) for the trees of
# TestGenerateRandomTree.test_seeded_trees_match_the_golden_digest
GOLDEN_TREES_SHA256 = \
    "d94b1c3ba542eb441d1b0de16d1eb2130ec98b5b02b7cd66b7be363895d5a43a"


def tree_from_json_by_edge_scan(doc):
    """Reference loader for tree_from_json: each node scans the whole edge
    list for its children (quadratic in the tree size)."""
    try:
        root = int(doc["root"])
        edges = [(int(p), int(c)) for p, c in doc["edges"]]
        resp = {int(k): bool(v) for k, v in doc.get("resp", {}).items()}
    except (KeyError, TypeError, ValueError) as exc:
        raise InvalidTreeError(f"malformed tree document: {exc}") from exc
    nodes = {root} | {n for e in edges for n in e}
    unknown = resp.keys() - nodes
    if unknown:
        raise InvalidTreeError(f"resp for unknown nodes {sorted(unknown)}")
    children = {n: tuple(sorted(c for p, c in edges if p == n))
                for n in nodes}
    full_resp = {n: resp.get(n, False) for n in nodes}
    return QueryTree(root, children, full_resp)


@st.composite
def edge_documents(draw):
    """Tree documents from random edge lists: a random tree on shuffled ids
    in shuffled edge order, plus stray edges (duplicates, cycles, second
    parents, self loops) and sometimes a root that is not the tree's."""
    size = draw(st.integers(1, 10))
    ids = draw(st.permutations(range(size + 3)))[:size]
    edges = [[ids[draw(st.integers(0, j - 1))], ids[j]]
             for j in range(1, size)]
    stray = st.lists(st.sampled_from(ids), min_size=2, max_size=2)
    if edges:
        stray = st.one_of(stray, st.sampled_from(edges))
    edges = draw(st.permutations(edges + draw(st.lists(stray, max_size=2))))
    root = draw(st.one_of(st.just(ids[0]), st.sampled_from(ids),
                          st.just(size + 3)))
    answering = draw(st.sets(st.sampled_from(ids + [size + 4])))
    return {"root": root, "edges": edges,
            "resp": {str(n): draw(st.integers(0, 1)) for n in answering}}


class TestQueryTreeInvariants:
    def test_two_parents_rejected(self):
        with pytest.raises(InvalidTreeError):
            QueryTree(0, {0: (1, 2), 1: (2,), 2: ()},
                      {0: False, 1: False, 2: True})

    def test_root_as_child_rejected(self):
        with pytest.raises(InvalidTreeError):
            QueryTree(0, {0: (1,), 1: (0,)}, {0: False, 1: True})

    def test_unreachable_node_rejected(self):
        with pytest.raises(InvalidTreeError):
            QueryTree(0, {0: (), 1: ()}, {0: False, 1: True})

    def test_missing_resp_rejected(self):
        with pytest.raises(InvalidTreeError):
            QueryTree(0, {0: (1,), 1: ()}, {0: False})

    def test_depth_and_parent(self):
        tree = two_branch()
        assert tree.depth == {0: 0, 1: 1, 3: 1, 2: 2, 4: 2, 5: 3}
        assert tree.parent[5] == 4
        assert subtree(tree, 3) == {3, 4, 5}

    def test_node_sets_are_built_once(self):
        tree = two_branch()
        assert tree.nodes is tree.nodes
        assert tree.agents is tree.agents
        assert tree.agents == tree.nodes - {tree.root}


class TestDeriveReportedTree:
    def test_truthful_reports_reproduce_tree(self):
        tree = two_branch()
        derived = derive_reported_tree(tree, ReportProfile.truthful(tree))
        assert derived.children == tree.children
        assert derived.resp == tree.resp

    def test_pruning_severs_descendants(self):
        tree = chain(3)
        profile = ReportProfile({1: AgentReport(False, ())})
        derived = derive_reported_tree(tree, profile)
        assert derived.nodes == {0, 1}

    def test_withheld_subtree_matches_reachability_scan(self):
        # 7-node tree; node 1 withholds one of its two children
        children = {0: (1,), 1: (2, 3), 2: (4,), 3: (5,), 4: (), 5: (6,),
                    6: ()}
        resp = {n: n == 6 for n in children}
        tree = QueryTree(0, children, resp)
        profile = ReportProfile({1: AgentReport(False, (3,))})
        derived = derive_reported_tree(tree, profile)

        # independent oracle: plain BFS over reported edges
        reported_children = {n: tree.children[n] for n in tree.nodes}
        reported_children[1] = (3,)
        reachable, frontier = {0}, collections.deque([0])
        while frontier:
            node = frontier.popleft()
            for kid in reported_children[node]:
                reachable.add(kid)
                frontier.append(kid)
        assert derived.nodes == reachable
        assert len(derived.nodes) == 7 - len(subtree(tree, 2))

    def test_withheld_answer_reflected_in_resp(self):
        tree = chain(2)
        profile = ReportProfile({2: AgentReport(False, ())})
        derived = derive_reported_tree(tree, profile)
        assert derived.resp[2] is False

    def test_fake_answer_rejected(self):
        tree = chain(2)
        profile = ReportProfile({1: AgentReport(True, (2,))})
        with pytest.raises(InvalidTreeError):
            derive_reported_tree(tree, profile)

    def test_non_child_report_rejected(self):
        tree = two_branch()
        profile = ReportProfile({1: AgentReport(False, (4,))})
        with pytest.raises(InvalidTreeError):
            derive_reported_tree(tree, profile)

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 10_000))
    def test_idempotent_under_truthful_reports(self, seed):
        tree = generate_random_tree(3, 1.2, 0.4, seed)
        once = derive_reported_tree(tree, ReportProfile.truthful(tree))
        twice = derive_reported_tree(once, ReportProfile.truthful(once))
        assert once.children == twice.children
        assert once.resp == twice.resp


class TestAllocate:
    def test_unique_solver_chain(self):
        path = allocate(chain(2), 0)
        assert path.agents == (0, 1, 2)
        assert path.n == 2
        assert path.solver == 2

    def test_strict_minimum_wins_regardless_of_seed(self):
        tree = two_branch()
        for seed in range(25):
            assert allocate(tree, seed).solver == 2

    def test_no_solver_returns_none(self):
        assert allocate(chain(2, solver_last=False), 0) is None

    def test_tie_break_is_uniform(self):
        children = {0: (1, 2), 1: (), 2: ()}
        resp = {0: False, 1: True, 2: True}
        tree = QueryTree(0, children, resp)
        counts = collections.Counter(allocate(tree, s).solver
                                     for s in range(10_000))
        assert abs(counts[1] / 10_000 - 0.5) < 0.02
        assert abs(counts[2] / 10_000 - 0.5) < 0.02

    def test_path_length_equals_minimum_solver_depth(self):
        for seed in range(60):
            tree = generate_random_tree(4, 1.4, 0.4, seed)
            solvers = tree.solvers()
            path = allocate(tree, seed)
            if not solvers:
                assert path is None
                continue
            assert path.n == min(tree.depth[s] for s in solvers)

    def test_path_agents_are_solver_ancestors(self):
        for seed in range(60):
            tree = generate_random_tree(4, 1.4, 0.4, seed)
            path = allocate(tree, seed)
            if path is None:
                continue
            for agent in path.agents[1:-1]:
                assert path.solver in subtree(tree, agent)

    def test_tied_shortest_paths_enumeration(self):
        children = {0: (1, 2), 1: (3,), 2: (4,), 3: (), 4: ()}
        resp = {0: False, 1: False, 2: False, 3: True, 4: True}
        tree = QueryTree(0, children, resp)
        paths = tied_shortest_paths(tree)
        assert sorted(p.solver for p in paths) == [3, 4]
        assert all(p.n == 2 for p in paths)


class TestGenerateRandomTree:
    def test_forced_shape(self):
        tree = generate_random_tree(1, 2.0, 1.0, seed=0, exact_branching=True)
        assert tree.children[0] == (1, 2)
        assert tree.resp[1] and tree.resp[2]
        assert len(tree.nodes) == 3

    def test_same_seed_same_tree(self):
        a = generate_random_tree(4, 1.5, 0.3, seed=42)
        b = generate_random_tree(4, 1.5, 0.3, seed=42)
        assert a.children == b.children
        assert a.resp == b.resp

    def test_solver_fraction_matches_probability(self):
        yes = total = 0
        for seed in range(1000):
            tree = generate_random_tree(3, 1.3, 0.3, seed)
            agents = tree.agents
            total += len(agents)
            yes += sum(tree.resp[a] for a in agents)
        assert abs(yes / total - 0.3) < 0.03

    def test_seeded_trees_match_the_golden_digest(self):
        # seeded trees stay identical node for node: a different draw order
        # or id assignment moves this digest
        trees = [generate_random_tree(4, 2.2, 0.3, s, exact_branching=exact)
                 for s in range(300) for exact in (False, True)]
        trees += generate_trees(200, 5, 12)
        trees.append(generate_random_tree(8, 3.0, 0.01, seed=0))
        digest = hashlib.sha256()
        for tree in trees:
            digest.update(json.dumps(tree_to_json(tree)).encode())
        assert digest.hexdigest() == GOLDEN_TREES_SHA256

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            generate_random_tree(0, 1.0, 0.5, 0)
        with pytest.raises(ValueError):
            generate_random_tree(2, 0.0, 0.5, 0)
        with pytest.raises(ValueError):
            generate_random_tree(2, 1.0, 1.5, 0)

    def test_generate_trees_window_and_determinism(self):
        batch = generate_trees(20, seed=5, max_nodes=8)
        assert len(batch) == 20
        assert all(2 <= len(t.nodes) <= 8 for t in batch)
        again = generate_trees(20, seed=5, max_nodes=8)
        assert [t.children for t in batch] == [t.children for t in again]


class TestJsonRoundTrip:
    def test_tree_round_trip(self):
        tree = two_branch()
        doc = tree_to_json(tree)
        back = tree_from_json(doc)
        assert back.children == tree.children
        assert back.resp == tree.resp

    def test_profile_round_trip(self):
        tree = two_branch()
        profile = ReportProfile({1: AgentReport(False, ()),
                                 4: AgentReport(False, (5,))})
        doc = tree_to_json(tree, profile)
        back = profile_from_json(doc)
        assert back.reports == profile.reports

    def test_document_without_reports(self):
        assert profile_from_json(tree_to_json(two_branch())) is None

    def test_malformed_document_rejected(self):
        with pytest.raises(InvalidTreeError):
            tree_from_json({"edges": [[0, 1]]})

    def test_resp_for_unknown_id_rejected(self):
        doc = tree_to_json(two_branch())
        doc["resp"]["9"] = 1
        with pytest.raises(InvalidTreeError, match="unknown nodes \\[9\\]"):
            tree_from_json(doc)

    @pytest.mark.parametrize("bad", [
        {"root": True}, {"root": 0.0}, {"root": "0"},
        {"edges": [[0, 1.9], [0, 3], [1, 2], [3, 4], [4, 5]]},
        {"edges": [[0, 1], [0, 3], [1, 2], [3, 4], [4, math.inf]]},
        {"edges": [[0, 1], [0, 3], [1, 2], [3, 4], ["4", 5]]},
        {"resp": {"2": "0"}}, {"resp": {"2": 2}}, {"resp": {"2": 1.0}},
        {"resp": {"2": None}},
    ])
    def test_non_integer_ids_and_flags_rejected(self, bad):
        # json.loads hands these over as they are; none may be truncated
        # to an id or read as a truthy flag
        with pytest.raises(InvalidTreeError, match="malformed tree"):
            tree_from_json({**tree_to_json(two_branch()), **bad})

    @pytest.mark.parametrize("report", [
        {"resp": "false", "children": []}, {"resp": 0.0, "children": []},
        {"resp": 0, "children": [2.5]}, {"resp": 0, "children": [True]},
        {"resp": 0, "children": ["2"]},
    ])
    def test_non_integer_report_fields_rejected(self, report):
        doc = {**tree_to_json(two_branch()), "reports": {"1": report}}
        with pytest.raises(InvalidTreeError, match="malformed reports"):
            profile_from_json(doc)

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_documents_round_trip_exactly(self, data):
        tree, reports = data.draw(trees_with_reports())
        profile = ReportProfile(reports)
        doc = json.loads(json.dumps(tree_to_json(tree, profile)))
        back = tree_from_json(doc)
        assert back == tree
        assert profile_from_json(doc) == profile
        assert tree_to_json(back, profile_from_json(doc)) == doc

    @settings(max_examples=300, deadline=None)
    @given(doc=edge_documents())
    @example(doc={"root": 0, "edges": [[0, 1], [0, 1]], "resp": {}})
    @example(doc={"root": 7, "edges": [[0, 1]], "resp": {"1": 1}})
    @example(doc={"root": 0, "edges": [[0, 1], [2, 3], [3, 2]], "resp": {}})
    def test_loader_matches_the_edge_scan_oracle(self, doc):
        try:
            expected = tree_from_json_by_edge_scan(doc)
        except InvalidTreeError as exc:
            with pytest.raises(InvalidTreeError) as raised:
                tree_from_json(doc)
            assert str(raised.value) == str(exc)
            return
        tree = tree_from_json(doc)
        assert tree == expected
        assert list(tree.children) == list(expected.children)

    def test_path_requires_two_nodes(self):
        with pytest.raises(InvalidTreeError):
            AllocationPath((0,))


class TestSharedFrontierWalk:
    def test_allocate_picks_from_the_tied_paths_with_one_draw(self):
        import numpy as np
        ties = 0
        for seed in range(40):
            tree = generate_random_tree(4, 2.0, 0.4, seed)
            tied = tied_shortest_paths(tree)
            path = allocate(tree, seed)
            if not tied:
                assert path is None
                continue
            ties += len(tied) > 1
            pick = 0 if len(tied) == 1 else int(
                np.random.default_rng(seed).integers(len(tied)))
            assert path == tied[pick]
        assert ties >= 10

    def test_single_tied_solver_draws_nothing(self, monkeypatch):
        from qinlab import querytree

        def no_rng(seed):
            raise AssertionError("a lone tied solver needs no tie-break")
        monkeypatch.setattr(querytree.np.random, "default_rng", no_rng)
        assert allocate(chain(3), 7).agents == (0, 1, 2, 3)


@st.composite
def trees_with_reports(draw):
    """A random tree and valid reports for some of its agents: answers
    withheld, children pruned, nothing invented."""
    tree = generate_random_tree(draw(st.integers(1, 4)),
                                draw(st.floats(0.5, 2.5)),
                                draw(st.floats(0.0, 1.0)),
                                draw(st.integers(0, 10_000)))
    reports = {}
    for agent in draw(st.sets(st.sampled_from(sorted(tree.nodes)))):
        if agent == tree.root:
            continue
        kids = tree.children[agent]
        keep = draw(st.lists(st.booleans(), min_size=len(kids),
                             max_size=len(kids)))
        reports[agent] = AgentReport(
            tree.resp[agent] and draw(st.booleans()),
            tuple(k for k, kept in zip(kids, keep) if kept))
    return tree, reports


class TestTiedSolvers:
    @settings(max_examples=100, deadline=None)
    @given(data=st.data())
    def test_overrides_match_the_walk_over_the_derived_tree(self, data):
        tree, reports = data.draw(trees_with_reports())
        derived = derive_reported_tree(tree, ReportProfile(reports))
        assert tied_solvers(tree, reports) == tied_solvers(derived)

    def test_depth_and_sorted_ties(self):
        children = {0: (2, 1), 1: (3,), 2: (4,), 3: (), 4: ()}
        resp = {0: False, 1: False, 2: False, 3: True, 4: True}
        tree = QueryTree(0, children, resp)
        assert tied_solvers(tree) == (2, [3, 4])
        assert tied_solvers(tree, {2: AgentReport(False, ())}) == (2, [3])
        assert tied_solvers(tree, {1: AgentReport(False, ()),
                                   2: AgentReport(False, ())}) == (0, [])


class TestGenerateTreesWindow:
    @pytest.mark.parametrize("max_nodes", [0, 1])
    def test_empty_window_raises_instead_of_looping(self, max_nodes):
        with pytest.raises(ValueError):
            generate_trees(1, seed=0, max_nodes=max_nodes)
        with pytest.raises(ValueError):
            generate_trees(1, seed=0, max_nodes=5, min_nodes=6)


class TestLargeTrees:
    def test_hundred_thousand_nodes_load_derive_and_allocate_in_seconds(self):
        # a random recursive tree: large and shallow. The linear tree layer
        # takes well under a second here; a per-node edge scan takes minutes
        rng = random.Random(0)
        size = 100_000
        text = json.dumps({
            "root": 0,
            "edges": [[rng.randrange(j), j] for j in range(1, size)],
            "resp": {str(j): int(j % 97 == 0) for j in range(size)}})
        start = time.perf_counter()
        tree = tree_from_json(json.loads(text))
        derived = derive_reported_tree(tree, ReportProfile.truthful(tree))
        path = allocate(derived, 0)
        elapsed = time.perf_counter() - start
        assert derived == tree
        assert path.n == min(tree.depth[s] for s in tree.solvers())
        assert elapsed < 10.0
