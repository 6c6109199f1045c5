"""Property verdicts: pass/fail patterns, witnesses, replay, oracles."""

import copy
import itertools
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qinlab import adversary, analytics, auditor, mechanisms
from qinlab.auditor import (
    PROPERTIES,
    AuditError,
    PropertyReport,
    audit,
    check_bb,
    check_core,
    check_cp,
    check_ic,
    check_monotone_solver_reward,
    check_po,
    check_sp,
    check_split,
    expected_rewards,
    impossibility_certificate,
    random_positive_table,
    render_table,
    replay_witness,
    reward_table,
)
from qinlab.mechanisms import (
    EQ_TOL,
    GOLDEN_ALPHA,
    MechanismSpec,
    beta_cp,
    delta_geom,
    dgm,
    gcrm,
)
from qinlab.querytree import (
    AgentReport,
    QueryTree,
    ReportProfile,
    allocate,
    derive_reported_tree,
    generate_trees,
    tree_from_json,
)

DGM06 = dgm(0.375)          # common split 0.6
GEOM06 = delta_geom(0.6)
GCRM05 = gcrm(0.5)
THREE = (DGM06, GEOM06, GCRM05)


def chain3(leaf_solves=True):
    children = {0: (1,), 1: (2,), 2: (3,), 3: ()}
    resp = {0: False, 1: False, 2: False, 3: leaf_solves}
    return QueryTree(0, children, resp)


class TestPo:
    def test_three_mechanisms_pass(self):
        for spec in THREE:
            assert check_po(spec, 50).passed

    def test_zero_table_entry_fails_with_witness(self):
        spec = MechanismSpec.unchecked("TDGM", 0.5,
                                       beta={1: 0.5, 2: 0.6, 3: 0.0})
        report = check_po(spec)
        assert not report.passed
        assert report.witness["n"] == 3
        assert replay_witness(report, spec)


class TestBb:
    def test_cp_schedule_is_strongly_balanced(self):
        report = check_bb(GEOM06, 50)
        assert report.passed
        assert report.details["strongly_bb"] is True

    def test_gcrm_stays_strictly_under_budget(self):
        for alpha in (0.1, 0.42, 0.9):
            report = check_bb(gcrm(alpha), 50)
            assert report.passed
            assert report.details["strongly_bb"] is False
            assert report.details["max_total"] < 1.0

    def test_overspending_table_fails_with_witness(self):
        table = {n: beta_cp(n, 1.0, 0.5) for n in range(1, 5)}
        table[3] *= 1.05
        spec = MechanismSpec.unchecked("TDGM", 0.5, beta=table)
        report = check_bb(spec)
        assert not report.passed
        assert report.witness["n"] == 3
        assert replay_witness(report, spec)


class TestSplit:
    def test_tdgm_ratio_is_alpha_exactly(self):
        report = check_split(GEOM06, n_max=20)
        assert report.passed
        assert report.details["achieved_ratio"] == pytest.approx(0.6,
                                                                 rel=1e-12)

    def test_gcrm_ratio_is_alpha_times_one_plus_alpha(self):
        report = check_split(GCRM05, n_max=20)
        assert report.passed
        assert report.details["achieved_ratio"] == pytest.approx(0.75,
                                                                 rel=1e-12)

    def test_gcrm_above_golden_flags_increasing_rewards(self):
        report = check_split(gcrm(0.8), n_max=20)
        assert report.details["increasing_toward_root"] is True
        assert report.details["theoretical_ratio"] > 1.0

    def test_expected_ratio_violation(self):
        report = check_split(GCRM05, rho_expected=0.9, n_max=10)
        assert not report.passed
        assert replay_witness(report, GCRM05)


class TestSp:
    def test_sp_schedule_passes_with_boundary_equality(self):
        report = check_sp(DGM06, lambda_max=20, n_max=20)
        assert report.passed
        assert report.details["equality_at"] == [1]

    def test_cp_schedule_fails_at_every_size(self):
        report = check_sp(GEOM06, lambda_max=20, n_max=20)
        assert not report.passed
        assert all(v == "fail"
                   for v in report.details["per_lambda"].values())
        assert report.witness["lambda"] == 1
        assert replay_witness(report, GEOM06)

    def test_gcrm_threshold_pattern(self):
        report = check_sp(GCRM05, lambda_max=6, n_max=10)
        per = report.details["per_lambda"]
        assert per[1] == per[2] == "fail"
        assert per[3] == per[4] == per[5] == per[6] == "pass"

    def test_agrees_with_gain_profitability(self):
        report = check_sp(GCRM05, lambda_max=5, n_max=6)
        for lam, verdict in report.details["per_lambda"].items():
            hits = any(
                adversary.sybil_gain(GCRM05, i, n, lam).profitable
                for n in range(1, 7) for i in range(1, n + 1))
            assert (verdict == "fail") == hits


class TestCp:
    def test_cp_schedule_passes_everywhere(self):
        report = check_cp(GEOM06, gamma_max=20, n_max=20)
        assert report.passed

    def test_sp_schedule_boundary_then_fails(self):
        report = check_cp(DGM06, gamma_max=10, n_max=10)
        assert not report.passed
        per = report.details["per_merge_size"]
        assert per[2] == "pass"
        assert 2 in report.details["equality_at"]
        assert all(per[size] == "fail" for size in range(3, 12))
        assert replay_witness(report, DGM06)

    def test_gcrm_threshold_pattern(self):
        report = check_cp(GCRM05, gamma_max=6, n_max=10)
        per = report.details["per_merge_size"]
        assert per[2] == per[3] == "pass"
        assert all(per[size] == "fail" for size in (4, 5, 6, 7))

    def test_agrees_with_gain_profitability(self):
        report = check_cp(GCRM05, gamma_max=5, n_max=6)
        for size, verdict in report.details["per_merge_size"].items():
            hits = any(
                adversary.collusion_gain(GCRM05, i, n, size - 1).profitable
                for n in range(1, 7) for i in range(1, n + 1))
            assert (verdict == "fail") == hits

    def test_empty_length_domain_rejected(self):
        # no cell to scan means no verdict; sp is held to the same rule
        for check in (check_sp, check_cp):
            with pytest.raises(AuditError, match="n_max must be >= 1"):
                check(GCRM05, 5, n_max=0)


class TestMonotoneSolverReward:
    def test_sp_schedule_decreasing(self):
        report = check_monotone_solver_reward(DGM06, 50)
        assert report.passed
        assert report.details["direction"] == "non-increasing"
        assert report.details["sp_direction"] is True

    def test_gcrm_decreasing(self):
        report = check_monotone_solver_reward(GCRM05, 50)
        assert report.details["direction"] == "non-increasing"

    def test_cp_schedule_observed_decreasing(self):
        # the merge-proof schedule also pays later solvers less; the check
        # records the observation rather than asserting a direction
        report = check_monotone_solver_reward(GEOM06, 50)
        assert report.passed
        assert report.details["direction"] == "non-increasing"

    def test_non_monotone_table_fails(self):
        spec = MechanismSpec.unchecked("TDGM", 0.5,
                                       beta={1: 0.4, 2: 0.6, 3: 0.3})
        report = check_monotone_solver_reward(spec, 3)
        assert not report.passed
        assert report.details["direction"] == "none"


class TestImpossibility:
    def test_sp_schedule_fails_merge_side(self):
        report = impossibility_certificate(reward_table(DGM06, 6))
        assert report.passed
        assert report.details["po"] == "pass"
        assert report.details["sp_m1"] == "pass"
        assert report.details["cp_m2"] == "fail"

    def test_cp_schedule_fails_split_side(self):
        report = impossibility_certificate(reward_table(GEOM06, 6))
        assert report.passed
        assert report.details["cp_m2"] == "pass"
        assert report.details["sp_m1"] == "fail"

    def test_every_constructible_mechanism_is_consistent(self):
        # the certificate is universally quantified: every schedule this
        # package can build must fail at least one of the three sides
        custom = MechanismSpec("TDGM", 0.5, beta={n: 0.3 for n in range(1, 9)})
        for spec in (*THREE, gcrm(0.9), gcrm(GOLDEN_ALPHA), custom):
            report = impossibility_certificate(reward_table(spec, 6))
            assert report.passed
            assert report.details["failed_properties"]

    def test_random_positive_tables_never_satisfy_all_three(self):
        rng = np.random.default_rng(20260810)
        for _ in range(300):
            n_max = int(rng.integers(3, 7))
            table = random_positive_table(rng, n_max)
            report = impossibility_certificate(table)
            assert report.passed
            assert report.details["po"] == "pass"
            assert report.details["failed_properties"]

    def test_small_or_malformed_tables_rejected(self):
        with pytest.raises(AuditError):
            impossibility_certificate({(1, 1): 1.0, (1, 2): 0.5,
                                       (2, 2): 0.5})
        bad = reward_table(DGM06, 4)
        del bad[(2, 3)]
        with pytest.raises(AuditError):
            impossibility_certificate(bad)


class TestExpectedRewards:
    def test_unique_path(self):
        rewards = expected_rewards(chain3(), GCRM05)
        vec = mechanisms.rewards_for_length(3, GCRM05)
        assert rewards == {1: pytest.approx(vec.values[0]),
                           2: pytest.approx(vec.values[1]),
                           3: pytest.approx(vec.values[2])}

    def test_tied_paths_split_probability(self):
        children = {0: (1, 2), 1: (), 2: ()}
        resp = {0: False, 1: True, 2: True}
        tree = QueryTree(0, children, resp)
        rewards = expected_rewards(tree, GCRM05)
        x11 = mechanisms.position_reward(1, 1, GCRM05)
        assert rewards[1] == pytest.approx(0.5 * x11)
        assert rewards[2] == pytest.approx(0.5 * x11)

    def test_no_solver_pays_nothing(self):
        assert expected_rewards(chain3(leaf_solves=False), GCRM05) == {}

    def test_matches_seeded_allocation_frequencies(self):
        # Monte Carlo over tie-break seeds converges to the exact expectation
        children = {0: (1, 2), 1: (3,), 2: (4,), 3: (), 4: ()}
        resp = {0: False, 1: False, 2: False, 3: True, 4: True}
        tree = QueryTree(0, children, resp)
        exact = expected_rewards(tree, GCRM05)
        runs = 10_000
        empirical = {a: 0.0 for a in tree.agents}
        for seed in range(runs):
            path = allocate(tree, seed)
            vec = mechanisms.reward_vector(path, GCRM05)
            for agent, value in zip(path.agents[1:], vec.values):
                empirical[agent] += value / runs
        for agent in tree.agents:
            assert empirical[agent] == pytest.approx(exact.get(agent, 0.0),
                                                     abs=0.02)


class TestIc:
    def test_chain_passes_all_three(self):
        for spec in THREE:
            report = check_ic(chain3(), spec)
            assert report.passed
            assert report.details["on_path_agents"] == [1, 2, 3]

    def test_solver_withholding_earns_nothing(self):
        # the chain's only solver withholds: nobody is paid, so the
        # deviation strictly loses x(3,3)
        tree = chain3()
        truthful = expected_rewards(tree, GCRM05)
        assert truthful[3] > 0
        withheld = derive_reported_tree(
            tree, ReportProfile({3: AgentReport(False, ())}))
        assert expected_rewards(withheld, GCRM05) == {}

    def test_deferring_to_a_solving_child_never_pays(self):
        # chain where both 2 and 3 answer: 2 deferring lengthens the path
        children = {0: (1,), 1: (2,), 2: (3,), 3: ()}
        resp = {0: False, 1: False, 2: True, 3: True}
        tree = QueryTree(0, children, resp)
        for alpha in (0.2, 0.5, 0.8):
            for spec in (gcrm(alpha), delta_geom(alpha),
                         dgm(alpha / (1 + alpha))):
                report = check_ic(tree, spec)
                assert report.passed

    def test_random_trees_pass(self):
        trees = generate_trees(60, seed=11, max_nodes=10)
        for spec in THREE:
            for tree in trees:
                assert check_ic(tree, spec).passed

    def test_schedule_rewarding_longer_paths_fails(self):
        # budget-legal, but the solver payment grows faster than the
        # per-level discount: deferring to a solving child pays
        spec = MechanismSpec("TDGM", 0.2, beta={1: 0.05, 2: 0.1, 3: 0.6})
        children = {0: (1,), 1: (2,), 2: (3,), 3: ()}
        resp = {0: False, 1: False, 2: True, 3: True}
        tree = QueryTree(0, children, resp)
        report = check_ic(tree, spec)
        assert not report.passed
        assert report.witness["agent"] == 2
        assert replay_witness(report, spec, tree)

    def test_size_cap_enforced(self):
        big = generate_trees(1, seed=3, max_nodes=14, min_nodes=11)[0]
        with pytest.raises(AuditError):
            check_ic(big, GCRM05)


class TestCore:
    def test_chain_passes_all_three(self):
        for spec in THREE:
            assert check_core(chain3(), spec).passed

    def test_random_trees_pass(self):
        trees = generate_trees(40, seed=23, max_nodes=8)
        for spec in THREE:
            for tree in trees:
                assert check_core(tree, spec).passed

    def test_singleton_blocking_equals_ic_failure(self):
        spec = MechanismSpec("TDGM", 0.2, beta={1: 0.05, 2: 0.1, 3: 0.6})
        children = {0: (1,), 1: (2,), 2: (3,), 3: ()}
        resp = {0: False, 1: False, 2: True, 3: True}
        tree = QueryTree(0, children, resp)
        ic = check_ic(tree, spec)
        core = check_core(tree, spec)
        assert not ic.passed
        assert not core.passed
        # size-1 coalitions come first, so the witness is the IC deviation
        assert core.witness["coalition"] == [ic.witness["agent"]]
        assert replay_witness(core, spec, tree)

    def test_singleton_only_matches_ic_on_random_trees(self):
        for tree in generate_trees(25, seed=5, max_nodes=8):
            for spec in THREE:
                assert check_ic(tree, spec).passed
                assert check_core(tree, spec).passed

    def test_coalition_cap_enforced(self):
        big = generate_trees(1, seed=9, max_nodes=12,
                             min_nodes=auditor.DEFAULT_COALITION_CAP + 1)[0]
        with pytest.raises(AuditError):
            check_core(big, GCRM05)

    def test_golden_alpha_edge(self):
        tree = generate_trees(1, seed=31, max_nodes=7)[0]
        assert check_core(tree, gcrm(GOLDEN_ALPHA)).passed


def _options(truth: AgentReport) -> list[AgentReport]:
    """All reports an agent can make, truthful first. An answer can be
    withheld but not invented; children can be pruned but not added."""
    answers = (True, False) if truth.resp else (False,)
    subsets = [combo for r in range(len(truth.children), -1, -1)
               for combo in itertools.combinations(truth.children, r)]
    return [AgentReport(resp, kids) for resp in answers for kids in subsets]


def _brute_force_first_block(engine, coalitions):
    """The search over every profile of every coalition, truthful members
    included: ``first_block``'s oracle. Returns the first block (or None)
    with the coalitions and deviations it evaluated."""
    truth = ReportProfile.truthful(engine.tree).reports
    options = {a: _options(rep) for a, rep in truth.items()}
    tol = EQ_TOL * engine.spec.budget
    baseline = engine.baseline
    checked = deviations = 0
    for coalition in coalitions:
        checked += 1
        for profile in itertools.product(
                *(options[a] for a in coalition)):
            overrides = {a: rep for a, rep in zip(coalition, profile)
                         if rep != truth[a]}
            if not overrides:
                continue
            deviations += 1
            payoffs = engine.expected(overrides)
            if all(payoffs.get(a, 0.0) > baseline.get(a, 0.0) + tol
                   for a in coalition):
                return (coalition, overrides, payoffs), checked, deviations
    return None, checked, deviations


# the TDGM table pays longer paths more, so IC and core both fail on it
ORACLE_SPECS = (*mechanisms.specs_for_rho(0.6).values(), MechanismSpec(
    "TDGM", 0.2, beta={1: 0.05, 2: 0.1, 3: 0.6,
                       **{n: 0.7 for n in range(4, 10)}}))


class TestFullyDeviatingSearch:
    """``first_block`` enumerates fully-deviating profiles only; the brute
    force over every profile must find the same first block after the same
    number of coalitions."""

    @staticmethod
    def _both(tree, spec, coalitions):
        engine = auditor._DeviationEngine(tree, spec)
        fast = engine.first_block(coalitions(engine))
        oracle = _brute_force_first_block(
            auditor._DeviationEngine(tree, spec), coalitions(engine))
        return (fast, engine.coalitions, engine.deviations), oracle

    @staticmethod
    def _core_order(engine):
        agents = sorted(engine.tree.agents)
        return [c for size in range(1, len(agents) + 1)
                for c in itertools.combinations(agents, size)]

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2 ** 31 - 1),
           nodes=st.integers(2, 9),
           spec=st.sampled_from(ORACLE_SPECS))
    def test_same_witness_and_counts_as_brute_force(self, seed, nodes, spec):
        tree = generate_trees(1, seed, max_nodes=nodes, min_nodes=nodes)[0]
        fast, (block, checked, _) = self._both(tree, spec, self._core_order)
        assert fast[:2] == (block, checked)
        # IC: a singleton's only non-truthful profiles are fully deviating
        fast, oracle = self._both(
            tree, spec, lambda e: [(a,) for a in sorted(e.baseline)])
        assert fast == oracle

    def test_multi_member_witness_matches_brute_force(self):
        tree = generate_trees(1, 30, max_nodes=8, min_nodes=8)[0]
        spec = ORACLE_SPECS[-1]
        fast, (block, checked, _) = self._both(tree, spec, self._core_order)
        assert fast[0][0] == (1, 3)
        assert fast[:2] == (block, checked)

    def test_evaluated_profiles_are_distinct(self):
        tree = generate_trees(1, 30, max_nodes=8, min_nodes=8)[0]
        engine = auditor._DeviationEngine(tree, ORACLE_SPECS[0])
        seen = []
        engine.expected = lambda overrides: seen.append(
            frozenset(overrides.items())) or {}
        assert engine.first_block(self._core_order(engine)) is None
        assert len(seen) == len(set(seen)) == engine.deviations


class TestReportPlumbing:
    def test_json_shape(self):
        doc = check_po(GCRM05, 5).to_json()
        assert set(doc) == {"property", "verdict", "witness", "domain",
                            "details"}
        assert doc["verdict"] == "pass"
        assert doc["witness"] is None

    def test_render_table_lists_all_reports(self):
        reports = [check_po(GCRM05, 5), check_sp(GEOM06, 3, 5)]
        text = render_table(reports)
        assert "po" in text and "sp" in text
        assert "fail" in text


def _longer_path_case():
    """Budget-legal table whose solver pay grows faster than the per-level
    discount, on a chain where 2 and 3 both answer: 2 gains by deferring."""
    spec = MechanismSpec("TDGM", 0.2, beta={1: 0.05, 2: 0.1, 3: 0.6})
    children = {0: (1,), 1: (2,), 2: (3,), 3: ()}
    resp = {0: False, 1: False, 2: True, 3: True}
    return spec, QueryTree(0, children, resp)


def _planted_failures():
    """One failing input per property that can fail: (spec, knobs, path of
    a float in the witness to nudge by one ulp, or None)."""
    over = {n: beta_cp(n, 1.0, 0.5) for n in range(1, 5)}
    over[3] *= 1.05
    spec_ic, tree = _longer_path_case()
    return {
        "po": (MechanismSpec.unchecked("TDGM", 0.5,
                                       beta={1: 0.5, 2: 0.6, 3: 0.0}),
               {}, ("reward",)),
        "bb": (MechanismSpec.unchecked("TDGM", 0.5, beta=over), {},
               ("total",)),
        "split": (GCRM05, {"rho_expected": 0.9, "n_max": 10}, ("ratio",)),
        "sp": (GEOM06, {}, ("reward_after",)),
        "cp": (DGM06, {"gamma_max": 10, "n_max": 10}, ("reward_after",)),
        "monotone": (MechanismSpec.unchecked("TDGM", 0.5,
                                             beta={1: 0.4, 2: 0.6, 3: 0.3}),
                     {"n_max": 3}, ("x_n",)),
        "ic": (spec_ic, {"tree": tree}, ("deviant_reward",)),
        "core": (spec_ic, {"tree": tree}, ("deviant", 2)),
    }


def _nudged(report, *path):
    """Copy of ``report`` with the witness float at ``path`` one ulp up."""
    nudged = copy.deepcopy(report)
    *outer, last = path
    holder = nudged.witness
    for key in outer:
        holder = holder[key]
    holder[last] = math.nextafter(holder[last], math.inf)
    return nudged


class TestRegistry:
    def test_order_and_spellings(self):
        assert list(PROPERTIES) == ["po", "bb", "split", "sp", "cp",
                                    "monotone", "impossibility", "ic", "core"]
        assert PROPERTIES["monotone"].report == "solver_reward_monotone"

    def test_every_fail_witness_replays_and_a_nudged_one_does_not(self):
        planted = _planted_failures()
        assert set(planted) | {"impossibility"} == set(PROPERTIES)
        for name, (spec, knobs, path) in planted.items():
            [report] = audit([name], spec, **knobs)
            tree = knobs.get("tree")
            assert report.verdict == "fail", name
            assert report.property == PROPERTIES[name].report
            assert replay_witness(report, spec, tree), name
            assert not replay_witness(_nudged(report, *path), spec, tree), name

    def test_forged_impossibility_failure_does_not_replay(self):
        [report] = audit(["impossibility"], DGM06)
        assert report.passed
        forged = PropertyReport(
            "impossibility", "fail",
            witness={"po": "holds", "sp_m1": "holds", "cp_m2": "holds",
                     "note": "table claims all three; positivity must be "
                             "broken"},
            domain=report.domain)
        assert not replay_witness(forged, DGM06)

    def test_batch_failure_records_and_replays_its_tree(self):
        spec = MechanismSpec("TDGM", 0.2, beta={
            n: beta_cp(n, 1.0, 0.2) * min(1.0, 0.01 * 12 ** (n - 1))
            for n in range(1, 11)})
        reports = audit(["ic", "core"], spec, trees=20, seed=3, max_nodes=8)
        assert [r.verdict for r in reports] == ["fail", "fail"]
        batch = generate_trees(20, seed=3, max_nodes=8)
        for report in reports:
            tree = tree_from_json(report.witness["tree"])
            assert tree == batch[report.domain["failed_at"]]
            assert (report.domain["trees"], report.domain["seed"]) == (20, 3)
            assert replay_witness(report, spec, tree)

    def test_defaults_come_from_the_module_constants(self):
        [po, sp, imp, ic] = audit(["po", "sp", "impossibility", "ic"],
                                  GCRM05, trees=2)
        assert po.domain["n_max"] == auditor.DEFAULT_N_MAX
        assert sp.domain == {"n_max": auditor.DEFAULT_ATTACK_N_MAX,
                             "lambda_max": auditor.DEFAULT_SIZE_MAX}
        assert imp.domain["n_max"] == auditor.DEFAULT_TABLE_N_MAX
        assert (ic.domain["seed"], ic.domain["trees"]) == (0, 2)

    @pytest.mark.parametrize("knob, value", [
        ("n_max", 0), ("lambda_max", 0), ("gamma_max", 0), ("trees", 0),
        ("max_nodes", 1), ("max_nodes", 0)])
    def test_out_of_range_sizes_rejected_before_any_check(self, knob, value,
                                                          monkeypatch):
        monkeypatch.setattr(auditor, "check_po", None)
        with pytest.raises(AuditError):
            audit(["po"], GCRM05, **{knob: value})

    def test_unknown_names_rejected(self):
        with pytest.raises(AuditError):
            audit(["bogus"], GCRM05)
        with pytest.raises(TypeError):
            audit(["po"], GCRM05, nmax=5)


class TestJsonWitnessReplay:
    def test_round_tripped_batch_witness_replays_without_the_tree(self):
        spec = MechanismSpec("TDGM", 0.2, beta={
            n: beta_cp(n, 1.0, 0.2) * min(1.0, 0.01 * 12 ** (n - 1))
            for n in range(1, 11)})
        ic, core = audit(["ic", "core"], spec, trees=20, seed=3)
        member = str(core.witness["coalition"][0])
        for report, path in ((ic, ("deviant_reward",)),
                             (core, ("deviant", member))):
            assert not report.passed
            back = PropertyReport(**json.loads(json.dumps(report.to_json())))
            assert replay_witness(back, spec), report.property
            assert not replay_witness(_nudged(back, *path), spec)

    def test_witness_of_a_given_tree_needs_that_tree(self):
        spec, tree = _longer_path_case()
        for report in audit(["ic", "core"], spec, tree=tree):
            assert "seed" not in report.domain
            back = PropertyReport(**json.loads(json.dumps(report.to_json())))
            assert replay_witness(back, spec, tree)
            with pytest.raises(AuditError):
                replay_witness(back, spec)


class TestForgedDeviationWitnesses:
    @pytest.mark.parametrize("report", [
        {"resp": True, "children": []},      # agent 1 cannot answer
        {"resp": False, "children": [3]},    # 3 is not agent 1's child
    ])
    def test_deviation_the_tree_does_not_allow_never_replays(self, report):
        # on the chain only 3 answers; agent 1 "answering" would be paid
        # the whole one-hop reward x(1, 1) instead of its truthful x(1, 3)
        tree = chain3()
        truthful = expected_rewards(tree, GCRM05)[1]
        deviant = mechanisms.position_reward(1, 1, GCRM05)
        assert (truthful, deviant) == (pytest.approx(1 / 6),
                                       pytest.approx(2 / 3))
        ic = PropertyReport("ic", "fail", domain={}, witness={
            "agent": 1, "report": report, "truthful_reward": truthful,
            "deviant_reward": deviant})
        core = PropertyReport("core", "fail", domain={}, witness={
            "coalition": [1], "deviation": {"1": report},
            "truthful": {"1": truthful}, "deviant": {"1": deviant}})
        for forged in (ic, core):
            assert not replay_witness(forged, GCRM05, tree), forged.property


class TestBudgetScaledTolerance:
    def test_tiny_budget_sp_fails_where_budget_one_does(self):
        at_one = check_sp(delta_geom(0.6))
        tiny = check_sp(delta_geom(0.6, 1e-13))
        assert not at_one.passed and not tiny.passed
        assert [tiny.witness[k] for k in ("i", "n", "lambda")] == \
            [at_one.witness[k] for k in ("i", "n", "lambda")]

    def test_tiny_budget_certificate_passes(self):
        spec = gcrm(0.5, 1e-13)
        [report] = audit(["impossibility"], spec)
        assert report.passed
        assert report.details["failed_properties"] == ["sp_m1"]
        assert impossibility_certificate(reward_table(spec, 6),
                                         spec.budget).passed
