"""Attack transformations: gains, tree surgery, cross-module agreement."""

import json
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qinlab import analytics, mechanisms
from qinlab.adversary import (
    apply_sybil_to_tree,
    collusion_gain,
    run_scenario,
    scenario_from_json,
    sybil_gain,
)
from qinlab.mechanisms import RewardDomainError, delta_geom, dgm, gcrm
from qinlab.querytree import QueryTree, allocate

ALPHAS = [round(0.05 * k, 2) for k in range(1, 20)]


def _not_an_int(text):
    try:
        int(text)
    except ValueError:
        return True
    return False


class TestSybilGain:
    def test_sp_schedule_break_even_at_one_fake(self):
        for alpha in ALPHAS:
            spec = mechanisms.MechanismSpec("TDGM", alpha, beta="sp")
            for n in range(1, 15):
                for i in range(1, n + 1):
                    out = sybil_gain(spec, i, n, 1)
                    assert out.ratio == pytest.approx(1.0, abs=1e-12)
                    assert not out.profitable

    def test_sp_schedule_never_profitable(self):
        for alpha in (0.15, 0.45, 0.75):
            spec = mechanisms.MechanismSpec("TDGM", alpha, beta="sp")
            for lam in range(2, 21):
                for n in range(1, 11):
                    out = sybil_gain(spec, 1, n, lam)
                    assert out.ratio <= 1.0 + 1e-12

    def test_gcrm_frozen_ratio(self):
        out = sybil_gain(gcrm(0.5), 1, 2, 1)
        assert out.ratio == pytest.approx(7 / 6, abs=1e-12)
        assert out.profitable

    def test_matches_amplification_factor_at_every_position(self):
        for alpha in (0.3, 0.5, 0.7):
            spec = gcrm(alpha)
            for lam in (1, 2, 4):
                expected = analytics.sybil_factor(alpha, lam)
                for n in (1, 2, 5):
                    for i in range(1, n + 1):
                        out = sybil_gain(spec, i, n, lam)
                        assert out.ratio == pytest.approx(expected, rel=1e-10)

    def test_composition_of_two_singles_equals_one_double(self):
        # identity at position i splits once, then its top identity splits
        # again: the final occupied positions are i..i+2 on a path two longer
        spec = gcrm(0.45)
        i, n = 2, 4
        double = sybil_gain(spec, i, n, 2)
        composed = math.fsum(
            mechanisms.position_reward(i + k, n + 2, spec) for k in range(3))
        assert double.reward_after == pytest.approx(composed, rel=1e-12)

    def test_position_validation(self):
        with pytest.raises(RewardDomainError):
            sybil_gain(gcrm(0.5), 3, 2, 1)
        with pytest.raises(RewardDomainError):
            sybil_gain(gcrm(0.5), 1, 2, 0)


class TestCollusionGain:
    def test_cp_schedule_never_profitable(self):
        for alpha in (0.2, 0.5, 0.8):
            spec = delta_geom(alpha)
            for gamma in range(1, 21):
                for n in range(1, 11):
                    out = collusion_gain(spec, 1, n, gamma)
                    assert not out.profitable

    def test_sp_schedule_boundary_at_two(self):
        for alpha in ALPHAS:
            spec = mechanisms.MechanismSpec("TDGM", alpha, beta="sp")
            for n in range(1, 15):
                out = collusion_gain(spec, 1, n, 1)
                assert out.ratio == pytest.approx(1.0, abs=1e-12)

    def test_sp_schedule_profitable_from_three(self):
        spec = dgm(0.375)
        for gamma in range(2, 10):
            out = collusion_gain(spec, 1, 3, gamma)
            assert out.profitable

    def test_gcrm_merge_profitability_threshold(self):
        # merges up to the break-even size lose; one past it gains
        spec = gcrm(0.5)
        star = analytics.lambda_star(0.5)
        assert star == 3
        for n in (1, 2, 4):
            for i in range(1, n + 1):
                for merge_size in range(2, star + 1):
                    out = collusion_gain(spec, i, n, merge_size - 1)
                    assert not out.profitable
                out = collusion_gain(spec, i, n, star)
                assert out.profitable

    def test_bookkeeping_inverse_of_split(self):
        # the merge comparison at (i, n, gamma) uses the same sum as the
        # split comparison at (i, n, lam=gamma), just on the other side
        for spec in (dgm(0.3), delta_geom(0.61), gcrm(0.61)):
            for gamma in (1, 2, 5):
                split = sybil_gain(spec, 2, 3, gamma)
                merge = collusion_gain(spec, 2, 3, gamma)
                assert merge.reward_before == split.reward_after
                assert merge.reward_after == split.reward_before

    def test_size_field_is_merge_size(self):
        out = collusion_gain(gcrm(0.5), 1, 2, 3)
        assert out.kind == "collusion"
        assert out.size == 4


class TestApplySybilToTree:
    def tree(self):
        children = {0: (1, 2), 1: (3,), 2: (4,), 3: (), 4: ()}
        resp = {0: False, 1: False, 2: False, 3: True, 4: True}
        return QueryTree(0, children, resp)

    def test_chain_insertion_depth_and_count(self):
        tree = self.tree()
        result = apply_sybil_to_tree(tree, 3, 2)
        assert len(result.tree.nodes) == len(tree.nodes) + 2
        last = result.chain[-1]
        assert result.tree.depth[last] == tree.depth[3] + 2
        assert result.tree.resp[last] is True
        assert all(not result.tree.resp[fake] for fake in result.chain[:-1])

    def test_children_hang_off_last_link(self):
        children = {0: (1,), 1: (2, 3), 2: (), 3: ()}
        resp = {0: False, 1: True, 2: False, 3: True}
        tree = QueryTree(0, children, resp)
        result = apply_sybil_to_tree(tree, 1, 1)
        assert result.tree.children[result.chain[-1]] == (2, 3)
        assert result.tree.children[1] == (result.chain[1],)

    def test_principal_mapping(self):
        result = apply_sybil_to_tree(self.tree(), 3, 3)
        for fake in result.chain[1:]:
            assert result.principal[fake] == 3
        assert result.principal[4] == 4

    def test_honest_sibling_wins_after_attack(self):
        # solvers 3 and 4 tie at depth 2; after 3 splits, 4 wins outright
        tree = self.tree()
        result = apply_sybil_to_tree(tree, 3, 1)
        for seed in range(10):
            assert allocate(result.tree, seed).solver == 4
        assert result.tree.depth[result.chain[-1]] == 3

    def test_validation(self):
        tree = self.tree()
        with pytest.raises(RewardDomainError):
            apply_sybil_to_tree(tree, 0, 1)
        with pytest.raises(RewardDomainError):
            apply_sybil_to_tree(tree, 99, 1)
        with pytest.raises(RewardDomainError):
            apply_sybil_to_tree(tree, 3, 0)


class TestScenarios:
    def test_round_trip_and_dispatch(self):
        spec = gcrm(0.5)
        sybil = run_scenario(spec, scenario_from_json(
            {"kind": "sybil", "position": 1, "size": 1, "n": 2}))
        assert sybil.ratio == pytest.approx(7 / 6, abs=1e-12)
        merge = run_scenario(spec, scenario_from_json(
            {"kind": "collusion", "position": 1, "size": 2, "n": 2}))
        assert merge.size == 2
        assert merge.reward_before == pytest.approx(
            sybil.reward_after, rel=1e-15)

    def test_malformed_scenarios_rejected(self):
        with pytest.raises(RewardDomainError):
            scenario_from_json({"kind": "theft", "position": 1, "size": 1,
                                "n": 2})
        with pytest.raises(RewardDomainError):
            scenario_from_json({"kind": "sybil", "size": 1, "n": 2})

    @settings(max_examples=100, deadline=None)
    @given(data=st.data())
    def test_json_round_trip_and_rejections(self, data):
        kind = data.draw(st.sampled_from(["sybil", "collusion"]))
        n = data.draw(st.integers(1, 50))
        doc = {"kind": kind, "position": data.draw(st.integers(1, n)),
               "size": data.draw(st.integers(1 + (kind == "collusion"), 20)),
               "n": n}
        assert scenario_from_json(json.loads(json.dumps(doc))) == doc
        wrong_kind = data.draw(st.text().filter(
            lambda k: k not in ("sybil", "collusion")))
        with pytest.raises(RewardDomainError):
            scenario_from_json({**doc, "kind": wrong_kind})
        field = data.draw(st.sampled_from(["position", "size", "n"]))
        value = data.draw(st.one_of(
            st.none(), st.just(math.nan), st.lists(st.integers()),
            st.dictionaries(st.text(), st.integers()),
            st.text().filter(_not_an_int), st.booleans(), st.just(2.7),
            st.just(math.inf), st.just(-math.inf),
            st.floats(allow_nan=False), st.integers().map(str)))
        with pytest.raises(RewardDomainError):
            scenario_from_json(json.loads(json.dumps({**doc, field: value})))

    def test_outcome_json_fields(self):
        doc = sybil_gain(gcrm(0.5), 1, 2, 1).to_json()
        assert doc["kind"] == "sybil"
        assert doc["profitable"] is True
        assert doc["ratio"] == pytest.approx(7 / 6, abs=1e-12)
