"""Reward schedules: frozen values, identities, closed form vs summation."""

import json
import math
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qinlab import analytics
from qinlab.mechanisms import (
    GOLDEN_ALPHA,
    MechanismSpec,
    RewardDomainError,
    beta_cp,
    beta_sp,
    delta_geom,
    dgm,
    gcrm,
    gcrm_reward,
    map_rho,
    position_reward,
    reward_vector,
    rewards_for_length,
    specs_for_rho,
    tdgm_reward,
    total_reward_closed_form,
)
from qinlab.querytree import AllocationPath

ALPHAS = [round(0.05 * k, 2) for k in range(1, 20)]


def dgm_native_reward(i, n, alpha_dgm, budget=1.0):
    """Independent oracle: the sp-schedule mechanism in its native form,
    x(i, n) = a^(n-i) (1-a)^(i-1) * budget."""
    return alpha_dgm ** (n - i) * (1.0 - alpha_dgm) ** (i - 1) * budget


class TestSpecValidation:
    def test_alpha_bounds(self):
        with pytest.raises(RewardDomainError):
            gcrm(0.0)
        with pytest.raises(RewardDomainError):
            gcrm(1.0)
        with pytest.raises(RewardDomainError):
            delta_geom(1.2)

    @pytest.mark.parametrize("alpha", [0.0, 1.0, -0.5, 1.2, math.nan,
                                       math.inf])
    def test_specs_and_analytics_share_one_alpha_check(self, alpha):
        message = re.escape(f"alpha must lie in (0, 1), got {alpha}")
        for call in (lambda: gcrm(alpha),
                     lambda: MechanismSpec("TDGM", alpha, beta="cp"),
                     lambda: analytics.sybil_factor(alpha, 1),
                     lambda: analytics.n_prime(alpha)):
            with pytest.raises(RewardDomainError, match=message):
                call()

    def test_budget_positive(self):
        with pytest.raises(RewardDomainError):
            gcrm(0.5, budget=0.0)

    def test_tdgm_requires_schedule(self):
        with pytest.raises(RewardDomainError):
            MechanismSpec("TDGM", 0.5)

    def test_gcrm_rejects_schedule(self):
        with pytest.raises(RewardDomainError):
            MechanismSpec("GCRM", 0.5, beta="sp")

    def test_table_above_budget_bound_rejected(self):
        bad = {1: 1.0, 2: beta_cp(2, 1.0, 0.5) * 1.01}
        with pytest.raises(RewardDomainError):
            MechanismSpec("TDGM", 0.5, beta=bad)

    def test_table_zero_entry_rejected(self):
        with pytest.raises(RewardDomainError):
            MechanismSpec("TDGM", 0.5, beta={1: 1.0, 2: 0.0})

    def test_table_at_bound_accepted(self):
        table = {n: beta_cp(n, 1.0, 0.5) for n in range(1, 6)}
        spec = MechanismSpec("TDGM", 0.5, beta=table)
        assert spec.beta_value(3) == table[3]

    def test_unchecked_skips_validation(self):
        spec = MechanismSpec.unchecked("TDGM", 0.5, beta={1: 1.0, 2: 0.0})
        assert tdgm_reward(2, 2, spec) == 0.0

    def test_dgm_native_parameter_range(self):
        with pytest.raises(RewardDomainError):
            dgm(0.5)
        assert dgm(0.375).alpha == pytest.approx(0.6)

    def test_json_round_trip(self):
        for spec in (dgm(0.375), delta_geom(0.6), gcrm(0.42),
                     MechanismSpec("TDGM", 0.5, beta={1: 0.9, 2: 0.5})):
            back = MechanismSpec.from_json(
                json.loads(json.dumps(spec.to_json())))
            assert back == spec

    @pytest.mark.parametrize("change", [
        {"alpha": "0.5"}, {"alpha": True}, {"budget": True},
        {"budget": "1.0"}, {"beta": {"table": {"1": True}}},
        {"beta": {"table": {"1": "0.5"}}}, {"beta": {"table": {"1": None}}}])
    def test_from_json_numbers_not_coerced(self, change):
        doc = {"family": "TDGM", "alpha": 0.5, "budget": 1.0, "beta": "sp",
               **change}
        with pytest.raises(RewardDomainError, match="must be a number"):
            MechanismSpec.from_json(doc)

    def test_from_json_integer_numbers_accepted(self):
        back = MechanismSpec.from_json({"family": "TDGM", "alpha": 0.5,
                                        "budget": 2, "beta": {"table": {
                                            "1": 1}}})
        assert back == MechanismSpec("TDGM", 0.5, 2.0, {1: 1.0})

    @settings(max_examples=100, deadline=None)
    @given(data=st.data())
    def test_json_round_trip_exactly_on_random_specs(self, data):
        alpha = data.draw(st.floats(0.01, 0.99))
        budget = data.draw(st.floats(1e-6, 1e6))
        beta = data.draw(st.sampled_from([None, "sp", "cp", "table"]))
        if beta == "table":
            lengths = data.draw(st.sets(st.integers(1, 30), min_size=1))
            beta = {n: beta_cp(n, budget, alpha) * data.draw(
                        st.floats(0.01, 1.0)) for n in lengths}
        spec = MechanismSpec("GCRM" if beta is None else "TDGM", alpha,
                             budget, beta)
        doc = json.loads(json.dumps(spec.to_json()))
        back = MechanismSpec.from_json(doc)
        assert back == spec
        assert back.to_json() == doc


class TestTdgmReward:
    def test_solver_gets_beta(self):
        spec = MechanismSpec("TDGM", 0.3, beta={4: 0.7})
        assert tdgm_reward(4, 4, spec) == 0.7

    def test_repeated_halving(self):
        spec = MechanismSpec("TDGM", 0.5, budget=100.0, beta={4: 8.0})
        assert tdgm_reward(1, 4, spec) == pytest.approx(1.0, abs=1e-15)

    def test_sp_schedule_matches_native_form(self):
        # rho = 0.6 -> native parameter 0.375; rewards on a 3-path
        spec = dgm(0.375)
        expected = (0.140625, 0.234375, 0.390625)
        for i, value in enumerate(expected, start=1):
            assert tdgm_reward(i, 3, spec) == pytest.approx(value, abs=1e-12)
            assert dgm_native_reward(i, 3, 0.375) == pytest.approx(
                value, abs=1e-15)

    def test_position_out_of_range(self):
        spec = delta_geom(0.6)
        with pytest.raises(RewardDomainError):
            tdgm_reward(0, 3, spec)
        with pytest.raises(RewardDomainError):
            tdgm_reward(4, 3, spec)

    def test_family_mismatch(self):
        with pytest.raises(RewardDomainError):
            tdgm_reward(1, 1, gcrm(0.5))
        with pytest.raises(RewardDomainError):
            gcrm_reward(1, 1, delta_geom(0.5))


class TestBetaSchedules:
    def test_sp_at_length_one_pays_budget(self):
        assert beta_sp(1, 2.5, 0.7) == 2.5

    def test_sp_frozen_value(self):
        assert beta_sp(3, 1.0, 0.6) == pytest.approx(0.390625, abs=1e-15)
        assert beta_sp(3, 1.0, 0.6) == pytest.approx((1 / 1.6) ** 2, abs=1e-15)

    def test_sp_break_even_identity(self):
        # beta(n) - (1+alpha) beta(n+1) vanishes: one extra identity is
        # exactly break-even
        for alpha in ALPHAS:
            for n in range(1, 21):
                lhs = beta_sp(n, 1.0, alpha)
                rhs = beta_sp(n + 1, 1.0, alpha) * (1.0 + alpha)
                assert math.isclose(lhs, rhs, rel_tol=1e-12)

    def test_sp_strictly_decreasing(self):
        for alpha in ALPHAS:
            values = [beta_sp(n, 1.0, alpha) for n in range(1, 30)]
            assert all(a > b for a, b in zip(values, values[1:]))

    def test_cp_at_length_one_pays_budget(self):
        assert beta_cp(1, 3.0, 0.4) == 3.0

    def test_cp_frozen_value(self):
        assert beta_cp(2, 1.0, 0.6) == pytest.approx(0.625, abs=1e-15)

    def test_cp_merge_condition_via_factorized_identity(self):
        # (1-a)(1-a^(n+m)) <= (1-a^(m+1))(1-a^n) reduces to
        # (1-a^m)(a-a^n) >= 0, an independent algebraic check
        for alpha in ALPHAS:
            for n in range(1, 21):
                for m in range(1, 21):
                    lhs = (1 - alpha) * (1 - alpha ** (n + m))
                    rhs = (1 - alpha ** (m + 1)) * (1 - alpha ** n)
                    assert lhs <= rhs * (1 + 1e-12)
                    factored = (1 - alpha ** m) * (alpha - alpha ** n)
                    assert factored >= -1e-15


class TestGcrmReward:
    def test_single_agent_payment(self):
        assert gcrm_reward(1, 1, gcrm(0.5)) == pytest.approx(2 / 3, abs=1e-15)

    def test_golden_alpha_pays_all_positions_equally(self):
        spec = gcrm(GOLDEN_ALPHA)
        for n in (1, 2, 5, 9):
            values = rewards_for_length(n, spec).values
            for v in values:
                assert v == pytest.approx(GOLDEN_ALPHA ** n, rel=1e-12)

    def test_frozen_two_path(self):
        vec = rewards_for_length(2, gcrm(0.5))
        assert vec.values[0] == pytest.approx(1 / 3, abs=1e-15)
        assert vec.values[1] == pytest.approx(4 / 9, abs=1e-15)
        assert vec.total == pytest.approx(7 / 9, abs=1e-12)


class TestRewardVector:
    def test_single_agent_under_cp_schedule_gets_budget(self):
        vec = rewards_for_length(1, delta_geom(0.37, budget=5.0))
        assert vec.values == (5.0,)
        assert vec.total == 5.0

    def test_cp_schedule_total_is_exactly_budget(self):
        for alpha in ALPHAS:
            spec = delta_geom(alpha, budget=1.0)
            for n in range(1, 31):
                assert abs(rewards_for_length(n, spec).total - 1.0) <= 1e-12

    def test_gcrm_three_path_total(self):
        total = rewards_for_length(3, gcrm(0.5)).total
        termwise = math.fsum(0.5 ** (3 - i) / 1.5 ** i for i in (1, 2, 3))
        assert total == pytest.approx(termwise, abs=1e-15)
        assert total == pytest.approx(0.68519, abs=5e-6)

    def test_accepts_allocation_path(self):
        path = AllocationPath((0, 7, 9))
        vec = reward_vector(path, gcrm(0.5))
        assert vec.n == 2


class TestClosedFormTotals:
    def test_tdgm_at_bound_saturates_budget(self):
        spec = delta_geom(0.45, budget=2.0)
        for n in (1, 4, 17):
            assert total_reward_closed_form(n, spec) == pytest.approx(
                2.0, rel=1e-12)

    def test_gcrm_frozen_totals(self):
        spec = gcrm(0.5)
        expected = {1: 2 / 3, 2: 7 / 9, 3: 0.6851851851851851}
        for n, value in expected.items():
            assert total_reward_closed_form(n, spec) == pytest.approx(
                value, abs=1e-12)

    def test_closed_form_matches_summation_everywhere(self):
        for alpha in ALPHAS:
            for family in (delta_geom(alpha), dgm(alpha / (1 + alpha)),
                           gcrm(alpha)):
                for n in range(1, 51):
                    closed = total_reward_closed_form(n, family)
                    summed = rewards_for_length(n, family).total
                    assert math.isclose(closed, summed, rel_tol=1e-10)

    def test_golden_singularity_falls_back_to_summation(self):
        spec = gcrm(GOLDEN_ALPHA)
        for n in (1, 2, 7):
            total = total_reward_closed_form(n, spec)
            assert total == pytest.approx(n * GOLDEN_ALPHA ** n, rel=1e-9)


class TestMapRho:
    def test_frozen_values_at_rho_06(self):
        params = map_rho(0.6)
        assert params["alpha_dgm"] == pytest.approx(0.375, abs=1e-15)
        assert params["delta"] == 0.6
        assert params["alpha_gcrm"] == pytest.approx(
            (math.sqrt(3.4) - 1) / 2, abs=1e-15)
        assert params["alpha_gcrm"] == pytest.approx(0.42195, abs=5e-6)

    def test_rho_one_hits_golden_alpha(self):
        assert map_rho(1.0)["alpha_gcrm"] == pytest.approx(
            GOLDEN_ALPHA, abs=1e-12)

    def test_out_of_range_rejected(self):
        for rho in (0.0, -0.1, 1.01):
            with pytest.raises(RewardDomainError):
                map_rho(rho)

    def test_all_three_mechanisms_split_at_rho(self):
        for rho in (0.2, 0.4, 0.6, 0.8):
            for spec in specs_for_rho(rho).values():
                for n in range(2, 21):
                    for i in range(1, n):
                        ratio = (position_reward(i, n, spec)
                                 / position_reward(i + 1, n, spec))
                        assert ratio == pytest.approx(rho, rel=1e-12)


class TestScheduleProperties:
    @settings(max_examples=150, deadline=None)
    @given(alpha=st.floats(0.01, 0.99), n=st.integers(1, 50))
    def test_positive_pay_and_budget_bound(self, alpha, n):
        for spec in (delta_geom(alpha), gcrm(alpha)):
            vec = rewards_for_length(n, spec)
            assert all(v > 0.0 for v in vec.values)
            assert vec.total <= spec.budget * (1 + 1e-12)

    @settings(max_examples=150, deadline=None)
    @given(alpha=st.floats(0.01, 0.99), n=st.integers(2, 40),
           i=st.integers(1, 39))
    def test_adjacent_ratio_is_family_constant(self, alpha, n, i):
        if i >= n:
            i = n - 1
        tdgm_ratio = (position_reward(i, n, delta_geom(alpha))
                      / position_reward(i + 1, n, delta_geom(alpha)))
        assert math.isclose(tdgm_ratio, alpha, rel_tol=1e-12)
        g = gcrm(alpha)
        gcrm_ratio = (position_reward(i, n, g)
                      / position_reward(i + 1, n, g))
        assert math.isclose(gcrm_ratio, alpha * (1 + alpha), rel_tol=1e-12)

    def test_tdgm_closed_total_formula(self):
        # total = (1 - a^n)/(1 - a) * beta(n), checked against summation
        for alpha in (0.25, 0.5, 0.75):
            spec = MechanismSpec("TDGM", alpha,
                                 beta={n: 0.1 for n in range(1, 31)})
            for n in range(1, 31):
                expected = (1 - alpha ** n) / (1 - alpha) * 0.1
                assert math.isclose(rewards_for_length(n, spec).total,
                                    expected, rel_tol=1e-12)
                assert math.isclose(total_reward_closed_form(n, spec),
                                    expected, rel_tol=1e-12)


class TestNonFiniteBudget:
    @pytest.mark.parametrize("budget", [math.nan, math.inf, -math.inf])
    def test_checked_spec_rejects(self, budget):
        for make in (gcrm, dgm, delta_geom):
            with pytest.raises(RewardDomainError):
                make(0.3, budget)
        with pytest.raises(RewardDomainError):
            MechanismSpec("TDGM", 0.5, budget, beta={1: 0.5})

    def test_unchecked_fixture_keeps_its_budget(self):
        spec = MechanismSpec.unchecked("GCRM", 0.5, budget=math.nan)
        assert math.isnan(spec.budget)
