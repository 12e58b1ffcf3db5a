"""Unit tests for repro.core.fastsim and its equivalence with the
object-model simulator (the two engines must agree exactly)."""

import numpy as np
import pytest

from repro.core.account import CostModel, HourlyFeeMode
from repro.core.fastsim import FastPolicyKind, run_fast
from repro.core.policies import (
    AllSellingPolicy,
    KeepReservedPolicy,
    OnlineSellingPolicy,
)
from repro.core.simulator import run_policy
from repro.errors import SimulationError

S1_DEMANDS = np.array([1, 1, 0, 0, 1, 1, 1, 1] + [0] * 8)
S1_RESERVATIONS = np.array([1] + [0] * 15)


class TestScenarioS1:
    def test_online_t2_matches_hand_computation(self, toy_model):
        result = run_fast(S1_DEMANDS, S1_RESERVATIONS, toy_model, phi=0.5)
        assert result.total_cost == pytest.approx(11.0)
        assert result.instances_sold == 1
        sale = result.sales[0]
        assert sale.hour == 4 and sale.working_hours == 2 and sale.batch_index == 1

    def test_keep_reserved(self, toy_model):
        result = run_fast(
            S1_DEMANDS, S1_RESERVATIONS, toy_model, kind=FastPolicyKind.KEEP_RESERVED
        )
        assert result.total_cost == pytest.approx(10.0)
        assert result.instances_sold == 0

    def test_usage_fee_mode(self, toy_plan):
        model = CostModel(
            plan=toy_plan, selling_discount=0.5, fee_mode=HourlyFeeMode.USAGE
        )
        result = run_fast(
            S1_DEMANDS, S1_RESERVATIONS, model, kind=FastPolicyKind.KEEP_RESERVED
        )
        assert result.total_cost == pytest.approx(9.5)


class TestValidation:
    def test_mismatched_lengths(self, toy_model):
        with pytest.raises(SimulationError):
            run_fast(np.ones(3), np.zeros(2), toy_model)

    def test_negative_inputs(self, toy_model):
        with pytest.raises(SimulationError):
            run_fast(np.array([-1, 0]), np.zeros(2), toy_model)

    def test_bad_phi(self, toy_model):
        with pytest.raises(Exception):
            run_fast(S1_DEMANDS, S1_RESERVATIONS, toy_model, phi=0.0)

    def test_bad_threshold_scale(self, toy_model):
        with pytest.raises(SimulationError):
            run_fast(S1_DEMANDS, S1_RESERVATIONS, toy_model, threshold_scale=-1.0)

    def test_non_finite_threshold_scale(self, toy_model):
        # Regression: NaN passed the old `< 0` guard and silently
        # disabled selling (every `working < nan·β` test is False).
        for bad in (float("nan"), float("inf"), float("-inf")):
            with pytest.raises(SimulationError, match="finite"):
                run_fast(S1_DEMANDS, S1_RESERVATIONS, toy_model, threshold_scale=bad)

    def test_fractional_demand_rejected(self, toy_model):
        # Regression: 1.9 was silently truncated to 1 by the int64 cast.
        with pytest.raises(SimulationError, match="whole instance counts"):
            run_fast(np.array([1.9, 0.0]), np.zeros(2), toy_model)
        with pytest.raises(SimulationError, match="whole instance counts"):
            run_fast(np.zeros(2), np.array([0.0, 0.5]), toy_model)

    def test_non_finite_demand_rejected(self, toy_model):
        with pytest.raises(SimulationError, match="finite"):
            run_fast(np.array([np.nan, 0.0]), np.zeros(2), toy_model)

    def test_integral_floats_accepted(self, toy_model):
        exact = run_fast(
            S1_DEMANDS.astype(np.float64), S1_RESERVATIONS.astype(np.float64),
            toy_model, phi=0.5,
        )
        reference = run_fast(S1_DEMANDS, S1_RESERVATIONS, toy_model, phi=0.5)
        assert exact.total_cost == reference.total_cost
        assert exact.instances_sold == reference.instances_sold


def random_case(rng, horizon=64):
    demands = rng.integers(0, 6, size=horizon)
    reservations = np.where(rng.random(horizon) < 0.15, rng.integers(1, 4, size=horizon), 0)
    return demands, reservations


class TestEngineEquivalence:
    """The array engine must agree with the object-model simulator
    sale-for-sale and dollar-for-dollar."""

    @pytest.mark.parametrize("phi", [0.25, 0.5, 0.75])
    @pytest.mark.parametrize("seed", range(6))
    def test_online_policies_agree(self, toy_plan, phi, seed):
        rng = np.random.default_rng(seed)
        demands, reservations = random_case(rng)
        for fee_mode in HourlyFeeMode:
            model = CostModel(
                plan=toy_plan, selling_discount=0.5, fee_mode=fee_mode
            )
            slow = run_policy(demands, reservations, model, OnlineSellingPolicy(phi))
            fast = run_fast(demands, reservations, model, phi=phi)
            assert slow.breakdown.approx_equal(fast.breakdown), (
                phi, seed, fee_mode, slow.breakdown, fast.breakdown
            )
            assert slow.instances_sold == fast.instances_sold
            assert sorted(s.hour for s in slow.sales) == sorted(
                s.hour for s in fast.sales
            )

    @pytest.mark.parametrize("seed", range(4))
    def test_all_selling_agrees(self, toy_model, seed):
        rng = np.random.default_rng(100 + seed)
        demands, reservations = random_case(rng)
        slow = run_policy(demands, reservations, toy_model, AllSellingPolicy(0.5))
        fast = run_fast(
            demands, reservations, toy_model, phi=0.5, kind=FastPolicyKind.ALL_SELLING
        )
        assert slow.breakdown.approx_equal(fast.breakdown)
        assert slow.instances_sold == fast.instances_sold

    @pytest.mark.parametrize("seed", range(4))
    def test_keep_reserved_agrees(self, toy_model, seed):
        rng = np.random.default_rng(200 + seed)
        demands, reservations = random_case(rng)
        slow = run_policy(demands, reservations, toy_model, KeepReservedPolicy())
        fast = run_fast(
            demands, reservations, toy_model, kind=FastPolicyKind.KEEP_RESERVED
        )
        assert slow.breakdown.approx_equal(fast.breakdown)

    def test_threshold_scale_agrees(self, toy_model):
        rng = np.random.default_rng(7)
        demands, reservations = random_case(rng)
        slow = run_policy(
            demands, reservations, toy_model,
            OnlineSellingPolicy(0.5, threshold_scale=2.0),
        )
        fast = run_fast(
            demands, reservations, toy_model, phi=0.5, threshold_scale=2.0
        )
        assert slow.breakdown.approx_equal(fast.breakdown)

    def test_paper_scale_plan_agrees(self, scaled_model):
        rng = np.random.default_rng(42)
        horizon = 192
        demands = rng.integers(0, 8, size=horizon)
        reservations = np.where(
            rng.random(horizon) < 0.1, rng.integers(1, 3, size=horizon), 0
        )
        for phi in (0.25, 0.5, 0.75):
            slow = run_policy(
                demands, reservations, scaled_model, OnlineSellingPolicy(phi)
            )
            fast = run_fast(demands, reservations, scaled_model, phi=phi)
            assert slow.breakdown.approx_equal(fast.breakdown)
