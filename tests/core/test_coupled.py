"""Unit tests for repro.core.coupled (purchasing reacting to sales)."""

import numpy as np
import pytest

from repro.core.coupled import run_coupled
from repro.core.policies import KeepReservedPolicy, OnlineSellingPolicy
from repro.core.simulator import run_policy
from repro.errors import SimulationError
from repro.purchasing.all_reserved import AllReserved
from repro.purchasing.runner import imitate
from repro.purchasing.stepper import AllReservedStepper, stepper_for
from repro.workload.base import DemandTrace


class TestDecoupledEquivalence:
    """With Keep-Reserved (no sales), the coupled loop must reproduce the
    decoupled imitate-then-simulate pipeline exactly."""

    @pytest.mark.parametrize("seed", range(3))
    def test_keep_reserved_matches_batch_pipeline(self, scaled_plan, scaled_model, seed):
        rng = np.random.default_rng(seed)
        trace = DemandTrace(
            np.where(rng.random(192) < 0.4, rng.integers(1, 6, 192), 0)
        )
        schedule = imitate(trace, scaled_plan, AllReserved())
        decoupled = run_policy(
            trace, schedule.reservations, scaled_model, KeepReservedPolicy()
        )
        coupled = run_coupled(
            trace,
            stepper_for(AllReserved(), scaled_plan),
            scaled_model,
            KeepReservedPolicy(),
        )
        assert coupled.breakdown.approx_equal(decoupled.breakdown)
        assert np.array_equal(coupled.reservations, schedule.reservations)


class TestReactivePurchasing:
    def test_sold_instance_is_repurchased_when_demand_returns(self, toy_model):
        # Demand in [0, 2), silence until the T/2 spot (hour 4) where the
        # instance sells, then demand returns at hour 6: All-Reserved
        # must buy a replacement — the decoupled pipeline would not.
        demands = [1, 1, 0, 0, 0, 0, 1, 1] + [0] * 8
        coupled = run_coupled(
            demands, AllReservedStepper(), toy_model, OnlineSellingPolicy.a_t2()
        )
        assert coupled.instances_sold >= 1
        assert coupled.reservations[6] == 1  # the replacement purchase
        # All demand is served (reserved or on-demand).
        assert np.all(
            coupled.on_demand + coupled.r_physical >= np.array(demands)
        )

    def test_decoupled_pays_on_demand_instead(self, toy_model, toy_plan):
        demands = [1, 1, 0, 0, 0, 0, 1, 1] + [0] * 8
        schedule = imitate(demands, toy_plan, AllReserved())
        decoupled = run_policy(
            demands, schedule.reservations, toy_model, OnlineSellingPolicy.a_t2()
        )
        # Without coupling the late demand goes to on-demand.
        assert decoupled.on_demand[6:8].sum() == 2

    def test_negative_stepper_output_rejected(self, toy_model):
        class Broken:
            def step(self, hour, demand, active):
                return -1

        with pytest.raises(SimulationError):
            run_coupled([1] * 8, Broken(), toy_model, KeepReservedPolicy())

    @pytest.mark.parametrize("count", [1.7, True, np.float64(1.0), "1", None])
    def test_non_integer_stepper_output_rejected(self, toy_model, count):
        class Broken:
            def step(self, hour, demand, active):
                return count if hour == 2 else 0

        with pytest.raises(SimulationError, match="at hour 2 must be an integer"):
            run_coupled([1] * 8, Broken(), toy_model, KeepReservedPolicy())

    def test_numpy_integer_stepper_output_accepted(self, toy_model):
        class NumpyCounts:
            def step(self, hour, demand, active):
                return np.int64(2) if hour == 0 else np.int32(0)

        result = run_coupled([1] * 8, NumpyCounts(), toy_model, KeepReservedPolicy())
        assert result.reservations.tolist() == [2] + [0] * 7
        assert result.instances_reserved == 2

    def test_policy_label(self, toy_model):
        result = run_coupled(
            [0] * 8, AllReservedStepper(), toy_model, KeepReservedPolicy()
        )
        assert result.policy_name.startswith("coupled:")
