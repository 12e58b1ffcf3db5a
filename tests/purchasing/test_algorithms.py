"""Unit tests for the four reservation-behaviour imitators."""

import numpy as np
import pytest

from repro.errors import SimulationError
from repro.purchasing.all_reserved import AllReserved
from repro.purchasing.ondemand_only import OnDemandOnly
from repro.purchasing.online_breakeven import (
    OnlineBreakEven,
    aggressive_online_purchasing,
    wang_online_purchasing,
)
from repro.purchasing.random_reservation import RandomReservation
from repro.purchasing.stepper import BreakEvenStepper
from repro.workload.base import DemandTrace


def active_per_hour(n, period):
    active = np.zeros(n.size, dtype=np.int64)
    for hour in np.flatnonzero(n):
        active[hour:min(hour + period, n.size)] += n[hour]
    return active


class TestAllReserved:
    def test_pool_always_covers_demand(self, toy_plan):
        demands = DemandTrace([1, 3, 2, 5, 0, 4, 1, 2, 6, 0])
        n = AllReserved().schedule(demands, toy_plan)
        active = active_per_hour(n, toy_plan.period_hours)
        assert np.all(active >= demands.values)

    def test_flat_demand_single_batch(self, toy_plan):
        n = AllReserved().schedule(DemandTrace([3] * 6), toy_plan)
        assert n[0] == 3
        assert n[1:].sum() == 0

    def test_rereserves_after_expiry(self, toy_plan):
        # period 8: the pool of hour 0 expires at hour 8 and demand
        # persists, so a replacement batch appears.
        n = AllReserved().schedule(DemandTrace([2] * 12), toy_plan)
        assert n[0] == 2 and n[8] == 2

    def test_zero_demand_reserves_nothing(self, toy_plan):
        n = AllReserved().schedule(DemandTrace.zeros(10), toy_plan)
        assert n.sum() == 0


class TestRandomReservation:
    def test_never_exceeds_demand_target(self, toy_plan):
        demands = DemandTrace([4, 2, 7, 0, 3, 8, 1, 5])
        n = RandomReservation(seed=1).schedule(demands, toy_plan)
        active = active_per_hour(n, toy_plan.period_hours)
        # The target is <= d_t at reservation instants, so the pool can
        # only exceed current demand through persistence, and it never
        # exceeds the running demand peak.
        assert active.max() <= demands.values.max()

    def test_deterministic_in_seed(self, toy_plan):
        demands = DemandTrace([4, 2, 7, 0, 3, 8, 1, 5])
        first = RandomReservation(seed=3).schedule(demands, toy_plan)
        second = RandomReservation(seed=3).schedule(demands, toy_plan)
        assert np.array_equal(first, second)

    def test_seed_changes_behaviour(self, toy_plan):
        demands = DemandTrace([4, 2, 7, 0, 3, 8, 1, 5] * 4)
        first = RandomReservation(seed=3).schedule(demands, toy_plan)
        second = RandomReservation(seed=4).schedule(demands, toy_plan)
        assert not np.array_equal(first, second)


class TestOnlineBreakEven:
    def test_sustained_demand_triggers_reservation(self, scaled_plan):
        # break-even utilisation ~ 1/3 of the 96h period = 32 busy hours.
        demands = DemandTrace([1] * 96)
        n = wang_online_purchasing().schedule(demands, scaled_plan)
        assert n.sum() == 1
        trigger_hour = int(np.flatnonzero(n)[0])
        expected = OnlineBreakEven().trigger_hours(scaled_plan) - 1
        assert trigger_hour == expected

    def test_sporadic_demand_never_reserves(self, scaled_plan):
        demands = DemandTrace(([1] + [0] * 23) * 4)
        n = wang_online_purchasing().schedule(demands, scaled_plan)
        assert n.sum() == 0

    def test_aggressive_reserves_earlier(self, scaled_plan):
        demands = DemandTrace([1] * 96)
        wang = wang_online_purchasing().schedule(demands, scaled_plan)
        aggressive = aggressive_online_purchasing(0.5).schedule(demands, scaled_plan)
        assert np.flatnonzero(aggressive)[0] < np.flatnonzero(wang)[0]

    def test_multi_level_demand(self, scaled_plan):
        demands = DemandTrace([3] * 96)
        n = wang_online_purchasing().schedule(demands, scaled_plan)
        assert n.sum() == 3

    def test_window_forgets_old_usage(self, scaled_plan):
        # 20 busy hours, a gap longer than the window, 20 more: under the
        # trigger of ~32 hours nothing should ever be reserved.
        pattern = [1] * 20 + [0] * 100 + [1] * 20
        n = OnlineBreakEven(window_hours=96).schedule(
            DemandTrace(pattern), scaled_plan
        )
        assert n.sum() == 0

    def test_validation(self):
        with pytest.raises(SimulationError):
            OnlineBreakEven(threshold_fraction=0.0)
        with pytest.raises(SimulationError):
            OnlineBreakEven(window_hours=0)
        with pytest.raises(SimulationError):
            aggressive_online_purchasing(1.0)

    @pytest.mark.parametrize(
        "arguments",
        [
            {"window_hours": 2.5},
            {"window_hours": True},
            {"window_hours": float("inf")},
            {"window_hours": "24"},
            {"window_hours": -3},
            {"threshold_fraction": True},
            {"threshold_fraction": "0.5"},
            {"threshold_fraction": float("nan")},
            {"threshold_fraction": float("inf")},
            {"threshold_fraction": 1.5},
            {"threshold_fraction": None},
        ],
    )
    def test_refuses_arguments_it_cannot_mean(self, arguments, scaled_plan):
        with pytest.raises(SimulationError):
            OnlineBreakEven(**arguments)
        with pytest.raises(SimulationError):
            BreakEvenStepper(scaled_plan, **arguments)
        if "threshold_fraction" in arguments:
            with pytest.raises(SimulationError):
                aggressive_online_purchasing(arguments["threshold_fraction"])

    def test_accepts_numpy_numbers(self, scaled_plan):
        algorithm = OnlineBreakEven(
            threshold_fraction=np.float64(0.5), window_hours=np.int64(96)
        )
        assert algorithm.window_hours == 96 and type(algorithm.window_hours) is int
        assert algorithm.trigger_hours(scaled_plan) == OnlineBreakEven(0.5).trigger_hours(
            scaled_plan
        )


class TestOnDemandOnly:
    def test_never_reserves(self, toy_plan):
        n = OnDemandOnly().schedule(DemandTrace([5] * 20), toy_plan)
        assert n.sum() == 0
