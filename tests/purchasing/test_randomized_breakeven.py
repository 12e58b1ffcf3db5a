"""Unit tests for repro.purchasing.randomized_breakeven."""

import math

import numpy as np
import pytest

from repro.errors import SimulationError
from repro.purchasing.online_breakeven import wang_online_purchasing
from repro.purchasing.randomized_breakeven import (
    SKI_RENTAL_RATIO,
    RandomizedBreakEven,
    draw_threshold_fraction,
)
from repro.workload.base import DemandTrace


class TestThresholdDistribution:
    def test_support_is_unit_interval(self, rng):
        draws = [draw_threshold_fraction(rng) for _ in range(2000)]
        assert 0.0 < min(draws) and max(draws) <= 1.0

    def test_density_shape(self, rng):
        # f(z) = e^z/(e-1): mean = integral z e^z dz / (e-1) = 1/(e-1).
        draws = np.array([draw_threshold_fraction(rng) for _ in range(20000)])
        assert draws.mean() == pytest.approx(1.0 / (math.e - 1.0), abs=0.01)

    def test_ratio_constant(self):
        assert SKI_RENTAL_RATIO == pytest.approx(1.582, abs=1e-3)


class TestRandomizedBreakEven:
    def test_deterministic_in_seed(self, scaled_plan):
        demands = DemandTrace([1] * 192)
        first = RandomizedBreakEven(seed=2).schedule(demands, scaled_plan)
        second = RandomizedBreakEven(seed=2).schedule(demands, scaled_plan)
        assert np.array_equal(first, second)

    def test_reserves_no_later_than_the_deterministic_rule(self, scaled_plan):
        # z <= 1, so the randomized trigger can only fire earlier.
        demands = DemandTrace([1] * 192)
        randomized = RandomizedBreakEven(seed=5).schedule(demands, scaled_plan)
        deterministic = wang_online_purchasing().schedule(demands, scaled_plan)
        first_random = int(np.flatnonzero(randomized)[0])
        first_deterministic = int(np.flatnonzero(deterministic)[0])
        assert first_random <= first_deterministic

    def test_sporadic_demand_never_reserves(self, scaled_plan):
        demands = DemandTrace(([1] + [0] * 47) * 4)
        n = RandomizedBreakEven(seed=1).schedule(demands, scaled_plan)
        assert n.sum() == 0

    def test_multi_level_demand_reserves_all_levels(self, scaled_plan):
        # One period only: both levels trigger exactly once (with a
        # longer horizon, expiries correctly trigger replacements).
        demands = DemandTrace([2] * scaled_plan.period_hours)
        n = RandomizedBreakEven(seed=3).schedule(demands, scaled_plan)
        assert n.sum() == 2

    def test_seeds_spread_the_trigger(self, scaled_plan):
        demands = DemandTrace([1] * 192)
        firsts = set()
        for seed in range(8):
            n = RandomizedBreakEven(seed=seed).schedule(demands, scaled_plan)
            triggers = np.flatnonzero(n)
            if triggers.size:
                firsts.add(int(triggers[0]))
        assert len(firsts) > 1  # the randomness is real

    def test_validation(self):
        with pytest.raises(SimulationError):
            RandomizedBreakEven(window_hours=0)

    @pytest.mark.parametrize("window_hours", [2.5, True, float("inf"), "24"])
    def test_window_must_be_whole_hours(self, window_hours):
        with pytest.raises(SimulationError):
            RandomizedBreakEven(window_hours=window_hours)
