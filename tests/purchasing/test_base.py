"""Unit tests for repro.purchasing.base."""

import numpy as np
import pytest

from repro.errors import SimulationError
from repro.pricing.plan import PricingPlan
from repro.purchasing.base import (
    ActiveReservationTracker,
    demands_array,
    validated_schedule,
)
from repro.workload.base import DemandTrace


class TestTracker:
    def test_starts_empty(self):
        tracker = ActiveReservationTracker(period=10)
        assert tracker.active == 0

    def test_reserve_counts(self):
        tracker = ActiveReservationTracker(period=10)
        tracker.reserve(0, 3)
        assert tracker.active == 3

    def test_expiry_after_period(self):
        tracker = ActiveReservationTracker(period=10)
        tracker.reserve(0, 2)
        tracker.advance_to(9)
        assert tracker.active == 2
        tracker.advance_to(10)
        assert tracker.active == 0

    def test_staggered_expiries(self):
        tracker = ActiveReservationTracker(period=10)
        tracker.reserve(0, 1)
        tracker.reserve(5, 1)
        tracker.advance_to(12)
        assert tracker.active == 1
        tracker.advance_to(15)
        assert tracker.active == 0

    def test_zero_reserve_is_noop(self):
        tracker = ActiveReservationTracker(period=10)
        tracker.reserve(0, 0)
        assert tracker.active == 0

    def test_negative_reserve_rejected(self):
        tracker = ActiveReservationTracker(period=10)
        with pytest.raises(SimulationError):
            tracker.reserve(0, -1)

    def test_bad_period_rejected(self):
        with pytest.raises(SimulationError):
            ActiveReservationTracker(period=0)


class TestHelpers:
    def test_validated_schedule_shape(self):
        with pytest.raises(SimulationError):
            validated_schedule(np.zeros(5), horizon=6)

    def test_validated_schedule_negative(self):
        with pytest.raises(SimulationError):
            validated_schedule(np.array([1, -1]), horizon=2)

    @pytest.mark.parametrize(
        "n",
        [np.array([0, 2**63], dtype=np.uint64), np.array([1, 0.5], dtype=object)],
        ids=["uint64-past-int64", "object"],
    )
    def test_validated_schedule_refuses_what_int64_cannot_hold(self, n):
        with pytest.raises(SimulationError):
            validated_schedule(n, horizon=2)

    def test_demands_array_coerces(self, toy_plan):
        trace, values = demands_array([1, 2, 3], toy_plan)
        assert isinstance(trace, DemandTrace)
        assert values.tolist() == [1, 2, 3]

    def test_demands_array_rejects_degenerate_plan(self):
        plan = PricingPlan(on_demand_hourly=1.0, upfront=1.0, alpha=0.0, period_hours=1)
        with pytest.raises(SimulationError):
            demands_array([1], plan)
