"""Unit tests for repro.purchasing.runner."""

import numpy as np
import pytest

from repro.errors import SimulationError
from repro.purchasing.all_reserved import AllReserved
from repro.purchasing.base import PurchasingAlgorithm
from repro.purchasing.runner import ReservationSchedule, imitate, paper_imitators
from repro.workload.base import DemandTrace


class TestImitate:
    def test_produces_schedule(self, toy_plan):
        schedule = imitate(DemandTrace([2] * 10), toy_plan, AllReserved())
        assert isinstance(schedule, ReservationSchedule)
        assert schedule.algorithm_name == "All-Reserved"
        assert schedule.horizon == 10

    def test_accepts_plain_sequences(self, toy_plan):
        # horizon == period, so All-Reserved needs exactly one batch.
        schedule = imitate([2] * 8, toy_plan, AllReserved())
        assert schedule.total_reserved == 2

    def test_total_upfront(self, toy_plan):
        schedule = imitate([2] * 8, toy_plan, AllReserved())
        assert schedule.total_upfront == pytest.approx(2 * toy_plan.upfront)

    def test_reservation_hours_expire(self, toy_plan):
        # Demand only in the first hour; period 8, horizon 12.
        schedule = imitate([3] + [0] * 11, toy_plan, AllReserved())
        active = schedule.reservation_hours()
        assert active[0] == 3 and active[7] == 3 and active[8] == 0

    @pytest.mark.parametrize("count", [0.5, np.nan, np.inf, 1e30])
    def test_refuses_counts_that_are_not_int64_instance_counts(self, toy_plan, count):
        class Custom(PurchasingAlgorithm):
            def schedule(self, demands, plan):
                n = np.ones(len(demands))
                n[3] = count
                return n

        with pytest.raises(SimulationError):
            imitate([2] * 10, toy_plan, Custom())


class TestPaperImitators:
    def test_four_behaviours_in_order(self):
        names = [algorithm.name for algorithm in paper_imitators()]
        assert names == [
            "All-Reserved",
            "Random-Reservation",
            "Online-BreakEven",
            "Aggressive-BreakEven",
        ]

    def test_all_run_on_one_trace(self, scaled_plan):
        demands = DemandTrace([2] * 192)
        for algorithm in paper_imitators(seed=1):
            schedule = imitate(demands, scaled_plan, algorithm)
            assert schedule.reservations.shape == (192,)
            assert np.all(schedule.reservations >= 0)
