"""Unit tests for repro.purchasing.stepper."""

import numpy as np
import pytest

from repro.errors import SimulationError
from repro.purchasing.all_reserved import AllReserved
from repro.purchasing.base import ActiveReservationTracker
from repro.purchasing.ondemand_only import OnDemandOnly
from repro.purchasing.online_breakeven import (
    aggressive_online_purchasing,
    wang_online_purchasing,
)
from repro.purchasing.random_reservation import RandomReservation
from repro.purchasing.stepper import BreakEvenStepper, stepper_for
from repro.workload.base import DemandTrace
from tests.purchasing.test_event_driven import CORPUS


def drive_stepper(stepper, demands, plan):
    """Drive a stepper against a keep-everything pool."""
    tracker = ActiveReservationTracker(plan.period_hours)
    schedule = np.zeros(len(demands), dtype=np.int64)
    for hour, demand in enumerate(demands):
        tracker.advance_to(hour)
        count = stepper.step(hour, int(demand), tracker.active)
        if count:
            schedule[hour] = count
            tracker.reserve(hour, count)
    return schedule


@pytest.fixture
def bursty_trace(rng):
    return DemandTrace(np.where(rng.random(192) < 0.3, rng.integers(1, 8, 192), 0))


class TestStepperEquivalence:
    """Against a keep-everything pool, the stepper must reproduce the
    batch ``schedule()`` output of its algorithm exactly. The batch
    schedules equal the hour-by-hour references on the event-driven
    corpus, so on it all three agree."""

    @pytest.mark.parametrize(
        "algorithm",
        [
            AllReserved(),
            RandomReservation(seed=5),
            OnDemandOnly(),
            wang_online_purchasing(),
            aggressive_online_purchasing(),
        ],
        ids=lambda a: a.name,
    )
    def test_matches_batch_schedule(self, algorithm, bursty_trace, scaled_plan):
        batch = algorithm.schedule(bursty_trace, scaled_plan)
        stepped = drive_stepper(
            stepper_for(algorithm, scaled_plan), bursty_trace, scaled_plan
        )
        assert np.array_equal(batch, stepped)

    def test_matches_batch_schedule_on_the_event_driven_corpus(self):
        mismatched = [
            case.seed
            for case in CORPUS
            if not np.array_equal(
                case.algorithm.schedule(case.demands, case.plan),
                drive_stepper(
                    stepper_for(case.algorithm, case.plan), case.demands, case.plan
                ),
            )
        ]
        assert mismatched == []


class TestStepperBehaviour:
    def test_all_reserved_reacts_to_pool(self, scaled_plan):
        stepper = stepper_for(AllReserved(), scaled_plan)
        assert stepper.step(0, demand=5, active=2) == 3
        assert stepper.step(1, demand=5, active=5) == 0

    def test_break_even_needs_sustained_uncovered_demand(self, scaled_plan):
        stepper = BreakEvenStepper(scaled_plan)
        trigger = stepper._trigger
        for hour in range(trigger - 1):
            assert stepper.step(hour, demand=1, active=0) == 0
        assert stepper.step(trigger - 1, demand=1, active=0) == 1

    def test_break_even_covered_demand_resets_nothing(self, scaled_plan):
        stepper = BreakEvenStepper(scaled_plan)
        for hour in range(200):
            assert stepper.step(hour, demand=1, active=1) == 0

    def test_break_even_validation(self, scaled_plan):
        with pytest.raises(SimulationError):
            BreakEvenStepper(scaled_plan, threshold_fraction=0.0)

    def test_unknown_algorithm_rejected(self, scaled_plan):
        class Mystery:
            pass

        with pytest.raises(SimulationError):
            stepper_for(Mystery(), scaled_plan)
