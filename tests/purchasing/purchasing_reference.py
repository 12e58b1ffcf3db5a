"""The hour-by-hour imitators: the references the event-driven
``schedule()`` methods are tested against.

Each function below is the loop its imitator ran before it became
event-driven: it steps an :class:`ActiveReservationTracker` through
every hour of the horizon and decides that hour from the live pool.
``AllReserved``, ``RandomReservation`` and ``OnlineBreakEven`` must
return the same ``n_t`` to the bit.
"""

from __future__ import annotations

from collections import deque

import numpy as np

from repro.pricing.plan import PricingPlan
from repro.purchasing.base import (
    ActiveReservationTracker,
    demands_array,
    validated_schedule,
)
from repro.purchasing.online_breakeven import OnlineBreakEven


def literal_all_reserved(demands, plan: PricingPlan) -> np.ndarray:
    """Reserve the full demand gap every hour."""
    trace, values = demands_array(demands, plan)
    horizon = len(trace)
    tracker = ActiveReservationTracker(plan.period_hours)
    n = np.zeros(horizon, dtype=np.int64)
    for hour in range(horizon):
        tracker.advance_to(hour)
        gap = int(values[hour]) - tracker.active
        if gap > 0:
            n[hour] = gap
            tracker.reserve(hour, gap)
    return validated_schedule(n, horizon)


def literal_random_reservation(demands, plan: PricingPlan, seed: int) -> np.ndarray:
    """Top the pool up to ``rng.integers(0, d + 1)`` on every hour with
    demand, after one unused ``rng.random()``."""
    trace, values = demands_array(demands, plan)
    horizon = len(trace)
    rng = np.random.default_rng(seed)
    tracker = ActiveReservationTracker(plan.period_hours)
    n = np.zeros(horizon, dtype=np.int64)
    for hour in range(horizon):
        tracker.advance_to(hour)
        demand = int(values[hour])
        if demand == 0:
            continue
        rng.random()
        target = int(rng.integers(0, demand + 1))
        gap = target - tracker.active
        if gap > 0:
            n[hour] = gap
            tracker.reserve(hour, gap)
    return validated_schedule(n, horizon)


def literal_online_breakeven(
    demands, plan: PricingPlan, algorithm: OnlineBreakEven
) -> np.ndarray:
    """Per-level sliding-window break-even rule, every level every hour."""
    trace, values = demands_array(demands, plan)
    horizon = len(trace)
    window = algorithm.window_hours or plan.period_hours
    trigger = algorithm.trigger_hours(plan)
    tracker = ActiveReservationTracker(plan.period_hours)
    # Per concurrency level: recent on-demand hours (sliding window).
    histories: list[deque[int]] = []
    n = np.zeros(horizon, dtype=np.int64)
    for hour in range(horizon):
        tracker.advance_to(hour)
        demand = int(values[hour])
        covered = tracker.active
        if demand > len(histories):
            histories.extend(
                deque() for _ in range(demand - len(histories))
            )
        new_reservations = 0
        for level in range(covered, demand):  # uncovered levels, 0-based
            history = histories[level]
            history.append(hour)
            while history and history[0] <= hour - window:
                history.popleft()
            if len(history) >= trigger:
                new_reservations += 1
                history.clear()
        if new_reservations:
            n[hour] = new_reservations
            tracker.reserve(hour, new_reservations)
    return validated_schedule(n, horizon)
