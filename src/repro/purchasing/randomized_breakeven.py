"""Randomized break-even purchasing (the ski-rental e/(e−1) algorithm).

Wang et al. (ICAC 2013) — the paper's reference [5] for online
purchasing — analyse both a deterministic break-even rule (implemented
in :mod:`repro.purchasing.online_breakeven`) and its randomized
improvement: instead of reserving exactly at the break-even point ``B``,
reserve when the accumulated on-demand hours reach ``z·B`` with ``z``
drawn from the classic ski-rental density ``f(z) = e^z/(e−1)`` on
[0, 1], which improves the expected competitive ratio from 2 to
e/(e−1) ≈ 1.58. Each concurrency level draws its own threshold.

Included for completeness of the purchasing substrate: the paper's
evaluation imitates users with the deterministic rule, and this is its
natural fifth behaviour.
"""

from __future__ import annotations

import math
from collections import deque

import numpy as np

from repro.pricing.plan import PricingPlan
from repro.purchasing.base import (
    ActiveReservationTracker,
    PurchasingAlgorithm,
    demands_array,
    validated_schedule,
)
from repro.purchasing.online_breakeven import checked_window_hours

#: The randomized ski-rental competitive ratio, e/(e−1).
SKI_RENTAL_RATIO = math.e / (math.e - 1.0)


def draw_threshold_fraction(rng: np.random.Generator) -> float:
    """Draw z with density e^z/(e−1) on [0, 1] (inverse-CDF sampling).

    CDF: F(z) = (e^z − 1)/(e − 1), so z = ln(1 + u·(e − 1)).
    """
    uniform = float(rng.random())
    return math.log(1.0 + uniform * (math.e - 1.0))


class RandomizedBreakEven(PurchasingAlgorithm):
    """Reserve a level once its on-demand hours reach ``z·B``, z random.

    ``B`` is the plan's break-even hours; the sliding accumulation
    window defaults to one reservation period (as in the deterministic
    rule). Deterministic in ``seed``.
    """

    def __init__(self, seed: int = 0, window_hours: "int | None" = None) -> None:
        self.seed = seed
        self.window_hours = checked_window_hours(window_hours)
        self.name = "Randomized-BreakEven"

    def schedule(self, demands, plan: PricingPlan) -> np.ndarray:
        """Produce ``n_t`` with per-level randomized thresholds."""
        trace, values = demands_array(demands, plan)
        horizon = len(trace)
        window = self.window_hours or plan.period_hours
        rng = np.random.default_rng(self.seed)
        tracker = ActiveReservationTracker(plan.period_hours)
        histories: list[deque[int]] = []
        thresholds: list[int] = []
        n = np.zeros(horizon, dtype=np.int64)

        def new_threshold() -> int:
            hours = math.ceil(
                draw_threshold_fraction(rng) * plan.break_even_hours
            )
            return max(hours, 1)

        for hour in range(horizon):
            tracker.advance_to(hour)
            demand = int(values[hour])
            while demand > len(histories):
                histories.append(deque())
                thresholds.append(new_threshold())
            new_reservations = 0
            for level in range(tracker.active, demand):
                history = histories[level]
                history.append(hour)
                while history and history[0] <= hour - window:
                    history.popleft()
                if len(history) >= thresholds[level]:
                    new_reservations += 1
                    history.clear()
                    thresholds[level] = new_threshold()  # fresh draw next time
            if new_reservations:
                n[hour] = new_reservations
                tracker.reserve(hour, new_reservations)
        return validated_schedule(n, horizon)
