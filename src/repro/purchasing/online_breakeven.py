"""The break-even online purchasing imitators (Section VI-A, 3rd & 4th).

The paper's third imitator is the online purchasing algorithm of Wang,
Li and Liang ("To Reserve or Not to Reserve: Optimal Online
Multi-Instance Acquisition in IaaS Clouds", ICAC 2013): serve demand on
demand until the on-demand spend a reservation would have absorbed
reaches the reservation's break-even point, then reserve. The fourth
imitator is "a variant of the online purchasing algorithm, the break-even
point β is smaller" — i.e. it reserves more eagerly.

Implementation: demand is decomposed into concurrency *levels* (the j-th
level is busy at hour t iff ``d_t ≥ j``, the standard reduction to
per-level ski-rental). Each uncovered level accumulates its on-demand
hours over a sliding window of one reservation period; once they reach
``threshold_fraction ×`` the break-even hours ``R / (p·(1 − α))``, one
instance is reserved for that level. ``threshold_fraction = 1`` is the
classic deterministic break-even rule; smaller fractions give the
aggressive variant.

The schedule visits only the (hour, level) pairs that can matter, and
is exactly the hour-by-hour rule's:

* A level reaches its trigger only if at least ``trigger`` hours of the
  horizon have demand above it, so levels at or above ``L``, the
  ``trigger``-th largest demand, never fire and are never tracked.
* A window is read only right after an append at the same hour, so
  hours with no uncovered level change nothing and are skipped. The
  active count changes only at a reservation or an expiry; between two
  such events one vector search finds every hour whose capped demand
  ``min(d, L)`` exceeds it.
* A reservation made inside such a segment only raises the count, so
  later candidates it covers are skipped. Its own expiry can fall inside
  the segment, when no earlier reservation is pending, and then ends
  the segment.
"""

from __future__ import annotations

import math
from collections import deque

import numpy as np

from repro.errors import SimulationError
from repro.pricing.plan import PricingPlan
from repro.purchasing.base import (
    PurchasingAlgorithm,
    demands_array,
    validated_schedule,
)


class OnlineBreakEven(PurchasingAlgorithm):
    """Deterministic break-even (ski-rental style) online purchasing.

    Parameters
    ----------
    threshold_fraction:
        Fraction of the break-even hours at which a level converts to a
        reservation. 1.0 reproduces Wang et al.'s deterministic rule;
        the paper's fourth imitator uses a smaller value.
    window_hours:
        Length of the sliding window in which on-demand hours are
        counted; defaults to one reservation period.
    """

    def __init__(
        self,
        threshold_fraction: float = 1.0,
        window_hours: "int | None" = None,
        name: str = "Online-BreakEven",
    ) -> None:
        if not 0.0 < threshold_fraction <= 1.0:
            raise SimulationError(
                f"threshold_fraction must lie in (0, 1], got {threshold_fraction!r}"
            )
        if window_hours is not None and window_hours <= 0:
            raise SimulationError(
                f"window_hours must be positive, got {window_hours!r}"
            )
        self.threshold_fraction = threshold_fraction
        self.window_hours = window_hours
        self.name = name

    def trigger_hours(self, plan: PricingPlan) -> int:
        """On-demand hours (within the window) that trigger a reservation."""
        hours = math.ceil(self.threshold_fraction * plan.break_even_hours)
        return max(hours, 1)

    def schedule(self, demands, plan: PricingPlan) -> np.ndarray:
        trace, values = demands_array(demands, plan)
        horizon = len(trace)
        period = plan.period_hours
        window = self.window_hours or period
        trigger = self.trigger_hours(plan)
        n = np.zeros(horizon, dtype=np.int64)
        if trigger > horizon:
            return validated_schedule(n, horizon)
        ceiling = int(np.partition(values, horizon - trigger)[horizon - trigger])
        capped = np.minimum(values, ceiling)
        # Per tracked level: recent on-demand hours (sliding window).
        histories: list[deque[int]] = [deque() for _ in range(ceiling)]
        expiries: deque[tuple[int, int]] = deque()  # (expiry hour, count)
        active = 0
        hour = 0
        while hour < horizon:
            while expiries and expiries[0][0] <= hour:
                active -= expiries.popleft()[1]
            end = expiries[0][0] if expiries else horizon
            segment = capped[hour:end]
            uncovered = np.flatnonzero(segment > active)
            for t, top in zip((uncovered + hour).tolist(), segment[uncovered].tolist()):
                if t >= end:
                    break
                new_reservations = 0
                for level in range(active, top):
                    history = histories[level]
                    history.append(t)
                    while history[0] <= t - window:
                        history.popleft()
                    if len(history) >= trigger:
                        new_reservations += 1
                        history.clear()
                if new_reservations:
                    n[t] = new_reservations
                    active += new_reservations
                    expiries.append((t + period, new_reservations))
                    end = min(end, t + period)
            hour = end
        return validated_schedule(n, horizon)


def wang_online_purchasing() -> OnlineBreakEven:
    """The paper's third imitator: Wang et al.'s break-even rule."""
    return OnlineBreakEven(threshold_fraction=1.0, name="Online-BreakEven")


def aggressive_online_purchasing(
    threshold_fraction: float = 0.5,
) -> OnlineBreakEven:
    """The paper's fourth imitator: the smaller-β variant."""
    if not 0.0 < threshold_fraction < 1.0:
        raise SimulationError(
            f"the aggressive variant needs threshold_fraction in (0, 1), "
            f"got {threshold_fraction!r}"
        )
    return OnlineBreakEven(
        threshold_fraction=threshold_fraction, name="Aggressive-BreakEven"
    )
