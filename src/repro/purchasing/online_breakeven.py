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

The schedule jumps from one event to the next, a reservation expiring
or a level firing, and is exactly the hour-by-hour rule's
(``tests/purchasing/purchasing_reference.py`` keeps that loop):

* A level reaches its trigger only if at least ``trigger`` hours of the
  horizon have demand above it, so levels at or above ``L``, the
  ``trigger``-th largest demand, never fire and are never tracked.
* A level fires on its own appends since it last fired, ``x``, and on
  nothing else: at the first new append ``x[i]`` that closes ``trigger``
  of them inside the window, ``x[i] − x[i − trigger + 1] < window``.
  While it stays uncovered it appends at exactly its busy hours, the
  hours whose capped demand ``min(d, L)`` exceeds it, whatever the other
  levels do. So one vector comparison over those hours plans the hour
  it fires, and a level is planned again only when it fires or is
  uncovered by an expiry.
* Coverage changes only at events. The next one is the earliest planned
  firing or the next expiry, the expiry first on a tie, as the hourly
  loop advances its pool before it appends. Every uncovered level
  planned for that hour fires there, since the hourly loop appends all
  uncovered levels before any fires. The active count then rises by
  their number, and the levels it covers keep their appends up to that
  hour.
* A window that ends at a new append reaches back at most
  ``trigger − 1`` earlier ones, so a covered level keeps only that many,
  and working memory stays within ``O(horizon + levels × trigger)``.
"""

from __future__ import annotations

import math
from collections import deque

import numpy as np

from repro._arrays import as_int
from repro.errors import SimulationError
from repro.pricing.plan import PricingPlan
from repro.purchasing.base import (
    PurchasingAlgorithm,
    demands_array,
    validated_schedule,
)

_NO_HOURS = np.empty(0, dtype=np.int64)


def checked_threshold_fraction(value: object) -> float:
    """A real number in (0, 1]; bools and strings are refused."""
    if isinstance(value, bool) or not isinstance(
        value, (int, float, np.integer, np.floating)
    ):
        raise SimulationError(f"threshold_fraction must be a number, got {value!r}")
    if not 0.0 < value <= 1.0:
        raise SimulationError(f"threshold_fraction must lie in (0, 1], got {value!r}")
    return float(value)


def checked_window_hours(value: object) -> "int | None":
    """None, or a whole number of hours >= 1; bools are refused."""
    if value is None:
        return None
    return as_int(value, "window_hours", SimulationError, minimum=1)


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
        counted, a whole number of hours; defaults to one reservation
        period.
    """

    def __init__(
        self,
        threshold_fraction: float = 1.0,
        window_hours: "int | None" = None,
        name: str = "Online-BreakEven",
    ) -> None:
        self.threshold_fraction = checked_threshold_fraction(threshold_fraction)
        self.window_hours = checked_window_hours(window_hours)
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
        keep = trigger - 1
        # Per tracked level: the hour it appends from, its last ``keep``
        # appends before that hour since it last fired (the most a
        # window ending at a new append reaches back), and the hour it
        # fires if it stays uncovered (``horizon``: never).
        since = [0] * ceiling
        histories = [_NO_HOURS] * ceiling
        due = np.full(ceiling, horizon, dtype=np.int64)

        def plan(level: int, start: int) -> None:
            """Plan when ``level`` fires, uncovered from ``start`` on."""
            history = histories[level]
            hours = np.concatenate(
                (history, (capped[start:] > level).nonzero()[0] + start)
            )
            since[level] = start
            due[level] = horizon
            first = max(history.size, keep)  # the first new append with a full window
            if hours.size > first:
                inside = hours[first:] - hours[first - keep:hours.size - keep] < window
                hit = int(inside.argmax())
                if inside[hit]:
                    due[level] = hours[first + hit]

        def cover(level: int, hour: int) -> None:
            """Keep the appends of ``level``, covered after ``hour``."""
            start = since[level]
            busy = (capped[start:hour + 1] > level).nonzero()[0] + start
            kept = np.concatenate((histories[level], busy))
            histories[level] = kept[-keep:] if keep else _NO_HOURS

        for level in range(ceiling):
            plan(level, 0)
        expiries: deque[tuple[int, int]] = deque()  # (expiry hour, count)
        active = 0
        while True:
            firing = int(due[active:].min()) if active < ceiling else horizon
            if expiries and expiries[0][0] <= firing:
                hour, count = expiries.popleft()
                for level in range(active - count, active):
                    plan(level, hour)
                active -= count
                continue
            if firing == horizon:
                break
            fired = (np.flatnonzero(due[active:] == firing) + active).tolist()
            for level in fired:
                histories[level] = _NO_HOURS
                since[level] = firing + 1
            covered = active + len(fired)
            for level in range(active, covered):
                cover(level, firing)
            for level in fired:
                if level >= covered:
                    plan(level, firing + 1)
            n[firing] = len(fired)
            active = covered
            expiries.append((firing + period, len(fired)))
        return validated_schedule(n, horizon)


def wang_online_purchasing() -> OnlineBreakEven:
    """The paper's third imitator: Wang et al.'s break-even rule."""
    return OnlineBreakEven(threshold_fraction=1.0, name="Online-BreakEven")


def aggressive_online_purchasing(
    threshold_fraction: float = 0.5,
) -> OnlineBreakEven:
    """The paper's fourth imitator: the smaller-β variant."""
    if checked_threshold_fraction(threshold_fraction) == 1.0:
        raise SimulationError(
            f"the aggressive variant needs threshold_fraction in (0, 1), "
            f"got {threshold_fraction!r}"
        )
    return OnlineBreakEven(
        threshold_fraction=threshold_fraction, name="Aggressive-BreakEven"
    )
