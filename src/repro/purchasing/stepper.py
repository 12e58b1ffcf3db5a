"""Hour-by-hour purchasing steppers (for coupled simulations).

The paper decouples purchasing from selling: the imitators produce the
whole reservation schedule ``n_t`` up front and the selling policies run
on it (Section VI-A). A real user's purchasing, however, *reacts* to the
pool the selling policy leaves behind — after selling an instance, new
demand may trigger a new reservation.

A :class:`PurchasingStepper` is the reactive form of a purchasing
algorithm: at each hour it is told the demand and the currently active
pool (as the coupled simulator sees it, sales included) and answers how
many new instances to reserve. Every imitator in this package exposes
one via :func:`stepper_for`; the batch ``schedule()`` methods are
equivalent to driving the stepper against a keep-everything pool.
"""

from __future__ import annotations

import abc
import math
from collections import deque

import numpy as np

from repro.errors import SimulationError
from repro.pricing.plan import PricingPlan
from repro.purchasing.all_reserved import AllReserved
from repro.purchasing.base import PurchasingAlgorithm
from repro.purchasing.ondemand_only import OnDemandOnly
from repro.purchasing.online_breakeven import (
    OnlineBreakEven,
    checked_threshold_fraction,
    checked_window_hours,
)
from repro.purchasing.random_reservation import RandomReservation


class PurchasingStepper(abc.ABC):
    """Reactive purchasing: one decision per hour, given the live pool."""

    @abc.abstractmethod
    def step(self, hour: int, demand: int, active: int) -> int:
        """Number of new instances to reserve at ``hour``.

        ``active`` is the currently active reserved pool — including the
        effect of any sales the selling policy has made.
        """


class AllReservedStepper(PurchasingStepper):
    """Reserve the demand gap every hour."""

    def step(self, hour: int, demand: int, active: int) -> int:
        return max(0, demand - active)


class OnDemandOnlyStepper(PurchasingStepper):
    """Never reserve."""

    def step(self, hour: int, demand: int, active: int) -> int:
        return 0


class RandomReservationStepper(PurchasingStepper):
    """Top the pool up toward a random target ≤ demand."""

    def __init__(self, seed: int = 0) -> None:
        self._rng = np.random.default_rng(seed)

    def step(self, hour: int, demand: int, active: int) -> int:
        if demand == 0:
            return 0
        # Drawn and unused, as in the batch schedule's stream.
        self._rng.random()
        target = int(self._rng.integers(0, demand + 1))
        return max(0, target - active)


class BreakEvenStepper(PurchasingStepper):
    """Per-level sliding-window break-even rule (Wang et al. style)."""

    def __init__(
        self, plan: PricingPlan, threshold_fraction: float = 1.0,
        window_hours: "int | None" = None,
    ) -> None:
        threshold_fraction = checked_threshold_fraction(threshold_fraction)
        self._window = checked_window_hours(window_hours) or plan.period_hours
        self._trigger = max(
            math.ceil(threshold_fraction * plan.break_even_hours), 1
        )
        self._histories: list[deque[int]] = []

    def step(self, hour: int, demand: int, active: int) -> int:
        if demand > len(self._histories):
            self._histories.extend(
                deque() for _ in range(demand - len(self._histories))
            )
        new_reservations = 0
        for level in range(active, demand):
            history = self._histories[level]
            history.append(hour)
            while history and history[0] <= hour - self._window:
                history.popleft()
            if len(history) >= self._trigger:
                new_reservations += 1
                history.clear()
        return new_reservations


def stepper_for(
    algorithm: PurchasingAlgorithm, plan: PricingPlan
) -> PurchasingStepper:
    """The reactive form of one of this package's imitators."""
    if isinstance(algorithm, AllReserved):
        return AllReservedStepper()
    if isinstance(algorithm, OnDemandOnly):
        return OnDemandOnlyStepper()
    if isinstance(algorithm, RandomReservation):
        return RandomReservationStepper(seed=algorithm.seed)
    if isinstance(algorithm, OnlineBreakEven):
        return BreakEvenStepper(
            plan,
            threshold_fraction=algorithm.threshold_fraction,
            window_hours=algorithm.window_hours,
        )
    raise SimulationError(
        f"no stepper available for purchasing algorithm {algorithm!r}"
    )
