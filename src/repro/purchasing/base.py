"""Purchasing algorithms: how users come to hold reservations.

The paper's evaluation needs, per user, "the value of demands and new
reserved instances at each time" (Section VI-A). Public traces only have
demands, so the paper *imitates* users' reservation behaviour with four
purchasing algorithms; :mod:`repro.purchasing` implements all four. Each
algorithm maps a demand trace to a reservation schedule ``n_t`` — how
many new instances are reserved each hour — processing the trace online
(no lookahead), exactly like the users being imitated.

The imitators jump between reservation events instead of stepping
through every hour; each module states its rule and why it is exact.
:func:`top_up_schedule` is the rule All-Reserved and Random-Reservation
share. :class:`ActiveReservationTracker` is the hour-by-hour pool count
that the randomized break-even imitator still steps.
"""

from __future__ import annotations

import abc
from collections import deque

import numpy as np

from repro.errors import SimulationError
from repro.pricing.plan import PricingPlan
from repro.workload.base import DemandTrace, TraceLike, as_trace


class ActiveReservationTracker:
    """Running count of active reservations while scanning a trace.

    ``advance_to(t)`` expires reservations whose period ended; ``reserve``
    registers new ones starting at the current hour.
    """

    def __init__(self, period: int) -> None:
        if period <= 0:
            raise SimulationError(f"period must be positive, got {period!r}")
        self.period = period
        self._active = 0
        self._expiries: deque[tuple[int, int]] = deque()  # (expiry hour, count)

    @property
    def active(self) -> int:
        return self._active

    def advance_to(self, hour: int) -> None:
        """Expire everything whose period ends at or before ``hour``."""
        while self._expiries and self._expiries[0][0] <= hour:
            _, count = self._expiries.popleft()
            self._active -= count

    def reserve(self, hour: int, count: int) -> None:
        """Register ``count`` reservations starting at ``hour``."""
        if count < 0:
            raise SimulationError(f"count must be >= 0, got {count!r}")
        if count == 0:
            return
        self._active += count
        self._expiries.append((hour + self.period, count))


class PurchasingAlgorithm(abc.ABC):
    """Interface of the reservation-behaviour imitators."""

    #: Human-readable name used in experiment reports.
    name: str = "purchasing"

    @abc.abstractmethod
    def schedule(self, demands: DemandTrace, plan: PricingPlan) -> np.ndarray:
        """Produce the per-hour new-reservation counts ``n_t``."""

    def __repr__(self) -> str:
        return f"<{type(self).__name__} {self.name!r}>"


def top_up_schedule(targets: np.ndarray, period: int) -> np.ndarray:
    """Reservations that top the active pool up to ``targets[h]`` each hour.

    The rule reserves ``max(targets[h] − active_h, 0)`` at hour ``h``,
    where ``active_h`` counts the reservations made in ``(h − T, h)``.
    Nothing reserved inside a period-long block ``[kT, (k+1)T)``
    expires inside it, so within a block ``active_h = c_h + S_h``: the
    previous block's reservations still active at ``h`` (a reservation
    at ``u`` is active while ``u ≥ h − T + 1``, so ``c_h`` is a suffix
    sum of that block's ``n``) plus the block's own reservations before
    ``h``. Topping up gives ``S_{h+1} = max(S_h, targets[h] − c_h)``,
    so the block's cumulative reservations are one running maximum and
    its ``n`` is their first difference: one vector pass per period.
    """
    horizon = targets.size
    n = np.zeros(horizon, dtype=np.int64)
    carried = np.zeros(period, dtype=np.int64)
    for start in range(0, horizon, period):
        block = targets[start:start + period]
        cumulative = np.maximum.accumulate(
            np.maximum(block - carried[:block.size], 0)
        )
        n[start:start + block.size] = np.diff(cumulative, prepend=0)
        # Offset j of the next block still holds this block's
        # reservations at offsets j + 1 and later.
        carried = cumulative[-1] - cumulative
    return n


def validated_schedule(n: np.ndarray, horizon: int) -> np.ndarray:
    """Common output validation for all algorithms.

    Refuses, rather than truncates or wraps, counts that are not whole
    non-negative numbers fitting ``int64``: ``imitate`` is where a
    user's own :class:`PurchasingAlgorithm` subclass enters.
    """
    if n.shape != (horizon,):
        raise SimulationError(
            f"schedule must have shape ({horizon},), got {n.shape}"
        )
    if n.dtype.kind not in "biuf":
        raise SimulationError(
            f"schedule must hold numeric counts, got dtype {n.dtype}"
        )
    if n.dtype.kind == "f" and not np.all(np.isfinite(n)):
        raise SimulationError("schedule contains non-finite reservation counts")
    if np.any(n < 0):
        raise SimulationError("schedule contains negative reservation counts")
    if n.dtype.kind == "f" and np.any(n != np.floor(n)):
        raise SimulationError("schedule contains fractional reservation counts")
    if n.dtype.kind in "fu" and np.any(n >= 2**63):
        raise SimulationError("schedule contains counts beyond the int64 range")
    return n.astype(np.int64)


def demands_array(demands: TraceLike, plan: PricingPlan) -> "tuple[DemandTrace, np.ndarray]":
    """Coerce input demands and return (trace, int array)."""
    trace = as_trace(demands)
    if plan.period_hours <= 1:
        raise SimulationError("plan period must exceed one hour")
    return trace, trace.values
