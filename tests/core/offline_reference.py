"""Sequential multi-start OPT descent: the reference the lane solver is
tested against.

One ``SequentialFleetOptimizer`` per start, each visiting instances one
at a time with a 1-D suffix sum per evaluation, started in the order
keep-everything, sell-early, the six ``run_fast`` policy seeds, then the
caller's extra starts. ``repro.core.offline`` runs the same descents as
lockstep lanes and must return the same schedule to the bit.
"""

from __future__ import annotations

import math

import numpy as np

from repro.core.account import CostModel, HourlyFeeMode
from repro.core.fastsim import FastPolicyKind, run_fast
from repro.errors import SimulationError
from repro.workload.base import TraceLike, as_trace


def best_sale_age(
    spill: np.ndarray, length: int, period: int, model: CostModel, min_age: int
) -> "tuple[int | None, float]":
    """Argmin of delta(age) over ``age in [min_age, length)`` for one
    instance; ``spill`` marks the hours where selling costs an
    on-demand hour."""
    ages = np.arange(min_age, length)
    if ages.size == 0:
        return None, 0.0
    spill_after = np.concatenate((np.cumsum(spill[::-1])[::-1], [0]))
    remaining_fractions = 1.0 - ages / period
    incomes = (
        (1.0 - model.marketplace_fee)
        * model.selling_discount
        * remaining_fractions
        * model.big_r
    )
    if model.fee_mode is HourlyFeeMode.ACTIVE:
        saved_fees = model.alpha * model.p * (length - ages)
        extra_on_demand = model.p * spill_after[ages]
    else:
        saved_fees = model.alpha * model.p * spill_after[ages]
        extra_on_demand = model.p * spill_after[ages]
    deltas = -incomes - saved_fees + extra_on_demand
    best_index = int(np.argmin(deltas))
    best_delta = float(deltas[best_index])
    if best_delta >= 0.0 or math.isclose(best_delta, 0.0, abs_tol=1e-12):
        return None, 0.0
    return int(ages[best_index]), best_delta


class SequentialFleetOptimizer:
    """Coordinate descent over per-instance sale hours from one start."""

    def __init__(self, demands: np.ndarray, reservations: np.ndarray,
                 model: CostModel, min_age: int) -> None:
        self.d = demands
        self.model = model
        self.min_age = min_age
        self.horizon = demands.size
        self.period = model.period
        self.spans: list[tuple[int, int]] = []
        for hour in np.flatnonzero(reservations):
            for _ in range(int(reservations[hour])):
                self.spans.append(
                    (int(hour), min(int(hour) + self.period, self.horizon))
                )
        self.r = np.zeros(self.horizon, dtype=np.int64)
        for start, end in self.spans:
            self.r[start:end] += 1
        self.sales: dict[int, int] = {}

    def evaluate(self, index: int) -> "tuple[int | None, float]":
        """Best sale hour for one instance, others held fixed."""
        start, end = self.spans[index]
        length = end - start
        if length <= self.min_age:
            return None, 0.0
        current = self.sales.get(index)
        if current is not None:
            self.r[current:end] += 1
        window = slice(start, end)
        spill = (self.d[window] >= self.r[window]).astype(np.int64)
        best_age, best_delta = best_sale_age(
            spill, length, self.period, self.model, self.min_age
        )
        if current is not None:
            self.r[current:end] -= 1
        if best_age is None:
            return None, best_delta
        return start + best_age, best_delta

    def apply(self, index: int, sell_hour: "int | None") -> None:
        start, end = self.spans[index]
        current = self.sales.get(index)
        if current == sell_hour:
            return
        if current is not None:
            self.r[current:end] += 1
            del self.sales[index]
        if sell_hour is not None:
            self.r[sell_hour:end] -= 1
            self.sales[index] = sell_hour

    def optimise(self, max_passes: int) -> dict[int, int]:
        for _ in range(max_passes):
            changed = False
            for index in range(len(self.spans)):
                previous = self.sales.get(index)
                sell_hour, _ = self.evaluate(index)
                if sell_hour != previous:
                    self.apply(index, sell_hour)
                    changed = True
            if not changed:
                break
        return dict(self.sales)

    def seed(self, sales: dict[int, int]) -> None:
        for index, hour in sales.items():
            self.apply(index, hour)

    def schedule_cost(self, sales: dict[int, int]) -> float:
        """True Eq. (1) total cost of an arbitrary schedule."""
        r = np.zeros(self.horizon, dtype=np.int64)
        income = 0.0
        for index, (start, end) in enumerate(self.spans):
            stop = sales.get(index, end)
            r[start:stop] += 1
            if index in sales:
                age = sales[index] - start
                income += self.model.sale_income(1.0 - age / self.period)
        on_demand = np.maximum(self.d - r, 0)
        if self.model.fee_mode is HourlyFeeMode.ACTIVE:
            billed = int(r.sum())
        else:
            billed = int(np.minimum(self.d, r).sum())
        return (
            float(on_demand.sum()) * self.model.p
            + len(self.spans) * self.model.big_r
            + billed * self.model.alpha * self.model.p
            - income
        )


def policy_start_schedules(
    demands: np.ndarray, reservations: np.ndarray, model: CostModel
) -> list[dict[int, int]]:
    """The online policies' and All-Selling benchmarks' sell sets."""
    id_base = np.concatenate(([0], np.cumsum(reservations)))
    starts = []
    for phi in (0.25, 0.5, 0.75):
        for kind in (FastPolicyKind.ONLINE, FastPolicyKind.ALL_SELLING):
            result = run_fast(demands, reservations, model, phi=phi, kind=kind)
            starts.append(
                {
                    int(id_base[sale.reserved_at]) + sale.batch_index - 1: sale.hour
                    for sale in result.sales
                }
            )
    return starts


def sequential_descents(
    demands: TraceLike,
    reservations: np.ndarray,
    model: CostModel,
    min_age: int = 1,
    max_passes: int = 8,
    extra_starts: "list[dict[int, int]] | None" = None,
) -> "list[tuple[dict[int, int], float]]":
    """Each start's descended schedule and its cost, in start order."""
    if min_age < 1:
        raise SimulationError(f"min_age must be >= 1, got {min_age!r}")
    values = as_trace(demands).values
    schedule = np.asarray(reservations).astype(np.int64)

    def solve(start: dict[int, int]) -> "tuple[dict[int, int], float]":
        optimizer = SequentialFleetOptimizer(values, schedule, model, min_age)
        optimizer.seed(start)
        sales = optimizer.optimise(max_passes)
        return sales, optimizer.schedule_cost(sales)

    spans = SequentialFleetOptimizer(values, schedule, model, min_age).spans
    sell_early = {
        index: start + min_age
        for index, (start, end) in enumerate(spans)
        if end - start > min_age
    }
    starts: list[dict[int, int]] = [sell_early]
    starts.extend(policy_start_schedules(values, schedule, model))
    if extra_starts:
        starts.extend(extra_starts)

    def feasible(start: dict[int, int]) -> dict[int, int]:
        cleaned = {}
        for index, hour in start.items():
            if not 0 <= index < len(spans):
                continue
            span_start, span_end = spans[index]
            if span_start + min_age <= hour < span_end:
                cleaned[index] = hour
        return cleaned

    return [solve({})] + [solve(feasible(start)) for start in starts]


def best_descent(descents: "list[tuple[dict[int, int], float]]") -> dict[int, int]:
    """The first start's schedule, replaced by a later start's only when
    that is cheaper by more than 1e-12."""
    best_sales, best_cost = descents[0]
    for sales, cost in descents[1:]:
        if cost < best_cost - 1e-12:
            best_sales, best_cost = sales, cost
    return best_sales
