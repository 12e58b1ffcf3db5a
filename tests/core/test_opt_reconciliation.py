"""OPT's accounting reconciles with an independent recount.

``run_offline_optimal`` prices its schedule through the reference
simulator. Here the same schedule is recounted densely from its active
timeline: on-demand hours, billed reservation-hours and the closed-form
total of ``offline._schedule_cost`` must all agree with the simulator's
breakdown, on fleets whose last batches are cut by the horizon, under
both fee modes.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro._tolerances import money_eq
from repro.core import offline
from repro.core.account import CostModel, HourlyFeeMode
from repro.pricing.plan import PricingPlan


def _fleet(seed: int):
    rng = np.random.default_rng(seed)
    period = int(rng.choice([24, 48, 96]))
    horizon = int(rng.integers(3, 6)) * period
    # A steady base load that kept instances serve, plus bursts to sell.
    busy = rng.random(horizon) < rng.uniform(0.4, 0.9)
    demands = int(rng.integers(1, 4)) + np.where(busy, rng.integers(0, 6, horizon), 0)
    reservations = np.where(rng.random(horizon) < 3 / period, rng.integers(1, 4, horizon), 0)
    # Batches whose spans the horizon cuts short.
    tail = rng.integers(horizon - period + 1, horizon, size=2)
    reservations[tail] += rng.integers(2, 6, size=2)
    p = float(rng.choice([1.0, 0.69]))
    plan = PricingPlan(
        on_demand_hourly=p,
        upfront=float(rng.uniform(0.25, 0.55)) * p * period,
        alpha=float(rng.choice([0.25, 0.37])),
        period_hours=period,
        name="reconcile",
    )
    model = CostModel(
        plan=plan,
        selling_discount=float(rng.choice([0.5, 0.8])),
        marketplace_fee=(0.0, 0.12)[seed % 2],
        fee_mode=(HourlyFeeMode.ACTIVE, HourlyFeeMode.USAGE)[(seed // 2) % 2],
    )
    return demands, reservations, model


@pytest.mark.parametrize("seed", range(12))
def test_opt_breakdown_equals_a_dense_recount(seed):
    demands, reservations, model = _fleet(seed)
    result = offline.run_offline_optimal(demands, reservations, model)

    horizon = demands.size
    starts = np.repeat(np.arange(horizon), reservations)
    ends = np.minimum(starts + model.period, horizon)
    assert ends.max() == horizon and np.any(starts + model.period > horizon)
    stops = ends.copy()
    for sale in result.sales:
        stops[sale.instance_id] = sale.hour
    assert result.instances_sold > 0
    r = offline._timeline(starts, stops, horizon)
    assert np.array_equal(result.r_physical, r)

    on_demand_hours = int(np.maximum(demands - r, 0).sum())
    if model.fee_mode is HourlyFeeMode.ACTIVE:
        billed_hours = int(r.sum())
    else:
        billed_hours = int(np.minimum(demands, r).sum())
    breakdown = result.breakdown
    assert money_eq(breakdown.on_demand, on_demand_hours * model.p)
    assert money_eq(breakdown.reserved_hourly, billed_hours * model.alpha * model.p)
    assert money_eq(
        result.total_cost,
        offline._schedule_cost(demands, starts, ends, stops, model),
    )
