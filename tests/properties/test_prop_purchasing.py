"""Property-based invariants of the purchasing imitators."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.pricing.plan import PricingPlan
from repro.purchasing.all_reserved import AllReserved
from repro.purchasing.online_breakeven import (
    aggressive_online_purchasing,
    wang_online_purchasing,
)
from repro.purchasing.random_reservation import RandomReservation
from repro.workload.base import DemandTrace

HORIZON = 64
PERIOD = 16
PLAN = PricingPlan(
    on_demand_hourly=1.0, upfront=8.0, alpha=0.25, period_hours=PERIOD, name="prop"
)

demand_lists = st.lists(
    st.integers(min_value=0, max_value=6), min_size=HORIZON, max_size=HORIZON
)


def active_per_hour(n):
    active = np.zeros(n.size, dtype=np.int64)
    for hour in np.flatnonzero(n):
        active[hour:min(hour + PERIOD, n.size)] += n[hour]
    return active


@given(demands=demand_lists)
@settings(max_examples=60, deadline=None)
def test_all_reserved_covers_demand_exactly_to_the_running_peak(demands):
    trace = DemandTrace(demands)
    n = AllReserved().schedule(trace, PLAN)
    active = active_per_hour(n)
    # Coverage: the pool always covers demand.
    assert np.all(active >= trace.values)
    # Parsimony: the pool never exceeds the running peak over the last
    # period (nothing is bought without a demand to justify it).
    for hour in range(HORIZON):
        window_start = max(0, hour - PERIOD + 1)
        assert active[hour] <= trace.values[window_start:hour + 1].max(initial=0)


@given(demands=demand_lists, seed=st.integers(min_value=0, max_value=20))
@settings(max_examples=60, deadline=None)
def test_random_reservation_never_exceeds_the_demand_peak(demands, seed):
    trace = DemandTrace(demands)
    n = RandomReservation(seed=seed).schedule(trace, PLAN)
    active = active_per_hour(n)
    assert active.max(initial=0) <= trace.peak


@given(demands=demand_lists)
@settings(max_examples=60, deadline=None)
def test_breakeven_never_reserves_more_than_all_reserved(demands):
    trace = DemandTrace(demands)
    eager = AllReserved().schedule(trace, PLAN)
    wang = wang_online_purchasing().schedule(trace, PLAN)
    aggressive = aggressive_online_purchasing().schedule(trace, PLAN)
    assert wang.sum() <= eager.sum()
    assert aggressive.sum() <= eager.sum()
    # The aggressive variant is at least as eager as the classic rule.
    assert aggressive.sum() >= wang.sum()


