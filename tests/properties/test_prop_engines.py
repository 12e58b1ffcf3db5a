"""Property-based equivalence of the two simulation engines.

The array engine (``run_fast``) and the object-model
simulator must agree on every (demands, reservations, phi, fee mode)
input — same sales, same dollars, component by component.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.account import CostModel, HourlyFeeMode
from repro.core.fastsim import FastPolicyKind, run_fast
from repro.core.policies import (
    AllSellingPolicy,
    KeepReservedPolicy,
    OnlineSellingPolicy,
)
from repro.core.simulator import run_policy
from repro.pricing.plan import PricingPlan

HORIZON = 48
PERIOD = 16

PLAN = PricingPlan(
    on_demand_hourly=1.0, upfront=8.0, alpha=0.25, period_hours=PERIOD, name="prop"
)


@st.composite
def cases(draw):
    """Up to 3 reservations an hour; about one case in four also holds
    one to three batches of 4-30 under demand of up to 35, where sales
    within a batch shift the later instances' thresholds by two."""
    large = draw(st.integers(min_value=0, max_value=3)) == 0
    demands = draw(
        st.lists(
            st.integers(min_value=0, max_value=35 if large else 5),
            min_size=HORIZON,
            max_size=HORIZON,
        )
    )
    reservations = draw(
        st.lists(
            st.integers(min_value=0, max_value=3), min_size=HORIZON, max_size=HORIZON
        )
    )
    if large:
        batches = draw(
            st.lists(
                st.tuples(
                    st.integers(min_value=0, max_value=HORIZON - 1),
                    st.integers(min_value=4, max_value=30),
                ),
                min_size=1,
                max_size=3,
            )
        )
        for hour, size in batches:
            reservations[hour] = size
    return demands, reservations


def sale_pairs(sales):
    return sorted((sale.hour, sale.working_hours) for sale in sales)


@given(
    case=cases(),
    phi=st.sampled_from([0.25, 0.5, 0.75]),
    a=st.sampled_from([0.0, 0.5, 1.0]),
    fee_mode=st.sampled_from(list(HourlyFeeMode)),
)
@settings(max_examples=80, deadline=None)
def test_online_engines_agree(case, phi, a, fee_mode):
    demands, reservations = (np.array(case[0]), np.array(case[1]))
    model = CostModel(plan=PLAN, selling_discount=a, fee_mode=fee_mode)
    slow = run_policy(demands, reservations, model, OnlineSellingPolicy(phi))
    fast = run_fast(demands, reservations, model, phi=phi)
    assert slow.breakdown.approx_equal(fast.breakdown)
    assert slow.instances_sold == fast.instances_sold
    assert sale_pairs(slow.sales) == sale_pairs(fast.sales)


@given(case=cases(), phi=st.sampled_from([0.25, 0.5, 0.75]))
@settings(max_examples=40, deadline=None)
def test_benchmark_engines_agree(case, phi):
    demands, reservations = (np.array(case[0]), np.array(case[1]))
    model = CostModel(plan=PLAN, selling_discount=0.5)
    keep_slow = run_policy(demands, reservations, model, KeepReservedPolicy())
    keep_fast = run_fast(
        demands, reservations, model, kind=FastPolicyKind.KEEP_RESERVED
    )
    assert keep_slow.breakdown.approx_equal(keep_fast.breakdown)

    all_slow = run_policy(demands, reservations, model, AllSellingPolicy(phi))
    all_fast = run_fast(
        demands, reservations, model, phi=phi, kind=FastPolicyKind.ALL_SELLING
    )
    assert all_slow.breakdown.approx_equal(all_fast.breakdown)
    assert all_slow.instances_sold == all_fast.instances_sold
    assert sale_pairs(all_slow.sales) == sale_pairs(all_fast.sales)
