"""The lane solver against the sequential multi-start descent.

``offline_optimal_schedule`` runs all of OPT's starts as lockstep lanes;
``tests.core.offline_reference`` runs them one after another. Every
lane must end on its start's sequential schedule at the same cost to
the bit, the chosen schedule must be identical, and the accounted OPT
run equal to the bit, over random fleets, both hourly-fee modes, three
``min_age`` values and two pass limits.
"""

import numpy as np
import pytest

import repro.core.offline as offline
from repro.core.account import CostModel, HourlyFeeMode
from repro.core.offline import offline_optimal_schedule, run_offline_optimal
from repro.core.policies import POLICY_OPT, ScriptedSellingPolicy
from repro.core.simulator import run_policy
from repro.pricing.plan import PricingPlan
from tests.core.offline_reference import best_descent, sequential_descents

PERIOD = 16
N_FLEETS = 100
PLAN = PricingPlan(
    on_demand_hourly=1.0, upfront=9.0, alpha=0.25, period_hours=PERIOD, name="lanes"
)


def random_fleet(seed: int) -> "tuple[np.ndarray, np.ndarray, list[dict[int, int]]]":
    """Demands, reservations and extra starts of one seeded fleet.

    Fleet 0 holds no reservation. Fleet 2 holds two instances whose
    spans end together at the horizon, under a demand both always use:
    kept, the elder does not pay to sell, and the younger, with more of
    its term left to sell, does. Every fourth fleet reserves only in the
    last period, so all its spans end at the horizon; the rest reserve
    anywhere, so about half of them have clipped spans too.
    """
    rng = np.random.default_rng(seed)
    horizon = int(rng.integers(PERIOD + 4, 3 * PERIOD))
    demands = rng.integers(0, 4, size=horizon) * (rng.random(horizon) < 0.7)
    reservations = np.zeros(horizon, dtype=np.int64)
    if seed == 2:
        horizon = PERIOD + 4
        demands = np.repeat([0, 2], [4, PERIOD])
        reservations = np.zeros(horizon, dtype=np.int64)
        reservations[[4, 10]] = 1
    elif seed != 0:
        lowest = horizon - PERIOD + 1 if seed % 4 == 1 else 0
        hours = rng.integers(lowest, horizon, size=int(rng.integers(1, 6)))
        np.add.at(reservations, hours, rng.integers(1, 4, size=hours.size))
    starts = np.repeat(np.arange(horizon), reservations)
    n = starts.size
    extra = {int(i): int(rng.integers(s, min(s + PERIOD, horizon) + 1))
             for i, s in enumerate(starts) if rng.random() < 0.6}
    # Entries outside the fleet or outside the instance's span, which
    # the solver must drop: a negative id, ids past the last instance,
    # a sale before min_age allows, at the span's end, past the horizon.
    junk = {-1: 2, n: 3, n + 5: 0}
    if n:
        junk[0] = int(starts[0])
        junk[n - 1] = int(min(starts[n - 1] + PERIOD, horizon))
    if n > 1:
        junk[1] = horizon + 3
    return demands, reservations, [extra, junk]


@pytest.mark.parametrize("max_passes", [1, 8])
@pytest.mark.parametrize("min_age", [1, 2, PERIOD // 2])
@pytest.mark.parametrize("fee_mode", list(HourlyFeeMode))
def test_lanes_match_the_sequential_descent(fee_mode, min_age, max_passes, monkeypatch):
    # The solver costs each lane once, in lane order, to pick the best.
    lanes: "list[tuple[dict[int, int], float]]" = []

    def costed(demands, starts, ends, stops, model):
        cost = schedule_cost(demands, starts, ends, stops, model)
        sales = zip(stops.tolist(), ends.tolist())
        lanes.append(({i: h for i, (h, end) in enumerate(sales) if h < end}, cost))
        return cost

    schedule_cost = offline._schedule_cost
    monkeypatch.setattr(offline, "_schedule_cost", costed)
    for seed in range(N_FLEETS):
        demands, reservations, extra_starts = random_fleet(seed)
        model = CostModel(
            plan=PLAN, selling_discount=(0.4, 0.9)[seed % 2], fee_mode=fee_mode
        )
        kwargs = dict(min_age=min_age, max_passes=max_passes)
        lanes.clear()
        got = offline_optimal_schedule(
            demands, reservations, model, extra_starts=extra_starts, **kwargs
        )
        descents = sequential_descents(
            demands, reservations, model, extra_starts=extra_starts, **kwargs
        )
        assert lanes == descents, f"fleet {seed}"
        assert got == best_descent(descents), f"fleet {seed}"

        # The extra starts are the last lanes; without them the sequential
        # descent picks among the others.
        expected = best_descent(descents[: -len(extra_starts)])
        reference = run_policy(
            demands, reservations, model, ScriptedSellingPolicy(expected, name=POLICY_OPT)
        )
        result = run_offline_optimal(demands, reservations, model, **kwargs)
        assert result.total_cost == reference.total_cost, f"fleet {seed}"
        assert result.instances_sold == reference.instances_sold, f"fleet {seed}"
