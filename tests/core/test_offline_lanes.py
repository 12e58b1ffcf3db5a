"""The lane solver against the sequential multi-start descent.

``offline_optimal_schedule`` runs all of OPT's starts as lockstep lanes;
``tests.core.offline_reference`` runs them one after another. Every
lane must end on its start's sequential schedule at the same cost to
the bit, the chosen schedule must be identical, and the accounted OPT
run equal to the bit, over random fleets, both hourly-fee modes, three
``min_age`` values and two pass limits. A second corpus of big batches
drives the runs a lane places without scoring them.
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
N_BIG_FLEETS = 30
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


def big_batch_fleet(seed: int) -> "tuple[np.ndarray, np.ndarray, list[dict[int, int]]]":
    """Demands, reservations and one extra start of a fleet with one
    batch of 20 to 200 instances (more the higher the seed), and every
    fifth fleet a second batch of 20.

    Demand follows a fraction of the kept timeline within ±3, so as a
    lane sells and keeps instances its restored window comes within 1-3
    above the demand and 0-2 below it between a choice and the stops
    of the batch's next instances: the room of a run
    (``offline._room``) runs out in both directions. The online seeds
    sell part of a batch at its spot and keep the rest. The extra start
    mixes sales with entries the solver must drop.
    """
    rng = np.random.default_rng(1000 + seed)
    horizon = int(rng.integers(PERIOD + 4, 2 * PERIOD))
    hours = rng.choice(horizon - 2, size=1 + (seed % 5 == 0), replace=False)
    reservations = np.zeros(horizon, dtype=np.int64)
    reservations[hours] = 20
    reservations[hours[0]] = round(20 * 10 ** ((seed / (N_BIG_FLEETS - 1)) ** 4))
    starts = np.repeat(np.arange(horizon), reservations)
    kept = offline._timeline(starts, np.minimum(starts + PERIOD, horizon), horizon)
    level = np.rint(kept * rng.uniform(0.2, 0.9)).astype(np.int64)
    demands = np.maximum(level + rng.integers(-3, 4, size=horizon), 0)
    demands *= rng.random(horizon) < 0.85
    n = starts.size
    extra = {int(i): int(rng.integers(s, min(s + PERIOD, horizon) + 1))
             for i, s in enumerate(starts) if rng.random() < 0.3}
    extra.update({-1: 2, n: 3, 0: int(starts[0]), 1: horizon + 3})
    return demands, reservations, [extra]


def costed_lanes(monkeypatch) -> "list[tuple[dict[int, int], float]]":
    """Each lane's schedule and cost, in the order the solver costs them
    (once each, in lane order, to pick the best)."""
    lanes: "list[tuple[dict[int, int], float]]" = []

    def costed(demands, starts, ends, stops, model):
        cost = schedule_cost(demands, starts, ends, stops, model)
        sales = zip(stops.tolist(), ends.tolist())
        lanes.append(({i: h for i, (h, end) in enumerate(sales) if h < end}, cost))
        return cost

    schedule_cost = offline._schedule_cost
    monkeypatch.setattr(offline, "_schedule_cost", costed)
    return lanes


def check_lanes(lanes, label, demands, reservations, model, **kwargs):
    """The solver's lanes and choice against the sequential descents."""
    lanes.clear()
    got = offline_optimal_schedule(demands, reservations, model, **kwargs)
    descents = sequential_descents(demands, reservations, model, **kwargs)
    assert lanes == descents, label
    assert got == best_descent(descents), label
    return got, descents


@pytest.mark.parametrize("max_passes", [1, 8])
@pytest.mark.parametrize("min_age", [1, 2, PERIOD // 2])
@pytest.mark.parametrize("fee_mode", list(HourlyFeeMode))
def test_lanes_match_the_sequential_descent(fee_mode, min_age, max_passes, monkeypatch):
    lanes = costed_lanes(monkeypatch)
    for seed in range(N_FLEETS):
        demands, reservations, extra_starts = random_fleet(seed)
        model = CostModel(
            plan=PLAN, selling_discount=(0.4, 0.9)[seed % 2], fee_mode=fee_mode
        )
        kwargs = dict(min_age=min_age, max_passes=max_passes)
        _, descents = check_lanes(
            lanes, f"fleet {seed}", demands, reservations, model,
            extra_starts=extra_starts, **kwargs,
        )

        # The extra starts are the last lanes; without them the sequential
        # descent picks among the others.
        expected = best_descent(descents[: -len(extra_starts)])
        reference = run_policy(
            demands, reservations, model, ScriptedSellingPolicy(expected, name=POLICY_OPT)
        )
        result = run_offline_optimal(demands, reservations, model, **kwargs)
        assert result.total_cost == reference.total_cost, f"fleet {seed}"
        assert result.instances_sold == reference.instances_sold, f"fleet {seed}"


@pytest.mark.parametrize("max_passes", [1, 8])
@pytest.mark.parametrize("min_age", [1, 2, PERIOD // 2])
@pytest.mark.parametrize("fee_mode", list(HourlyFeeMode))
def test_big_batch_lanes_match_the_sequential_descent(
    fee_mode, min_age, max_passes, monkeypatch
):
    lanes = costed_lanes(monkeypatch)
    for seed in range(N_BIG_FLEETS):
        demands, reservations, extra_starts = big_batch_fleet(seed)
        model = CostModel(
            plan=PLAN, selling_discount=(0.4, 0.9)[seed % 2], fee_mode=fee_mode
        )
        check_lanes(
            lanes, f"fleet {seed}", demands, reservations, model,
            extra_starts=extra_starts, min_age=min_age, max_passes=max_passes,
        )


# One batch of 500 instances over two periods of four weeks.
BATCH_MODEL = CostModel(
    plan=PricingPlan(
        on_demand_hourly=1.0, upfront=400.0, alpha=0.25, period_hours=672, name="batch"
    ),
    selling_discount=0.8,
)
BATCH = np.zeros(2 * 672, dtype=np.int64)
BATCH[0] = 500


def scoring_steps(monkeypatch) -> "list[int]":
    """Lanes scored per step, one entry per call of the solver's
    scoring kernel."""
    steps: "list[int]" = []

    def counted(spill, fixed, model, min_age):
        steps.append(spill.shape[0])
        return best_sale_ages(spill, fixed, model, min_age)

    best_sale_ages = offline._best_sale_ages
    monkeypatch.setattr(offline, "_best_sale_ages", counted)
    return steps


def test_a_batch_selling_at_one_hour_is_placed_in_a_few_steps(monkeypatch):
    # OPT sells all 500 instances at hour 100. Scored one instance at a
    # time that takes 501 steps; a lane places the rest of the batch
    # with the instance it scores.
    lanes = costed_lanes(monkeypatch)
    steps = scoring_steps(monkeypatch)
    demands = np.where(np.arange(BATCH.size) < 100, 500, 0)
    got, _ = check_lanes(lanes, "flat", demands, BATCH, BATCH_MODEL)
    assert got == {i: 100 for i in range(500)}
    assert len(steps) <= 10


def test_a_staircase_batch_is_scored_instance_by_instance(monkeypatch):
    # Demand falls one unit every two hours, so every sold instance
    # sells at its own hour: no run is placed, and each lane's schedule
    # is still the sequential descent's.
    lanes = costed_lanes(monkeypatch)
    demands = np.maximum(500 - np.arange(BATCH.size) // 2, 0)
    got, _ = check_lanes(lanes, "staircase", demands, BATCH, BATCH_MODEL)
    assert len(set(got.values())) == len(got) > 300
