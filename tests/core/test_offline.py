"""Unit tests for repro.core.offline (the OPT benchmark)."""

import functools

import numpy as np
import pytest

from repro.core.account import CostModel, HourlyFeeMode
from repro.core.instance import ReservedInstance
from repro.core.offline import (
    exhaustive_optimal_schedule,
    offline_decisions,
    offline_optimal_schedule,
    optimal_sale_hour,
    run_offline_optimal,
)
from repro.core.policies import KeepReservedPolicy, OnlineSellingPolicy
from repro.core.simulator import run_policy
from repro.errors import SimulationError

S1_DEMANDS = [1, 1, 0, 0, 1, 1, 1, 1] + [0] * 8
S1_RESERVATIONS = [1] + [0] * 15


class TestOptimalSaleHour:
    def test_s1_hand_computation(self, toy_model):
        # By hand: delta is minimised at age 2 (delta = -0.5).
        instance = ReservedInstance(instance_id=0, reserved_at=0, period=8)
        busy = np.array([1, 1, 0, 0, 1, 1, 1, 1], dtype=bool)
        hour, delta = optimal_sale_hour(busy, instance, 16, toy_model)
        assert hour == 2
        assert delta == pytest.approx(-0.5)

    def test_fully_busy_instance_is_kept(self, toy_model):
        instance = ReservedInstance(instance_id=0, reserved_at=0, period=8)
        hour, delta = optimal_sale_hour(np.ones(8, bool), instance, 16, toy_model)
        assert hour is None and delta == 0.0

    def test_fully_idle_instance_sells_immediately(self, toy_model):
        instance = ReservedInstance(instance_id=0, reserved_at=0, period=8)
        hour, _ = optimal_sale_hour(np.zeros(8, bool), instance, 16, toy_model)
        assert hour == 1  # the earliest allowed sale hour

    def test_min_age_restricts_candidates(self, toy_model):
        instance = ReservedInstance(instance_id=0, reserved_at=0, period=8)
        hour, _ = optimal_sale_hour(
            np.zeros(8, bool), instance, 16, toy_model, min_age=4
        )
        assert hour == 4

    def test_profile_shape_checked(self, toy_model):
        instance = ReservedInstance(instance_id=0, reserved_at=0, period=8)
        with pytest.raises(SimulationError):
            optimal_sale_hour(np.zeros(5, bool), instance, 16, toy_model)

    def test_min_age_validated(self, toy_model):
        instance = ReservedInstance(instance_id=0, reserved_at=0, period=8)
        with pytest.raises(SimulationError):
            optimal_sale_hour(np.zeros(8, bool), instance, 16, toy_model, min_age=0)

    def test_usage_mode_changes_decision(self, toy_plan):
        # An instance idle after hour 2: under usage billing the only
        # gain from selling is the income, under active billing also the
        # saved hourly fees.
        active = CostModel(plan=toy_plan, selling_discount=0.5)
        usage = CostModel(
            plan=toy_plan, selling_discount=0.5, fee_mode=HourlyFeeMode.USAGE
        )
        instance = ReservedInstance(instance_id=0, reserved_at=0, period=8)
        busy = np.array([1, 1, 0, 0, 0, 0, 0, 0], dtype=bool)
        _, delta_active = optimal_sale_hour(busy, instance, 16, active)
        _, delta_usage = optimal_sale_hour(busy, instance, 16, usage)
        assert delta_active < delta_usage < 0


class TestScheduleAndRun:
    def test_s1_schedule(self, toy_model):
        schedule = offline_optimal_schedule(S1_DEMANDS, S1_RESERVATIONS, toy_model)
        assert schedule == {0: 2}

    def test_s1_run_cost(self, toy_model):
        result = run_offline_optimal(S1_DEMANDS, S1_RESERVATIONS, toy_model)
        assert result.total_cost == pytest.approx(9.5)
        assert result.policy_name == "OPT"

    def test_opt_never_worse_than_keep_or_online(self, scaled_model, rng):
        demands = rng.integers(0, 6, size=192)
        reservations = np.where(
            rng.random(192) < 0.1, rng.integers(1, 3, size=192), 0
        )
        opt = run_offline_optimal(demands, reservations, scaled_model)
        keep = run_policy(demands, reservations, scaled_model, KeepReservedPolicy())
        online = run_policy(
            demands, reservations, scaled_model, OnlineSellingPolicy.a_t2()
        )
        assert opt.total_cost <= keep.total_cost + 1e-9
        assert opt.total_cost <= online.total_cost + 1e-9

    def test_more_passes_never_hurt(self, scaled_model, rng):
        demands = rng.integers(0, 6, size=192)
        reservations = np.where(
            rng.random(192) < 0.12, rng.integers(1, 3, size=192), 0
        )
        one_pass = run_offline_optimal(
            demands, reservations, scaled_model, max_passes=1
        )
        converged = run_offline_optimal(
            demands, reservations, scaled_model, max_passes=8
        )
        # Every coordinate-descent move strictly improves the true cost.
        assert converged.total_cost <= one_pass.total_cost + 1e-9

    def test_pool_slack_is_exploited(self, toy_model):
        # Two instances, demand 1: selling either one is free of any
        # on-demand penalty because the other can absorb the demand —
        # the isolated single-instance model would refuse to sell the
        # busy one. OPT must sell exactly one and keep the other.
        demands = [1] * 8 + [0] * 8
        reservations = [2] + [0] * 15
        schedule = offline_optimal_schedule(demands, reservations, toy_model)
        assert len(schedule) == 1
        assert set(schedule.values()) == {1}  # sold as early as allowed

    def test_mismatched_inputs(self, toy_model):
        with pytest.raises(SimulationError):
            offline_optimal_schedule([1, 2, 3], [0, 0], toy_model)


MALFORMED_COUNTS = {
    "fractional": [1.5] + [0] * 15,
    "negative": [-1] + [0] * 15,
    "nan": [float("nan")] + [0] * 15,
    "2-D": [S1_RESERVATIONS],
}
ENTRY_POINTS = {
    "offline_optimal_schedule": offline_optimal_schedule,
    "without_policy_starts": functools.partial(
        offline_optimal_schedule, policy_starts=False
    ),
    "run_offline_optimal": run_offline_optimal,
    "offline_decisions": offline_decisions,
    "exhaustive_optimal_schedule": exhaustive_optimal_schedule,
}


@pytest.mark.parametrize("counts", MALFORMED_COUNTS.values(), ids=MALFORMED_COUNTS)
@pytest.mark.parametrize("entry", ENTRY_POINTS.values(), ids=ENTRY_POINTS)
def test_malformed_reservation_counts_are_refused(entry, counts, toy_model):
    with pytest.raises(SimulationError):
        entry(S1_DEMANDS, counts, toy_model)


#: Counts that are not numbers at all, or not real integers: each once
#: escaped as a NumPy or Python error, or (complex) was accepted.
NOT_NUMBERS = {
    "strings": ["1"] + ["0"] * 15,
    "None": [None] * 16,
    "object 2**63": np.array([2**63] + [0] * 15, dtype=object),
    "complex": [1 + 0j] + [0] * 15,
}
WITH_RUN_POLICY = {
    **ENTRY_POINTS,
    "run_policy": lambda demands, counts, model: run_policy(
        demands, counts, model, KeepReservedPolicy()
    ),
}


@pytest.mark.parametrize("counts", NOT_NUMBERS.values(), ids=NOT_NUMBERS)
@pytest.mark.parametrize("entry", WITH_RUN_POLICY.values(), ids=WITH_RUN_POLICY)
def test_non_integer_reservation_counts_raise_typed_errors(entry, counts, toy_model):
    with pytest.raises(SimulationError, match="reservations"):
        entry(S1_DEMANDS, counts, toy_model)


def _sold_hour(model, **kwargs):
    instance = ReservedInstance(instance_id=0, reserved_at=0, period=8)
    busy = np.array(S1_DEMANDS[:8], dtype=bool)
    hour, _ = optimal_sale_hour(busy, instance, 16, model, **kwargs)
    return {} if hour is None else {0: hour}


def _run_sales(model, **kwargs):
    result = run_offline_optimal(S1_DEMANDS, S1_RESERVATIONS, model, **kwargs)
    return {sale.instance_id: sale.hour for sale in result.sales}


#: Each OPT entry point on the S1 fleet, as the sales it makes.
OPT_SALES = {
    "optimal_sale_hour": _sold_hour,
    "offline_optimal_schedule": lambda model, **kwargs: offline_optimal_schedule(
        S1_DEMANDS, S1_RESERVATIONS, model, **kwargs
    ),
    "run_offline_optimal": _run_sales,
    "exhaustive_optimal_schedule": lambda model, **kwargs: exhaustive_optimal_schedule(
        S1_DEMANDS, S1_RESERVATIONS, model, **kwargs
    )[0],
    "offline_decisions": lambda model, **kwargs: {
        d.instance_id: d.sell_hour
        for d in offline_decisions(S1_DEMANDS, S1_RESERVATIONS, model, **kwargs)
        if d.sell_hour is not None
    },
}
WITH_PASSES = ("offline_optimal_schedule", "run_offline_optimal")
NOT_COUNTS = [1.5, float("nan"), True, False, "3", None, 0, -2, np.float64(2.0)]


@pytest.mark.parametrize("value", NOT_COUNTS, ids=repr)
@pytest.mark.parametrize("name", OPT_SALES)
def test_opt_counts_are_python_or_numpy_integers(name, value, toy_model):
    arguments = ["min_age"] + (["max_passes"] if name in WITH_PASSES else [])
    for argument in arguments:
        with pytest.raises(SimulationError, match=argument):
            OPT_SALES[name](toy_model, **{argument: value})


@pytest.mark.parametrize("name", OPT_SALES)
def test_opt_counts_take_any_integer_size(name, toy_model):
    sales = OPT_SALES[name]
    assert sales(toy_model) == {0: 2}
    assert sales(toy_model, min_age=np.int64(1)) == {0: 2}
    assert sales(toy_model, min_age=np.uint8(3)) == sales(toy_model, min_age=3)
    # No instance is older than its period: every one is kept.
    assert sales(toy_model, min_age=8) == {}
    assert sales(toy_model, min_age=10**30) == {}
    if name in WITH_PASSES:
        assert sales(toy_model, max_passes=np.int32(1)) == {0: 2}
        assert sales(toy_model, max_passes=10**30) == {0: 2}


class TestDecisions:
    def test_decision_list_covers_all_instances(self, toy_model):
        decisions = offline_decisions(S1_DEMANDS, S1_RESERVATIONS, toy_model)
        assert len(decisions) == 1
        assert decisions[0].instance_id == 0
        assert decisions[0].sell_hour == 2
        assert decisions[0].cost_delta == pytest.approx(-0.5)

    def test_kept_instances_have_zero_delta(self, toy_model):
        decisions = offline_decisions([1] * 16, [1] + [0] * 15, toy_model)
        assert decisions[0].sell_hour is None
        assert decisions[0].cost_delta == 0.0
