"""Bit-for-bit differential: the event walk of ``SellingSimulator.run``
and the one-pass booking of ``run_coupled`` against the hour-by-hour
loops of ``simulator_reference``.

Every case compares all five ``HourlyCosts`` series, ``on_demand`` (dtype
included), ``r_physical`` and the schedule by ``tobytes()``, and the sale
records and instances field by field, types included.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.account import CostModel, HourlyFeeMode
from repro.core.coupled import run_coupled
from repro.core.offline import offline_optimal_schedule
from repro.core.policies import (
    AllSellingPolicy,
    CancellationAwareSellingPolicy,
    KeepReservedPolicy,
    OnlineSellingPolicy,
    RandomizedSellingPolicy,
    ScriptedSellingPolicy,
)
from repro.core.simulator import run_policy
from repro.pricing.plan import PricingPlan
from repro.purchasing.stepper import AllReservedStepper, BreakEvenStepper
from tests.core.simulator_reference import literal_run_coupled, literal_run_policy

SERIES = ("on_demand", "upfront", "reserved_hourly", "sale_income", "rebuy")
FEE_MODES = (HourlyFeeMode.ACTIVE, HourlyFeeMode.USAGE)
MARKETPLACE_FEES = (0.0, 0.12)


def _same_bytes(new: np.ndarray, ref: np.ndarray, label: str) -> None:
    assert new.dtype == ref.dtype, label
    assert new.shape == ref.shape, label
    assert new.tobytes() == ref.tobytes(), label


def _fields(record: object) -> list:
    # repr tells -0.0 from 0.0 and np.float64 from float.
    return [(name, type(value), repr(value)) for name, value in vars(record).items()]


def assert_identical(new, ref) -> None:
    for name in SERIES:
        _same_bytes(getattr(new.costs, name), getattr(ref.costs, name), name)
    _same_bytes(new.on_demand, ref.on_demand, "on_demand")
    _same_bytes(new.r_physical, ref.r_physical, "r_physical")
    _same_bytes(new.reservations, ref.reservations, "reservations")
    assert new.policy_name == ref.policy_name
    assert (new.horizon, new.period) == (ref.horizon, ref.period)
    assert [_fields(sale) for sale in new.sales] == [
        _fields(sale) for sale in ref.sales
    ]
    assert [_fields(item) for item in new.instances] == [
        _fields(item) for item in ref.instances
    ]
    assert new.breakdown == ref.breakdown


def _model(rng: np.random.Generator, period: int, fee_mode, fee: float) -> CostModel:
    p = float(rng.choice([1.0, 0.69, 0.1234]))
    plan = PricingPlan(
        on_demand_hourly=p,
        upfront=float(rng.uniform(0.2, 0.6)) * p * period,
        alpha=float(rng.choice([0.0, 0.25, 0.37])),
        period_hours=period,
        name="differential",
    )
    return CostModel(
        plan=plan,
        selling_discount=float(rng.choice([0.5, 0.8, 1.0])),
        marketplace_fee=fee,
        fee_mode=fee_mode,
    )


def _case(seed: int):
    rng = np.random.default_rng(seed)
    horizon = int(rng.integers(8, 121))
    period = int(rng.choice([4, 8, 12, 24, 160]))  # 160 > every horizon
    busy = rng.random(horizon) < rng.uniform(0.2, 0.8)
    demands = np.where(busy, rng.integers(1, 7, horizon), 0)
    reserving = rng.random(horizon) < rng.uniform(0.05, 0.3)
    reservations = np.where(reserving, rng.integers(1, 5, horizon), 0)
    model = _model(rng, period, FEE_MODES[seed % 2], MARKETPLACE_FEES[(seed // 2) % 2])
    return demands, reservations, model


def _policies(demands, reservations, model, seed: int) -> list:
    opt = offline_optimal_schedule(demands, reservations, model, max_passes=3)
    return [
        KeepReservedPolicy(),
        OnlineSellingPolicy.a_3t4(),
        OnlineSellingPolicy.a_t2(),
        OnlineSellingPolicy.a_t4(),
        AllSellingPolicy(0.5),
        ScriptedSellingPolicy(opt, name="OPT"),
        RandomizedSellingPolicy(seed=seed),
    ]


@pytest.mark.parametrize("seed", range(48))
def test_run_policy_matches_the_hourly_loop(seed):
    demands, reservations, model = _case(seed)
    for policy in _policies(demands, reservations, model, seed):
        new = run_policy(demands, reservations, model, policy)
        ref = literal_run_policy(demands, reservations, model, policy)
        assert_identical(new, ref)


def _coupled_policies(phi: float) -> list:
    return [
        OnlineSellingPolicy(phi),
        CancellationAwareSellingPolicy(phi, penalty=0.0),
        CancellationAwareSellingPolicy(phi, penalty=0.25),
    ]


@pytest.mark.parametrize("seed", range(24))
def test_run_coupled_matches_the_hourly_loop(seed):
    demands, _, model = _case(seed)
    steppers = (
        AllReservedStepper,
        lambda: BreakEvenStepper(model.plan, threshold_fraction=0.3),
    )
    phi = (0.25, 0.5, 0.75)[seed % 3]
    for make_stepper in steppers:
        for policy in _coupled_policies(phi):
            new = run_coupled(demands, make_stepper(), model, policy)
            ref = literal_run_coupled(demands, make_stepper(), model, policy)
            assert_identical(new, ref)


def _toy_model(fee_mode=HourlyFeeMode.ACTIVE, fee=0.0, period=8) -> CostModel:
    plan = PricingPlan(
        on_demand_hourly=1.0, upfront=8.0, alpha=0.25, period_hours=period, name="toy"
    )
    return CostModel(
        plan=plan, selling_discount=0.5, marketplace_fee=fee, fee_mode=fee_mode
    )


ALL_POLICIES = (
    KeepReservedPolicy(),
    OnlineSellingPolicy.a_3t4(),
    OnlineSellingPolicy.a_t2(),
    OnlineSellingPolicy.a_t4(),
    AllSellingPolicy(0.25),
    RandomizedSellingPolicy(seed=5),
)

EDGE_SHAPES = {
    "no reservation": ([1, 3, 0, 2] * 4, [0] * 16, 8),
    "reservations only at H-1": ([2, 0, 1, 4] * 4, [0] * 15 + [3], 8),
    "T > H": ([1, 0, 2, 1, 0, 0, 3, 1, 0, 0], [2, 0, 1] + [0] * 7, 40),
    # spots at 16 (= H) and beyond: never evaluated
    "spots at or past the horizon": ([1] * 16, [0] * 12 + [1, 0, 2, 1], 16),
    # hour 4 reserves and decides the two hour-0 instances (A_{T/2})
    "reserve and decide in one hour": (
        [0, 1, 0, 0, 2, 0, 0, 0, 1, 1, 0, 0, 0, 0, 0, 0],
        [2, 0, 0, 0, 1, 0, 0, 0, 3, 0, 0, 0, 0, 0, 0, 0],
        8,
    ),
}


@pytest.mark.parametrize("shape", sorted(EDGE_SHAPES))
@pytest.mark.parametrize("fee_mode", FEE_MODES)
@pytest.mark.parametrize("fee", MARKETPLACE_FEES)
def test_edge_shapes_match_the_hourly_loop(shape, fee_mode, fee):
    demands, reservations, period = EDGE_SHAPES[shape]
    model = _toy_model(fee_mode, fee, period)
    opt = offline_optimal_schedule(demands, reservations, model)
    for policy in ALL_POLICIES + (ScriptedSellingPolicy(opt, name="OPT"),):
        new = run_policy(demands, reservations, model, policy)
        ref = literal_run_policy(demands, reservations, model, policy)
        assert_identical(new, ref)


def test_one_hour_with_a_reservation_and_several_decisions():
    model = _toy_model()
    demands = [0] * 16
    reservations = [3, 0, 0, 0, 2] + [0] * 11
    # Three instances decide at hour 4, the hour that reserves two more.
    policy = ScriptedSellingPolicy({0: 4, 1: 4, 2: 4, 3: 9}, name="scripted")
    new = run_policy(demands, reservations, model, policy)
    assert_identical(new, literal_run_policy(demands, reservations, model, policy))
    assert [(sale.instance_id, sale.hour) for sale in new.sales] == [
        (0, 4), (1, 4), (2, 4), (3, 9),
    ]


def test_scripted_hours_of_other_numeric_types():
    # np.int64(3) and 3.0 sell at hour 3; 3.5 falls between hours and is
    # never evaluated, as in the hourly loop.
    model = _toy_model()
    demands = [0] * 8
    reservations = [3] + [0] * 7
    policy = ScriptedSellingPolicy({0: np.int64(3), 1: 3.0, 2: 3.5})
    new = run_policy(demands, reservations, model, policy)
    assert_identical(new, literal_run_policy(demands, reservations, model, policy))
    assert [(sale.instance_id, sale.hour) for sale in new.sales] == [(0, 3), (1, 3)]
    assert all(type(sale.hour) is int for sale in new.sales)
    assert new.instances[2].sold_at is None
