"""``run_fast`` against the pseudocode-literal loop.

``run_fast`` decides each batch from one sorted slack vector and
rewrites history once per batch; ``tests.core.fastsim_reference`` visits
every hour and rescans the window once per instance. Every
:class:`FastResult` field must be equal with ``==`` — the breakdown,
each sale (with its batch index and working hours), the on-demand and
physical timelines, the listings and the re-buys — over seeded cases
that mix batches of 1–60 instances, every policy kind, decision spots
that round to 0 and to T, threshold scales up to 1e308, every clearing
regime, cancellation, both hourly-fee modes and a marketplace fee.
"""

import dataclasses

import numpy as np
import pytest

from repro.core.account import CostModel, HourlyFeeMode
from repro.core.cancellation import CancellationModel
from repro.core.clearing import ClearingModel
from repro.core.fastsim import FastPolicyKind, FastResult, run_fast
from repro.pricing.plan import PricingPlan
from tests.core.fastsim_reference import literal_run_fast

N_CASES = 320
KINDS = tuple(FastPolicyKind)
#: "zero" and "full" stand for a φ whose round(φT) is 0 and one where it
#: is T (resolved per case, since T varies).
PHIS = (0.25, 0.5, 0.75, "zero", "full")
SCALES = (0.0, 0.5, 1.0, 2.0, 1e308)
CLEARING = (None, "instant", "normal", "thin")
MAX_BATCHES = (1, 2, 4, 12, 30, 60)


def make_case(seed: int) -> "tuple[np.ndarray, np.ndarray, CostModel, dict]":
    """Demands, reservations, cost model and ``run_fast`` keywords of one
    seeded case.

    Demand is drawn either around the batch size or just below the
    active reservation count, so a large batch's slack straddles the
    shifted thresholds and the batch partly sells. About one case in
    eight holds a single batch of exactly the case's largest size, and
    ONLINE, the only kind that can stop partway through a batch, is
    drawn three times as often as each of the others.
    """
    rng = np.random.default_rng(seed)
    period = int(rng.integers(4, 25))
    horizon = int(rng.integers(period // 2 + 1, 3 * period + 1))
    max_batch = int(rng.choice(MAX_BATCHES))
    if rng.random() < 0.125:
        reservations = np.zeros(horizon, dtype=np.int64)
        reservations[int(rng.integers(0, horizon))] = max_batch
    else:
        reservations = np.where(
            rng.random(horizon) < rng.uniform(0.05, 0.4),
            rng.integers(1, max_batch + 1, size=horizon),
            0,
        )
    if rng.random() < 0.5:
        demands = rng.integers(0, int(max_batch * rng.uniform(0.5, 2.0)) + 3, size=horizon)
    else:
        # A random 0..2·max_batch below the active count: the slack then
        # spreads over the shifted thresholds 2(i − 1).
        prefix = np.concatenate(([0], np.cumsum(reservations)))
        hours = np.arange(1, horizon + 1)
        active = prefix[hours] - prefix[np.maximum(hours - period, 0)]
        demands = np.maximum(active - rng.integers(0, 2 * max_batch + 1, size=horizon), 0)
    plan = PricingPlan(
        on_demand_hourly=1.0,
        upfront=float(rng.uniform(0.2, 1.5)) * period,
        alpha=0.25,
        period_hours=period,
        name="batches",
    )
    model = CostModel(
        plan=plan,
        selling_discount=float(rng.choice([0.5, 0.8, 1.0])),
        marketplace_fee=float(rng.choice([0.0, 0.12])),
        fee_mode=HourlyFeeMode(rng.choice([mode.value for mode in HourlyFeeMode])),
    )
    phi = PHIS[int(rng.integers(len(PHIS)))]
    if phi == "zero":
        phi = 0.4 / period
    elif phi == "full":
        phi = 1.0 - 0.4 / period
    regime = CLEARING[int(rng.integers(len(CLEARING)))]
    kwargs = dict(
        phi=phi,
        kind=KINDS[int(rng.choice(len(KINDS), p=(0.6, 0.2, 0.2)))],
        threshold_scale=SCALES[int(rng.integers(len(SCALES)))],
        clearing=None if regime is None else ClearingModel.for_regime(regime, seed=seed),
        clearing_key=seed,
        cancellation=(
            CancellationModel(penalty=0.25, trigger_hours=int(rng.integers(1, 4)))
            if rng.random() < 0.5
            else None
        ),
    )
    return demands, reservations, model, kwargs


def assert_same_result(fast: FastResult, literal: FastResult) -> None:
    for field in dataclasses.fields(FastResult):
        got, want = getattr(fast, field.name), getattr(literal, field.name)
        if isinstance(want, np.ndarray):
            assert got.dtype == want.dtype, field.name
            assert got.shape == want.shape, field.name
            assert bool((got == want).all()), field.name
        else:
            assert got == want, (field.name, got, want)


@pytest.mark.parametrize("seed", range(N_CASES))
def test_run_fast_equals_the_literal_loop(seed):
    demands, reservations, model, kwargs = make_case(seed)
    assert_same_result(
        run_fast(demands, reservations, model, **kwargs),
        literal_run_fast(demands, reservations, model, **kwargs),
    )


def test_cases_cover_every_axis():
    """The seeded cases reach every value of every axis, and enough
    large batches partly sell that a wrong threshold shift shows."""
    seen: "dict[str, set]" = {
        name: set()
        for name in (
            "kind", "phi", "scale", "clearing", "cancellation", "fee_mode",
            "marketplace_fee", "max_batch",
        )
    }
    partial_large_batches = 0
    for seed in range(N_CASES):
        demands, reservations, model, kwargs = make_case(seed)
        decision_age = round(kwargs["phi"] * model.period)
        seen["kind"].add(kwargs["kind"])
        seen["phi"].add(
            "zero" if decision_age == 0
            else "full" if decision_age == model.period
            else kwargs["phi"]
        )
        seen["scale"].add(kwargs["threshold_scale"])
        clearing = kwargs["clearing"]
        seen["clearing"].add(None if clearing is None else clearing.liquidity)
        seen["cancellation"].add(kwargs["cancellation"] is not None)
        seen["fee_mode"].add(model.fee_mode)
        seen["marketplace_fee"].add(model.marketplace_fee)
        seen["max_batch"].add(int(reservations.max(initial=0)))
        result = literal_run_fast(demands, reservations, model, **kwargs)
        sold_per_batch: "dict[int, int]" = {}
        for sale in result.sales:
            sold_per_batch[sale.reserved_at] = sold_per_batch.get(sale.reserved_at, 0) + 1
        partial_large_batches += sum(
            1
            for t0, sold in sold_per_batch.items()
            if reservations[t0] >= 10 and 2 <= sold < reservations[t0]
        )
    assert seen["kind"] == set(KINDS)
    assert seen["phi"] == {0.25, 0.5, 0.75, "zero", "full"}
    assert seen["scale"] == set(SCALES)
    assert seen["clearing"] == {None, "instant", "normal", "thin"}
    assert seen["cancellation"] == {False, True}
    assert seen["fee_mode"] == set(HourlyFeeMode)
    assert seen["marketplace_fee"] == {0.0, 0.12}
    assert {1, 60} <= seen["max_batch"]
    assert partial_large_batches >= 20
