"""Clearing-engine tests: the instant degenerate limit must reproduce
today's instant-sale outputs bit-identically in both engines, and the
vectorised population path must match the per-user path draw for draw
in every liquidity regime."""

import math

import numpy as np
import pytest

from repro.core.account import CostModel, HourlyFeeMode
from repro.core.clearing import (
    LIQUIDITY_REGIMES,
    ClearingModel,
    DiscountSchedule,
)
from repro.core.fastsim import FastPolicyKind, run_fast
from repro.core.popsim import PopulationResult, run_population
from repro.errors import SimulationError
from repro.pricing.plan import PricingPlan

N_SEEDS = 40
PHIS = (0.25, 0.5, 0.75)
HORIZON = 160
PERIOD = 64


def build_model(**overrides):
    plan = PricingPlan(
        on_demand_hourly=0.6,
        upfront=100.0,
        alpha=0.25,
        period_hours=PERIOD,
        name="clearing-test",
    )
    defaults = dict(plan=plan, selling_discount=0.8)
    defaults.update(overrides)
    return CostModel(**defaults)


def random_population(n_users, horizon=HORIZON, start_seed=0):
    demand_rows, reservation_rows = [], []
    for seed in range(start_seed, start_seed + n_users):
        rng = np.random.default_rng(seed)
        demand_rows.append(rng.integers(0, 6, size=horizon))
        reservation_rows.append(
            np.where(
                rng.random(horizon) < 0.15, rng.integers(1, 4, size=horizon), 0
            )
        )
    return np.stack(demand_rows), np.stack(reservation_rows)


class TestInstantLimit:
    """hazard → instant-clear reproduces today's outputs bit-identically
    (the satellite's ≥40 seeds × 3 φ × 3 policy kinds gate)."""

    def test_run_fast_instant_limit_bit_identical(self):
        model = build_model()
        demands, reservations = random_population(N_SEEDS)
        for user in range(N_SEEDS):
            clearing = ClearingModel.instant(seed=user)
            for phi in PHIS:
                for kind in FastPolicyKind:
                    plain = run_fast(demands[user], reservations[user], model, phi, kind)
                    listed = run_fast(
                        demands[user],
                        reservations[user],
                        model,
                        phi,
                        kind,
                        clearing=clearing,
                        clearing_key=f"user-{user}",
                    )
                    context = (user, phi, kind)
                    assert listed.breakdown == plain.breakdown, context
                    assert listed.sales == plain.sales, context
                    assert np.array_equal(listed.on_demand, plain.on_demand), context
                    assert np.array_equal(listed.r_physical, plain.r_physical), context
                    # Every instant listing clears at its decision hour.
                    assert listed.instances_cleared == plain.instances_sold, context
                    assert listed.listings_expired == 0, context
                    assert all(l.delay == 0 for l in listed.listings), context

    def test_run_population_instant_limit_bit_identical(self):
        model = build_model()
        demands, reservations = random_population(N_SEEDS)
        clearing = ClearingModel.instant(seed=3)
        for phi in PHIS:
            for kind in FastPolicyKind:
                plain = run_population(demands, reservations, model, phi, kind)
                listed = run_population(
                    demands, reservations, model, phi, kind, clearing=clearing
                )
                context = (phi, kind)
                assert np.array_equal(listed.on_demand, plain.on_demand), context
                assert np.array_equal(listed.upfront, plain.upfront), context
                assert np.array_equal(
                    listed.reserved_hourly, plain.reserved_hourly
                ), context
                assert np.array_equal(listed.sale_income, plain.sale_income), context
                assert np.array_equal(
                    listed.instances_sold, plain.instances_sold
                ), context
                assert np.array_equal(
                    listed.instances_cleared, plain.instances_sold
                ), context
                assert not listed.listings_expired.any(), context
                assert not listed.listings_open.any(), context


class TestEngineDifferential:
    """Population clearing must equal per-user run_fast clearing exactly
    — same streams, same delays, same floats."""

    @pytest.mark.parametrize("regime", sorted(LIQUIDITY_REGIMES))
    def test_regimes_match_run_fast(self, regime):
        model = build_model(marketplace_fee=0.05)
        demands, reservations = random_population(24)
        keys = [f"user-{u}" for u in range(demands.shape[0])]
        clearing = ClearingModel(liquidity=regime, seed=11)
        for phi in PHIS:
            for kind in FastPolicyKind:
                result = run_population(
                    demands,
                    reservations,
                    model,
                    phi,
                    kind,
                    clearing=clearing,
                    clearing_keys=keys,
                )
                for user in range(demands.shape[0]):
                    fast = run_fast(
                        demands[user],
                        reservations[user],
                        model,
                        phi,
                        kind,
                        clearing=clearing,
                        clearing_key=keys[user],
                    )
                    breakdown = result.breakdown(user)
                    context = (regime, phi, kind, user)
                    assert breakdown.on_demand == fast.breakdown.on_demand, context
                    assert breakdown.sale_income == fast.breakdown.sale_income, context
                    assert (
                        breakdown.reserved_hourly == fast.breakdown.reserved_hourly
                    ), context
                    assert int(result.instances_sold[user]) == fast.instances_sold, context
                    assert (
                        int(result.instances_cleared[user]) == fast.instances_cleared
                    ), context
                    assert (
                        int(result.listings_expired[user]) == fast.listings_expired
                    ), context
                    assert int(result.listings_open[user]) == fast.listings_open, context

    def test_usage_fee_mode_matches(self):
        model = build_model(fee_mode=HourlyFeeMode.USAGE)
        demands, reservations = random_population(8)
        clearing = ClearingModel(liquidity="thin", seed=2)
        result = run_population(demands, reservations, model, 0.75, clearing=clearing)
        for user in range(demands.shape[0]):
            fast = run_fast(
                demands[user], reservations[user], model, 0.75,
                clearing=clearing, clearing_key=user,
            )
            assert result.breakdown(user) == fast.breakdown

    @pytest.mark.parametrize("block", [1, 7])
    def test_block_split_with_stable_keys_matches_whole_run(self, block):
        """Splitting a population into blocks must not shift streams as
        long as the caller passes stable per-user keys (blocks of 1 run
        the per-batch loop, the whole runs the rounds)."""
        model = build_model()
        demands, reservations = random_population(20)
        keys = [f"user-{u}" for u in range(20)]
        clearing = ClearingModel(liquidity="normal", seed=5)
        whole = run_population(
            demands, reservations, model, 0.5, clearing=clearing, clearing_keys=keys
        )
        parts = [
            run_population(
                demands[lo : lo + block],
                reservations[lo : lo + block],
                model,
                0.5,
                clearing=clearing,
                clearing_keys=keys[lo : lo + block],
            )
            for lo in range(0, 20, block)
        ]
        stitched = PopulationResult.concatenate(parts)
        assert np.array_equal(stitched.sale_income, whole.sale_income)
        assert np.array_equal(stitched.instances_cleared, whole.instances_cleared)
        assert np.array_equal(stitched.listings_open, whole.listings_open)


class TestClearingSemantics:
    def test_expired_listings_keep_serving_and_pay(self):
        """A frozen market books (almost) no income but also sells no
        capacity: costs revert toward Keep-Reserved."""
        model = build_model()
        demands, reservations = random_population(10)
        frozen = run_population(
            demands,
            reservations,
            model,
            0.75,
            clearing=ClearingModel(liquidity="frozen", base_hazard=0.0001, seed=9),
        )
        keep = run_population(
            demands, reservations, model, 0.75, kind=FastPolicyKind.KEEP_RESERVED
        )
        # Decisions still happen (sold counts > 0 somewhere), but with
        # essentially nothing clearing the physical costs equal Keep's.
        assert frozen.instances_sold.sum() > 0
        if not frozen.instances_cleared.any():
            assert np.array_equal(frozen.on_demand, keep.on_demand)
            assert np.array_equal(frozen.reserved_hourly, keep.reserved_hourly)
            assert not frozen.sale_income.any()

    def test_income_never_exceeds_instant_income_per_listing(self):
        """Clearing later always nets less per unit: smaller remaining
        fraction at the same (fixed) discount."""
        model = build_model()
        demands, reservations = random_population(6)
        clearing = ClearingModel(liquidity="deep", seed=4)
        decision_age = round(0.75 * PERIOD)
        per_sale = model.sale_income(1.0 - decision_age / PERIOD)
        for user in range(6):
            fast = run_fast(
                demands[user], reservations[user], model, 0.75,
                clearing=clearing, clearing_key=user,
            )
            for listing in fast.listings:
                assert listing.income <= per_sale + 1e-12
                if listing.outcome != "cleared":
                    assert listing.income == 0.0

    def test_max_open_hours_caps_the_window(self):
        model = build_model()
        demands, reservations = random_population(6)
        capped = ClearingModel(
            liquidity="frozen", base_hazard=0.001, max_open_hours=2, seed=1
        )
        for user in range(6):
            fast = run_fast(
                demands[user], reservations[user], model, 0.5,
                clearing=capped, clearing_key=user,
            )
            for listing in fast.listings:
                if listing.outcome == "cleared":
                    assert listing.delay <= 2

    def test_adaptive_schedule_draws_clear_faster_than_fixed(self):
        """Decaying the ask raises the hazard, so the adaptive schedule
        stochastically dominates fixed on clear counts."""
        model = build_model()
        demands, reservations = random_population(20)
        fixed = run_population(
            demands, reservations, model, 0.5,
            clearing=ClearingModel(liquidity="thin", seed=6),
        )
        adaptive = run_population(
            demands, reservations, model, 0.5,
            clearing=ClearingModel(
                liquidity="thin",
                seed=6,
                schedule=DiscountSchedule(
                    kind="adaptive",
                    start_discount=0.8,
                    floor_discount=0.3,
                    decay_per_day=0.25,
                ),
            ),
        )
        assert adaptive.instances_cleared.sum() >= fixed.instances_cleared.sum()


class TestValidation:
    """The satellite's typed-SimulationError hardening."""

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(liquidity="nope"),
            dict(base_hazard=0.0),
            dict(base_hazard=-0.1),
            dict(base_hazard=float("nan")),
            dict(base_hazard=float("inf")),
            dict(base_hazard=1.5),
            dict(sensitivity=-1.0),
            dict(sensitivity=float("nan")),
            dict(max_open_hours=2.5),
            dict(max_open_hours=-3),
            dict(max_open_hours=True),
            dict(seed=-1),
            dict(seed=1.5),
        ],
    )
    def test_bad_model_rejected(self, kwargs):
        with pytest.raises(SimulationError):
            ClearingModel(**kwargs)

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(kind="unknown"),
            dict(kind="adaptive"),  # needs start_discount
            dict(kind="adaptive", start_discount=1.2),
            dict(kind="adaptive", start_discount=0.9, decay_per_day=1.0),
            dict(kind="adaptive", start_discount=0.9, decay_per_day=float("nan")),
            dict(kind="ladder"),
            dict(kind="ladder", ladder=(0.9, 1.1)),
            dict(kind="ladder", ladder=(0.9, 0.7), step_hours=0),
            dict(kind="ladder", ladder=(0.9, 0.7), step_hours=3.5),
            dict(start_discount=float("inf")),
            dict(floor_discount=-0.2),
        ],
    )
    def test_bad_schedule_rejected(self, kwargs):
        with pytest.raises(SimulationError):
            DiscountSchedule(**kwargs)

    def test_bad_stream_keys_rejected(self):
        clearing = ClearingModel()
        with pytest.raises(SimulationError):
            clearing.stream(-1)
        with pytest.raises(SimulationError):
            clearing.stream(True)
        with pytest.raises(SimulationError):
            clearing.stream(3.5)

    def test_mismatched_clearing_keys_rejected(self):
        model = build_model()
        demands, reservations = random_population(4)
        with pytest.raises(SimulationError):
            run_population(
                demands, reservations, model, 0.5,
                clearing=ClearingModel(), clearing_keys=["a", "b"],
            )

    def test_non_model_clearing_rejected(self):
        model = build_model()
        demands, reservations = random_population(1)
        with pytest.raises(SimulationError):
            run_fast(demands[0], reservations[0], model, 0.5, clearing="normal")


class TestStreamsAndPayload:
    def test_string_keys_are_process_stable(self):
        """String keys hash through SHA-256, not Python's randomised
        hash — the same key must yield the same draws everywhere."""
        clearing = ClearingModel(seed=42)
        first = clearing.stream("user-7").random(4)
        second = clearing.stream("user-7").random(4)
        other = clearing.stream("user-8").random(4)
        assert np.array_equal(first, second)
        assert not np.array_equal(first, other)

    def test_vector_draws_match_scalar_draws(self):
        clearing = ClearingModel(seed=0)
        vector = clearing.stream(5).random(8)
        stream = clearing.stream(5)
        scalars = np.array([stream.random() for _ in range(8)])
        assert np.array_equal(vector, scalars)

    def test_payload_round_trip(self):
        clearing = ClearingModel(
            liquidity="thin",
            base_hazard=0.04,
            sensitivity=3.0,
            schedule=DiscountSchedule(
                kind="ladder", ladder=(0.95, 0.8, 0.6), step_hours=24
            ),
            max_open_hours=200,
            seed=17,
        )
        restored = ClearingModel.from_payload(clearing.to_payload())
        assert restored == clearing
        assert restored.content_digest() == clearing.content_digest()

    def test_content_digest_distinguishes_configs(self):
        base = ClearingModel()
        assert base.content_digest() != ClearingModel(liquidity="thin").content_digest()
        assert base.content_digest() != ClearingModel(seed=1).content_digest()

    def test_instant_profile_is_delay_zero(self):
        profile = ClearingModel.instant().profile(0.8, PERIOD, 16)
        assert profile.sample_delay(0.0) == 0
        assert profile.sample_delay(1.0 - 1e-16) == 0

    def test_cdf_monotone_and_hazard_caps(self):
        clearing = ClearingModel(liquidity="deep", base_hazard=0.5, sensitivity=8.0)
        profile = clearing.profile(0.5, PERIOD, 32)
        assert np.all(np.diff(profile.cdf) >= 0)
        assert profile.cdf[-1] <= 1.0 + 1e-12
        hazards = clearing.hazards(profile.discounts)
        assert np.all(hazards <= 1.0)
        assert math.isfinite(float(profile.cdf[-1]))
