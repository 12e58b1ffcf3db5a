"""Promoted seller strategies, the deal-hunting buyer, and the
non-finite / fractional-count input hardening (ISSUE 9 satellites)."""

import math

import numpy as np
import pytest

from repro.core.account import CostModel
from repro.core.clearing import (
    SCHEDULE_ADAPTIVE,
    SCHEDULE_LADDER,
    ClearingModel,
    DiscountSchedule,
)
from repro.core.fastsim import FastPolicyKind, run_fast
from repro.core.policies import ListedSellingPolicy, OnlineSellingPolicy
from repro.errors import MarketplaceError, PolicyError, SimulationError
from repro.marketplace.ecosystem import DealHunter, endogenous_buy_requests
from repro.marketplace.listing import Listing
from repro.marketplace.market import (
    BuyerArrivalProcess,
    BuyRequest,
    simulate_market,
)
from repro.marketplace.repricing import ManagedListing, simulate_repricing_market
from repro.marketplace.seller import (
    AdaptiveDiscountSeller,
    FixedDiscountSeller,
    LadderDiscountSeller,
    SaleLatencyModel,
)
from repro.pricing.catalog import paper_experiment_plan
from repro.purchasing import AllReserved, imitate
from repro.workload import TargetCVWorkload


@pytest.fixture(scope="module")
def setting():
    plan = paper_experiment_plan().with_period(192)
    model = CostModel(plan, selling_discount=0.8)
    rng = np.random.default_rng(11)
    schedules = [
        imitate(
            TargetCVWorkload(target_cv=2.0, mean_demand=4.0).generate(384, rng),
            plan,
            AllReserved(),
        )
        for _ in range(8)
    ]
    return plan, model, schedules


class TestLadderSeller:
    def test_steps_down_then_holds_last_rung(self):
        seller = LadderDiscountSeller(ladder=(1.0, 0.8, 0.6), step_hours=10)
        assert seller.asking_price(100.0, 0) == pytest.approx(100.0)
        assert seller.asking_price(100.0, 10) == pytest.approx(80.0)
        assert seller.asking_price(100.0, 25) == pytest.approx(60.0)
        assert seller.asking_price(100.0, 500) == pytest.approx(60.0)

    def test_validation(self):
        with pytest.raises(Exception):
            LadderDiscountSeller(ladder=())
        with pytest.raises(Exception):
            LadderDiscountSeller(ladder=(1.0, 1.2))
        with pytest.raises(SimulationError):
            LadderDiscountSeller(step_hours=24.5)
        with pytest.raises(SimulationError):
            LadderDiscountSeller(ladder=(1.0, float("nan")))
        with pytest.raises(MarketplaceError):
            LadderDiscountSeller(step_hours=np.int64(0))
        numpy_step = LadderDiscountSeller(step_hours=np.int64(24))
        assert numpy_step == LadderDiscountSeller(step_hours=24)
        assert numpy_step.as_discount_schedule() == DiscountSchedule(
            kind=SCHEDULE_LADDER, ladder=numpy_step.ladder, step_hours=24
        )


class TestPromotionToPolicies:
    def test_adaptive_seller_becomes_adaptive_schedule(self):
        seller = AdaptiveDiscountSeller(
            start_discount=0.9, floor_discount=0.6, decay_per_day=0.1
        )
        schedule = seller.as_discount_schedule()
        assert schedule.kind == SCHEDULE_ADAPTIVE
        # The schedule reproduces the seller's asking discounts exactly.
        profile = schedule.profile(0.8, 24 * 10)
        for hour in (0, 24, 120, 239):
            assert seller.asking_price(1.0, hour) == pytest.approx(profile[hour])

    def test_ladder_seller_becomes_ladder_schedule(self):
        seller = LadderDiscountSeller(ladder=(1.0, 0.75), step_hours=48)
        schedule = seller.as_discount_schedule()
        assert schedule.kind == SCHEDULE_LADDER
        profile = schedule.profile(0.8, 100)
        for hour in (0, 47, 48, 99):
            assert seller.asking_price(1.0, hour) == pytest.approx(profile[hour])

    def test_fixed_seller_defers_to_its_own_discount(self):
        schedule = FixedDiscountSeller(discount=0.7).as_discount_schedule()
        assert schedule.profile(0.8, 5)[0] == pytest.approx(0.7)

    def test_as_selling_policy_is_first_class(self):
        policy = AdaptiveDiscountSeller().as_selling_policy(0.5)
        assert isinstance(policy, ListedSellingPolicy)
        assert isinstance(policy, OnlineSellingPolicy)
        assert policy.phi == 0.5
        assert "adaptive" in policy.name

    def test_classmethod_constructors(self):
        adaptive = ListedSellingPolicy.adaptive(0.75)
        ladder = ListedSellingPolicy.ladder(0.25, rungs=(0.9, 0.7), step_hours=24)
        assert adaptive.schedule.kind == SCHEDULE_ADAPTIVE
        assert ladder.schedule.kind == SCHEDULE_LADDER
        with pytest.raises(PolicyError):
            ListedSellingPolicy(0.5, schedule="adaptive")

    def test_policy_runs_in_fastsim_via_clearing_model(self, setting):
        plan, model, schedules = setting
        schedule = schedules[0]
        policy = LadderDiscountSeller(
            ladder=(0.9, 0.7, 0.5), step_hours=24
        ).as_selling_policy(0.5)
        clearing = policy.clearing_model("thin", seed=3)
        assert clearing.schedule == policy.schedule
        result = run_fast(
            schedule.demands.values,
            schedule.reservations,
            model,
            phi=policy.phi,
            kind=FastPolicyKind.ONLINE,
            clearing=clearing,
            clearing_key=7,
        )
        plain = run_fast(
            schedule.demands.values,
            schedule.reservations,
            model,
            phi=policy.phi,
            kind=FastPolicyKind.ONLINE,
        )
        # Same decision sequence, different clearing economics.
        assert result.instances_sold == plain.instances_sold
        assert result.instances_cleared <= result.instances_sold

    def test_ladder_discounts_shape_the_clearing_income(self, setting):
        plan, model, schedules = setting
        schedule = schedules[0]
        generous = ListedSellingPolicy.ladder(0.5, rungs=(0.9, 0.3), step_hours=12)
        stingy = ListedSellingPolicy.ladder(0.5, rungs=(0.9, 0.9), step_hours=12)
        results = [
            run_fast(
                schedule.demands.values,
                schedule.reservations,
                model,
                phi=0.5,
                kind=FastPolicyKind.ONLINE,
                clearing=policy.clearing_model("thin", seed=3),
                clearing_key=7,
            )
            for policy in (generous, stingy)
        ]
        # Cutting the price harder clears at least as many listings.
        assert results[0].instances_cleared >= results[1].instances_cleared


class TestDealHunter:
    def test_hunter_underbids_rational_demand(self, setting):
        plan, model, schedules = setting
        rational = endogenous_buy_requests(schedules, model)
        hunter = DealHunter(bargain_fraction=0.6).requests(schedules, model)
        assert len(hunter) == len(rational)
        for bargain, fair in zip(hunter, rational):
            assert bargain.count == fair.count
            assert bargain.hour == fair.hour
            assert bargain.max_unit_price == pytest.approx(0.6 * fair.max_unit_price)
            assert bargain.value_per_period == pytest.approx(0.6 * plan.upfront)
            assert bargain.buyer_id.startswith("hunter-")

    def test_hunter_skips_fair_priced_listings_takes_bargains(self, setting):
        plan, model, schedules = setting
        fair = Listing.from_plan(
            plan, elapsed_hours=10, selling_discount=1.0, seller_id="fair"
        )
        cheap = Listing.from_plan(
            plan, elapsed_hours=10, selling_discount=0.5, seller_id="cheap"
        )
        request = DealHunter(bargain_fraction=0.8).requests(schedules, model)[0]
        assert not request.accepts(fair)
        assert request.accepts(cheap)

    def test_validation(self):
        with pytest.raises(Exception):
            DealHunter(bargain_fraction=0.0)
        with pytest.raises(Exception):
            DealHunter(participation=1.5)


class TestInputHardening:
    """Non-finite and fractional inputs get a typed SimulationError."""

    def test_sale_latency_model_rejects_non_finite(self):
        for bad in (float("nan"), float("inf")):
            with pytest.raises(SimulationError):
                SaleLatencyModel(base_hazard=bad)
            with pytest.raises(SimulationError):
                SaleLatencyModel(sensitivity=bad)
            with pytest.raises(SimulationError):
                SaleLatencyModel().hazard(bad)

    def test_buyer_arrivals_reject_non_finite(self):
        for field in (
            "rate_per_hour",
            "mean_count",
            "reference_price",
            "min_price_fraction",
            "max_price_fraction",
        ):
            with pytest.raises(SimulationError):
                BuyerArrivalProcess("m4.large", **{field: float("nan")})

    def test_buy_request_rejects_fractional_and_non_finite(self):
        with pytest.raises(SimulationError):
            BuyRequest("b", "m4.large", count=1.5, max_unit_price=10.0)
        with pytest.raises(SimulationError):
            BuyRequest("b", "m4.large", count=1, max_unit_price=math.nan)
        with pytest.raises(SimulationError):
            BuyRequest("b", "m4.large", count=1, max_unit_price=10.0, hour=2.5)

    def test_simulate_market_rejects_fractional_hours(self):
        buyers = BuyerArrivalProcess("m4.large")
        with pytest.raises(SimulationError):
            simulate_market([], buyers, hours=10.5, rng=np.random.default_rng(0))

    def test_repricing_market_rejects_fractional_hours(self):
        buyers = BuyerArrivalProcess("m4.large")
        with pytest.raises(SimulationError):
            simulate_repricing_market(
                [], buyers, hours=10.5, rng=np.random.default_rng(0)
            )

    def test_adaptive_seller_rejects_non_finite(self):
        with pytest.raises(SimulationError):
            AdaptiveDiscountSeller(start_discount=float("nan"))
        with pytest.raises(SimulationError):
            FixedDiscountSeller(discount=float("inf"))

    def test_clearing_configs_reject_bad_inputs(self):
        with pytest.raises(SimulationError):
            ClearingModel(base_hazard=float("nan"))
        with pytest.raises(SimulationError):
            ClearingModel(sensitivity=float("inf"))
        with pytest.raises(SimulationError):
            DiscountSchedule(start_discount=1.5)
        with pytest.raises(SimulationError):
            ClearingModel(max_open_hours=12.5)
