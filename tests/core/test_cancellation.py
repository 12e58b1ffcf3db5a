"""Cancellation-aware selling: the static rank rule's hand-checkable
units, its invariants inside ``run_fast`` (decisions untouched, costs
repaired), the fastsim ↔ popsim differential, and the coupled model's
penalty-surcharge-only reduction."""

import numpy as np
import pytest

from repro.core.cancellation import (
    CancellationModel,
    SoldUnit,
    apply_rebuys,
    rebuy_cost_at,
)
from repro.core.clearing import ClearingModel
from repro.core.coupled import run_coupled
from repro.core.fastsim import run_fast
from repro.core.policies import CancellationAwareSellingPolicy, OnlineSellingPolicy
from repro.core.popsim import run_population
from repro.errors import SimulationError
from repro.purchasing.stepper import AllReservedStepper
from tests.core.test_popsim import N_SEEDS, PHIS, random_population


class TestCancellationModel:
    def test_defaults_and_payload_round_trip(self):
        model = CancellationModel()
        assert model.penalty == 0.25
        assert model.trigger_hours == 1
        assert CancellationModel.from_payload(model.to_payload()) == model

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"penalty": -0.1},
            {"penalty": float("nan")},
            {"penalty": float("inf")},
            {"trigger_hours": 0},
            {"trigger_hours": 1.5},
            {"trigger_hours": True},
        ],
    )
    def test_invalid_terms_are_rejected(self, kwargs):
        with pytest.raises(SimulationError):
            CancellationModel(**kwargs)

    @pytest.mark.parametrize(
        "payload",
        [
            {"penalty": 0.25, "trigger_hours": 2.5},
            {"penalty": 0.25, "trigger_hours": 2.0},
            {"penalty": 0.25, "trigger_hours": True},
            {"penalty": 0.25, "trigger_hours": "2"},
            {"penalty": "0.25", "trigger_hours": 2},
            {"penalty": True, "trigger_hours": 2},
            {"penalty": 0.25},
            {"trigger_hours": 2},
        ],
    )
    def test_payload_is_not_coerced_or_defaulted(self, payload):
        with pytest.raises(SimulationError):
            CancellationModel.from_payload(payload)

    def test_content_digest_distinguishes_terms(self):
        assert (
            CancellationModel(penalty=0.25).content_digest()
            != CancellationModel(penalty=0.1).content_digest()
        )
        assert (
            CancellationModel().content_digest()
            == CancellationModel(penalty=0.25, trigger_hours=1).content_digest()
        )


class TestRebuyCost:
    def test_hand_checked_price(self, toy_model):
        # (1 + 0.25) · a · rp · R = 1.25 · 0.5 · (1 − 2/8) · 8 = 3.75
        assert rebuy_cost_at(toy_model, 8, 0, 2, 0.25) == 3.75

    def test_zero_penalty_is_the_marketplace_price(self, toy_model):
        # a · rp · R = 0.5 · (1 − 4/8) · 8 = 2.0
        assert rebuy_cost_at(toy_model, 8, 0, 4, 0.0) == 2.0

    def test_remaining_fraction_measured_from_reservation_start(self, toy_model):
        assert rebuy_cost_at(toy_model, 8, 2, 4, 0.0) == rebuy_cost_at(
            toy_model, 8, 0, 2, 0.0
        )


class TestRankRule:
    """Hand-checkable ``apply_rebuys`` cases on the toy plan (T = 8)."""

    def unit(self, watch_from=4, term_end=8):
        return SoldUnit(reserved_at=0, watch_from=watch_from, term_end=term_end)

    def test_trigger_counts_distinct_residual_hours(self, toy_model):
        d = np.array([0, 0, 0, 0, 1, 0, 1, 1])
        base = np.zeros(8, dtype=np.int64)
        # Positive-residual hours inside [4, 8) are 4, 6, 7.
        for trigger, expected_hour in [(1, 4), (2, 6), (3, 7)]:
            outcome = apply_rebuys(
                d, base, [self.unit()], 8, toy_model,
                CancellationModel(trigger_hours=trigger),
            )
            (rebuy,) = outcome.rebuys
            assert rebuy.hour == expected_hour, trigger
            assert rebuy.cost == rebuy_cost_at(toy_model, 8, 0, expected_hour, 0.25)
            # The unit serves again from its re-buy hour to term end.
            expected_after = base.copy()
            expected_after[expected_hour:8] += 1
            assert np.array_equal(outcome.r_after, expected_after)

    def test_trigger_not_reached_means_no_rebuy(self, toy_model):
        d = np.array([0, 0, 0, 0, 1, 0, 1, 1])
        outcome = apply_rebuys(
            d, np.zeros(8, dtype=np.int64), [self.unit()], 8, toy_model,
            CancellationModel(trigger_hours=4),
        )
        assert outcome.rebuys == ()
        assert outcome.rebuy_cost == 0.0
        assert np.array_equal(outcome.r_after, np.zeros(8))

    def test_base_timeline_absorbs_demand_first(self, toy_model):
        # r_base already serves the returned demand: nothing is unmet.
        d = np.array([0, 0, 0, 0, 1, 0, 1, 1])
        base = np.ones(8, dtype=np.int64)
        outcome = apply_rebuys(
            d, base, [self.unit()], 8, toy_model, CancellationModel()
        )
        assert outcome.rebuys == ()

    def test_senior_unit_absorbs_one_unit_of_returned_demand(self, toy_model):
        # Two sold units watch [4, 8); demand returns single-depth except
        # one hour of depth 2. The senior re-buys at the first returned
        # hour; the junior only sees the depth-2 hour.
        d = np.array([0, 0, 0, 0, 1, 0, 2, 1])
        units = [self.unit(), self.unit()]
        outcome = apply_rebuys(
            d, np.zeros(8, dtype=np.int64), units, 8, toy_model,
            CancellationModel(),
        )
        assert [(r.unit_index, r.hour) for r in outcome.rebuys] == [(0, 4), (1, 6)]

    def test_cover_counts_seniors_even_when_they_do_not_rebuy(self, toy_model):
        # The senior's trigger is never reached, but it still absorbs one
        # unit of demand in the junior's residual — the self-consistency
        # that makes the rule order-free.
        d = np.array([0, 0, 0, 0, 1, 0, 2, 1])
        units = [self.unit(), self.unit()]
        outcome = apply_rebuys(
            d, np.zeros(8, dtype=np.int64), units, 8, toy_model,
            CancellationModel(trigger_hours=4),
        )
        assert outcome.rebuys == ()

    def test_empty_watch_window_never_rebuys(self, toy_model):
        d = np.ones(8, dtype=np.int64)
        outcome = apply_rebuys(
            d,
            np.zeros(8, dtype=np.int64),
            [self.unit(watch_from=8, term_end=8)],
            8,
            toy_model,
            CancellationModel(),
        )
        assert outcome.rebuys == ()


class TestFastsimInvariants:
    def test_decisions_and_sales_are_unchanged(self, toy_model):
        demands, reservations = random_population(N_SEEDS)
        cancellation = CancellationModel(penalty=0.25, trigger_hours=1)
        for user in range(demands.shape[0]):
            plain = run_fast(demands[user], reservations[user], toy_model, phi=0.5)
            with_cancel = run_fast(
                demands[user], reservations[user], toy_model, phi=0.5,
                cancellation=cancellation,
            )
            assert with_cancel.sales == plain.sales
            assert with_cancel.listings == plain.listings
            # Costs only move by the re-buy channel and the repaired
            # serving timeline; income components are untouched.
            assert with_cancel.breakdown.upfront == plain.breakdown.upfront
            assert with_cancel.breakdown.sale_income == plain.breakdown.sale_income
            assert with_cancel.breakdown.rebuy == sum(
                r.cost for r in with_cancel.rebuys
            )
            if not with_cancel.rebuys:
                assert with_cancel.breakdown == plain.breakdown
                assert np.array_equal(with_cancel.r_physical, plain.r_physical)

    def test_rebought_units_serve_again(self, toy_model):
        # Idle until the φ=1/2 decision (age 4, working 0 < β) → SELL;
        # demand returns right after → re-buy at hour 4 serves hours 4–7.
        d = np.array([0, 0, 0, 0, 1, 1, 1, 1])
        n = np.array([1, 0, 0, 0, 0, 0, 0, 0])
        plain = run_fast(d, n, toy_model, phi=0.5)
        result = run_fast(
            d, n, toy_model, phi=0.5, cancellation=CancellationModel()
        )
        assert plain.instances_sold == 1 and plain.breakdown.on_demand == 4.0
        assert result.instances_rebought == 1
        (rebuy,) = result.rebuys
        assert rebuy.hour == 4
        assert rebuy.cost == rebuy_cost_at(toy_model, 8, 0, 4, 0.25)
        assert result.breakdown.on_demand == 0.0  # repaired timeline serves
        assert result.total_cost == pytest.approx(
            plain.total_cost - plain.breakdown.on_demand
            + rebuy.cost + result.breakdown.reserved_hourly
            - plain.breakdown.reserved_hourly
        )


class TestPopulationDifferential:
    """The acceptance gate: popsim's cancellation outcome is bit-identical
    to per-user ``run_fast`` — rebuy costs, counts, and totals."""

    @pytest.mark.parametrize("phi", PHIS)
    @pytest.mark.parametrize("trigger", [1, 2])
    def test_bit_identical_to_run_fast(self, toy_model, phi, trigger):
        demands, reservations = random_population(N_SEEDS)
        cancellation = CancellationModel(penalty=0.25, trigger_hours=trigger)
        result = run_population(
            demands, reservations, toy_model, phi=phi, cancellation=cancellation
        )
        totals = result.total_costs()
        rebought = 0
        for user in range(demands.shape[0]):
            fast = run_fast(
                demands[user], reservations[user], toy_model, phi=phi,
                cancellation=cancellation,
            )
            breakdown = result.breakdown(user)
            assert breakdown.rebuy == fast.breakdown.rebuy, user
            assert breakdown.on_demand == fast.breakdown.on_demand, user
            assert breakdown.reserved_hourly == fast.breakdown.reserved_hourly, user
            assert totals[user] == fast.total_cost, user
            assert int(result.instances_rebought[user]) == fast.instances_rebought
            rebought += fast.instances_rebought
        assert rebought > 0  # the workload genuinely exercises re-buys

    def test_instant_clearing_matches_no_clearing(self, toy_model):
        demands, reservations = random_population(16, start_seed=300)
        cancellation = CancellationModel(penalty=0.1, trigger_hours=1)
        plain = run_population(
            demands, reservations, toy_model, phi=0.5, cancellation=cancellation
        )
        instant = run_population(
            demands, reservations, toy_model, phi=0.5,
            cancellation=cancellation,
            clearing=ClearingModel(liquidity="instant", seed=3),
        )
        assert np.array_equal(plain.rebuy, instant.rebuy)
        assert np.array_equal(plain.instances_rebought, instant.instances_rebought)
        assert np.array_equal(plain.total_costs(), instant.total_costs())


class TestCoupledReduction:
    def _run(self, policy, toy_model):
        # Busy start buys two reservations, idle hours 2–5 make the
        # φ=1/2 rule sell them at age 4, and the hour-6 surge makes the
        # stepper re-reserve inside the sold terms.
        demands = [2, 2, 0, 0, 0, 0, 2, 2, 2, 2, 0, 0, 0, 0, 0, 0]
        return run_coupled(demands, AllReservedStepper(), toy_model, policy)

    def test_penalty_zero_reduces_to_plain_online(self, toy_model):
        plain = self._run(OnlineSellingPolicy(0.5), toy_model)
        cancel = self._run(
            CancellationAwareSellingPolicy(0.5, penalty=0.0), toy_model
        )
        assert cancel.sales == plain.sales
        assert np.array_equal(cancel.reservations, plain.reservations)
        assert cancel.total_cost == plain.total_cost

    def test_positive_penalty_books_only_the_surcharge(self, toy_model):
        plain = self._run(OnlineSellingPolicy(0.5), toy_model)
        cancel = self._run(
            CancellationAwareSellingPolicy(0.5, penalty=0.25), toy_model
        )
        # Decisions and the purchasing schedule are untouched; the total
        # moves by exactly the re-buy surcharge channel.
        assert cancel.sales == plain.sales
        assert np.array_equal(cancel.reservations, plain.reservations)
        assert len(plain.sales) > 0
        assert cancel.total_cost > plain.total_cost
