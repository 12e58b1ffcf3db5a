"""Differential tests for repro.core.popsim: the population-tensor
engine must be *bit-identical* to per-user ``run_fast`` — same costs to
the last ulp, same sale counts — across seeds, φ values, policy kinds,
fee modes, and threshold scales."""

import numpy as np
import pytest

from repro.core import popsim
from repro.core.account import CostBreakdown, CostModel, HourlyFeeMode
from repro.core.cancellation import CancellationModel
from repro.core.clearing import ClearingModel
from repro.core.fastsim import FastPolicyKind, run_fast
from repro.core.policies import RandomizedSellingPolicy
from repro.core.popsim import (
    DEFAULT_BLOCK_USERS,
    PopulationResult,
    prepare_population,
    run_population,
    run_population_randomized,
)
from repro.errors import SimulationError
from repro.pricing.plan import PricingPlan

N_SEEDS = 40
PHIS = (0.25, 0.5, 0.75)
HORIZON = 64


def random_population(n_users, horizon=HORIZON, start_seed=0, max_batch=4):
    """One user per seed, same distribution as the fastsim fuzz cases."""
    demand_rows, reservation_rows = [], []
    for seed in range(start_seed, start_seed + n_users):
        rng = np.random.default_rng(seed)
        demand_rows.append(rng.integers(0, 6, size=horizon))
        reservation_rows.append(
            np.where(
                rng.random(horizon) < 0.15,
                rng.integers(1, max_batch, size=horizon),
                0,
            )
        )
    return np.stack(demand_rows), np.stack(reservation_rows)


def assert_bit_identical(population_result, demands, reservations, model, **kwargs):
    """Every user of a population run must match its own run_fast call
    exactly — float equality, not approx."""
    totals = population_result.total_costs()
    for user in range(demands.shape[0]):
        fast = run_fast(demands[user], reservations[user], model, **kwargs)
        breakdown = population_result.breakdown(user)
        context = (user, kwargs, fast.breakdown, breakdown)
        assert breakdown.on_demand == fast.breakdown.on_demand, context
        assert breakdown.upfront == fast.breakdown.upfront, context
        assert breakdown.reserved_hourly == fast.breakdown.reserved_hourly, context
        assert breakdown.sale_income == fast.breakdown.sale_income, context
        assert totals[user] == fast.total_cost, context
        assert int(population_result.instances_sold[user]) == fast.instances_sold, (
            context
        )


class TestDifferentialAgainstRunFast:
    """The acceptance gate: ≥ 40 seeds × 3 φ × 3 policy kinds, exact."""

    @pytest.mark.parametrize("phi", PHIS)
    def test_online_bit_identical(self, toy_model, phi):
        demands, reservations = random_population(N_SEEDS)
        result = run_population(demands, reservations, toy_model, phi=phi)
        assert_bit_identical(result, demands, reservations, toy_model, phi=phi)

    @pytest.mark.parametrize("phi", PHIS)
    def test_all_selling_bit_identical(self, toy_model, phi):
        demands, reservations = random_population(N_SEEDS)
        result = run_population(
            demands, reservations, toy_model, phi=phi, kind=FastPolicyKind.ALL_SELLING
        )
        assert_bit_identical(
            result,
            demands,
            reservations,
            toy_model,
            phi=phi,
            kind=FastPolicyKind.ALL_SELLING,
        )

    @pytest.mark.parametrize("phi", PHIS)
    def test_keep_reserved_bit_identical(self, toy_model, phi):
        demands, reservations = random_population(N_SEEDS)
        result = run_population(
            demands,
            reservations,
            toy_model,
            phi=phi,
            kind=FastPolicyKind.KEEP_RESERVED,
        )
        assert_bit_identical(
            result,
            demands,
            reservations,
            toy_model,
            phi=phi,
            kind=FastPolicyKind.KEEP_RESERVED,
        )

    @pytest.mark.parametrize("fee_mode", list(HourlyFeeMode))
    def test_fee_modes_bit_identical(self, toy_plan, fee_mode):
        model = CostModel(plan=toy_plan, selling_discount=0.5, fee_mode=fee_mode)
        demands, reservations = random_population(N_SEEDS, start_seed=500)
        for phi in PHIS:
            result = run_population(demands, reservations, model, phi=phi)
            assert_bit_identical(result, demands, reservations, model, phi=phi)

    def test_paper_scale_plan_bit_identical(self, scaled_model):
        demands, reservations = random_population(
            16, horizon=192, start_seed=900, max_batch=3
        )
        for phi in PHIS:
            result = run_population(demands, reservations, scaled_model, phi=phi)
            assert_bit_identical(result, demands, reservations, scaled_model, phi=phi)


class TestThresholdBoundaries:
    """A plan whose β lands on exact integers (β = 10φ) exercises the
    strict ``working < scale·β`` comparison right on the boundary, where
    any float reformulation of the test would diverge."""

    @pytest.fixture
    def boundary_model(self):
        plan = PricingPlan(
            on_demand_hourly=1.0,
            upfront=10.0,
            alpha=0.5,
            period_hours=16,
            name="boundary",
        )
        return CostModel(plan=plan, selling_discount=0.5)

    @pytest.mark.parametrize("scale", [0.0, 0.5, 1.0, 2.0, 1000.0, 1e308])
    def test_threshold_scales_bit_identical(self, boundary_model, scale):
        demands, reservations = random_population(20, start_seed=300)
        for phi in PHIS:
            result = run_population(
                demands, reservations, boundary_model, phi=phi, threshold_scale=scale
            )
            assert_bit_identical(
                result,
                demands,
                reservations,
                boundary_model,
                phi=phi,
                threshold_scale=scale,
            )

    def test_dense_batches_bit_identical(self, boundary_model):
        # Large same-hour batches drive the order-statistic path hard:
        # several instances of one batch sell, the rest are kept.
        demands, reservations = random_population(20, start_seed=700, max_batch=9)
        result = run_population(demands, reservations, boundary_model, phi=0.5)
        assert_bit_identical(result, demands, reservations, boundary_model, phi=0.5)


class TestBlockInvariance:
    """Splitting a population into blocks and concatenating must be a
    no-op — the property the sweep's block fan-out relies on."""

    @pytest.mark.parametrize("block", [1, 7])
    def test_concatenate_blocks_equals_whole(self, toy_model, block):
        """Blocks of 1 run the per-batch loop, the whole runs the rounds."""
        demands, reservations = random_population(30, start_seed=50)
        whole = run_population(demands, reservations, toy_model, phi=0.5)
        parts = [
            run_population(
                demands[start : start + block],
                reservations[start : start + block],
                toy_model,
                phi=0.5,
            )
            for start in range(0, 30, block)
        ]
        stitched = PopulationResult.concatenate(parts)
        assert np.array_equal(whole.total_costs(), stitched.total_costs())
        assert np.array_equal(whole.on_demand, stitched.on_demand)
        assert np.array_equal(whole.sale_income, stitched.sale_income)
        assert np.array_equal(whole.instances_sold, stitched.instances_sold)
        assert stitched.n_users == 30

    def test_concatenate_randomized_blocks_equals_whole(self, toy_model):
        """Randomized blocks all carry phi = NaN and still stitch."""
        demands, reservations = random_population(6, start_seed=70)
        policy = RandomizedSellingPolicy(seed=3)
        whole = run_population_randomized(
            demands, reservations, toy_model, policy, user_keys=list(range(6))
        )
        stitched = PopulationResult.concatenate(
            [
                run_population_randomized(
                    demands[lo:hi],
                    reservations[lo:hi],
                    toy_model,
                    policy,
                    user_keys=list(range(lo, hi)),
                )
                for lo, hi in ((0, 3), (3, 6))
            ]
        )
        assert np.isnan(stitched.phi)
        assert np.array_equal(stitched.drawn_phi, whole.drawn_phi)
        assert np.array_equal(stitched.total_costs(), whole.total_costs())
        assert np.array_equal(stitched.instances_sold, whole.instances_sold)
        deterministic = run_population(
            demands[:3], reservations[:3], toy_model, phi=0.5
        )
        with pytest.raises(SimulationError):
            PopulationResult.concatenate([stitched, deterministic])

    def test_concatenate_rejects_mixed_policies(self, toy_model):
        demands, reservations = random_population(4)
        a = run_population(demands, reservations, toy_model, phi=0.5)
        b = run_population(demands, reservations, toy_model, phi=0.75)
        with pytest.raises(SimulationError):
            PopulationResult.concatenate([a, b])
        with pytest.raises(SimulationError):
            PopulationResult.concatenate([])

    def test_default_block_size_is_positive(self):
        assert DEFAULT_BLOCK_USERS >= 1


class TestSharedPrecompute:
    """A block's policy-independent tensors can be prepared once and
    shared across every policy run without perturbing a single bit —
    the sweep's block worker relies on this."""

    def test_precomputed_runs_match_fresh_runs(self, toy_model):
        demands, reservations = random_population(25, start_seed=90)
        prepared = prepare_population(demands, reservations, toy_model.period)
        cases = [
            dict(kind=FastPolicyKind.KEEP_RESERVED),
            *[dict(phi=phi) for phi in PHIS],
            *[dict(phi=phi, kind=FastPolicyKind.ALL_SELLING) for phi in PHIS],
        ]
        for kwargs in cases:
            fresh = run_population(demands, reservations, toy_model, **kwargs)
            shared = run_population(
                demands, reservations, toy_model, precomputed=prepared, **kwargs
            )
            assert np.array_equal(fresh.total_costs(), shared.total_costs())
            assert np.array_equal(fresh.on_demand, shared.on_demand)
            assert np.array_equal(fresh.sale_income, shared.sale_income)
            assert np.array_equal(fresh.instances_sold, shared.instances_sold)

    def test_shared_tensors_survive_selling_runs(self, toy_model):
        """Runs build their slack, settlement and accounting arrays
        without writing to the shared block, whatever they settle."""
        demands, reservations = random_population(10, start_seed=120)
        prepared = prepare_population(demands, reservations, toy_model.period)
        held = ("demands", "reservations", "active", "reservation_prefix")
        before = {name: getattr(prepared, name).copy() for name in held}
        clearings = (
            None,
            ClearingModel.for_regime("normal", seed=4),
            ClearingModel.instant(seed=4),
        )
        sold = 0
        for kind in FastPolicyKind:
            for clearing in clearings:
                for cancellation in (None, CancellationModel()):
                    for phi in PHIS:
                        result = run_population(
                            demands,
                            reservations,
                            toy_model,
                            phi=phi,
                            kind=kind,
                            precomputed=prepared,
                            clearing=clearing,
                            cancellation=cancellation,
                        )
                        sold += int(result.instances_sold.sum())
        assert sold > 0
        for name in held:
            assert np.array_equal(getattr(prepared, name), before[name]), name

    def test_row_slice_equals_a_fresh_block(self, toy_model):
        demands, reservations = random_population(9, start_seed=140)
        prepared = prepare_population(demands, reservations, toy_model.period)
        rows = np.array([7, 0, 4, 4])
        part = prepared.take_rows(rows)
        fresh = prepare_population(demands[rows], reservations[rows], toy_model.period)
        assert part.period == fresh.period
        for name in (
            "demands",
            "reservations",
            "active",
            "reservation_prefix",
            "event_rows",
            "event_t0",
            "demand_totals",
            "reservation_totals",
        ):
            assert np.array_equal(getattr(part, name), getattr(fresh, name)), name

    def test_a_block_for_another_period_is_refused(self, toy_model):
        demands, reservations = random_population(3)
        other = prepare_population(demands, reservations, toy_model.period + 1)
        policy = RandomizedSellingPolicy(seed=3)
        with pytest.raises(SimulationError, match="period"):
            run_population(demands, reservations, toy_model, precomputed=other)
        with pytest.raises(SimulationError, match="period"):
            run_population_randomized(
                demands, reservations, toy_model, policy, precomputed=other
            )
        one_row = other.take_rows(np.array([0]))
        with pytest.raises(SimulationError, match="period"):
            run_fast(demands[0], reservations[0], toy_model, precomputed=one_row)

    def test_run_fast_takes_a_one_row_block_only(self, toy_model):
        demands, reservations = random_population(2)
        two_rows = prepare_population(demands, reservations, toy_model.period)
        with pytest.raises(SimulationError, match="one-row block, got 2 rows"):
            run_fast(demands[0], reservations[0], toy_model, precomputed=two_rows)

    def test_randomized_runs_on_a_shared_block(self, toy_model):
        """Passing the prepared block changes no bit of the result."""
        demands, reservations = random_population(12, start_seed=160)
        prepared = prepare_population(demands, reservations, toy_model.period)
        policy = RandomizedSellingPolicy(seed=11, spots=(0.25, 0.5, 0.75))
        fresh = run_population_randomized(demands, reservations, toy_model, policy)
        shared = run_population_randomized(
            None, None, toy_model, policy, precomputed=prepared
        )
        for name in ("total_costs", "instances_sold", "drawn_phi"):
            got, want = getattr(shared, name), getattr(fresh, name)
            got, want = (got(), want()) if callable(got) else (got, want)
            assert np.array_equal(got, want), name

    def test_randomized_refuses_bad_input_before_any_group(
        self, toy_model, monkeypatch
    ):
        calls = []
        monkeypatch.setattr(
            popsim, "run_block", lambda *args, **kwargs: calls.append(args)
        )
        policy = RandomizedSellingPolicy(seed=3)
        demands, reservations = random_population(4)
        for bad_demands in (
            np.where(demands == 0, np.nan, demands),
            np.where(demands == 0, -1, demands),
        ):
            with pytest.raises(SimulationError):
                run_population_randomized(
                    bad_demands, reservations, toy_model, policy
                )
        assert calls == []

    def test_period_mismatch_rejected(self, toy_model):
        demands, reservations = random_population(3)
        prepared = prepare_population(
            demands, reservations, toy_model.period + 1
        )
        with pytest.raises(SimulationError, match="period"):
            run_population(
                demands, reservations, toy_model, precomputed=prepared
            )

    def test_prepare_validates_like_run(self, toy_model):
        with pytest.raises(SimulationError):
            prepare_population(np.ones(8), np.zeros(8), toy_model.period)
        with pytest.raises(SimulationError):
            prepare_population(
                np.full((2, 4), -1), np.zeros((2, 4)), toy_model.period
            )


class TestShortHorizons:
    """Many rows on horizons where no window fits (H ≤ φT) or only the
    first hour or two of batches decide (H − φT ∈ {1, 2}), with clearing
    and cancellation on: every row must equal its own ``run_fast``."""

    SETTINGS = (
        (None, None),
        (None, CancellationModel(penalty=0.1)),
        ("normal", CancellationModel()),
        ("instant", CancellationModel(trigger_hours=2)),
    )

    def test_many_rows_match_run_fast(self, toy_model):
        compared = sold = rebought = 0
        for phi in PHIS:
            decision_age = round(phi * toy_model.period)
            for horizon in range(1, decision_age + 3):
                demands, reservations = random_population(
                    6, horizon=horizon, start_seed=40 * horizon, max_batch=5
                )
                # Batches in the first hours, which are the only ones
                # that can decide inside these horizons.
                reservations[:, :2] += np.arange(6)[:, None] % 3
                for kind in FastPolicyKind:
                    for regime, cancellation in self.SETTINGS:
                        clearing = (
                            None
                            if regime is None
                            else ClearingModel.for_regime(regime, seed=horizon)
                        )
                        result = run_population(
                            demands,
                            reservations,
                            toy_model,
                            phi=phi,
                            kind=kind,
                            clearing=clearing,
                            cancellation=cancellation,
                        )
                        for user in range(6):
                            fast = run_fast(
                                demands[user],
                                reservations[user],
                                toy_model,
                                phi=phi,
                                kind=kind,
                                clearing=clearing,
                                clearing_key=user,
                                cancellation=cancellation,
                            )
                            context = (phi, horizon, kind, regime, user)
                            assert result.breakdown(user) == fast.breakdown, context
                            assert (
                                int(result.instances_sold[user]) == fast.instances_sold
                            ), context
                            if clearing is not None:
                                assert (
                                    int(result.instances_cleared[user])
                                    == fast.instances_cleared
                                ), context
                                assert (
                                    int(result.listings_expired[user])
                                    == fast.listings_expired
                                ), context
                            if cancellation is None:
                                assert result.instances_rebought is None
                            else:
                                assert (
                                    int(result.instances_rebought[user])
                                    == fast.instances_rebought
                                ), context
                            compared += 1
                            sold += fast.instances_sold
                            rebought += fast.instances_rebought
        assert sold > 0 and rebought > 0
        assert compared == 6 * 3 * len(self.SETTINGS) * sum(
            round(phi * toy_model.period) + 2 for phi in PHIS
        )


class TestValidationParity:
    """popsim rejects exactly what run_fast rejects."""

    def test_rejects_one_dimensional_inputs(self, toy_model):
        with pytest.raises(SimulationError):
            run_population(np.ones(8), np.zeros(8), toy_model)

    def test_rejects_mismatched_shapes(self, toy_model):
        with pytest.raises(SimulationError):
            run_population(np.ones((2, 8)), np.zeros((2, 9)), toy_model)

    def test_rejects_negative_inputs(self, toy_model):
        with pytest.raises(SimulationError):
            run_population(np.full((1, 8), -1), np.zeros((1, 8)), toy_model)

    def test_empty_horizon_rules(self, toy_model):
        """run_fast returns an all-zero result on a zero-hour trace, with
        or without clearing and cancellation; run_population refuses an
        empty horizon."""
        empty = np.zeros(0, dtype=np.int64)
        settings = (
            (None, None),
            (ClearingModel.for_regime("normal", seed=1), CancellationModel()),
        )
        for clearing, cancellation in settings:
            for kind in FastPolicyKind:
                result = run_fast(
                    empty, empty, toy_model, kind=kind,
                    clearing=clearing, cancellation=cancellation,
                )
                assert result.breakdown == CostBreakdown()
                assert result.sales == result.listings == result.rebuys == ()
                for timeline in (result.on_demand, result.r_physical):
                    assert timeline.dtype == np.int64 and timeline.shape == (0,)
        with pytest.raises(SimulationError, match="at least one hour"):
            run_population(np.ones((2, 0)), np.zeros((2, 0)), toy_model)

    def test_rejects_fractional_demand(self, toy_model):
        demands = np.full((1, 8), 1.9)
        with pytest.raises(SimulationError, match="whole instance counts"):
            run_population(demands, np.zeros((1, 8)), toy_model)

    def test_rejects_non_finite_threshold_scale(self, toy_model):
        demands = np.ones((1, 8))
        reservations = np.zeros((1, 8))
        for bad in (float("nan"), float("inf"), -1.0):
            with pytest.raises(SimulationError):
                run_population(demands, reservations, toy_model, threshold_scale=bad)

    def test_accepts_integral_floats(self, toy_model):
        demands = np.ones((2, 8), dtype=np.float64)
        reservations = np.zeros((2, 8), dtype=np.float64)
        reservations[:, 0] = 1.0
        result = run_population(demands, reservations, toy_model, phi=0.5)
        assert_bit_identical(result, demands, reservations, toy_model, phi=0.5)
