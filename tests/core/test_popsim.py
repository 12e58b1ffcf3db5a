"""Differential tests for repro.core.popsim: the population-tensor
engine must be *bit-identical* to per-user ``run_fast`` — same costs to
the last ulp, same sale counts — across seeds, φ values, policy kinds,
fee modes, and threshold scales."""

import numpy as np
import pytest

from repro.core.account import CostModel, HourlyFeeMode
from repro.core.fastsim import FastPolicyKind, run_fast
from repro.core.popsim import (
    DEFAULT_BLOCK_USERS,
    PopulationResult,
    prepare_population,
    run_population,
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

    def test_concatenate_blocks_equals_whole(self, toy_model):
        demands, reservations = random_population(30, start_seed=50)
        whole = run_population(demands, reservations, toy_model, phi=0.5)
        parts = [
            run_population(
                demands[start : start + 7],
                reservations[start : start + 7],
                toy_model,
                phi=0.5,
            )
            for start in range(0, 30, 7)
        ]
        stitched = PopulationResult.concatenate(parts)
        assert np.array_equal(whole.total_costs(), stitched.total_costs())
        assert np.array_equal(whole.on_demand, stitched.on_demand)
        assert np.array_equal(whole.sale_income, stitched.sale_income)
        assert np.array_equal(whole.instances_sold, stitched.instances_sold)
        assert stitched.n_users == 30

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
        demands, reservations = random_population(10, start_seed=120)
        prepared = prepare_population(demands, reservations, toy_model.period)
        active_before = prepared.active.copy()
        prefix_before = prepared.reservation_prefix.copy()
        for phi in PHIS:
            run_population(
                demands, reservations, toy_model, phi=phi, precomputed=prepared
            )
            run_population(
                demands,
                reservations,
                toy_model,
                phi=phi,
                kind=FastPolicyKind.ALL_SELLING,
                precomputed=prepared,
            )
        assert np.array_equal(prepared.active, active_before)
        assert np.array_equal(prepared.reservation_prefix, prefix_before)

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

    def test_rejects_empty_horizon(self, toy_model):
        with pytest.raises(SimulationError):
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
