"""Unit tests for repro.core.account (the Eq. (1) cost model)."""

import numpy as np
import pytest

from repro.core.account import CostBreakdown, CostModel, HourlyCosts, HourlyFeeMode
from repro.errors import SimulationError


class TestCostModel:
    def test_symbol_aliases(self, toy_model, toy_plan):
        assert toy_model.p == toy_plan.on_demand_hourly
        assert toy_model.big_r == toy_plan.upfront
        assert toy_model.alpha == toy_plan.alpha
        assert toy_model.a == 0.5
        assert toy_model.period == 8

    @pytest.mark.parametrize("a", [-0.1, 1.1])
    def test_selling_discount_range(self, toy_plan, a):
        with pytest.raises(SimulationError):
            CostModel(plan=toy_plan, selling_discount=a)

    @pytest.mark.parametrize("fee", [-0.1, 1.0])
    def test_fee_range(self, toy_plan, fee):
        with pytest.raises(SimulationError):
            CostModel(plan=toy_plan, marketplace_fee=fee)

    def test_sale_income_is_a_rp_r(self, toy_model):
        # Eq. (1): s_t * a * rp * R with a=0.5, R=8.
        assert toy_model.sale_income(0.5) == pytest.approx(0.5 * 0.5 * 8)
        assert toy_model.sale_income(1.0) == pytest.approx(4.0)
        assert toy_model.sale_income(0.0) == 0.0

    def test_sale_income_with_fee(self, toy_plan):
        # Section III-B example structure: 12% kept by the marketplace.
        model = CostModel(plan=toy_plan, selling_discount=0.5, marketplace_fee=0.12)
        assert model.sale_income(0.5) == pytest.approx(0.88 * 2.0)

    def test_sale_income_rejects_bad_fraction(self, toy_model):
        with pytest.raises(SimulationError):
            toy_model.sale_income(1.5)

    def test_paper_t2_nano_example(self):
        # Section III-B: $18 upfront, half cycle left, 20% off -> $7.2
        # price, $6.336 to the seller after the 12% fee.
        from repro.pricing.plan import PricingPlan

        plan = PricingPlan(on_demand_hourly=0.0059, upfront=18.0, alpha=0.34)
        model = CostModel(plan=plan, selling_discount=0.8, marketplace_fee=0.12)
        assert model.sale_income(0.5) == pytest.approx(6.336)


class TestCostBreakdown:
    def test_total_subtracts_income(self):
        breakdown = CostBreakdown(
            on_demand=4.0, upfront=8.0, reserved_hourly=1.0, sale_income=2.0
        )
        assert breakdown.total == pytest.approx(11.0)
        assert breakdown.gross == pytest.approx(13.0)

    def test_addition(self):
        one = CostBreakdown(on_demand=1.0, upfront=2.0)
        two = CostBreakdown(reserved_hourly=3.0, sale_income=0.5)
        combined = one + two
        assert combined.total == pytest.approx(1 + 2 + 3 - 0.5)

    def test_approx_equal(self):
        one = CostBreakdown(on_demand=1.0)
        two = CostBreakdown(on_demand=1.0 + 1e-12)
        assert one.approx_equal(two)
        assert not one.approx_equal(CostBreakdown(on_demand=2.0))


class TestHourlyCosts:
    def test_records_accumulate(self, toy_model):
        costs = HourlyCosts(4)
        costs.record_upfront(0, 1, toy_model)
        costs.record_reserved_hourly(1, 2, toy_model)
        costs.record_on_demand(2, 3, toy_model)
        costs.record_sale(3, 0.5, toy_model)
        breakdown = costs.breakdown()
        assert breakdown.upfront == pytest.approx(8.0)
        assert breakdown.reserved_hourly == pytest.approx(0.5)
        assert breakdown.on_demand == pytest.approx(3.0)
        assert breakdown.sale_income == pytest.approx(2.0)
        assert costs.total == pytest.approx(8 + 0.5 + 3 - 2)

    def test_per_hour_total_is_ct_series(self, toy_model):
        costs = HourlyCosts(2)
        costs.record_upfront(0, 1, toy_model)
        costs.record_sale(1, 1.0, toy_model)
        series = costs.per_hour_total()
        assert series[0] == pytest.approx(8.0)
        assert series[1] == pytest.approx(-4.0)  # income exceeds spend
        assert series.sum() == pytest.approx(costs.total)

    @pytest.mark.parametrize("fee_mode", list(HourlyFeeMode))
    def test_timeline_books_what_the_hourly_records_book(self, toy_plan, fee_mode):
        model = CostModel(plan=toy_plan, selling_discount=0.5, fee_mode=fee_mode)
        demands = np.array([0, 3, 1, 5, 2, 0])
        active = np.array([2, 2, 1, 1, 4, 0])
        hourly = HourlyCosts(6)
        for hour, (d, r) in enumerate(zip(demands.tolist(), active.tolist())):
            hourly.record_on_demand(hour, max(0, d - r), model)
            billed = r if fee_mode is HourlyFeeMode.ACTIVE else min(d, r)
            hourly.record_reserved_hourly(hour, billed, model)
        costs = HourlyCosts(6)
        on_demand = costs.record_timeline(demands, active, model)
        assert on_demand.dtype == np.int64
        assert on_demand.tolist() == [0, 1, 0, 4, 0, 0]
        assert costs.on_demand.tobytes() == hourly.on_demand.tobytes()
        assert costs.reserved_hourly.tobytes() == hourly.reserved_hourly.tobytes()

    def test_rejects_bad_horizon(self):
        with pytest.raises(SimulationError):
            HourlyCosts(0)

    def test_fee_modes_exist(self):
        assert HourlyFeeMode.ACTIVE.value == "active"
        assert HourlyFeeMode.USAGE.value == "usage"
