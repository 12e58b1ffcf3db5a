"""Cost accounting: the paper's Eq. (1) and the proofs' usage-based variant.

Eq. (1) defines the hourly cost of a user as::

    C_t = o_t * p  +  n_t * R  +  r_t * alpha * p  -  s_t * a * rp * R

on-demand purchases, new upfronts, the discounted hourly fee of every
*active* reservation (busy or idle), minus marketplace income. The
competitive-analysis sections (Eqs. (4)–(31)) instead bill the discounted
hourly fee only for *busy* hours (``alpha·p·x`` terms). Both conventions
are first-class here:

* :attr:`HourlyFeeMode.ACTIVE` — Eq. (1); used by the experiments.
* :attr:`HourlyFeeMode.USAGE` — the proof model; used when empirically
  checking the competitive-ratio bounds.

Eq. (1) books the sale income gross of Amazon's 12% service fee (the
seller's discount ``a`` absorbs it); :class:`CostModel` takes an optional
``marketplace_fee`` so the fee can be modelled explicitly (an ablation
bench sweeps it).
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from repro.errors import SimulationError
from repro.pricing.plan import PricingPlan


class HourlyFeeMode(enum.Enum):
    """How the reserved hourly fee ``alpha*p`` is billed."""

    ACTIVE = "active"  # every active reservation-hour (Eq. (1))
    USAGE = "usage"  # only busy reservation-hours (the proofs)


@dataclass(frozen=True)
class CostModel:
    """Prices one user's simulation: plan + selling terms.

    Parameters
    ----------
    plan:
        The instance type's :class:`~repro.pricing.plan.PricingPlan`.
    selling_discount:
        The paper's ``a`` ∈ [0, 1]: the seller lists at ``a`` times the
        prorated upfront.
    marketplace_fee:
        Fraction of the sale price kept by the marketplace (Amazon: 0.12).
        Defaults to 0 to match Eq. (1) exactly.
    fee_mode:
        Hourly-fee convention, see :class:`HourlyFeeMode`.
    """

    plan: PricingPlan
    selling_discount: float = 0.8
    marketplace_fee: float = 0.0
    fee_mode: HourlyFeeMode = HourlyFeeMode.ACTIVE

    def __post_init__(self) -> None:
        if not 0.0 <= self.selling_discount <= 1.0:
            raise SimulationError(
                f"selling_discount must lie in [0, 1], got {self.selling_discount!r}"
            )
        if not 0.0 <= self.marketplace_fee < 1.0:
            raise SimulationError(
                f"marketplace_fee must lie in [0, 1), got {self.marketplace_fee!r}"
            )

    # Shorthands matching the paper's symbols -----------------------------

    @property
    def p(self) -> float:
        return self.plan.on_demand_hourly

    @property
    def big_r(self) -> float:
        return self.plan.upfront

    @property
    def alpha(self) -> float:
        return self.plan.alpha

    @property
    def a(self) -> float:
        return self.selling_discount

    @property
    def period(self) -> int:
        return self.plan.period_hours

    # Pricing primitives ---------------------------------------------------

    def sale_income(self, remaining_fraction: float) -> float:
        """Seller proceeds from selling with ``remaining_fraction`` left:
        ``(1 − fee) · a · rp · R`` (the ``s_t · a · rp · R`` term)."""
        if not 0.0 <= remaining_fraction <= 1.0:
            raise SimulationError(
                f"remaining_fraction must lie in [0, 1], got {remaining_fraction!r}"
            )
        return (
            (1.0 - self.marketplace_fee)
            * self.selling_discount
            * remaining_fraction
            * self.big_r
        )


@dataclass(frozen=True)
class CostBreakdown:
    """Totals of the four Eq. (1) components over a simulation."""

    on_demand: float = 0.0
    upfront: float = 0.0
    reserved_hourly: float = 0.0
    sale_income: float = 0.0
    #: Buy-back cost of cancellation-aware policies (prorated upfront
    #: plus penalty surcharge); 0.0 for every policy that never re-buys,
    #: keeping all pre-existing constructions and totals unchanged.
    rebuy: float = 0.0

    @property
    def total(self) -> float:
        """Net cost: expenses minus marketplace income."""
        return (
            self.on_demand
            + self.upfront
            + self.reserved_hourly
            - self.sale_income
            + self.rebuy
        )

    @property
    def gross(self) -> float:
        """Expenses before marketplace income."""
        return self.on_demand + self.upfront + self.reserved_hourly + self.rebuy

    def __add__(self, other: "CostBreakdown") -> "CostBreakdown":
        if not isinstance(other, CostBreakdown):
            return NotImplemented
        return CostBreakdown(
            on_demand=self.on_demand + other.on_demand,
            upfront=self.upfront + other.upfront,
            reserved_hourly=self.reserved_hourly + other.reserved_hourly,
            sale_income=self.sale_income + other.sale_income,
            rebuy=self.rebuy + other.rebuy,
        )

    def approx_equal(self, other: "CostBreakdown", tolerance: float = 1e-9) -> bool:
        """Component-wise closeness check (for engine-equivalence tests)."""
        return all(
            math.isclose(getattr(self, name), getattr(other, name), abs_tol=tolerance)
            for name in (
                "on_demand",
                "upfront",
                "reserved_hourly",
                "sale_income",
                "rebuy",
            )
        )


class HourlyCosts:
    """Per-hour cost series of one simulation (the C_t of Eq. (1)).

    Accumulated by the simulator; exposes the component arrays and the
    aggregate :class:`CostBreakdown`.
    """

    __slots__ = (
        "horizon",
        "on_demand",
        "upfront",
        "reserved_hourly",
        "sale_income",
        "rebuy",
    )

    def __init__(self, horizon: int) -> None:
        if horizon <= 0:
            raise SimulationError(f"horizon must be positive, got {horizon!r}")
        self.horizon = horizon
        self.on_demand = np.zeros(horizon, dtype=np.float64)
        self.upfront = np.zeros(horizon, dtype=np.float64)
        self.reserved_hourly = np.zeros(horizon, dtype=np.float64)
        self.sale_income = np.zeros(horizon, dtype=np.float64)
        self.rebuy = np.zeros(horizon, dtype=np.float64)

    def record_on_demand(self, hour: int, count: int, model: CostModel) -> None:
        """Book ``o_t * p`` at ``hour``."""
        self.on_demand[hour] += count * model.p

    def record_upfront(self, hour: int, count: int, model: CostModel) -> None:
        """Book ``n_t * R`` at ``hour``."""
        self.upfront[hour] += count * model.big_r

    def record_reserved_hourly(self, hour: int, hours_billed: int, model: CostModel) -> None:
        """Book ``hours_billed`` reservation-hours at ``alpha*p`` each."""
        self.reserved_hourly[hour] += hours_billed * model.alpha * model.p

    def record_timeline(
        self, demands: np.ndarray, active: np.ndarray, model: CostModel
    ) -> np.ndarray:
        """Book every hour's ``o_t * p`` and reserved hourly fee from the
        final active-count timeline ``active`` (Eq. (1)'s ``r_t``) in one
        array pass; returns the on-demand counts ``o_t`` (``int64``).

        Each hour gets exactly what :meth:`record_on_demand` and
        :meth:`record_reserved_hourly` would book for it, with the same
        float operations. Exact for a simulation whose events change the
        timeline only from their own hour on.
        """
        needed = np.maximum(demands - active, 0)
        if model.fee_mode is HourlyFeeMode.ACTIVE:
            billed = active
        else:
            billed = np.minimum(demands, active)
        self.on_demand += needed * model.p
        self.reserved_hourly += billed * model.alpha * model.p
        return needed

    def record_sale(self, hour: int, remaining_fraction: float, model: CostModel) -> None:
        """Book one sale's income at ``hour``."""
        self.sale_income[hour] += model.sale_income(remaining_fraction)

    def record_rebuy(
        self,
        hour: int,
        remaining_fraction: float,
        penalty: float,
        model: CostModel,
    ) -> None:
        """Book one cancellation buy-back at ``hour``: the prorated
        upfront a seller pays to re-acquire a sold reservation, plus the
        ``penalty`` surcharge — ``(1 + penalty) · a · rp · R``."""
        if not 0.0 <= remaining_fraction <= 1.0:
            raise SimulationError(
                f"remaining_fraction must lie in [0, 1], got {remaining_fraction!r}"
            )
        self.rebuy[hour] += (
            (1.0 + penalty)
            * model.selling_discount
            * remaining_fraction
            * model.big_r
        )

    def record_rebuy_surcharge(
        self,
        hour: int,
        remaining_fraction: float,
        penalty: float,
        model: CostModel,
    ) -> None:
        """Book only the ``penalty`` part of a buy-back —
        ``penalty · a · rp · R`` — for the coupled loop, where the
        purchasing stepper already books the replacement reservation's
        full upfront; a zero penalty books exactly 0.0, keeping the
        penalty-free coupled run bit-identical."""
        if not 0.0 <= remaining_fraction <= 1.0:
            raise SimulationError(
                f"remaining_fraction must lie in [0, 1], got {remaining_fraction!r}"
            )
        self.rebuy[hour] += (
            penalty * model.selling_discount * remaining_fraction * model.big_r
        )

    def per_hour_total(self) -> np.ndarray:
        """The C_t series."""
        return (
            self.on_demand
            + self.upfront
            + self.reserved_hourly
            - self.sale_income
            + self.rebuy
        )

    def breakdown(self) -> CostBreakdown:
        """Aggregate the per-hour series into Eq. (1) component totals."""
        return CostBreakdown(
            on_demand=float(self.on_demand.sum()),
            upfront=float(self.upfront.sum()),
            reserved_hourly=float(self.reserved_hourly.sum()),
            sale_income=float(self.sale_income.sum()),
            rebuy=float(self.rebuy.sum()),
        )

    @property
    def total(self) -> float:
        return self.breakdown().total
