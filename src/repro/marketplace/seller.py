"""Seller-side pricing strategies and the discount/latency trade-off.

The paper motivates the selling discount ``a`` with speed: "to attract
users and sell faster, the seller can set a discount of its required
upfront fee" (Section III-B). This module provides:

* :class:`FixedDiscountSeller` — list at ``a ×`` the prorated cap and
  wait (the behaviour Eq. (1) assumes);
* :class:`AdaptiveDiscountSeller` — start near the cap and cut the price
  while unsold (a common real-marketplace tactic);
* :class:`LadderDiscountSeller` — re-list at stepped-down rungs on a
  fixed cadence (the "cancel and re-list cheaper" tactic arXiv
  2005.12249 observes in listing histories);
* :class:`SaleLatencyModel` — a reduced-form hazard model of how long a
  listing waits before selling as a function of its discount, fitted to
  whatever :func:`~repro.marketplace.market.simulate_market` produces.

The price-cutting sellers are promoted into the decision engines via
:meth:`~AdaptiveDiscountSeller.as_discount_schedule`: the returned
:class:`~repro.core.clearing.DiscountSchedule` drops into a
:class:`~repro.core.clearing.ClearingModel` and from there into
``run_fast``/``run_population``/``repro.serve`` unchanged.
"""

from __future__ import annotations

import abc
import math
from dataclasses import dataclass

import numpy as np

from repro._arrays import as_int
from repro.core.clearing import (
    SCHEDULE_ADAPTIVE,
    SCHEDULE_LADDER,
    DiscountSchedule,
)
from repro.errors import MarketplaceError, SimulationError


def _require_finite(name: str, value: float) -> float:
    """Non-finite rates silently pass ordering checks (``nan <= 0`` is
    false), so every numeric field is gated here first."""
    try:
        value = float(value)
    except (TypeError, ValueError) as error:
        raise SimulationError(f"{name} must be a number, got {value!r}") from error
    if not math.isfinite(value):
        raise SimulationError(f"{name} must be finite, got {value!r}")
    return value


class SellerStrategy(abc.ABC):
    """Chooses the asking price for a listing over time."""

    @abc.abstractmethod
    def asking_price(self, prorated_cap: float, hours_listed: int) -> float:
        """Price to ask given the cap and how long the listing has waited."""


@dataclass(frozen=True)
class FixedDiscountSeller(SellerStrategy):
    """Always ask ``discount × cap`` — the paper's constant ``a``."""

    discount: float = 0.8

    def __post_init__(self) -> None:
        _require_finite("discount", self.discount)
        if not 0.0 <= self.discount <= 1.0:
            raise MarketplaceError(f"discount must lie in [0, 1], got {self.discount!r}")

    def asking_price(self, prorated_cap: float, hours_listed: int) -> float:
        if prorated_cap < 0:
            raise MarketplaceError(f"prorated_cap must be >= 0, got {prorated_cap!r}")
        return self.discount * prorated_cap

    def as_discount_schedule(self) -> DiscountSchedule:
        """This seller as a clearing-engine discount schedule."""
        return DiscountSchedule(start_discount=self.discount)


@dataclass(frozen=True)
class AdaptiveDiscountSeller(SellerStrategy):
    """Start at ``start_discount`` and decay toward ``floor_discount``.

    The price is cut by ``decay_per_day`` (relative) for every 24 hours
    the listing stays open, never below the floor.
    """

    start_discount: float = 1.0
    floor_discount: float = 0.5
    decay_per_day: float = 0.05

    def __post_init__(self) -> None:
        for name in ("start_discount", "floor_discount", "decay_per_day"):
            _require_finite(name, getattr(self, name))
        if not 0.0 <= self.floor_discount <= self.start_discount <= 1.0:
            raise MarketplaceError(
                "need 0 <= floor_discount <= start_discount <= 1, got "
                f"floor={self.floor_discount!r} start={self.start_discount!r}"
            )
        if not 0.0 <= self.decay_per_day < 1.0:
            raise MarketplaceError(
                f"decay_per_day must lie in [0, 1), got {self.decay_per_day!r}"
            )

    def asking_price(self, prorated_cap: float, hours_listed: int) -> float:
        if hours_listed < 0:
            raise MarketplaceError(f"hours_listed must be >= 0, got {hours_listed!r}")
        days = hours_listed / 24.0
        discount = self.start_discount * (1.0 - self.decay_per_day) ** days
        return max(discount, self.floor_discount) * prorated_cap

    def as_discount_schedule(self) -> DiscountSchedule:
        """This seller as a clearing-engine discount schedule."""
        return DiscountSchedule(
            kind=SCHEDULE_ADAPTIVE,
            start_discount=self.start_discount,
            floor_discount=self.floor_discount,
            decay_per_day=self.decay_per_day,
        )

    def as_selling_policy(self, phi: float):
        """Promote to a first-class policy deciding at fraction ``phi``."""
        from repro.core.policies import ListedSellingPolicy

        return ListedSellingPolicy(phi, self.as_discount_schedule())


@dataclass(frozen=True)
class LadderDiscountSeller(SellerStrategy):
    """Re-list down a fixed ladder of discounts every ``step_hours``.

    Real sellers rarely reprice continuously: they cancel an unsold
    listing after a week or two and re-list it cheaper. The ladder holds
    its last rung once exhausted.
    """

    ladder: "tuple[float, ...]" = (1.0, 0.85, 0.7)
    step_hours: int = 168

    def __post_init__(self) -> None:
        if not self.ladder:
            raise MarketplaceError("ladder must be a non-empty tuple of discounts")
        for index, rung in enumerate(self.ladder):
            _require_finite(f"ladder[{index}]", rung)
            if not 0.0 <= rung <= 1.0:
                raise MarketplaceError(
                    f"ladder[{index}] must lie in [0, 1], got {rung!r}"
                )
        if as_int(self.step_hours, "step_hours", SimulationError) < 1:
            raise MarketplaceError(
                f"step_hours must be >= 1, got {self.step_hours!r}"
            )

    def asking_price(self, prorated_cap: float, hours_listed: int) -> float:
        if hours_listed < 0:
            raise MarketplaceError(f"hours_listed must be >= 0, got {hours_listed!r}")
        rung = min(hours_listed // self.step_hours, len(self.ladder) - 1)
        return self.ladder[rung] * prorated_cap

    def as_discount_schedule(self) -> DiscountSchedule:
        """This seller as a clearing-engine discount schedule."""
        return DiscountSchedule(
            kind=SCHEDULE_LADDER,
            ladder=self.ladder,
            step_hours=self.step_hours,
        )

    def as_selling_policy(self, phi: float):
        """Promote to a first-class policy deciding at fraction ``phi``."""
        from repro.core.policies import ListedSellingPolicy

        return ListedSellingPolicy(phi, self.as_discount_schedule())


@dataclass(frozen=True)
class SaleLatencyModel:
    """Reduced-form time-to-sale: exponential with discount-driven hazard.

    The per-hour sale hazard is ``base_hazard × exp(sensitivity × (1 − a))``
    where ``a`` is the listing's effective discount — cheaper listings
    (smaller ``a``) jump the price-priority queue and sell faster.
    """

    base_hazard: float = 0.02
    sensitivity: float = 4.0

    def __post_init__(self) -> None:
        _require_finite("base_hazard", self.base_hazard)
        _require_finite("sensitivity", self.sensitivity)
        if self.base_hazard <= 0:
            raise MarketplaceError(
                f"base_hazard must be positive, got {self.base_hazard!r}"
            )
        if self.sensitivity < 0:
            raise MarketplaceError(
                f"sensitivity must be >= 0, got {self.sensitivity!r}"
            )

    def hazard(self, discount: float) -> float:
        """Per-hour sale probability for effective discount ``a``."""
        _require_finite("discount", discount)
        if not 0.0 <= discount <= 1.0:
            raise MarketplaceError(f"discount must lie in [0, 1], got {discount!r}")
        return min(self.base_hazard * math.exp(self.sensitivity * (1.0 - discount)), 1.0)

    def expected_hours_to_sale(self, discount: float) -> float:
        """Mean waiting time at a constant discount."""
        return 1.0 / self.hazard(discount)

    def sample_hours_to_sale(self, discount: float, rng: np.random.Generator) -> int:
        """Draw a geometric waiting time (hours) at a constant discount."""
        return int(rng.geometric(self.hazard(discount)))
