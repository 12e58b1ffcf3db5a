"""Market simulation with live repricing sellers.

:func:`simulate_market` (the base model) lists every reservation once at
a fixed price. Real sellers cut prices while unsold — the behaviour
:class:`~repro.marketplace.seller.AdaptiveDiscountSeller` encodes. This
module closes the loop: each hour, every unsold listing is repriced by
its seller's strategy (subject to the prorated cap, which *shrinks* as
the remaining period burns down), then the arriving buyers are matched.

The headline question it answers: how much proceeds does a patient
(start-high, decay) seller give up or gain versus the paper's fixed
``a`` — and how much faster does either sell.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro._arrays import as_int
from repro.errors import MarketplaceError, SimulationError
from repro.marketplace.listing import SERVICE_FEE_RATE, Listing
from repro.marketplace.market import BuyerArrivalProcess, Marketplace
from repro.marketplace.seller import SellerStrategy


@dataclass
class ManagedListing:
    """A listing whose price is managed over time by a strategy."""

    original_upfront: float
    period_hours: int
    listed_at: int
    remaining_at_listing: int
    strategy: SellerStrategy
    seller_id: str = "seller"
    instance_type: str = "d2.xlarge"
    sold_at: "int | None" = field(default=None)
    sale_price: float = 0.0

    def remaining_hours(self, hour: int) -> int:
        """Remaining reservation hours at ``hour`` (burns down live)."""
        return self.remaining_at_listing - (hour - self.listed_at)

    def cap(self, hour: int) -> float:
        """The live prorated price cap at ``hour``."""
        return self.original_upfront * self.remaining_hours(hour) / self.period_hours

    def price(self, hour: int) -> float:
        """Strategy price, clipped to the live prorated cap."""
        asked = self.strategy.asking_price(self.cap(hour), hour - self.listed_at)
        return min(asked, self.cap(hour))


@dataclass(frozen=True)
class RepricingOutcome:
    """Result of one repricing-market simulation."""

    hours: int
    listings: int
    sold: int
    total_proceeds: float
    mean_time_to_sale: float

    @property
    def sell_through(self) -> float:
        return self.sold / self.listings if self.listings else 0.0


def simulate_repricing_market(
    listings: list[ManagedListing],
    buyers: BuyerArrivalProcess,
    hours: int,
    rng: np.random.Generator,
    service_fee_rate: float = SERVICE_FEE_RATE,
) -> RepricingOutcome:
    """Run ``hours`` of buyer arrivals with per-hour repricing.

    A listing leaves the market when its remaining period burns out.
    """
    as_int(hours, "hours", SimulationError)
    if hours <= 0:
        raise MarketplaceError(f"hours must be positive, got {hours!r}")
    proceeds = 0.0
    waits: list[int] = []
    sold = 0
    for hour in range(hours):
        open_now = [
            item
            for item in listings
            if item.sold_at is None
            and item.listed_at <= hour
            and item.remaining_hours(hour) > 0
        ]
        if not open_now:
            continue
        # Rebuild the book at this hour's prices (lowest first).
        market = Marketplace(service_fee_rate=service_fee_rate)
        book: dict[int, ManagedListing] = {}
        for item in open_now:
            listing = Listing(
                seller_id=item.seller_id,
                instance_type=item.instance_type,
                original_upfront=item.original_upfront,
                period_hours=item.period_hours,
                remaining_hours=item.remaining_hours(hour),
                asking_upfront=item.price(hour),
                listed_at=item.listed_at,
            )
            market.list_reservation(listing)
            book[listing.listing_id] = item
        for request in buyers.requests_at(hour, rng):
            report = market.fulfil(request)
            for trade in report.trades:
                managed = book[trade.listing_id]
                managed.sold_at = hour
                managed.sale_price = trade.price
                proceeds += trade.seller_proceeds
                waits.append(hour - managed.listed_at)
                sold += 1
    return RepricingOutcome(
        hours=hours,
        listings=len(listings),
        sold=sold,
        total_proceeds=proceeds,
        mean_time_to_sale=float(np.mean(waits)) if waits else float("inf"),
    )
