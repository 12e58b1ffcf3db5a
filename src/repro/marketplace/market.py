"""The marketplace order book: price-priority matching and buyers.

Section III-B: "the marketplace sells the reserved instance with the
lowest upfront fee at first to the buyer. If the buyer's request is not
fulfilled, the marketplace will sell the reserved instance with the next
lowest upfront fee." Ties are broken by listing time (first listed sells
first). The marketplace keeps :data:`~repro.marketplace.listing.SERVICE_FEE_RATE`
of every sale.

:class:`BuyerArrivalProcess` models demand for second-hand reservations:
buyers arrive Poisson per hour, each wanting some instances of one type
with a reservation price per unit (they accept any listing at or below
it). :class:`MarketSimulation` wires listings and buyers together to
measure time-to-sale — the mechanism behind the paper's advice that a
deeper discount ``a`` "makes the instance more attractive to buyers".
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from repro._arrays import as_int
from repro.errors import MarketplaceError, SimulationError
from repro.marketplace.listing import SERVICE_FEE_RATE, Listing


def _require_finite(name: str, value: float) -> float:
    """Non-finite inputs pass ordering checks silently (``nan <= 0`` is
    false), so every numeric field is gated here before the range tests."""
    try:
        value = float(value)
    except (TypeError, ValueError) as error:
        raise SimulationError(f"{name} must be a number, got {value!r}") from error
    if not math.isfinite(value):
        raise SimulationError(f"{name} must be finite, got {value!r}")
    return value


@dataclass(frozen=True)
class BuyRequest:
    """One buyer's request for second-hand reservations.

    ``max_unit_price`` caps the absolute price per listing. A *rational*
    buyer also values a listing by how much reservation is left in it:
    setting ``value_per_period`` makes the buyer accept a listing only if
    its asking price is at most ``value_per_period × remaining fraction``
    — a half-burned reservation is worth at most half the full-period
    value (the price logic behind the marketplace's proration cap).
    """

    buyer_id: str
    instance_type: str
    count: int
    max_unit_price: float
    hour: int = 0
    value_per_period: "float | None" = None

    def __post_init__(self) -> None:
        as_int(self.count, "count", SimulationError)
        as_int(self.hour, "hour", SimulationError)
        _require_finite("max_unit_price", self.max_unit_price)
        if self.value_per_period is not None:
            _require_finite("value_per_period", self.value_per_period)
        if self.count <= 0:
            raise MarketplaceError(f"count must be positive, got {self.count!r}")
        if self.max_unit_price < 0:
            raise MarketplaceError(
                f"max_unit_price must be >= 0, got {self.max_unit_price!r}"
            )
        if self.hour < 0:
            raise MarketplaceError(f"hour must be >= 0, got {self.hour!r}")
        if self.value_per_period is not None and self.value_per_period < 0:
            raise MarketplaceError(
                f"value_per_period must be >= 0, got {self.value_per_period!r}"
            )

    def accepts(self, listing: "Listing") -> bool:
        """Whether this buyer would take ``listing`` at its asking price."""
        if listing.asking_upfront > self.max_unit_price:
            return False
        if self.value_per_period is not None:
            fraction = listing.remaining_hours / listing.period_hours
            if listing.asking_upfront > self.value_per_period * fraction + 1e-12:
                return False
        return True


@dataclass(frozen=True)
class Trade:
    """A completed sale."""

    listing_id: int
    seller_id: str
    buyer_id: str
    instance_type: str
    hour: int
    price: float
    service_fee: float
    seller_proceeds: float


@dataclass
class FulfilmentReport:
    """Outcome of one buy request."""

    request: BuyRequest
    trades: list[Trade] = field(default_factory=list)

    @property
    def filled(self) -> int:
        return len(self.trades)

    @property
    def fully_filled(self) -> bool:
        return self.filled == self.request.count

    @property
    def total_paid(self) -> float:
        return sum(trade.price for trade in self.trades)


class Marketplace:
    """Order book for second-hand reservations of many instance types."""

    def __init__(self, service_fee_rate: float = SERVICE_FEE_RATE) -> None:
        if not 0.0 <= service_fee_rate < 1.0:
            raise MarketplaceError(
                f"service_fee_rate must lie in [0, 1), got {service_fee_rate!r}"
            )
        self.service_fee_rate = service_fee_rate
        self._books: dict[str, list[Listing]] = {}
        self._by_id: dict[int, Listing] = {}
        self.trades: list[Trade] = []

    # ------------------------------------------------------------------
    # Listings
    # ------------------------------------------------------------------

    def list_reservation(self, listing: Listing) -> None:
        """Add a listing to the order book."""
        if listing.listing_id in self._by_id:
            raise MarketplaceError(
                f"listing {listing.listing_id} is already in the marketplace"
            )
        if listing.is_sold:
            raise MarketplaceError(f"listing {listing.listing_id} is already sold")
        self._by_id[listing.listing_id] = listing
        self._books.setdefault(listing.instance_type, []).append(listing)

    def cancel(self, listing_id: int) -> Listing:
        """Withdraw an unsold listing."""
        listing = self._by_id.pop(listing_id, None)
        if listing is None:
            raise MarketplaceError(f"no open listing with id {listing_id}")
        self._books[listing.instance_type].remove(listing)
        return listing

    def open_listings(self, instance_type: str) -> list[Listing]:
        """Open listings of one type in selling-priority order:
        lowest asking first, earliest listed first among ties."""
        book = self._books.get(instance_type, [])
        return sorted(book, key=lambda item: (item.asking_upfront, item.listed_at))

    def depth(self, instance_type: str) -> int:
        """Number of open listings of one type."""
        return len(self._books.get(instance_type, []))

    # ------------------------------------------------------------------
    # Matching
    # ------------------------------------------------------------------

    def fulfil(self, request: BuyRequest) -> FulfilmentReport:
        """Match a buy request against the book (lowest upfront first).

        A value-aware request (``value_per_period`` set) may skip a cheap
        listing with little remaining period yet take a dearer one with
        more, so the scan cannot stop at the first unaffordable listing
        — only once the absolute price cap is exceeded.
        """
        report = FulfilmentReport(request=request)
        for listing in self.open_listings(request.instance_type):
            if report.filled >= request.count:
                break
            if listing.asking_upfront > request.max_unit_price:
                break  # book is sorted: every further listing costs more
            if not request.accepts(listing):
                continue  # failed the value-per-remaining test only
            listing.mark_sold(request.hour)
            self._by_id.pop(listing.listing_id)
            self._books[listing.instance_type].remove(listing)
            trade = Trade(
                listing_id=listing.listing_id,
                seller_id=listing.seller_id,
                buyer_id=request.buyer_id,
                instance_type=listing.instance_type,
                hour=request.hour,
                price=listing.asking_upfront,
                service_fee=listing.service_fee(self.service_fee_rate),
                seller_proceeds=listing.seller_proceeds(self.service_fee_rate),
            )
            self.trades.append(trade)
            report.trades.append(trade)
        return report

    # ------------------------------------------------------------------
    # Aggregates
    # ------------------------------------------------------------------

    def total_fees_collected(self) -> float:
        """Marketplace revenue: the fee cut of every completed trade."""
        return sum(trade.service_fee for trade in self.trades)

    def seller_revenue(self, seller_id: str) -> float:
        """One seller's total proceeds across completed trades."""
        return sum(
            trade.seller_proceeds
            for trade in self.trades
            if trade.seller_id == seller_id
        )


@dataclass(frozen=True)
class BuyerArrivalProcess:
    """Poisson buyer arrivals for one instance type.

    Each arriving buyer wants ``Geometric(1/mean_count)`` instances and
    accepts unit prices up to a uniform fraction of the fair prorated
    value ``reference_price`` (buyers hunt for discounts: most will not
    pay full proration).
    """

    instance_type: str
    rate_per_hour: float = 0.5
    mean_count: float = 1.5
    reference_price: float = 1000.0
    min_price_fraction: float = 0.5
    max_price_fraction: float = 1.0

    def __post_init__(self) -> None:
        for name in (
            "rate_per_hour",
            "mean_count",
            "reference_price",
            "min_price_fraction",
            "max_price_fraction",
        ):
            _require_finite(name, getattr(self, name))
        if self.rate_per_hour <= 0:
            raise MarketplaceError(
                f"rate_per_hour must be positive, got {self.rate_per_hour!r}"
            )
        if self.mean_count < 1:
            raise MarketplaceError(f"mean_count must be >= 1, got {self.mean_count!r}")
        if self.reference_price <= 0:
            raise MarketplaceError(
                f"reference_price must be positive, got {self.reference_price!r}"
            )
        if not 0 <= self.min_price_fraction <= self.max_price_fraction:
            raise MarketplaceError("price fractions must satisfy 0 <= min <= max")

    def requests_at(self, hour: int, rng: np.random.Generator) -> list[BuyRequest]:
        """Draw the buy requests arriving during ``hour``."""
        arrivals = int(rng.poisson(self.rate_per_hour))
        requests = []
        for index in range(arrivals):
            count = int(rng.geometric(1.0 / self.mean_count))
            fraction = float(
                rng.uniform(self.min_price_fraction, self.max_price_fraction)
            )
            requests.append(
                BuyRequest(
                    buyer_id=f"buyer-{hour}-{index}",
                    instance_type=self.instance_type,
                    count=count,
                    max_unit_price=fraction * self.reference_price,
                    hour=hour,
                )
            )
        return requests


@dataclass(frozen=True)
class MarketOutcome:
    """Result of a market simulation for one listing cohort."""

    hours_simulated: int
    listings: int
    sold: int
    trades: list[Trade]
    time_to_sale: dict[int, int]  # listing id -> hours from listing to sale

    @property
    def sell_through(self) -> float:
        return self.sold / self.listings if self.listings else 0.0

    def mean_time_to_sale(self) -> float:
        """Average hours from listing to sale (inf when nothing sold)."""
        if not self.time_to_sale:
            return float("inf")
        return float(np.mean(list(self.time_to_sale.values())))


def simulate_market(
    listings: list[Listing],
    buyers: BuyerArrivalProcess,
    hours: int,
    rng: np.random.Generator,
    service_fee_rate: float = SERVICE_FEE_RATE,
) -> MarketOutcome:
    """Run ``hours`` of buyer arrivals against a cohort of listings."""
    as_int(hours, "hours", SimulationError)
    if hours <= 0:
        raise MarketplaceError(f"hours must be positive, got {hours!r}")
    market = Marketplace(service_fee_rate=service_fee_rate)
    for listing in listings:
        market.list_reservation(listing)
    for hour in range(hours):
        for request in buyers.requests_at(hour, rng):
            market.fulfil(request)
    time_to_sale = {
        trade.listing_id: trade.hour - next(
            listing.listed_at
            for listing in listings
            if listing.listing_id == trade.listing_id
        )
        for trade in market.trades
    }
    return MarketOutcome(
        hours_simulated=hours,
        listings=len(listings),
        sold=len(market.trades),
        trades=market.trades,
        time_to_sale=time_to_sale,
    )
