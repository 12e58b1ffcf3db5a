"""Algorithm 1/2 for one user: the record-building frontend of the engine.

:func:`run_fast` runs one selling policy over one user's ``(d, n)``
pair — the per-user sweeps (the CLI's default ``--engine user``), OPT's
policy seed runs and the ablations call it. It checks its 1-D input,
hands the pair to :func:`repro.core.popsim.run_block` as a one-row
block, and builds :class:`FastResult` from what the engine returns: the
cost breakdown, the hourly timelines, the re-buys, and the per-sale
records — one :class:`FastSale` per sale (with its batch index and
working hours) and, under clearing, one :class:`FastListing` each.
The records are built on first read: a caller that reads only costs
and counts, as the sweeps do, builds none. A caller that runs several
policies over one user prepares the row once with
:func:`repro.core.popsim.prepare_population` and passes it as
``precomputed=``. How the engine decides a batch, and why one row keeps
its own per-batch loop, is described in :mod:`repro.core.popsim`.

The pseudocode-literal loop — every hour, one window scan per instance,
one rewrite per sale — is kept as the test reference
(``tests/core/fastsim_reference.py``), and every :class:`FastResult`
field must equal it bit for bit.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from typing import Callable, Iterator, cast

import numpy as np

from repro._arrays import as_count_array
from repro.core.account import CostBreakdown, CostModel
from repro.core.cancellation import CancellationModel, Rebuy
from repro.core.cancellation import apply_rebuys  # noqa: F401 - perfbench traces it here
from repro.core.clearing import ClearingModel
from repro.core.popsim import (
    FastPolicyKind,
    Listings,
    PopulationPrecompute,
    RowRecords,
    check_precomputed,
    run_block,
)
from repro.errors import SimulationError

#: Version of the batch engine's numerical behaviour. Part of the sweep
#: cache key (see :mod:`repro.parallel.cache`): bump it whenever a change
#: to the engine could alter any :class:`FastResult`, so stale cached
#: outcomes are invalidated (``tests/core/test_engine_version.py`` pins a
#: digest of the outputs to this number). v2 = the incremental
#: running-sum ``l`` computation.
ENGINE_VERSION = 2


@dataclass(frozen=True)
class FastSale:
    """One sale performed by the fast engine."""

    reserved_at: int
    batch_index: int  # the pseudocode's i (1-based)
    hour: int
    working_hours: int


@dataclass(frozen=True)
class FastListing:
    """One marketplace listing opened by a SELL decision under clearing.

    ``delay`` is the drawn open-hours-to-clear; a draw of the full
    clearing window means the listing never clears (it expires back to
    KEEP at ``listed_at + window``). ``outcome`` is what the horizon
    actually observed: ``"cleared"`` (income booked at ``cleared_at``),
    ``"expired"`` (window closed unsold inside the horizon), or
    ``"open"`` (still on the book when the simulation ended — no income,
    the unit kept serving).
    """

    reserved_at: int
    batch_index: int
    listed_at: int
    delay: int
    cleared_at: "int | None"
    outcome: str
    income: float


class RecordSequence(Sequence):
    """An immutable sequence of records built on first read.

    Its length is known up front; the items are built by ``build(*args)``
    the first time any is read, then cached. It compares equal to the
    tuple of the same items, so a :class:`FastResult` with built-on-read
    records equals one built from plain tuples.
    """

    __slots__ = ("_size", "_build", "_args", "_items")

    def __init__(self, size: int, build: "Callable[..., tuple]", *args: object) -> None:
        self._size = size
        self._build = build
        self._args = args
        self._items: "tuple | None" = None

    def _tuple(self) -> tuple:
        if self._items is None:
            self._items = self._build(*self._args)
        return self._items

    def __len__(self) -> int:
        return self._size

    def __getitem__(self, index: "int | slice") -> object:
        return self._tuple()[index]

    def __iter__(self) -> "Iterator":
        return iter(self._tuple())

    def __eq__(self, other: object) -> bool:
        if isinstance(other, (tuple, RecordSequence)):
            return self._tuple() == tuple(other)
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._tuple())

    def __repr__(self) -> str:
        return repr(self._tuple())


@dataclass(frozen=True)
class FastResult:
    """Outputs of one fast-engine run.

    ``run_fast`` hands ``sales`` and ``listings`` over as
    :class:`RecordSequence` objects, built from the engine's arrays the
    first time they are read; their lengths, and so
    :attr:`instances_sold`, need no build.
    """

    breakdown: CostBreakdown
    sales: "Sequence[FastSale]"
    on_demand: np.ndarray
    r_physical: np.ndarray
    #: Listing lifecycle records; empty when no clearing model was given
    #: (instant sales, the paper's semantics).
    listings: "Sequence[FastListing]" = ()
    #: Buy-backs executed by a cancellation-aware run; empty without a
    #: cancellation model.
    rebuys: "tuple[Rebuy, ...]" = ()

    @property
    def total_cost(self) -> float:
        return self.breakdown.total

    @property
    def instances_sold(self) -> int:
        return len(self.sales)

    @property
    def instances_cleared(self) -> int:
        """Sales that actually cleared on the marketplace.

        Without a clearing model every sale clears instantly, so this
        equals :attr:`instances_sold`.
        """
        if not self.listings:
            return len(self.sales)
        return sum(1 for listing in self.listings if listing.outcome == "cleared")

    @property
    def listings_expired(self) -> int:
        return sum(1 for listing in self.listings if listing.outcome == "expired")

    @property
    def listings_open(self) -> int:
        return sum(1 for listing in self.listings if listing.outcome == "open")

    @property
    def instances_rebought(self) -> int:
        """Sold units bought back by the cancellation rule."""
        return len(self.rebuys)


def _build_sales(records: RowRecords) -> "tuple[FastSale, ...]":
    """One :class:`FastSale` per sale, in decision order."""
    sales: "list[FastSale]" = []
    previous, batch_index = -1, 0
    for t0, hours in zip(records.sale_t0.tolist(), records.working_hours.tolist()):
        # Sales come in decision order: a batch is a run of equal t0.
        batch_index = batch_index + 1 if t0 == previous else 1
        previous = t0
        sales.append(
            FastSale(
                reserved_at=t0,
                batch_index=batch_index,
                hour=t0 + records.decision_age,
                working_hours=hours,
            )
        )
    return tuple(sales)


def _build_listings(
    listed: Listings, sales: "Sequence[FastSale]"
) -> "tuple[FastListing, ...]":
    """One :class:`FastListing` per sale, aligned with ``sales``."""
    return tuple(
        FastListing(
            reserved_at=sale.reserved_at,
            batch_index=sale.batch_index,
            listed_at=sale.hour,
            delay=delay,
            cleared_at=clear_at if cleared else None,
            outcome="cleared" if cleared else "expired" if expired else "open",
            income=income,
        )
        for sale, delay, clear_at, cleared, expired, income in zip(
            sales,
            listed.delay.tolist(),
            listed.clear_at.tolist(),
            listed.cleared.tolist(),
            listed.expired.tolist(),
            listed.income.tolist(),
        )
    )


def run_fast(
    demands: np.ndarray,
    reservations: np.ndarray,
    model: CostModel,
    phi: float = 0.75,
    kind: FastPolicyKind = FastPolicyKind.ONLINE,
    threshold_scale: float = 1.0,
    *,
    precomputed: "PopulationPrecompute | None" = None,
    clearing: "ClearingModel | None" = None,
    clearing_key: object = 0,
    cancellation: "CancellationModel | None" = None,
) -> FastResult:
    """Run one selling policy over ``(d, n)`` with the array engine.

    ``phi`` selects the decision spot (0.75 → Algorithm 1's ``A_{3T/4}``,
    0.5 → Algorithm 2's ``A_{T/2}``, 0.25 → ``A_{T/4}``); it is ignored
    for ``KEEP_RESERVED``.

    ``precomputed`` takes a one-row :func:`repro.core.popsim.prepare_population`
    block, as ``run_population`` does: ``demands`` and ``reservations``
    are then ignored, and a block of another row count or prepared for
    another period is refused. Several policies over one user share
    the checks and the precomputed row this way.

    With a :class:`~repro.core.clearing.ClearingModel`, SELL decisions
    open listings instead of completing: the decision sequence itself is
    unchanged (the pseudocode's history rewrite happens at the decision,
    exactly as the seller stops *counting* the unit), but the physical
    timeline keeps serving — and billing — until the drawn clearing
    hour, income is booked at the cleared discount on the remaining
    fraction *at the clearing hour*, and listings whose window closes
    unsold revert to KEEP. ``clearing_key`` selects the per-user uniform
    stream (``clearing.stream(clearing_key)``; one draw per sale). In
    the ``instant`` regime every draw yields delay 0 and the result is
    bit-identical to ``clearing=None``.

    With a :class:`~repro.core.cancellation.CancellationModel`, sold
    units may be bought back when demand returns (the static rank rule
    of :mod:`repro.core.cancellation`): the decision sequence — and
    therefore ``sales`` and ``listings`` — is *identical* to the
    cancellation-free run, but ``r_physical`` regains each re-bought
    unit from its re-buy hour, the breakdown's ``rebuy`` component books
    the buy-back prices, and on-demand/billed hours are recomputed from
    the repaired timeline.
    """
    if precomputed is None:
        d = as_count_array(demands, "demands", SimulationError)
        n = as_count_array(reservations, "reservations", SimulationError)
        if d.ndim != 1 or n.ndim != 1 or d.size != n.size:
            raise SimulationError(
                "demands and reservations must be 1-D arrays of equal length"
            )
        if np.any(d < 0) or np.any(n < 0):
            raise SimulationError("demands and reservations must be non-negative")
        precomputed = PopulationPrecompute(d[None], n[None], model.period)
    else:
        if precomputed.demands.shape[0] != 1:
            raise SimulationError(
                "precomputed must be a one-row block, got "
                f"{precomputed.demands.shape[0]} rows"
            )
        check_precomputed(precomputed, model.period)
    result, row = run_block(
        precomputed,
        model,
        phi,
        kind,
        threshold_scale,
        clearing=clearing,
        clearing_keys=[clearing_key],
        cancellation=cancellation,
    )
    records = cast(RowRecords, row)  # a one-row block always has them
    sales = RecordSequence(records.sale_t0.size, _build_sales, records)
    return FastResult(
        breakdown=result.breakdown(0),
        sales=sales,
        on_demand=records.on_demand,
        r_physical=records.r_physical,
        listings=(
            ()
            if records.listings is None
            else RecordSequence(len(sales), _build_listings, records.listings, sales)
        ),
        rebuys=records.rebuys,
    )
