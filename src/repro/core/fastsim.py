"""Array engine for the paper's Algorithm 1 / Algorithm 2, one user at a time.

The engine applies the pseudocode's decision rule on numpy arrays — the
``l`` running sum, the ``r_j − d_j − i + 1 > l_j`` freeness test, and
the history/future ``r_k`` decrements on sale — with no instance
objects. It is the per-user engine of population sweeps (the CLI's
default ``--engine user``) and supplies OPT's policy seed runs.

It is not a line-by-line rendering of the pseudocode. Two exact
collapses make its cost follow the batches, not the hours or the
instances:

1. Only decision hours are visited: ``t0 + φT`` for each ``t0`` with
   ``n[t0] > 0`` whose decision hour lands inside the horizon. Every
   other hour of the pseudocode's loop makes no decision.
2. Each batch is decided from one sorted slack vector
   ``c = r_eff − d − l`` over its window ``[t0, t0 + φT)``. While every
   earlier instance of the batch has sold, instance ``i`` sees ``r_eff``
   lowered by ``i − 1``, so it is free at hour ``k`` iff
   ``c_k > 2(i − 1)`` and its working time is ``#{c ≤ 2(i − 1)}``: one
   ``searchsorted`` covers the batch. Working time never falls within a
   batch (a kept instance leaves ``r_eff`` alone, a sale lowers it), so
   the instances sold are the leading run passing ``working < scale·β``
   and the history rewrite applies once per batch.

The pseudocode-literal loop — every hour, one window scan per instance,
one rewrite per sale — is kept as the test reference
(``tests/core/fastsim_reference.py``), and every :class:`FastResult`
field must equal it bit for bit. The object-model
:class:`~repro.core.simulator.SellingSimulator` stays the readable
oracle both engines are equivalence-tested against.

One deliberate clarification shared by both engines (see DESIGN.md §4): a
sale at decision hour ``t`` takes effect at the start of ``t`` (the
pseudocode decrements from ``t + 1``), which matches the cost expressions
of the analysis (Eq. (15): the instance serves nothing after the spot).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from repro._arrays import as_count_array
from repro.core.account import CostBreakdown, CostModel, HourlyFeeMode
from repro.core.breakeven import (
    break_even_working_hours,
    validate_phi,
    validate_threshold_scale,
)
from repro.core.cancellation import (
    CancellationModel,
    Rebuy,
    SoldUnit,
    apply_rebuys,
)
from repro.core.clearing import ClearingModel, ClearingProfile
from repro.errors import SimulationError

#: Version of the fast engine's numerical behaviour. Part of the sweep
#: cache key (see :mod:`repro.parallel.cache`): bump it whenever a change
#: here could alter any :class:`FastResult`, so stale cached outcomes are
#: invalidated (``tests/core/test_engine_version.py`` pins a digest of
#: the outputs to this number). v2 = the incremental running-sum ``l``
#: computation.
ENGINE_VERSION = 2


class FastPolicyKind(enum.Enum):
    """The decision rules the fast engine supports."""

    ONLINE = "online"  # Algorithm 1/2: sell iff working time < beta
    ALL_SELLING = "all-selling"  # benchmark: always sell at the spot
    KEEP_RESERVED = "keep-reserved"  # benchmark: never sell


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


@dataclass(frozen=True)
class FastResult:
    """Outputs of one fast-engine run."""

    breakdown: CostBreakdown
    sales: tuple[FastSale, ...]
    on_demand: np.ndarray
    r_physical: np.ndarray
    #: Listing lifecycle records; empty when no clearing model was given
    #: (instant sales, the paper's semantics).
    listings: tuple[FastListing, ...] = ()
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


def run_fast(
    demands: np.ndarray,
    reservations: np.ndarray,
    model: CostModel,
    phi: float = 0.75,
    kind: FastPolicyKind = FastPolicyKind.ONLINE,
    threshold_scale: float = 1.0,
    *,
    clearing: "ClearingModel | None" = None,
    clearing_key: object = 0,
    cancellation: "CancellationModel | None" = None,
) -> FastResult:
    """Run one selling policy over ``(d, n)`` with the array engine.

    ``phi`` selects the decision spot (0.75 → Algorithm 1's ``A_{3T/4}``,
    0.5 → Algorithm 2's ``A_{T/2}``, 0.25 → ``A_{T/4}``); it is ignored
    for ``KEEP_RESERVED``.

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
    d = as_count_array(demands, "demands", SimulationError)
    n = as_count_array(reservations, "reservations", SimulationError)
    if d.ndim != 1 or n.ndim != 1 or d.size != n.size:
        raise SimulationError(
            "demands and reservations must be 1-D arrays of equal length"
        )
    if np.any(d < 0) or np.any(n < 0):
        raise SimulationError("demands and reservations must be non-negative")
    horizon = d.size
    period = model.period
    if kind is not FastPolicyKind.KEEP_RESERVED:
        validate_phi(phi)
    validate_threshold_scale(threshold_scale, SimulationError)
    if clearing is not None and not isinstance(clearing, ClearingModel):
        raise SimulationError(
            f"clearing must be a ClearingModel or None, got "
            f"{type(clearing).__name__}"
        )
    if cancellation is not None and not isinstance(cancellation, CancellationModel):
        raise SimulationError(
            f"cancellation must be a CancellationModel or None, got "
            f"{type(cancellation).__name__}"
        )

    decision_age = round(phi * period)
    beta = break_even_working_hours(model.plan, model.selling_discount, phi)

    # Active-reservation timelines: physical for costs, effective (with the
    # pseudocode's history rewrites) for decisions.
    r_physical = np.zeros(horizon, dtype=np.int64)
    r_effective = np.zeros(horizon, dtype=np.int64)
    for start in np.flatnonzero(n):
        end = min(int(start) + period, horizon)
        r_physical[start:end] += n[start]
        r_effective[start:end] += n[start]

    sales: list[FastSale] = []
    listings: list[FastListing] = []
    # Cleared listings as (clear_hour, creation_seq, income): income is
    # accumulated in clearing order, matching the streaming tracker's
    # book-at-clear-hour order; in the instant limit every delay is 0 so
    # this collapses to today's decision-order accumulation.
    cleared_entries: "list[tuple[int, int, float]]" = []
    income = 0.0
    evaluate = (
        kind is not FastPolicyKind.KEEP_RESERVED
        and 0 < decision_age < period
    )
    clear_profile: "ClearingProfile | None" = None
    clear_rng: "np.random.Generator | None" = None
    if clearing is not None and evaluate:
        clear_profile = clearing.profile(
            model.selling_discount, period, decision_age
        )
        clear_rng = clearing.stream(clearing_key)
    if evaluate:
        remaining_fraction = 1.0 - decision_age / period
        per_sale_income = model.sale_income(remaining_fraction)
        # The pseudocode recomputes the ``l`` running sum over the
        # effective schedule ``n_k`` with a fresh cumsum at every decision
        # hour. But its ``n_k`` decrements only ever touch index ``t0``,
        # at hour ``t0 + decision_age`` — strictly after every window
        # ``(t0', t')`` with ``t0' < t0`` has closed and strictly before
        # any window with ``t0' > t0`` opens reads below ``t0' + 1`` — so
        # inside any window the effective schedule equals the original
        # ``n`` and the whole family of per-hour cumulative sums collapses
        # into one prefix sum computed once per run.
        n_prefix = np.concatenate(([0], np.cumsum(n)))
        # Hours without a batch are "no need to make decisions at this
        # moment"; visit only the batches decided inside the horizon.
        for t0 in np.flatnonzero(n[: max(horizon - decision_age, 0)]).tolist():
            t = t0 + decision_age
            batch = int(n[t0])
            # Instance i is free at hour k iff r_eff_k − d_k − i + 1 > l_k.
            # While its i − 1 predecessors have all sold, r_eff sits i − 1
            # lower, so that is slack_k > 2(i − 1): each working time is a
            # count of the sorted slack, non-decreasing over the batch.
            slack = np.sort(
                r_effective[t0:t]
                - d[t0:t]
                - (n_prefix[t0 + 1:t + 1] - n_prefix[t0 + 1])
            )
            working = np.searchsorted(slack, 2 * np.arange(batch), side="right")
            if kind is FastPolicyKind.ONLINE:
                # The first kept instance leaves r_eff alone, so every
                # later one works at least as long and is kept too: the
                # sales are the leading run that passes the test.
                sold = int(np.count_nonzero(working < threshold_scale * beta))
            else:  # ALL_SELLING
                sold = batch
            if sold == 0:
                continue
            end = min(t0 + period, horizon)
            r_effective[t0:end] -= sold  # history rewrite (lines 17-21)
            if clear_profile is None:
                r_physical[t:end] -= sold  # future: the units stop serving
            for i, hours in enumerate(working[:sold].tolist(), start=1):
                sales.append(
                    FastSale(
                        reserved_at=t0, batch_index=i, hour=t, working_hours=hours
                    )
                )
                if clear_profile is None:
                    income += per_sale_income
                    continue
                # Clearing: the decision opened a listing. The unit keeps
                # serving (and billing) until the drawn clearing hour; a
                # draw of the full window means it never clears.
                delay = clear_profile.sample_delay(clear_rng.random())
                seq = len(listings)
                if delay < clear_profile.window:
                    clear_at = t + delay
                    if clear_at < horizon:
                        r_physical[clear_at:end] -= 1
                        clear_fraction = 1.0 - (clear_at - t0) / period
                        sale_value = (
                            (1.0 - model.marketplace_fee)
                            * float(clear_profile.discounts[delay])
                            * clear_fraction
                            * model.big_r
                        )
                        cleared_entries.append((clear_at, seq, sale_value))
                        listings.append(
                            FastListing(
                                reserved_at=t0,
                                batch_index=i,
                                listed_at=t,
                                delay=delay,
                                cleared_at=clear_at,
                                outcome="cleared",
                                income=sale_value,
                            )
                        )
                    else:
                        listings.append(
                            FastListing(
                                reserved_at=t0,
                                batch_index=i,
                                listed_at=t,
                                delay=delay,
                                cleared_at=None,
                                outcome="open",
                                income=0.0,
                            )
                        )
                else:
                    expire_at = t + clear_profile.window
                    listings.append(
                        FastListing(
                            reserved_at=t0,
                            batch_index=i,
                            listed_at=t,
                            delay=delay,
                            cleared_at=None,
                            outcome="expired" if expire_at < horizon else "open",
                            income=0.0,
                        )
                    )
        for _clear_at, _seq, sale_value in sorted(cleared_entries):
            income += sale_value

    rebuys: "tuple[Rebuy, ...]" = ()
    rebuy_cost = 0.0
    if cancellation is not None and evaluate:
        units: "list[SoldUnit]" = []
        if clear_profile is None:
            for sale in sales:
                units.append(
                    SoldUnit(
                        reserved_at=sale.reserved_at,
                        watch_from=sale.hour,
                        term_end=min(sale.reserved_at + period, horizon),
                    )
                )
        else:
            for listing in listings:
                if listing.outcome == "cleared":
                    units.append(
                        SoldUnit(
                            reserved_at=listing.reserved_at,
                            watch_from=listing.cleared_at,
                            term_end=min(listing.reserved_at + period, horizon),
                        )
                    )
        outcome = apply_rebuys(d, r_physical, units, period, model, cancellation)
        r_physical = outcome.r_after
        rebuys = outcome.rebuys
        rebuy_cost = outcome.rebuy_cost

    on_demand = np.maximum(d - r_physical, 0)
    if model.fee_mode is HourlyFeeMode.ACTIVE:
        billed_hours = int(r_physical.sum())
    else:
        billed_hours = int(np.minimum(d, r_physical).sum())
    breakdown = CostBreakdown(
        on_demand=float(on_demand.sum()) * model.p,
        upfront=float(n.sum()) * model.big_r,
        reserved_hourly=billed_hours * model.alpha * model.p,
        sale_income=income,
        rebuy=rebuy_cost,
    )
    return FastResult(
        breakdown=breakdown,
        sales=tuple(sales),
        on_demand=on_demand,
        r_physical=r_physical,
        listings=tuple(listings),
        rebuys=rebuys,
    )
