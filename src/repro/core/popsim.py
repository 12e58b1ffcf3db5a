"""The batch engine of Algorithm 1/2: one policy over ``(users × hours)`` rows.

This is the only batch engine. :func:`run_population` runs it over a
population block, and :func:`repro.core.fastsim.run_fast` is a thin
frontend that hands it one user's row and builds its per-sale records
from what :func:`run_block` returns. For both, the engine checks the
arguments, takes the reservation prefix and the active timeline from one
:class:`PopulationPrecompute`, decides the batches, draws and prices
clearing, runs the cancellation post-pass and prices the costs.

The rule — the ``l`` running sum, the freeness test
``r_j − d_j − i + 1 > l_j`` and the history/future ``r_k`` decrements on
sale — runs on arrays, with no instance objects, and three exact
collapses make its cost follow the batches, not the hours or instances:

1. Only decision hours ``t0 + φT`` with ``n[t0] > 0`` inside the horizon
   are visited; no other hour of the pseudocode's loop decides anything.
2. A rewrite of the schedule ``n_k`` only touches ``n[t0]``, at hour
   ``t0 + φT``: after every earlier window has closed and before any
   later one reads below its own ``t0' + 1``. So ``l`` always reads the
   original ``n`` and one prefix sum serves the run: the engine keeps
   ``expression = r_eff − d − prefix[1:]``, and window ``t0``'s slack
   ``c = r_eff − d − l`` is ``expression + prefix[t0 + 1]``.
3. While every earlier instance of a batch has sold, instance ``i`` sees
   ``r_eff`` lowered by ``i − 1``: it is free at hour ``k`` iff
   ``c_k > 2(i − 1)`` and works ``#{c ≤ 2(i − 1)}`` hours. Working time
   never falls within a batch (a kept instance leaves ``r_eff`` alone, a
   sale lowers it), so the sales are the leading run passing
   ``working < scale·β`` and history is rewritten once per batch.

The decision step is chosen by row count. **One row** loops over its
batches: each sorts its window of ``expression``, one ``searchsorted``
of the shifted thresholds ``2(i − 1) − prefix[t0 + 1]`` gives every
instance's working time — the only step that yields them, and
``run_fast``'s records carry them — and rewrites go by slices. **Many
rows** run in *rounds*: users never interact, so round ``j`` decides
every user's ``j``-th batch at once, and the number sold follows from
one order statistic of the window (the ``j0``-th largest slack, ``j0``
the smallest free-hour count that still sells). The windows are read
through one strided view of ``expression`` (``sliding_window_view``,
built only when a batch decides inside the horizon, so a window always
fits): each round gathers its rows' windows into one copy and
partitions that copy in place, and the history rewrites go to
``expression``, which the view sees. All-Selling reads no window at
all. Sales settle in place: the ``(U, H + 1)`` difference array is
cumsummed in its own buffer and the active timeline added to its first
``H`` columns. Many rows count on-demand hours as ``Σd − Σmin(d, r)``,
exact in int64, which spares the ``(U × H)`` on-demand temporaries; one
row keeps ``max(d − r, 0)``, the hourly array its records carry. One
row keeps its loop because the rounds cost more on a
single user: on ``perfbench``'s ``sweep-user`` (30 paper-preset users ×
7 policies, 17,520 hours, one row per call, 2-core x86-64 host)
``run_fast`` on the rounds alone measured ``latency_norm`` 30.9 and 33.6
against 22.7 and 24.0, and the loop with a 2-D difference-array
settlement +19%. The loop with slice rewrites and one prefix sum per
call measured 20.4 against 23.1 for the previous per-user engine
(medians of 10 alternating pairs): about 160 users/s, seven policies
each.

The pseudocode-literal loop is the test reference
(``tests/core/fastsim_reference.py``): every ``run_fast`` field must
equal it bit for bit, and per user ``run_population`` must equal
``run_fast`` (``tests/core/test_popsim.py``); the object-model
:class:`~repro.core.simulator.SellingSimulator` stays the readable
oracle. Sale income is always a sequence of ``+=`` (a sequential-sum
table under instant sales, a clear-hour-ordered loop under clearing),
never ``k·income`` or a pairwise reduction. A sale at decision hour
``t`` takes effect at the start of ``t`` (the pseudocode decrements from
``t + 1``; see DESIGN.md §4), matching Eq. (15): the instance serves
nothing after the spot.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import NamedTuple

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
from repro.core.clearing import ClearingModel
from repro.core.policies import RandomizedSellingPolicy
from repro.errors import SimulationError

#: Default number of users processed per tensor block by the streaming
#: helpers (bounds peak memory at roughly ``4 × block × horizon × 8``
#: bytes of working set regardless of population size).
DEFAULT_BLOCK_USERS = 4096


class FastPolicyKind(enum.Enum):
    """The decision rules the batch engine supports."""

    ONLINE = "online"  # Algorithm 1/2: sell iff working time < beta
    ALL_SELLING = "all-selling"  # benchmark: always sell at the spot
    KEEP_RESERVED = "keep-reserved"  # benchmark: never sell


@dataclass(frozen=True)
class PopulationResult:
    """Per-user outputs of one population-tensor run (aligned arrays).

    The four cost components reproduce :class:`CostBreakdown`'s fields;
    :meth:`total_costs` applies the same expression as
    ``CostBreakdown.total`` so totals are bit-identical to per-user
    ``run_fast`` results.
    """

    kind: FastPolicyKind
    phi: float
    on_demand: np.ndarray  # (U,) float64 — o_t · p totals
    upfront: np.ndarray  # (U,) float64 — n_t · R totals
    reserved_hourly: np.ndarray  # (U,) float64 — billed hours · α · p
    sale_income: np.ndarray  # (U,) float64
    instances_sold: np.ndarray  # (U,) int64
    #: Listing-lifecycle tallies, populated only when a clearing model
    #: ran (``None`` under the paper's instant-sale semantics). A SELL
    #: decision counts in ``instances_sold`` either way; under clearing
    #: it lands in exactly one of cleared/expired/open.
    instances_cleared: "np.ndarray | None" = None  # (U,) int64
    listings_expired: "np.ndarray | None" = None  # (U,) int64
    listings_open: "np.ndarray | None" = None  # (U,) int64
    #: Cancellation tallies, populated only when a
    #: :class:`~repro.core.cancellation.CancellationModel` ran.
    rebuy: "np.ndarray | None" = None  # (U,) float64 — buy-back cost totals
    instances_rebought: "np.ndarray | None" = None  # (U,) int64
    #: The per-user drawn decision fraction of a randomized run
    #: (:func:`run_population_randomized`); ``phi`` is NaN in that case.
    drawn_phi: "np.ndarray | None" = None  # (U,) float64

    @property
    def n_users(self) -> int:
        return int(self.instances_sold.size)

    def total_costs(self) -> np.ndarray:
        """Per-user net cost, same evaluation order as Eq. (1)'s total."""
        totals = (
            self.on_demand + self.upfront + self.reserved_hourly - self.sale_income
        )
        if self.rebuy is not None:
            totals = totals + self.rebuy
        return totals

    def breakdown(self, user: int) -> CostBreakdown:
        """One user's :class:`CostBreakdown` (bitwise ``run_fast`` match)."""
        return CostBreakdown(
            on_demand=float(self.on_demand[user]),
            upfront=float(self.upfront[user]),
            reserved_hourly=float(self.reserved_hourly[user]),
            sale_income=float(self.sale_income[user]),
            rebuy=0.0 if self.rebuy is None else float(self.rebuy[user]),
        )

    @classmethod
    def concatenate(
        cls, results: "list[PopulationResult]"
    ) -> "PopulationResult":
        """Stitch block results (same policy) back into one population.

        Randomized blocks all carry ``phi = NaN`` and count as one run.
        """
        if not results:
            raise SimulationError("cannot concatenate zero population results")
        first = results[0]
        for other in results[1:]:
            same_phi = other.phi == first.phi or (
                math.isnan(other.phi) and math.isnan(first.phi)
            )
            if other.kind is not first.kind or not same_phi:
                raise SimulationError(
                    "population blocks ran different policies: "
                    f"{(first.kind, first.phi)} vs {(other.kind, other.phi)}"
                )
        def _cat_optional(name: str, label: str) -> "np.ndarray | None":
            present = [getattr(r, name) is not None for r in results]
            if any(present) and not all(present):
                raise SimulationError(
                    f"cannot concatenate population blocks that mix "
                    f"{label}-on and {label}-off runs"
                )
            if not all(present):
                return None
            return np.concatenate([getattr(r, name) for r in results])

        return cls(
            kind=first.kind,
            phi=first.phi,
            on_demand=np.concatenate([r.on_demand for r in results]),
            upfront=np.concatenate([r.upfront for r in results]),
            reserved_hourly=np.concatenate([r.reserved_hourly for r in results]),
            sale_income=np.concatenate([r.sale_income for r in results]),
            instances_sold=np.concatenate([r.instances_sold for r in results]),
            instances_cleared=_cat_optional("instances_cleared", "clearing"),
            listings_expired=_cat_optional("listings_expired", "clearing"),
            listings_open=_cat_optional("listings_open", "clearing"),
            rebuy=_cat_optional("rebuy", "cancellation"),
            instances_rebought=_cat_optional("instances_rebought", "cancellation"),
            drawn_phi=_cat_optional("drawn_phi", "randomized"),
        )


class PopulationPrecompute:
    """Checked tensors plus the policy-independent timelines.

    The reservation prefix ``[0, cumsum(n)]`` and the active-reservation
    timeline (each ``n[u, h]`` covers ``[h, h + T)``, so ``active[u, h]
    = prefix[u, h + 1] − prefix[u, max(h + 1 − T, 0)]``) depend on
    ``(demands, reservations, period)`` alone — nothing about φ, the
    policy kind or the threshold scale enters them. A sweep runs ~7
    policies over the *same* block, so :func:`prepare_population` lets
    callers check once and share both across every policy run of the
    block. The engine treats every held array as read-only: a run's
    slack tensor, its settled timeline and its accounting temporaries
    are its own arrays, built from these without writing to them, which
    is what keeps sharing bit-safe. Every held tensor is row-wise, so
    :meth:`take_rows` slices a prepared block exactly. The constructor
    takes already-checked ``int64`` arrays.
    """

    __slots__ = ("demands", "reservations", "period", "reservation_prefix", "active")

    def __init__(
        self, demands: np.ndarray, reservations: np.ndarray, period: int
    ) -> None:
        self.demands = demands
        self.reservations = reservations
        self.period = period
        users, horizon = reservations.shape
        prefix = np.zeros((users, horizon + 1), dtype=np.int64)
        np.cumsum(reservations, axis=1, out=prefix[:, 1:])
        active = prefix[:, 1:].copy()
        if period < horizon:
            # Reservations expiring inside the horizon stop contributing
            # at h + T; later ones run off the end.
            active[:, period:] -= prefix[:, 1 : horizon - period + 1]
        self.reservation_prefix = prefix
        self.active = active

    def take_rows(self, rows: np.ndarray) -> "PopulationPrecompute":
        """The block of ``rows`` only, sliced rather than recomputed."""
        part = object.__new__(PopulationPrecompute)
        part.demands = self.demands[rows]
        part.reservations = self.reservations[rows]
        part.period = self.period
        part.reservation_prefix = self.reservation_prefix[rows]
        part.active = self.active[rows]
        return part


def prepare_population(
    demands: np.ndarray, reservations: np.ndarray, period: int
) -> PopulationPrecompute:
    """Validate one ``(users × hours)`` block and precompute the
    policy-independent tensors, for sharing across ``run_population``
    calls (pass the result as ``precomputed=``)."""
    d = as_count_array(demands, "demands", SimulationError)
    n = as_count_array(reservations, "reservations", SimulationError)
    if d.ndim != 2 or n.ndim != 2 or d.shape != n.shape:
        raise SimulationError(
            "demands and reservations must be 2-D (users x hours) arrays "
            f"of equal shape, got {d.shape} and {n.shape}"
        )
    if np.any(d < 0) or np.any(n < 0):
        raise SimulationError("demands and reservations must be non-negative")
    if d.shape[1] == 0:
        raise SimulationError("the horizon must cover at least one hour")
    return PopulationPrecompute(d, n, period)


class _Decisions(NamedTuple):
    """What a decision step hands to the settlement."""

    total_sold: np.ndarray  # (U,) sales per user
    #: Per-sale ``(row, t0)`` events grouped by row, each user's in
    #: decision order (ascending ``t0``, then batch index); empty when
    #: neither the settlement nor the records need them.
    rows: np.ndarray
    t0: np.ndarray
    #: The physical timeline after instant sales (``precomputed.active``
    #: itself under clearing, which moves it at the clear hours instead).
    r_physical: np.ndarray  # (U, H)
    #: Each sale's working hours; only the one-row step computes them.
    working: np.ndarray


class Listings(NamedTuple):
    """Per-listing clearing outcomes, aligned with the sale events."""

    delay: np.ndarray  # drawn open hours; ``window`` = never clears
    clear_at: np.ndarray  # listing hour + delay (meaningful when cleared)
    cleared: np.ndarray  # bool — cleared inside the horizon
    expired: np.ndarray  # bool — window closed unsold inside the horizon
    income: np.ndarray  # float64 — booked income, 0.0 unless cleared


@dataclass(frozen=True)
class RowRecords:
    """One row's per-sale records, for :func:`repro.core.fastsim.run_fast`.

    Sales are in decision order (ascending ``reserved_at``, then batch
    index); under clearing ``listings`` holds one entry per sale in the
    same order. The timelines may view the block's
    :class:`PopulationPrecompute`, which ``run_fast`` builds per call.
    """

    decision_age: int
    sale_t0: np.ndarray  # (S,) int64 — each sale's reservation hour
    working_hours: np.ndarray  # (S,) int64
    listings: "Listings | None"
    rebuys: "tuple[Rebuy, ...]"
    r_physical: np.ndarray  # (H,) int64
    on_demand: np.ndarray  # (H,) int64 — hourly on-demand instances


def _sequential_income_table(per_sale_income: float, max_sales: int) -> np.ndarray:
    """``table[k]`` = ``k`` repeated float ``+=`` of ``per_sale_income``.

    ``k · income`` rounds differently in the last ulp from booking one
    sale at a time, so the exact running sums are tabulated instead
    (``max_sales`` is small: it is bounded by the largest per-user
    reservation total).
    """
    table = np.empty(max_sales + 1, dtype=np.float64)
    acc = 0.0
    for count in range(max_sales + 1):
        table[count] = acc
        acc += per_sale_income
    return table


def _row_groups(rows: np.ndarray) -> "list[tuple[int, int]]":
    """``(start, stop)`` of each run of equal rows in a row-grouped array."""
    bounds = (np.flatnonzero(np.diff(rows)) + 1).tolist()
    return list(zip([0, *bounds], [*bounds, rows.size])) if rows.size else []


def _settle(active: np.ndarray, sale_delta: np.ndarray) -> np.ndarray:
    """``active`` plus the sales' ``(U, H + 1)`` difference array, built
    in the difference array's own buffer: returns a view of its first
    ``H`` columns and never writes to ``active``."""
    np.cumsum(sale_delta, axis=1, out=sale_delta)
    settled = sale_delta[:, : active.shape[1]]
    settled += active
    return settled


def _decide_row(
    precomputed: PopulationPrecompute,
    decision_age: int,
    threshold: float,
    instant: bool,
) -> _Decisions:
    """One row: decide each batch from its sorted window of ``expression``.

    ``threshold`` is ``scale·β`` for ONLINE and ``inf`` for All-Selling,
    so ``count_nonzero(working < threshold)`` is the number sold either
    way. Under ``instant`` sales the physical timeline is rewritten by
    slices as the loop goes.
    """
    d = precomputed.demands[0]
    n = precomputed.reservations[0]
    prefix = precomputed.reservation_prefix[0]
    period = precomputed.period
    horizon = d.size
    expression = precomputed.active[0] - d - prefix[1:]
    r_physical = precomputed.active.copy() if instant else precomputed.active
    serving = r_physical[0]
    sale_t0: "list[int]" = []
    working_parts = [np.zeros(0, dtype=np.int64)]
    for t0 in np.flatnonzero(n[: max(horizon - decision_age, 0)]).tolist():
        t = t0 + decision_age
        working = np.searchsorted(
            np.sort(expression[t0:t]),
            2 * np.arange(n[t0]) - prefix[t0 + 1],
            side="right",
        )
        sold = int(np.count_nonzero(working < threshold))
        if sold == 0:
            continue
        expression[t0 : t0 + period] -= sold  # history rewrite (lines 17-21)
        if instant:
            serving[t : t0 + period] -= sold  # future: the units stop serving
        sale_t0.extend([t0] * sold)
        working_parts.append(working[:sold])
    total = len(sale_t0)
    return _Decisions(
        total_sold=np.array([total], dtype=np.int64),
        rows=np.zeros(total, dtype=np.int64),
        t0=np.array(sale_t0, dtype=np.int64),
        r_physical=r_physical,
        working=np.concatenate(working_parts),
    )


def _decide_rounds(
    precomputed: PopulationPrecompute,
    decision_age: int,
    threshold: float,
    instant: bool,
    collect_events: bool,
) -> _Decisions:
    """Many rows: round ``j`` decides every user's ``j``-th batch at once.

    The per-sale events are collected only when ``collect_events``;
    under ``instant`` sales the physical timeline gathers every sale in
    a difference array, settled in place at the end.
    """
    d = precomputed.demands
    n = precomputed.reservations
    period = precomputed.period
    users, horizon = d.shape
    r_physical = precomputed.active
    total_sold = np.zeros(users, dtype=np.int64)
    # Sales' effect on the active-instance timeline, as a difference
    # array (one extra column swallows end == horizon).
    sale_delta: "np.ndarray | None" = None
    rows_parts: "list[np.ndarray]" = []
    t0_parts: "list[np.ndarray]" = []
    if math.isfinite(threshold):
        # Largest integer working time that still sells under the strict
        # ``working < scale·β`` test (exact: ceil on floats), then the
        # smallest free-hour count F that sells (working = φT − F).
        min_selling_free = decision_age - (math.ceil(threshold) - 1)
    else:
        # All-Selling sells regardless of the free-hour count, and so
        # does ONLINE when a large finite scale overflows scale·β.
        min_selling_free = 0

    # Batches whose decision hour lands inside the horizon
    # (t0 < horizon − φT), in row-major = per-user ascending order.
    event_rows, event_t0 = np.nonzero(n[:, : max(horizon - decision_age, 0)])
    if event_rows.size == 0 or min_selling_free > decision_age:
        # No batches, or even a fully idle window (F = φT) keeps.
        pass
    elif min_selling_free <= 0:
        # Every instance of every batch sells — no window needs reading,
        # the whole run is closed-form.
        counts = n[event_rows, event_t0]
        np.add.at(total_sold, event_rows, counts)
        if instant:
            sale_delta = np.zeros((users, horizon + 1), dtype=np.int64)
            np.subtract.at(sale_delta, (event_rows, event_t0 + decision_age), counts)
            np.add.at(
                sale_delta,
                (event_rows, np.minimum(event_t0 + period, horizon)),
                counts,
            )
        if collect_events:
            rows_parts.append(np.repeat(event_rows, counts))
            t0_parts.append(np.repeat(event_t0, counts))
    else:
        if instant:
            sale_delta = np.zeros((users, horizon + 1), dtype=np.int64)
        n_prefix = precomputed.reservation_prefix
        # The window's slack is expression + n_prefix[u, t0 + 1], a
        # per-row constant that commutes with taking an order statistic,
        # so it is added to the *pivot* after the partition and only one
        # gather is needed per round. Every batch here decides inside
        # the horizon, so a window always fits; the strided view sees
        # the history rewrites made to ``expression``.
        expression = np.subtract(r_physical, d)
        expression -= n_prefix[:, 1:]
        windows = np.lib.stride_tricks.sliding_window_view(
            expression, decision_age, axis=1
        )
        events_per_user = np.bincount(event_rows, minlength=users)
        event_start = np.concatenate(([0], np.cumsum(events_per_user)))
        # j0-th largest slack value per user: the pivot deciding how
        # many batch instances clear the break-even test.
        pivot_column = decision_age - min_selling_free
        for round_index in range(int(events_per_user.max(initial=0))):
            rows = np.flatnonzero(events_per_user > round_index)
            t0 = event_t0[event_start[rows] + round_index]
            window = windows[rows, t0]  # a copy: partitioned in place
            window.partition(pivot_column, axis=1)
            pivot = window[:, pivot_column] + n_prefix[rows, t0 + 1]
            batch_sizes = n[rows, t0]
            # Selling i instances needs c_(j0) > 2(i−1): each sale both
            # advances the batch index and rewrites history.
            sold = np.where(
                pivot >= 1,
                np.minimum(batch_sizes, (pivot - 1) // 2 + 1),
                0,
            )
            sellers = np.flatnonzero(sold > 0)
            if sellers.size == 0:
                continue
            sell_rows = rows[sellers]
            sell_t0 = t0[sellers]
            sell_counts = sold[sellers]
            sell_end = np.minimum(sell_t0 + period, horizon)
            if sale_delta is not None:
                # One row per seller within a round: plain fancy
                # assignment is safe (no duplicate indices).
                sale_delta[sell_rows, sell_t0 + decision_age] -= sell_counts
                sale_delta[sell_rows, sell_end] += sell_counts
            if collect_events:
                rows_parts.append(np.repeat(sell_rows, sell_counts))
                t0_parts.append(np.repeat(sell_t0, sell_counts))
            total_sold[sell_rows] += sell_counts
            for row, start, stop, count in zip(
                sell_rows.tolist(),
                sell_t0.tolist(),
                sell_end.tolist(),
                sell_counts.tolist(),
            ):
                expression[row, start:stop] -= count

    if sale_delta is not None and total_sold.any():
        r_physical = _settle(r_physical, sale_delta)
    if rows_parts:
        # Rounds interleave users; a stable row sort restores each
        # user's (t0, batch) order.
        rows_all = np.concatenate(rows_parts)
        t0_all = np.concatenate(t0_parts)
        order = np.argsort(rows_all, kind="stable")
        rows_all, t0_all = rows_all[order], t0_all[order]
    else:
        rows_all = t0_all = np.zeros(0, dtype=np.int64)
    no_hours = np.zeros(0, dtype=np.int64)
    return _Decisions(total_sold, rows_all, t0_all, r_physical, no_hours)


def _apply_clearing(
    clearing: ClearingModel,
    clearing_keys: "list[object]",
    model: CostModel,
    decisions: _Decisions,
    decision_age: int,
    horizon: int,
) -> "tuple[Listings, np.ndarray, np.ndarray]":
    """Open one listing per sale, draw its delay and price its clearing.

    The sales arrive grouped by row in each user's decision order — the
    order the draws are consumed in — and ``Generator.random(size=k)``
    consumes a stream exactly as ``k`` scalar draws do
    (``tests/core/test_clearing.py`` pins this). Returns the listings,
    each user's income (summed in clear-hour order), and the physical
    timeline with every cleared unit leaving at its clear hour.
    """
    period = model.period
    users = decisions.total_sold.size
    profile = clearing.profile(model.selling_discount, period, decision_age)
    rows, t0 = decisions.rows, decisions.t0
    uniforms = np.empty(rows.size, dtype=np.float64)
    for start, stop in _row_groups(rows):
        user = int(rows[start])
        uniforms[start:stop] = clearing.stream(clearing_keys[user]).random(
            stop - start
        )
    delays = profile.sample_delays(uniforms)
    listed_at = t0 + decision_age
    clear_at = listed_at + delays
    has_clear_draw = delays < profile.window
    cleared = has_clear_draw & (clear_at < horizon)
    expired = ~has_clear_draw & (listed_at + profile.window < horizon)

    incomes = np.zeros(rows.size, dtype=np.float64)
    user_income = np.zeros(users, dtype=np.float64)
    r_physical = decisions.r_physical
    rows_cleared = rows[cleared]
    if rows_cleared.size:
        t0_cleared = t0[cleared]
        tc = clear_at[cleared]
        # A listed unit keeps serving until its clear hour. Several
        # listings of one user can clear the same hour, so the
        # unbuffered add is required.
        sale_delta = np.zeros((users, horizon + 1), dtype=np.int64)
        np.add.at(sale_delta, (rows_cleared, tc), -1)
        np.add.at(sale_delta, (rows_cleared, np.minimum(t0_cleared + period, horizon)), 1)
        r_physical = _settle(r_physical, sale_delta)
        # (1−fee) · a(w) · remaining · R, left to right.
        clear_fraction = 1.0 - (tc - t0_cleared) / period
        values = (
            (1.0 - model.marketplace_fee)
            * profile.discounts[delays[cleared]]
            * clear_fraction
            * model.big_r
        )
        incomes[cleared] = values
        # Book each user's income one ``+=`` at a time in (clear hour,
        # listing order): the order streaming serving books it in.
        for start, stop in _row_groups(rows_cleared):
            by_clear_hour = np.argsort(tc[start:stop], kind="stable")
            acc = 0.0
            for value in values[start:stop][by_clear_hour].tolist():
                acc += value
            user_income[int(rows_cleared[start])] = acc
    listings = Listings(delays, clear_at, cleared, expired, incomes)
    return listings, user_income, r_physical


def _apply_cancellation(
    cancellation: CancellationModel,
    model: CostModel,
    demands: np.ndarray,
    r_physical: np.ndarray,
    rows: np.ndarray,
    t0: np.ndarray,
    watch_from: np.ndarray,
) -> "tuple[np.ndarray, np.ndarray, dict[int, tuple[Rebuy, ...]]]":
    """The static re-buy rule over each user's sold units, in sale order.

    Edits ``r_physical`` in place (the caller passes a fresh array
    whenever units exist) and returns the per-user buy-back cost and
    re-buy count, and each re-buying user's :class:`Rebuy` tuple.
    """
    period = model.period
    users, horizon = demands.shape
    costs = np.zeros(users, dtype=np.float64)
    counts = np.zeros(users, dtype=np.int64)
    rebuys: "dict[int, tuple[Rebuy, ...]]" = {}
    for start, stop in _row_groups(rows):
        user = int(rows[start])
        units = [
            SoldUnit(
                reserved_at=reserved_at,
                watch_from=watch,
                term_end=min(reserved_at + period, horizon),
            )
            for reserved_at, watch in zip(
                t0[start:stop].tolist(), watch_from[start:stop].tolist()
            )
        ]
        outcome = apply_rebuys(
            demands[user], r_physical[user], units, period, model, cancellation
        )
        if outcome.rebuys:
            r_physical[user] = outcome.r_after
            costs[user] = outcome.rebuy_cost
            counts[user] = len(outcome.rebuys)
            rebuys[user] = outcome.rebuys
    return costs, counts, rebuys


def run_block(
    precomputed: PopulationPrecompute,
    model: CostModel,
    phi: float = 0.75,
    kind: FastPolicyKind = FastPolicyKind.ONLINE,
    threshold_scale: float = 1.0,
    *,
    clearing: "ClearingModel | None" = None,
    clearing_keys: "list[object] | None" = None,
    cancellation: "CancellationModel | None" = None,
) -> "tuple[PopulationResult, RowRecords | None]":
    """The engine behind :func:`run_population` and ``run_fast``.

    Checks the policy arguments, decides every batch of the block,
    settles clearing and cancellation and prices the costs. A one-row
    block also returns its :class:`RowRecords`; any other returns
    ``None`` in their place.
    """
    d = precomputed.demands
    n = precomputed.reservations
    period = precomputed.period
    users, horizon = d.shape
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
    resolved_keys: "list[object]" = []
    if clearing is not None:
        resolved_keys = (
            list(range(users)) if clearing_keys is None else list(clearing_keys)
        )
        if len(resolved_keys) != users:
            raise SimulationError(
                f"clearing_keys must have one entry per user "
                f"({users}), got {len(resolved_keys)}"
            )

    decision_age = round(phi * period)
    beta = break_even_working_hours(model.plan, model.selling_discount, phi)
    evaluate = kind is not FastPolicyKind.KEEP_RESERVED and 0 < decision_age < period
    per_sale_income = 0.0
    empty = np.zeros(0, dtype=np.int64)
    decisions = _Decisions(
        np.zeros(users, dtype=np.int64), empty, empty, precomputed.active, empty
    )
    if evaluate:
        per_sale_income = model.sale_income(1.0 - decision_age / period)
        threshold = (
            threshold_scale * beta if kind is FastPolicyKind.ONLINE else math.inf
        )
        if users == 1:
            decisions = _decide_row(
                precomputed, decision_age, threshold, clearing is None
            )
        else:
            decisions = _decide_rounds(
                precomputed,
                decision_age,
                threshold,
                clearing is None,
                clearing is not None or cancellation is not None,
            )

    r_physical = decisions.r_physical
    listings: "Listings | None" = None
    tallies: "list[np.ndarray | None]" = [None, None, None]
    if clearing is None:
        sale_income = _sequential_income_table(
            per_sale_income, int(decisions.total_sold.max(initial=0))
        )[decisions.total_sold]
    elif decisions.rows.size == 0:
        sale_income = np.zeros(users, dtype=np.float64)
        tallies = [np.zeros(users, dtype=np.int64) for _ in range(3)]
    else:
        listings, sale_income, r_physical = _apply_clearing(
            clearing, resolved_keys, model, decisions, decision_age, horizon
        )
        still_open = ~listings.cleared & ~listings.expired
        tallies = [
            np.bincount(decisions.rows[fate], minlength=users)
            for fate in (listings.cleared, listings.expired, still_open)
        ]

    rebuy_costs: "np.ndarray | None" = None
    instances_rebought: "np.ndarray | None" = None
    rebuys: "dict[int, tuple[Rebuy, ...]]" = {}
    if cancellation is not None:
        if listings is None:
            # Instant sales watch from the decision hour.
            sold_rows, sold_t0 = decisions.rows, decisions.t0
            watch_from = sold_t0 + decision_age
        else:
            # Only cleared listings sold; they watch from the clear hour.
            sold_rows = decisions.rows[listings.cleared]
            sold_t0 = decisions.t0[listings.cleared]
            watch_from = listings.clear_at[listings.cleared]
        rebuy_costs, instances_rebought, rebuys = _apply_cancellation(
            cancellation, model, d, r_physical, sold_rows, sold_t0, watch_from
        )

    billed_hours = (
        r_physical.sum(axis=1) if model.fee_mode is HourlyFeeMode.ACTIVE else None
    )
    on_demand: "np.ndarray | None" = None
    if users == 1:
        # The row's records carry the hourly on-demand array.
        on_demand = np.maximum(d - r_physical, 0)
        on_demand_hours = on_demand.sum(axis=1)
        if billed_hours is None:
            billed_hours = np.minimum(d, r_physical).sum(axis=1)
    else:
        # Σ max(d − r, 0) = Σ d − Σ min(d, r), exact in int64: one
        # (U × H) temporary instead of three.
        covered_hours = np.minimum(d, r_physical).sum(axis=1)
        on_demand_hours = d.sum(axis=1) - covered_hours
        if billed_hours is None:
            billed_hours = covered_hours
    result = PopulationResult(
        kind=kind,
        phi=phi,
        on_demand=on_demand_hours.astype(np.float64) * model.p,
        upfront=n.sum(axis=1).astype(np.float64) * model.big_r,
        reserved_hourly=billed_hours.astype(np.float64) * model.alpha * model.p,
        sale_income=sale_income,
        instances_sold=decisions.total_sold,
        instances_cleared=tallies[0],
        listings_expired=tallies[1],
        listings_open=tallies[2],
        rebuy=rebuy_costs,
        instances_rebought=instances_rebought,
    )
    if on_demand is None:
        return result, None
    return result, RowRecords(
        decision_age=decision_age,
        sale_t0=decisions.t0,
        working_hours=decisions.working,
        listings=listings,
        rebuys=rebuys.get(0, ()),
        r_physical=r_physical[0],
        on_demand=on_demand[0],
    )


def run_population(
    demands: np.ndarray,
    reservations: np.ndarray,
    model: CostModel,
    phi: float = 0.75,
    kind: FastPolicyKind = FastPolicyKind.ONLINE,
    threshold_scale: float = 1.0,
    precomputed: "PopulationPrecompute | None" = None,
    *,
    clearing: "ClearingModel | None" = None,
    clearing_keys: "list[object] | None" = None,
    cancellation: "CancellationModel | None" = None,
) -> PopulationResult:
    """Run one selling policy over a whole ``(users × hours)`` tensor.

    ``demands`` and ``reservations`` are 2-D integer arrays of equal
    shape — row ``u`` is exactly the ``(d, n)`` pair ``run_fast`` would
    receive for user ``u``, and the returned per-user costs and sale
    counts are bit-identical to per-user ``run_fast`` calls. Inputs are
    validated with the same strictness (non-negative, integral, finite;
    ``threshold_scale`` finite and ≥ 0), and the horizon must cover at
    least one hour.

    When sweeping several policies over the same block, build a
    :func:`prepare_population` once and pass it as ``precomputed`` —
    the validation and the policy-independent tensors are then shared
    instead of being rebuilt per policy (``demands``/``reservations``
    positional arguments are ignored in that case).

    With a :class:`~repro.core.clearing.ClearingModel`, SELL decisions
    open listings whose clearing delays are drawn vectorised — one
    uniform per sale from the per-user stream
    ``clearing.stream(clearing_keys[u])``. Per user the outputs are
    bit-identical to
    ``run_fast(..., clearing=clearing, clearing_key=clearing_keys[u])``
    (``tests/core/test_clearing.py``). ``clearing_keys`` defaults to the
    row index within this block; pass stable per-user keys (for example
    user ids) when the same population is split across blocks.

    With a :class:`~repro.core.cancellation.CancellationModel`, the
    static rank rule of :func:`repro.core.cancellation.apply_rebuys`
    runs as a per-user post-pass over the sold units (cleared listings
    under clearing, every sale under instant semantics) — decisions,
    sale income and the listing lifecycle are untouched; the physical
    timeline gains the re-bought serving hours and the result carries
    per-user ``rebuy`` cost and ``instances_rebought`` tallies,
    bit-identical to ``run_fast(..., cancellation=cancellation)``.
    """
    period = model.period
    if precomputed is None:
        precomputed = prepare_population(demands, reservations, period)
    elif precomputed.period != period:
        raise SimulationError(
            "precomputed block was prepared for a "
            f"{precomputed.period}-hour period but the cost model uses "
            f"{period} hours"
        )
    result, _records = run_block(
        precomputed,
        model,
        phi,
        kind,
        threshold_scale,
        clearing=clearing,
        clearing_keys=clearing_keys,
        cancellation=cancellation,
    )
    return result


def run_population_randomized(
    demands: np.ndarray,
    reservations: np.ndarray,
    model: CostModel,
    policy: RandomizedSellingPolicy,
    *,
    user_keys: "list[object] | None" = None,
    threshold_scale: float = 1.0,
    clearing: "ClearingModel | None" = None,
    clearing_keys: "list[object] | None" = None,
    cancellation: "CancellationModel | None" = None,
) -> PopulationResult:
    """Run a :class:`RandomizedSellingPolicy` over a population tensor.

    One decision fraction is drawn per user from the policy's per-key
    uniform stream — ``policy.draw_spot(user_keys[u])`` — and the run
    then *is* the deterministic online engine at that φ: the block is
    checked and prepared once, rows are grouped by drawn spot, each
    group's slice of the prepared block runs through :func:`run_block`
    at its φ, and the per-user outputs scatter back into the original
    row order. Per user the result is therefore
    bit-identical to ``run_fast`` at the drawn φ (and to the serving
    fleet, which draws from the same stream keyed the same way); a
    single-spot menu reduces bit-identically to the plain deterministic
    run.

    ``user_keys`` (default: the row index) are the draw keys; pass the
    same stable per-user keys the serving layer uses to reproduce its
    draws. ``clearing_keys`` keeps its :func:`run_population` meaning
    and defaults to the row index of the *full* block, so grouping does
    not re-key the clearing streams. The returned result carries
    ``drawn_phi`` and has ``phi`` set to NaN (no single fraction
    describes the run).
    """
    if not isinstance(policy, RandomizedSellingPolicy):
        raise SimulationError(
            f"policy must be a RandomizedSellingPolicy, got "
            f"{type(policy).__name__}"
        )
    precomputed = prepare_population(demands, reservations, model.period)
    users = precomputed.demands.shape[0]
    keys: "list[object]" = (
        list(range(users)) if user_keys is None else list(user_keys)
    )
    if len(keys) != users:
        raise SimulationError(
            f"user_keys must have one entry per user ({users}), got {len(keys)}"
        )
    resolved_clearing_keys: "list[object] | None" = None
    if clearing is not None:
        resolved_clearing_keys = (
            list(range(users)) if clearing_keys is None else list(clearing_keys)
        )
        if len(resolved_clearing_keys) != users:
            raise SimulationError(
                f"clearing_keys must have one entry per user ({users}), "
                f"got {len(resolved_clearing_keys)}"
            )

    drawn = policy.draw_spots(keys)

    def _alloc(dtype: type) -> np.ndarray:
        return np.zeros(users, dtype=dtype)

    out: "dict[str, np.ndarray | None]" = {
        "on_demand": _alloc(np.float64),
        "upfront": _alloc(np.float64),
        "reserved_hourly": _alloc(np.float64),
        "sale_income": _alloc(np.float64),
        "instances_sold": _alloc(np.int64),
        "instances_cleared": _alloc(np.int64) if clearing is not None else None,
        "listings_expired": _alloc(np.int64) if clearing is not None else None,
        "listings_open": _alloc(np.int64) if clearing is not None else None,
        "rebuy": _alloc(np.float64) if cancellation is not None else None,
        "instances_rebought": (
            _alloc(np.int64) if cancellation is not None else None
        ),
    }
    for phi in np.unique(drawn).tolist():
        rows = np.flatnonzero(drawn == phi)
        group, _records = run_block(
            precomputed.take_rows(rows),
            model,
            phi,
            FastPolicyKind.ONLINE,
            threshold_scale,
            clearing=clearing,
            clearing_keys=(
                None
                if resolved_clearing_keys is None
                else [resolved_clearing_keys[row] for row in rows.tolist()]
            ),
            cancellation=cancellation,
        )
        for name, target in out.items():
            if target is not None:
                target[rows] = getattr(group, name)
    return PopulationResult(
        kind=FastPolicyKind.ONLINE,
        phi=float("nan"),
        on_demand=out["on_demand"],
        upfront=out["upfront"],
        reserved_hourly=out["reserved_hourly"],
        sale_income=out["sale_income"],
        instances_sold=out["instances_sold"],
        instances_cleared=out["instances_cleared"],
        listings_expired=out["listings_expired"],
        listings_open=out["listings_open"],
        rebuy=out["rebuy"],
        instances_rebought=out["instances_rebought"],
        drawn_phi=drawn.astype(np.float64),
    )
