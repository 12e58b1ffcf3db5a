"""Population-tensor engine: one policy over every user in one pass.

:func:`repro.core.fastsim.run_fast` decides Algorithm 1/2 for *one*
user, with a Python loop over that user's reservation batches; sweeping
a population through it costs one call per user and policy (about 100
users/s, six policies each, on the paper preset's 17,520-hour horizon in
``perfbench``'s ``sweep-user`` on a 2-core x86-64 host), too slow for
millions of users. This module runs the same decision rule over a whole
``(users × hours)`` demand/reservation tensor with numpy doing the user
dimension, and is proven **bit-identical** to ``run_fast`` per user
(``tests/core/test_popsim.py`` sweeps ≥40 seeds × 3 φ × 3 policy kinds).

Why the rule vectorises across users
------------------------------------

Users never interact, so the only obstacle is the *within*-user
sequential structure: each decision batch rewrites history
(``r_effective[t0:end] -= 1`` per sale), which feeds later windows. Two
observations collapse it:

1. History rewrites are strictly per-user: a sale of user ``u`` only
   edits row ``u``. The only ordering that matters is each user's *own*
   windows in ascending ``t0`` — exactly the order the per-user loop
   visits them. So the engine runs in *rounds*: round ``j`` handles
   every user's ``j``-th reservation event at once (different ``t0``
   per row, gathered with one fancy index), reads the current
   ``r_effective`` tensor, and applies the row-local rewrites before
   round ``j+1``. The loop length becomes the maximum events per user,
   not the number of distinct decision hours.
2. Within one window the batch loop (the pseudocode's ``i = 1..n_t``)
   reduces to an order statistic (``run_fast`` decides its batches by
   the same fact, one sorted window at a time). With
   ``c_k = r_eff_k − d_k − l_k`` over the window, instance ``i`` (with
   ``s`` sales so far in the batch) is free at hour ``k`` iff
   ``c_k > i − 1 + s``, so its working time is ``φT − F(i − 1 + s)``
   where ``F(m) = #{k : c_k > m}`` is non-increasing in ``m``. Working
   time is therefore non-decreasing over the batch: once one instance
   is kept, every later instance is kept too, and the number sold is
   determined by the ``j0``-th largest value of ``c`` alone (``j0`` =
   the smallest free-hour count that still sells, a run-level
   constant). One ``np.partition`` per window replaces the per-instance
   loop — for every user at once.

Float identity: β, ``scale·β``, the per-sale income and the cost-model
products are computed with exactly the expressions ``run_fast`` uses,
and the sale-income accumulator is reproduced by a sequential-sum table
(``k`` sales = ``k`` repeated ``+=``, not ``k·income``), so costs match
bitwise, not approximately.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro._arrays import as_count_array
from repro.core.account import CostBreakdown, CostModel, HourlyFeeMode
from repro.core.breakeven import (
    break_even_working_hours,
    validate_phi,
    validate_threshold_scale,
)
from repro.core.cancellation import CancellationModel, SoldUnit, apply_rebuys
from repro.core.clearing import ClearingModel
from repro.core.fastsim import FastPolicyKind
from repro.core.policies import RandomizedSellingPolicy
from repro.errors import SimulationError

#: Default number of users processed per tensor block by the streaming
#: helpers (bounds peak memory at roughly ``4 × block × horizon × 8``
#: bytes of working set regardless of population size).
DEFAULT_BLOCK_USERS = 4096


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
        """Stitch block results (same policy) back into one population."""
        if not results:
            raise SimulationError("cannot concatenate zero population results")
        first = results[0]
        for other in results[1:]:
            if other.kind is not first.kind or other.phi != first.phi:
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
    """Validated tensors plus the policy-independent intermediates.

    ``run_population`` derives the active-instance timeline and the
    reservation prefix sum from ``(demands, reservations, period)``
    alone — nothing about φ, the policy kind, or the threshold scale
    enters them. A sweep runs ~7 policies over the *same* block, so
    :func:`prepare_population` lets callers validate once and share
    those tensors across every policy run of the block. All held arrays
    are treated as read-only by the engine (sale rewrites always go to
    fresh per-run arrays), which is what keeps sharing bit-safe.
    """

    __slots__ = ("demands", "reservations", "period", "active", "_prefix")

    def __init__(
        self, demands: np.ndarray, reservations: np.ndarray, period: int
    ) -> None:
        self.demands = demands
        self.reservations = reservations
        self.period = period
        self.active = _active_timeline(reservations, period)
        self._prefix: "np.ndarray | None" = None

    @property
    def reservation_prefix(self) -> np.ndarray:
        """``[0, cumsum(n)]`` per row — built lazily: only the windowed
        online path reads it (KEEP / All-Selling runs never pay for it)."""
        if self._prefix is None:
            n = self.reservations
            self._prefix = np.concatenate(
                [np.zeros((n.shape[0], 1), dtype=np.int64), np.cumsum(n, axis=1)],
                axis=1,
            )
        return self._prefix


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


def _active_timeline(reservations: np.ndarray, period: int) -> np.ndarray:
    """Active-reservation tensor: each ``n[u, h]`` covers ``[h, h+T)``.

    Built with a difference array + row cumsum instead of a per-user
    loop over reservation hours.
    """
    horizon = reservations.shape[1]
    delta = reservations.copy()
    if period < horizon:
        # Reservations expiring inside the horizon stop contributing at
        # h + T; later ones run off the end and need no terminator.
        delta[:, period:] -= reservations[:, : horizon - period]
    return np.cumsum(delta, axis=1)


def _sequential_income_table(per_sale_income: float, max_sales: int) -> np.ndarray:
    """``table[k]`` = ``k`` repeated float ``+=`` of ``per_sale_income``.

    ``run_fast`` accumulates sale income with one addition per sale;
    ``k · income`` rounds differently in the last ulp, so the exact
    running sums are tabulated instead (``max_sales`` is small: it is
    bounded by the largest per-user reservation total).
    """
    table = np.empty(max_sales + 1, dtype=np.float64)
    acc = 0.0
    for count in range(max_sales + 1):
        table[count] = acc
        acc += per_sale_income
    return table


def _apply_clearing(
    clearing: ClearingModel,
    clearing_keys: "list[object]",
    model: CostModel,
    sale_rows: np.ndarray,
    sale_t0: np.ndarray,
    decision_age: int,
    period: int,
    horizon: int,
    users: int,
    sale_delta: np.ndarray,
) -> (
    "tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, "
    "tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]]"
):
    """Vectorised clearing over the collected per-sale events.

    ``sale_rows``/``sale_t0`` carry one entry per SELL decision in the
    engine's emission order — per user that is ascending ``t0`` and
    ascending batch index, exactly the order ``run_fast`` draws its
    scalar uniforms in. Grouping with a *stable* argsort therefore
    preserves each user's draw order, and because
    ``Generator.random(size=k)`` consumes the stream identically to
    ``k`` scalar draws, the delays match the per-user engine draw for
    draw. Returns per-user ``(income, cleared, expired, open)`` plus the
    per-sale event arrays ``(rows, t0, clear_at, cleared)`` sorted by
    row (each user's listings in decision order — what the cancellation
    post-pass ranks by), and writes the physical-timeline clear events
    into ``sale_delta``.
    """
    profile = clearing.profile(model.selling_discount, period, decision_age)
    order = np.argsort(sale_rows, kind="stable")
    rows = sale_rows[order]
    t0 = sale_t0[order]
    uniforms = np.empty(rows.size, dtype=np.float64)
    boundaries = np.flatnonzero(np.diff(rows)) + 1
    group_starts = np.concatenate(([0], boundaries))
    group_stops = np.concatenate((boundaries, [rows.size]))
    for start, stop in zip(group_starts.tolist(), group_stops.tolist()):
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
    still_open = ~cleared & ~expired

    income = np.zeros(users, dtype=np.float64)
    rows_cleared = rows[cleared]
    if rows_cleared.size:
        t0_cleared = t0[cleared]
        tc = clear_at[cleared]
        end = np.minimum(t0_cleared + period, horizon)
        # Duplicate (row, hour) pairs are possible — several listings of
        # one user can clear the same hour — so the unbuffered add is
        # required, unlike the decision-time path.
        np.add.at(sale_delta, (rows_cleared, tc), -1)
        np.add.at(sale_delta, (rows_cleared, end), 1)
        # Income per cleared listing, with run_fast's exact expression
        # order ((1−fee) · a(w) · remaining · R, left to right).
        clear_fraction = 1.0 - (tc - t0_cleared) / period
        values = (
            (1.0 - model.marketplace_fee)
            * profile.discounts[delays[cleared]]
            * clear_fraction
            * model.big_r
        )
        # Accumulate per user sequentially in (clear hour, listing
        # order): the order income is booked in streaming serving, and
        # a plain repeated ``+=`` so the float sum matches run_fast
        # (pairwise reductions round differently in the last ulp).
        cleared_bounds = np.flatnonzero(np.diff(rows_cleared)) + 1
        starts = np.concatenate(([0], cleared_bounds))
        stops = np.concatenate((cleared_bounds, [rows_cleared.size]))
        for start, stop in zip(starts.tolist(), stops.tolist()):
            user = int(rows_cleared[start])
            by_clear_hour = np.argsort(tc[start:stop], kind="stable")
            acc = 0.0
            for value in values[start:stop][by_clear_hour].tolist():
                acc += value
            income[user] = acc

    cleared_counts = np.bincount(rows_cleared, minlength=users)
    expired_counts = np.bincount(rows[expired], minlength=users)
    open_counts = np.bincount(rows[still_open], minlength=users)
    return income, cleared_counts, expired_counts, open_counts, (
        rows,
        t0,
        clear_at,
        cleared,
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
    ``threshold_scale`` finite and ≥ 0).

    When sweeping several policies over the same block, build a
    :func:`prepare_population` once and pass it as ``precomputed`` —
    the validation and the policy-independent tensors are then shared
    instead of being rebuilt per policy (``demands``/``reservations``
    positional arguments are ignored in that case).

    With a :class:`~repro.core.clearing.ClearingModel`, SELL decisions
    open listings whose clearing delays are drawn vectorised — one
    uniform per sale from the per-user stream
    ``clearing.stream(clearing_keys[u])`` — and the clear events are
    composed with the same difference-array cost accumulation the
    instant path uses. Per user the outputs are bit-identical to
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
    d = precomputed.demands
    n = precomputed.reservations
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
    resolved_keys: "list[object] | None" = None
    if clearing is not None:
        if clearing_keys is None:
            resolved_keys = list(range(users))
        else:
            resolved_keys = list(clearing_keys)
            if len(resolved_keys) != users:
                raise SimulationError(
                    f"clearing_keys must have one entry per user "
                    f"({users}), got {len(resolved_keys)}"
                )

    decision_age = round(phi * period)
    beta = break_even_working_hours(model.plan, model.selling_discount, phi)

    r_physical = precomputed.active
    total_sold = np.zeros(users, dtype=np.int64)
    evaluate = (
        kind is not FastPolicyKind.KEEP_RESERVED
        and 0 < decision_age < period
    )
    per_sale_income = 0.0
    # Sales' effect on the active-instance timeline, as a difference
    # array (one extra column swallows end == horizon): r_physical is
    # never edited in the loop, the cumsum below applies every sale at
    # once at the end of the run.
    sale_delta: "np.ndarray | None" = None
    # Under clearing the physical timeline changes at the *drawn clear
    # hour*, not the decision hour, so the branches below collect one
    # event per sold instance (per user in run_fast's draw order)
    # instead of writing decision-time deltas. The cancellation
    # post-pass also needs the per-sale events (it ranks sold units in
    # that same order), so instant-path runs collect them too — on top
    # of, not instead of, their decision-time deltas.
    collect_events = clearing is not None or cancellation is not None
    event_rows_parts: "list[np.ndarray]" = []
    event_t0_parts: "list[np.ndarray]" = []
    if evaluate:
        remaining_fraction = 1.0 - decision_age / period
        per_sale_income = model.sale_income(remaining_fraction)
        scaled_beta = threshold_scale * beta
        if kind is FastPolicyKind.ONLINE and math.isfinite(scaled_beta):
            # Largest integer working time that still sells under the
            # strict ``working < scale·β`` test (exact: ceil on floats).
            max_selling_working = math.ceil(scaled_beta) - 1
            # Smallest free-hour count F that sells (working = φT − F).
            min_selling_free = decision_age - max_selling_working
        else:
            # ALL_SELLING sells regardless of the free-hour count, and so
            # does ONLINE when a large finite scale overflows scale·β.
            min_selling_free = 0

        # Batches whose decision hour lands inside the horizon
        # (t0 < horizon − φT), in row-major = per-user ascending order.
        event_rows, event_t0 = np.nonzero(n[:, : max(horizon - decision_age, 0)])
        if event_rows.size == 0 or min_selling_free > decision_age:
            # No batches, or even a fully idle window (F = φT) keeps.
            pass
        elif min_selling_free <= 0:
            # Every instance of every batch sells (All-Selling, or a
            # scale·β so large the working-time test always passes) —
            # no window needs reading, the whole run is closed-form.
            counts = n[event_rows, event_t0]
            np.add.at(total_sold, event_rows, counts)
            if clearing is None:
                sale_delta = np.zeros((users, horizon + 1), dtype=np.int64)
                np.subtract.at(
                    sale_delta, (event_rows, event_t0 + decision_age), counts
                )
                np.add.at(
                    sale_delta,
                    (event_rows, np.minimum(event_t0 + period, horizon)),
                    counts,
                )
            if collect_events:
                # Expand batches to per-sale events; nonzero's row-major
                # order keeps each user's sales in ascending t0 / batch
                # order, matching run_fast's draw order.
                event_rows_parts.append(np.repeat(event_rows, counts))
                event_t0_parts.append(np.repeat(event_t0, counts))
        else:
            # Round j handles every user's j-th batch at once; a user's
            # own rounds run in ascending t0 (row-major nonzero order),
            # which is the only ordering the history rewrites need.
            if clearing is None:
                sale_delta = np.zeros((users, horizon + 1), dtype=np.int64)
            # The same collapse as run_fast: the l running sum always
            # reads the *original* schedule, so one prefix sum serves
            # every window (and every policy of the block).
            n_prefix = precomputed.reservation_prefix
            # Window expression tensor: expression[u, k] =
            # r_eff[u, k] − d[u, k] − n_prefix[u, k+1]. The free-slack
            # value of window t0 is expression[u, k] + n_prefix[u, t0+1]
            # — a per-row constant, which commutes with taking an order
            # statistic, so it is added to the *pivot* after the
            # partition and only one tensor gather is needed per round.
            # Sale rewrites of r_eff edit this tensor identically.
            expression = r_physical - d - n_prefix[:, 1:]
            events_per_user = np.bincount(event_rows, minlength=users)
            event_start = np.concatenate(([0], np.cumsum(events_per_user)))
            # j0-th largest slack value per user: the pivot deciding how
            # many batch instances clear the break-even test.
            pivot_column = decision_age - min_selling_free
            window_offsets = np.arange(decision_age)
            for round_index in range(int(events_per_user.max(initial=0))):
                rows = np.flatnonzero(events_per_user > round_index)
                t0 = event_t0[event_start[rows] + round_index]
                cols = t0[:, None] + window_offsets
                window = expression[rows[:, None], cols]
                pivot = (
                    np.partition(window, pivot_column, axis=1)[:, pivot_column]
                    + n_prefix[rows, t0 + 1]
                )
                batch_sizes = n[rows, t0]
                # Selling i instances needs c_(j0) > 2(i−1): each sale
                # both advances the batch index and rewrites history.
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
                if clearing is None:
                    # One row per seller within a round: plain fancy
                    # assignment is safe (no duplicate indices).
                    sale_delta[sell_rows, sell_t0 + decision_age] -= sell_counts
                    sale_delta[sell_rows, sell_end] += sell_counts
                if collect_events:
                    # Rounds visit each user's batches in ascending t0,
                    # so appending round by round keeps every user's
                    # events in run_fast's draw order.
                    event_rows_parts.append(np.repeat(sell_rows, sell_counts))
                    event_t0_parts.append(np.repeat(sell_t0, sell_counts))
                total_sold[sell_rows] += sell_counts
                for row, start, stop, count in zip(
                    sell_rows.tolist(),
                    sell_t0.tolist(),
                    sell_end.tolist(),
                    sell_counts.tolist(),
                ):
                    expression[row, start:stop] -= count

    instances_cleared: "np.ndarray | None" = None
    listings_expired: "np.ndarray | None" = None
    listings_open: "np.ndarray | None" = None
    sale_events: "tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray] | None"
    sale_events = None
    if clearing is not None:
        clearing_income = np.zeros(users, dtype=np.float64)
        instances_cleared = np.zeros(users, dtype=np.int64)
        listings_expired = np.zeros(users, dtype=np.int64)
        listings_open = np.zeros(users, dtype=np.int64)
        if event_rows_parts:
            sale_delta = np.zeros((users, horizon + 1), dtype=np.int64)
            (
                clearing_income,
                instances_cleared,
                listings_expired,
                listings_open,
                sale_events,
            ) = _apply_clearing(
                clearing,
                resolved_keys,
                model,
                np.concatenate(event_rows_parts),
                np.concatenate(event_t0_parts),
                decision_age,
                period,
                horizon,
                users,
                sale_delta,
            )

    if sale_delta is not None and total_sold.any():
        r_physical = r_physical + np.cumsum(sale_delta, axis=1)[:, :horizon]

    rebuy_costs: "np.ndarray | None" = None
    instances_rebought: "np.ndarray | None" = None
    if cancellation is not None:
        rebuy_costs = np.zeros(users, dtype=np.float64)
        instances_rebought = np.zeros(users, dtype=np.int64)
        if clearing is None and event_rows_parts:
            # Instant sales: every sale is a sold unit watching from its
            # decision hour. The round-wise appends interleave users, so
            # a stable row sort restores each user's (t0, batch) order.
            rows_all = np.concatenate(event_rows_parts)
            t0_all = np.concatenate(event_t0_parts)
            order = np.argsort(rows_all, kind="stable")
            sale_events = (
                rows_all[order],
                t0_all[order],
                t0_all[order] + decision_age,
                np.ones(rows_all.size, dtype=bool),
            )
        if sale_events is not None:
            unit_rows, unit_t0, unit_watch, unit_sold = sale_events
            boundaries = np.flatnonzero(np.diff(unit_rows)) + 1
            group_starts = np.concatenate(([0], boundaries))
            group_stops = np.concatenate((boundaries, [unit_rows.size]))
            for start, stop in zip(group_starts.tolist(), group_stops.tolist()):
                user = int(unit_rows[start])
                units = [
                    SoldUnit(
                        reserved_at=int(t0),
                        watch_from=int(watch),
                        term_end=min(int(t0) + period, horizon),
                    )
                    for t0, watch, sold in zip(
                        unit_t0[start:stop].tolist(),
                        unit_watch[start:stop].tolist(),
                        unit_sold[start:stop].tolist(),
                    )
                    if sold
                ]
                if not units:
                    continue
                outcome = apply_rebuys(
                    d[user], r_physical[user], units, period, model, cancellation
                )
                if outcome.rebuys:
                    # r_physical is a fresh array whenever sales (and
                    # therefore units) exist — safe to edit in place.
                    r_physical[user] = outcome.r_after
                    rebuy_costs[user] = outcome.rebuy_cost
                    instances_rebought[user] = len(outcome.rebuys)

    on_demand_hours = np.maximum(d - r_physical, 0).sum(axis=1)
    if model.fee_mode is HourlyFeeMode.ACTIVE:
        billed_hours = r_physical.sum(axis=1)
    else:
        billed_hours = np.minimum(d, r_physical).sum(axis=1)
    if clearing is None:
        income_table = _sequential_income_table(
            per_sale_income, int(total_sold.max(initial=0))
        )
        sale_income = income_table[total_sold]
    else:
        sale_income = clearing_income
    return PopulationResult(
        kind=kind,
        phi=phi,
        on_demand=on_demand_hours.astype(np.float64) * model.p,
        upfront=n.sum(axis=1).astype(np.float64) * model.big_r,
        reserved_hourly=billed_hours.astype(np.float64) * model.alpha * model.p,
        sale_income=sale_income,
        instances_sold=total_sold,
        instances_cleared=instances_cleared,
        listings_expired=listings_expired,
        listings_open=listings_open,
        rebuy=rebuy_costs,
        instances_rebought=instances_rebought,
    )


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
    then *is* the deterministic online engine at that φ: rows are
    grouped by drawn spot, each group runs through
    :func:`run_population` at its φ, and the per-user outputs scatter
    back into the original row order. Per user the result is therefore
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
        group = run_population(
            precomputed.demands[rows],
            precomputed.reservations[rows],
            model,
            phi=phi,
            kind=FastPolicyKind.ONLINE,
            threshold_scale=threshold_scale,
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
