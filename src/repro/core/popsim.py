"""The batch engine of Algorithm 1/2: one policy over ``(users × hours)`` rows.

This is the only batch engine. :func:`run_population` runs it over a
population block, and :func:`repro.core.fastsim.run_fast` is a thin
frontend that hands it one user's row and builds its per-sale records,
on first read, from what :func:`run_block` returns. For both, the engine
checks the policy arguments, takes every policy-independent fact of the
row or block — the reservation prefix, the active timeline, the batch
events (every ``(row, t0)`` with ``n > 0``) and the row totals ``Σd``
and ``Σn`` — from one :class:`PopulationPrecompute`, decides the
batches, draws and prices clearing, runs the cancellation post-pass and
prices the costs. A sweep prepares that once per user (for
``run_fast``) or per block and passes it to every policy run as
``precomputed=``. A many-row block also records each decision run made
on it, so a policy that repeats another's decisions does not make them
again: the randomized mixture over T/4, T/2 and 3T/4 takes each spot
group's rows from the online run at that spot, and a cancellation
policy (which never changes a decision) re-buys from the sales of the
online run it shares its key with.

The rule — the ``l`` running sum, the freeness test
``r_j − d_j − i + 1 > l_j`` and the history/future ``r_k`` decrements on
sale — runs on arrays, with no instance objects, and three exact
collapses make its cost follow the batches, not the hours or instances:

1. Only decision hours ``t0 + φT`` with ``n[t0] > 0`` inside the horizon
   are visited; no other hour of the pseudocode's loop decides anything.
   They are the prepared batch events with ``t0 < H − round(φT)``,
   selected per run instead of found by a scan of ``n``.
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
batches with :func:`decide_batch`: it sorts the window of
``expression`` and one ``searchsorted`` of the shifted thresholds
``2(i − 1) − prefix[t0 + 1]`` gives every instance's working time (the
only step that yields them, for ``run_fast``'s records and for
:class:`repro.serve.state.StreamTracker`, which runs it over a ring of
the last φT hours); rewrites go by slices. **Many rows** run in
*rounds*: users never interact, so round ``j`` decides
every user's ``j``-th batch at once, and the number sold follows from
one order statistic of the window (the ``j0``-th largest slack, ``j0``
the smallest free-hour count that still sells). The windows are read
through one strided view of ``expression`` (``sliding_window_view``,
built only when a batch decides inside the horizon, so a window always
fits): each round gathers its rows' windows into one copy and
partitions that copy in place, and the history rewrites go to
``expression``, which the view sees. All-Selling reads no window at
all. Many rows settle row by row: only a row that lost units (sold
under instant sales, cleared under clearing) has its timeline rebuilt,
in one reused ``H``-hour buffer, and priced as ``Σd − Σmin(d, r)``
on-demand hours, exact in int64; every other row is priced from the
block's ``Σmin(d, active)`` and ``Σactive``, computed on first use, so
no run builds a ``(U × H)`` array after its decisions. One row keeps
the timeline its loop rewrote and ``max(d − r, 0)``, the hourly arrays
its records carry. One row keeps its loop because the rounds cost more
on a single user: on ``perfbench``'s ``sweep-user`` (30 paper-preset users ×
7 policies, 17,520 hours, one row per call, 2-core x86-64 host)
``run_fast`` on the rounds alone measured ``latency_norm`` 30.9 and 33.6
against 22.7 and 24.0, and the loop with a 2-D difference-array
settlement +19%. The loop with slice rewrites and one prefix sum per
call measured 20.4 against 23.1 for the previous per-user engine
(medians of 10 alternating pairs). Preparing each user's row once for
its seven policies and building ``run_fast``'s records only when read
then took it from 19.35 to 12.65 (medians of 10 alternating pairs):
about 255 users/s, seven policies each, against about 125 before.

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
    RebuyOutcome,
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
    """Checked tensors plus the policy-independent facts of a block.

    The reservation prefix ``[0, cumsum(n)]``, the active-reservation
    timeline (each ``n[u, h]`` covers ``[h, h + T)``, so ``active[u, h]
    = prefix[u, h + 1] − prefix[u, max(h + 1 − T, 0)]``), the batch
    events — every ``(row, t0)`` with ``n[row, t0] > 0``, in row-major
    order — and the per-row totals ``Σd`` and ``Σn`` depend on
    ``(demands, reservations, period)`` alone: nothing about φ, the
    policy kind or the threshold scale enters them. A sweep runs ~7
    policies over the *same* block (or the same user's row), so
    :func:`prepare_population` lets callers check once and share all of
    them across every policy run. The engine treats every held array as
    read-only: a run's slack tensor, its settled timeline and its
    accounting temporaries are its own arrays, built from these without
    writing to them, which is what keeps sharing bit-safe. Every held
    fact is row-wise, so :meth:`take_rows` slices a prepared block
    exactly. The constructor takes already-checked ``int64`` arrays.

    A many-row block also records each decision run made on it, in
    :attr:`runs`, keyed by what decides, sells and prices the run (see
    :func:`_run_key`): a later policy run under the same key takes the
    recorded sales and hour totals instead of deciding again. A record
    holds per-user and per-sale arrays only, never a ``(U × H)`` one.
    The per-row hour totals of the unsold timeline
    (:meth:`unsold_totals`) are computed on first use, so one-row
    blocks, which never price from them, never pay for them.
    """

    __slots__ = (
        "demands",
        "reservations",
        "period",
        "reservation_prefix",
        "active",
        "event_rows",
        "event_t0",
        "demand_totals",
        "reservation_totals",
        "runs",
        "_unsold_totals",
    )

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
        self.event_rows, self.event_t0 = np.divmod(
            np.flatnonzero(reservations), horizon
        )
        self.demand_totals = demands.sum(axis=1)
        self.reservation_totals = prefix[:, -1]
        self.runs: "dict[tuple, _Run]" = {}
        self._unsold_totals: "tuple[np.ndarray, np.ndarray] | None" = None

    def unsold_totals(self) -> "tuple[np.ndarray, np.ndarray]":
        """Per-row ``Σ min(d, active)`` and ``Σ active``: the covered and
        active hours of a row that loses no unit. Computed on first use
        and kept, read-only, for every later run."""
        if self._unsold_totals is None:
            totals = (
                np.minimum(self.demands, self.active).sum(axis=1),
                self.active.sum(axis=1),
            )
            for array in totals:
                array.flags.writeable = False
            self._unsold_totals = totals
        return self._unsold_totals

    def take_rows(self, rows: np.ndarray) -> "PopulationPrecompute":
        """The block of ``rows`` only, sliced rather than recomputed. The
        recorded runs and the unsold totals stay with this block."""
        part = object.__new__(PopulationPrecompute)
        part.demands = self.demands[rows]
        part.reservations = self.reservations[rows]
        part.period = self.period
        part.reservation_prefix = self.reservation_prefix[rows]
        part.active = self.active[rows]
        # Each taken row's run of events, in the order the rows are taken.
        first = np.searchsorted(self.event_rows, rows)
        counts = np.searchsorted(self.event_rows, rows, side="right") - first
        part.event_rows = np.repeat(np.arange(rows.size), counts)
        taken = np.arange(part.event_rows.size) + np.repeat(
            first - (np.cumsum(counts) - counts), counts
        )
        part.event_t0 = self.event_t0[taken]
        part.demand_totals = self.demand_totals[rows]
        part.reservation_totals = self.reservation_totals[rows]
        part.runs = {}
        part._unsold_totals = None
        return part


def prepare_population(
    demands: np.ndarray, reservations: np.ndarray, period: int
) -> PopulationPrecompute:
    """Validate one ``(users × hours)`` block and precompute its
    policy-independent facts, for sharing across policy runs: pass the
    result as ``precomputed=`` to :func:`run_population`,
    :func:`run_population_randomized` or, for a one-row block,
    :func:`repro.core.fastsim.run_fast`."""
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


def check_precomputed(precomputed: PopulationPrecompute, period: int) -> None:
    """Refuse a prepared block whose period is not the cost model's."""
    if precomputed.period != period:
        raise SimulationError(
            "precomputed block was prepared for a "
            f"{precomputed.period}-hour period but the cost model uses "
            f"{period} hours"
        )


class _Decisions(NamedTuple):
    """What a decision step hands to the settlement."""

    total_sold: np.ndarray  # (U,) sales per user
    #: Per-sale ``(row, t0)`` events grouped by row, each user's in
    #: decision order (ascending ``t0``, then batch index).
    rows: np.ndarray
    t0: np.ndarray
    #: Each sale's working hours; only the one-row step computes them.
    working: np.ndarray
    #: One row under instant sales: the ``(1, H)`` physical timeline its
    #: loop rewrote. ``None`` otherwise: the settlement builds it.
    settled: "np.ndarray | None" = None


def _no_decisions(users: int) -> _Decisions:
    """No sale on any of ``users`` rows."""
    empty = np.zeros(0, dtype=np.int64)
    return _Decisions(np.zeros(users, dtype=np.int64), empty, empty, empty)


class _Lost(NamedTuple):
    """Units that leave service before their term ends, grouped by row
    in sale order: unit ``i`` of row ``rows[i]``, reserved at ``t0[i]``,
    serves until ``start[i]`` (its decision hour under instant sales,
    its clear hour under clearing) and not again before
    ``min(t0[i] + T, H)``. A cancellation post-pass watches exactly
    these units, each from its ``start``."""

    rows: np.ndarray
    t0: np.ndarray
    start: np.ndarray


class _Hours(NamedTuple):
    """Per-user hour totals of a settled timeline ``r``, as priced."""

    on_demand: np.ndarray  # (U,) int64 — Σ max(d − r, 0)
    billed: np.ndarray  # (U,) int64 — Σ r, or Σ min(d, r) under USAGE


class _Rebought(NamedTuple):
    """A cancellation post-pass's per-user outcome."""

    cost: np.ndarray  # (U,) float64 — buy-back cost totals
    count: np.ndarray  # (U,) int64
    hours: _Hours  # with the re-bought units serving again


#: Cleared, expired and still-open listings per user, in that order.
_Tallies = tuple[np.ndarray, ...]


class _Run(NamedTuple):
    """One decision run of a many-row block, as recorded on its
    :class:`PopulationPrecompute`: everything a later run with the same
    key needs, and no ``(U × H)`` array."""

    sold: np.ndarray  # (U,) int64
    lost: _Lost
    sale_income: np.ndarray  # (U,) float64
    tallies: "_Tallies | None"  # ``None`` without a clearing model
    hours: _Hours  # before any re-buy


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


class DecisionRule(NamedTuple):
    """A checked policy's decision parameters."""

    decision_age: int  # round(φT)
    beta: float
    threshold: float  # scale·β for ONLINE, inf for All-Selling
    evaluate: bool  # False for Keep-Reserved or round(φT) outside (0, T)
    per_sale_income: float  # 0.0 when nothing is evaluated


def decision_rule(
    model: CostModel,
    phi: float,
    kind: FastPolicyKind,
    threshold_scale: float,
    clearing: "ClearingModel | None",
    error: "type[Exception]",
) -> DecisionRule:
    """Check a policy's arguments and derive its decision parameters.

    The engine and the serving trackers share this, each with its own
    ``error`` type; a bad φ raises ``PolicyError`` for all of them."""
    if not isinstance(kind, FastPolicyKind):
        raise error(f"kind must be a FastPolicyKind, got {kind!r}")
    if kind is not FastPolicyKind.KEEP_RESERVED:
        validate_phi(phi)
    validate_threshold_scale(threshold_scale, error)
    if clearing is not None and not isinstance(clearing, ClearingModel):
        raise error(
            f"clearing must be a ClearingModel or None, got "
            f"{type(clearing).__name__}"
        )
    period = model.period
    decision_age = round(phi * period)
    beta = break_even_working_hours(model.plan, model.selling_discount, phi)
    evaluate = kind is not FastPolicyKind.KEEP_RESERVED and 0 < decision_age < period
    return DecisionRule(
        decision_age,
        beta,
        threshold_scale * beta if kind is FastPolicyKind.ONLINE else math.inf,
        evaluate,
        model.sale_income(1.0 - decision_age / period) if evaluate else 0.0,
    )


def cleared_income(
    model: CostModel,
    discount: "float | np.ndarray",
    clear_at: "int | np.ndarray",
    reserved_at: "int | np.ndarray",
) -> "float | np.ndarray":
    """``(1 − fee) · a(w) · (1 − (t_clear − t0)/T) · R``, left to right:
    the income of one cleared listing, or of each of an array of them."""
    return (
        (1.0 - model.marketplace_fee)
        * discount
        * (1.0 - (clear_at - reserved_at) / model.period)
        * model.big_r
    )


def _run_key(
    model: CostModel,
    rule: DecisionRule,
    clearing: "ClearingModel | None",
    clearing_keys: "list[object]",
) -> "tuple | None":
    """What decides, sells and prices a run of a block: two runs under
    equal keys make the same sales, draw the same listings and book the
    same incomes and hours, whatever their kind, φ or cancellation
    model. The clearing keys count with their types, since equal values
    of two types need not name the same stream. ``None`` when a key is
    unhashable; such a run is not recorded."""
    key = (
        model,
        rule.decision_age,
        rule.threshold,
        rule.evaluate,
        clearing,
        tuple(clearing_keys),
        tuple(map(type, clearing_keys)),
    )
    try:
        hash(key)
    except TypeError:
        return None
    return key


def _check_cancellation(cancellation: object) -> None:
    if cancellation is not None and not isinstance(cancellation, CancellationModel):
        raise SimulationError(
            f"cancellation must be a CancellationModel or None, got "
            f"{type(cancellation).__name__}"
        )


def _user_keys(keys: "list[object] | None", users: int, name: str) -> "list[object]":
    """One key per user: ``keys`` as given, by default the row index."""
    resolved = list(range(users)) if keys is None else list(keys)
    if len(resolved) != users:
        raise SimulationError(
            f"{name} must have one entry per user ({users}), got {len(resolved)}"
        )
    return resolved


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


def _lose_units(
    base: np.ndarray, start: np.ndarray, end: np.ndarray, buffer: np.ndarray
) -> np.ndarray:
    """One row's timeline ``base`` less one unit over each ``[start,
    end)``, built in ``buffer`` (``H`` long) and returned; ``base`` is
    never written to.

    The units lost at each hour form a step function with a step at
    every ``start`` and ``end``: the steps are sorted, summed, and each
    level repeated until the next step, so the work beyond copying
    ``base`` follows the units and the hours they span, with no scan of
    a difference array. (A step on the horizon repeats zero times.)
    """
    steps = np.concatenate((start, end))
    order = np.argsort(steps)
    steps = steps[order]
    # The starts come first in ``steps``: each lowers the level by one.
    levels = np.cumsum(np.where(order < start.size, -1, 1))
    buffer[:] = base
    buffer[steps[0] :] += np.repeat(levels, np.diff(steps, append=base.size))
    return buffer


def _row_hours(
    model: CostModel, demand: np.ndarray, demand_total: int, timeline: np.ndarray
) -> "tuple[int, int]":
    """One row's on-demand and billed hours, exact in int64:
    ``Σ max(d − r, 0) = Σ d − Σ min(d, r)``."""
    covered = int(np.minimum(demand, timeline).sum())
    billed = int(timeline.sum()) if model.fee_mode is HourlyFeeMode.ACTIVE else covered
    return demand_total - covered, billed


def _rebuy(
    cancellation: CancellationModel,
    model: CostModel,
    demand: np.ndarray,
    timeline: np.ndarray,
    t0: np.ndarray,
    watch_from: np.ndarray,
    term_end: np.ndarray,
) -> RebuyOutcome:
    """The static re-buy rule over one row's sold units, in sale order."""
    units = [
        SoldUnit(reserved_at=reserved_at, watch_from=watch, term_end=end)
        for reserved_at, watch, end in zip(
            t0.tolist(), watch_from.tolist(), term_end.tolist()
        )
    ]
    return apply_rebuys(demand, timeline, units, model.period, model, cancellation)


def _settle_rows(
    precomputed: PopulationPrecompute,
    model: CostModel,
    lost: _Lost,
    cancellation: "CancellationModel | None",
    hours: "_Hours | None" = None,
) -> "tuple[_Hours, _Rebought | None]":
    """Settle a many-row run row by row, rebuilding only what changed.

    Each row that lost units has its timeline rebuilt in one reused
    ``H``-hour buffer (:func:`_lose_units`) and priced; with a
    cancellation model its units then go to the re-buy rule, and a
    re-buying row is priced again on its repaired timeline. Every other
    row is priced from the block's :meth:`~PopulationPrecompute.unsold_totals`.
    ``hours`` passes a recorded run's totals, which then need no
    pricing. Returns the hours before re-buys and, with a cancellation
    model, the re-buys.
    """
    demands = precomputed.demands
    users, horizon = demands.shape
    totals = precomputed.demand_totals
    fresh = hours is None
    if hours is None:
        # Rows that lose no unit keep the block's unsold totals.
        covered, active = precomputed.unsold_totals()
        billed = active if model.fee_mode is HourlyFeeMode.ACTIVE else covered
        hours = _Hours(totals - covered, billed.copy())
    if not fresh and cancellation is None:
        return hours, None
    end = np.minimum(lost.t0 + precomputed.period, horizon)
    buffer = np.empty(horizon, dtype=np.int64)
    repaired: "list[tuple[int, RebuyOutcome]]" = []
    for start, stop in _row_groups(lost.rows):
        row = int(lost.rows[start])
        timeline = _lose_units(
            precomputed.active[row], lost.start[start:stop], end[start:stop], buffer
        )
        if fresh:
            hours.on_demand[row], hours.billed[row] = _row_hours(
                model, demands[row], int(totals[row]), timeline
            )
        if cancellation is not None:
            outcome = _rebuy(
                cancellation, model, demands[row], timeline,
                lost.t0[start:stop], lost.start[start:stop], end[start:stop],
            )
            if outcome.rebuys:
                repaired.append((row, outcome))
    if cancellation is None:
        return hours, None
    rebought = _Rebought(
        np.zeros(users, dtype=np.float64),
        np.zeros(users, dtype=np.int64),
        _Hours(hours.on_demand.copy(), hours.billed.copy()),
    )
    for row, outcome in repaired:
        rebought.cost[row] = outcome.rebuy_cost
        rebought.count[row] = len(outcome.rebuys)
        rebought.hours.on_demand[row], rebought.hours.billed[row] = _row_hours(
            model, demands[row], int(totals[row]), outcome.r_after
        )
    return hours, rebought


def decide_batch(
    window: np.ndarray, shift: int, size: int, threshold: float
) -> "tuple[np.ndarray, np.ndarray, int]":
    """Decide one batch from its φT-hour window of ``expression``.

    ``shift`` is ``prefix[t0 + 1]``, so the slack is ``window + shift``.
    Returns the sorted window, each instance's working hours
    ``#{c ≤ 2(i − 1)}`` as seen while every earlier instance sold, and
    the number sold: the leading run with ``working < threshold``. Rows
    after the first keep see a smaller shift; a caller that reports them
    counts them again on the sorted window.
    """
    ordered = np.sort(window)
    working = np.searchsorted(ordered, 2 * np.arange(size) - shift, side="right")
    return ordered, working, int(np.count_nonzero(working < threshold))


def _decide_row(
    precomputed: PopulationPrecompute,
    decision_age: int,
    threshold: float,
    instant: bool,
) -> _Decisions:
    """One row: :func:`decide_batch` decides each batch in turn. Under
    ``instant`` sales the physical timeline is rewritten by slices as
    the loop goes."""
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
    event_t0 = precomputed.event_t0
    deciding = event_t0[: np.searchsorted(event_t0, horizon - decision_age)]
    for t0 in deciding.tolist():
        t = t0 + decision_age
        _ordered, working, sold = decide_batch(
            expression[t0:t], prefix[t0 + 1], n[t0], threshold
        )
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
        working=np.concatenate(working_parts),
        settled=r_physical if instant else None,
    )


def _decide_rounds(
    precomputed: PopulationPrecompute, decision_age: int, threshold: float
) -> _Decisions:
    """Many rows: round ``j`` decides every user's ``j``-th batch at once."""
    d = precomputed.demands
    n = precomputed.reservations
    period = precomputed.period
    users, horizon = d.shape
    total_sold = np.zeros(users, dtype=np.int64)
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
    inside = precomputed.event_t0 < horizon - decision_age
    event_rows = precomputed.event_rows[inside]
    event_t0 = precomputed.event_t0[inside]
    if event_rows.size == 0 or min_selling_free > decision_age:
        # No batches, or even a fully idle window (F = φT) keeps.
        pass
    elif min_selling_free <= 0:
        # Every instance of every batch sells — no window needs reading,
        # the whole run is closed-form.
        counts = n[event_rows, event_t0]
        np.add.at(total_sold, event_rows, counts)
        rows_parts.append(np.repeat(event_rows, counts))
        t0_parts.append(np.repeat(event_t0, counts))
    else:
        n_prefix = precomputed.reservation_prefix
        # The window's slack is expression + n_prefix[u, t0 + 1], a
        # per-row constant that commutes with taking an order statistic,
        # so it is added to the *pivot* after the partition and only one
        # gather is needed per round. Every batch here decides inside
        # the horizon, so a window always fits; the strided view sees
        # the history rewrites made to ``expression``.
        expression = np.subtract(precomputed.active, d)
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
            rows_parts.append(np.repeat(sell_rows, sell_counts))
            t0_parts.append(np.repeat(sell_t0, sell_counts))
            total_sold[sell_rows] += sell_counts
            for row, start, stop, count in zip(
                sell_rows.tolist(),
                sell_t0.tolist(),
                np.minimum(sell_t0 + period, horizon).tolist(),
                sell_counts.tolist(),
            ):
                expression[row, start:stop] -= count

    if not rows_parts:
        return _no_decisions(users)
    # Rounds interleave users; a stable row sort restores each user's
    # (t0, batch) order.
    rows_all = np.concatenate(rows_parts)
    t0_all = np.concatenate(t0_parts)
    order = np.argsort(rows_all, kind="stable")
    no_hours = np.zeros(0, dtype=np.int64)
    return _Decisions(total_sold, rows_all[order], t0_all[order], no_hours)


def _apply_clearing(
    clearing: ClearingModel,
    clearing_keys: "list[object]",
    model: CostModel,
    decisions: _Decisions,
    decision_age: int,
    horizon: int,
) -> "tuple[Listings, np.ndarray]":
    """Open one listing per sale, draw its delay and price its clearing.

    The sales arrive grouped by row in each user's decision order — the
    order the draws are consumed in — and ``Generator.random(size=k)``
    consumes a stream exactly as ``k`` scalar draws do
    (``tests/core/test_clearing.py`` pins this). Returns the listings
    and each user's income, summed in clear-hour order.
    """
    users = decisions.total_sold.size
    profile = clearing.profile(model.selling_discount, model.period, decision_age)
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
    rows_cleared = rows[cleared]
    if rows_cleared.size:
        t0_cleared = t0[cleared]
        tc = clear_at[cleared]
        values = cleared_income(model, profile.discounts[delays[cleared]], tc, t0_cleared)
        incomes[cleared] = values
        # Book each user's income one ``+=`` at a time in (clear hour,
        # listing order): the order streaming serving books it in.
        for start, stop in _row_groups(rows_cleared):
            by_clear_hour = np.argsort(tc[start:stop], kind="stable")
            acc = 0.0
            for value in values[start:stop][by_clear_hour].tolist():
                acc += value
            user_income[int(rows_cleared[start])] = acc
    return Listings(delays, clear_at, cleared, expired, incomes), user_income


def _book_sales(
    model: CostModel,
    rule: DecisionRule,
    decisions: _Decisions,
    clearing: "ClearingModel | None",
    clearing_keys: "list[object]",
    horizon: int,
) -> "tuple[np.ndarray, _Tallies | None, Listings | None, _Lost]":
    """Each user's sale income and, under clearing, listing tallies and
    listings; and the units the sales take out of service."""
    users = decisions.total_sold.size
    rows, t0 = decisions.rows, decisions.t0
    if clearing is None:
        income = _sequential_income_table(
            rule.per_sale_income, int(decisions.total_sold.max(initial=0))
        )[decisions.total_sold]
        return income, None, None, _Lost(rows, t0, t0 + rule.decision_age)
    if rows.size == 0:
        unlisted = tuple(np.zeros(users, dtype=np.int64) for _ in range(3))
        return np.zeros(users, dtype=np.float64), unlisted, None, _Lost(rows, t0, t0)
    listings, income = _apply_clearing(
        clearing, clearing_keys, model, decisions, rule.decision_age, horizon
    )
    cleared = listings.cleared
    still_open = ~cleared & ~listings.expired
    tallies = tuple(
        np.bincount(rows[fate], minlength=users)
        for fate in (cleared, listings.expired, still_open)
    )
    # Only cleared listings leave service, at their clear hour.
    lost = _Lost(rows[cleared], t0[cleared], listings.clear_at[cleared])
    return income, tallies, listings, lost


def _priced(
    precomputed: PopulationPrecompute,
    model: CostModel,
    kind: FastPolicyKind,
    phi: float,
    run: _Run,
    rebought: "_Rebought | None",
) -> PopulationResult:
    """A run's result: its hour totals priced, its own copy of every
    per-user array a recorded run keeps."""
    hours = run.hours if rebought is None else rebought.hours
    tallies = (None, None, None) if run.tallies is None else run.tallies
    return PopulationResult(
        kind=kind,
        phi=phi,
        on_demand=hours.on_demand.astype(np.float64) * model.p,
        upfront=precomputed.reservation_totals.astype(np.float64) * model.big_r,
        reserved_hourly=hours.billed.astype(np.float64) * model.alpha * model.p,
        sale_income=run.sale_income.copy(),
        instances_sold=run.sold.copy(),
        instances_cleared=None if tallies[0] is None else tallies[0].copy(),
        listings_expired=None if tallies[1] is None else tallies[1].copy(),
        listings_open=None if tallies[2] is None else tallies[2].copy(),
        rebuy=None if rebought is None else rebought.cost,
        instances_rebought=None if rebought is None else rebought.count,
    )


def _finish(
    precomputed: PopulationPrecompute,
    model: CostModel,
    kind: FastPolicyKind,
    phi: float,
    run: _Run,
    cancellation: "CancellationModel | None",
    rows: "np.ndarray | None" = None,
) -> PopulationResult:
    """A recorded run's result, re-bought under ``cancellation``. With
    ``rows`` (ascending), only those rows' units are re-bought and only
    their entries of the result are meaningful."""
    rebought = None
    if cancellation is not None:
        lost = run.lost
        if rows is not None:
            taken = np.isin(lost.rows, rows)
            lost = _Lost(lost.rows[taken], lost.t0[taken], lost.start[taken])
        _hours, rebought = _settle_rows(precomputed, model, lost, cancellation, run.hours)
    return _priced(precomputed, model, kind, phi, run, rebought)


def _run_row(
    precomputed: PopulationPrecompute,
    model: CostModel,
    kind: FastPolicyKind,
    phi: float,
    rule: DecisionRule,
    clearing: "ClearingModel | None",
    clearing_keys: "list[object]",
    cancellation: "CancellationModel | None",
) -> "tuple[PopulationResult, RowRecords]":
    """A one-row block: the per-batch loop, then the records' hourly
    timelines. Instant sales leave the timeline the loop rewrote; cleared
    listings leave at their clear hours."""
    d = precomputed.demands
    horizon = d.shape[1]
    decisions = (
        _decide_row(precomputed, rule.decision_age, rule.threshold, clearing is None)
        if rule.evaluate
        else _no_decisions(1)
    )
    income, tallies, listings, lost = _book_sales(
        model, rule, decisions, clearing, clearing_keys, horizon
    )
    r_physical = precomputed.active if decisions.settled is None else decisions.settled
    rebuys: "tuple[Rebuy, ...]" = ()
    rebuy_cost = 0.0
    if lost.rows.size and (clearing is not None or cancellation is not None):
        end = np.minimum(lost.t0 + model.period, horizon)
        if clearing is not None:
            buffer = np.empty(horizon, dtype=np.int64)
            r_physical = _lose_units(r_physical[0], lost.start, end, buffer)[None]
        if cancellation is not None:
            outcome = _rebuy(
                cancellation, model, d[0], r_physical[0], lost.t0, lost.start, end
            )
            if outcome.rebuys:
                r_physical = outcome.r_after[None]
                rebuy_cost = outcome.rebuy_cost
                rebuys = outcome.rebuys
    # The records carry the hourly on-demand array. A one-row run is not
    # recorded, so its hours are those of its final timeline, re-buys
    # included.
    on_demand = np.maximum(d - r_physical, 0)
    hours = _Hours(
        on_demand.sum(axis=1),
        r_physical.sum(axis=1)
        if model.fee_mode is HourlyFeeMode.ACTIVE
        else np.minimum(d, r_physical).sum(axis=1),
    )
    rebought = (
        None
        if cancellation is None
        else _Rebought(
            np.array([rebuy_cost]), np.array([len(rebuys)], dtype=np.int64), hours
        )
    )
    run = _Run(decisions.total_sold, lost, income, tallies, hours)
    result = _priced(precomputed, model, kind, phi, run, rebought)
    return result, RowRecords(
        decision_age=rule.decision_age,
        sale_t0=decisions.t0,
        working_hours=decisions.working,
        listings=listings,
        rebuys=rebuys,
        r_physical=r_physical[0],
        on_demand=on_demand[0],
    )


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
    ``None`` in their place, and records its run on the block: a later
    run under the same :func:`_run_key` takes the recorded sales and
    hours, and under a cancellation model re-buys from them.
    """
    users, horizon = precomputed.demands.shape
    rule = decision_rule(model, phi, kind, threshold_scale, clearing, SimulationError)
    _check_cancellation(cancellation)
    keys = [] if clearing is None else _user_keys(clearing_keys, users, "clearing_keys")
    if users == 1:
        return _run_row(precomputed, model, kind, phi, rule, clearing, keys, cancellation)
    key = _run_key(model, rule, clearing, keys)
    run = None if key is None else precomputed.runs.get(key)
    if run is not None:
        return _finish(precomputed, model, kind, phi, run, cancellation), None
    decisions = (
        _decide_rounds(precomputed, rule.decision_age, rule.threshold)
        if rule.evaluate
        else _no_decisions(users)
    )
    income, tallies, _listings, lost = _book_sales(
        model, rule, decisions, clearing, keys, horizon
    )
    hours, rebought = _settle_rows(precomputed, model, lost, cancellation)
    run = _Run(decisions.total_sold, lost, income, tallies, hours)
    if key is not None:
        precomputed.runs[key] = run
    return _priced(precomputed, model, kind, phi, run, rebought), None


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
    if precomputed is None:
        precomputed = prepare_population(demands, reservations, model.period)
    else:
        check_precomputed(precomputed, model.period)
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
    precomputed: "PopulationPrecompute | None" = None,
) -> PopulationResult:
    """Run a :class:`RandomizedSellingPolicy` over a population tensor.

    One decision fraction is drawn per user from the policy's per-key
    uniform stream — ``policy.draw_spot(user_keys[u])`` — and the run
    then *is* the deterministic online engine at that φ: the block is
    checked and prepared once, rows are grouped by drawn spot, each
    group takes its rows from the block's recorded run at its φ (an
    online run with the same clearing keys, see
    :class:`PopulationPrecompute`) or, when none was made, runs its
    slice of the block through :func:`run_block`, and the per-user
    outputs scatter back into the original row order. Per user the
    result is therefore
    bit-identical to ``run_fast`` at the drawn φ (and to the serving
    fleet, which draws from the same stream keyed the same way); a
    single-spot menu reduces bit-identically to the plain deterministic
    run.

    ``user_keys`` (default: the row index) are the draw keys; pass the
    same stable per-user keys the serving layer uses to reproduce its
    draws. ``clearing_keys`` keeps its :func:`run_population` meaning
    and defaults to the row index of the *full* block, so grouping does
    not re-key the clearing streams. ``precomputed`` takes a
    :func:`prepare_population` block as :func:`run_population` does
    (``demands`` and ``reservations`` are then ignored), so a sweep
    prepares its block once for every column. The returned result
    carries ``drawn_phi`` and has ``phi`` set to NaN (no single fraction
    describes the run).
    """
    if not isinstance(policy, RandomizedSellingPolicy):
        raise SimulationError(
            f"policy must be a RandomizedSellingPolicy, got "
            f"{type(policy).__name__}"
        )
    _check_cancellation(cancellation)
    if precomputed is None:
        precomputed = prepare_population(demands, reservations, model.period)
    else:
        check_precomputed(precomputed, model.period)
    users = precomputed.demands.shape[0]
    keys = _user_keys(user_keys, users, "user_keys")
    resolved_clearing_keys = (
        [] if clearing is None else _user_keys(clearing_keys, users, "clearing_keys")
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
        rule = decision_rule(
            model, phi, FastPolicyKind.ONLINE, threshold_scale, clearing, SimulationError
        )
        key = _run_key(model, rule, clearing, resolved_clearing_keys)
        run = None if key is None else precomputed.runs.get(key)
        if run is None:
            group, _records = run_block(
                precomputed.take_rows(rows),
                model,
                phi,
                FastPolicyKind.ONLINE,
                threshold_scale,
                clearing=clearing,
                clearing_keys=(
                    None
                    if clearing is None
                    else [resolved_clearing_keys[row] for row in rows.tolist()]
                ),
                cancellation=cancellation,
            )
            taken: "slice | np.ndarray" = slice(None)
        else:
            # The whole block already ran at this spot: take the group's
            # rows from that run.
            group = _finish(
                precomputed, model, FastPolicyKind.ONLINE, phi, run, cancellation, rows
            )
            taken = rows
        for name, target in out.items():
            if target is not None:
                target[rows] = getattr(group, name)[taken]
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
