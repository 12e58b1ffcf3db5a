"""Incremental sell/keep decision state — the serving layer's core.

Two trackers, two fidelity/throughput points:

* :class:`StreamTracker` — the *exact* online form of the batch engine.
  It ingests one ``(demand, new_reservations)`` event per hour and
  reproduces :func:`repro.core.fastsim.run_fast` bit for bit: the same
  sales (reservation batch, instance index, hour, working time) and the
  same :class:`~repro.core.account.CostBreakdown`, while holding only
  the last ``round(φT)`` hours of the trace. The equivalence is
  property-tested in ``tests/serve/test_stream_differential.py``, and
  every decision, KEEP rows included, in
  ``tests/serve/test_stream_decisions.py``.
* :class:`FleetState` — a vectorised numpy engine over many
  *independent single-reservation* instances (the service's fleet
  model): ages, cumulative working hours, and per-φ verdicts live in
  one table of numpy columns, and one batched event application touches
  every affected instance with a handful of numpy ops.

How the stream reproduces the batch engine
------------------------------------------
The engine (:mod:`repro.core.popsim`) keeps ``expression = r_effective
− d − prefix[1:]``, where ``prefix[h + 1]`` counts the reservations made
up to hour ``h``, and decides batch ``t0`` at hour ``t = t0 + round(φT)``
from the window ``expression[t0:t]`` with
:func:`~repro.core.popsim.decide_batch`. A sale rewrites history: it
lowers ``expression`` over the sold reservation's span ``[t0, t0 + T)``.

The tracker holds ``expression`` for the last φT hours in a ring, so at
decision hour ``t`` the ring is exactly the window ``[t0, t)`` and it
calls the same function on it. Each hour's value is written after that
hour's decision, from the live count of active and unsold reservations;
a sale then lowers every held value by the number sold, because every
held hour lies in ``[t0, t0 + T)``. That is the whole rewrite: later
hours read the live count, which the sale has already lowered until the
reservation expires. Instances after a batch's first keep see the
batch's ``sold`` rewrites plus their own ``i − 1``, not ``2(i − 1)``, so
their working hours take one more ``searchsorted`` on the sorted window.
An event costs O(1); a decision sorts φT values.
"""

from __future__ import annotations

import enum
from collections import deque
from dataclasses import dataclass
from typing import Deque, Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro._arrays import as_count_array
from repro.core.account import CostBreakdown, CostModel, HourlyFeeMode
from repro.core.breakeven import PAPER_DECISION_FRACTIONS, validate_threshold_scale
from repro.core.clearing import ClearingModel, ClearingProfile
from repro.core.fastsim import FastListing, FastPolicyKind, FastSale
from repro.core.policies import (
    CancellationAwareSellingPolicy,
    RandomizedSellingPolicy,
)
from repro.core.policyspec import SPEC_ALL_SELLING, SPEC_KEEP, PolicySpec
from repro.core.popsim import cleared_income, decide_batch, decision_rule
from repro.errors import PolicyError
from repro.serve.errors import ServeStateError

#: Version of the serving state machine's behaviour. Part of every
#: checkpoint payload (see :mod:`repro.serve.checkpoint`): bump it
#: whenever a change here could alter a decision or a cost, so stale
#: checkpoints are refused instead of silently replayed.
STATE_VERSION = 1


class Verdict(enum.Enum):
    """The advisory's answer for one instance at one decision spot."""

    SELL = "sell"
    KEEP = "keep"
    PENDING = "pending"  # the decision hour has not been reached yet
    WAIT_FOR_CLEAR = "wait-for-clear"  # listed, awaiting a marketplace buyer


@dataclass(frozen=True)
class StreamDecision:
    """One decided instance of a reservation batch (SELL or KEEP)."""

    reserved_at: int
    batch_index: int  # the pseudocode's i (1-based)
    hour: int
    working_hours: int
    verdict: Verdict


def _count(value: object, name: str) -> int:
    """One hour's count, refused with ``ServeStateError`` unless it is a
    single non-negative whole number.

    A Python ``int`` (not a ``bool``) or a NumPy integer scalar inside
    ``[0, 2**63)`` is taken as it is; every other input goes through
    :func:`~repro._arrays.as_count_array`, whose values and messages it
    keeps."""
    if type(value) is int or isinstance(value, np.integer):
        count = int(value)
        if 0 <= count < 2**63:
            return count
    array = as_count_array(value, name, ServeStateError)
    if array.ndim:
        raise ServeStateError(f"{name} must be a single count, got shape {array.shape}")
    count = int(array)
    if count < 0:
        raise ServeStateError(f"{name} must be non-negative, got {value!r}")
    return count


class StreamTracker:
    """Event-by-event equivalent of :func:`repro.core.fastsim.run_fast`.

    Feed one hour at a time via :meth:`observe`; read decisions as they
    are emitted and :attr:`breakdown` at any point. After ``H`` calls the
    sales and costs equal ``run_fast(d[:H], n[:H], ...)`` exactly.

    Parameters mirror ``run_fast``: the cost model, the decision
    fraction ``phi``, the policy ``kind``, and ``threshold_scale``
    (scales the break-even β; 1.0 is the paper's rule). With a
    :class:`~repro.core.clearing.ClearingModel` the tracker reproduces
    ``run_fast(..., clearing=clearing, clearing_key=clearing_key)``:
    SELL decisions open listings, the unit keeps serving (and billing)
    until its drawn clearing hour, income books at the clearing hour,
    and listings whose window closes unsold revert to serving out the
    reservation. The decision sequence itself never changes — clearing
    only splits the *physical* timeline from the effective one.
    """

    def __init__(
        self,
        model: CostModel,
        phi: float = 0.75,
        kind: FastPolicyKind = FastPolicyKind.ONLINE,
        threshold_scale: float = 1.0,
        *,
        clearing: "ClearingModel | None" = None,
        clearing_key: object = 0,
    ) -> None:
        rule = decision_rule(model, phi, kind, threshold_scale, clearing, ServeStateError)
        self.model = model
        self.phi = phi
        self.kind = kind
        self.threshold_scale = threshold_scale
        self.clearing = clearing
        self._rule = rule
        self._period = model.period
        self._clear_profile: "ClearingProfile | None" = None
        self._clear_rng: "np.random.Generator | None" = None
        if clearing is not None and rule.evaluate:
            self._clear_profile = clearing.profile(
                model.selling_discount, self._period, rule.decision_age
            )
            self._clear_rng = clearing.stream(clearing_key)

        self.hour = 0
        # Without clearing ``_active`` is the live value of *both*
        # r_physical and r_effective. With clearing it tracks the
        # effective count (decisions); ``_pending_serving`` counts sold
        # units still physically serving — listed-but-uncleared and
        # expired-listing units — so ``_active + _pending_serving`` is
        # the live r_physical that costs bill against.
        self._active = 0
        self._pending_expiry: Dict[int, int] = {}
        self._pending_serving = 0
        self._pending_serving_drop: Dict[int, int] = {}
        self._pending_income: Dict[int, List[float]] = {}
        # (reserved_at, batch_index, listed_at, delay, fate_hour, fate,
        #  income) — fate is "clear" or "expire"; rendered lazily by
        # :attr:`listings` against the hours observed so far.
        self._listings: "List[Tuple[int, int, int, int, int, str, float]]" = []
        self._total_reserved = 0
        self._od_hours = 0
        self._billed_hours = 0
        self._income = 0.0
        # ``expression`` of the last φT hours (hour h in slot h mod φT)
        # and the batches awaiting their decision hour, each as
        # (t0, size, prefix[t0 + 1]); see the module docstring.
        self._ring = np.zeros(
            rule.decision_age if rule.evaluate else 0, dtype=np.int64
        )
        self._waiting: "Deque[Tuple[int, int, int]]" = deque()
        self._decisions: List[StreamDecision] = []

    # ------------------------------------------------------------------

    @property
    def decision_age(self) -> int:
        """Hours after reservation at which this tracker decides."""
        return self._rule.decision_age

    @property
    def beta(self) -> float:
        """The break-even working time β for this tracker's φ."""
        return self._rule.beta

    def observe(self, demand: int, reservations: int = 0) -> Tuple[StreamDecision, ...]:
        """Ingest one hour: ``demand`` busy units, ``reservations`` new
        reservations made this hour. Returns the decisions (if any)
        emitted at this hour — the batch reserved ``round(φT)`` hours
        ago reaching its decision spot."""
        d = _count(demand, "demand")
        n_new = _count(reservations, "reservations")
        t = self.hour

        # 1. Expired reservations stop serving (and stop billing); sold
        #    units clear (income books now, the unit stops serving) or
        #    their listing window closes (an expired-fate unit serves
        #    until its reservation expiry, handled by the same drop map).
        self._active -= self._pending_expiry.pop(t, 0)
        if self.clearing is not None:
            self._pending_serving -= self._pending_serving_drop.pop(t, 0)
            for sale_value in self._pending_income.pop(t, ()):
                self._income += sale_value

        # 2. New reservations arrive and wait for their decision hour.
        if n_new:
            self._active += n_new
            self._total_reserved += n_new
            expiry = t + self._period
            self._pending_expiry[expiry] = (
                self._pending_expiry.get(expiry, 0) + n_new
            )
            if self._rule.evaluate:
                self._waiting.append((t, n_new, self._total_reserved))

        # 3. The batch reserved decision_age hours ago decides now, then
        #    this hour's post-sale ``expression`` takes the slot of the
        #    hour that just left the window.
        emitted: Tuple[StreamDecision, ...] = ()
        if self._rule.evaluate:
            if self._waiting and self._waiting[0][0] == t - self._rule.decision_age:
                emitted = self._decide(*self._waiting.popleft(), t)
                self._decisions.extend(emitted)
            self._ring[t % self._ring.size] = (
                self._active - d - self._total_reserved
            )

        # 4. Book this hour's costs against the live *physical* count:
        #    listed-but-uncleared units still serve and still bill.
        live = self._active + self._pending_serving
        if d > live:
            self._od_hours += d - live
        if self.model.fee_mode is HourlyFeeMode.ACTIVE:
            self._billed_hours += live
        else:
            self._billed_hours += d if d < live else live

        self.hour = t + 1
        return emitted

    def observe_trace(
        self, demands: Iterable[int], reservations: Iterable[int]
    ) -> "List[StreamDecision]":
        """Feed a whole ``(d, n)`` trace event by event; returns every
        decision emitted along the way. The two traces must cover the
        same hours."""
        d_trace, n_trace = list(demands), list(reservations)
        if len(d_trace) != len(n_trace):
            raise ServeStateError(
                f"demands and reservations must have equal length, got "
                f"{len(d_trace)} and {len(n_trace)} hours"
            )
        collected: List[StreamDecision] = []
        for d, n in zip(d_trace, n_trace):
            collected.extend(self.observe(d, n))
        return collected

    # ------------------------------------------------------------------

    def _decide(
        self, t0: int, size: int, shift: int, t: int
    ) -> Tuple[StreamDecision, ...]:
        """Decide every instance of batch ``t0`` at its decision hour."""
        ordered, working, sold = decide_batch(
            self._ring, shift, size, self._rule.threshold
        )
        if sold + 1 < size:
            # After the first keep (i = sold + 1) the batch's rewrites
            # stop: instance i sees a shift of (i − 1) + sold.
            working[sold + 1 :] = np.searchsorted(
                ordered, np.arange(sold + 1, size) + sold - shift, side="right"
            )
        if sold:
            self._ring -= sold
            self._active -= sold
            self._pending_expiry[t0 + self._period] -= sold
            for batch_index in range(1, sold + 1):
                if self._clear_profile is None:
                    self._income += self._rule.per_sale_income
                else:
                    self._list_sale(t0, t, batch_index)
        return tuple(
            StreamDecision(
                reserved_at=t0,
                batch_index=i,
                hour=t,
                working_hours=hours,
                verdict=Verdict.SELL if i <= sold else Verdict.KEEP,
            )
            for i, hours in enumerate(working.tolist(), start=1)
        )

    def _list_sale(self, t0: int, t: int, batch_index: int) -> None:
        """Open a marketplace listing for one SELL decision at hour ``t``.

        Draws the clearing delay, books delay-0 clears immediately
        (scheduled clears for this hour were already booked in step 1,
        so income accumulates in ``run_fast``'s (clear_hour, listing)
        order), and schedules the physical-serving drop: at the clearing
        hour for cleared-fate listings, at the reservation expiry for
        expired-fate ones.
        """
        profile = self._clear_profile
        delay = profile.sample_delay(self._clear_rng.random())
        if delay < profile.window:
            clear_at = t + delay
            sale_value = float(
                cleared_income(self.model, profile.discounts[delay], clear_at, t0)
            )
            if delay == 0:
                self._income += sale_value
            else:
                self._pending_serving += 1
                self._pending_serving_drop[clear_at] = (
                    self._pending_serving_drop.get(clear_at, 0) + 1
                )
                self._pending_income.setdefault(clear_at, []).append(sale_value)
            fate_hour, fate, income = clear_at, "clear", sale_value
        else:
            expiry = t0 + self._period
            self._pending_serving += 1
            self._pending_serving_drop[expiry] = (
                self._pending_serving_drop.get(expiry, 0) + 1
            )
            fate_hour, fate, income = t + profile.window, "expire", 0.0
        self._listings.append((t0, batch_index, t, delay, fate_hour, fate, income))

    # ------------------------------------------------------------------

    @property
    def decisions(self) -> Tuple[StreamDecision, ...]:
        """Every decision emitted so far, in emission order."""
        return tuple(self._decisions)

    @property
    def sales(self) -> Tuple[FastSale, ...]:
        """The SELL decisions in :class:`~repro.core.fastsim.FastSale`
        form, directly comparable to ``run_fast(...).sales``."""
        return tuple(
            FastSale(
                reserved_at=decision.reserved_at,
                batch_index=decision.batch_index,
                hour=decision.hour,
                working_hours=decision.working_hours,
            )
            for decision in self._decisions
            if decision.verdict is Verdict.SELL
        )

    @property
    def instances_sold(self) -> int:
        return sum(
            1 for decision in self._decisions if decision.verdict is Verdict.SELL
        )

    @property
    def pending_batches(self) -> int:
        """Reservation batches whose decision hour has not arrived."""
        return len(self._waiting)

    @property
    def listings(self) -> Tuple[FastListing, ...]:
        """Listing lifecycle records, rendered against the hours seen so
        far; after ``H`` observed hours this equals
        ``run_fast(d[:H], n[:H], ..., clearing=...).listings`` exactly.
        Empty without a clearing model."""
        rendered: List[FastListing] = []
        horizon = self.hour
        for t0, batch_index, listed_at, delay, fate_hour, fate, income in (
            self._listings
        ):
            settled = fate_hour < horizon
            if fate == "clear":
                outcome = "cleared" if settled else "open"
                cleared_at = fate_hour if settled else None
            else:
                outcome = "expired" if settled else "open"
                cleared_at = None
            rendered.append(
                FastListing(
                    reserved_at=t0,
                    batch_index=batch_index,
                    listed_at=listed_at,
                    delay=delay,
                    cleared_at=cleared_at,
                    outcome=outcome,
                    income=income if (fate == "clear" and settled) else 0.0,
                )
            )
        return tuple(rendered)

    @property
    def listings_open(self) -> int:
        """Listings still on the marketplace book right now."""
        return sum(
            1 for record in self._listings if record[4] >= self.hour
        )

    @property
    def instances_cleared(self) -> int:
        """Sales that actually cleared on the marketplace; equals
        :attr:`instances_sold` without a clearing model."""
        if self.clearing is None:
            return self.instances_sold
        return sum(
            1
            for record in self._listings
            if record[5] == "clear" and record[4] < self.hour
        )

    @property
    def listings_expired(self) -> int:
        """Listings whose clearing window closed without a buyer."""
        return sum(
            1
            for record in self._listings
            if record[5] == "expire" and record[4] < self.hour
        )

    @property
    def breakdown(self) -> CostBreakdown:
        """Eq. (1) cost components accumulated over the observed hours;
        equals the batch engine's breakdown for the same trace prefix."""
        return CostBreakdown(
            on_demand=float(self._od_hours) * self.model.p,
            upfront=float(self._total_reserved) * self.model.big_r,
            reserved_hourly=self._billed_hours * self.model.alpha * self.model.p,
            sale_income=self._income,
        )


def run_stream(
    demands: "np.ndarray | Sequence[int]",
    reservations: "np.ndarray | Sequence[int]",
    model: CostModel,
    phi: float = 0.75,
    kind: FastPolicyKind = FastPolicyKind.ONLINE,
    threshold_scale: float = 1.0,
    *,
    clearing: "ClearingModel | None" = None,
    clearing_key: object = 0,
) -> StreamTracker:
    """Feed a whole trace through a fresh :class:`StreamTracker` —
    the streaming counterpart of :func:`repro.core.fastsim.run_fast`,
    returning the tracker for inspection."""
    tracker = StreamTracker(
        model,
        phi=phi,
        kind=kind,
        threshold_scale=threshold_scale,
        clearing=clearing,
        clearing_key=clearing_key,
    )
    tracker.observe_trace(demands, reservations)
    return tracker


# ----------------------------------------------------------------------
# Vectorised fleet engine
# ----------------------------------------------------------------------

_PENDING = 0
_SELL = 1
_KEEP = 2
_WAIT = 3

_VERDICT_CODES = {
    _PENDING: Verdict.PENDING,
    _SELL: Verdict.SELL,
    _KEEP: Verdict.KEEP,
    _WAIT: Verdict.WAIT_FOR_CLEAR,
}

#: Listing fates per (instance, φ) under clearing: no listing, a drawn
#: clearing hour ahead, or a window that will close unsold.
_FATE_NONE = 0
_FATE_CLEAR = 1
_FATE_EXPIRE = 2

#: Row kinds of a fleet column: one entry per instance, or one row per
#: menu spot or per cancellation spec (named by the FleetState attribute
#: whose length gives the row count).
_PER_INSTANCE = None
_PER_SPOT = "thresholds"
_PER_CANCELLATION = "_cancellations"

#: FleetState's per-instance state, declared once as ``(attribute, rows,
#: dtype, fill)``. A per-spot or per-policy column is one ``rows ×
#: capacity`` array whose row ``[k]`` is a view on one φ's (or one
#: cancellation spec's) state.
_COLUMNS: "Tuple[Tuple[str, Optional[str], type, int], ...]" = (
    ("_age", _PER_INSTANCE, np.int64, 0),
    ("_working", _PER_INSTANCE, np.int64, 0),
    ("_working_in_term", _PER_INSTANCE, np.int64, 0),
    # The menu index a randomized policy's per-key stream drew at
    # registration (-1 = no randomized policy).
    ("_drawn", _PER_INSTANCE, np.int64, -1),
    ("_verdicts", _PER_SPOT, np.int8, _PENDING),
    # Working hours at the decision age (-1 = not decided yet).
    ("_working_at", _PER_SPOT, np.int64, -1),
    # Listing state: the age at which an open listing resolves (-1 = no
    # listing pending) and its drawn fate.
    ("_clear_at", _PER_SPOT, np.int64, -1),
    ("_fate", _PER_SPOT, np.int8, _FATE_NONE),
    # Re-buy state: the age at which the re-buy was booked (-1 = none
    # yet) and the in-term busy hours seen since the SELL verdict settled.
    ("_rebuy_age", _PER_CANCELLATION, np.int64, -1),
    ("_busy_after_sale", _PER_CANCELLATION, np.int64, 0),
)


@dataclass(frozen=True)
class PhiThreshold:
    """One decision spot's precomputed parameters: working time below
    ``threshold`` (the engine's :func:`~repro.core.popsim.decision_rule`
    threshold, scale · β) at ``decision_age`` means SELL."""

    phi: float
    decision_age: int
    threshold: float


@dataclass(frozen=True)
class FleetDecision:
    """A newly-settled verdict for one fleet instance at one φ.

    Under a clearing model a SELL-rule hit first settles as
    ``WAIT_FOR_CLEAR`` (``listing="opened"``); a second decision follows
    when the listing resolves — ``SELL`` with ``listing="cleared"`` or
    ``KEEP`` with ``listing="expired"`` — carrying the hours the listing
    sat on the book in ``waited_hours``. Without clearing both fields
    keep their defaults.
    """

    instance: str
    phi: float
    verdict: Verdict
    working_hours: int
    age: int
    listing: "str | None" = None
    waited_hours: int = 0
    #: Provenance (schema 2): the canonical policy spec this decision
    #: belongs to, and — for a randomized policy — the φ the policy's
    #: per-instance stream drew for this instance. ``None`` for plain
    #: menu decisions (and stripped from schema-1 responses).
    policy_spec: "str | None" = None
    drawn_phi: "float | None" = None


class FleetState:
    """Vectorised per-instance trackers (single-reservation model).

    Each registered instance is one reserved instance observed from its
    reservation hour (age 0): every applied event is one elapsed hour,
    busy or idle. At each decision fraction φ the instance's verdict
    settles the moment its age reaches ``round(φT)`` — SELL iff its
    working time so far is below that φ's break-even β — exactly the
    :class:`StreamTracker` rule for a lone reservation (equivalence is
    pinned in ``tests/serve/test_fleet.py``).

    State lives in one table of numpy columns (:data:`_COLUMNS`: age,
    cumulative working hours, and per φ a verdict, the working time at
    the decision and the listing state), so applying a batch of events
    costs a few array ops regardless of fleet size. Every decision-hour
    hit settles through :meth:`_decide`.
    """

    def __init__(
        self,
        model: CostModel,
        phis: Sequence[float] = PAPER_DECISION_FRACTIONS,
        threshold_scale: float = 1.0,
        capacity: int = 64,
        *,
        clearing: "ClearingModel | None" = None,
        policies: "Sequence[object] | None" = None,
    ) -> None:
        # Checked before the specs are compared with it.
        validate_threshold_scale(threshold_scale, ServeStateError)
        if not phis:
            raise ServeStateError("at least one decision fraction is required")
        if len(set(phis)) != len(phis):
            raise ServeStateError(f"duplicate decision fractions in {phis!r}")
        # Declarative policy specs ride on top of the φ menu: each spec's
        # decision fractions join the menu, a randomized spec additionally
        # draws one menu spot per instance at registration, and each
        # cancellation spec watches its sold instances for returning
        # demand. Specs are stored canonically (never as pickles) so the
        # checkpoint and the wire carry the exact construction recipe.
        specs: "List[PolicySpec]" = []
        randomized_spec: "Optional[PolicySpec]" = None
        randomized_policy: "Optional[RandomizedSellingPolicy]" = None
        cancellation_specs: "List[Tuple[PolicySpec, CancellationAwareSellingPolicy]]" = []
        menu = [float(phi) for phi in phis]
        for given in policies or ():
            try:
                spec = given if isinstance(given, PolicySpec) else PolicySpec(given)
            except PolicyError as error:
                raise ServeStateError(str(error)) from error
            if spec.kind in (SPEC_KEEP, SPEC_ALL_SELLING):
                raise ServeStateError(
                    f"the {spec.kind} policy ignores working time — the "
                    "advisory fleet advises only the online rule; drop the spec"
                )
            policy = spec.build()
            policy_scale = getattr(policy, "threshold_scale", threshold_scale)
            if policy_scale != threshold_scale:
                raise ServeStateError(
                    f"policy spec {spec.canonical()!r} carries "
                    f"scale={policy_scale!r} but the fleet evaluates every "
                    f"decision fraction at threshold_scale="
                    f"{threshold_scale!r}; they must agree"
                )
            if isinstance(policy, RandomizedSellingPolicy):
                if randomized_policy is not None:
                    raise ServeStateError(
                        "at most one randomized policy spec per fleet — a "
                        "second one would need its own per-instance draws"
                    )
                randomized_spec, randomized_policy = spec, policy
                for spot in policy.spots:
                    if spot not in menu:
                        menu.append(spot)
            else:
                if isinstance(policy, CancellationAwareSellingPolicy):
                    cancellation_specs.append((spec, policy))
                if policy.phi not in menu:
                    menu.append(float(policy.phi))
            specs.append(spec)
        period = model.period
        thresholds = []
        for phi in menu:
            rule = decision_rule(
                model, phi, FastPolicyKind.ONLINE, threshold_scale, clearing, ServeStateError
            )
            if not rule.evaluate:
                raise ServeStateError(
                    f"phi={phi!r} with period {period}h yields a degenerate "
                    f"decision age of {rule.decision_age}h"
                )
            thresholds.append(PhiThreshold(phi, rule.decision_age, rule.threshold))
        self.model = model
        self.threshold_scale = threshold_scale
        self.thresholds: Tuple[PhiThreshold, ...] = tuple(thresholds)
        self._period = period
        self.clearing = clearing
        spot_index = {
            threshold.phi: k for k, threshold in enumerate(self.thresholds)
        }
        self.policy_specs: Tuple[PolicySpec, ...] = tuple(specs)
        self._randomized_spec = randomized_spec
        self._randomized = randomized_policy
        self._cancellations: "Tuple[Tuple[PolicySpec, CancellationAwareSellingPolicy, int], ...]" = tuple(
            (spec, policy, spot_index[float(policy.phi)])
            for spec, policy in cancellation_specs
        )
        self._spot_index = spot_index
        self._clear_profiles: "List[ClearingProfile] | None" = None
        if clearing is not None:
            self._clear_profiles = [
                clearing.profile(
                    model.selling_discount, period, threshold.decision_age
                )
                for threshold in self.thresholds
            ]
        # Every per-instance array (``_age``, ``_verdicts``, ...) is a
        # column of :data:`_COLUMNS`.
        self._allocate(max(int(capacity), 1))
        self._ids: List[str] = []
        self._index: Dict[str, int] = {}

    # ------------------------------------------------------------------

    @property
    def phis(self) -> Tuple[float, ...]:
        return tuple(threshold.phi for threshold in self.thresholds)

    @property
    def size(self) -> int:
        """Number of tracked instances."""
        return len(self._ids)

    @property
    def instance_ids(self) -> Tuple[str, ...]:
        return tuple(self._ids)

    def __contains__(self, instance_id: str) -> bool:
        return instance_id in self._index

    def _allocate(self, capacity: int) -> None:
        """Set every column of :data:`_COLUMNS` to a fresh array of
        ``capacity`` instance slots, filled with the column's fill."""
        for name, rows, dtype, fill in _COLUMNS:
            shape = (capacity,) if rows is None else (len(getattr(self, rows)), capacity)
            setattr(self, name, np.full(shape, fill, dtype=dtype))

    def _grow(self, minimum: int) -> None:
        capacity = size = self._age.size
        while capacity < minimum:
            capacity *= 2
        if capacity == size:
            return
        columns = [getattr(self, name) for name, *_ in _COLUMNS]
        self._allocate(capacity)
        for (name, *_), column in zip(_COLUMNS, columns):
            getattr(self, name)[..., :size] = column

    def register(self, instance_id: str) -> int:
        """Start tracking ``instance_id`` at age 0 (idempotent).

        Under a randomized policy, registration is also the draw: the
        policy's per-key stream (seeded by the spec, keyed by the
        instance id) picks this instance's decision spot once, here —
        deterministic, so a restored checkpoint and the original
        process agree on every draw.
        """
        if not instance_id or not isinstance(instance_id, str):
            raise ServeStateError(
                f"instance ids must be non-empty strings, got {instance_id!r}"
            )
        existing = self._index.get(instance_id)
        if existing is not None:
            return existing
        index = len(self._ids)
        self._grow(index + 1)
        self._ids.append(instance_id)
        self._index[instance_id] = index
        if self._randomized is not None:
            spot = self._randomized.draw_spot(instance_id)
            self._drawn[index] = self._spot_index[float(spot)]
        return index

    # ------------------------------------------------------------------

    def apply_events(
        self, instances: Sequence[str], busy: Sequence[bool]
    ) -> List[FleetDecision]:
        """Apply one batch of hourly events; returns verdicts that
        settled during this batch.

        ``instances[k]`` advances by one hour, busy if ``busy[k]``.
        Unknown instances are registered at age 0 on first sight. A
        batch may mention an instance several times; occurrences apply
        in order (the batch is partitioned into rounds, each touching
        any instance at most once, so the vectorised path is exact).
        """
        if len(instances) != len(busy):
            raise ServeStateError(
                f"instances and busy flags differ in length: "
                f"{len(instances)} vs {len(busy)}"
            )
        rounds: List[Tuple[List[int], List[int]]] = []
        occurrence: Dict[str, int] = {}
        for instance_id, flag in zip(instances, busy):
            index = self.register(instance_id)
            round_number = occurrence.get(instance_id, 0)
            occurrence[instance_id] = round_number + 1
            if round_number == len(rounds):
                rounds.append(([], []))
            round_indices, round_busy = rounds[round_number]
            round_indices.append(index)
            round_busy.append(1 if flag else 0)

        settled: List[FleetDecision] = []
        for round_indices, round_busy in rounds:
            idx = np.asarray(round_indices, dtype=np.int64)
            flags = np.asarray(round_busy, dtype=np.int64)
            self._working[idx] += flags
            self._age[idx] += 1
            ages = self._age[idx]
            # A busy hour is covered by the reservation while the
            # (post-advance) age is within the reservation period.
            self._working_in_term[idx] += flags * (ages <= self._period)
            # Cancellation watch, BEFORE this round's verdicts settle:
            # the busy hour just applied precedes any decision landing at
            # this age, so only instances whose SELL verdict settled on
            # an earlier event count it. Under clearing the verdict turns
            # SELL only when the listing clears, so open and expired
            # listings never watch — matching apply_rebuys' watch_from.
            for c, (_spec, policy, k_c) in enumerate(self._cancellations):
                watching = (
                    (self._verdicts[k_c][idx] == _SELL)
                    & (self._rebuy_age[c][idx] == -1)
                    & (flags == 1)
                    & (ages <= self._period)
                )
                if watching.any():
                    watch_idx = idx[watching]
                    self._busy_after_sale[c][watch_idx] += 1
                    trigger = policy.cancellation.trigger_hours
                    hit = self._busy_after_sale[c][watch_idx] >= trigger
                    if hit.any():
                        # The triggering busy hour spans ages [h-1, h);
                        # book the re-buy at its start, matching the
                        # batch engines' trigger hour.
                        hit_idx = watch_idx[hit]
                        self._rebuy_age[c][hit_idx] = self._age[hit_idx] - 1
            for k, threshold in enumerate(self.thresholds):
                hit = ages == threshold.decision_age
                if hit.any():
                    settled.extend(self._decide(k, threshold, idx[hit]))
                if self._clear_profiles is not None:
                    settled.extend(self._settle_listings(k, threshold, idx, ages))
        return settled

    def _provenance(self, index: int, k: int) -> "Dict[str, object]":
        """Schema-2 provenance fields for one decision at menu index
        ``k``: the randomized spec (with the instance's drawn φ) when
        ``k`` is this instance's drawn spot, else the cancellation spec
        deciding at that φ, else nothing."""
        if self._randomized_spec is not None and int(self._drawn[index]) == k:
            return {
                "policy_spec": self._randomized_spec.canonical(),
                "drawn_phi": self.thresholds[k].phi,
            }
        for spec, _policy, k_c in self._cancellations:
            if k_c == k:
                return {"policy_spec": spec.canonical()}
        return {}

    def _decide(
        self, k: int, threshold: PhiThreshold, hit_idx: np.ndarray
    ) -> List[FleetDecision]:
        """Settle the instances ``hit_idx`` reaching menu spot ``k``'s
        decision age.

        SELL iff the working time so far is below the engine's
        threshold, else KEEP. Under a clearing model a SELL draws its
        clearing delay from a per-(instance, φ) stream — deterministic,
        so a restored checkpoint and the original process agree — and
        either clears on the spot (delay 0 → SELL, ``listing="cleared"``)
        or opens a listing (``WAIT_FOR_CLEAR``, ``listing="opened"``)
        that :meth:`_settle_listings` resolves at ``decision_age +
        delay``: cleared if the delay is inside the window, else expired.
        """
        working = self._working[hit_idx]
        self._working_at[k][hit_idx] = working
        sell = working < threshold.threshold
        self._verdicts[k][hit_idx] = np.where(sell, _SELL, _KEEP)
        profile = None if self._clear_profiles is None else self._clear_profiles[k]
        emitted: List[FleetDecision] = []
        for index, hours, selling in zip(hit_idx.tolist(), working.tolist(), sell.tolist()):
            instance_id = self._ids[index]
            verdict = Verdict.SELL if selling else Verdict.KEEP
            listing = None
            if selling and profile is not None:
                stream = self.clearing.stream(f"{instance_id}#{threshold.phi!r}")
                delay = profile.sample_delay(float(stream.random()))
                listing = "cleared"
                if delay:
                    verdict, listing = Verdict.WAIT_FOR_CLEAR, "opened"
                    self._verdicts[k][index] = _WAIT
                    self._clear_at[k][index] = threshold.decision_age + delay
                    self._fate[k][index] = (
                        _FATE_CLEAR if delay < profile.window else _FATE_EXPIRE
                    )
            emitted.append(
                FleetDecision(
                    instance=instance_id,
                    phi=threshold.phi,
                    verdict=verdict,
                    working_hours=hours,
                    age=threshold.decision_age,
                    listing=listing,
                    **self._provenance(index, k),
                )
            )
        return emitted

    def _settle_listings(
        self,
        k: int,
        threshold: PhiThreshold,
        idx: np.ndarray,
        ages: np.ndarray,
    ) -> List[FleetDecision]:
        """Resolve WAIT_FOR_CLEAR listings whose age reached the drawn
        resolution hour: cleared-fate listings settle to SELL
        (``listing="cleared"``), expired windows revert to KEEP
        (``listing="expired"``)."""
        due = (self._verdicts[k][idx] == _WAIT) & (ages == self._clear_at[k][idx])
        emitted: List[FleetDecision] = []
        for index, age in zip(idx[due].tolist(), ages[due].tolist()):
            cleared = self._fate[k][index] == _FATE_CLEAR
            self._verdicts[k][index] = _SELL if cleared else _KEEP
            self._clear_at[k][index] = -1
            self._fate[k][index] = _FATE_NONE
            emitted.append(
                FleetDecision(
                    instance=self._ids[index],
                    phi=threshold.phi,
                    verdict=Verdict.SELL if cleared else Verdict.KEEP,
                    working_hours=int(self._working_at[k][index]),
                    age=age,
                    listing="cleared" if cleared else "expired",
                    waited_hours=age - threshold.decision_age,
                    **self._provenance(index, k),
                )
            )
        return emitted

    # ------------------------------------------------------------------

    def instance_state(self, instance_id: str) -> "Dict[str, object]":
        """One instance's full advisory state as a JSON-ready dict."""
        index = self._index.get(instance_id)
        if index is None:
            raise ServeStateError(f"unknown instance {instance_id!r}")
        return self._row(index)

    def _row(self, index: int) -> "Dict[str, object]":
        spots: "Dict[str, object]" = {}
        for k, threshold in enumerate(self.thresholds):
            code = int(self._verdicts[k][index])
            working_at = int(self._working_at[k][index])
            spot: "Dict[str, object]" = {
                "verdict": _VERDICT_CODES[code].value,
                "working_at_decision": working_at if working_at >= 0 else None,
            }
            if self.clearing is not None and code == _WAIT:
                spot["listing_resolves_at_age"] = int(self._clear_at[k][index])
            spots[repr(threshold.phi)] = spot
        row: "Dict[str, object]" = {
            "instance": self._ids[index],
            "age_hours": int(self._age[index]),
            "working_hours": int(self._working[index]),
            "decisions": spots,
        }
        if self._randomized_spec is not None:
            drawn = int(self._drawn[index])
            row["policy_spec"] = self._randomized_spec.canonical()
            row["drawn_phi"] = repr(self.thresholds[drawn].phi)
        if self._cancellations:
            row["rebuys"] = {
                spec.canonical(): (
                    int(self._rebuy_age[c][index])
                    if self._rebuy_age[c][index] >= 0
                    else None
                )
                for c, (spec, _policy, _k) in enumerate(self._cancellations)
            }
        return row

    def rows(self) -> "List[Dict[str, object]]":
        """Every instance's advisory state, in registration order."""
        return [self._row(index) for index in range(len(self._ids))]

    def verdict_counts(self) -> "Dict[str, Dict[str, int]]":
        """Per-φ tally of verdicts across the fleet (for metrics)."""
        tally: "Dict[str, Dict[str, int]]" = {}
        size = len(self._ids)
        for k, threshold in enumerate(self.thresholds):
            codes = self._verdicts[k][:size]
            tally[repr(threshold.phi)] = {
                verdict.value: int(np.count_nonzero(codes == code))
                for code, verdict in _VERDICT_CODES.items()
            }
        return tally

    # ------------------------------------------------------------------
    # Cost accounting (integer counts so shard sums merge exactly)
    # ------------------------------------------------------------------

    def cost_counts(self) -> "Dict[str, Dict[str, int]]":
        """Per-φ integer cost counts accrued so far, keyed by ``repr(phi)``.

        Every count is an exact integer — instances, sales, billed
        hours, on-demand hours — so a sharded deployment can sum the
        counts across shards and multiply by the model's prices *once*
        (:func:`breakdown_from_counts`), reproducing the single-process
        :meth:`cost_breakdowns` bit for bit.

        Accounting follows the paper's single-reservation model at each
        decision fraction independently: a SELL verdict ends the
        reservation at the decision age (later busy hours are on-demand,
        income is one marketplace sale); KEEP and PENDING instances bill
        through the reservation period and pay on-demand only after it
        expires. A WAIT_FOR_CLEAR instance counts as unsold — physically
        accurate while its listing is open, since the unit keeps serving
        and billing until it clears; once the listing settles, the
        verdict (SELL or KEEP) takes over. The exact clearing-hour
        income/billing split lives in the trace-exact engines
        (:class:`StreamTracker`, :func:`repro.core.fastsim.run_fast`),
        not in this fleet approximation.
        """
        size = len(self._ids)
        period = self._period
        active_fee = self.model.fee_mode is HourlyFeeMode.ACTIVE
        ages = self._age[:size]
        working = self._working[:size]
        in_term = self._working_in_term[:size]
        counts: "Dict[str, Dict[str, int]]" = {}
        for k, threshold in enumerate(self.thresholds):
            sold = self._verdicts[k][:size] == _SELL
            unsold = ~sold
            n_sold = int(np.count_nonzero(sold))
            working_at = self._working_at[k][:size]
            if active_fee:
                billed_sold = n_sold * threshold.decision_age
            else:
                billed_sold = int(working_at[sold].sum())
            billed_unsold_active = int(np.minimum(ages[unsold], period).sum())
            billed_unsold = (
                billed_unsold_active if active_fee else int(in_term[unsold].sum())
            )
            od_sold = int((working[sold] - working_at[sold]).sum())
            od_unsold = int((working[unsold] - in_term[unsold]).sum())
            counts[repr(threshold.phi)] = {
                "instances": size,
                "sold": n_sold,
                "billed_hours": billed_sold + billed_unsold,
                "od_hours": od_sold + od_unsold,
            }
        return counts

    def rebuy_counts(self) -> "Dict[str, Dict[str, int]]":
        """Per-cancellation-policy re-buy counts, keyed by canonical spec.

        Both fields are exact integers — the number of re-buys booked
        and the sum of the ages (hours since reservation) at which they
        were booked — so a sharded deployment sums them across shards
        and prices the totals once (:func:`rebuy_outlay_from_counts`),
        the same integers-then-price-once discipline as
        :meth:`cost_counts`.
        """
        size = len(self._ids)
        counts: "Dict[str, Dict[str, int]]" = {}
        for c, (spec, _policy, _k) in enumerate(self._cancellations):
            ages = self._rebuy_age[c][:size]
            booked = ages >= 0
            counts[spec.canonical()] = {
                "rebuys": int(np.count_nonzero(booked)),
                "rebuy_age_sum": int(ages[booked].sum()),
            }
        return counts

    def cancellation_penalties(self) -> "Dict[str, float]":
        """Per-cancellation-policy re-buy penalty, keyed by canonical
        spec — the pricing input that pairs with :meth:`rebuy_counts`."""
        return {
            spec.canonical(): float(policy.cancellation.penalty)
            for spec, policy, _k in self._cancellations
        }

    def cost_breakdowns(self) -> "Dict[str, CostBreakdown]":
        """Per-φ :class:`~repro.core.account.CostBreakdown`, keyed by
        ``repr(phi)`` — the priced form of :meth:`cost_counts`."""
        return {
            repr(threshold.phi): breakdown_from_counts(
                self.model, threshold.phi, counts
            )
            for threshold, counts in zip(
                self.thresholds, self.cost_counts().values()
            )
        }

    # ------------------------------------------------------------------
    # Checkpoint support (payload shape owned here, IO in checkpoint.py)
    # ------------------------------------------------------------------

    def snapshot_instances(self) -> "List[Dict[str, object]]":
        """Per-instance state rows for a checkpoint payload."""
        snapshot: "List[Dict[str, object]]" = []
        for index, instance_id in enumerate(self._ids):
            spots: "Dict[str, object]" = {}
            for k, threshold in enumerate(self.thresholds):
                spots[repr(threshold.phi)] = {
                    "verdict": int(self._verdicts[k][index]),
                    "working_at": int(self._working_at[k][index]),
                    "clear_at": int(self._clear_at[k][index]),
                    "fate": int(self._fate[k][index]),
                }
            row: "Dict[str, object]" = {
                "id": instance_id,
                "age": int(self._age[index]),
                "working": int(self._working[index]),
                "working_in_term": int(self._working_in_term[index]),
                "spots": spots,
            }
            if self._randomized is not None:
                row["drawn"] = int(self._drawn[index])
            if self._cancellations:
                row["rebuys"] = {
                    spec.canonical(): {
                        "age": int(self._rebuy_age[c][index]),
                        "busy": int(self._busy_after_sale[c][index]),
                    }
                    for c, (spec, _policy, _k) in enumerate(self._cancellations)
                }
            snapshot.append(row)
        return snapshot

    def restore_instances(self, rows: "Iterable[Dict[str, object]]") -> None:
        """Load instance rows produced by :meth:`snapshot_instances`."""
        for row in rows:
            try:
                index = self.register(str(row["id"]))
                self._age[index] = int(row["age"])  # type: ignore[call-overload]
                self._working[index] = int(row["working"])  # type: ignore[call-overload]
                self._working_in_term[index] = int(  # type: ignore[call-overload]
                    row["working_in_term"]
                )
                spots = row["spots"]
                for k, threshold in enumerate(self.thresholds):
                    spot = spots[repr(threshold.phi)]  # type: ignore[index]
                    code = int(spot["verdict"])
                    if code not in _VERDICT_CODES:
                        raise ServeStateError(
                            f"unknown verdict code {code!r} in checkpoint row"
                        )
                    if code == _WAIT and self.clearing is None:
                        raise ServeStateError(
                            "checkpoint row holds an open listing but this "
                            "fleet has no clearing model to settle it"
                        )
                    self._verdicts[k][index] = code
                    self._working_at[k][index] = int(spot["working_at"])
                    fate = int(spot["fate"])
                    if fate not in (_FATE_NONE, _FATE_CLEAR, _FATE_EXPIRE):
                        raise ServeStateError(
                            f"unknown listing fate {fate!r} in checkpoint row"
                        )
                    self._clear_at[k][index] = int(spot["clear_at"])
                    self._fate[k][index] = fate
                if self._randomized is not None:
                    # register() already re-drew this instance's spot
                    # from the policy's deterministic stream; the stored
                    # draw must agree or the checkpoint was written
                    # under a different randomized spec.
                    stored = int(row["drawn"])  # type: ignore[call-overload]
                    if stored != int(self._drawn[index]):
                        raise ServeStateError(
                            f"checkpoint drew menu spot {stored} for "
                            f"{row['id']!r} but this fleet's randomized "
                            f"policy draws {int(self._drawn[index])} — "
                            "the specs (seed or spots) disagree"
                        )
                for c, (spec, _policy, _k) in enumerate(self._cancellations):
                    entry = row["rebuys"][spec.canonical()]  # type: ignore[index]
                    self._rebuy_age[c][index] = int(entry["age"])
                    self._busy_after_sale[c][index] = int(entry["busy"])
            except (KeyError, TypeError, ValueError) as error:
                raise ServeStateError(
                    f"malformed fleet state row: {row!r}"
                ) from error


def breakdown_from_counts(
    model: CostModel, phi: float, counts: "Dict[str, int]"
) -> CostBreakdown:
    """Price one φ's integer cost counts into a
    :class:`~repro.core.account.CostBreakdown`.

    This is the *only* place counts meet floats: every multiplication
    happens exactly once, in a fixed expression order, so summing
    per-shard counts first and pricing the totals here is bit-identical
    to pricing a single process's counts.
    """
    try:
        instances = int(counts["instances"])
        sold = int(counts["sold"])
        billed_hours = int(counts["billed_hours"])
        od_hours = int(counts["od_hours"])
    except (KeyError, TypeError, ValueError) as error:
        raise ServeStateError(f"malformed cost counts: {counts!r}") from error
    decision_age = round(phi * model.period)
    remaining_fraction = 1.0 - decision_age / model.period
    per_sale = model.sale_income(remaining_fraction)
    return CostBreakdown(
        on_demand=float(od_hours) * model.p,
        upfront=float(instances) * model.big_r,
        reserved_hourly=billed_hours * model.alpha * model.p,
        sale_income=float(sold) * per_sale,
    )


def costs_body(
    model: CostModel,
    phi_counts: "Dict[str, Dict[str, int]]",
    rebuy_counts: "Dict[str, Dict[str, int]]",
    penalties: "Dict[str, float]",
) -> "Dict[str, object]":
    """The priced ``/v1/costs`` body from integer counts.

    ``phi_counts`` is keyed by ``repr(phi)`` (:meth:`FleetState.cost_counts`)
    and ``rebuy_counts``/``penalties`` by canonical cancellation spec
    (:meth:`FleetState.rebuy_counts`/:meth:`FleetState.cancellation_penalties`).
    Both count maps arrive in the caller's key order and keep it. The
    ``policies`` section (schema 2) appears only when a cancellation
    policy is configured; its counts stay integers so a sharded
    deployment sums them exactly and prices once, and ``penalty`` rides
    along so the router needn't parse the spec string.
    """
    phis: "Dict[str, object]" = {}
    for key, counts in phi_counts.items():
        breakdown = breakdown_from_counts(model, float(key), counts)
        phis[key] = {
            "counts": counts,
            "breakdown": {
                "on_demand": breakdown.on_demand,
                "upfront": breakdown.upfront,
                "reserved_hourly": breakdown.reserved_hourly,
                "sale_income": breakdown.sale_income,
                "total": breakdown.total,
            },
        }
    body: "Dict[str, object]" = {"phis": phis}
    if rebuy_counts:
        body["policies"] = {
            spec: {
                "counts": counts,
                "penalty": penalties[spec],
                "rebuy_outlay": rebuy_outlay_from_counts(
                    model, penalties[spec], counts
                ),
            }
            for spec, counts in rebuy_counts.items()
        }
    return body


def rebuy_outlay_from_counts(
    model: CostModel, penalty: float, counts: "Dict[str, int]"
) -> float:
    """Price one cancellation policy's integer re-buy counts.

    Each re-buy at age ``h`` costs ``(1 + penalty) · a · (1 − h/T) · R``
    (a marketplace re-purchase of the remaining term at the selling
    discount, plus the penalty premium — :mod:`repro.core.cancellation`).
    Summed over re-buys that is
    ``(1 + penalty) · a · R · (rebuys − Σh / T)``, priced here exactly
    once from the integer pair so per-shard counts merge bit-identically
    (the :func:`breakdown_from_counts` discipline).
    """
    try:
        rebuys = int(counts["rebuys"])
        age_sum = int(counts["rebuy_age_sum"])
    except (KeyError, TypeError, ValueError) as error:
        raise ServeStateError(f"malformed rebuy counts: {counts!r}") from error
    return (
        (1.0 + penalty)
        * model.selling_discount
        * (float(rebuys) - age_sum / model.period)
        * model.big_r
    )


