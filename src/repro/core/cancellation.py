"""Sell-then-rebuy cancellation: the static rank rule shared by engines.

"Online Resource Allocation with Cancellations" (arXiv 2210.11570)
studies allocations that may be cancelled at a penalty. Mapped onto the
paper's marketplace: a seller who followed Algorithm 1/2 and sold a
reservation may later find the demand it served has *returned* — and
can cancel the sale economically by buying a replacement reservation on
the marketplace at the prorated upfront plus a penalty surcharge.

The decision sequence is untouched — exactly the invariant the clearing
engine established: sell/keep decisions (and therefore the history
rewrites, the sale tuples, and every differential against the reference
simulator) are identical with and without cancellation; only the
physical serving timeline and the income/expense ledger change.

The re-buy trigger is deliberately *static* so every execution layer —
the per-user batch engine, the population tensor engine, and the
incremental serving fleet — computes the identical outcome from the
same inputs with no simulation interleaving:

* ``r_base`` is the physical serving timeline including sales and
  clearing but **excluding** re-buys;
* sold units are ranked by sale order (decision hour, then batch
  index); unit ``s`` watches its window ``[watch_from, term_end)`` —
  from its clearing hour (the decision hour under instant sales) to its
  original term end — and sees the *residual* unmet demand
  ``d(h) − r_base(h) − rank_s(h)``, where ``rank_s(h)`` counts senior
  sold units whose watch windows cover ``h`` (each senior unit absorbs
  one unit of returned demand, whether or not it actually re-bought —
  that self-consistency is what makes the rule order-free);
* unit ``s`` re-buys at the ``trigger_hours``-th distinct hour with
  positive residual unmet demand, paying
  ``(1 + penalty) · a · rp · R`` — the marketplace price of its own
  listing at the re-buy hour, plus the surcharge — and serves again to
  term end.

Since the rank is never negative, only hours where demand exceeds
``r_base`` can fire, and :func:`apply_rebuys` looks at those alone. On
the paper-scale population of ``perfbench``'s ``sweep-market`` they are
1.5–2.1% of the watched unit-hours (seeds 5, 7 and 21).

Listings that expired or were still open at the horizon never sold, so
they never watch; under instant sales every sale watches from its
decision hour.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro._arrays import as_int
from repro.core.account import CostModel
from repro.errors import SimulationError


@dataclass(frozen=True)
class CancellationModel:
    """The buy-back terms of a cancellation-aware policy.

    Parameters
    ----------
    penalty:
        Surcharge fraction over the marketplace price of the re-bought
        reservation: the buy-back costs ``(1 + penalty) · a · rp · R``.
        0 means re-buying at exactly the listed price.
    trigger_hours:
        How many distinct hours of residual unmet demand a sold unit
        must observe inside its watch window before re-buying; 1 re-buys
        at the first returned-demand hour.
    """

    penalty: float = 0.25
    trigger_hours: int = 1

    def __post_init__(self) -> None:
        if isinstance(self.penalty, bool) or not isinstance(
            self.penalty, (int, float, np.integer, np.floating)
        ):
            raise SimulationError(f"penalty must be a number, got {self.penalty!r}")
        penalty = float(self.penalty)
        if not math.isfinite(penalty) or penalty < 0.0:
            raise SimulationError(
                f"penalty must be finite and >= 0, got {self.penalty!r}"
            )
        object.__setattr__(self, "penalty", penalty)
        object.__setattr__(
            self,
            "trigger_hours",
            as_int(self.trigger_hours, "trigger_hours", SimulationError, minimum=1),
        )

    def to_payload(self) -> dict:
        """JSON-ready form (checkpoints, cache keys)."""
        return {"penalty": self.penalty, "trigger_hours": self.trigger_hours}

    @classmethod
    def from_payload(cls, payload: dict) -> "CancellationModel":
        """The inverse of :meth:`to_payload`: both keys are required and
        reach the constructor's checks unconverted, so a fractional or
        bool ``trigger_hours`` is refused rather than rounded."""
        if not isinstance(payload, dict):
            raise SimulationError("cancellation payload must be an object")
        missing = [key for key in ("penalty", "trigger_hours") if key not in payload]
        if missing:
            raise SimulationError(
                f"cancellation payload lacks {', '.join(missing)}"
            )
        return cls(penalty=payload["penalty"], trigger_hours=payload["trigger_hours"])

    def content_digest(self) -> str:
        """Stable identity for :func:`repro.parallel.hashing.stable_hash`."""
        parts = [
            "cancellation",
            repr(float(self.penalty)),
            repr(int(self.trigger_hours)),
        ]
        return hashlib.sha256("|".join(parts).encode("utf-8")).hexdigest()


@dataclass(frozen=True)
class SoldUnit:
    """One sold reservation's watch window, in sale order."""

    reserved_at: int
    #: First watched hour: the clearing hour (= the decision hour under
    #: instant sales).
    watch_from: int
    #: One past the last watched hour: ``min(reserved_at + T, horizon)``.
    term_end: int


@dataclass(frozen=True)
class Rebuy:
    """One executed buy-back."""

    unit_index: int
    reserved_at: int
    hour: int
    cost: float


@dataclass(frozen=True)
class RebuyOutcome:
    """What :func:`apply_rebuys` decided.

    ``r_after`` is ``r_base`` plus each re-bought unit serving again
    over ``[rebuy hour, term end)``; ``rebuy_cost`` accumulates the
    per-unit costs in sale order (the deterministic accumulation order
    every engine shares).
    """

    rebuys: "tuple[Rebuy, ...]"
    r_after: np.ndarray
    rebuy_cost: float


def rebuy_cost_at(
    model: CostModel,
    period: int,
    reserved_at: int,
    hour: int,
    penalty: float,
) -> float:
    """The buy-back price at ``hour``: ``(1 + penalty) · a · rp · R``.

    The remaining fraction is measured from the unit's own reservation
    start, exactly like the sale income it earlier collected.
    """
    remaining = 1.0 - (hour - reserved_at) / period
    return (1.0 + penalty) * model.selling_discount * remaining * model.big_r


def apply_rebuys(
    demands: np.ndarray,
    r_base: np.ndarray,
    units: "Sequence[SoldUnit]",
    period: int,
    model: CostModel,
    cancellation: CancellationModel,
) -> RebuyOutcome:
    """Run the static rank rule over one user's sold units.

    Pure function of its inputs: the batch engine calls it once per user
    with that user's ``(d, r_base, units)``, so ``run_fast`` and
    ``run_population`` share their cancellation outcomes by
    construction. The serving fleet's incremental form reproduces the
    same rule one event at a time for single-reservation instances
    (where the rank is always zero).

    Only *hot* hours, where demand exceeds the base timeline, can fire:
    the rank is never negative, so an hour with ``d ≤ r_base`` never has
    a positive residual. The rank therefore lives on the hot hours
    alone, and each unit reads its window as the run of hot hours
    inside ``[watch_from, term_end)``.
    """
    d = np.asarray(demands)
    base = np.asarray(r_base)
    gap = d - base
    hot = np.flatnonzero(gap > 0)
    hot_gap = gap[hot]
    cover = np.zeros(hot.size, dtype=np.int64)
    trigger = cancellation.trigger_hours
    lows = np.searchsorted(hot, [unit.watch_from for unit in units]).tolist()
    highs = np.searchsorted(hot, [unit.term_end for unit in units]).tolist()
    r_after = base.copy()
    rebuys: "list[Rebuy]" = []
    total = 0.0
    for index, (unit, lo, hi) in enumerate(zip(units, lows, highs)):
        if lo >= hi:
            continue  # no hot hour in the window: no re-buy, no rank
        hits = np.flatnonzero(hot_gap[lo:hi] > cover[lo:hi])
        if hits.size >= trigger:
            hour = int(hot[lo + hits[trigger - 1]])
            cost = rebuy_cost_at(
                model, period, unit.reserved_at, hour, cancellation.penalty
            )
            r_after[hour : unit.term_end] += 1
            rebuys.append(
                Rebuy(
                    unit_index=index,
                    reserved_at=unit.reserved_at,
                    hour=hour,
                    cost=cost,
                )
            )
            total += cost
        cover[lo:hi] += 1
    return RebuyOutcome(rebuys=tuple(rebuys), r_after=r_after, rebuy_cost=total)
