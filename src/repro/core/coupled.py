"""Coupled purchasing + selling simulation (extension beyond the paper).

The paper evaluates selling policies on a *fixed* reservation schedule
produced beforehand by a purchasing imitator (Section VI-A). In reality
the two loops interact: after the selling policy disposes of an
instance, a later demand surge makes the purchasing rule buy a new one —
which the selling policy may again evaluate T/4 later, and so on.

:func:`run_coupled` closes that loop. Each hour:

1. instances reaching their decision spot are evaluated by the selling
   policy (Algorithm 1's working-time rule, unchanged; sales take
   effect at the start of the hour, and their income is booked then);
2. the purchasing stepper sees the demand and the *live*, post-sale
   pool and reserves (so a gap opened by a sale can be refilled the
   same hour — the stepper genuinely reacts to the seller), booking
   the upfronts and any re-buy surcharge.

After the last hour, on-demand tops up each hour's residual gap: the
on-demand and reserved hourly costs are booked from the final physical
timeline in one pass, by the same
:meth:`~repro.core.account.HourlyCosts.record_timeline` as the decoupled
simulator (exact, as an hour's events change the timeline only from
that hour on).

The function returns the same :class:`~repro.core.simulator.SimulationResult`
as the decoupled path, so all analyses apply. The decoupled run is the
special case where the stepper ignores the pool's sales — equivalently,
``run_coupled`` with a :class:`KeepReservedPolicy` reproduces the
imitator's batch schedule exactly (property-tested).
"""

from __future__ import annotations

import numpy as np

from repro._arrays import as_int
from repro.core.account import CostModel, HourlyCosts
from repro.core.instance import ReservedInstance
from repro.core.ledger import ReservationLedger
from repro.core.policies import CancellationAwareSellingPolicy, SellingPolicy
from repro.core.simulator import (
    SaleRecord,
    SimulationResult,
    evaluate_decision,
    schedule_decision,
)
from repro.errors import SimulationError
from repro.purchasing.stepper import PurchasingStepper
from repro.workload.base import TraceLike, as_trace


def run_coupled(
    demands: TraceLike,
    stepper: PurchasingStepper,
    model: CostModel,
    policy: SellingPolicy,
    policy_label: "str | None" = None,
) -> SimulationResult:
    """Simulate purchasing and selling reacting to each other.

    See the module docstring for the sequence of events; all Eq. (1)
    accounting matches :class:`~repro.core.simulator.SellingSimulator`.
    """
    trace = as_trace(demands)
    horizon = len(trace)
    period = model.period
    ledger = ReservationLedger(horizon, period, trace.values)
    costs = HourlyCosts(horizon)
    sales: list[SaleRecord] = []
    reservations = np.zeros(horizon, dtype=np.int64)
    pending: dict[int, list[ReservedInstance]] = {}
    # A cancellation-aware seller pays its penalty when the purchasing
    # loop re-reserves while an earlier sale's term is still running:
    # each sale opens a window [sale hour, term end), and new
    # reservations consume open windows FIFO (oldest sale first), each
    # booking the penalty surcharge on the sold unit's remaining term.
    # The decision rule, the schedule, and the sale income are exactly
    # the underlying online policy's; with penalty=0 the surcharge is
    # 0.0 and the run is bit-identical to the penalty-free policy.
    cancellation = (
        policy.cancellation
        if isinstance(policy, CancellationAwareSellingPolicy)
        else None
    )
    sold_windows: "list[tuple[int, int]]" = []  # (reserved_at, term_end) FIFO

    for hour in range(horizon):
        demand = int(trace.values[hour])
        for instance in pending.pop(hour, ()):
            sales_before = len(sales)
            evaluate_decision(policy, instance, hour, ledger, model, costs, sales)
            if cancellation is not None and len(sales) > sales_before:
                sold_windows.append(
                    (instance.reserved_at, min(instance.reserved_at + period, horizon))
                )

        count = as_int(
            stepper.step(hour, demand, ledger.active_count(hour)),
            f"the stepper's count at hour {hour}",
            SimulationError,
            minimum=0,
        )
        if count:
            reservations[hour] = count
            created = ledger.reserve(hour, count)
            costs.record_upfront(hour, count, model)
            for instance in created:
                schedule_decision(policy, instance, horizon, pending)
            if cancellation is not None and sold_windows:
                sold_windows = [w for w in sold_windows if hour < w[1]]
                matched = sold_windows[:count]
                for reserved_at, _term_end in matched:
                    remaining = 1.0 - (hour - reserved_at) / period
                    costs.record_rebuy_surcharge(
                        hour, remaining, cancellation.penalty, model
                    )
                sold_windows = sold_windows[count:]

    on_demand = costs.record_timeline(ledger.demands, ledger.r_physical, model)
    return SimulationResult(
        policy_name=policy_label or f"coupled:{policy.name}",
        horizon=horizon,
        period=period,
        demands=trace,
        reservations=reservations,
        costs=costs,
        sales=sales,
        instances=ledger.instances,
        on_demand=on_demand,
        r_physical=ledger.r_physical.copy(),
    )
