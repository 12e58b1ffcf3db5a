"""The hour-by-hour object-model loops: the reference the event walk of
``SellingSimulator.run`` and the booking of ``run_coupled`` are tested
against.

``literal_run_policy`` visits every hour of the horizon: it opens that
hour's reservations, evaluates the instances whose decision hour is that
hour, then books the hour's on-demand purchases and reserved hourly fee
one hour at a time. ``literal_run_coupled`` is the coupled loop with the
same per-hour booking. ``repro.core.simulator.run_policy`` and
``repro.core.coupled.run_coupled`` must return the same
:class:`SimulationResult` to the bit.

The decision scheduling and evaluation are copied here too, and the
validation is the old one: a reference must not share the code it
checks. Only the ledger, the cost series' per-hour ``record_*`` methods,
the break-even formula, the trace coercion, the result type and the
policies come from the package.
"""

from __future__ import annotations

import numpy as np

from repro.core.account import CostModel, HourlyCosts, HourlyFeeMode
from repro.core.breakeven import break_even_working_hours
from repro.core.instance import ReservedInstance
from repro.core.ledger import ReservationLedger
from repro.core.policies import (
    CancellationAwareSellingPolicy,
    DecisionContext,
    SellingPolicy,
)
from repro.core.simulator import SaleRecord, SimulationResult
from repro.errors import SimulationError
from repro.workload.base import as_trace


def literal_schedule_decision(
    policy: SellingPolicy,
    instance: ReservedInstance,
    horizon: int,
    pending: "dict[int, list[ReservedInstance]]",
) -> None:
    """Register ``instance`` under its decision hour as the policy gives
    it; an hour no loop iteration equals is never popped."""
    decision_hour = policy.decision_hour(instance)
    if decision_hour is None:
        return
    if not instance.reserved_at < decision_hour < instance.expires_at:
        return  # degenerate spot (e.g. round(phi*T) == 0)
    if decision_hour >= horizon:
        return  # falls beyond the simulated horizon
    pending.setdefault(decision_hour, []).append(instance)


def literal_evaluate_decision(
    policy: SellingPolicy,
    instance: ReservedInstance,
    hour: int,
    ledger: ReservationLedger,
    model: CostModel,
    costs: HourlyCosts,
    sales: "list[SaleRecord]",
) -> None:
    """Algorithm 1's per-instance evaluation at its decision hour."""
    if instance.is_sold:
        return
    working = ledger.working_hours(instance, hour)
    phi = instance.age(hour) / model.period
    context = DecisionContext(
        plan=model.plan,
        selling_discount=model.selling_discount,
        phi=phi,
        beta=break_even_working_hours(model.plan, model.selling_discount, phi),
        decision_hour=hour,
        instance=instance,
    )
    if not policy.should_sell(working, context):
        return
    remaining = ledger.sell(instance, hour)
    costs.record_sale(hour, remaining, model)
    sales.append(
        SaleRecord(
            instance_id=instance.instance_id,
            hour=hour,
            phi=phi,
            working_hours=working,
            beta=context.beta,
            remaining_fraction=remaining,
            income=model.sale_income(remaining),
        )
    )


def literal_normalise_reservations(reservations, horizon: int) -> np.ndarray:
    array = np.asarray(reservations)
    if array.ndim != 1:
        raise SimulationError(
            f"reservations must be a 1-D per-hour count array, got shape {array.shape}"
        )
    if array.size != horizon:
        raise SimulationError(
            f"reservations cover {array.size} hours but the demand trace "
            f"covers {horizon}"
        )
    if np.any(array < 0):
        raise SimulationError("reservation counts must be non-negative")
    with np.errstate(invalid="ignore"):  # NaN casts to garbage, refused below
        as_int = array.astype(np.int64)
    if not np.array_equal(as_int, array):
        raise SimulationError("reservation counts must be whole numbers")
    return as_int


def literal_run_policy(demands, reservations, model: CostModel, policy: SellingPolicy):
    """The simulator's hourly loop: reserve, decide, book, every hour."""
    trace = as_trace(demands)
    horizon = len(trace)
    schedule = literal_normalise_reservations(reservations, horizon)
    period = model.period
    ledger = ReservationLedger(horizon, period, trace.values)
    costs = HourlyCosts(horizon)
    sales: list[SaleRecord] = []
    on_demand = np.zeros(horizon, dtype=np.int64)
    pending: dict[int, list[ReservedInstance]] = {}

    for hour in range(horizon):
        count = int(schedule[hour])
        if count:
            created = ledger.reserve(hour, count)
            costs.record_upfront(hour, count, model)
            for instance in created:
                literal_schedule_decision(policy, instance, horizon, pending)

        for instance in pending.pop(hour, ()):  # sales effective this hour
            literal_evaluate_decision(policy, instance, hour, ledger, model, costs, sales)

        active = ledger.active_count(hour)
        needed = ledger.on_demand_needed(hour)
        on_demand[hour] = needed
        costs.record_on_demand(hour, needed, model)
        if model.fee_mode is HourlyFeeMode.ACTIVE:
            costs.record_reserved_hourly(hour, active, model)
        else:
            costs.record_reserved_hourly(hour, ledger.busy_count(hour), model)

    return SimulationResult(
        policy_name=policy.name,
        horizon=horizon,
        period=period,
        demands=trace,
        reservations=schedule,
        costs=costs,
        sales=sales,
        instances=ledger.instances,
        on_demand=on_demand,
        r_physical=ledger.r_physical.copy(),
    )


def literal_run_coupled(
    demands, stepper, model: CostModel, policy: SellingPolicy, policy_label=None
):
    """The coupled hourly loop: decide, step and reserve, book, every hour."""
    trace = as_trace(demands)
    horizon = len(trace)
    period = model.period
    ledger = ReservationLedger(horizon, period, trace.values)
    costs = HourlyCosts(horizon)
    sales: list[SaleRecord] = []
    on_demand = np.zeros(horizon, dtype=np.int64)
    reservations = np.zeros(horizon, dtype=np.int64)
    pending: dict[int, list[ReservedInstance]] = {}
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
            literal_evaluate_decision(policy, instance, hour, ledger, model, costs, sales)
            if cancellation is not None and len(sales) > sales_before:
                sold_windows.append(
                    (instance.reserved_at, min(instance.reserved_at + period, horizon))
                )

        count = int(stepper.step(hour, demand, ledger.active_count(hour)))
        if count < 0:
            raise ValueError(f"stepper returned a negative count at hour {hour}")
        if count:
            reservations[hour] = count
            created = ledger.reserve(hour, count)
            costs.record_upfront(hour, count, model)
            for instance in created:
                literal_schedule_decision(policy, instance, horizon, pending)
            if cancellation is not None and sold_windows:
                sold_windows = [w for w in sold_windows if hour < w[1]]
                matched = sold_windows[:count]
                for reserved_at, _term_end in matched:
                    remaining = 1.0 - (hour - reserved_at) / period
                    costs.record_rebuy_surcharge(
                        hour, remaining, cancellation.penalty, model
                    )
                sold_windows = sold_windows[count:]

        active = ledger.active_count(hour)
        needed = ledger.on_demand_needed(hour)
        on_demand[hour] = needed
        costs.record_on_demand(hour, needed, model)
        if model.fee_mode is HourlyFeeMode.ACTIVE:
            costs.record_reserved_hourly(hour, active, model)
        else:
            costs.record_reserved_hourly(hour, ledger.busy_count(hour), model)

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
