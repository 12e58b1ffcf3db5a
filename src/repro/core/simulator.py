"""The reference simulator: an event-by-event replay of Eq. (1) under a policy.

Given a demand trace ``d_t``, a reservation schedule ``n_t`` (produced by
one of the purchasing imitators of :mod:`repro.purchasing`, matching the
paper's Section VI-A setup), a :class:`~repro.core.account.CostModel` and
a :class:`~repro.core.policies.SellingPolicy`, the simulator visits, in
hour order, only the hours at which something happens:

1. it opens the reservations scheduled for the hour (booking their
   upfronts), then
2. evaluates every instance whose decision hour arrived: it computes the
   instance's working time through the ledger's Algorithm-1 rule and asks
   the policy whether to sell (a sale takes effect at the start of the
   hour, and its income is booked then).

An hour that both reserves and decides reserves first. Once the walk is
over, :meth:`~repro.core.account.HourlyCosts.record_timeline` books every
hour's ``o_t = max(0, d_t − r_t)`` on-demand purchases and the reserved
hourly fee (per the model's fee mode) from the final physical timeline
``r_t`` in one array pass. That is exact because an event at hour ``t``
changes ``r`` only from ``t`` on, so each hour's count is final once its
own events are applied.

The result carries the full per-hour cost series, every sale record, and
the instance ledger, so analyses never need to re-run anything.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field

import numpy as np
from numpy.typing import ArrayLike

from repro._arrays import as_count_array
from repro.core.account import CostBreakdown, CostModel, HourlyCosts
from repro.core.breakeven import break_even_working_hours
from repro.core.instance import ReservedInstance
from repro.core.ledger import ReservationLedger
from repro.core.policies import DecisionContext, SellingPolicy
from repro.errors import SimulationError
from repro.workload.base import DemandTrace, TraceLike, as_trace


@dataclass(frozen=True)
class SaleRecord:
    """One marketplace sale performed by the policy."""

    instance_id: int
    hour: int
    phi: float
    working_hours: int
    beta: float
    remaining_fraction: float
    income: float


@dataclass
class SimulationResult:
    """Everything produced by one policy run."""

    policy_name: str
    horizon: int
    period: int
    demands: DemandTrace
    reservations: np.ndarray
    costs: HourlyCosts
    sales: list[SaleRecord]
    instances: list[ReservedInstance]
    on_demand: np.ndarray
    r_physical: np.ndarray
    breakdown: CostBreakdown = field(init=False)

    def __post_init__(self) -> None:
        self.breakdown = self.costs.breakdown()

    @property
    def total_cost(self) -> float:
        """Σ_t C_t — the quantity the paper compares across policies."""
        return self.breakdown.total

    @property
    def instances_reserved(self) -> int:
        return len(self.instances)

    @property
    def instances_sold(self) -> int:
        return len(self.sales)

    @property
    def total_sale_income(self) -> float:
        return self.breakdown.sale_income

    def utilisation(self) -> float:
        """Fraction of physically-active reservation-hours that were busy."""
        active_hours = int(self.r_physical.sum())
        if active_hours == 0:
            return 0.0
        busy = np.minimum(self.demands.values[: self.horizon], self.r_physical)
        return float(busy.sum()) / active_hours

    def to_dict(self) -> dict:
        """JSON-serialisable summary of the run (for pipelines/storage).

        Contains the cost breakdown, the sale records, and aggregate
        counters — not the full per-hour arrays (export those with
        :meth:`SweepResult.to_csv <repro.experiments.runner.SweepResult.to_csv>`
        or directly from the attributes).
        """
        return {
            "policy": self.policy_name,
            "horizon": self.horizon,
            "period": self.period,
            "total_cost": self.total_cost,
            "breakdown": {
                "on_demand": self.breakdown.on_demand,
                "upfront": self.breakdown.upfront,
                "reserved_hourly": self.breakdown.reserved_hourly,
                "sale_income": self.breakdown.sale_income,
            },
            "instances_reserved": self.instances_reserved,
            "instances_sold": self.instances_sold,
            "utilisation": self.utilisation(),
            "sales": [
                {
                    "instance_id": sale.instance_id,
                    "hour": sale.hour,
                    "phi": sale.phi,
                    "working_hours": sale.working_hours,
                    "beta": sale.beta,
                    "remaining_fraction": sale.remaining_fraction,
                    "income": sale.income,
                }
                for sale in self.sales
            ],
        }


def schedule_decision(
    policy: SellingPolicy,
    instance: ReservedInstance,
    horizon: int,
    pending: "dict[int, list[ReservedInstance]]",
) -> "int | None":
    """Register ``instance`` for evaluation at its policy decision hour
    (skipping degenerate, fractional or out-of-horizon spots) and return
    that hour as an ``int``, or None when nothing was registered. Shared
    by the decoupled and coupled simulation loops."""
    decision_hour = policy.decision_hour(instance)
    if decision_hour is None:
        return None
    if not instance.reserved_at < decision_hour < instance.expires_at:
        return None  # degenerate spot (e.g. round(phi*T) == 0)
    if decision_hour >= horizon:
        return None  # falls beyond the simulated horizon
    hour = int(decision_hour)
    if hour != decision_hour:
        return None  # between hours: no hour ever reaches it
    pending.setdefault(hour, []).append(instance)
    return hour


def evaluate_decision(
    policy: SellingPolicy,
    instance: ReservedInstance,
    hour: int,
    ledger: ReservationLedger,
    model: CostModel,
    costs: HourlyCosts,
    sales: "list[SaleRecord]",
) -> None:
    """Algorithm 1's per-instance evaluation at its decision hour:
    measure the working time, ask the policy, and execute a sale (income
    booked, ledger history rewritten). Shared by both simulation loops."""
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


def _normalise_reservations(reservations, horizon: int) -> np.ndarray:
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
    counts = as_count_array(array, "reservations", SimulationError)
    if np.any(counts < 0):
        raise SimulationError("reservation counts must be non-negative")
    return counts.copy()  # owned: a result keeps it as its schedule


class SellingSimulator:
    """Runs one selling policy over a (demands, reservations) input."""

    def __init__(self, model: CostModel, policy: SellingPolicy) -> None:
        self.model = model
        self.policy = policy

    def run(self, demands: TraceLike, reservations: ArrayLike) -> SimulationResult:
        """Simulate the full horizon; see the module docstring for the
        sequence of events."""
        trace = as_trace(demands)
        horizon = len(trace)
        schedule = _normalise_reservations(reservations, horizon)
        period = self.model.period
        ledger = ReservationLedger(horizon, period, trace.values)
        costs = HourlyCosts(horizon)
        sales: list[SaleRecord] = []
        # decision hour -> instances evaluated then, in reservation order.
        pending: dict[int, list[ReservedInstance]] = {}
        # The hours left to visit, as a heap (a sorted list is one): every
        # reservation hour, and each scheduled instance's decision hour.
        due = np.flatnonzero(schedule).tolist()

        while due:
            hour = heapq.heappop(due)
            while due and due[0] == hour:
                heapq.heappop(due)
            count = int(schedule[hour])
            if count:
                created = ledger.reserve(hour, count)
                costs.record_upfront(hour, count, self.model)
                for instance in created:
                    spot = schedule_decision(self.policy, instance, horizon, pending)
                    if spot is not None:
                        heapq.heappush(due, spot)

            for instance in pending.pop(hour, ()):  # sales effective this hour
                evaluate_decision(
                    self.policy, instance, hour, ledger, self.model, costs, sales
                )

        on_demand = costs.record_timeline(ledger.demands, ledger.r_physical, self.model)
        return SimulationResult(
            policy_name=self.policy.name,
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


def run_policy(
    demands: TraceLike,
    reservations: ArrayLike,
    model: CostModel,
    policy: SellingPolicy,
) -> SimulationResult:
    """Functional shorthand for ``SellingSimulator(model, policy).run(...)``."""
    return SellingSimulator(model, policy).run(demands, reservations)
