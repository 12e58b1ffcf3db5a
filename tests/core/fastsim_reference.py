"""The pseudocode-literal fast engine: the reference ``run_fast`` is
tested against.

``literal_run_fast`` visits every hour from φT to the horizon and, for
each instance ``i`` of a batch, rescans the batch's φT window with
Algorithm 1/2's own freeness test ``r_j − d_j − i + 1 > l_j``, applying
the history (and, without clearing, the physical) rewrite one sale at a
time. ``repro.core.fastsim.run_fast`` decides each batch from one
sorted slack vector and must return the same :class:`FastResult` to
the bit.

``literal_apply_rebuys`` is the cancellation rank rule written as a scan
of every hour of each sold unit's watch window. The reference run uses
it rather than the package's ``apply_rebuys``, so the differential also
checks that function: a reference must not share the code it checks.
"""

from __future__ import annotations

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
    rebuy_cost_at,
)
from repro.core.clearing import ClearingModel, ClearingProfile
from repro.core.fastsim import FastListing, FastPolicyKind, FastResult, FastSale
from repro.errors import SimulationError


def literal_apply_rebuys(
    demands: np.ndarray,
    r_base: np.ndarray,
    units: "list[SoldUnit]",
    period: int,
    model: CostModel,
    cancellation: CancellationModel,
) -> RebuyOutcome:
    """The static rank rule, every hour of every unit's watch window.

    Unit ``s`` sees the residual ``d − r_base − cover`` over
    ``[watch_from, term_end)``, where ``cover`` counts the senior units
    whose windows hold the hour; it re-buys at the ``trigger_hours``-th
    hour with a positive residual and then covers its window whether or
    not it re-bought.
    """
    d = np.asarray(demands)
    base = np.asarray(r_base)
    horizon = d.shape[0]
    cover = np.zeros(horizon, dtype=np.int64)
    r_after = base.copy()
    rebuys: "list[Rebuy]" = []
    total = 0.0
    for index, unit in enumerate(units):
        start = unit.watch_from
        end = unit.term_end
        if start < end:
            window = slice(start, end)
            residual = d[window] - base[window] - cover[window]
            hours = np.flatnonzero(residual > 0)
            if hours.size >= cancellation.trigger_hours:
                hour = start + int(hours[cancellation.trigger_hours - 1])
                cost = rebuy_cost_at(
                    model, period, unit.reserved_at, hour, cancellation.penalty
                )
                r_after[hour:end] += 1
                rebuys.append(
                    Rebuy(
                        unit_index=index,
                        reserved_at=unit.reserved_at,
                        hour=hour,
                        cost=cost,
                    )
                )
                total += cost
            cover[window] += 1
    return RebuyOutcome(rebuys=tuple(rebuys), r_after=r_after, rebuy_cost=total)


def literal_run_fast(
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
    """``run_fast`` with the hourly loop and one window scan per instance."""
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

    decision_age = round(phi * period)
    beta = break_even_working_hours(model.plan, model.selling_discount, phi)

    r_physical = np.zeros(horizon, dtype=np.int64)
    r_effective = np.zeros(horizon, dtype=np.int64)
    for start in np.flatnonzero(n):
        end = min(int(start) + period, horizon)
        r_physical[start:end] += n[start]
        r_effective[start:end] += n[start]

    sales: list[FastSale] = []
    listings: list[FastListing] = []
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
        n_prefix = np.concatenate(([0], np.cumsum(n)))
        for t in range(decision_age, horizon):
            t0 = t - decision_age
            batch = int(n[t0])
            if batch == 0:
                continue  # "no need to make decisions at this moment"
            window = slice(t0, t)
            l_values = n_prefix[t0 + 1:t + 1] - n_prefix[t0 + 1]
            for i in range(1, batch + 1):  # the pseudocode's instance loop
                free = (
                    r_effective[window] - d[window] - i + 1 > l_values
                )
                working = decision_age - int(np.count_nonzero(free))
                if kind is FastPolicyKind.ONLINE:
                    sell = working < threshold_scale * beta
                else:  # ALL_SELLING
                    sell = True
                if not sell:
                    continue
                end = min(t0 + period, horizon)
                r_effective[t0:end] -= 1  # history rewrite (lines 17-21)
                sales.append(
                    FastSale(
                        reserved_at=t0, batch_index=i, hour=t, working_hours=working
                    )
                )
                if clear_profile is None:
                    r_physical[t:end] -= 1  # future: the unit stops serving
                    income += per_sale_income
                    continue
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
        outcome = literal_apply_rebuys(
            d, r_physical, units, period, model, cancellation
        )
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
