"""The optimal offline seller (the paper's benchmark ``OPT``).

Knowing the whole demand sequence, the offline seller picks, for each
reserved instance, the sale hour (or "never") minimising the *true*
Eq. (1) total cost. Selling interacts across instances through
``o_t = max(0, d_t − r_t)``: a sold instance's demand share falls to any
remaining idle reservation before it spills to on-demand. The exact
marginal cost of selling one instance at hour ``ts``, holding every
other decision fixed, is therefore::

    delta(ts) = p · #{ j in [ts, end) : d_j >= r_j }      (spill hours)
              − saved reserved fees over [ts, end)
              − income(ts)

where ``r`` is the current active-count timeline *including* the
instance. All candidate hours for one instance are evaluated in one
vectorised suffix-sum pass, and the optimiser runs coordinate descent
(repeated single-instance re-optimisation) until no move improves —
every accepted move strictly lowers the true total cost, so it
terminates.

The descent runs from several starts, and runs them together: each
start is one row ("lane") of a ``lanes × horizon`` active-count array,
and each step scores one instance *k* for every live lane whose next
unplaced instance it is, with one 2-D suffix sum and a row-wise argmin.
Lanes share no state, so each makes exactly the moves of its own
sequential descent. The starts are batched, not the users: one user's
instances are visited in order, so a cross-user lockstep would still
take as many steps per pass as the largest user needs.

Within a batch (instances sharing a span) a lane places whole runs
without scoring them. Say instance *k* is scored on its restored window
``W`` (the lane's timeline with *k* active) and placed at stop ``n``.
With *k* at ``n``, a following instance that stops at ``n`` is scored
on ``W`` again; one that stops at another hour ``c`` is scored on
``W - 1`` over ``[n, c)`` when ``c > n``, or ``W + 1`` over ``[c, n)``
when ``c < n``, and the i-th such instance, the earlier ones moved to
``n``, on ``W ∓ i`` there. The argmin reads the window only through the
spill mask ``d >= W``, so as long as no hour crosses it (``W - d`` not
in ``[1, i]`` over ``[n, c)``, ``d - W`` not in ``[0, i)`` over
``[c, n)``) the instance gets the same suffix counts, the same floats
and the same stop ``n`` as *k*. The lane moves the whole run at once.

``offline_decisions`` exposes the first pass against the keep-everything
world (the per-instance benchmark the paper's proofs reason about), and
:func:`optimal_sale_hour` remains the single-profile primitive used in
proof-level analyses.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np
from numpy.typing import ArrayLike

from repro._arrays import as_int
from repro.core.account import CostModel, HourlyFeeMode
from repro.core.instance import ReservedInstance
from repro.core.policies import POLICY_OPT, ScriptedSellingPolicy
from repro.core.popsim import decision_rule, prepare_population
from repro.core.simulator import SimulationResult, _normalise_reservations, run_policy
from repro.errors import SimulationError
from repro.workload.base import TraceLike, as_trace


@dataclass(frozen=True)
class OfflineDecision:
    """The offline choice for one instance (first pass, keep-world)."""

    instance_id: int
    sell_hour: "int | None"
    cost_delta: float  # total-cost change versus keeping (negative = sell)


def optimal_sale_hour(
    busy: np.ndarray,
    instance: ReservedInstance,
    horizon: int,
    model: CostModel,
    min_age: int = 1,
) -> "tuple[int | None, float]":
    """Best sale hour for one *isolated* instance given its busy profile.

    This is the single-instance primitive of the proofs (Section IV-A):
    every busy hour after the sale goes to on-demand. For fleet-level
    optimisation use :func:`offline_optimal_schedule`, which accounts
    for pool slack. ``min_age`` restricts candidates to ``age >=
    min_age`` (the proofs take ε ∈ [φ, 1]). Returns ``(None, 0.0)`` when
    keeping is optimal.
    """
    min_age = _checked_min_age(min_age, instance.period)
    start = instance.reserved_at
    end = min(instance.expires_at, horizon)
    length = end - start
    if busy.shape != (length,):
        raise SimulationError(
            f"busy profile must cover [{start}, {end}) "
            f"({length} hours), got shape {busy.shape}"
        )
    if length <= min_age:
        return None, 0.0
    ages, deltas = _best_sale_ages(
        busy.astype(np.int64)[np.newaxis],
        _fixed_deltas(length, instance.period, model, min_age),
        model,
        min_age,
    )
    if ages[0] < 0:
        return None, 0.0
    return start + int(ages[0]), float(deltas[0])


def _checked_min_age(min_age: object, period: int) -> int:
    """``min_age`` as an ``int`` >= 1, capped at the period: no instance
    is older than its period, so any larger value keeps every instance."""
    return min(as_int(min_age, "min_age", SimulationError, minimum=1), period)


def _fixed_deltas(
    length: int, period: int, model: CostModel, min_age: int
) -> np.ndarray:
    """The part of delta(age), ``age in [min_age, length)``, that does
    not depend on the rest of the fleet: minus the sale income and,
    under active billing, minus the saved hourly fees."""
    ages = np.arange(min_age, length)
    remaining_fractions = 1.0 - ages / period
    incomes = (
        (1.0 - model.marketplace_fee)
        * model.selling_discount
        * remaining_fractions
        * model.big_r
    )
    if model.fee_mode is HourlyFeeMode.ACTIVE:
        return -incomes - model.alpha * model.p * (length - ages)
    return -incomes


def _best_sale_ages(
    spill: np.ndarray, fixed: np.ndarray, model: CostModel, min_age: int
) -> "tuple[np.ndarray, np.ndarray]":
    """Row-wise argmin of delta(age) over ``age in [min_age, length)``.

    ``spill`` (rows × length) marks the hours where selling costs an
    on-demand hour: the busy profile for the isolated primitive, ``d >=
    r`` for the fleet optimiser. ``fixed`` is :func:`_fixed_deltas` for
    the same length. Returns each row's best age, or -1 where keeping
    is optimal, and its delta (0.0 where keeping is optimal).
    """
    # spill_after[:, j] = spill hours in [min_age + j, length)
    spill_after = np.cumsum(spill[:, min_age:][:, ::-1], axis=1)[:, ::-1]
    extra_on_demand = model.p * spill_after
    if model.fee_mode is HourlyFeeMode.ACTIVE:
        deltas = fixed + extra_on_demand
    else:
        # Usage billing: the pool's billed hours drop by one exactly at
        # spill hours, and those same hours move to on-demand.
        deltas = fixed - model.alpha * model.p * spill_after + extra_on_demand
    best = deltas.argmin(axis=1)
    best_deltas = deltas[np.arange(best.size), best]
    keep = best_deltas >= -1e-12  # a sale must save more than 1e-12
    return np.where(keep, -1, best + min_age), np.where(keep, 0.0, best_deltas)


def _spans(counts: np.ndarray, period: int) -> "tuple[np.ndarray, np.ndarray]":
    """Instance spans ``[start, end)`` in reservation order (matching
    ledger ids), clipped by the horizon."""
    horizon = counts.size
    starts = np.repeat(np.arange(horizon), counts)
    return starts, np.minimum(starts + period, horizon)


def _timeline(starts: np.ndarray, stops: np.ndarray, horizon: int) -> np.ndarray:
    """Active-count timeline of instances each active over
    ``[starts[i], stops[i])``."""
    changes = np.bincount(starts, minlength=horizon + 1) - np.bincount(
        stops, minlength=horizon + 1
    )
    return np.cumsum(changes[:horizon])


def _sales(stops: np.ndarray, ends: np.ndarray) -> dict[int, int]:
    """Stops as a schedule: instance id → sale hour, kept instances
    omitted."""
    return {
        index: hour
        for index, (hour, end) in enumerate(zip(stops.tolist(), ends.tolist()))
        if hour < end
    }


def _schedule_cost(
    demands: np.ndarray,
    starts: np.ndarray,
    ends: np.ndarray,
    stops: np.ndarray,
    model: CostModel,
) -> float:
    """True Eq. (1) total cost of a schedule in which instance ``i`` is
    active over ``[starts[i], stops[i])`` and sold at ``stops[i]`` when
    that is before ``ends[i]``."""
    r = _timeline(starts, stops, demands.size)
    ages = (stops - starts)[stops < ends]
    incomes = (
        (1.0 - model.marketplace_fee)
        * model.selling_discount
        * (1.0 - ages / model.period)
        * model.big_r
    )
    income = 0.0
    for value in incomes.tolist():  # in instance order, as a running sum
        income += value
    on_demand = np.maximum(demands - r, 0)
    if model.fee_mode is HourlyFeeMode.ACTIVE:
        billed = int(r.sum())
    else:
        billed = int(np.minimum(demands, r).sum())
    return (
        float(on_demand.sum()) * model.p
        + len(starts) * model.big_r
        + billed * model.alpha * model.p
        - income
    )


#: Fewest instances left in a batch for which a lane computes a run's room.
_MIN_RUN = 2


def _room(
    window: np.ndarray, demand: np.ndarray, start: int, chosen: int, other: int,
    cap: int,
) -> int:
    """How many instances stopping at ``other`` can move to ``chosen``
    one after another while the spill mask ``demand >= window`` stays
    as it is, at most ``cap``.

    ``window`` is the restored window the choice was scored on; the
    i-th such instance is scored on it shifted by i over the hours
    between the two stops: down when ``other`` is later, up when it is
    earlier.
    """
    if other > chosen:
        hours = slice(chosen - start, other - start)
        gaps = window[hours] - demand[hours]
        gaps = gaps[gaps >= 1]
        return min(int(gaps.min()) - 1, cap) if gaps.size else cap
    hours = slice(other - start, chosen - start)
    gaps = demand[hours] - window[hours]
    gaps = gaps[gaps >= 0]
    return min(int(gaps.min()), cap) if gaps.size else cap


def _shift(line: np.ndarray, old: int, new: int, count: int) -> None:
    """``count`` instances of one span stop at ``new`` instead of ``old``."""
    if new < old:
        line[new:old] -= count
    elif new > old:
        line[old:new] += count


def _run_end(
    row: list[int], j: int, bend: int, chosen: int, other: int, room: int
) -> "tuple[int, int]":
    """One past the run from ``j`` placed at ``chosen``: instances that
    stop there or, up to ``room`` of them, at ``other``. Returns the
    end and how many of the run stopped at ``other``."""
    count = 0
    while j < bend:
        stop = row[j]
        if stop == other:
            if count == room:
                break
            count += 1
        elif stop != chosen:
            break
        j += 1
    return j, count


def _descend(
    demands: np.ndarray,
    starts: np.ndarray,
    ends: np.ndarray,
    stops: np.ndarray,
    model: CostModel,
    min_age: int,
    max_passes: int,
) -> None:
    """Coordinate descent of every lane in lockstep, in place.

    Row ``stops[lane]`` is one lane's schedule: instance ``i`` stops at
    its sale hour, or at ``ends[i]`` when kept. A pass visits the
    instances in order and moves each to its best sale hour with the
    others held fixed; a lane stops after a pass without a move, and
    every lane after ``max_passes`` passes.

    After a lane scores instance k and places it at ``n``, it places
    the run of k's batch that follows without scoring it: instances
    already at ``n``, and instances at the batch's next other stop
    ``c`` while their count stays within :func:`_room` (see the
    module docstring for why each would choose ``n``). The run moves
    with one slice update of the timeline and one of the stops. Each
    step scores the lanes whose next unplaced instance is the lowest.
    A lane computes the room only when at least ``_MIN_RUN`` instances
    of the batch are left and, after a room of zero, only when its
    choice in that batch repeats; skipping it scores more instances,
    never different ones.
    """
    horizon = demands.size
    r = np.stack([_timeline(starts, row, horizon) for row in stops])
    timelines = list(r)
    rows = stops.tolist()
    span_starts, span_ends = starts.tolist(), ends.tolist()
    # Spans shorten only at the horizon, so the instances that can sell
    # are a prefix; batch_ends[k] is one past the last instance of k's
    # batch (same start, so same span).
    scored = int(np.count_nonzero(ends - starts > min_age))
    batch_ends = np.searchsorted(starts, starts, side="right").tolist()
    # Per window length: its hour offsets and its fixed deltas.
    by_length: "dict[int, tuple[np.ndarray, np.ndarray]]" = {}
    # (lane, batch end) → the lane's last choice there after a zero room.
    spent: "dict[tuple[int, int], int]" = {}
    live = list(range(len(rows)))
    for _ in range(max_passes):
        changed = [False] * len(rows)
        # Next unplaced instance → the lanes waiting to score it.
        waiting = {0: live} if scored else {}
        while waiting:
            k = min(waiting)
            lanes = waiting.pop(k)
            start, end, bend = span_starts[k], span_ends[k], batch_ends[k]
            length = end - start
            if length not in by_length:
                by_length[length] = (
                    np.arange(length),
                    _fixed_deltas(length, model.period, model, min_age),
                )
            hours, fixed = by_length[length]
            current = [rows[lane][k] for lane in lanes]
            window = r[lanes, start:end]
            # Score instance k as kept: restore it where a lane sold it.
            window += hours >= (np.array(current) - start)[:, np.newaxis]
            demand = demands[start:end]
            ages, _ = _best_sale_ages(demand >= window, fixed, model, min_age)
            chosen = np.where(ages < 0, end, start + ages).tolist()
            for lane, old, new, restored in zip(lanes, current, chosen, window):
                row, line = rows[lane], timelines[lane]
                # Instance k is now active over [start, new), not [start, old).
                row[k] = new
                _shift(line, old, new, 1)
                moved = new != old
                j = k + 1
                while j < bend and row[j] == new:
                    j += 1
                if j < bend:
                    other, room = row[j], 0
                    if bend - j >= _MIN_RUN:
                        key = (lane, bend)
                        if spent.get(key, new) == new:
                            room = _room(
                                restored, demand, start, new, other, bend - j
                            )
                        if room:
                            spent.pop(key, None)
                        else:
                            spent[key] = new
                    j, count = _run_end(row, j, bend, new, other, room)
                    if count:
                        row[k + 1 : j] = [new] * (j - k - 1)
                        _shift(line, other, new, count)
                        moved = True
                if moved:
                    changed[lane] = True
                if j < scored:
                    waiting.setdefault(j, []).append(lane)
        live = [lane for lane in live if changed[lane]]
        if not live:
            break
    stops[...] = rows


def _policy_start_schedules(
    demands: np.ndarray, reservations: np.ndarray, model: CostModel
) -> list[dict[int, int]]:
    """Seed schedules taken from the online policies' own sell sets.

    Starting the descent from each policy's schedule guarantees the
    returned benchmark is at least as cheap as that policy (descent
    never worsens its seed) — the dominance property the experiments
    rely on becomes structural rather than empirical. All-Selling's sell
    set is closed-form: every instance of a batch whose spot
    ``t0 + round(φT)`` falls inside the horizon sells at that spot.
    """
    from repro.core.fastsim import FastPolicyKind, run_fast

    id_base = np.concatenate(([0], np.cumsum(reservations)))
    prepared = prepare_population(demands[None], reservations[None], model.period)
    horizon = demands.size
    starts = []
    for phi in (0.25, 0.5, 0.75):
        result = run_fast(demands, reservations, model, phi=phi, precomputed=prepared)
        starts.append(
            {
                int(id_base[sale.reserved_at]) + sale.batch_index - 1: sale.hour
                for sale in result.sales
            }
        )
        rule = decision_rule(
            model, phi, FastPolicyKind.ALL_SELLING, 1.0, None, SimulationError
        )
        last = horizon - rule.decision_age if rule.evaluate else 0
        selling = prepared.event_t0[prepared.event_t0 < last]
        starts.append(
            {
                instance: t0 + rule.decision_age
                for t0 in selling.tolist()
                for instance in range(int(id_base[t0]), int(id_base[t0 + 1]))
            }
        )
    return starts


def offline_optimal_schedule(
    demands: TraceLike,
    reservations: ArrayLike,
    model: CostModel,
    min_age: int = 1,
    max_passes: int = 8,
    extra_starts: "list[dict[int, int]] | None" = None,
    policy_starts: bool = True,
) -> dict[int, int]:
    """Compute the offline sell schedule: instance id → sale hour.

    Coordinate descent with multi-start. Single-instance moves cannot
    always escape a local optimum when several sales only pay off
    jointly, so the descent runs from several seeds and keeps the best:

    * keep-everything and sell-everything-at-the-earliest-hour;
    * (``policy_starts``) each online policy's and each All-Selling
      benchmark's sell set — making the result at least as cheap as
      every one of them *by construction*;
    * any caller-provided ``extra_starts``.

    Each accepted move strictly improves the true Eq. (1) cost;
    ``max_passes`` bounds the sweeps (convergence is typically 2-3).
    A later start replaces the best so far only when it is cheaper by
    more than 1e-12. The result is certified globally optimal on small
    fleets by the brute-force cross-check in the property suite; on
    larger fleets it is a (near-)optimal feasible benchmark.
    """
    trace = as_trace(demands)
    counts = _normalise_reservations(reservations, len(trace))
    max_passes = as_int(max_passes, "max_passes", SimulationError, minimum=1)
    min_age = _checked_min_age(min_age, model.period)
    d = trace.values
    starts, ends = _spans(counts, model.period)
    span_starts, span_ends = starts.tolist(), ends.tolist()

    def feasible(start: dict[int, int]) -> list[int]:
        """The start as stops, without entries violating min_age or
        falling outside spans, so a policy seed remains usable under a
        restricted benchmark."""
        row = list(span_ends)
        for index, hour in start.items():
            if 0 <= index < len(row) and (
                span_starts[index] + min_age <= hour < span_ends[index]
            ):
                row[index] = hour
        return row

    sell_early = np.where(ends - starts > min_age, starts + min_age, ends)
    seeds = []
    if policy_starts:
        seeds.extend(_policy_start_schedules(d, counts, model))
    if extra_starts:
        seeds.extend(extra_starts)
    stops = np.array(
        [span_ends, sell_early.tolist()] + [feasible(seed) for seed in seeds],
        dtype=np.int64,
    )
    _descend(d, starts, ends, stops, model, min_age, max_passes)

    best_lane, best_cost = 0, _schedule_cost(d, starts, ends, stops[0], model)
    for lane in range(1, stops.shape[0]):
        cost = _schedule_cost(d, starts, ends, stops[lane], model)
        if cost < best_cost - 1e-12:
            best_lane, best_cost = lane, cost
    return _sales(stops[best_lane], ends)


def run_offline_optimal(
    demands: TraceLike,
    reservations: ArrayLike,
    model: CostModel,
    min_age: int = 1,
    max_passes: int = 8,
    name: str = POLICY_OPT,
) -> SimulationResult:
    """Full offline-optimal run, cost-accounted by the reference simulator."""
    sales = offline_optimal_schedule(
        demands, reservations, model, min_age=min_age, max_passes=max_passes
    )
    policy = ScriptedSellingPolicy(sales, name=name)
    return run_policy(demands, reservations, model, policy)


def exhaustive_optimal_schedule(
    demands: TraceLike,
    reservations: ArrayLike,
    model: CostModel,
    min_age: int = 1,
    max_instances: int = 6,
) -> "tuple[dict[int, int], float]":
    """Brute-force joint optimum for *small* fleets (validation tool).

    Enumerates every combination of per-instance sale hours (including
    "keep") and returns the cheapest schedule with its total cost. Used
    by the tests to certify that the coordinate-descent optimiser finds
    the true optimum; guarded by ``max_instances`` because the search is
    exponential.
    """
    trace = as_trace(demands)
    counts = _normalise_reservations(reservations, len(trace))
    min_age = _checked_min_age(min_age, model.period)
    d = trace.values
    starts, ends = _spans(counts, model.period)
    if starts.size > max_instances:
        raise SimulationError(
            f"exhaustive search is limited to {max_instances} instances, "
            f"got {starts.size}"
        )
    # Each instance's options: keep (stop at its end) or any sale hour.
    options_per_instance = [
        [end, *range(start + min_age, end)]
        for start, end in zip(starts.tolist(), ends.tolist())
    ]
    best_stops = ends
    best_cost = _schedule_cost(d, starts, ends, ends, model)
    for combo in itertools.product(*options_per_instance):
        stops = np.array(combo, dtype=np.int64)
        if np.array_equal(stops, ends):
            continue
        cost = _schedule_cost(d, starts, ends, stops, model)
        if cost < best_cost - 1e-12:
            best_cost = cost
            best_stops = stops
    return _sales(best_stops, ends), best_cost


def offline_decisions(
    demands: TraceLike,
    reservations: ArrayLike,
    model: CostModel,
    min_age: int = 1,
) -> list[OfflineDecision]:
    """Per-instance offline decisions against the keep-world (the proofs'
    per-instance benchmark), with their exact cost deltas."""
    trace = as_trace(demands)
    counts = _normalise_reservations(reservations, len(trace))
    min_age = _checked_min_age(min_age, model.period)
    d = trace.values
    starts, ends = _spans(counts, model.period)
    r = _timeline(starts, ends, d.size)
    decisions = []
    for index, (start, end) in enumerate(zip(starts.tolist(), ends.tolist())):
        sell_hour, delta = None, 0.0
        if end - start > min_age:
            ages, deltas = _best_sale_ages(
                (d[start:end] >= r[start:end])[np.newaxis],
                _fixed_deltas(end - start, model.period, model, min_age),
                model,
                min_age,
            )
            if ages[0] >= 0:
                sell_hour, delta = start + int(ages[0]), float(deltas[0])
        decisions.append(
            OfflineDecision(instance_id=index, sell_hour=sell_hour, cost_delta=delta)
        )
    return decisions
