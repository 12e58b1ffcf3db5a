"""``apply_rebuys`` against the per-hour rank rule.

``apply_rebuys`` keeps the rank only on the hours where demand exceeds
the base timeline and finds each unit's window among them with one
``searchsorted``; ``tests.core.fastsim_reference.literal_apply_rebuys``
scans every hour of every window. Each seeded case must give the same
re-buys, the same ``r_after`` and the same ``rebuy_cost``, compared
with ``==``. The corpus mixes units in sale order whose ``watch_from``
is not monotone (as under clearing), empty windows, units sharing a
window, hot hours on the window edges and just past them, timelines
with no hot hour and with every hour hot, and triggers of 1, 2, 24 and
more than any window holds; a second test asserts that it reaches each
of these.
"""

import numpy as np

from repro.core.account import CostModel
from repro.core.cancellation import CancellationModel, SoldUnit, apply_rebuys
from repro.pricing.plan import PricingPlan
from tests.core.fastsim_reference import literal_apply_rebuys

N_CASES = 600
SHAPES = ("sparse", "dense", "none", "all")


def make_case(seed: int) -> dict:
    """The inputs of one seeded case."""
    rng = np.random.default_rng(seed)
    # Long cases hold windows of 24 hours and more, for the 24-hour
    # trigger to fire.
    long_case = rng.random() < 0.25
    if long_case:
        horizon = int(rng.integers(48, 121))
        period = int(rng.integers(24, horizon + 9))
    else:
        horizon = int(rng.integers(1, 41))
        period = int(rng.integers(1, horizon + 9))
    base = rng.integers(0, 4, size=horizon)
    shape = SHAPES[seed % len(SHAPES)] if seed % 3 else "sparse"
    if shape == "none":
        demands = np.maximum(base - rng.integers(0, 2, size=horizon), 0)
    elif shape == "all":
        demands = base + rng.integers(1, 4, size=horizon)
    elif shape == "dense":
        demands = np.maximum(base + rng.integers(-1, 3, size=horizon), 0)
    else:
        demands = base.copy()
        hot = rng.random(horizon) < rng.uniform(0.05, 0.4)
        demands[hot] += rng.integers(1, 4, size=int(hot.sum()))

    units = []
    for reserved_at in np.sort(rng.integers(0, horizon, size=int(rng.integers(0, 13)))):
        reserved_at = int(reserved_at)
        term_end = min(reserved_at + period, horizon)
        if units and rng.random() < 0.15:
            units.append(units[-1])  # a second unit of the same window
            continue
        # Decision hour plus a clearing delay; now and then it reaches
        # the term end and the window is empty.
        if rng.random() < 0.15:
            watch_from = term_end + int(rng.integers(0, 3))
        else:
            watch_from = int(rng.integers(reserved_at, term_end))
        units.append(SoldUnit(reserved_at, watch_from, term_end))
    # Put returned demand right on some windows' edges.
    if shape not in ("none", "all"):
        for unit in units:
            for hour in (unit.watch_from, unit.term_end - 1, unit.term_end):
                if 0 <= hour < horizon and rng.random() < 0.3:
                    demands[hour] = base[hour] + int(rng.integers(1, 4))
    longest = max([0, *(u.term_end - u.watch_from for u in units)])
    triggers = [1, 2, 24, 24] if long_case else [1, 1, 2, 2, 24]
    trigger = int(rng.choice([*triggers, longest + 1]))
    plan = PricingPlan(
        on_demand_hourly=1.0,
        upfront=float(rng.uniform(0.2, 1.5)) * period,
        alpha=0.25,
        period_hours=period,
        name="rank",
    )
    return {
        "demands": demands,
        "r_base": base,
        "units": units,
        "period": period,
        "model": CostModel(plan=plan, selling_discount=float(rng.choice([0.5, 0.8]))),
        "cancellation": CancellationModel(
            penalty=float(rng.choice([0.0, 0.25])), trigger_hours=trigger
        ),
    }


def features(case: dict) -> set:
    """The corpus features one case exercises."""
    gap = case["demands"] - case["r_base"]
    horizon = gap.size
    units = case["units"]
    trigger = case["cancellation"].trigger_hours
    hot = gap > 0
    found = {"shape:" + ("all" if hot.all() else "some" if hot.any() else "none")}
    windows = [(u.watch_from, u.term_end) for u in units]
    starts = [start for start, _ in windows]
    if starts != sorted(starts):
        found.add("non-monotone watch_from")
    if any(start >= end for start, end in windows):
        found.add("empty window")
    if len(set(windows)) < len(windows):
        found.add("shared window")
    longest = max((end - start for start, end in windows), default=0)
    if trigger in (1, 2, 24):
        found.add(f"trigger:{trigger}")
    if units and trigger > longest:
        found.add("trigger beyond every window")
    for start, end in windows:
        if start < end and gap[start] > 0:
            found.add("hot at watch_from")
        if start < end and gap[end - 1] > 0:
            found.add("hot at term_end - 1")
        if start < end < horizon and gap[end] > 0:
            found.add("hot at term_end")
    return found


def test_matches_the_per_hour_rule():
    rebought = 0
    for seed in range(N_CASES):
        case = make_case(seed)
        got = apply_rebuys(**case)
        want = literal_apply_rebuys(**case)
        assert got.rebuys == want.rebuys, seed
        assert np.array_equal(got.r_after, want.r_after), seed
        assert got.r_after.dtype == want.r_after.dtype, seed
        assert got.rebuy_cost == want.rebuy_cost, seed
        rebought += len(want.rebuys)
    assert rebought > N_CASES  # the corpus re-buys often, not just once


def test_corpus_reaches_every_case():
    seen: "dict[str, int]" = {}
    rebuys_at_24 = 0
    for seed in range(N_CASES):
        case = make_case(seed)
        for feature in features(case):
            seen[feature] = seen.get(feature, 0) + 1
        if case["cancellation"].trigger_hours == 24:
            rebuys_at_24 += len(literal_apply_rebuys(**case).rebuys)
    expected = {
        "shape:none",
        "shape:all",
        "shape:some",
        "non-monotone watch_from",
        "empty window",
        "shared window",
        "trigger:1",
        "trigger:2",
        "trigger:24",
        "trigger beyond every window",
        "hot at watch_from",
        "hot at term_end - 1",
        "hot at term_end",
    }
    assert {name for name, count in seen.items() if count >= 10} >= expected, seen
    assert rebuys_at_24 > 0
