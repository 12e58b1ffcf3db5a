"""The event-driven imitators against the hour-by-hour loops.

``AllReserved`` and ``RandomReservation`` top the pool up with one
running maximum per period, Random-Reservation replaying its draws from
raw PCG64 words; ``OnlineBreakEven`` jumps from one firing or expiry
to the next. ``tests.purchasing.purchasing_reference`` keeps the loops
that step every hour, and every schedule must be equal to theirs with
``np.array_equal``. The seeded corpus mixes periods of 2–80 hours,
horizons shorter than a period and not a multiple of it, five demand
shapes, windows of ``None``, shorter and longer than the period, three
threshold fractions, several Random-Reservation seeds, and
Random-Reservation demands in ``[2³⁰, 2³² − 2]``, where Lemire's method
often draws again.
"""

import collections
import dataclasses

import numpy as np
import pytest

from repro.errors import SimulationError
from repro.experiments.config import ExperimentConfig
from repro.experiments.population import build_experiment_population
from repro.pricing.plan import PricingPlan
from repro.purchasing.all_reserved import AllReserved
from repro.purchasing.base import PurchasingAlgorithm
from repro.purchasing.online_breakeven import OnlineBreakEven
from repro.purchasing.random_reservation import RandomReservation
from repro.purchasing.runner import paper_imitators
from tests.purchasing.purchasing_reference import (
    literal_all_reserved,
    literal_online_breakeven,
    literal_random_reservation,
)

N_CASES = 1200
SHAPES = ("iid", "spikes", "plateaus", "bursts", "zero")
FRACTIONS = (1.0, 0.5, 0.05)
WINDOWS = (None, "short", "long")
#: Random-Reservation demands that make Lemire's method draw again.
HUGE = (2**30, 2**32 - 1)
LOW32 = 0xFFFFFFFF


@dataclasses.dataclass(frozen=True)
class Case:
    seed: int
    demands: np.ndarray
    plan: PricingPlan
    algorithm: PurchasingAlgorithm

    def reference(self) -> np.ndarray:
        algorithm = self.algorithm
        if isinstance(algorithm, AllReserved):
            return literal_all_reserved(self.demands, self.plan)
        if isinstance(algorithm, RandomReservation):
            return literal_random_reservation(self.demands, self.plan, algorithm.seed)
        return literal_online_breakeven(self.demands, self.plan, algorithm)


def demand_shape(rng: np.random.Generator, shape: str, horizon: int) -> np.ndarray:
    """One seeded demand trace of the given shape, peaking at most ~24."""
    peak = int(rng.integers(1, 25))
    if shape == "iid":
        return rng.integers(0, peak + 1, size=horizon)
    if shape == "spikes":
        return np.where(rng.random(horizon) < rng.uniform(0.02, 0.2),
                        rng.integers(1, peak + 1, size=horizon), 0)
    if shape == "plateaus":
        edges = np.sort(rng.integers(0, horizon, size=int(rng.integers(1, 6))))
        levels = rng.integers(0, peak + 1, size=edges.size + 1)
        return levels[np.searchsorted(edges, np.arange(horizon), side="right")]
    if shape == "bursts":
        base = int(rng.integers(0, peak + 1))
        noise = rng.integers(-1, 2, size=horizon)
        bursts = np.where(rng.random(horizon) < 0.1, rng.integers(1, peak + 1, size=horizon), 0)
        return np.maximum(base + noise + bursts, 0)
    return np.zeros(horizon, dtype=np.int64)


def make_case(seed: int) -> Case:
    """One seeded case: 2 in 10 All-Reserved, 3 in 10 Random-Reservation
    (one of them on huge demands) and 5 in 10 break-even."""
    rng = np.random.default_rng(seed)
    period = int(rng.integers(2, 81))
    horizon = int(rng.integers(1, 4 * period + 2))
    demands = demand_shape(rng, SHAPES[seed % len(SHAPES)], horizon)
    plan = PricingPlan(
        on_demand_hourly=1.0,
        upfront=float(rng.uniform(0.05, 0.9)) * 0.75 * period,
        alpha=0.25,
        period_hours=period,
        name="event-driven",
    )
    kind = seed % 10
    if kind < 2:
        algorithm: PurchasingAlgorithm = AllReserved()
    elif kind < 5:
        algorithm = RandomReservation(seed=int(rng.integers(0, 1000)))
        if kind == 4:
            busy = (demands > 0) if demands.any() else rng.random(horizon) < 0.5
            demands = np.where(busy, rng.integers(*HUGE, size=horizon), 0)
    else:
        window = WINDOWS[(seed // 10) % len(WINDOWS)]
        if window == "short":
            window = int(rng.integers(1, period))
        elif window == "long":
            window = int(rng.integers(period + 1, 3 * period + 1))
        algorithm = OnlineBreakEven(
            threshold_fraction=FRACTIONS[(seed // 30) % len(FRACTIONS)],
            window_hours=window,
        )
    return Case(seed, demands, plan, algorithm)


CORPUS = [make_case(seed) for seed in range(N_CASES)]


def lemire_redraws(demands: np.ndarray, seed: int) -> "tuple[list[int], int]":
    """The reference loop's ``integers`` draws and how often Lemire's
    method drew again, from a scalar model of PCG64's ``next_uint32``."""
    busy = demands[demands > 0].tolist()
    words = iter(np.random.default_rng(seed).bit_generator.random_raw(4 * len(busy) + 8).tolist())
    buffered, redraws, draws = None, 0, []
    for demand in busy:
        next(words)  # random()
        span = demand + 1
        while True:
            if buffered is None:
                word = next(words)
                low, buffered = word & LOW32, word >> 32
            else:
                low, buffered = buffered, None
            if (low * span) & LOW32 >= 2**32 % span:
                break
            redraws += 1
        draws.append((low * span) >> 32)
    return draws, redraws


def test_schedules_equal_the_hourly_loops():
    mismatched = [
        case.seed
        for case in CORPUS
        if not np.array_equal(case.algorithm.schedule(case.demands, case.plan), case.reference())
    ]
    assert mismatched == []


def test_corpus_reaches_every_axis():
    periods = {case.plan.period_hours for case in CORPUS}
    assert min(periods) == 2 and max(periods) == 80
    horizons = [(case.demands.size, case.plan.period_hours) for case in CORPUS]
    assert sum(h < p for h, p in horizons) >= 100
    assert sum(h > p and h % p for h, p in horizons) >= 300

    replaced = fired = redrawn = huge = 0
    for case in CORPUS:
        n = case.algorithm.schedule(case.demands, case.plan)
        reserved = np.flatnonzero(n)
        # A reservation made after an earlier one expired.
        replaced += reserved.size > 1 and reserved[-1] >= reserved[0] + case.plan.period_hours
        if isinstance(case.algorithm, OnlineBreakEven):
            fired += reserved.size > 0
        if isinstance(case.algorithm, RandomReservation) and case.demands.max() >= HUGE[0]:
            huge += 1
            draws, redraws = lemire_redraws(case.demands, case.algorithm.seed)
            rng = np.random.default_rng(case.algorithm.seed)
            expected = []
            for demand in case.demands[case.demands > 0].tolist():
                rng.random()
                expected.append(int(rng.integers(0, demand + 1)))
            assert draws == expected, case.seed
            redrawn += redraws > 0
    assert replaced >= 200
    assert fired >= 300
    assert huge >= 100
    assert redrawn >= 20


#: The cases the break-even event loop treats differently from the
#: hourly loop, each of which the corpus must keep reaching.
BREAKEVEN_EDGES = (
    "several levels fire in one hour",
    "a level fires at an expiry hour",
    "a level fires above an unfired lowest uncovered level",
    "a level uncovered at an expiry holds in-window history",
    "trigger of one hour",
    "trigger beyond the horizon",
    "window shorter than the trigger",
)


def breakeven_edges(case: Case) -> "set[str]":
    """The entries of ``BREAKEVEN_EDGES`` one break-even case reaches,
    from a replay of the hourly rule that also watches its levels."""
    algorithm, plan, values = case.algorithm, case.plan, case.demands.tolist()
    horizon, period = len(values), plan.period_hours
    window = algorithm.window_hours or period
    trigger = algorithm.trigger_hours(plan)
    edges = set()
    if trigger == 1:
        edges.add("trigger of one hour")
    if trigger > horizon:
        edges.add("trigger beyond the horizon")
    elif window < trigger:
        edges.add("window shorter than the trigger")
    histories: "dict[int, list[int]]" = {}
    expiries: "list[tuple[int, int]]" = []
    active = 0
    for hour, demand in enumerate(values):
        covered = active
        active -= sum(count for end, count in expiries if end == hour)
        for level in range(active, covered):
            if any(seen > hour - window for seen in histories.get(level, ())):
                edges.add("a level uncovered at an expiry holds in-window history")
        fired = []
        for level in range(active, demand):
            history = histories.setdefault(level, [])
            history.append(hour)
            history[:] = [seen for seen in history if seen > hour - window]
            if len(history) >= trigger:
                fired.append(level)
                history.clear()
        if not fired:
            continue
        if len(fired) > 1:
            edges.add("several levels fire in one hour")
        if active < covered:
            edges.add("a level fires at an expiry hour")
        if fired[0] > active:
            edges.add("a level fires above an unfired lowest uncovered level")
        active += len(fired)
        expiries.append((hour + period, len(fired)))
    return edges


def test_breakeven_cases_reach_the_event_loops_edges():
    reached = collections.Counter()
    for case in CORPUS:
        if isinstance(case.algorithm, OnlineBreakEven):
            reached.update(breakeven_edges(case))
    assert {edge: reached[edge] for edge in BREAKEVEN_EDGES if reached[edge] < 20} == {}


def test_sweep_user_population_equals_the_hourly_loops():
    config = ExperimentConfig.paper_scale(seed=2018).scaled(users_per_group=10)
    imitators = {algorithm.name: algorithm for algorithm in paper_imitators(seed=config.seed)}
    for user in build_experiment_population(config):
        case = Case(-1, user.workload.trace.values, config.plan(), imitators[user.imitator_name])
        assert np.array_equal(user.schedule.reservations, case.reference()), user.user_id


def test_random_reservation_refuses_demands_past_lemires_range(toy_plan):
    demands = np.array([3, 0, 2**32 - 2, 2**32 - 1, 2**40])
    with pytest.raises(SimulationError, match="hour 3"):
        RandomReservation(seed=1).schedule(demands, toy_plan)
