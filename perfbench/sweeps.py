"""The three sweep workloads: population build, then repeated sweeps.

Each run builds the workload's population several times (``setup_s``
is the median build), from the run's seed or, for the workloads whose
work a fresh population moves too much, from a fixed seed with the
run's seed shuffling the sweep order. It then sweeps once untimed as
the reference and warm-up, and repeats ``run_sweep`` +
``SweepResult.to_csv`` on the prebuilt population until the run's
seconds are used. Every sweep runs with ``workers=1``.

Checks, all outside the timed region, count a user as failed when:

* any timed sweep's outcome differs from the reference sweep's;
* the other engine, run on a fixed sample of users, disagrees bit for
  bit (the population engine and per-user ``run_fast`` are promised
  identical);
* ``sweep-opt``: OPT costs more than any standard policy;
* ``sweep-market``: the result cache lacks the user's entry, or holds
  more entries than there are users.
"""

from __future__ import annotations

import dataclasses
import itertools
import random
import shutil
import time
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from perfbench.record import (
    SETUP_REPS,
    Outcome,
    at_reference_speed,
    calibrate,
    median,
    peak_rss_mb,
)
from perfbench.spans import Span, Tracer, self_times

import repro.core.fastsim as fastsim
import repro.core.offline as offline
import repro.core.popsim as popsim
import repro.experiments.population as population_module
import repro.experiments.runner as runner
from repro._tolerances import money_le
from repro.core import policies
from repro.core.clearing import ClearingModel, ClearingProfile
from repro.experiments.config import ExperimentConfig
from repro.parallel.cache import ResultCache

#: Timed sweeps per run at the least, however long they take.
MIN_PASSES = 3

#: Users the other engine re-runs for the cross-engine check.
CHECK_SAMPLE = 12

#: Largest share of the traced sweep ``runner.pack_s`` may take -- the
#: time in ``run_sweep``'s own frame, which absorbs any sweep work no
#: wrapped layer claims -- before the traced run counts as failed.
RESIDUE_LIMIT = 0.10


@dataclasses.dataclass(frozen=True)
class SweepWorkload:
    preset: str
    users_per_group: int
    engine: str
    #: The per-layer metrics of the sweep this workload exercises,
    #: besides the runner's and the set-up's; the others do not apply.
    layers: "Tuple[str, ...]"
    include_opt: bool = False
    #: Liquidity-aware clearing, one randomized and one cancellation
    #: policy spec, and a result cache emptied before every sweep.
    market: bool = False
    #: Sweep only the users -- taking the groups in turn -- whose
    #: reservations fill this target without passing it. OPT's cost
    #: follows a user's reservations, which differ a hundredfold between
    #: users, so a fixed reservation count keeps the work equal across
    #: seeds and reservations are the unit of work.
    reservations: "Optional[int]" = None
    #: Build the population from one fixed seed and let the run's seed
    #: only choose the order users are swept in. A few users with
    #: hundreds of reservations carry most of OPT's cost, so a fresh
    #: population per seed moves the work itself by a third. Per-user
    #: ``run_fast`` costs per user (an hourly loop) and per reservation
    #: (a window scan per instance), and a fresh 30-user population
    #: moved both, and the sweep time, by 15% from seed to seed.
    fixed_population: bool = False

    def config(self, seed: int, tiny: bool) -> ExperimentConfig:
        if self.fixed_population:
            seed = FIXED_POPULATION_SEED
        if tiny:
            config = ExperimentConfig.quick(seed=seed).scaled(users_per_group=2)
        elif self.preset == "paper":
            config = ExperimentConfig.paper_scale(seed=seed)
        else:
            config = ExperimentConfig.default(seed=seed)
        if not tiny:
            config = config.scaled(users_per_group=self.users_per_group)
        if self.market:
            config = config.scaled(
                policies=(
                    f"randomized:seed={seed},spots=0.25|0.5|0.75,name=randomized",
                    "cancellation:phi=0.5,penalty=0.1,trigger=24,name=cancellation",
                )
            )
        return config

    def select(self, users: list, tiny: bool) -> list:
        if self.reservations is None:
            return users
        target = self.reservations // 10 if tiny else self.reservations
        groups: "Dict[object, list]" = {}
        for user in users:
            groups.setdefault(user.group, []).append(user)
        turns = [u for row in itertools.zip_longest(*groups.values()) for u in row if u]
        chosen, held = [], 0
        for user in turns:
            if held + user.schedule.total_reserved <= target:
                chosen.append(user)
                held += user.schedule.total_reserved
        return chosen

    def work(self, users: list) -> "Tuple[int, str]":
        """A sweep's work and its unit: reservations for OPT, else users."""
        if self.reservations is not None:
            return sum(user.schedule.total_reserved for user in users), "reservations"
        return len(users), "users"


FIXED_POPULATION_SEED = 2018

POPSIM = ("popsim.prepare_s", "popsim.run_s", "popsim.run_calls")

#: Users per group are scaled down from the presets so one sweep takes
#: 0.5-3 s and a run repeats it several times; the dominant layer of
#: each stays dominant (OPT, the population kernel with clearing and
#: cancellation, per-user ``run_fast``).
WORKLOADS: "Dict[str, SweepWorkload]" = {
    "sweep-opt": SweepWorkload(
        "default", 30, "population",
        POPSIM + ("offline.search_s", "offline.seed_s", "offline.account_s", "offline.users"),
        include_opt=True, reservations=3000, fixed_population=True,
    ),
    "sweep-market": SweepWorkload(
        "paper", 20, "population",
        POPSIM + (
            "popsim.randomized_s", "clearing.s", "clearing.calls", "cancellation.s",
            "cancellation.calls", "cache.key_s", "cache.get_s", "cache.put_s",
            "cache.hits", "cache.misses",
        ),
        market=True,
    ),
    "sweep-user": SweepWorkload(
        "paper", 10, "user", ("fastsim.run_s", "fastsim.run_calls"),
        fixed_population=True,
    ),
}

#: Per-layer metric -> the span names whose self time it sums. Every
#: sweep exercises the runner's two; the others as its ``layers`` say.
PASS_LAYERS: "Dict[str, Tuple[str, ...]]" = {
    "runner.pack_s": ("runner.sweep",),
    "runner.export_s": ("runner.export",),
    "fastsim.run_s": ("fastsim.run",),
    "offline.search_s": ("offline.run", "offline.search"),
    "offline.seed_s": ("offline.seed",),
    "offline.account_s": ("offline.account",),
    "popsim.prepare_s": ("popsim.prepare",),
    "popsim.run_s": ("popsim.run",),
    "popsim.randomized_s": ("popsim.randomized",),
    "clearing.s": ("clearing",),
    "cancellation.s": ("cancellation",),
    "cache.key_s": ("cache.key",),
    "cache.get_s": ("cache.get",),
    "cache.put_s": ("cache.put",),
}
PASS_COUNTS = {
    "fastsim.run_calls": "fastsim.run.calls",
    "offline.users": "offline.run.calls",
    "popsim.run_calls": "popsim.run.calls",
    "clearing.calls": "clearing.calls",
    "cancellation.calls": "cancellation.calls",
}
SETUP_LAYERS = {
    "workload.traces_s": ("workload.traces",),
    "purchasing.imitate_s": ("purchasing.imitate",),
}


def install_spans(tracer: Tracer, cache: "Optional[ResultCache]") -> None:
    """Wrap the public calls into each sweep layer."""
    tracer.patch(population_module, "build_population", "workload.traces")
    tracer.patch(population_module, "imitate", "purchasing.imitate")
    tracer.patch(runner, "run_sweep", "runner.sweep")
    tracer.patch(runner.SweepResult, "to_csv", "runner.export")
    tracer.patch(runner, "run_fast", "fastsim.run")
    tracer.patch(runner, "run_offline_optimal", "offline.run")
    tracer.patch(offline, "offline_optimal_schedule", "offline.search")
    # core.offline imports run_fast from the fastsim module at call
    # time, so the module attribute reaches exactly OPT's seeding runs.
    tracer.patch(fastsim, "run_fast", "offline.seed")
    tracer.patch(offline, "run_policy", "offline.account")
    tracer.patch(runner, "prepare_population", "popsim.prepare")
    tracer.patch(runner, "run_population", "popsim.run")
    tracer.patch(runner, "run_population_randomized", "popsim.randomized")
    tracer.patch(popsim, "apply_rebuys", "cancellation")
    tracer.patch(fastsim, "apply_rebuys", "cancellation")
    tracer.patch(ClearingModel, "profile", "clearing")
    tracer.patch(ClearingModel, "stream", "clearing")
    tracer.patch(ClearingProfile, "sample_delays", "clearing")
    tracer.patch(runner, "user_cache_key", "cache.key")
    if cache is not None:
        tracer.patch(cache, "get", "cache.get")
        tracer.patch(cache, "put", "cache.put")


def _sample(users: list) -> list:
    step = max(1, len(users) // CHECK_SAMPLE)
    return users[::step][:CHECK_SAMPLE]


def run(
    name: str,
    seed: int,
    seconds: float,
    trace: bool,
    work_dir: Path,
    tiny: bool = False,
    perturb: bool = False,
) -> Outcome:
    spec = WORKLOADS[name]
    config = spec.config(seed, tiny)
    clearing = ClearingModel.for_regime("normal", seed=seed) if spec.market else None
    cache = ResultCache(work_dir / "cache") if spec.market else None
    csv_path = work_dir / "sweep.csv"
    tracer = Tracer()
    if trace:
        install_spans(tracer, cache)
    try:
        return _run(
            name, spec, config, clearing, cache, csv_path, seed, seconds,
            tracer, trace, tiny, perturb,
        )
    finally:
        tracer.restore()
        if cache is not None:
            shutil.rmtree(cache.directory, ignore_errors=True)


def _run(
    name: str,
    spec: SweepWorkload,
    config: ExperimentConfig,
    clearing: "Optional[ClearingModel]",
    cache: "Optional[ResultCache]",
    csv_path: Path,
    seed: int,
    seconds: float,
    tracer: Tracer,
    trace: bool,
    tiny: bool,
    perturb: bool,
) -> Outcome:
    outcome = Outcome(
        config={
            "workload": name,
            "preset": "quick" if tiny else spec.preset,
            "population_seed": config.seed,
            "period_hours": config.period_hours,
            "horizon_hours": config.horizon,
            "engine": spec.engine,
            "include_opt": spec.include_opt,
            "clearing": "normal" if clearing is not None else None,
            "policies": list(config.policies),
            "cache": cache is not None,
            "workers": 1,
        },
        config_hash=config.content_hash(),
    )

    # -- set-up: the population build every CLI sweep pays first ------
    # The reference kernel is timed before and after each build.
    setup_times: "List[float]" = []
    setup_kernels: "List[float]" = []
    users: list = []
    kernel_before = calibrate()
    for _ in range(2 if tiny else SETUP_REPS):
        users = []  # free the previous build before the next one
        tracer.enabled = trace
        began = time.perf_counter()
        users = population_module.build_experiment_population(config)
        setup_times.append(time.perf_counter() - began)
        tracer.enabled = False
        kernel_after = calibrate()
        setup_kernels.append((kernel_before + kernel_after) / 2)
        kernel_before = kernel_after
    setup_spans, setup_counts = tracer.take()
    users = spec.select(users, tiny)
    if spec.fixed_population:
        random.Random(seed).shuffle(users)
    work, unit = spec.work(users)

    def sweep(traced: bool) -> "Tuple[runner.SweepResult, float]":
        if cache is not None:
            cache.clear()
        tracer.enabled = traced
        began = time.perf_counter()
        result = runner.run_sweep(
            config,
            users=users,
            workers=1,
            engine=spec.engine,
            include_opt=spec.include_opt,
            cache=cache,
            clearing=clearing,
        )
        result.to_csv(csv_path)
        elapsed = time.perf_counter() - began
        tracer.enabled = False
        return result, elapsed

    # -- the reference sweep, untimed (also the warm-up) ---------------
    reference, _ = sweep(False)
    cache_ok = _cache_holds(cache, config, users, spec, clearing)

    # -- the measured phase: the same sweep, repeated ------------------
    # Traced runs sweep twice per turn, untraced then traced, so both
    # sides of the overhead ratio see the same conditions.
    untraced: "List[float]" = []
    traced: "List[float]" = []
    results: "List[runner.SweepResult]" = []
    cache_counts: "List[Tuple[int, int]]" = []
    kernel: "List[float]" = []
    began = time.perf_counter()
    while True:
        kernel.append(calibrate())
        result, elapsed = sweep(False)
        results.append(result)
        untraced.append(elapsed)
        if trace:
            if cache is not None:
                hits, misses = cache.hits, cache.misses
            result, elapsed = sweep(True)
            results.append(result)
            traced.append(elapsed)
            if cache is not None:
                cache_counts.append((cache.hits - hits, cache.misses - misses))
        spent = time.perf_counter() - began
        turns = len(untraced)
        if turns >= (1 if tiny else MIN_PASSES) and spent + spent / turns > seconds:
            break
    peak = peak_rss_mb()
    pass_spans, pass_counts = tracer.take()
    cache_ok = cache_ok and _cache_holds(cache, config, users, spec, clearing)

    # -- output checks: a user fails when any of its outcomes disagrees -
    expected = {got.user_id: got for got in reference.outcomes}
    if perturb:
        first = reference.outcomes[0]
        policy = next(iter(first.costs))
        expected[first.user_id] = dataclasses.replace(
            first, costs=dict(first.costs, **{policy: first.costs[policy] + 1.0})
        )
    failed = set()
    other_engine = "user" if spec.engine == "population" else "population"
    sample = _sample(users)
    cross = runner.run_sweep(
        config,
        users=sample,
        workers=1,
        engine=other_engine,
        include_opt=spec.include_opt,
        clearing=clearing,
    )
    for result in results + [cross]:
        for got in result.outcomes:
            if expected[got.user_id] != got:
                failed.add(got.user_id)
    if spec.include_opt:
        for got in reference.outcomes:
            opt = got.costs[policies.POLICY_OPT]
            if not all(money_le(opt, cost) for cost in got.costs.values()):
                failed.add(got.user_id)
    if not cache_ok:
        failed.update(expected)
    outcome.attempted = len(users)
    outcome.failed = len(failed)

    # -- end-to-end metrics ----------------------------------------------
    # The host's speed drifts by tens of percent between and within
    # runs. A fixed reference kernel, timed before every sweep, drifts
    # with it, so sweep time in kernel units is the figure that repeats;
    # set-up time is rescaled to the reference speed the same way. The
    # raw times stay in the record.
    typical = median(untraced)
    reference_kernel = median(kernel)
    reservations = sum(user.schedule.total_reserved for user in users)
    outcome.put(
        "setup_s", at_reference_speed(setup_times, setup_kernels), "s", "lower",
        len(setup_times),
    )
    outcome.put("setup_raw_s", median(setup_times), "s", "lower", len(setup_times))
    outcome.put("latency_norm", typical / reference_kernel, "x", "lower", len(untraced))
    outcome.put(
        "throughput_norm", work / typical * reference_kernel, "x", "higher",
        len(untraced),
    )
    outcome.put_timing("request", untraced)
    outcome.put("request_min_ms", min(untraced) * 1e3, "ms", "lower", len(untraced))
    outcome.put("users_per_s", len(users) / typical, "users/s", "higher", len(untraced))
    outcome.put(
        "reservations_per_s", reservations / typical, "reservations/s", "higher",
        len(untraced),
    )
    outcome.put("kernel_ms", reference_kernel * 1e3, "ms", "lower", len(kernel))
    outcome.put("peak_rss_mb", peak, "MB", "lower")
    outcome.put("error_rate", outcome.failed / outcome.attempted, "ratio", "lower")
    outcome.config.update(users=len(users), reservations=reservations, work_unit=unit)
    outcome.samples = {
        "timed_s": untraced,
        "kernel_s": kernel,
        "setup_s": setup_times,
        "setup_kernel_s": setup_kernels,
    }
    outcome.notes.append(
        f"{len(untraced)} timed sweeps of {len(users)} users; cross-engine "
        f"check re-ran {len(sample)} users on engine={other_engine}"
    )

    if trace:
        _layers(
            outcome, spec, setup_spans, setup_counts, setup_times, pass_spans,
            pass_counts, traced, untraced, cache_counts,
        )
    return outcome


def _cache_holds(
    cache: "Optional[ResultCache]",
    config: ExperimentConfig,
    users: list,
    spec: SweepWorkload,
    clearing: "Optional[ClearingModel]",
) -> bool:
    """After a sweep of ``users``: one cache entry per user, each under
    the user's own key."""
    if cache is None:
        return True
    keys = {
        runner.user_cache_key(config, user, spec.include_opt, True, clearing)
        for user in users
    }
    return cache.entry_count() == len(users) and all(key in cache for key in keys)


def _layers(
    outcome: Outcome,
    spec: SweepWorkload,
    setup_spans: "List[Span]",
    setup_counts: "Dict[str, int]",
    setup_times: "List[float]",
    pass_spans: "List[Span]",
    pass_counts: "Dict[str, int]",
    traced: "List[float]",
    untraced: "List[float]",
    cache_counts: "List[Tuple[int, int]]",
) -> None:
    """Per-layer self times and counts of the layers the workload
    exercises: per sweep, and per population build for the set-up
    layers."""
    passes = len(traced)
    reps = len(setup_times)
    layers = outcome.layers
    setup_self = self_times(setup_spans)
    for metric, names in SETUP_LAYERS.items():
        layers[metric] = sum(setup_self.get(n, 0.0) for n in names) / reps
    layers["purchasing.imitate_calls"] = setup_counts.get("purchasing.imitate.calls", 0) / reps
    exercised = ("runner.pack_s", "runner.export_s") + spec.layers
    pass_self = self_times(pass_spans)
    for metric, names in PASS_LAYERS.items():
        if metric in exercised:
            layers[metric] = sum(pass_self.get(n, 0.0) for n in names) / passes
    for metric, label in PASS_COUNTS.items():
        if metric in exercised:
            layers[metric] = pass_counts.get(label, 0) / passes
    if cache_counts:
        layers["cache.hits"] = sum(h for h, _ in cache_counts) / passes
        layers["cache.misses"] = sum(m for _, m in cache_counts) / passes
    # run_sweep's own frame takes up whatever no wrapped layer under it
    # claims; bound its share so the breakdown cannot drift unnoticed.
    sweep_time = sum(traced) / passes
    residue = layers["runner.pack_s"] / sweep_time
    layers["trace.residue_share"] = residue
    layers["trace.overhead"] = median(traced) / median(untraced)
    if residue > RESIDUE_LIMIT:
        outcome.failed += 1
        outcome.attempted += 1
        outcome.notes.append(
            f"runner.pack_s, the sweep time no wrapped layer claims, is "
            f"{residue:.2%} of the traced sweep (limit {RESIDUE_LIMIT:.0%})"
        )
    layers["error_rate"] = outcome.failed / outcome.attempted
    shares = sorted(
        ((metric, layers[metric] / sweep_time) for metric in PASS_LAYERS if metric in layers),
        key=lambda item: -item[1],
    )
    outcome.notes.append(
        "traced sweep shares: "
        + ", ".join(f"{metric} {share:.1%}" for metric, share in shares if share >= 0.005)
    )
    setup_time = sum(setup_times) / reps
    outcome.notes.append(
        "traced set-up shares: "
        + ", ".join(
            f"{metric} {layers[metric] / setup_time:.1%}" for metric in SETUP_LAYERS
        )
    )
