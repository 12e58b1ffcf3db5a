"""The policy sweep: every user × every policy, via the batch engine.

This is the computation behind Figs. 3/4 and Tables II/III: for each user
of the population, run the three online selling algorithms, the two
benchmarks (Keep-Reserved, All-Selling at each decision spot), the extra
policy specs of ``ExperimentConfig.policies``, and optionally the
offline optimum, then collect per-user total costs.

The policies form one table of sweep columns, built once per sweep. The
sweep fans picklable tasks out through :mod:`repro.parallel`
(``workers=1`` keeps the plain in-process loop); the engine picks only
the worker and the task size. ``engine="user"`` runs one user per task
through ``run_fast``; ``engine="population"`` stacks a block of users
and runs each column once over it. An optional on-disk cache under
``.repro_cache/`` skips users whose outcome is already known for this
exact ``(config, trace, reservations, policy set, engine version)``.
See ``docs/parallel_execution.md``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import zip_longest
from pathlib import Path
from typing import Callable, Iterable, NamedTuple, Sequence

import numpy as np

from repro.analysis.normalize import normalize_costs
from repro.core.account import CostModel
from repro.core.cancellation import CancellationModel
from repro.core.clearing import ClearingModel
from repro.core.fastsim import ENGINE_VERSION, FastPolicyKind, run_fast
from repro.core.offline import run_offline_optimal
from repro.core.popsim import (
    DEFAULT_BLOCK_USERS,
    prepare_population,
    run_population,
    run_population_randomized,
)
from repro.core import policies as _policies
from repro.core.policyspec import PolicySpec
from repro.errors import ExperimentError
from repro.experiments.config import ExperimentConfig
from repro.experiments.population import ExperimentUser, build_experiment_population
from repro.parallel.cache import ResultCache, as_cache
from repro.parallel.hashing import stable_hash
from repro.parallel.pool import CHUNKS_PER_WORKER, parallel_map, resolve_workers
from repro.parallel.timing import StageTimer, SweepTiming
from repro.workload.groups import FluctuationGroup

#: The sweep execution engines: one ``run_fast`` call per (user, policy),
#: or one ``run_population`` call per (user-block, policy). Both drive
#: :func:`repro.core.popsim.run_block`, so outcomes are bit-identical
#: either way; only the throughput differs.
SWEEP_ENGINES = ("user", "population")

#: Schema version of the cached per-user payload (bump on shape changes).
#: Format 2 adds the optional per-policy ``instances_cleared`` counts of
#: clearing-enabled sweeps.
_CACHE_FORMAT = 2


@dataclass(frozen=True)
class UserOutcome:
    """All policies' results for one user."""

    user_id: str
    group: FluctuationGroup
    cv: float
    imitator: str
    instances_reserved: int
    costs: dict[str, float]
    instances_sold: dict[str, int]
    #: Per-policy sales that actually cleared on the marketplace; only
    #: populated by clearing-enabled sweeps (``None`` otherwise, where
    #: every sale clears instantly).
    instances_cleared: "dict[str, int] | None" = None


@dataclass
class SweepResult:
    """The full population × policy cost matrix plus metadata."""

    config: ExperimentConfig
    outcomes: list[UserOutcome]
    timing: "SweepTiming | None" = field(default=None, compare=False)
    policy_names: list[str] = field(init=False)

    def __post_init__(self) -> None:
        if not self.outcomes:
            raise ExperimentError("a sweep produced no outcomes")
        self.policy_names = list(self.outcomes[0].costs)
        expected = set(self.policy_names)
        for outcome in self.outcomes[1:]:
            if set(outcome.costs) != expected:
                raise ExperimentError(
                    f"user {outcome.user_id!r} was evaluated under policies "
                    f"{sorted(outcome.costs)} but user "
                    f"{self.outcomes[0].user_id!r} under {sorted(expected)}; "
                    "every outcome of one sweep must cover the same policy set"
                )

    # ------------------------------------------------------------------

    def costs_matrix(self) -> dict[str, np.ndarray]:
        """Per-policy vectors of per-user total costs (user order fixed)."""
        return {
            name: np.array([outcome.costs[name] for outcome in self.outcomes])
            for name in self.policy_names
        }

    def normalized(self) -> dict[str, np.ndarray]:
        """Costs normalised to Keep-Reserved (the paper's presentation)."""
        return normalize_costs(self.costs_matrix(), baseline=_policies.POLICY_KEEP)

    def group_labels(self) -> np.ndarray:
        """Each user's fluctuation-group label, in user order."""
        return np.array([outcome.group.value for outcome in self.outcomes])

    def select(self, group: FluctuationGroup) -> "SweepResult":
        """Sub-sweep containing one fluctuation group."""
        subset = [outcome for outcome in self.outcomes if outcome.group is group]
        if not subset:
            raise ExperimentError(f"no users in group {group.value!r}")
        return SweepResult(config=self.config, outcomes=subset)

    def user(self, user_id: str) -> UserOutcome:
        """Look one user's outcome up by id."""
        for outcome in self.outcomes:
            if outcome.user_id == user_id:
                return outcome
        raise ExperimentError(f"no user {user_id!r} in the sweep")

    def to_csv(self, path: "str | Path") -> None:
        """Export the per-user results as CSV (one row per user).

        Columns: user metadata, then each policy's absolute and
        normalized cost — the raw material of Figs. 3/4 and Tables
        II/III, for external plotting tools.
        """
        import csv

        normalized = self.normalized()
        with open(path, "w", newline="", encoding="utf-8") as handle:
            writer = csv.writer(handle)
            header = ["user_id", "group", "sigma_mu", "imitator", "reserved"]
            for name in self.policy_names:
                header.extend([f"cost:{name}", f"normalized:{name}"])
            writer.writerow(header)
            for index, outcome in enumerate(self.outcomes):
                row = [
                    outcome.user_id,
                    outcome.group.value,
                    f"{outcome.cv:.4f}",
                    outcome.imitator,
                    outcome.instances_reserved,
                ]
                for name in self.policy_names:
                    row.append(f"{outcome.costs[name]:.4f}")
                    row.append(f"{normalized[name][index]:.6f}")
                writer.writerow(row)


class _Column(NamedTuple):
    """One policy of the sweep: its display name and engine arguments.

    A randomized column draws each user's φ from ``randomized`` (keyed
    by user id) and runs the online rule at it; every other column runs
    at ``phi``.
    """

    name: str
    kind: FastPolicyKind = FastPolicyKind.ONLINE
    phi: float = 0.75
    threshold_scale: float = 1.0
    cancellation: "CancellationModel | None" = None
    randomized: "_policies.RandomizedSellingPolicy | None" = None


#: The columns every sweep starts with: Keep-Reserved and the online
#: algorithms; then All-Selling at each spot, when included.
_STANDARD_COLUMNS = (
    _Column(_policies.POLICY_KEEP, FastPolicyKind.KEEP_RESERVED),
    *(_Column(name, phi=phi) for name, phi in _policies.ONLINE_POLICIES.items()),
)
_ALL_SELLING_COLUMNS = tuple(
    _Column(name, FastPolicyKind.ALL_SELLING, phi)
    for name, phi in _policies.ALL_SELLING_POLICIES.items()
)


def _sweep_columns(
    config: ExperimentConfig, include_all_selling: bool
) -> "tuple[_Column, ...]":
    """The sweep's policies in column order: the standard columns, then
    the extra specs of ``config.policies``. OPT, when included, comes
    last and is added per user by :func:`_outcome`."""
    columns = list(_STANDARD_COLUMNS)
    if include_all_selling:
        columns += _ALL_SELLING_COLUMNS
    for spec_text in config.policies:
        policy = PolicySpec(spec_text).build()
        if isinstance(policy, _policies.RandomizedSellingPolicy):
            column = _Column(policy.name, randomized=policy)
        elif isinstance(policy, _policies.AllSellingPolicy):
            column = _Column(policy.name, FastPolicyKind.ALL_SELLING, policy.phi)
        else:
            # An online or cancellation spec. The configuration refuses keep
            # specs: their display name always collides with the standard set.
            column = _Column(
                policy.name,
                phi=policy.phi,
                threshold_scale=policy.threshold_scale,
                cancellation=getattr(policy, "cancellation", None),
            )
        columns.append(column)
    return tuple(columns)


class _SweepTask(NamedTuple):
    """One picklable unit of sweep work: some users under every column."""

    users: "tuple[ExperimentUser, ...]"
    columns: "tuple[_Column, ...]"
    names: "tuple[str, ...]"  # the columns' names, in column order
    model: CostModel
    include_opt: bool
    clearing: "ClearingModel | None"


def _outcome(
    task: _SweepTask,
    user: ExperimentUser,
    reserved: int,
    totals: "Sequence[float]",
    sold: "Sequence[int]",
    cleared: "Sequence[int]",
) -> UserOutcome:
    """One user's outcome from its reservation total (the prepared row's)
    and its column values, in column order.

    ``cleared`` is read only under a clearing model. OPT runs here, per
    user, and stays the instant-sale clairvoyant baseline under
    clearing: the benchmark the degradation is measured against. Users
    are not batched for OPT: each of its descents visits a user's
    instances in order, so a cross-user lockstep would take as many
    steps as the largest user has instances.
    """
    costs = dict(zip(task.names, totals))
    sold_counts = dict(zip(task.names, sold))
    cleared_counts = None if task.clearing is None else dict(zip(task.names, cleared))
    if task.include_opt:
        opt = run_offline_optimal(
            user.schedule.demands, user.schedule.reservations, task.model
        )
        costs[_policies.POLICY_OPT] = opt.total_cost
        sold_counts[_policies.POLICY_OPT] = opt.instances_sold
        if cleared_counts is not None:
            cleared_counts[_policies.POLICY_OPT] = opt.instances_sold
    return UserOutcome(
        user_id=user.user_id,
        group=user.group,
        cv=user.cv,
        imitator=user.imitator_name,
        instances_reserved=reserved,
        costs=costs,
        instances_sold=sold_counts,
        instances_cleared=cleared_counts,
    )


def _run_users(task: _SweepTask) -> "list[UserOutcome]":
    """Worker of ``engine="user"``: each user's row is checked and
    prepared once, then ``run_fast`` runs every column over it, with the
    user's clearing stream and randomized draw keyed by its id."""
    model, clearing = task.model, task.clearing
    outcomes: "list[UserOutcome]" = []
    for user in task.users:
        demands, reservations = user.schedule.demands.values, user.schedule.reservations
        prepared = prepare_population(demands[None], reservations[None], model.period)
        key = user.user_id
        totals, sold, cleared = [], [], []
        for _, kind, phi, threshold_scale, cancellation, randomized in task.columns:
            # Read each result as it comes: holding every column's result
            # (and its hourly arrays) at once made perfbench's paper-scale
            # sweep-user sweep ~9% slower on a 2-core host.
            result = run_fast(
                demands, reservations, model,
                phi if randomized is None else randomized.draw_spot(key),
                kind, threshold_scale, precomputed=prepared,
                clearing=clearing, clearing_key=key, cancellation=cancellation,
            )
            totals.append(result.breakdown.total)
            sold.append(len(result.sales))  # a length: builds no record
            if clearing is not None:
                cleared.append(result.instances_cleared)
        reserved = int(prepared.reservation_totals[0])
        outcomes.append(_outcome(task, user, reserved, totals, sold, cleared))
    return outcomes


def _run_block(task: _SweepTask) -> "list[UserOutcome]":
    """Worker of ``engine="population"``: every column over the task's
    users stacked into one ``(users × hours)`` block.

    Validation and the policy-independent tensors (active timeline,
    reservation prefix) are prepared once and shared by every column.
    Clearing streams and randomized draws are keyed by user id, so
    outcomes do not depend on how users are packed into blocks.
    """
    model, clearing = task.model, task.clearing
    keys: "list[object]" = [user.user_id for user in task.users]
    demands = np.stack([user.schedule.demands.values for user in task.users])
    reservations = np.stack([user.schedule.reservations for user in task.users])
    prepared = prepare_population(demands, reservations, model.period)
    results = [
        run_population(
            demands, reservations, model, phi, kind, threshold_scale, prepared,
            clearing=clearing, clearing_keys=keys, cancellation=cancellation,
        )
        if randomized is None
        else run_population_randomized(
            demands, reservations, model, randomized,
            user_keys=keys, clearing=clearing, clearing_keys=keys, precomputed=prepared,
        )
        for _, kind, phi, threshold_scale, cancellation, randomized in task.columns
    ]
    # Per user, its column values as Python floats and ints (no cleared
    # values without a clearing model).
    totals, sold, cleared = (
        list(zip(*(values.tolist() for values in arrays)))
        for arrays in (
            [result.total_costs() for result in results],
            [result.instances_sold for result in results],
            [result.instances_cleared for result in results if clearing is not None],
        )
    )
    reserved = prepared.reservation_totals.tolist()
    rows = zip_longest(task.users, reserved, totals, sold, cleared, fillvalue=())
    return [_outcome(task, *row) for row in rows]


def run_user(
    user: ExperimentUser,
    config: ExperimentConfig,
    *,
    include_opt: bool = False,
    include_all_selling: bool = True,
    model: "CostModel | None" = None,
    clearing: "ClearingModel | None" = None,
) -> UserOutcome:
    """Run every policy for one user.

    ``model`` lets sweep-scale callers build the cost model once and
    reuse it across the population instead of re-deriving it per user.
    """
    cost_model = model if model is not None else config.cost_model()
    if not isinstance(cost_model, CostModel):
        raise TypeError(f"model must be a CostModel, got {cost_model!r}")
    _validate_clearing(clearing)
    columns = _sweep_columns(config, include_all_selling)
    names = tuple(column.name for column in columns)
    task = _SweepTask((user,), columns, names, cost_model, include_opt, clearing)
    return _run_users(task)[0]


def _validate_clearing(clearing: object) -> None:
    if clearing is not None and not isinstance(clearing, ClearingModel):
        raise ExperimentError(
            f"clearing must be a ClearingModel or None, got "
            f"{type(clearing).__name__}"
        )


def _population_block_size(n_pending: int, workers: int) -> int:
    """User-block size for the population engine's fan-out.

    Sized so each worker sees ~:data:`CHUNKS_PER_WORKER` blocks (load
    balance) while never exceeding :data:`DEFAULT_BLOCK_USERS` (bounded
    per-block tensor memory).
    """
    resolved = resolve_workers(workers)
    if resolved <= 1:
        return min(DEFAULT_BLOCK_USERS, max(1, n_pending))
    target = math.ceil(n_pending / (resolved * CHUNKS_PER_WORKER))
    return max(1, min(DEFAULT_BLOCK_USERS, target))


def user_cache_key(
    config: ExperimentConfig,
    user: ExperimentUser,
    include_opt: bool,
    include_all_selling: bool,
    clearing: "ClearingModel | None" = None,
) -> str:
    """Content hash identifying one user's sweep outcome.

    Everything that can change the outcome is part of the key: the
    experiment configuration, the user's demand trace and imitated
    reservations (by value, not by id), the policy set toggles, the
    clearing model (when one is attached — clearing-on and clearing-off
    sweeps must never alias, and neither must two different regimes or
    seeds), and the fast engine's version. Anything else changing —
    process, session, host — must *not* change the key, or the cache
    would never hit.
    """
    key: "dict[str, object]" = {
        "engine": ENGINE_VERSION,
        "config": config.content_hash(),
        "user_id": user.user_id,
        "group": user.group,
        "cv": user.cv,
        "imitator": user.imitator_name,
        "demands": user.schedule.demands.values,
        "reservations": user.schedule.reservations,
        "include_opt": include_opt,
        "include_all_selling": include_all_selling,
    }
    if clearing is not None:
        # Only added when present so pre-clearing cache entries keep
        # their keys (an absent entry and an explicit None must hash
        # identically to the historical key).
        key["clearing"] = clearing.content_digest()
    return stable_hash(key)


def _outcome_payload(outcome: UserOutcome) -> dict:
    """JSON-ready form of one outcome, for the on-disk cache."""
    return {
        "format": _CACHE_FORMAT,
        "user_id": outcome.user_id,
        "group": outcome.group.value,
        "cv": outcome.cv,
        "imitator": outcome.imitator,
        "instances_reserved": outcome.instances_reserved,
        "costs": outcome.costs,
        "instances_sold": outcome.instances_sold,
        "instances_cleared": outcome.instances_cleared,
    }


def _outcome_from_payload(
    payload: dict, names: "list[str]", clearing: "ClearingModel | None"
) -> "UserOutcome | None":
    """Rebuild an outcome from a cached payload; ``None`` (a miss) when
    the payload is from an incompatible cache format or malformed. Its
    per-policy dicts must name exactly this sweep's ``names``, in order,
    and ``instances_cleared`` must be present exactly under a clearing
    model.
    """
    if payload.get("format") != _CACHE_FORMAT:
        return None
    try:
        cleared_payload = payload.get("instances_cleared")
        outcome = UserOutcome(
            user_id=payload["user_id"],
            group=FluctuationGroup(payload["group"]),
            cv=float(payload["cv"]),
            imitator=payload["imitator"],
            instances_reserved=int(payload["instances_reserved"]),
            costs={name: float(v) for name, v in payload["costs"].items()},
            instances_sold={
                name: int(v) for name, v in payload["instances_sold"].items()
            },
            instances_cleared=(
                {name: int(v) for name, v in cleared_payload.items()}
                if cleared_payload is not None
                else None
            ),
        )
    except (AttributeError, KeyError, TypeError, ValueError):
        return None
    cleared = outcome.instances_cleared
    if (
        list(outcome.costs) != names
        or list(outcome.instances_sold) != names
        or (None if cleared is None else list(cleared))
        != (None if clearing is None else names)
    ):
        return None
    return outcome


def run_sweep(
    config: ExperimentConfig,
    *,
    users: "Iterable[ExperimentUser] | None" = None,
    include_opt: bool = False,
    include_all_selling: bool = True,
    progress: "Callable[[int, int], None] | None" = None,
    workers: "int | None" = 1,
    cache: "ResultCache | str | Path | None" = None,
    engine: str = "user",
    clearing: "ClearingModel | None" = None,
) -> SweepResult:
    """Run the full population sweep (building the population if needed).

    Everything after ``config`` is keyword-only. ``workers`` fans work
    out over a process pool (``1`` = the serial in-process path,
    ``0``/``None`` = one worker per core); results are
    identical regardless of the worker count. ``cache`` — a
    :class:`~repro.parallel.cache.ResultCache` or a directory path —
    skips users whose outcome is already stored for this exact
    configuration. ``engine`` selects the execution path: ``"user"``
    (default) simulates one user at a time through ``run_fast``;
    ``"population"`` runs user-blocks through the tensor engine of
    :mod:`repro.core.popsim` — outcomes are bit-identical either way
    (cache entries are shared across engines for the same reason), but
    the population path needs one common horizon. Stage timings land on
    ``SweepResult.timing``. ``clearing`` attaches a
    :class:`~repro.core.clearing.ClearingModel`: online and all-selling
    sales clear stochastically (per-user streams keyed by ``user_id``,
    so both engines and any worker count agree bit for bit) while the
    offline optimum stays the instant-sale baseline; the cache key
    incorporates the clearing configuration, so clearing-on and
    clearing-off results can never alias.
    """
    # The cache key hashes these flags, and True and 1 hash differently.
    include_opt, include_all_selling = bool(include_opt), bool(include_all_selling)
    if engine not in SWEEP_ENGINES:
        raise ExperimentError(
            f"unknown sweep engine {engine!r}; choose one of {SWEEP_ENGINES}"
        )
    _validate_clearing(clearing)
    timer = StageTimer()
    store = as_cache(cache)
    with timer.stage("population"):
        population = (
            list(users) if users is not None else build_experiment_population(config)
        )
        model = config.cost_model()  # built once per sweep, shared by all users
    total = len(population)
    columns = _sweep_columns(config, include_all_selling)
    column_names = tuple(column.name for column in columns)
    names = list(column_names)
    if include_opt:
        names.append(_policies.POLICY_OPT)

    outcomes: "list[UserOutcome | None]" = [None] * total
    keys: "list[str | None]" = [None] * total
    pending: "list[int]" = []
    if store is not None:
        with timer.stage("cache-lookup"):
            for index, user in enumerate(population):
                key = user_cache_key(
                    config, user, include_opt, include_all_selling, clearing
                )
                keys[index] = key
                payload = store.get(key)
                restored = None
                if payload is not None:
                    restored = _outcome_from_payload(payload, names, clearing)
                    if restored is None:
                        # Readable but incompatible or malformed entry:
                        # recount as a miss (recomputed and overwritten).
                        store.hits -= 1
                        store.misses += 1
                if restored is None:
                    pending.append(index)
                outcomes[index] = restored
    else:
        pending = list(range(total))

    done_offset = total - len(pending)
    if progress is not None and done_offset:
        progress(done_offset, total)

    with timer.stage("simulate"):
        if engine == "population":
            horizons = {len(population[index].schedule.demands) for index in pending}
            if len(horizons) > 1:
                raise ExperimentError(
                    "engine='population' needs one common horizon across users, "
                    f"got {sorted(horizons)}; use engine='user' for mixed-horizon "
                    "populations"
                )
            # Blocks are already sized for load balance: one per chunk.
            size = _population_block_size(len(pending), workers)
            worker, chunk_size = _run_block, 1
        else:
            worker, size, chunk_size = _run_users, 1, None
        pending_users = [population[index] for index in pending]
        tasks = [
            _SweepTask(
                tuple(pending_users[start : start + size]),
                columns, column_names, model, include_opt, clearing,
            )
            for start in range(0, len(pending), size)
        ]
        if progress is None:
            on_progress = None
        else:
            reporter, npending = progress, len(pending)

            def on_progress(done_tasks: int) -> None:
                # Tasks are equal-sized except the last; clamp to pending.
                reporter(done_offset + min(npending, done_tasks * size), total)

        per_task = parallel_map(
            worker, tasks, workers=workers, chunk_size=chunk_size, progress=on_progress
        )
        computed = [outcome for outcomes_ in per_task for outcome in outcomes_]

    if store is not None and pending:
        with timer.stage("cache-store"):
            for position, index in enumerate(pending):
                key = keys[index]
                if key is not None:
                    store.put(key, _outcome_payload(computed[position]))
    for index, outcome in zip(pending, computed):
        outcomes[index] = outcome
    done = [outcome for outcome in outcomes if outcome is not None]
    if len(done) != total:
        raise ExperimentError("sweep execution lost outcomes; this is a bug")

    timing = SweepTiming(
        workers=resolve_workers(workers),
        total_users=total,
        simulated_users=len(pending),
        cache_hits=store.hits if store is not None else 0,
        cache_misses=store.misses if store is not None else 0,
        stage_seconds=timer.stages,
        total_seconds=timer.total_seconds,
    )
    return SweepResult(config=config, outcomes=done, timing=timing)
