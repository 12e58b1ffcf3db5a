"""The policy sweep: every user × every policy, via the fast engine.

This is the computation behind Figs. 3/4 and Tables II/III: for each user
of the population, run the three online selling algorithms, the two
benchmarks (Keep-Reserved, All-Selling at each decision spot), and
optionally the offline optimum, then collect per-user total costs.

The sweep executes through :mod:`repro.parallel`: work units fan out over
a process pool (``workers=1`` keeps the plain in-process loop, so serial
results are bit-identical to the historical path), and an optional
on-disk cache under ``.repro_cache/`` skips users whose outcome is
already known for this exact ``(config, trace, reservations, policy set,
engine version)``. See ``docs/parallel_execution.md``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Iterable

import numpy as np

from repro.analysis.normalize import normalize_costs
from repro.core.account import CostModel
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

#: The sweep execution engines: per-user ``run_fast`` (the oracle) and
#: the population-tensor path of :mod:`repro.core.popsim`. Outcomes are
#: bit-identical either way; only the throughput differs.
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


def _simulate_spec_policy(
    spec_text: str,
    demands: np.ndarray,
    reservations: np.ndarray,
    model: CostModel,
    user_id: str,
    clearing: "ClearingModel | None",
) -> "tuple[str, float, int, int]":
    """Run one extra spec policy for one user through ``run_fast``.

    The spec-kind dispatch shared by both execution engines: a
    randomized spec draws its φ from the per-user stream (keyed by
    ``user_id``, the same key the population path uses) and then *is*
    the deterministic online run at that φ; a cancellation spec is the
    online run plus the re-buy post-pass. Returns
    ``(name, total_cost, sold, cleared)``.
    """
    policy = PolicySpec(spec_text).build()
    if isinstance(policy, _policies.KeepReservedPolicy):
        result = run_fast(
            demands, reservations, model, kind=FastPolicyKind.KEEP_RESERVED
        )
        return policy.name, result.total_cost, 0, 0
    if isinstance(policy, _policies.RandomizedSellingPolicy):
        result = run_fast(
            demands, reservations, model, phi=policy.draw_spot(user_id),
            clearing=clearing, clearing_key=user_id,
        )
    elif isinstance(policy, _policies.CancellationAwareSellingPolicy):
        result = run_fast(
            demands, reservations, model, phi=policy.phi,
            threshold_scale=policy.threshold_scale,
            clearing=clearing, clearing_key=user_id,
            cancellation=policy.cancellation,
        )
    elif isinstance(policy, _policies.AllSellingPolicy):
        result = run_fast(
            demands, reservations, model, phi=policy.phi,
            kind=FastPolicyKind.ALL_SELLING,
            clearing=clearing, clearing_key=user_id,
        )
    else:
        result = run_fast(
            demands, reservations, model, phi=policy.phi,
            threshold_scale=policy.threshold_scale,
            clearing=clearing, clearing_key=user_id,
        )
    return (
        policy.name,
        result.total_cost,
        result.instances_sold,
        result.instances_cleared,
    )


def _simulate_user(
    user: ExperimentUser,
    model: CostModel,
    include_opt: bool,
    include_all_selling: bool,
    clearing: "ClearingModel | None" = None,
    extra_policies: "tuple[str, ...]" = (),
) -> UserOutcome:
    """Run every policy for one user against a prebuilt cost model.

    With a clearing model the online and all-selling policies run under
    stochastic sale clearing (each user's draw stream is keyed by
    ``user_id``, so outcomes survive any re-batching); the offline
    optimum stays the paper's instant-sale baseline — the clairvoyant
    benchmark the degradation is measured against. ``extra_policies``
    (canonical spec strings, from ``ExperimentConfig.policies``) run
    after the standard set and before OPT.
    """
    demands = user.schedule.demands.values
    reservations = user.schedule.reservations
    costs: dict[str, float] = {}
    sold: dict[str, int] = {}
    cleared: "dict[str, int] | None" = {} if clearing is not None else None

    keep = run_fast(demands, reservations, model, kind=FastPolicyKind.KEEP_RESERVED)
    costs[_policies.POLICY_KEEP] = keep.total_cost
    sold[_policies.POLICY_KEEP] = 0
    if cleared is not None:
        cleared[_policies.POLICY_KEEP] = 0

    for name, phi in _policies.ONLINE_POLICIES.items():
        result = run_fast(
            demands, reservations, model, phi=phi,
            clearing=clearing, clearing_key=user.user_id,
        )
        costs[name] = result.total_cost
        sold[name] = result.instances_sold
        if cleared is not None:
            cleared[name] = result.instances_cleared

    if include_all_selling:
        for name, phi in _policies.ALL_SELLING_POLICIES.items():
            result = run_fast(
                demands, reservations, model, phi=phi,
                kind=FastPolicyKind.ALL_SELLING,
                clearing=clearing, clearing_key=user.user_id,
            )
            costs[name] = result.total_cost
            sold[name] = result.instances_sold
            if cleared is not None:
                cleared[name] = result.instances_cleared

    for spec_text in extra_policies:
        name, total, sold_count, cleared_count = _simulate_spec_policy(
            spec_text, demands, reservations, model, user.user_id, clearing
        )
        costs[name] = total
        sold[name] = sold_count
        if cleared is not None:
            cleared[name] = cleared_count

    if include_opt:
        result = run_offline_optimal(user.schedule.demands, reservations, model)
        costs[_policies.POLICY_OPT] = result.total_cost
        sold[_policies.POLICY_OPT] = result.instances_sold
        if cleared is not None:
            cleared[_policies.POLICY_OPT] = result.instances_sold

    return UserOutcome(
        user_id=user.user_id,
        group=user.group,
        cv=user.cv,
        imitator=user.imitator_name,
        instances_reserved=user.schedule.total_reserved,
        costs=costs,
        instances_sold=sold,
        instances_cleared=cleared,
    )


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
    return _simulate_user(
        user, cost_model, include_opt, include_all_selling, clearing, config.policies
    )


def _validate_clearing(clearing: object) -> "ClearingModel | None":
    if clearing is not None and not isinstance(clearing, ClearingModel):
        raise ExperimentError(
            f"clearing must be a ClearingModel or None, got "
            f"{type(clearing).__name__}"
        )
    return clearing


# ----------------------------------------------------------------------
# Parallel work units and result caching
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class _SweepTask:
    """One picklable unit of sweep work (one user, every policy)."""

    user: ExperimentUser
    model: CostModel
    include_opt: bool
    include_all_selling: bool
    clearing: "ClearingModel | None" = None
    #: Canonical spec strings (never pickled policy objects).
    extra_policies: "tuple[str, ...]" = ()


def _run_sweep_task(task: _SweepTask) -> UserOutcome:
    """Module-level worker body, picklable for the process pool."""
    return _simulate_user(
        task.user, task.model, task.include_opt, task.include_all_selling,
        task.clearing, task.extra_policies,
    )


@dataclass(frozen=True)
class _PopulationBlockTask:
    """One picklable block of population-engine work (B users × policies)."""

    demands: np.ndarray  # (B, H) int64
    reservations: np.ndarray  # (B, H) int64
    model: CostModel
    include_opt: bool
    include_all_selling: bool
    clearing: "ClearingModel | None" = None
    #: Per-user clearing stream keys (the user ids), block order; keeps
    #: draws independent of how users were packed into blocks.
    clearing_keys: "tuple[str, ...] | None" = None
    #: Canonical spec strings of the extra policies (never pickles).
    extra_policies: "tuple[str, ...]" = ()
    #: Per-user draw keys (the user ids), block order; set whenever
    #: extra policies run so randomized draws survive any re-batching.
    user_ids: "tuple[str, ...] | None" = None


def _run_population_block(
    task: _PopulationBlockTask,
) -> "list[tuple[dict[str, float], dict[str, int], dict[str, int] | None]]":
    """Module-level worker: every policy over one ``(B × H)`` tensor block.

    Returns per-user ``(costs, instances_sold, instances_cleared)`` rows
    in block order, with the policy dicts in the same insertion order as
    :func:`_simulate_user` so the assembled outcomes compare equal to
    the per-user path (``instances_cleared`` is ``None`` without a
    clearing model).
    """
    d, n, model = task.demands, task.reservations, task.model
    clearing, clearing_keys = task.clearing, task.clearing_keys
    block_users = d.shape[0]
    columns: "list[tuple[str, np.ndarray, np.ndarray, np.ndarray | None]]" = []

    # Validation and the policy-independent tensors (active timeline,
    # reservation prefix) are shared by every policy run of the block.
    prepared = prepare_population(d, n, model.period)
    zero_counts = np.zeros(block_users, dtype=np.int64)
    keep = run_population(d, n, model, kind=FastPolicyKind.KEEP_RESERVED,
                          precomputed=prepared)
    columns.append(
        (
            _policies.POLICY_KEEP,
            keep.total_costs(),
            zero_counts,
            zero_counts if clearing is not None else None,
        )
    )
    for name, phi in _policies.ONLINE_POLICIES.items():
        result = run_population(
            d, n, model, phi=phi, precomputed=prepared,
            clearing=clearing, clearing_keys=clearing_keys,
        )
        columns.append(
            (name, result.total_costs(), result.instances_sold,
             result.instances_cleared)
        )
    if task.include_all_selling:
        for name, phi in _policies.ALL_SELLING_POLICIES.items():
            result = run_population(
                d, n, model, phi=phi, kind=FastPolicyKind.ALL_SELLING,
                precomputed=prepared,
                clearing=clearing, clearing_keys=clearing_keys,
            )
            columns.append(
                (name, result.total_costs(), result.instances_sold,
                 result.instances_cleared)
            )
    for spec_text in task.extra_policies:
        policy = PolicySpec(spec_text).build()
        if isinstance(policy, _policies.KeepReservedPolicy):
            result = run_population(
                d, n, model, kind=FastPolicyKind.KEEP_RESERVED,
                precomputed=prepared,
            )
            columns.append(
                (
                    policy.name,
                    result.total_costs(),
                    zero_counts,
                    zero_counts if clearing is not None else None,
                )
            )
            continue
        if isinstance(policy, _policies.RandomizedSellingPolicy):
            result = run_population_randomized(
                d, n, model, policy,
                user_keys=list(task.user_ids or ()) or None,
                clearing=clearing,
                clearing_keys=(
                    list(clearing_keys) if clearing_keys is not None else None
                ),
            )
        elif isinstance(policy, _policies.CancellationAwareSellingPolicy):
            result = run_population(
                d, n, model, phi=policy.phi,
                threshold_scale=policy.threshold_scale, precomputed=prepared,
                clearing=clearing, clearing_keys=clearing_keys,
                cancellation=policy.cancellation,
            )
        elif isinstance(policy, _policies.AllSellingPolicy):
            result = run_population(
                d, n, model, phi=policy.phi, kind=FastPolicyKind.ALL_SELLING,
                precomputed=prepared,
                clearing=clearing, clearing_keys=clearing_keys,
            )
        else:
            result = run_population(
                d, n, model, phi=policy.phi,
                threshold_scale=policy.threshold_scale, precomputed=prepared,
                clearing=clearing, clearing_keys=clearing_keys,
            )
        columns.append(
            (policy.name, result.total_costs(), result.instances_sold,
             result.instances_cleared)
        )
    opt_results = None
    if task.include_opt:
        # OPT has no tensor formulation (its sale schedule is a per-user
        # search); fall back to the per-user oracle inside the block.
        # It also stays the instant-sale clairvoyant baseline under
        # clearing (see _simulate_user).
        opt_results = [
            run_offline_optimal(d[user], n[user], model) for user in range(block_users)
        ]

    rows: "list[tuple[dict[str, float], dict[str, int], dict[str, int] | None]]" = []
    for user in range(block_users):
        costs = {name: float(totals[user]) for name, totals, _, _ in columns}
        sold = {name: int(counts[user]) for name, _, counts, _ in columns}
        cleared: "dict[str, int] | None" = None
        if clearing is not None:
            cleared = {
                name: int(cleared_counts[user])
                for name, _, _, cleared_counts in columns
                if cleared_counts is not None
            }
        if opt_results is not None:
            costs[_policies.POLICY_OPT] = opt_results[user].total_cost
            sold[_policies.POLICY_OPT] = opt_results[user].instances_sold
            if cleared is not None:
                cleared[_policies.POLICY_OPT] = opt_results[user].instances_sold
        rows.append((costs, sold, cleared))
    return rows


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


def _run_population_sweep(
    population: "list[ExperimentUser]",
    pending: "list[int]",
    model: CostModel,
    include_opt: bool,
    include_all_selling: bool,
    workers: int,
    on_progress: "Callable[[int], None] | None",
    clearing: "ClearingModel | None" = None,
    extra_policies: "tuple[str, ...]" = (),
) -> "list[UserOutcome]":
    """Simulate the pending users through the population-tensor engine.

    Users are packed into contiguous user-blocks, each block travels to a
    worker as one ``(B × H)`` tensor task, and the per-user outcomes come
    back bit-identical to :func:`_simulate_user` (the popsim guarantee).
    """
    horizons = {len(population[index].schedule.demands) for index in pending}
    if len(horizons) > 1:
        raise ExperimentError(
            "engine='population' needs one common horizon across users, got "
            f"{sorted(horizons)}; use engine='user' for mixed-horizon "
            "populations"
        )
    block_size = _population_block_size(len(pending), workers)
    blocks = [
        pending[start : start + block_size]
        for start in range(0, len(pending), block_size)
    ]
    tasks = [
        _PopulationBlockTask(
            demands=np.stack(
                [population[index].schedule.demands.values for index in block]
            ),
            reservations=np.stack(
                [population[index].schedule.reservations for index in block]
            ),
            model=model,
            include_opt=include_opt,
            include_all_selling=include_all_selling,
            clearing=clearing,
            clearing_keys=(
                tuple(population[index].user_id for index in block)
                if clearing is not None
                else None
            ),
            extra_policies=extra_policies,
            user_ids=(
                tuple(population[index].user_id for index in block)
                if extra_policies
                else None
            ),
        )
        for block in blocks
    ]
    if on_progress is None:
        block_progress = None
    else:
        reporter = on_progress
        npending = len(pending)

        def block_progress(done_blocks: int) -> None:
            # Blocks are equal-sized except the last; clamp to pending.
            reporter(min(npending, done_blocks * block_size))

    block_rows = parallel_map(
        _run_population_block,
        tasks,
        workers=workers,
        chunk_size=1,
        progress=block_progress,
    )
    rows = [row for block in block_rows for row in block]
    computed: "list[UserOutcome]" = []
    for (costs, sold, cleared), index in zip(rows, pending):
        user = population[index]
        computed.append(
            UserOutcome(
                user_id=user.user_id,
                group=user.group,
                cv=user.cv,
                imitator=user.imitator_name,
                instances_reserved=user.schedule.total_reserved,
                costs=costs,
                instances_sold=sold,
                instances_cleared=cleared,
            )
        )
    return computed


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


def _outcome_from_payload(payload: dict) -> "UserOutcome | None":
    """Rebuild an outcome from a cached payload; ``None`` if the payload
    is from an incompatible cache format (treated as a miss)."""
    if payload.get("format") != _CACHE_FORMAT:
        return None
    try:
        cleared_payload = payload.get("instances_cleared")
        return UserOutcome(
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
    except (KeyError, TypeError, ValueError):
        return None


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
                restored = _outcome_from_payload(payload) if payload is not None else None
                if payload is not None and restored is None:
                    # Readable but incompatible entry: recount as a miss.
                    store.hits -= 1
                    store.misses += 1
                if restored is not None:
                    outcomes[index] = restored
                else:
                    pending.append(index)
    else:
        pending = list(range(total))

    done_offset = total - len(pending)
    if progress is not None and done_offset:
        progress(done_offset, total)

    with timer.stage("simulate"):
        if progress is None:
            on_progress = None
        else:
            reporter = progress

            def on_progress(done: int) -> None:
                reporter(done_offset + done, total)

        if engine == "population":
            computed = _run_population_sweep(
                population,
                pending,
                model,
                include_opt,
                include_all_selling,
                workers,
                on_progress,
                clearing,
                config.policies,
            )
        else:
            tasks = [
                _SweepTask(
                    population[index], model, include_opt, include_all_selling,
                    clearing, config.policies,
                )
                for index in pending
            ]
            computed = parallel_map(
                _run_sweep_task, tasks, workers=workers, progress=on_progress
            )

    if store is not None and pending:
        with timer.stage("cache-store"):
            for position, index in enumerate(pending):
                key = keys[index]
                if key is not None:
                    store.put(key, _outcome_payload(computed[position]))
    for position, index in enumerate(pending):
        outcomes[index] = computed[position]
    if any(outcome is None for outcome in outcomes):
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
    return SweepResult(
        config=config,
        outcomes=[outcome for outcome in outcomes if outcome is not None],
        timing=timing,
    )
