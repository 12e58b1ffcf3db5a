"""The supported public surface of :mod:`repro`, in one flat module.

Everything importable here is stable: additions are backwards
compatible, and a removal is announced in ``CHANGELOG.md`` a release
before it lands. Code that reaches past this facade into submodules
depends on internals that may move without notice (the policy-name
constants' move from ``repro.experiments.runner`` to
:mod:`repro.core.policies` is the canonical example — importing them
from here would have been seamless).

The surface groups into:

* **Engines** — :func:`run_policy` (reference simulator),
  :func:`run_fast` (vectorised batch engine), :func:`run_population`
  (population-tensor engine over ``(users × hours)`` matrices, with
  :class:`PopulationStore` as its columnar trace store),
  :func:`run_stream` (exact event-by-event engine),
  :func:`run_offline_optimal` (OPT).
* **Experiments** — :func:`run_user` / :func:`run_sweep` over the
  paper's synthetic population, with :class:`ExperimentConfig`,
  :class:`SweepResult`, and :class:`UserOutcome`.
* **Serving** — :func:`build_app` (the advisory HTTP application) and
  :func:`start_cluster` (the sharded deployment of it).
* **Model & names** — :class:`CostModel`, :class:`PricingPlan`,
  :class:`CostBreakdown`, and the canonical policy-name constants.
* **Policy specs** — :func:`make_policy` builds any selling policy from
  the declarative spec grammar of :mod:`repro.core.policyspec`
  (``"randomized:seed=7,spots=0.25|0.5|0.75"``); :class:`PolicySpec`
  is the parsed, canonical, JSON-round-trippable form; :func:`spec_for`
  recovers the spec of a constructed policy; :func:`parse_policies`
  parses the ``;``-separated CLI list form. Specs — not pickles — are
  what cache keys, checkpoints, and serve responses carry.
* **Randomized & cancellation** — :class:`RandomizedSellingPolicy`
  (per-key deterministic spot draws), :class:`SpotDistribution` with
  :func:`optimize_distribution` (the LP-optimised mixture),
  :class:`CancellationAwareSellingPolicy` with
  :class:`CancellationModel` (sell now, re-buy at a penalty when
  demand returns), and :func:`run_population_randomized` (the
  population-tensor engine under a randomized policy).
"""

from __future__ import annotations

from repro._version import __version__
from repro.core.account import CostBreakdown, CostModel, HourlyFeeMode
from repro.core.cancellation import CancellationModel, apply_rebuys
from repro.core.fastsim import FastPolicyKind, FastResult, FastSale, run_fast
from repro.core.offline import run_offline_optimal
from repro.core.popsim import (
    PopulationResult,
    run_population,
    run_population_randomized,
)
from repro.core.policies import (
    ALL_SELLING_POLICIES,
    CANCELLATION_POLICIES,
    ONLINE_POLICIES,
    POLICY_A_3T4,
    POLICY_A_T2,
    POLICY_A_T4,
    POLICY_ALL_3T4,
    POLICY_ALL_T2,
    POLICY_ALL_T4,
    POLICY_CANCEL_3T4,
    POLICY_CANCEL_T2,
    POLICY_CANCEL_T4,
    POLICY_KEEP,
    POLICY_OPT,
    POLICY_RANDOMIZED,
    AllSellingPolicy,
    CancellationAwareSellingPolicy,
    KeepReservedPolicy,
    OnlineSellingPolicy,
    RandomizedSellingPolicy,
)
from repro.core.policyspec import (
    PolicySpec,
    make_policy,
    parse_policies,
    spec_for,
)
from repro.core.randomized import SpotDistribution, optimize_distribution
from repro.core.simulator import run_policy
from repro.errors import ReproError
from repro.experiments.config import ExperimentConfig
from repro.experiments.population import (
    ExperimentUser,
    build_experiment_population,
)
from repro.experiments.runner import (
    SWEEP_ENGINES,
    SweepResult,
    UserOutcome,
    run_sweep,
    run_user,
)
from repro.workload.store import PopulationStore
from repro.pricing.catalog import paper_experiment_plan
from repro.pricing.plan import PricingPlan
from repro.serve.server import AdvisoryApp, build_app
from repro.serve.shard import ShardRouter, start_cluster
from repro.serve.state import StreamTracker, run_stream

__all__ = [
    "__version__",
    # errors
    "ReproError",
    # cost model and pricing
    "CostBreakdown",
    "CostModel",
    "HourlyFeeMode",
    "PricingPlan",
    "paper_experiment_plan",
    # policies and canonical names
    "AllSellingPolicy",
    "CancellationAwareSellingPolicy",
    "KeepReservedPolicy",
    "OnlineSellingPolicy",
    "RandomizedSellingPolicy",
    "run_policy",
    "ALL_SELLING_POLICIES",
    "CANCELLATION_POLICIES",
    "ONLINE_POLICIES",
    "POLICY_A_3T4",
    "POLICY_A_T2",
    "POLICY_A_T4",
    "POLICY_ALL_3T4",
    "POLICY_ALL_T2",
    "POLICY_ALL_T4",
    "POLICY_CANCEL_3T4",
    "POLICY_CANCEL_T2",
    "POLICY_CANCEL_T4",
    "POLICY_KEEP",
    "POLICY_OPT",
    "POLICY_RANDOMIZED",
    # policy specs (the declarative construction grammar)
    "PolicySpec",
    "make_policy",
    "parse_policies",
    "spec_for",
    # randomized mixtures and cancellation
    "CancellationModel",
    "SpotDistribution",
    "apply_rebuys",
    "optimize_distribution",
    "run_population_randomized",
    # engines
    "FastPolicyKind",
    "FastResult",
    "FastSale",
    "run_fast",
    "run_offline_optimal",
    "PopulationResult",
    "PopulationStore",
    "run_population",
    "StreamTracker",
    "run_stream",
    # experiments
    "ExperimentConfig",
    "ExperimentUser",
    "SWEEP_ENGINES",
    "SweepResult",
    "UserOutcome",
    "build_experiment_population",
    "run_sweep",
    "run_user",
    # serving
    "AdvisoryApp",
    "ShardRouter",
    "build_app",
    "start_cluster",
]
