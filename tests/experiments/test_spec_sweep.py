"""Sweeps with extra policy specs (``ExperimentConfig.policies``).

One spec of every kind the configuration accepts runs beside the
standard set. Both engines must return equal outcomes, the columns must
come in the documented order, and each extra column must equal a direct
``run_fast`` call with the arguments its spec means, keyed by user id.
"""

import dataclasses

import pytest

from repro.core.clearing import ClearingModel
from repro.core.fastsim import FastPolicyKind, run_fast
from repro.core.policies import (
    ALL_SELLING_POLICIES,
    ONLINE_POLICIES,
    POLICY_KEEP,
    POLICY_OPT,
    AllSellingPolicy,
    CancellationAwareSellingPolicy,
    RandomizedSellingPolicy,
)
from repro.core.policyspec import PolicySpec
from repro.errors import ExperimentError
from repro.experiments.config import ExperimentConfig
from repro.experiments.population import build_experiment_population
from repro.experiments.runner import run_sweep

SPECS = (
    "online:phi=0.5,scale=1.25,name=Online-scaled",
    "all-selling:phi=0.25,name=Sell-all-early",
    "randomized:seed=4,spots=0.25|0.5|0.75,weights=0.2|0.3|0.5",
    "cancellation:phi=0.75,penalty=0.1,trigger=3",
)
CONFIG = ExperimentConfig.quick(seed=31).scaled(users_per_group=2, policies=SPECS)
NORMAL = ClearingModel.for_regime("normal", seed=31)


@pytest.fixture(scope="module")
def population():
    return build_experiment_population(CONFIG)


def spec_arguments(policy, user_id):
    """The ``run_fast`` arguments one spec policy means for one user."""
    if isinstance(policy, RandomizedSellingPolicy):
        return {"phi": policy.draw_spot(user_id)}
    if isinstance(policy, AllSellingPolicy):
        return {"phi": policy.phi, "kind": FastPolicyKind.ALL_SELLING}
    if isinstance(policy, CancellationAwareSellingPolicy):
        return {
            "phi": policy.phi,
            "threshold_scale": policy.threshold_scale,
            "cancellation": policy.cancellation,
        }
    return {"phi": policy.phi, "threshold_scale": policy.threshold_scale}


@pytest.mark.parametrize(
    "clearing, include_all_selling, include_opt",
    [
        pytest.param(None, True, False, id="instant"),
        pytest.param(None, False, False, id="instant-no-all-selling"),
        pytest.param(NORMAL, True, False, id="normal"),
        pytest.param(NORMAL, False, False, id="normal-no-all-selling"),
        pytest.param(NORMAL, True, True, id="normal-opt"),
    ],
)
def test_spec_columns(population, clearing, include_all_selling, include_opt):
    user, tensor = (
        run_sweep(
            CONFIG,
            users=population,
            engine=engine,
            clearing=clearing,
            include_all_selling=include_all_selling,
            include_opt=include_opt,
        )
        for engine in ("user", "population")
    )
    assert [dataclasses.asdict(o) for o in user.outcomes] == [
        dataclasses.asdict(o) for o in tensor.outcomes
    ]

    policies = [PolicySpec(spec).build() for spec in CONFIG.policies]
    expected = [POLICY_KEEP, *ONLINE_POLICIES]
    if include_all_selling:
        expected += list(ALL_SELLING_POLICIES)
    expected += [policy.name for policy in policies]
    if include_opt:
        expected.append(POLICY_OPT)
    assert user.policy_names == expected
    for outcome in user.outcomes:
        assert list(outcome.instances_sold) == expected
        if clearing is None:
            assert outcome.instances_cleared is None
        else:
            assert list(outcome.instances_cleared) == expected

    model = CONFIG.cost_model()
    for member, outcome in zip(population, user.outcomes):
        for policy in policies:
            direct = run_fast(
                member.schedule.demands.values,
                member.schedule.reservations,
                model,
                clearing=clearing,
                clearing_key=member.user_id,
                **spec_arguments(policy, member.user_id),
            )
            assert outcome.costs[policy.name] == direct.total_cost
            assert outcome.instances_sold[policy.name] == direct.instances_sold
            if clearing is not None:
                cleared = outcome.instances_cleared[policy.name]
                assert cleared == direct.instances_cleared


def test_config_refuses_a_keep_spec():
    # Keep-Reserved's display name is fixed, so a keep spec always
    # collides with the standard set and no engine needs a keep branch.
    with pytest.raises(ExperimentError, match="collides"):
        CONFIG.scaled(policies=("keep",))
