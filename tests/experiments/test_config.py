"""Unit tests for repro.experiments.config."""

import pickle

import pytest

from repro.core.account import HourlyFeeMode
from repro.errors import ExperimentError
from repro.experiments.config import (
    PAPER_ALPHA,
    PAPER_SELLING_DISCOUNT,
    ExperimentConfig,
)


class TestPresets:
    def test_paper_scale_matches_section_vi(self):
        config = ExperimentConfig.paper_scale()
        assert config.users_per_group == 100
        assert config.total_users == 300
        assert config.period_hours == 8760
        assert config.alpha == PAPER_ALPHA == 0.25
        assert config.selling_discount == PAPER_SELLING_DISCOUNT == 0.8

    def test_quick_is_small(self):
        config = ExperimentConfig.quick()
        assert config.total_users < ExperimentConfig.default().total_users
        assert config.period_hours < ExperimentConfig.default().period_hours

    def test_horizon_covers_two_periods(self):
        config = ExperimentConfig.quick()
        assert config.horizon == 2 * config.period_hours


class TestPlanDerivation:
    def test_plan_preserves_theta_at_any_scale(self):
        full = ExperimentConfig.paper_scale().plan()
        small = ExperimentConfig.quick().plan()
        assert small.theta == pytest.approx(full.theta)

    def test_plan_is_d2_xlarge(self):
        plan = ExperimentConfig.paper_scale().plan()
        assert plan.name == "d2.xlarge"
        assert plan.upfront == 1506.0

    def test_cost_model_carries_settings(self):
        config = ExperimentConfig.quick().scaled(
            marketplace_fee=0.12, fee_mode=HourlyFeeMode.USAGE
        )
        model = config.cost_model()
        assert model.marketplace_fee == 0.12
        assert model.fee_mode is HourlyFeeMode.USAGE

    def test_scaled_override(self):
        config = ExperimentConfig.quick().scaled(selling_discount=0.4)
        assert config.selling_discount == 0.4
        assert config.users_per_group == ExperimentConfig.quick().users_per_group


class TestValidation:
    def test_period_must_be_multiple_of_four(self):
        with pytest.raises(ExperimentError):
            ExperimentConfig(period_hours=334)

    def test_users_positive(self):
        with pytest.raises(ExperimentError):
            ExperimentConfig(users_per_group=0)

    def test_horizon_at_least_one_period(self):
        with pytest.raises(ExperimentError):
            ExperimentConfig(horizon_periods=0.5)

    def test_discount_range(self):
        with pytest.raises(ExperimentError):
            ExperimentConfig(selling_discount=1.5)


class TestPolicySpecs:
    def test_specs_are_canonicalised_on_construction(self):
        config = ExperimentConfig(
            policies=(" randomized : seed=7 ", "online:phi=0.50,name=extra")
        )
        assert config.policies == (
            "randomized:seed=7",
            "online:phi=0.5,name=extra",
        )

    def test_specs_colliding_with_the_standard_sweep_are_rejected(self):
        with pytest.raises(ExperimentError, match="collides"):
            ExperimentConfig(policies=("online:phi=0.5",))

    def test_bad_spec_is_rejected_at_construction(self):
        with pytest.raises(Exception, match="policy"):
            ExperimentConfig(policies=("no-such-kind:phi=0.5",))

    def test_content_hash_keys_on_policies_only_when_set(self):
        # An empty tuple hashes like the field never existed, so configs
        # predating the policy-spec API keep their cache entries …
        assert (
            ExperimentConfig().content_hash()
            == ExperimentConfig(policies=()).content_hash()
        )
        # … while any actual spec changes the digest.
        with_policies = ExperimentConfig(policies=("randomized:seed=7",))
        assert with_policies.content_hash() != ExperimentConfig().content_hash()
        assert (
            with_policies.content_hash()
            != ExperimentConfig(policies=("randomized:seed=8",)).content_hash()
        )

    @pytest.mark.parametrize("empty", [[], (), None])
    def test_an_empty_policy_list_becomes_the_empty_tuple(self, empty):
        config = ExperimentConfig.quick().scaled(policies=empty)
        plain = ExperimentConfig.quick()
        assert config.policies == ()
        assert config == plain
        assert hash(config) == hash(plain)
        assert config.content_hash() == plain.content_hash()
        assert pickle.loads(pickle.dumps(config)) == plain

    def test_a_spec_list_hashes_like_its_tuple(self):
        listed = ExperimentConfig(policies=["randomized:seed=7"])
        tupled = ExperimentConfig(policies=("randomized:seed=7",))
        assert listed == tupled
        assert hash(listed) == hash(tupled)
        assert pickle.loads(pickle.dumps(listed)) == tupled
