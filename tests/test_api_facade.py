"""Import stability of the :mod:`repro.api` facade, plus the end of the
deprecation shims the surface consolidation left behind: moved policy
constants no longer import from their old home, and positional config
tails are a ``TypeError``."""

import inspect
import warnings

import pytest

import repro.api as api


class TestFacadeSurface:
    def test_all_names_resolve(self):
        for name in api.__all__:
            assert hasattr(api, name), name

    def test_no_private_names_exported(self):
        leaked = [
            name
            for name in api.__all__
            if name.startswith("_") and not name.startswith("__")
        ]
        assert not leaked, leaked

    def test_all_is_sorted_and_unique(self):
        assert len(api.__all__) == len(set(api.__all__))

    def test_facade_imports_cleanly(self):
        """Importing the facade itself must not trip any shim."""
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            import importlib

            importlib.reload(api)

    def test_key_entry_points_are_callables(self):
        for name in ("run_user", "run_sweep", "run_fast", "run_stream", "build_app"):
            assert callable(getattr(api, name)), name

    def test_policy_constants_live_in_core(self):
        from repro.core import policies

        assert api.POLICY_KEEP == policies.POLICY_KEEP
        assert api.ONLINE_POLICIES == policies.ONLINE_POLICIES
        assert api.ALL_SELLING_POLICIES == policies.ALL_SELLING_POLICIES

    def test_exports_are_documented(self):
        undocumented = [
            name
            for name in api.__all__
            if (inspect.isclass(getattr(api, name)) or inspect.isfunction(getattr(api, name)))
            and not (getattr(api, name).__doc__ or "").strip()
        ]
        assert not undocumented, undocumented


class TestRunnerConstantShim:
    def test_old_import_is_an_attribute_error(self):
        from repro.experiments import runner

        for name in ("POLICY_KEEP", "ONLINE_POLICIES", "ALL_SELLING_POLICIES"):
            with pytest.raises(AttributeError):
                getattr(runner, name)

    def test_unknown_attribute_still_raises(self):
        from repro.experiments import runner

        with pytest.raises(AttributeError):
            runner.NO_SUCH_POLICY  # noqa: B018


class TestPositionalTailDeprecation:
    def test_build_app_positional_phis_is_a_type_error(self):
        from repro.core.account import CostModel
        from repro.pricing.plan import PricingPlan

        model = CostModel(
            plan=PricingPlan(
                on_demand_hourly=1.0, upfront=4.0, alpha=0.25, period_hours=8
            ),
            selling_discount=0.8,
        )
        with pytest.raises(TypeError):
            api.build_app(model, (0.5,))
        assert api.build_app(model, phis=(0.5,)).fleet.phis == (0.5,)

    @pytest.fixture(scope="class")
    def tiny(self):
        config = api.ExperimentConfig(
            users_per_group=1, period_hours=48, seed=7, label="facade-tiny"
        )
        return config, api.build_experiment_population(config)

    def test_run_user_and_run_sweep_positional_tails_are_type_errors(self, tiny):
        config, population = tiny
        with pytest.raises(TypeError):
            api.run_user(population[0], config, True)
        with pytest.raises(TypeError):
            api.run_sweep(config, population)
        outcome = api.run_user(population[0], config, include_opt=True)
        assert api.POLICY_OPT in outcome.costs

    def test_too_many_positionals_is_a_type_error(self, tiny):
        config, population = tiny
        with pytest.raises(TypeError):
            api.run_user(population[0], config, True, False, None, "extra")
