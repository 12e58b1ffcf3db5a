"""Parallel-vs-serial equivalence, cache behaviour, and CSV round-trip
for the sweep path (ISSUE 2's acceptance tests)."""

import csv
import dataclasses

import pytest

from repro.core.clearing import ClearingModel
from repro.core.policies import POLICY_A_T2
from repro.errors import ExperimentError
from repro.experiments.config import ExperimentConfig
from repro.experiments.population import build_experiment_population
from repro.experiments.runner import (
    SweepResult,
    UserOutcome,
    run_sweep,
    run_user,
    user_cache_key,
)
from repro.parallel.cache import ResultCache

CONFIG = ExperimentConfig(users_per_group=4, period_hours=96, seed=11, label="par")


@pytest.fixture(scope="module")
def population():
    return build_experiment_population(CONFIG)


@pytest.fixture(scope="module")
def serial_sweep(population):
    return run_sweep(CONFIG, users=population)


def outcomes_equal(a, b):
    """Exact (bitwise) equality of two outcome lists."""
    if len(a) != len(b):
        return False
    return all(dataclasses.asdict(x) == dataclasses.asdict(y) for x, y in zip(a, b))


class TestParallelEquivalence:
    def test_two_workers_match_serial_exactly(self, population, serial_sweep):
        parallel = run_sweep(CONFIG, users=population, workers=2)
        assert outcomes_equal(serial_sweep.outcomes, parallel.outcomes)

    def test_many_workers_and_tiny_chunks(self, population, serial_sweep):
        parallel = run_sweep(CONFIG, users=population, workers=5)
        assert outcomes_equal(serial_sweep.outcomes, parallel.outcomes)

    def test_csv_export_is_byte_identical(self, population, serial_sweep, tmp_path):
        parallel = run_sweep(CONFIG, users=population, workers=3)
        serial_path = tmp_path / "serial.csv"
        parallel_path = tmp_path / "parallel.csv"
        serial_sweep.to_csv(serial_path)
        parallel.to_csv(parallel_path)
        assert serial_path.read_bytes() == parallel_path.read_bytes()

    def test_timing_attached(self, population):
        sweep = run_sweep(CONFIG, users=population, workers=2)
        assert sweep.timing is not None
        assert sweep.timing.total_users == len(population)
        assert sweep.timing.simulated_users == len(population)
        assert sweep.timing.workers == 2
        assert "simulate" in sweep.timing.stage_seconds

    def test_parallel_progress_reaches_total(self, population):
        calls = []
        run_sweep(
            CONFIG,
            users=population,
            workers=2,
            progress=lambda done, total: calls.append((done, total)),
        )
        assert calls[-1] == (len(population), len(population))
        assert [done for done, _ in calls] == sorted(done for done, _ in calls)


class TestSweepCache:
    def test_second_run_hits_with_identical_results(self, population, tmp_path):
        cache = tmp_path / "cache"
        first = run_sweep(CONFIG, users=population, cache=cache)
        assert first.timing.cache_hits == 0
        assert first.timing.cache_misses == len(population)
        second = run_sweep(CONFIG, users=population, cache=cache)
        assert second.timing.cache_hits == len(population)
        assert second.timing.cache_misses == 0
        assert outcomes_equal(first.outcomes, second.outcomes)

    def test_cached_csv_is_byte_identical(self, population, serial_sweep, tmp_path):
        cache = tmp_path / "cache"
        run_sweep(CONFIG, users=population, cache=cache)
        warm = run_sweep(CONFIG, users=population, cache=cache)
        fresh_path = tmp_path / "fresh.csv"
        warm_path = tmp_path / "warm.csv"
        serial_sweep.to_csv(fresh_path)
        warm.to_csv(warm_path)
        assert fresh_path.read_bytes() == warm_path.read_bytes()

    def test_config_change_invalidates(self, population, tmp_path):
        cache = tmp_path / "cache"
        run_sweep(CONFIG, users=population, cache=cache)
        changed = CONFIG.scaled(selling_discount=0.7)
        # Same traces (passed explicitly), different pricing: all misses.
        sweep = run_sweep(changed, users=population, cache=cache)
        assert sweep.timing.cache_hits == 0
        assert sweep.timing.cache_misses == len(population)

    def test_policy_set_change_invalidates(self, population, tmp_path):
        cache = tmp_path / "cache"
        run_sweep(CONFIG, users=population, cache=cache)
        sweep = run_sweep(CONFIG, users=population, cache=cache, include_opt=True)
        assert sweep.timing.cache_hits == 0

    def test_parallel_run_consumes_serial_cache(self, population, tmp_path):
        cache = tmp_path / "cache"
        first = run_sweep(CONFIG, users=population, cache=cache)
        warm = run_sweep(CONFIG, users=population, cache=cache, workers=2)
        assert warm.timing.cache_hits == len(population)
        assert outcomes_equal(first.outcomes, warm.outcomes)

    def test_cache_keys_differ_per_user(self, population):
        keys = {user_cache_key(CONFIG, user, False, True) for user in population}
        assert len(keys) == len(population)

    def test_accepts_result_cache_instance(self, population, tmp_path):
        store = ResultCache(root=tmp_path / "cache")
        run_sweep(CONFIG, users=population, cache=store)
        assert store.entry_count() == len(population)

    @pytest.mark.parametrize(
        "edit",
        [
            pytest.param(lambda p: p.update(costs=list(p["costs"].values())), id="costs-list"),
            pytest.param(
                lambda p: p.update(instances_sold=list(p["instances_sold"].values())),
                id="sold-list",
            ),
            pytest.param(
                lambda p: p.update(instances_cleared=list(p["instances_cleared"].values())),
                id="cleared-list",
            ),
            pytest.param(lambda p: p["costs"].pop(POLICY_A_T2), id="costs-drop"),
            pytest.param(lambda p: p["instances_sold"].pop(POLICY_A_T2), id="sold-drop"),
            pytest.param(lambda p: p.update(instances_cleared=None), id="cleared-null"),
        ],
    )
    def test_malformed_entry_is_recomputed(self, population, tmp_path, edit):
        # Valid JSON of the right format, but not this sweep's policy set.
        clearing = ClearingModel.for_regime("normal", seed=11)
        cache = tmp_path / "cache"
        fresh = run_sweep(CONFIG, users=population, cache=cache, clearing=clearing)
        key = user_cache_key(CONFIG, population[0], False, True, clearing)
        store = ResultCache(root=cache)
        original = store.get(key)
        payload = store.get(key)
        edit(payload)
        store.put(key, payload)
        warm = run_sweep(CONFIG, users=population, cache=cache, clearing=clearing)
        assert warm.timing.cache_misses == 1
        assert warm.timing.cache_hits == len(population) - 1
        assert outcomes_equal(fresh.outcomes, warm.outcomes)
        assert store.get(key) == original


class TestCsvRoundTrip:
    def test_rows_parse_back_to_outcomes(self, serial_sweep, tmp_path):
        path = tmp_path / "sweep.csv"
        serial_sweep.to_csv(path)
        with path.open(newline="", encoding="utf-8") as handle:
            rows = list(csv.DictReader(handle))
        assert len(rows) == len(serial_sweep.outcomes)
        normalized = serial_sweep.normalized()
        for index, (row, outcome) in enumerate(zip(rows, serial_sweep.outcomes)):
            assert row["user_id"] == outcome.user_id
            assert row["group"] == outcome.group.value
            assert row["imitator"] == outcome.imitator
            assert int(row["reserved"]) == outcome.instances_reserved
            for name in serial_sweep.policy_names:
                assert float(row[f"cost:{name}"]) == pytest.approx(
                    outcome.costs[name], abs=1e-3
                )
                assert float(row[f"normalized:{name}"]) == pytest.approx(
                    normalized[name][index], abs=1e-5
                )


class TestSatelliteFixes:
    def test_run_user_accepts_prebuilt_model(self, population):
        model = CONFIG.cost_model()
        with_model = run_user(population[0], CONFIG, model=model)
        without = run_user(population[0], CONFIG)
        assert dataclasses.asdict(with_model) == dataclasses.asdict(without)

    def test_mismatched_policy_sets_rejected(self, population, serial_sweep):
        outcome = serial_sweep.outcomes[0]
        truncated = UserOutcome(
            user_id="odd-one",
            group=outcome.group,
            cv=outcome.cv,
            imitator=outcome.imitator,
            instances_reserved=outcome.instances_reserved,
            costs={"Keep-Reserved": 1.0},
            instances_sold={"Keep-Reserved": 0},
        )
        with pytest.raises(ExperimentError, match="odd-one"):
            SweepResult(config=CONFIG, outcomes=[outcome, truncated])
