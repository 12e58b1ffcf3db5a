"""The imitated populations are pinned by a content digest.

Every sweep-cache entry and committed report is built from a population
that ``build_experiment_population`` imitates, and the sweep cache keys
on the reservation values. This test pins the
:func:`~repro.parallel.hashing.stable_hash` of every user's
``(user_id, imitator_name, reservations)`` at two presets, so a change
to an imitator — or a numpy release that changes PCG64's stream or
``Generator.integers`` — cannot move the populations unnoticed.
"""

import pytest

from repro.experiments.config import ExperimentConfig
from repro.experiments.population import build_experiment_population
from repro.parallel.hashing import stable_hash

PINNED_DIGESTS = {
    "quick-seed-3": "e1d90926cbeba291b2048c65996a73563b7a1d85260037405dc002ba3788adc4",
    "paper-2-per-group": "115f2573a3758d033db50388a6c7c041a411c0e0acdd97416b0cfd912a8af4c2",
}

CONFIGS = {
    "quick-seed-3": ExperimentConfig.quick(seed=3),
    "paper-2-per-group": ExperimentConfig.paper_scale().scaled(users_per_group=2),
}


@pytest.mark.parametrize("preset", sorted(CONFIGS))
def test_population_matches_the_pinned_digest(preset):
    users = build_experiment_population(CONFIGS[preset])
    digest = stable_hash(
        [(user.user_id, user.imitator_name, user.schedule.reservations) for user in users]
    )
    assert digest == PINNED_DIGESTS[preset], (
        f"the imitated {preset} population changed (digest {digest!r}). "
        "The schedules moved, so every sweep-cache entry and committed "
        "report built from a population moves with them. Re-pin "
        "PINNED_DIGESTS only for a deliberate change, and say so."
    )
