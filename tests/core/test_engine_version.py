"""``ENGINE_VERSION`` is tied to what ``run_fast`` computes.

The sweep cache keys every stored outcome on
:data:`repro.core.fastsim.ENGINE_VERSION`, so a change to any
:class:`~repro.core.fastsim.FastResult` without a version bump would
serve stale results. This test pins a content digest of ``run_fast``'s
full outputs over a fixed seeded corpus — every policy kind × three
decision spots × both hourly-fee modes × cancellation off and on — to
the current version. Clearing is left out: its incomes go through
``np.exp``, whose last bit may differ between platforms.
"""

import numpy as np

from repro.core.account import CostModel, HourlyFeeMode
from repro.core.cancellation import CancellationModel
from repro.core.fastsim import ENGINE_VERSION, FastPolicyKind, run_fast
from repro.parallel.hashing import stable_hash
from repro.pricing.plan import PricingPlan

#: ``stable_hash`` of the corpus outputs under ``ENGINE_VERSION`` 2.
PINNED_VERSION = 2
PINNED_DIGEST = "5397493c4942232e8f292f4022ee4b738666fd1e47c63874c69dfb4882804773"

PLAN = PricingPlan(
    on_demand_hourly=1.0, upfront=9.0, alpha=0.25, period_hours=24, name="pinned"
)


def corpus_outputs() -> list:
    """Every ``FastResult`` of the corpus, in a fixed order."""
    outputs = []
    for seed in range(4):
        rng = np.random.default_rng(1000 + seed)
        horizon = 96
        reservations = np.where(
            rng.random(horizon) < 0.2, rng.integers(1, 3 + 6 * seed, size=horizon), 0
        )
        demands = rng.integers(0, 4 + 6 * seed, size=horizon)
        for fee_mode in HourlyFeeMode:
            model = CostModel(
                plan=PLAN,
                selling_discount=0.8,
                marketplace_fee=0.12,
                fee_mode=fee_mode,
            )
            for kind in FastPolicyKind:
                for phi in (0.25, 0.5, 0.75):
                    for cancellation in (None, CancellationModel()):
                        outputs.append(
                            run_fast(
                                demands,
                                reservations,
                                model,
                                phi=phi,
                                kind=kind,
                                cancellation=cancellation,
                            )
                        )
    return outputs


def test_engine_version_matches_the_pinned_outputs():
    digest = stable_hash(corpus_outputs())
    assert (ENGINE_VERSION, digest) == (PINNED_VERSION, PINNED_DIGEST), (
        "run_fast's outputs or ENGINE_VERSION changed. If the outputs "
        "changed, bump ENGINE_VERSION in repro/core/fastsim.py (the sweep "
        "cache keys on it) and re-pin PINNED_VERSION and PINNED_DIGEST "
        f"here to the new version and to {digest!r}."
    )
