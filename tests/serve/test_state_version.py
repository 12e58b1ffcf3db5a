"""``STATE_VERSION`` is tied to what ``FleetState`` computes.

Every checkpoint carries :data:`repro.serve.state.STATE_VERSION`, and a
restore refuses a payload written under another version. A change to a
fleet decision or cost without a version bump would replay stale
checkpoints silently. This test pins a content digest of the fleet's
outputs over a fixed seeded corpus to the current version: every
returned :class:`~repro.serve.state.FleetDecision`, and ``rows()``,
``verdict_counts()``, ``cost_counts()``, ``rebuy_counts()`` and
``snapshot_instances()`` at fixed hours.

The corpus covers both hourly-fee modes; clearing off, ``normal`` and
``thin``; no policy specs and a randomized plus a cancellation spec;
ids sent twice in one batch; and a mid-run snapshot restored into a
fresh fleet that runs on beside the original. One plan has an integer
β at every paper φ (6, 4 and 2 hours), so a fleet that sold at
``working <= β`` instead of ``working < β`` would change the digest.
Clearing enters only through the integer delay draws, and every hashed
output is an integer, a string or a menu φ.
"""

import numpy as np

from repro.core.account import CostModel, HourlyFeeMode
from repro.core.breakeven import PAPER_DECISION_FRACTIONS, break_even_working_hours
from repro.core.clearing import ClearingModel
from repro.parallel.hashing import stable_hash
from repro.pricing.plan import PricingPlan
from repro.serve.state import STATE_VERSION, FleetState

#: ``stable_hash`` of the corpus outputs under ``STATE_VERSION`` 1.
PINNED_VERSION = 1
PINNED_DIGEST = "520e34571eacdbd1c412b0dd569ec60de65501b18bb929671245e920ec49ee58"

#: β = φ·a·R / (p·(1 − α)) = 6, 4 and 2 hours at φ = 3/4, 1/2 and 1/4.
INTEGER_BETA_PLAN = PricingPlan(
    on_demand_hourly=1.0, upfront=8.0, alpha=0.5, period_hours=24, name="integer-beta"
)
FRACTIONAL_BETA_PLAN = PricingPlan(
    on_demand_hourly=1.0, upfront=6.0, alpha=0.25, period_hours=16, name="fractional-beta"
)
PLANS = ((INTEGER_BETA_PLAN, 0.5), (FRACTIONAL_BETA_PLAN, 0.8))

POLICY_SETS = ((), ("randomized:seed=7", "cancellation:phi=0.5,penalty=0.1,trigger=2"))
CLEARINGS = (None, "normal", "thin")
INSTANCES = 10


def batches(seed: int, hours: int):
    """One batch per hour: instance ``j`` joins at hour ``3j``; every
    joined id sends one event, in a shuffled order, and on every fifth
    hour the first two joined ids send a second one."""
    rng = np.random.default_rng(seed)
    ids = [f"i-{j:02d}" for j in range(INSTANCES)]
    for hour in range(hours):
        joined = ids[: min(INSTANCES, hour // 3 + 1)]
        batch = [joined[j] for j in rng.permutation(len(joined))]
        if hour % 5 == 4:
            batch += joined[:2]
        busy = (rng.random(len(batch)) < rng.uniform(0.2, 0.7)).tolist()
        yield batch, busy


def reads(fleet: FleetState) -> tuple:
    return (
        fleet.rows(),
        fleet.verdict_counts(),
        fleet.cost_counts(),
        fleet.rebuy_counts(),
        fleet.snapshot_instances(),
    )


def corpus_outputs() -> list:
    """Every output of the corpus fleets, in a fixed order."""
    outputs = []
    case = 0
    for plan, discount in PLANS:
        for fee_mode in HourlyFeeMode:
            model = CostModel(
                plan=plan,
                selling_discount=discount,
                marketplace_fee=0.12,
                fee_mode=fee_mode,
            )
            for regime in CLEARINGS:
                clearing = (
                    None if regime is None else ClearingModel.for_regime(regime, seed=case)
                )
                for policies in POLICY_SETS:
                    case += 1

                    def fresh() -> FleetState:
                        return FleetState(
                            model, capacity=4, clearing=clearing, policies=policies
                        )

                    fleets = [fresh()]
                    hours = 3 * plan.period_hours
                    for hour, (ids, busy) in enumerate(batches(case, hours)):
                        for fleet in fleets:
                            outputs.append(fleet.apply_events(ids, busy))
                        if hour % 8 == 7:
                            outputs.extend(reads(fleet) for fleet in fleets)
                        if hour == hours // 2:
                            restored = fresh()
                            restored.restore_instances(fleets[0].snapshot_instances())
                            fleets.append(restored)
                    outputs.extend(reads(fleet) for fleet in fleets)
    return outputs


def test_state_version_matches_the_pinned_outputs():
    betas = [
        break_even_working_hours(INTEGER_BETA_PLAN, 0.5, phi)
        for phi in PAPER_DECISION_FRACTIONS
    ]
    assert betas == [6.0, 4.0, 2.0]
    digest = stable_hash(corpus_outputs())
    assert (STATE_VERSION, digest) == (PINNED_VERSION, PINNED_DIGEST), (
        "FleetState's outputs or STATE_VERSION changed. If the outputs "
        "changed, bump STATE_VERSION in repro/serve/state.py (checkpoints "
        "carry it) and re-pin PINNED_VERSION and PINNED_DIGEST here to the "
        f"new version and to {digest!r}."
    )
