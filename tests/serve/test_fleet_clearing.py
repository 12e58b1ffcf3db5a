"""``FleetState``'s clearing draws are the engine's.

A lone instance reserved at hour 0 is what ``run_fast`` sees as one
reservation at hour 0 on a 0/1 demand trace. Under the same
:class:`~repro.core.clearing.ClearingModel`, with the fleet's
per-(instance, φ) stream key ``f"{id}#{phi!r}"`` as ``run_fast``'s
``clearing_key``, both must draw the same listing fate:

* no sale ↔ one KEEP;
* a delay of 0 ↔ SELL ``"cleared"`` at the decision age;
* a later clear ↔ WAIT ``"opened"``, then SELL ``"cleared"`` at the
  engine's ``cleared_at``;
* an expiry ↔ WAIT ``"opened"``, then KEEP ``"expired"``.
"""

from collections import Counter

import numpy as np

from repro.core.account import CostModel
from repro.core.breakeven import PAPER_DECISION_FRACTIONS
from repro.core.clearing import ClearingModel
from repro.core.fastsim import run_fast
from repro.pricing.plan import PricingPlan
from repro.serve.state import FleetState, Verdict

PERIOD = 24
HORIZON = 2 * PERIOD
INSTANCE = "i-lone"
REGIMES = ("deep", "normal", "thin", "frozen")
SEEDS = range(40)


def model() -> CostModel:
    plan = PricingPlan(
        on_demand_hourly=1.0, upfront=8.0, alpha=0.5, period_hours=PERIOD
    )
    return CostModel(plan=plan, selling_discount=0.5, marketplace_fee=0.12)


def fate_pairs(regime: str, seed: int):
    """``(fate, engine record, fleet decisions)`` for each menu φ."""
    rng = np.random.default_rng(seed)
    busy = rng.random(HORIZON) < rng.uniform(0.05, 0.6)
    clearing = ClearingModel.for_regime(regime, seed=seed)
    fleet = FleetState(model(), clearing=clearing)
    decisions = []
    for flag in busy.tolist():
        decisions.extend(fleet.apply_events([INSTANCE], [flag]))
    reservations = np.zeros(HORIZON, dtype=np.int64)
    reservations[0] = 1
    for threshold in fleet.thresholds:
        phi = threshold.phi
        fast = run_fast(
            busy.astype(np.int64),
            reservations,
            model(),
            phi=phi,
            clearing=clearing,
            clearing_key=f"{INSTANCE}#{phi!r}",
        )
        at_phi = [decision for decision in decisions if decision.phi == phi]
        if not fast.sales:
            yield "keep", None, at_phi
            continue
        (sale,) = fast.sales
        (listing,) = fast.listings
        assert at_phi[0].working_hours == sale.working_hours
        if listing.outcome == "cleared" and listing.delay == 0:
            yield "instant", listing, at_phi
        else:
            yield listing.outcome, listing, at_phi


def test_fleet_listings_match_run_fast():
    seen = Counter()
    for regime in REGIMES:
        for seed in SEEDS:
            for fate, listing, at_phi in fate_pairs(regime, seed):
                seen[fate] += 1
                steps = [(d.verdict, d.listing, d.age, d.waited_hours) for d in at_phi]
                age = at_phi[0].age
                if fate == "keep":
                    assert steps == [(Verdict.KEEP, None, age, 0)]
                    continue
                assert age == listing.listed_at
                if fate == "instant":
                    assert steps == [(Verdict.SELL, "cleared", age, 0)]
                elif fate == "cleared":
                    assert steps == [
                        (Verdict.WAIT_FOR_CLEAR, "opened", age, 0),
                        (Verdict.SELL, "cleared", listing.cleared_at, listing.delay),
                    ]
                else:
                    assert fate == "expired"
                    assert steps == [
                        (Verdict.WAIT_FOR_CLEAR, "opened", age, 0),
                        (Verdict.KEEP, "expired", PERIOD, PERIOD - age),
                    ]
    assert sum(seen.values()) == len(REGIMES) * len(SEEDS) * len(PAPER_DECISION_FRACTIONS)
    assert set(seen) == {"keep", "instant", "cleared", "expired"}
