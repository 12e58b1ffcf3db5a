"""Every entry point that takes a ``threshold_scale`` refuses NaN and inf.

A bare ``scale < 0`` guard lets NaN through, and then every
``working < scale·β`` test is False: selling is silently switched off.
The engines refuse non-finite scales; so must the policy constructor
(directly and through a spec), both serve trackers, and a checkpoint
restore (JSON carries ``NaN`` and ``Infinity``), each with its own
module's error type.
"""

import json
import math

import pytest

from repro.core.account import CostModel
from repro.core.policies import OnlineSellingPolicy
from repro.core.policyspec import PolicySpec
from repro.errors import PolicyError
from repro.pricing.plan import PricingPlan
from repro.serve.checkpoint import checkpoint_from_payload, fleet_to_payload
from repro.serve.errors import CheckpointError, ServeStateError
from repro.serve.state import FleetState, StreamTracker

MODEL = CostModel(
    plan=PricingPlan(
        on_demand_hourly=1.0, upfront=8.0, alpha=0.25, period_hours=8, name="toy"
    ),
    selling_discount=0.5,
)


def build_spec(scale: float) -> None:
    PolicySpec(f"online:phi=0.5,scale={scale!r}").build()


def build_policy(scale: float) -> None:
    OnlineSellingPolicy(0.5, threshold_scale=scale)


def build_tracker(scale: float) -> None:
    StreamTracker(MODEL, phi=0.5, threshold_scale=scale)


def build_fleet(scale: float) -> None:
    FleetState(MODEL, threshold_scale=scale)


def restore_checkpoint_payload(scale: float) -> None:
    payload = fleet_to_payload(FleetState(MODEL))
    payload["threshold_scale"] = scale
    checkpoint_from_payload(json.loads(json.dumps(payload)))


@pytest.mark.parametrize("scale", [math.nan, math.inf], ids=["nan", "inf"])
@pytest.mark.parametrize(
    "entry, error",
    [
        (build_spec, PolicyError),
        (build_policy, PolicyError),
        (build_tracker, ServeStateError),
        (build_fleet, ServeStateError),
        (restore_checkpoint_payload, CheckpointError),
    ],
    ids=["spec", "policy", "stream-tracker", "fleet-state", "checkpoint"],
)
def test_non_finite_threshold_scale_is_refused(entry, error, scale):
    with pytest.raises(error, match="threshold_scale must be finite"):
        entry(scale)
