"""Every engine entry point refuses a ``kind`` that is not a FastPolicyKind.

The engines compared ``kind`` with the ``ONLINE`` and ``KEEP_RESERVED``
members only, so any other value — a member's string value, ``None``,
an int — ran as All-Selling and sold every instance. The policy check
the engine and the stream share refuses it, each with its own module's
error type.
"""

import numpy as np
import pytest

from repro.core.account import CostModel
from repro.core.fastsim import run_fast
from repro.core.popsim import run_population
from repro.errors import SimulationError
from repro.pricing.plan import PricingPlan
from repro.serve.errors import ServeStateError
from repro.serve.state import StreamTracker, run_stream

MODEL = CostModel(
    plan=PricingPlan(
        on_demand_hourly=1.0, upfront=8.0, alpha=0.25, period_hours=8, name="toy"
    ),
    selling_discount=0.5,
)
#: Always busy, one reservation every period: Algorithm 1/2 keeps every
#: instance and All-Selling sells all four.
DEMANDS = np.ones(32, dtype=np.int64)
RESERVATIONS = np.zeros(32, dtype=np.int64)
RESERVATIONS[::8] = 1


def fast(kind: object) -> None:
    run_fast(DEMANDS, RESERVATIONS, MODEL, phi=0.5, kind=kind)


def population(kind: object) -> None:
    run_population(
        np.stack([DEMANDS, DEMANDS]),
        np.stack([RESERVATIONS, RESERVATIONS]),
        MODEL,
        phi=0.5,
        kind=kind,
    )


def tracker(kind: object) -> None:
    StreamTracker(MODEL, phi=0.5, kind=kind).observe_trace(DEMANDS, RESERVATIONS)


def stream(kind: object) -> None:
    run_stream(DEMANDS, RESERVATIONS, MODEL, phi=0.5, kind=kind)


@pytest.mark.parametrize("kind", ["online", "keep-reserved", None, 1], ids=repr)
@pytest.mark.parametrize(
    "entry, error",
    [
        (fast, SimulationError),
        (population, SimulationError),
        (tracker, ServeStateError),
        (stream, ServeStateError),
    ],
    ids=["run-fast", "run-population", "stream-tracker", "run-stream"],
)
def test_a_kind_outside_fast_policy_kind_is_refused(entry, error, kind):
    with pytest.raises(error, match="kind must be a FastPolicyKind"):
        entry(kind)
