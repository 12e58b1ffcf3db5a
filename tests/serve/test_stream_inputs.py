"""The streaming tracker refuses the inputs the batch engine refuses.

``run_fast`` rejects fractional, non-finite, unequal-length and 2-D
traces with ``SimulationError``; :class:`~repro.serve.state.StreamTracker`
must not quietly truncate, overflow or stop early on the same inputs.
"""

import math

import numpy as np
import pytest

from repro.core.account import CostModel
from repro.core.fastsim import run_fast
from repro.errors import SimulationError
from repro.pricing.plan import PricingPlan
from repro.serve.errors import ServeStateError
from repro.serve.state import StreamTracker, run_stream

MODEL = CostModel(
    plan=PricingPlan(on_demand_hourly=1.0, upfront=9.0, alpha=0.25, period_hours=8),
    selling_discount=0.8,
)


@pytest.mark.parametrize(
    "demands, reservations",
    [
        ([1, 2, 3], [1, 0]),
        ([1.5, 2], [1, 0]),
        ([1, 2], [0.5, 0]),
        ([math.nan, 2], [1, 0]),
        ([math.inf, 2], [1, 0]),
        ([1, 2], [-math.inf, 0]),
        ([[1, 2]], [[1, 0]]),
    ],
    ids=[
        "unequal-length",
        "fractional-demand",
        "fractional-reservations",
        "nan-demand",
        "inf-demand",
        "inf-reservations",
        "two-dimensional",
    ],
)
def test_stream_refuses_what_run_fast_refuses(demands, reservations):
    with pytest.raises(SimulationError):
        run_fast(np.array(demands), np.array(reservations), MODEL)
    with pytest.raises(ServeStateError):
        run_stream(demands, reservations, MODEL)
    if len(demands) == len(reservations):
        with pytest.raises(ServeStateError):
            StreamTracker(MODEL).observe(demands[0], reservations[0])
    # Integral floats stay accepted, as in run_fast.
    whole = run_stream([2.0, np.float64(1.0)], [1.0, 0], MODEL)
    assert whole.breakdown == run_stream([2, 1], [1, 0], MODEL).breakdown
