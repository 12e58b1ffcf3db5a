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


@pytest.mark.parametrize(
    "value, accepted, refusal",
    [
        (3, 3, None),
        (np.int64(3), 3, None),
        (np.uint64(2**63 + 5), None, "must lie in the int64 range"),
        (2**70, None, "must lie in the int64 range"),
        (-1, None, "must be non-negative, got -1"),
        (True, 1, None),
        (np.bool_(True), 1, None),
        (2.0, 2, None),
        (2.5, None, "must be whole instance counts"),
        (math.nan, None, "must be finite"),
        ("3", None, "must be integer-valued"),
        (None, None, "must be finite"),
        (np.array(3), 3, None),
    ],
    ids=[
        "int", "int64", "uint64-past-int64", "int-2**70", "negative", "bool",
        "numpy-bool", "whole-float", "fractional-float", "nan", "str", "none",
        "zero-d-array",
    ],
)
@pytest.mark.parametrize("argument", ["demand", "reservations"])
def test_an_hourly_scalar_is_taken_or_refused_as_an_array_would_be(
    value, accepted, refusal, argument
):
    """Each hourly count is accepted with its value, or refused with its
    message, exactly as a one-element count array would be."""
    tracker = StreamTracker(MODEL)

    def observe():
        if argument == "demand":
            tracker.observe(value)
        else:
            tracker.observe(0, value)

    if refusal is not None:
        with pytest.raises(ServeStateError, match=f"^{argument} {refusal}"):
            observe()
        return
    observe()
    breakdown = tracker.breakdown
    taken = breakdown.on_demand if argument == "demand" else breakdown.upfront / MODEL.big_r
    assert taken == accepted
