"""Counts outside ``int64`` are refused as such, and without a warning.

A bare cast wrapped uint64 ``2**63 + 5`` to a negative number and
turned floats at or past ``2**63`` into ``-2**63`` under numpy's
"invalid value encountered in cast" warning, so the entry points
refused them as "must be non-negative", the wrong reason.
``repro._arrays.as_count_array`` now names the int64 range, with each
caller's error type (as ``DemandTrace`` does).
"""

import numpy as np
import pytest

from repro.core.account import CostModel
from repro.core.fastsim import run_fast
from repro.core.popsim import prepare_population
from repro.errors import SimulationError, WorkloadError
from repro.pricing.plan import PricingPlan
from repro.serve.errors import ServeStateError
from repro.serve.state import StreamTracker
from repro.workload.store import PopulationStore

MODEL = CostModel(
    plan=PricingPlan(on_demand_hourly=1.0, upfront=9.0, alpha=0.25, period_hours=8),
    selling_discount=0.8,
)
NO_RESERVATIONS = np.zeros(2, dtype=np.int64)


def fast(value: object) -> None:
    run_fast(np.array([value, 1]), NO_RESERVATIONS, MODEL)


def prepare(value: object) -> None:
    prepare_population(np.array([[value, 1]]), NO_RESERVATIONS[None], 8)


def store(value: object) -> None:
    PopulationStore.from_dense(np.array([[value, 1]]), NO_RESERVATIONS[None])


def observe(value: object) -> None:
    StreamTracker(MODEL).observe(value)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize(
    "value",
    [np.uint64(2**63 + 5), 1e19, 2**70],
    ids=["uint64-past-int64", "float-1e19", "python-int-2**70"],
)
@pytest.mark.parametrize(
    "entry, error",
    [
        (fast, SimulationError),
        (prepare, SimulationError),
        (store, WorkloadError),
        (observe, ServeStateError),
    ],
    ids=["run-fast", "prepare-population", "population-store", "stream-observe"],
)
def test_counts_past_int64_are_refused_as_such(entry, error, value):
    with pytest.raises(error, match=r"int64 range"):
        entry(value)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize(
    "entry",
    [
        lambda values: run_fast(values, NO_RESERVATIONS, MODEL).on_demand,
        lambda values: prepare_population(values[None], NO_RESERVATIONS[None], 8).demands[0],
        lambda values: PopulationStore.from_dense(
            values[None], NO_RESERVATIONS[None]
        ).demands_block(0, 1)[0],
    ],
    ids=["run-fast", "prepare-population", "population-store"],
)
def test_object_integers_convert_exactly(entry):
    """A float view rounds 2**62 + 1 to 2**62; object arrays of integers
    convert exactly, and past int64 they are still refused as such."""
    exact = 2**62 + 1
    assert entry(np.array([exact, True], dtype=object)).tolist() == [exact, 1]
    with pytest.raises((SimulationError, WorkloadError), match=r"int64 range"):
        entry(np.array([2**63, 1], dtype=object))


@pytest.mark.filterwarnings("error")
def test_int64_extremes_still_pass_the_coercion():
    top = np.iinfo(np.int64).max
    for values in (np.array([top], dtype=np.uint64), np.array([top])):
        assert prepare_population(
            values[None], np.zeros((1, 1), dtype=np.int64), 8
        ).demands.tolist() == [[top]]
