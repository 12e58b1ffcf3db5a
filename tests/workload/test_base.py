"""Unit tests for repro.workload.base (DemandTrace)."""

import math
import re
import warnings

import numpy as np
import pytest

from repro.errors import TraceLengthError, WorkloadError
from repro.workload.base import DemandTrace, as_trace


class TestConstruction:
    def test_from_list(self):
        trace = DemandTrace([1, 2, 3])
        assert list(trace) == [1, 2, 3]

    def test_from_numpy_copies(self):
        source = np.array([1, 2, 3])
        trace = DemandTrace(source)
        source[0] = 99
        assert trace[0] == 1

    def test_values_are_read_only(self):
        trace = DemandTrace([1, 2])
        with pytest.raises(ValueError):
            trace.values[0] = 5

    def test_rejects_empty(self):
        with pytest.raises(WorkloadError):
            DemandTrace([])

    def test_rejects_2d(self):
        with pytest.raises(WorkloadError):
            DemandTrace(np.zeros((2, 2)))

    def test_rejects_negative(self):
        with pytest.raises(WorkloadError):
            DemandTrace([1, -1])

    def test_rejects_fractional(self):
        with pytest.raises(WorkloadError):
            DemandTrace([1.5, 2.0])

    def test_accepts_whole_floats(self):
        assert list(DemandTrace([1.0, 2.0])) == [1, 2]

    def test_rejects_nan_and_inf(self):
        with pytest.raises(WorkloadError):
            DemandTrace([1.0, float("nan")])
        with pytest.raises(WorkloadError):
            DemandTrace([1.0, float("inf")])

    def test_rejects_non_numeric(self):
        with pytest.raises(WorkloadError):
            DemandTrace(["a", "b"])


class TestIntegerInput:
    """Integer input is taken exactly, with no float round trip."""

    def test_past_two_to_the_53_is_exact(self):
        assert DemandTrace(np.array([2**53 + 1]))[0] == 2**53 + 1
        assert DemandTrace([2**53 + 1, 0])[0] == 2**53 + 1

    def test_int64_max_is_accepted(self):
        assert DemandTrace(np.array([2**63 - 1]))[0] == 2**63 - 1

    def test_narrow_and_unsigned_dtypes_become_int64(self):
        for dtype in (np.int8, np.uint16, np.int32, np.uint64):
            trace = DemandTrace(np.array([0, 7], dtype=dtype))
            assert trace.values.dtype == np.int64 and list(trace) == [0, 7]

    def test_uint64_past_int64_is_refused_without_a_warning(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(WorkloadError, match=r"int64 range \[0, 9223372036854775807\]"):
                DemandTrace(np.array([1, 2**63 + 5], dtype=np.uint64))

    @pytest.mark.parametrize(
        "values, message",
        [
            ([1, -1], "demands must be non-negative"),
            (np.array([3, -2], dtype=np.int16), "demands must be non-negative"),
            ([], "a demand trace must contain at least one hour"),
            (np.zeros((2, 2), dtype=np.int64), "a demand trace must be 1-D, got shape (2, 2)"),
            (["a", "b"], "demands must be numeric, got dtype <U1"),
            ([True, False], "demands must be numeric, got dtype bool"),
        ],
    )
    def test_refusals_keep_their_messages(self, values, message):
        with pytest.raises(WorkloadError, match=re.escape(message)):
            DemandTrace(values)

    @pytest.mark.parametrize(
        "values, message",
        [
            ([1.5], "demands must be whole instance counts"),
            ([1.0, float("nan")], "demands must be finite"),
            ([float("inf")], "demands must be finite"),
            ([-1.0], "demands must be non-negative"),
        ],
    )
    def test_float_input_keeps_its_checks(self, values, message):
        with pytest.raises(WorkloadError, match=re.escape(message)):
            DemandTrace(values)


class TestContainerBehaviour:
    def test_len_and_horizon(self):
        trace = DemandTrace([0, 1, 2])
        assert len(trace) == trace.horizon == 3

    def test_indexing_returns_int(self):
        value = DemandTrace([5, 6])[1]
        assert value == 6
        assert isinstance(value, int)

    def test_slicing_returns_trace(self):
        trace = DemandTrace([1, 2, 3, 4], name="x")[1:3]
        assert isinstance(trace, DemandTrace)
        assert list(trace) == [2, 3]
        assert trace.name == "x"

    def test_equality_and_hash(self):
        assert DemandTrace([1, 2]) == DemandTrace([1, 2])
        assert DemandTrace([1, 2]) != DemandTrace([2, 1])
        assert hash(DemandTrace([1, 2])) == hash(DemandTrace([1, 2]))

    def test_equality_against_other_types(self):
        assert DemandTrace([1]) != [1]

    def test_repr_mentions_stats(self):
        text = repr(DemandTrace([1, 2, 3], name="web"))
        assert "web" in text and "horizon=3" in text


class TestStatistics:
    def test_mean_std(self):
        trace = DemandTrace([0, 4])
        assert trace.mean == 2.0
        assert trace.std == 2.0

    def test_cv(self):
        assert DemandTrace([0, 4]).cv == pytest.approx(1.0)

    def test_cv_of_zero_trace_is_inf(self):
        assert math.isinf(DemandTrace([0, 0]).cv)

    def test_peak_and_totals(self):
        trace = DemandTrace([1, 5, 0])
        assert trace.peak == 5
        assert trace.total_demand_hours == 6

    def test_busy_fraction(self):
        assert DemandTrace([0, 1, 2, 0]).busy_fraction() == 0.5


class TestManipulation:
    def test_truncated(self):
        assert len(DemandTrace([1] * 10).truncated(4)) == 4

    def test_truncated_too_long_raises(self):
        with pytest.raises(TraceLengthError):
            DemandTrace([1, 2]).truncated(3)

    def test_require_horizon_passes_when_long_enough(self):
        DemandTrace([1, 2, 3]).require_horizon(3)

    def test_scaled(self):
        assert list(DemandTrace([1, 2]).scaled(2.0)) == [2, 4]

    def test_scaled_rounds(self):
        assert list(DemandTrace([1, 3]).scaled(0.5)) == [0, 2]

    def test_scaled_rejects_nonpositive(self):
        with pytest.raises(WorkloadError):
            DemandTrace([1]).scaled(0.0)

    def test_shifted_wraps(self):
        assert list(DemandTrace([1, 2, 3]).shifted(1)) == [2, 3, 1]

    def test_constant_and_zeros(self):
        assert list(DemandTrace.constant(3, 2)) == [3, 3]
        assert list(DemandTrace.zeros(2)) == [0, 0]

    def test_constant_rejects_bad_args(self):
        with pytest.raises(WorkloadError):
            DemandTrace.constant(1, 0)
        with pytest.raises(WorkloadError):
            DemandTrace.constant(-1, 5)


class TestAsTrace:
    def test_passthrough(self):
        trace = DemandTrace([1])
        assert as_trace(trace) is trace

    def test_coercion(self):
        assert isinstance(as_trace([1, 2], name="n"), DemandTrace)
        assert as_trace([1, 2], name="n").name == "n"
