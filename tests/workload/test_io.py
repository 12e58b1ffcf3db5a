"""Unit tests for repro.workload.io (bring-your-own-trace loaders)."""

import re

import pytest

from repro.errors import WorkloadError
from repro.workload.base import DemandTrace
from repro.workload.google import MachineCapacity, resources_to_demand
from repro.workload.io import (
    MAX_HORIZON_HOURS,
    load_demand_csv,
    load_resource_csv,
    load_usage_log,
    save_demand_csv,
)


class TestDemandCsv:
    def test_single_column(self, tmp_path):
        path = tmp_path / "trace.csv"
        path.write_text("3\n0\n5\n")
        assert list(load_demand_csv(path)) == [3, 0, 5]

    def test_pairs_with_header_and_gaps(self, tmp_path):
        path = tmp_path / "trace.csv"
        path.write_text("hour,demand\n0,2\n3,4\n")
        assert list(load_demand_csv(path)) == [2, 0, 0, 4]

    def test_comments_skipped(self, tmp_path):
        path = tmp_path / "trace.csv"
        path.write_text("# exported billing data\n1\n2\n")
        assert list(load_demand_csv(path)) == [1, 2]

    def test_roundtrip(self, tmp_path):
        original = DemandTrace([1, 0, 7], name="x")
        path = tmp_path / "out.csv"
        save_demand_csv(original, path)
        assert load_demand_csv(path) == original

    def test_name_defaults_to_stem(self, tmp_path):
        path = tmp_path / "webapp.csv"
        path.write_text("1\n")
        assert load_demand_csv(path).name == "webapp"

    def test_missing_file(self, tmp_path):
        with pytest.raises(WorkloadError):
            load_demand_csv(tmp_path / "nope.csv")

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("")
        with pytest.raises(WorkloadError):
            load_demand_csv(path)

    def test_negative_hours_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("-1,3\n")
        with pytest.raises(WorkloadError):
            load_demand_csv(path)


class TestUsageLog:
    def test_rasterisation(self, tmp_path):
        path = tmp_path / "log.csv"
        # two instances for [0,3), one more joins for [1,2)
        path.write_text("start,end,count\n0,3,2\n1,2,1\n")
        assert list(load_usage_log(path)) == [2, 3, 2]

    def test_default_count_is_one(self, tmp_path):
        path = tmp_path / "log.csv"
        path.write_text("0,2\n")
        assert list(load_usage_log(path)) == [1, 1]

    def test_explicit_horizon_pads_and_clips(self, tmp_path):
        path = tmp_path / "log.csv"
        path.write_text("0,2,1\n")
        assert list(load_usage_log(path, horizon=4)) == [1, 1, 0, 0]
        assert list(load_usage_log(path, horizon=1)) == [1]

    def test_bad_interval_rejected(self, tmp_path):
        path = tmp_path / "log.csv"
        path.write_text("5,2,1\n")
        with pytest.raises(WorkloadError):
            load_usage_log(path)

    def test_narrow_rows_rejected(self, tmp_path):
        path = tmp_path / "log.csv"
        path.write_text("5\n")
        with pytest.raises(WorkloadError):
            load_usage_log(path)


class TestResourceCsv:
    def test_loads_and_preprocesses(self, tmp_path):
        path = tmp_path / "resources.csv"
        path.write_text("hour,cpu,memory,disk\n0,0.5,0.2,0.0\n1,0.1,0.9,0.1\n")
        user = load_resource_csv(path, user_id="tenant-1")
        assert user.user_id == "tenant-1"
        demand = resources_to_demand(
            user, MachineCapacity(cpu=0.25, memory=0.25, disk=0.25)
        )
        assert list(demand) == [2, 4]

    def test_rows_accumulate_per_hour(self, tmp_path):
        path = tmp_path / "resources.csv"
        path.write_text("0,0.2,0.1,0.0\n0,0.3,0.1,0.0\n")
        user = load_resource_csv(path)
        assert user.cpu[0] == pytest.approx(0.5)

    def test_narrow_rows_rejected(self, tmp_path):
        path = tmp_path / "resources.csv"
        path.write_text("0,0.2\n")
        with pytest.raises(WorkloadError):
            load_resource_csv(path)


BAD_FILES = {
    "demand not a number": (load_demand_csv, "3\nabc\n", "line 2: demand 'abc'"),
    "demand nan": (load_demand_csv, "3\nnan\n", "line 2: demand must be finite"),
    "demand fractional": (load_demand_csv, "3\n1.5\n", "line 2: demand must be a whole"),
    "pair row too short": (load_demand_csv, "hour,demand\n0,2\n5\n", "line 3: no demand"),
    "pair hour nan": (load_demand_csv, "0,2\nnan,1\n", "line 2: hour must be finite"),
    "pair hour fractional": (load_demand_csv, "0,2\n1.5,1\n", "line 2: hour must be a whole"),
    "pair hour negative": (load_demand_csv, "-1,3\n", "line 1: hour must be a whole"),
    "pair hour huge": (load_demand_csv, "hour,demand\n1e18,2\n", "MAX_HORIZON_HOURS"),
    "log end nan": (load_usage_log, "0,nan\n", "line 1: end must be finite"),
    "log count inf": (load_usage_log, "0,2,inf\n", "line 1: count must be finite"),
    "log count fractional": (load_usage_log, "0,2,1.5\n", "line 1: count must be a whole"),
    "log start not a number": (load_usage_log, "# launches\n0,1\nx1,2\n", "line 3: start 'x1'"),
    "log end huge": (load_usage_log, "0,1e18\n", "MAX_HORIZON_HOURS"),
    "log horizon huge": (load_usage_log, "0,2\n", "MAX_HORIZON_HOURS"),
    "resource hour huge": (load_resource_csv, "1e18,0.1,0.1,0.1\n", "MAX_HORIZON_HOURS"),
    "resource hour negative": (load_resource_csv, "-1,0.1,0.1,0.1\n", "line 1: hour"),
    "resource cpu not a number": (load_resource_csv, "0,abc,0.1,0.1\n", "line 1: cpu 'abc'"),
    "resource disk nan": (load_resource_csv, "0,0.1,0.1,nan\n", "line 1: disk must be finite"),
}


@pytest.mark.parametrize("case", sorted(BAD_FILES))
def test_bad_files_raise_workload_errors_that_name_the_line(case, tmp_path):
    loader, text, message = BAD_FILES[case]
    path = tmp_path / "bad.csv"
    path.write_text(text)
    keywords = {"horizon": MAX_HORIZON_HOURS + 1} if case == "log horizon huge" else {}
    with pytest.raises(WorkloadError, match=re.escape(message)):
        loader(path, **keywords)


def test_whole_numbers_are_read_exactly(tmp_path):
    path = tmp_path / "trace.csv"
    path.write_text(f"{2**53 + 1}\n4.0\n")
    assert list(load_demand_csv(path)) == [2**53 + 1, 4]
