"""Loading and saving demand traces (bring-your-own-data path).

The paper's raw datasets (the Wisconsin "cloudmeasure" EC2 usage logs
and the Google cluster trace) are not redistributable, but users who
have them — or any of their own billing exports — can feed them in here:

* :func:`load_demand_csv` / :func:`save_demand_csv` — one hourly demand
  value per row (optionally ``hour,demand`` pairs with gaps filled);
* :func:`load_usage_log` — event-style logs with ``start,end,count``
  rows (instance acquisitions), rasterised to hourly concurrency, the
  shape of the cloudmeasure files;
* :func:`load_resource_csv` — per-hour resource-request rows
  (``hour,cpu,memory,disk``), producing a
  :class:`~repro.workload.google.UserResourceTrace` for the paper's
  resource→instance preprocessing.
"""

from __future__ import annotations

import csv
import math
from pathlib import Path
from typing import List, Tuple

import numpy as np

from repro.errors import WorkloadError
from repro.workload.base import DemandTrace
from repro.workload.google import UserResourceTrace


#: The longest horizon a loader builds, in hours (about 114 years). A
#: file implies its horizon by its largest hour, and one past this is
#: refused before anything is allocated: a stray ``1e18`` would ask for
#: exabytes.
MAX_HORIZON_HOURS = 1_000_000

_INT64_MAX = np.iinfo(np.int64).max

#: One data row: its line number in the file and its cells.
Row = Tuple[int, List[str]]


def _open_rows(path) -> List[Row]:
    path = Path(path)
    if not path.exists():
        raise WorkloadError(f"no such trace file: {path}")
    with path.open(newline="", encoding="utf-8") as handle:
        reader = csv.reader(handle)
        rows = [
            (reader.line_num, row)
            for row in reader
            if row and not row[0].startswith("#")
        ]
    if not rows:
        raise WorkloadError(f"trace file {path} is empty")
    return rows


def _skip_header(rows: List[Row]) -> List[Row]:
    try:
        float(rows[0][1][0])
    except ValueError:
        return rows[1:]
    return rows


def _cell(row: Row, column: int, what: str, whole: bool = True) -> "int | float":
    """Cell ``column`` of a data row as a finite number: a non-negative
    whole number (hours and instance counts, exact past 2**53) unless
    ``whole`` is false. Every refusal names the line."""
    line, cells = row
    if column >= len(cells):
        raise WorkloadError(f"line {line}: no {what} in {cells!r}")
    text = cells[column]
    try:
        value = float(text)
    except ValueError:
        raise WorkloadError(f"line {line}: {what} {text!r} is not a number") from None
    if not math.isfinite(value):
        raise WorkloadError(f"line {line}: {what} must be finite, got {text!r}")
    if not whole:
        return value
    try:
        number: "int | None" = int(text)
    except ValueError:
        number = int(value) if value.is_integer() else None
    if number is None or not 0 <= number <= _INT64_MAX:
        raise WorkloadError(
            f"line {line}: {what} must be a whole number in [0, 2**63), got {text!r}"
        )
    return number


def _require_horizon(horizon: int) -> None:
    if horizon > MAX_HORIZON_HOURS:
        raise WorkloadError(
            f"a horizon of {horizon} hours exceeds MAX_HORIZON_HOURS "
            f"({MAX_HORIZON_HOURS})"
        )


def load_demand_csv(path: "str | Path", name: str = "") -> DemandTrace:
    """Load a demand trace from CSV.

    Accepts either one demand per row, or ``hour,demand`` rows (hours
    may be sparse and unordered; missing hours are zero). A header row
    is skipped automatically.
    """
    rows = _skip_header(_open_rows(path))
    if not rows:
        raise WorkloadError(f"trace file {path} has a header but no data")
    name = name or Path(path).stem
    if len(rows[0][1]) == 1:
        return DemandTrace([_cell(row, 0, "demand") for row in rows], name=name)
    pairs = [(_cell(row, 0, "hour"), _cell(row, 1, "demand")) for row in rows]
    horizon = max(hour for hour, _ in pairs) + 1
    _require_horizon(horizon)
    demands = np.zeros(horizon, dtype=np.int64)
    for hour, demand in pairs:
        demands[hour] = demand
    return DemandTrace(demands, name=name)


def save_demand_csv(trace: DemandTrace, path: "str | Path") -> None:
    """Write a trace as ``hour,demand`` rows with a header."""
    path = Path(path)
    with path.open("w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(["hour", "demand"])
        for hour, demand in enumerate(trace):
            writer.writerow([hour, demand])


def load_usage_log(path: "str | Path", horizon: "int | None" = None, name: str = "") -> DemandTrace:
    """Rasterise an event log of ``start,end[,count]`` rows to hourly
    concurrency (the cloudmeasure shape: instance launch/stop times).

    ``end`` is exclusive; ``count`` defaults to 1. ``horizon`` defaults
    to the latest end hour.
    """
    rows = _skip_header(_open_rows(path))
    events = []
    for row in rows:
        start, end = _cell(row, 0, "start"), _cell(row, 1, "end")
        count = _cell(row, 2, "count") if len(row[1]) > 2 else 1
        if end < start:
            raise WorkloadError(f"line {row[0]}: bad event interval [{start}, {end})")
        events.append((start, end, count))
    inferred = max((end for _, end, _ in events), default=0)
    horizon = horizon if horizon is not None else inferred
    if horizon <= 0:
        raise WorkloadError("cannot infer a positive horizon from the log")
    _require_horizon(horizon)
    demands = np.zeros(horizon + 1, dtype=np.int64)
    for start, end, count in events:
        if start >= horizon:
            continue
        demands[start] += count
        demands[min(end, horizon)] -= count
    return DemandTrace(np.cumsum(demands[:horizon]), name=name or Path(path).stem)


def load_resource_csv(path: "str | Path", user_id: str = "") -> UserResourceTrace:
    """Load ``hour,cpu,memory,disk`` rows into a resource trace.

    Feed the result to :func:`repro.workload.google.resources_to_demand`
    for the paper's preprocessing step.
    """
    rows = _skip_header(_open_rows(path))
    parsed = [
        (
            _cell(row, 0, "hour"),
            *(_cell(row, column, what, whole=False)
              for column, what in enumerate(("cpu", "memory", "disk"), start=1)),
        )
        for row in rows
    ]
    horizon = max(hour for hour, *_ in parsed) + 1
    _require_horizon(horizon)
    cpu = np.zeros(horizon)
    memory = np.zeros(horizon)
    disk = np.zeros(horizon)
    for hour, c, m, d in parsed:
        cpu[hour] += c
        memory[hour] += m
        disk[hour] += d
    return UserResourceTrace(
        user_id=user_id or Path(path).stem, cpu=cpu, memory=memory, disk=disk
    )
