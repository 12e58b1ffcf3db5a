"""The record every run writes: provenance, metrics, and the result line.

One schema for every workload (``perfbench/1``, documented in
``perfbench/README.md``). The metrics a change is gated on -- names,
units, directions and bounds -- are read from ``BENCHMARK.json`` so the
code and the declaration cannot drift apart.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import platform
import statistics
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

SCHEMA = "perfbench/1"

#: Percentiles tried for a timing's tail, highest first; the reported
#: one is the highest with at least ten samples beyond it.
TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0)

#: Set-up builds per run; ``setup_s`` is their median.
SETUP_REPS = 5

#: Seconds :func:`calibrate` takes at the reference host speed, the
#: speed ``setup_s`` is reported at (see :func:`at_reference_speed`).
REFERENCE_KERNEL_S = 0.007


def load_declaration(root: Path) -> dict:
    return json.loads((root / "BENCHMARK.json").read_text(encoding="utf-8"))


def calibrate() -> float:
    """Seconds a fixed interpreter-and-NumPy kernel takes right now.

    The kernel shares no code with the program; timed between a run's
    operations, it tracks the host's current speed. It is a pure
    interpreter loop plus a loop of NumPy calls on small slices (the
    shape of OPT's coordinate descent, which the loop alone tracks
    poorly). Its arrays stay small: a large array's speed depended on
    the process (two modes, 50% apart) rather than on the host. The
    best of two passes is returned, so a momentary stall is not taken
    for the host's speed.
    """
    import numpy as np

    demand = np.arange(700.0)
    best = math.inf
    for _ in range(2):
        began = time.perf_counter()
        total = 0
        for value in range(60000):
            total += value * value % 7
        counts = np.zeros(700, dtype=np.int64)
        for step in range(400):
            window = slice(step % 50, 650)
            spill = np.cumsum((demand[window] >= counts[window]).astype(np.int64))
            counts[int(spill[-1]) % 600 :] += 1
        best = min(best, time.perf_counter() - began)
    return best


def median(samples: "Sequence[float]") -> float:
    return float(statistics.median(samples))


def at_reference_speed(seconds: "Sequence[float]", kernels: "Sequence[float]") -> float:
    """Median of timings, each rescaled from the host speed its kernel
    measured to the reference speed (:data:`REFERENCE_KERNEL_S`)."""
    return median([s / k * REFERENCE_KERNEL_S for s, k in zip(seconds, kernels)])


def percentile(samples: "Sequence[float]", q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(samples)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return float(ordered[rank - 1])


def tail_percentile(count: int) -> "Optional[float]":
    """The highest percentile with at least ten of ``count`` samples
    beyond it, or ``None`` when there are too few samples."""
    for q in TAIL_PERCENTILES:
        if count * (1.0 - q / 100.0) >= 10.0:
            return q
    return None


def percentile_label(q: float) -> str:
    return "p" + (f"{q:g}".replace(".", "_"))


def peak_rss_mb(pid: "Optional[int]" = None) -> float:
    """High-water resident set size of one process, in MB (``VmHWM``)."""
    path = Path(f"/proc/{pid if pid is not None else 'self'}/status")
    for line in path.read_text(encoding="ascii").splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"{path} reports no VmHWM")


def host() -> "Dict[str, object]":
    return {
        "cpu_count": os.cpu_count() or 1,
        "platform": platform.platform(),
        "python": platform.python_version(),
    }


def _git_revision(root: Path) -> "Optional[str]":
    """HEAD's commit id read straight from ``.git`` (no subprocess)."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="ascii").strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_file = git / ref
        if ref_file.is_file():
            return ref_file.read_text(encoding="ascii").strip()
        for line in (git / "packed-refs").read_text(encoding="ascii").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        return None
    return None


def revision(root: Path) -> "Dict[str, object]":
    """The git commit when the checkout has one, and always a digest of
    the program's source tree (a checkout need not be a repository)."""
    digest = hashlib.sha256()
    source = root / "src" / "repro"
    for path in sorted(source.rglob("*.py")):
        digest.update(str(path.relative_to(source)).encode("utf-8"))
        digest.update(path.read_bytes())
    return {"git": _git_revision(root), "src_sha256": digest.hexdigest()}


def config_hash(params: "Dict[str, object]") -> str:
    return hashlib.sha256(
        json.dumps(params, sort_keys=True).encode("utf-8")
    ).hexdigest()


@dataclass
class Outcome:
    """What one workload run measured and checked."""

    attempted: int = 0
    failed: int = 0
    #: name -> {"value", "unit", ...}; end-to-end and record-only metrics.
    metrics: "Dict[str, Dict[str, object]]" = field(default_factory=dict)
    #: Per-layer values (traced runs only), by declared name.
    layers: "Dict[str, float]" = field(default_factory=dict)
    config: "Dict[str, object]" = field(default_factory=dict)
    config_hash: str = ""
    notes: "List[str]" = field(default_factory=list)
    #: The raw timings behind the normalised metrics: ``timed_s`` (each
    #: untraced sweep or hour), ``kernel_s`` (each reference-kernel time
    #: of the measured phase), ``setup_s`` (each build or boot) and
    #: ``setup_kernel_s`` (the kernel time each build was rescaled by).
    samples: "Dict[str, List[float]]" = field(default_factory=dict)

    def put(
        self,
        name: str,
        value: float,
        unit: str,
        better: str,
        samples: "Optional[int]" = None,
    ) -> None:
        entry: "Dict[str, object]" = {"value": value, "unit": unit, "better": better}
        if samples is not None:
            entry["samples"] = samples
        self.metrics[name] = entry

    def put_timing(self, prefix: str, seconds: "Sequence[float]") -> None:
        """Median and tail of a latency sample, in ms, with its count."""
        count = len(seconds)
        if not count:
            return
        self.put(f"{prefix}_p50_ms", median(seconds) * 1e3, "ms", "lower", count)
        q = tail_percentile(count)
        if q is not None:
            self.put(
                f"{prefix}_{percentile_label(q)}_ms",
                percentile(seconds, q) * 1e3,
                "ms",
                "lower",
                count,
            )


def build_record(
    root: Path,
    declaration: dict,
    workload: str,
    seed: int,
    seconds: float,
    trace: bool,
    outcome: Outcome,
) -> dict:
    """The run's record in the one schema, with declared units applied.

    A traced record holds every declared per-layer metric. The ones the
    workload does not exercise (absent from ``outcome.layers``) read 0
    and are marked ``"applies": false``.
    """
    metrics: "Dict[str, Dict[str, object]]" = {}
    for name, entry in outcome.metrics.items():
        metrics[name] = dict(entry, kind="end_to_end")
    for spec in declaration["end_to_end"]:
        if spec["name"] in metrics:
            metrics[spec["name"]].update(
                unit=spec["unit"], better=spec["better"], bound=spec["bound"], declared=True
            )
    if trace:
        declared = {spec["name"] for spec in declaration["per_layer"]}
        unknown = sorted(set(outcome.layers) - declared)
        if unknown:
            raise ValueError(f"per-layer metrics {unknown} are not in BENCHMARK.json")
        for spec in declaration["per_layer"]:
            applies = spec["name"] in outcome.layers
            metrics[spec["name"]] = {
                "value": float(outcome.layers[spec["name"]]) if applies else 0.0,
                "unit": spec["unit"],
                "better": spec["better"],
                "kind": "per_layer",
                "applies": applies,
                "declared": True,
            }
    return {
        "schema": SCHEMA,
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "host": host(),
        "revision": revision(root),
        "config_hash": outcome.config_hash,
        "config": outcome.config,
        "correct": outcome.failed == 0,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": metrics,
        "notes": outcome.notes,
        "samples": outcome.samples,
    }


def result_line(record: dict, declaration: dict) -> str:
    """The last stdout line: the declared metrics of this mode only."""
    section = "per_layer" if record["trace"] else "end_to_end"
    metrics = {}
    for spec in declaration[section]:
        entry = record["metrics"][spec["name"]]
        metrics[spec["name"]] = {"value": entry["value"], "unit": spec["unit"]}
    return json.dumps(
        {
            "correct": record["correct"],
            "attempted": record["attempted"],
            "failed": record["failed"],
            "metrics": metrics,
        }
    )


def describe(record: dict) -> "List[str]":
    """Human-readable lines: every metric by name, with unit and count."""
    lines = [
        f"perfbench {record['workload']} seed={record['seed']} "
        f"trace={int(record['trace'])} cpu_count={record['host']['cpu_count']} "
        f"rev={record['revision']['git'] or '-'} "
        f"src={record['revision']['src_sha256'][:12]} "
        f"config={record['config_hash'][:12]}"
    ]
    for name, entry in record["metrics"].items():
        if not entry.get("applies", True):
            lines.append(f"  {name:28s} {'n/a':>16s} {entry['unit']}")
            continue
        samples = f"  (n={entry['samples']})" if "samples" in entry else ""
        lines.append(f"  {name:28s} {entry['value']:>16.6g} {entry['unit']}{samples}")
    lines.append(
        f"  checked: {record['attempted']} attempted, {record['failed']} failed"
    )
    lines.extend(f"  note: {note}" for note in record["notes"])
    return lines


# ----------------------------------------------------------------------
# Compare mode
# ----------------------------------------------------------------------


def _load_records(path: Path) -> "List[dict]":
    files = sorted(path.glob("*.json")) if path.is_dir() else [path]
    records = []
    for file in files:
        record = json.loads(file.read_text(encoding="utf-8"))
        if record.get("schema") == SCHEMA:
            records.append(record)
    return records


Row = Tuple[str, bool]


def _by_workload(records: "List[dict]") -> "Dict[Row, Dict[str, List[float]]]":
    """Per (workload, traced) row, every metric's values across the
    given records. Traced runs sweep under the tracer and build under
    it, so their timings never share a row with untraced ones."""
    table: "Dict[Row, Dict[str, List[float]]]" = {}
    for record in records:
        row = table.setdefault((record["workload"], bool(record.get("trace"))), {})
        for name, entry in record["metrics"].items():
            if entry.get("applies", True):
                row.setdefault(name, []).append(float(entry["value"]))
    return table


def compare(baseline: Path, current: Path, declaration: dict) -> int:
    """Print every metric per workload row, base median vs current
    median, and flag end-to-end metrics of untraced rows worse than
    their bound.

    Returns 1 when any metric is flagged, else 0.
    """
    specs = {spec["name"]: spec for spec in declaration["end_to_end"]}
    specs.update({spec["name"]: spec for spec in declaration["per_layer"]})
    base_records, new_records = _load_records(baseline), _load_records(current)
    base, new = _by_workload(base_records), _by_workload(new_records)
    directions = {}
    for record in base_records + new_records:
        for name, entry in record["metrics"].items():
            directions[name] = (entry.get("better"), entry.get("kind"), entry.get("bound"))
    flagged = 0
    for row in sorted(set(base) | set(new)):
        workload, traced = row
        print(f"{workload} (traced)" if traced else workload)
        names = sorted(set(base.get(row, {})) | set(new.get(row, {})))
        for name in names:
            old_values = base.get(row, {}).get(name)
            new_values = new.get(row, {}).get(name)
            if not old_values or not new_values:
                print(f"  {name:28s} {'(missing on one side)':>40s}")
                continue
            old, cur = median(old_values), median(new_values)
            better, kind, bound = directions.get(name, (None, None, None))
            spec = specs.get(name, {})
            better = spec.get("better", better)
            bound = spec.get("bound", bound)
            change = (cur - old) / old if old else 0.0
            worse = change if better == "lower" else -change
            mark = ""
            if not traced and kind == "end_to_end" and bound is not None and worse > bound:
                mark = f"  WORSE than bound {bound:g}"
                flagged += 1
            print(f"  {name:28s} {old:>14.6g} -> {cur:>14.6g}  {change:+8.2%}{mark}")
    return 1 if flagged else 0
