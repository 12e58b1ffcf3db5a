"""Bench: advisory-service throughput, recorded to BENCH_serve.json.

Not a paper artefact — this guards the serving layer: the vectorised
fleet engine must beat one-event-at-a-time ingestion by a wide margin,
and a checkpoint write must stay cheap enough to run inline with
ingestion. The record format is documented in docs/serving.md.

Run standalone (writes ``BENCH_serve.json`` at the repo root)::

    PYTHONPATH=src python benchmarks/bench_serve.py
    PYTHONPATH=src python benchmarks/bench_serve.py \
        --instances 2000 --hours 32 --output BENCH_serve.json

or via pytest (a scaled-down smoke pass)::

    PYTHONPATH=src python -m pytest benchmarks/bench_serve.py
"""

from __future__ import annotations

import argparse
import json
import platform
import time
from pathlib import Path

import numpy as np

from repro._version import __version__
from repro.core.account import CostModel
from repro.pricing.catalog import paper_experiment_plan
from repro.serve.checkpoint import restore_checkpoint, save_checkpoint
from repro.serve.state import STATE_VERSION, FleetState


def build_model(period_hours: int) -> CostModel:
    plan = paper_experiment_plan()
    if period_hours != plan.period_hours:
        plan = plan.with_period(period_hours)
    return CostModel(plan=plan, selling_discount=0.8)


def _event_matrix(instances: int, hours: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    return rng.random((hours, instances)) < 0.6


def _measure_single(model: CostModel, busy: np.ndarray) -> float:
    """One-event-at-a-time ingestion (the HTTP worst case)."""
    fleet = FleetState(model)
    ids = [f"i-{k}" for k in range(busy.shape[1])]
    began = time.perf_counter()
    for hour in range(busy.shape[0]):
        row = busy[hour]
        for k, instance_id in enumerate(ids):
            fleet.apply_events([instance_id], [bool(row[k])])
    return time.perf_counter() - began


def _measure_vectorised(model: CostModel, busy: np.ndarray) -> "tuple[float, FleetState]":
    """Whole-fleet batches: one apply_events call per simulated hour."""
    fleet = FleetState(model)
    ids = [f"i-{k}" for k in range(busy.shape[1])]
    began = time.perf_counter()
    for hour in range(busy.shape[0]):
        fleet.apply_events(ids, list(busy[hour]))
    return time.perf_counter() - began, fleet


def _measure_checkpoint(fleet: FleetState, path: Path) -> "dict[str, float]":
    began = time.perf_counter()
    save_checkpoint(path, fleet, events_ingested=fleet.size)
    save_seconds = time.perf_counter() - began
    began = time.perf_counter()
    restore_checkpoint(path)
    load_seconds = time.perf_counter() - began
    return {
        "save_seconds": round(save_seconds, 6),
        "load_seconds": round(load_seconds, 6),
        "bytes": path.stat().st_size,
    }


def run_bench(
    instances: int = 1000,
    hours: int = 32,
    period_hours: int = 64,
    seed: int = 2018,
    checkpoint_dir: "Path | None" = None,
) -> dict:
    """Measure single vs vectorised ingest and checkpoint latency."""
    model = build_model(period_hours)
    busy = _event_matrix(instances, hours, seed)
    events = instances * hours

    single_seconds = _measure_single(model, busy)
    vector_seconds, fleet = _measure_vectorised(model, busy)

    checkpoint = {}
    if checkpoint_dir is not None:
        checkpoint = _measure_checkpoint(fleet, Path(checkpoint_dir) / "bench.ckpt")

    return {
        "benchmark": "serve_ingest",
        "version": __version__,
        "state_version": STATE_VERSION,
        "created_unix": round(time.time(), 3),
        "host": {
            "platform": platform.platform(),
            "python": platform.python_version(),
        },
        "config": {
            "instances": instances,
            "hours": hours,
            "events": events,
            "period_hours": period_hours,
            "seed": seed,
        },
        "single": {
            "seconds": round(single_seconds, 4),
            "events_per_second": round(events / single_seconds, 1),
        },
        "vectorised": {
            "seconds": round(vector_seconds, 4),
            "events_per_second": round(events / vector_seconds, 1),
        },
        "vectorised_speedup": round(single_seconds / vector_seconds, 2),
        "checkpoint": checkpoint,
    }


def main(argv: "list[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--instances", type=int, default=1000, metavar="N")
    parser.add_argument("--hours", type=int, default=32, metavar="H")
    parser.add_argument("--period-hours", type=int, default=64, metavar="T")
    parser.add_argument("--seed", type=int, default=2018)
    parser.add_argument(
        "--output", type=Path, default=Path("BENCH_serve.json"), metavar="FILE"
    )
    parser.add_argument(
        "--checkpoint-dir",
        type=Path,
        default=Path(".repro_cache"),
        help="directory used for the checkpoint latency measurement",
    )
    args = parser.parse_args(argv)
    args.checkpoint_dir.mkdir(parents=True, exist_ok=True)
    record = run_bench(
        instances=args.instances,
        hours=args.hours,
        period_hours=args.period_hours,
        seed=args.seed,
        checkpoint_dir=args.checkpoint_dir,
    )
    args.output.write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")
    print(f"wrote {args.output}")
    print(
        f"  single:     {record['single']['events_per_second']} events/s "
        f"({record['single']['seconds']}s)"
    )
    print(
        f"  vectorised: {record['vectorised']['events_per_second']} events/s "
        f"({record['vectorised']['seconds']}s, "
        f"{record['vectorised_speedup']}x)"
    )
    if record["checkpoint"]:
        print(
            f"  checkpoint: save {record['checkpoint']['save_seconds']}s, "
            f"load {record['checkpoint']['load_seconds']}s, "
            f"{record['checkpoint']['bytes']} bytes"
        )
    return 0


# ---------------------------------------------------------------------------
# pytest smoke pass (scaled down: correctness of the record, not the numbers)
# ---------------------------------------------------------------------------


def test_bench_record_shape(tmp_path):
    record = run_bench(
        instances=20, hours=8, period_hours=8, checkpoint_dir=tmp_path
    )
    assert record["benchmark"] == "serve_ingest"
    assert record["state_version"] == STATE_VERSION
    assert record["config"]["events"] == 20 * 8
    assert record["single"]["events_per_second"] > 0
    assert record["vectorised"]["events_per_second"] > 0
    assert record["checkpoint"]["bytes"] > 0


if __name__ == "__main__":
    raise SystemExit(main())
