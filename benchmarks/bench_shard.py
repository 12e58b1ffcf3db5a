"""Bench: sharded-router throughput, recorded to BENCH_shard.json.

Not a paper artefact — this guards the sharding layer: end-to-end
ingest through the front router (consistent hashing, per-shard fan-out,
seq stamping, envelope parsing) at shard counts N=1, 2, 4, over the
binary router→worker transport (persistent length-prefixed frame
connections with the per-worker WAL). The committed ``BENCH_shard.json``
also holds a ``json`` arm: the one-JSON-over-HTTP-request-per-hop
transport this script measured before that hop was removed, kept as the
historical record of the comparison.

Setup cost (booting the cluster, dialling connections, the first
batch's lazy channel establishment and seq resync) is measured apart
from steady-state ingest, so the recorded events/s no longer smears
one-off connection setup across the run. The front hop reuses one
persistent HTTP/1.1 connection for the same reason. The record format
is documented in docs/serving.md.

Run standalone (writes ``BENCH_shard.json`` at the repo root)::

    PYTHONPATH=src python benchmarks/bench_shard.py
    PYTHONPATH=src python benchmarks/bench_shard.py \
        --instances 400 --hours 24 --output BENCH_shard.json

or via pytest (a scaled-down smoke pass)::

    PYTHONPATH=src python -m pytest benchmarks/bench_shard.py
"""

from __future__ import annotations

import argparse
import http.client
import json
import os
import platform
import socket
import statistics
import tempfile
import threading
import time
from pathlib import Path

import numpy as np

from repro._version import __version__
from repro.core.account import CostModel
from repro.pricing.catalog import paper_experiment_plan
from repro.serve.shard import RouterServer, start_cluster
from repro.serve.state import STATE_VERSION

#: Uncounted leading batches: they absorb lazy channel dialling, seq
#: resync, and allocator warm-up, leaving the timed span steady-state.
WARMUP_BATCHES = 2


def build_model(period_hours: int) -> CostModel:
    plan = paper_experiment_plan()
    if period_hours != plan.period_hours:
        plan = plan.with_period(period_hours)
    return CostModel(plan=plan, selling_discount=0.8)


def _event_matrix(instances: int, hours: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    return rng.random((hours, instances)) < 0.6


def _percentile(samples: "list[float]", q: float) -> float:
    return float(statistics.quantiles(samples, n=100)[int(q) - 1])


def _measure_cluster(
    model: CostModel,
    busy: np.ndarray,
    n_shards: int,
    checkpoint_dir: Path,
) -> dict:
    """One cluster: setup vs steady-state split."""
    ids = [f"i-{k}" for k in range(busy.shape[1])]
    bodies = [
        json.dumps(
            {"events": [
                {"instance": ids[k], "busy": bool(busy[hour][k])}
                for k in range(len(ids))
            ]}
        ).encode("utf-8")
        for hour in range(busy.shape[0])
    ]

    setup_began = time.perf_counter()
    router = start_cluster(model, n_shards, checkpoint_dir)
    server = RouterServer(("127.0.0.1", 0), router)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    connection = http.client.HTTPConnection(
        "127.0.0.1", server.server_address[1], timeout=60
    )
    connection.connect()
    # http.client writes headers and body as separate segments; without
    # TCP_NODELAY, Nagle + delayed ACK stalls every request ~40ms and
    # the bench measures the kernel timer, not the transport.
    connection.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)

    def post(body: bytes) -> None:
        connection.request(
            "POST",
            "/v1/events",
            body=body,
            headers={"Content-Type": "application/json"},
        )
        response = connection.getresponse()
        response.read()
        if response.status != 200:
            raise RuntimeError(f"ingest answered {response.status}")

    latencies = []
    try:
        # Warm-up: lazy worker connections dial, seqs resync, caches
        # fill. Counted as setup, not steady-state.
        for body in bodies[:WARMUP_BATCHES]:
            post(body)
        setup_seconds = time.perf_counter() - setup_began

        steady = bodies[WARMUP_BATCHES:]
        began = time.perf_counter()
        for body in steady:
            sent = time.perf_counter()
            post(body)
            latencies.append(time.perf_counter() - sent)
        steady_seconds = time.perf_counter() - began
    finally:
        connection.close()
        server.shutdown()
        server.server_close()
        thread.join(timeout=5)
        router.close()
    events = len(steady) * busy.shape[1]
    return {
        "shards": n_shards,
        "transport": "binary",
        "setup_seconds": round(setup_seconds, 4),
        "steady_seconds": round(steady_seconds, 4),
        "events_per_second": round(events / steady_seconds, 1),
        "ingest_p50_ms": round(_percentile(latencies, 50) * 1000, 3),
        "ingest_p99_ms": round(_percentile(latencies, 99) * 1000, 3),
    }


def run_bench(
    instances: int = 400,
    hours: int = 24,
    period_hours: int = 64,
    seed: int = 2018,
    shard_counts: "tuple[int, ...]" = (1, 2, 4),
) -> dict:
    """Measure router ingest throughput/latency per shard count."""
    model = build_model(period_hours)
    busy = _event_matrix(instances, hours, seed)
    clusters = []
    for n_shards in shard_counts:
        with tempfile.TemporaryDirectory(prefix="repro-bench-shard-") as directory:
            clusters.append(_measure_cluster(model, busy, n_shards, Path(directory)))
    cpu_count = os.cpu_count() or 1
    return {
        "benchmark": "shard_ingest",
        "version": __version__,
        "state_version": STATE_VERSION,
        "created_unix": round(time.time(), 3),
        "host": {
            "cpu_count": cpu_count,
            "platform": platform.platform(),
            "python": platform.python_version(),
        },
        "note": (
            "router and all shard worker processes share this host's "
            f"{cpu_count} core(s); with fewer cores than shards, "
            "events/s is not expected to rise monotonically with shard "
            "count - compare each N against a record from the same host"
        ),
        "config": {
            "instances": instances,
            "hours": hours,
            "warmup_batches": WARMUP_BATCHES,
            "steady_events": instances * max(hours - WARMUP_BATCHES, 0),
            "period_hours": period_hours,
            "seed": seed,
        },
        "transports": {"binary": clusters},
    }


def main(argv: "list[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--instances", type=int, default=400, metavar="N")
    parser.add_argument("--hours", type=int, default=24, metavar="H")
    parser.add_argument("--period-hours", type=int, default=64, metavar="T")
    parser.add_argument("--seed", type=int, default=2018)
    parser.add_argument(
        "--shards",
        type=int,
        nargs="+",
        default=[1, 2, 4],
        metavar="N",
        help="shard counts to measure, one cluster each",
    )
    parser.add_argument(
        "--output", type=Path, default=Path("BENCH_shard.json"), metavar="FILE"
    )
    args = parser.parse_args(argv)
    record = run_bench(
        instances=args.instances,
        hours=args.hours,
        period_hours=args.period_hours,
        seed=args.seed,
        shard_counts=tuple(args.shards),
    )
    args.output.write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")
    print(f"wrote {args.output}")
    for transport, clusters in record["transports"].items():
        for cluster in clusters:
            print(
                f"  {transport} N={cluster['shards']}: "
                f"{cluster['events_per_second']} events/s "
                f"(setup {cluster['setup_seconds']}s, "
                f"steady {cluster['steady_seconds']}s, "
                f"p50 {cluster['ingest_p50_ms']}ms, "
                f"p99 {cluster['ingest_p99_ms']}ms)"
            )
    return 0


# ---------------------------------------------------------------------------
# pytest smoke pass (scaled down: correctness of the record, not the numbers)
# ---------------------------------------------------------------------------


def test_bench_record_shape():
    record = run_bench(
        instances=16,
        hours=6,
        period_hours=8,
        shard_counts=(1, 2),
    )
    assert record["benchmark"] == "shard_ingest"
    assert record["state_version"] == STATE_VERSION
    assert record["host"]["cpu_count"] >= 1
    assert record["config"]["steady_events"] == 16 * (6 - WARMUP_BATCHES)
    clusters = record["transports"]["binary"]
    assert [c["shards"] for c in clusters] == [1, 2]
    for cluster in clusters:
        assert cluster["transport"] == "binary"
        assert cluster["events_per_second"] > 0
        assert cluster["setup_seconds"] > 0
        assert cluster["ingest_p50_ms"] <= cluster["ingest_p99_ms"]


if __name__ == "__main__":
    raise SystemExit(main())
