"""The sharding acceptance guarantee: an N=4 cluster fed the same event
stream as a single-process :class:`AdvisoryApp` — with one worker
``kill -9``-ed and supervised-restarted mid-stream — produces
bit-identical settled decisions, per-instance rows, verdict tallies,
and per-φ CostBreakdowns.

Since PR 8 the cluster's router→worker hop defaults to the persistent
binary-frame transport with per-worker write-ahead logs, so this suite
is also the tentpole's correctness gate: the killed worker must recover
from its snapshot plus only the WAL *tail* (bounded by
``snapshot_interval``), never full history — asserted via the
``repro_serve_wal_replayed_entries_total`` metric."""

import json
import os
import random
import re
import signal
import threading
import urllib.request

import pytest

from repro.core.account import CostModel
from repro.pricing.plan import PricingPlan
from repro.serve.server import build_app
from repro.serve.shard import RouterServer, start_cluster

PERIOD = 48
PHIS = (0.75, 0.5, 0.25)
N_SHARDS = 4
N_INSTANCES = 24
HOURS = 60  # past the last decision age (36) with post-decision tail
SNAPSHOT_INTERVAL = 8  # small enough that the kill lands mid-interval


def model() -> CostModel:
    plan = PricingPlan(
        on_demand_hourly=1.0, upfront=20.0, alpha=0.3, period_hours=PERIOD
    )
    return CostModel(plan=plan, selling_discount=0.8)


def canonical(decisions):
    """Settled decisions, order-independent."""
    return sorted(
        (d["instance"], d["phi"], d["verdict"], d["working_hours"], d["age_hours"])
        for d in decisions
    )


@pytest.fixture(scope="module")
def streams():
    """(cluster decisions, cluster reads) vs (single decisions, reads)
    over the same stream, with shard 2 SIGKILLed mid-stream."""
    cost_model = model()
    single = build_app(cost_model, phis=PHIS)

    import tempfile

    directory = tempfile.mkdtemp(prefix="repro-shard-diff-")
    router = start_cluster(
        cost_model,
        N_SHARDS,
        directory,
        phis=PHIS,
        request_timeout=15.0,
        snapshot_interval=SNAPSHOT_INTERVAL,
    )
    server = RouterServer(("127.0.0.1", 0), router)
    base = f"http://127.0.0.1:{server.server_address[1]}"
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()

    def post(body):
        req = urllib.request.Request(
            f"{base}/v1/events",
            data=json.dumps(body).encode("utf-8"),
            headers={"Content-Type": "application/json"},
            method="POST",
        )
        with urllib.request.urlopen(req, timeout=30) as response:
            assert response.status == 200
            return json.loads(response.read())

    def get(path):
        with urllib.request.urlopen(base + path, timeout=30) as response:
            return json.loads(response.read())

    rng = random.Random(20180702)  # the paper's conference date as seed
    ids = [f"i-{k:03d}" for k in range(N_INSTANCES)]
    cluster_decisions, single_decisions = [], []
    try:
        for hour in range(HOURS):
            events = [
                {"instance": instance, "busy": rng.random() < 0.4}
                for instance in ids
            ]
            reply = post({"events": events})
            cluster_decisions.extend(reply["decisions"])
            single_decisions.extend(single.ingest({"events": events})["decisions"])
            if hour == PERIOD // 2:  # mid-stream, between decision spots
                victim = router.supervisors[2]
                os.kill(victim.process.pid, signal.SIGKILL)
                victim.process.wait()
        assert router.supervisors[2].restarts == 1
        with urllib.request.urlopen(base + "/metrics", timeout=30) as response:
            exposition = response.read().decode("utf-8")
        cluster_reads = {
            "decisions": get("/v1/decisions"),
            "costs": get("/v1/costs"),
            "health": get("/healthz"),
            "metrics": exposition,
        }
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=5)
        router.close()
    return cluster_decisions, cluster_reads, single_decisions, single


def test_settled_decisions_identical(streams):
    cluster_decisions, _, single_decisions, _ = streams
    assert canonical(cluster_decisions) == canonical(single_decisions)
    # Sales happened on both sides (the comparison is not vacuous).
    assert any(d["verdict"] == "sell" for d in single_decisions)
    assert any(d["verdict"] == "keep" for d in single_decisions)


def test_instance_rows_identical(streams):
    _, cluster_reads, _, single = streams
    cluster_rows = sorted(
        cluster_reads["decisions"]["instances"], key=lambda row: row["instance"]
    )
    single_rows = sorted(
        single.decisions()["instances"], key=lambda row: row["instance"]
    )
    assert cluster_rows == single_rows


def test_verdict_tallies_identical(streams):
    _, cluster_reads, _, single = streams
    assert (
        cluster_reads["decisions"]["verdicts_by_phi"]
        == single.decisions()["verdicts_by_phi"]
    )


def test_cost_breakdowns_bit_identical(streams):
    """Integer counts summed across shards, priced once — the floats
    must equal the single process exactly, not approximately."""
    _, cluster_reads, _, single = streams
    assert cluster_reads["costs"]["phis"] == single.costs()["phis"]
    # And against the fleet's own CostBreakdown objects:
    for phi_key, breakdown in single.fleet.cost_breakdowns().items():
        entry = cluster_reads["costs"]["phis"][phi_key]["breakdown"]
        assert entry["on_demand"] == breakdown.on_demand
        assert entry["upfront"] == breakdown.upfront
        assert entry["reserved_hourly"] == breakdown.reserved_hourly
        assert entry["sale_income"] == breakdown.sale_income
        assert entry["total"] == breakdown.total


def test_cluster_health_recovered(streams):
    _, cluster_reads, _, single = streams
    assert cluster_reads["health"]["status"] == "ok"
    assert cluster_reads["health"]["events_ingested"] == single.events_ingested
    assert cluster_reads["health"]["instances"] == N_INSTANCES


def test_restart_replayed_only_the_wal_tail(streams):
    """The killed worker recovered from snapshot + WAL tail: it replayed
    at least one batch (the kill landed mid-interval) but never more
    than ``snapshot_interval`` — full-history replay would show ~25."""
    _, cluster_reads, _, _ = streams
    match = re.search(
        r'^repro_serve_wal_replayed_entries_total\{shard="2"\} (\d+)$',
        cluster_reads["metrics"],
        re.MULTILINE,
    )
    assert match is not None, "shard 2 exported no WAL replay counter"
    replayed = int(match.group(1))
    assert 0 < replayed <= SNAPSHOT_INTERVAL
    # The surviving shards replayed nothing.
    for shard in (0, 1, 3):
        other = re.search(
            rf'^repro_serve_wal_replayed_entries_total\{{shard="{shard}"\}} (\d+)$',
            cluster_reads["metrics"],
            re.MULTILINE,
        )
        assert other is not None and int(other.group(1)) == 0
