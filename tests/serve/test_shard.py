"""Shard cluster mechanics: the hash ring, the metrics relabeller, and
one live 2-shard cluster exercising fan-out, multi-status, degraded
health, supervised restart, and merged metrics."""

import json
import os
import signal
import threading
import urllib.error
import urllib.request
from collections import Counter

import pytest

from repro.core.account import CostModel
from repro.pricing.plan import PricingPlan
from repro.serve.errors import ServeStateError, ShardUnavailableError
from repro.serve.server import main
from repro.serve.shard import (
    HashRing,
    RouterServer,
    ShardRouter,
    ShardSupervisor,
    _relabel_exposition,
    start_cluster,
)


def small_model(period: int = 8) -> CostModel:
    plan = PricingPlan(
        on_demand_hourly=1.0, upfront=4.0, alpha=0.25, period_hours=period
    )
    return CostModel(plan=plan, selling_discount=0.8)


class TestHashRing:
    def test_deterministic_across_instances(self):
        ids = [f"i-{k}" for k in range(500)]
        a, b = HashRing(4), HashRing(4)
        assert [a.shard_for(i) for i in ids] == [b.shard_for(i) for i in ids]

    def test_covers_every_shard_reasonably(self):
        ring = HashRing(4)
        tally = Counter(ring.shard_for(f"i-{k}") for k in range(2000))
        assert set(tally) == {0, 1, 2, 3}
        assert min(tally.values()) > 100  # no starved shard

    def test_single_shard_takes_everything(self):
        ring = HashRing(1)
        assert {ring.shard_for(f"i-{k}") for k in range(50)} == {0}

    def test_rejects_degenerate_parameters(self):
        with pytest.raises(ServeStateError):
            HashRing(0)
        with pytest.raises(ServeStateError):
            HashRing(2, vnodes=0)


class TestRelabelExposition:
    def test_injects_shard_label(self):
        text = (
            "# HELP m Things.\n# TYPE m counter\n"
            'm 3\nm2{verdict="sell"} 1\n'
        )
        out = _relabel_exposition(text, 2, set())
        assert 'm{shard="2"} 3' in out
        assert 'm2{shard="2",verdict="sell"} 1' in out

    def test_headers_emitted_once(self):
        text = "# HELP m Things.\n# TYPE m counter\nm 1\n"
        seen = set()
        first = _relabel_exposition(text, 0, seen)
        second = _relabel_exposition(text, 1, seen)
        assert first.count("# HELP") == 1
        assert second.count("# HELP") == 0
        assert 'm{shard="1"} 1' in second


@pytest.fixture(scope="module")
def cluster(tmp_path_factory):
    """A 2-shard cluster with HTTP front; yields (router, base_url)."""
    directory = tmp_path_factory.mktemp("shards")
    router = start_cluster(
        small_model(), 2, directory, max_inflight=8, request_timeout=15.0
    )
    server = RouterServer(("127.0.0.1", 0), router)
    port = server.server_address[1]
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        yield router, f"http://127.0.0.1:{port}"
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=5)
        router.close()


def request(method, url, payload=None):
    data = json.dumps(payload).encode("utf-8") if payload is not None else None
    req = urllib.request.Request(url, data=data, method=method)
    if data is not None:
        req.add_header("Content-Type", "application/json")
    try:
        with urllib.request.urlopen(req, timeout=30) as response:
            raw = response.read().decode("utf-8")
            status = response.status
            content_type = response.headers.get("Content-Type", "")
    except urllib.error.HTTPError as error:
        raw = error.read().decode("utf-8")
        status = error.code
        content_type = error.headers.get("Content-Type", "")
    if content_type.startswith("application/json"):
        return status, json.loads(raw)
    return status, raw


def test_cluster_lifecycle(cluster):
    """One pass through the cluster's behaviours, in dependency order
    (a single test keeps the expensive fixture's story linear)."""
    router, base = cluster
    ids = [f"i-{k:02d}" for k in range(12)]
    owners = {i: router.ring.shard_for(i) for i in ids}
    assert set(owners.values()) == {0, 1}  # both shards exercised

    # --- fan-out ingest: every event lands, decisions merge ---
    events = [{"instance": i, "busy": True} for i in ids]
    status, body = request("POST", f"{base}/v1/events", {"events": events})
    assert status == 200
    assert body["schema"] == 2
    assert body["accepted"] == len(ids)
    assert set(body["shards"]) == {"0", "1"}
    assert all(entry["status"] == "ok" for entry in body["shards"].values())

    # --- reads merge across shards ---
    status, decisions = request("GET", f"{base}/v1/decisions")
    assert status == 200
    assert {row["instance"] for row in decisions["instances"]} == set(ids)
    status, one = request("GET", f"{base}/v1/decisions?instance={ids[0]}")
    assert status == 200 and len(one["instances"]) == 1

    status, ghost = request("GET", f"{base}/v1/decisions?instance=ghost")
    assert status == 404 and ghost["error"]["kind"] == "UnknownResourceError"

    # --- costs aggregate integer counts across shards ---
    status, costs = request("GET", f"{base}/v1/costs")
    assert status == 200
    for entry in costs["phis"].values():
        assert entry["counts"]["instances"] == len(ids)

    # --- health: ok, then degraded after SIGKILL, then recovery ---
    status, health = request("GET", f"{base}/healthz")
    assert status == 200 and health["status"] == "ok"
    assert health["instances"] == len(ids)

    victim = router.supervisors[1]
    os.kill(victim.process.pid, signal.SIGKILL)
    victim.process.wait()
    status, health = request("GET", f"{base}/healthz")
    assert health["status"] == "degraded"
    assert health["shards"]["1"]["status"] == "down"

    # The next ingest restarts the dead shard from its checkpoint.
    status, body = request("POST", f"{base}/v1/events", {"events": events})
    assert status == 200
    assert all(entry["status"] == "ok" for entry in body["shards"].values())
    assert victim.restarts == 1
    status, health = request("GET", f"{base}/healthz")
    assert health["status"] == "ok"
    assert health["events_ingested"] == 2 * len(ids)

    # --- merged metrics carry shard labels and router series ---
    status, text = request("GET", f"{base}/metrics")
    assert status == 200
    assert 'shard="0"' in text and 'shard="1"' in text
    assert "repro_router_shard_restarts_total" in text
    helps = [l for l in text.splitlines() if l.startswith("# HELP ")]
    assert len(helps) == len(set(helps))  # no duplicated headers

    # --- validation errors stay typed at the router ---
    status, body = request("POST", f"{base}/v1/events", {"events": []})
    assert status == 400 and body["error"]["kind"] == "RequestValidationError"
    status, body = request(
        "POST", f"{base}/v1/events", {"events": [{"instance": "\ud800", "busy": True}]}
    )
    assert status == 400 and body["error"]["kind"] == "RequestValidationError"
    status, body = request(
        "POST", f"{base}/v1/events", {"schema": 99, "events": events}
    )
    assert status == 400 and body["error"]["kind"] == "SchemaSkewError"

    # --- any JSON integer crosses the hop, as a single process takes it ---
    status, body = request(
        "POST", f"{base}/v1/events", {"events": [{"instance": ids[0], "demand": 2**63}]}
    )
    assert status == 200 and body["accepted"] == 1


def test_router_requires_matching_ring():
    with pytest.raises(ServeStateError):
        ShardRouter(small_model(), [], ring=None)


def test_refused_cluster_arguments_start_no_worker(tmp_path, monkeypatch):
    """The router's arguments are checked before the first spawn, so a
    refused boot leaves no worker process behind."""
    started = []
    monkeypatch.setattr(
        ShardSupervisor, "start", lambda self: started.append(self.index)
    )
    for options in ({"attempts": 0}, {"transport": "json"}):
        with pytest.raises(ServeStateError):
            start_cluster(small_model(), 2, tmp_path / "refused", **options)
    assert started == []
    start_cluster(small_model(), 2, tmp_path / "booted").close()
    assert started == [0, 1]


def test_cluster_refuses_clearing_before_any_worker(monkeypatch, capsys):
    """Cluster workers boot without a clearing model, so ``main`` refuses
    ``--clearing`` with ``--shards`` instead of dropping it."""
    def boot(args):
        raise AssertionError("the cluster booted")

    monkeypatch.setattr("repro.serve.shard.run_cluster", boot)
    assert main(["--shards", "2", "--clearing", "thin"]) == 2
    assert "--clearing" in capsys.readouterr().err


def test_failed_boot_stops_every_started_worker(tmp_path, monkeypatch):
    def start(self):
        if self.index == 1:
            raise ShardUnavailableError("shard 1 exited during boot")

    stopped = []
    monkeypatch.setattr(ShardSupervisor, "start", start)
    monkeypatch.setattr(
        ShardSupervisor, "stop", lambda self, timeout=5.0: stopped.append(self.index)
    )
    with pytest.raises(ShardUnavailableError):
        start_cluster(small_model(), 2, tmp_path)
    assert 0 in stopped
