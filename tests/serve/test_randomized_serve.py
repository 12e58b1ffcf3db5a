"""Randomized & cancellation policy specs in the serving layer: the
fleet's registration-time draws reproduce the policy's per-key streams,
decision rows carry schema-2 provenance, re-buy accounting matches the
batch engine, a killed-and-restored server replays the identical
trajectory (drawn spots verified on restore), schema negotiation shapes
responses, and an N=4 shard cluster stays bit-identical to the single
process."""

import json
import threading
import urllib.error
import urllib.request

import numpy as np
import pytest

from repro.core.account import CostModel
from repro.core.cancellation import CancellationModel
from repro.core.fastsim import run_fast
from repro.core.policies import RandomizedSellingPolicy
from repro.core.popsim import run_population_randomized
from repro.pricing.plan import PricingPlan
from repro.serve.checkpoint import checkpoint_from_payload, fleet_to_payload
from repro.serve.errors import CheckpointError, ServeStateError
from repro.serve.server import AdvisoryServer, build_app, main
from repro.serve.state import FleetState, rebuy_outlay_from_counts

PERIOD = 16
RANDOMIZED = "randomized:seed=7"
CANCELLATION = "cancellation:phi=0.5,penalty=0.1"
POLICIES = (RANDOMIZED, CANCELLATION)


def small_model(period: int = PERIOD) -> CostModel:
    plan = PricingPlan(
        on_demand_hourly=1.0, upfront=6.0, alpha=0.25, period_hours=period
    )
    return CostModel(plan=plan, selling_discount=0.8)


def busy_trace(seed: int, hours: int = PERIOD) -> "list[bool]":
    rng = np.random.default_rng(seed)
    return (rng.random(hours) < 0.4).tolist()


# ---------------------------------------------------------------------------
# fleet-level semantics


class TestFleetDraws:
    def test_registration_draws_match_the_policy_stream(self):
        fleet = FleetState(small_model(), policies=(RANDOMIZED,))
        policy = RandomizedSellingPolicy(seed=7)
        ids = [f"i-{k:03d}" for k in range(40)]
        for instance_id in ids:
            fleet.register(instance_id)
        phis = fleet.phis
        for k, instance_id in enumerate(ids):
            drawn_index = int(fleet._drawn[k])
            assert phis[drawn_index] == policy.draw_spot(instance_id)

    def test_fleet_draws_agree_with_population_engine(self, tmp_path):
        # The same keys through the population engine and the fleet must
        # land on the same spots — the cross-engine determinism claim.
        model = small_model()
        ids = [f"i-{k:03d}" for k in range(24)]
        fleet = FleetState(model, policies=(RANDOMIZED,))
        for instance_id in ids:
            fleet.register(instance_id)
        demands, reservations = (
            np.zeros((24, PERIOD), dtype=np.int64),
            np.zeros((24, PERIOD), dtype=np.int64),
        )
        reservations[:, 0] = 1
        result = run_population_randomized(
            demands,
            reservations,
            model,
            RandomizedSellingPolicy(seed=7),
            user_keys=ids,
        )
        fleet_drawn = [fleet.phis[int(fleet._drawn[k])] for k in range(24)]
        assert result.drawn_phi.tolist() == fleet_drawn

    def test_policy_spots_extend_the_menu(self):
        fleet = FleetState(
            small_model(),
            phis=(0.75,),
            policies=("randomized:spots=0.25|0.5",),
        )
        assert set(fleet.phis) == {0.75, 0.25, 0.5}

    def test_keep_specs_are_rejected(self):
        with pytest.raises(ServeStateError, match="keep"):
            FleetState(small_model(), policies=("keep",))

    def test_all_selling_specs_are_rejected(self):
        with pytest.raises(ServeStateError, match="all-selling"):
            FleetState(small_model(), policies=("all-selling:phi=0.5",))

    def test_all_selling_specs_are_refused_on_the_command_line(self, monkeypatch):
        def serve(*args, **kwargs):
            raise AssertionError("the server started")

        monkeypatch.setattr("repro.serve.server.AdvisoryServer", serve)
        assert main(["--port", "0", "--policies", "all-selling:phi=0.5"]) == 2

    def test_checkpoints_carrying_all_selling_specs_are_refused(self):
        payload = fleet_to_payload(FleetState(small_model()))
        payload["policies"] = ["all-selling:phi=0.5"]
        with pytest.raises(CheckpointError, match="all-selling"):
            checkpoint_from_payload(payload)

    def test_second_randomized_spec_is_rejected(self):
        with pytest.raises(ServeStateError, match="at most one"):
            FleetState(
                small_model(),
                policies=("randomized:seed=1", "randomized:seed=2"),
            )

    def test_scale_mismatch_is_rejected(self):
        with pytest.raises(ServeStateError, match="threshold_scale"):
            FleetState(
                small_model(), policies=("cancellation:phi=0.5,scale=1.5",)
            )


class TestRebuyAccounting:
    def test_rebuy_outlay_matches_run_fast(self):
        """Per-instance differential: the fleet's integer re-buy counts,
        priced by ``rebuy_outlay_from_counts``, equal the batch engine's
        ``rebuy`` breakdown for the same single-reservation trace."""
        model = small_model()
        cancellation = CancellationModel(penalty=0.1, trigger_hours=1)
        fleet = FleetState(model, policies=(CANCELLATION,))
        expected_total = 0.0
        rebuys_seen = 0
        for seed in range(20):
            trace = busy_trace(seed)
            instance = f"i-{seed:02d}"
            for flag in trace:
                fleet.apply_events([instance], [flag])
            demands = np.asarray(trace, dtype=np.int64)
            reservations = np.zeros(PERIOD, dtype=np.int64)
            reservations[0] = 1
            fast = run_fast(
                demands, reservations, model, phi=0.5, cancellation=cancellation
            )
            expected_total += fast.breakdown.rebuy
            rebuys_seen += fast.instances_rebought
        counts = fleet.rebuy_counts()[CANCELLATION]
        assert counts["rebuys"] == rebuys_seen
        assert rebuys_seen > 0
        outlay = rebuy_outlay_from_counts(model, 0.1, counts)
        assert outlay == pytest.approx(expected_total, abs=1e-12)

    def test_costs_body_carries_the_policies_section(self):
        app = build_app(small_model(), policies=POLICIES)
        # Idle until the φ=1/2 verdict sells, busy right after → re-buy.
        for hour in range(PERIOD):
            app.ingest({"events": [{"instance": "i-0", "busy": hour >= 8}]})
        body = app.costs()
        entry = body["policies"][CANCELLATION]
        assert entry["counts"]["rebuys"] == 1
        assert entry["penalty"] == 0.1
        assert entry["rebuy_outlay"] == rebuy_outlay_from_counts(
            app.fleet.model, 0.1, entry["counts"]
        )

    def test_rebuy_state_round_trips_through_snapshot(self):
        model = small_model()
        fleet = FleetState(model, policies=POLICIES)
        for hour in range(PERIOD):
            fleet.apply_events(["i-0", "i-1"], [hour >= 8, hour % 3 == 0])
        restored = FleetState(model, policies=POLICIES)
        restored.restore_instances(fleet.snapshot_instances())
        assert restored.snapshot_instances() == fleet.snapshot_instances()
        assert restored.rebuy_counts() == fleet.rebuy_counts()

    def test_restore_verifies_stored_draws(self):
        fleet = FleetState(small_model(), policies=(RANDOMIZED,))
        fleet.apply_events(["i-0"], [True])
        rows = fleet.snapshot_instances()
        menu_size = len(fleet.phis)
        rows[0]["drawn"] = (rows[0]["drawn"] + 1) % menu_size
        fresh = FleetState(small_model(), policies=(RANDOMIZED,))
        with pytest.raises(ServeStateError, match="drew menu spot"):
            fresh.restore_instances(rows)


# ---------------------------------------------------------------------------
# server-level: provenance, kill-and-restore, schema negotiation


def test_decision_rows_carry_provenance():
    app = build_app(small_model(), policies=POLICIES)
    policy = RandomizedSellingPolicy(seed=7)
    settled = []
    for hour in range(PERIOD):
        out = app.ingest(
            {"events": [{"instance": i, "busy": False} for i in ("i-1", "i-2")]}
        )
        settled.extend(out["decisions"])
    for instance in ("i-1", "i-2"):
        drawn = policy.draw_spot(instance)
        randomized_rows = [
            d
            for d in settled
            if d["instance"] == instance and d.get("policy_spec") == RANDOMIZED
        ]
        assert [d["phi"] for d in randomized_rows] == [drawn]
        assert [d["drawn_phi"] for d in randomized_rows] == [drawn]
        cancel_rows = [
            d
            for d in settled
            if d["instance"] == instance and d.get("policy_spec") == CANCELLATION
        ]
        assert [d["phi"] for d in cancel_rows] == [0.5]
        assert all("drawn_phi" not in d for d in cancel_rows)


def test_kill_and_restore_reproduces_randomized_trajectory(tmp_path):
    """The tentpole guarantee: checkpoint mid-stream under randomized +
    cancellation policies, drop the server, rebuild from disk — the
    remaining decisions, drawn spots, and re-buy state are identical to
    an uninterrupted run."""
    model = small_model()
    ckpt = tmp_path / "fleet.ckpt"
    trace = [
        (f"i-{k % 5}", (k * 7) % 3 != 0) for k in range(5 * PERIOD)
    ]

    reference = build_app(model, policies=POLICIES)
    reference_decisions = []
    for instance, busy in trace:
        out = reference.ingest({"events": [{"instance": instance, "busy": busy}]})
        reference_decisions.extend(out["decisions"])

    half = len(trace) // 2
    first = build_app(
        model, policies=POLICIES, checkpoint_path=ckpt, checkpoint_interval=1
    )
    live_decisions = []
    for instance, busy in trace[:half]:
        out = first.ingest({"events": [{"instance": instance, "busy": busy}]})
        live_decisions.extend(out["decisions"])
    del first  # no clean shutdown — the periodic checkpoint must carry it

    second = build_app(model, checkpoint_path=ckpt, checkpoint_interval=1)
    # The checkpoint carries the canonical specs; no flags needed.
    assert [s.canonical() for s in second.fleet.policy_specs] == list(POLICIES)
    for instance, busy in trace[half:]:
        out = second.ingest({"events": [{"instance": instance, "busy": busy}]})
        live_decisions.extend(out["decisions"])

    assert live_decisions == reference_decisions
    assert second.fleet.snapshot_instances() == reference.fleet.snapshot_instances()
    assert second.fleet.rebuy_counts() == reference.fleet.rebuy_counts()
    assert second.costs() == reference.costs()


@pytest.fixture()
def served(tmp_path):
    app = build_app(small_model(), policies=POLICIES)
    server = AdvisoryServer(("127.0.0.1", 0), app)
    port = server.server_address[1]
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        yield app, f"http://127.0.0.1:{port}"
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=5)


def request(method, url, payload=None, schema=None):
    data = json.dumps(payload).encode("utf-8") if payload is not None else None
    req = urllib.request.Request(url, data=data, method=method)
    if data is not None:
        req.add_header("Content-Type", "application/json")
    if schema is not None:
        req.add_header("X-Repro-Schema", schema)
    try:
        with urllib.request.urlopen(req, timeout=10) as response:
            return response.status, json.loads(response.read().decode("utf-8"))
    except urllib.error.HTTPError as error:
        return error.code, json.loads(error.read().decode("utf-8"))


class TestSchemaNegotiation:
    def _settle(self, base):
        decisions = []
        for hour in range(PERIOD):
            status, body = request(
                "POST",
                f"{base}/v1/events",
                {"events": [{"instance": "i-1", "busy": False}]},
            )
            assert status == 200
            decisions.extend(body["decisions"])
        return decisions

    def test_default_is_schema_2_with_provenance(self, served):
        _, base = served
        decisions = self._settle(base)
        assert any("policy_spec" in d for d in decisions)
        status, body = request("GET", f"{base}/v1/costs")
        assert status == 200 and body["schema"] == 2
        assert CANCELLATION in body["policies"]

    def test_schema_1_header_strips_new_fields(self, served):
        _, base = served
        self._settle(base)
        status, body = request("GET", f"{base}/v1/costs", schema="1")
        assert status == 200 and body["schema"] == 1
        assert "policies" not in body
        status, body = request(
            "GET", f"{base}/v1/decisions?instance=i-1", schema="1"
        )
        assert status == 200
        rows = body["instances"]
        assert rows
        flattened = json.dumps(rows)
        assert "drawn_phi" not in flattened and "policy_spec" not in flattened

        status, schema2 = request("GET", f"{base}/v1/decisions?instance=i-1")
        assert status == 200
        assert "drawn_phi" in json.dumps(schema2["instances"])

    def test_unsupported_schema_is_rejected(self, served):
        _, base = served
        status, body = request("GET", f"{base}/healthz", schema="9")
        assert status == 400
        assert body["error"]["kind"] == "SchemaSkewError"
        status, body = request("GET", f"{base}/healthz", schema="nope")
        assert status == 400
        assert body["error"]["kind"] == "SchemaSkewError"


# ---------------------------------------------------------------------------
# sharded cluster differential


@pytest.mark.cluster
def test_cluster_matches_single_process_under_policies(tmp_path):
    """N=4 shards with randomized + cancellation specs stay bit-identical
    to the single process: same settled decisions (provenance included),
    same merged re-buy counts and outlay."""
    from repro.serve.shard import start_cluster

    model = small_model()
    single = build_app(model, policies=POLICIES)
    router = start_cluster(
        model, 4, tmp_path, policies=POLICIES, request_timeout=15.0
    )
    try:
        ids = [f"i-{k:03d}" for k in range(16)]
        rng = np.random.default_rng(2018)
        single_decisions, cluster_decisions = [], []
        for hour in range(PERIOD):
            events = [
                {"instance": i, "busy": bool(rng.random() < 0.4)} for i in ids
            ]
            single_decisions.extend(
                single.ingest({"events": events})["decisions"]
            )
            cluster_decisions.extend(
                router.ingest({"events": events})["decisions"]
            )
        canonical = lambda rows: sorted(
            json.dumps(d, sort_keys=True) for d in rows
        )
        assert canonical(cluster_decisions) == canonical(single_decisions)
        single_costs = single.costs()
        cluster_costs = router.costs()
        assert cluster_costs["policies"] == single_costs["policies"]
        assert cluster_costs["phis"] == single_costs["phis"]
    finally:
        router.close()
