"""HTTP smoke tests: ephemeral port, stdlib client only. Covers the
health/metrics/ingest/decisions routes, typed error mapping (400, 404,
413, 429), and the kill-and-restore guarantee — a server rebuilt from
its checkpoint serves identical decisions."""

import json
import threading
import urllib.error
import urllib.request

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.account import CostModel
from repro.pricing.plan import PricingPlan
from repro.serve.errors import ApiError
from repro.serve.server import AdvisoryApp, AdvisoryServer, build_app
from repro.serve.shard import HashRing


def small_model(period: int = 8) -> CostModel:
    plan = PricingPlan(
        on_demand_hourly=1.0, upfront=4.0, alpha=0.25, period_hours=period
    )
    return CostModel(plan=plan, selling_discount=0.8)


@pytest.fixture()
def served(tmp_path):
    """A running server on an ephemeral port; yields (app, base_url)."""
    app = build_app(
        small_model(),
        checkpoint_path=tmp_path / "fleet.ckpt",
        checkpoint_interval=1,
    )
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


def request(method, url, payload=None):
    """(status, parsed-or-raw body) via urllib; HTTP errors returned.

    A ``bytes`` payload is sent as the raw body."""
    data = payload
    if payload is not None and not isinstance(payload, bytes):
        data = json.dumps(payload).encode("utf-8")
    req = urllib.request.Request(url, data=data, method=method)
    if data is not None:
        req.add_header("Content-Type", "application/json")
    try:
        with urllib.request.urlopen(req, timeout=10) as response:
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


def test_healthz_reports_ok(served):
    _, base = served
    status, body = request("GET", f"{base}/healthz")
    assert status == 200
    assert body["schema"] == 2
    assert body["status"] == "ok"
    assert body["instances"] == 0


def test_ingest_decide_and_query(served):
    app, base = served
    period = app.fleet.model.plan.period_hours
    settled = []
    for hour in range(period):
        status, body = request(
            "POST",
            f"{base}/v1/events",
            {"events": [{"instance": "i-1", "busy": hour % 2 == 0}]},
        )
        assert status == 200
        settled.extend(body["decisions"])
    phis = {d["phi"] for d in settled}
    assert phis == set(app.fleet.phis)
    assert all(d["verdict"] in ("sell", "keep") for d in settled)

    status, body = request("GET", f"{base}/v1/decisions?instance=i-1")
    assert status == 200
    (row,) = body["instances"]
    assert row["age_hours"] == period


def test_demand_field_is_accepted(served):
    _, base = served
    status, body = request(
        "POST", f"{base}/v1/events", {"events": [{"instance": "i-9", "demand": 3}]}
    )
    assert status == 200 and body["accepted"] == 1


def test_validation_errors_are_400(served):
    _, base = served
    for payload in (
        {"events": []},
        {"events": "nope"},
        {"events": [{"busy": True}]},
        {"events": [{"instance": "i-1"}]},
        {"events": [{"instance": "i-1", "demand": -1}]},
        {"events": [{"instance": "\ud800", "busy": True}]},  # lone surrogate
        b"[" * 50_000 + b"]" * 50_000,  # nested past the recursion limit
        b'{"events": [{"instance": "i-1", "demand": ' + b"9" * 5000 + b"}]}",
    ):
        status, body = request("POST", f"{base}/v1/events", payload)
        assert status == 400, payload
        assert body["schema"] == 2, payload
        assert body["error"]["kind"] == "RequestValidationError", payload


_TEXT = st.text(st.characters() | st.characters(categories=["Cs"]), max_size=8)
_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | _TEXT,
    lambda children: st.lists(children, max_size=3)
    | st.dictionaries(_TEXT, children, max_size=3),
    max_leaves=12,
)
_ID = st.text(min_size=1, max_size=8) | _TEXT.filter(bool)
_EVENT = st.one_of(
    st.fixed_dictionaries({"instance": _ID, "busy": st.booleans()}),
    st.fixed_dictionaries({"instance": _ID, "demand": st.integers(min_value=-1)}),
    st.dictionaries(st.sampled_from(["instance", "busy", "demand"]) | _TEXT, _JSON),
    _JSON,
)
_BODY = st.one_of(
    st.fixed_dictionaries(
        {"events": st.lists(_EVENT, min_size=1, max_size=4)},
        optional={"seq": st.integers(min_value=-1) | _JSON, "schema": st.integers(0, 3)},
    ),
    st.dictionaries(st.sampled_from(["events", "seq", "schema"]) | _TEXT, _JSON),
    _JSON,
)
_RING = HashRing(4)


@settings(max_examples=300, deadline=None)
@given(_BODY)
def test_any_json_ingest_body_is_accepted_or_refused_typed(payload):
    """Every JSON value, lone surrogates included, is refused with an
    ApiError or accepted with ids the shard ring can route."""
    try:
        AdvisoryApp._validate_seq(payload)
        instances, busy = AdvisoryApp._validate_events(payload)
    except ApiError:
        return
    assert len(instances) == len(busy) > 0
    for instance in instances:
        assert 0 <= _RING.shard_for(instance) < _RING.n_shards


def test_unknown_routes_and_instances_are_404(served):
    _, base = served
    assert request("GET", f"{base}/nope")[0] == 404
    status, body = request("GET", f"{base}/v1/decisions?instance=ghost")
    assert status == 404 and body["error"]["kind"] == "UnknownResourceError"


def test_oversize_batch_is_413(served):
    app, base = served
    app.max_batch = 2
    events = [{"instance": f"i-{k}", "busy": True} for k in range(3)]
    status, body = request("POST", f"{base}/v1/events", {"events": events})
    assert status == 413 and body["error"]["kind"] == "PayloadTooLargeError"


def test_backpressure_is_429(served):
    app, base = served
    app.max_inflight = 0  # every ingest finds the queue full
    status, body = request(
        "POST", f"{base}/v1/events", {"events": [{"instance": "i-1", "busy": True}]}
    )
    assert status == 429 and body["error"]["kind"] == "ServerBusyError"
    app.max_inflight = 8
    status, _ = request(
        "POST", f"{base}/v1/events", {"events": [{"instance": "i-1", "busy": True}]}
    )
    assert status == 200


def test_metrics_exposition_format(served):
    _, base = served
    request(
        "POST", f"{base}/v1/events", {"events": [{"instance": "i-1", "busy": True}]}
    )
    status, text = request("GET", f"{base}/metrics")
    assert status == 200
    lines = text.splitlines()
    helps = [l for l in lines if l.startswith("# HELP ")]
    types = [l for l in lines if l.startswith("# TYPE ")]
    assert len(helps) == len(types) >= 5
    samples = [l for l in lines if l and not l.startswith("#")]
    for sample in samples:
        name_part, value = sample.rsplit(" ", 1)
        assert name_part and (value == "+Inf" or float(value) >= 0)
    assert any(l.startswith("repro_serve_events_total 1") for l in lines)
    assert any("repro_serve_ingest_seconds_bucket" in l and 'le="+Inf"' in l for l in lines)


def test_kill_and_restore_reproduces_decisions(tmp_path):
    """The acceptance guarantee: checkpoint, drop the server, rebuild
    from disk, and both the state rows and the remaining decision
    trajectory are identical to an uninterrupted run."""
    model = small_model()
    period = model.plan.period_hours
    ckpt = tmp_path / "fleet.ckpt"

    # Uninterrupted reference run.
    reference = build_app(model)
    trace = [(f"i-{k % 3}", (k * 7) % 3 != 0) for k in range(3 * period)]
    reference_decisions = []
    for instance, busy in trace:
        out = reference.ingest({"events": [{"instance": instance, "busy": busy}]})
        reference_decisions.extend(out["decisions"])

    # Interrupted run: checkpoint every event, "kill" halfway through.
    half = len(trace) // 2
    first = build_app(model, checkpoint_path=ckpt, checkpoint_interval=1)
    live_decisions = []
    for instance, busy in trace[:half]:
        out = first.ingest({"events": [{"instance": instance, "busy": busy}]})
        live_decisions.extend(out["decisions"])
    del first  # no clean shutdown — the periodic checkpoint must carry it

    second = build_app(model, checkpoint_path=ckpt, checkpoint_interval=1)
    assert second.events_ingested == half
    for instance, busy in trace[half:]:
        out = second.ingest({"events": [{"instance": instance, "busy": busy}]})
        live_decisions.extend(out["decisions"])

    assert live_decisions == reference_decisions
    assert second.fleet.rows() == reference.fleet.rows()
