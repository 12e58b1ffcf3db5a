"""Clearing through the serving layer.

Three guarantees are pinned here:

* :class:`~repro.serve.state.StreamTracker` with a clearing model is the
  exact online form of ``run_fast(..., clearing=...)`` — same decisions,
  same listings, same cost breakdown, at every trace prefix.
* :class:`~repro.serve.state.FleetState` settles SELL-rule hits through
  the WAIT_FOR_CLEAR lifecycle deterministically: replaying the same
  events yields the same listings, fates, and settle hours.
* A checkpoint written *while listings are open* restores to a fleet
  that settles them identically — the serve layer's
  kill-and-restore guarantee extended to mid-flight marketplace state.
"""

import json

import numpy as np
import pytest

from repro.core.account import CostModel, HourlyFeeMode
from repro.core.clearing import LIQUIDITY_REGIMES, ClearingModel
from repro.core.fastsim import FastPolicyKind, run_fast
from repro.pricing.plan import PricingPlan
from repro.serve.checkpoint import (
    CHECKPOINT_FORMAT,
    checkpoint_from_payload,
    fleet_to_payload,
    restore_checkpoint,
    save_checkpoint,
)
from repro.serve.errors import CheckpointError, ServeStateError
from repro.serve.server import build_app
from repro.serve.state import FleetState, StreamTracker, Verdict, run_stream

PERIOD = 64
HORIZON = 200


def small_model(fee_mode: HourlyFeeMode = HourlyFeeMode.ACTIVE) -> CostModel:
    plan = PricingPlan(
        on_demand_hourly=0.6, upfront=100.0, alpha=0.25, period_hours=PERIOD
    )
    return CostModel(
        plan=plan, selling_discount=0.8, marketplace_fee=0.05, fee_mode=fee_mode
    )


def trace(seed: int):
    rng = np.random.default_rng(seed)
    d = rng.integers(0, 6, size=HORIZON)
    n = (rng.random(HORIZON) < 0.25) * rng.integers(0, 4, size=HORIZON)
    return d, n


# ----------------------------------------------------------------------
# StreamTracker ≡ run_fast under clearing
# ----------------------------------------------------------------------


@pytest.mark.parametrize("regime", sorted(LIQUIDITY_REGIMES))
@pytest.mark.parametrize("phi", [0.25, 0.5, 0.75])
def test_stream_matches_fast_under_clearing(regime, phi):
    model = small_model()
    clearing = ClearingModel.for_regime(regime, seed=11)
    for seed in range(8):
        d, n = trace(seed)
        fast = run_fast(
            d, n, model, phi=phi, clearing=clearing, clearing_key=seed
        )
        tracker = run_stream(
            d, n, model, phi=phi, clearing=clearing, clearing_key=seed
        )
        assert tracker.sales == fast.sales
        assert tracker.breakdown == fast.breakdown
        assert tracker.listings == fast.listings
        assert tracker.instances_cleared == fast.instances_cleared
        assert tracker.listings_expired == fast.listings_expired
        assert tracker.listings_open == fast.listings_open


@pytest.mark.parametrize("fee_mode", list(HourlyFeeMode))
def test_stream_prefix_costs_match_fast(fee_mode):
    """Every prefix of the stream equals the batch run on that prefix —
    clearing income and the physical billing split included."""
    model = small_model(fee_mode)
    clearing = ClearingModel.for_regime("normal", seed=5)
    d, n = trace(3)
    tracker = StreamTracker(model, phi=0.5, clearing=clearing, clearing_key=3)
    checkpoints = (40, 90, 130, HORIZON)
    for hour in range(HORIZON):
        tracker.observe(int(d[hour]), int(n[hour]))
        if tracker.hour in checkpoints:
            fast = run_fast(
                d[: tracker.hour],
                n[: tracker.hour],
                model,
                phi=0.5,
                clearing=clearing,
                clearing_key=3,
            )
            assert tracker.breakdown == fast.breakdown
            assert tracker.listings == fast.listings


def test_stream_instant_regime_equals_no_clearing():
    model = small_model()
    d, n = trace(7)
    instant = run_stream(
        d, n, model, phi=0.75, clearing=ClearingModel.instant(), clearing_key=7
    )
    plain = run_stream(d, n, model, phi=0.75)
    assert instant.breakdown == plain.breakdown
    assert instant.sales == plain.sales
    assert instant.instances_cleared == plain.instances_sold
    assert plain.listings == ()


def test_stream_tracker_rejects_bad_clearing():
    with pytest.raises(ServeStateError):
        StreamTracker(small_model(), clearing="normal")  # type: ignore[arg-type]


# ----------------------------------------------------------------------
# FleetState listing lifecycle
# ----------------------------------------------------------------------


def fleet_events(seed: int, hours: int, ids):
    rng = np.random.default_rng(seed)
    return [list(rng.random(len(ids)) < 0.3) for _ in range(hours)]


def test_fleet_wait_for_clear_settles_deterministically():
    model = small_model()
    clearing = ClearingModel.for_regime("thin", seed=3)
    ids = [f"i-{k}" for k in range(10)]
    events = fleet_events(0, 3 * PERIOD, ids)

    def play():
        fleet = FleetState(model, clearing=clearing)
        decisions = []
        for busy in events:
            decisions.extend(fleet.apply_events(ids, busy))
        return fleet, decisions

    fleet_a, decisions_a = play()
    fleet_b, decisions_b = play()
    assert decisions_a == decisions_b
    assert fleet_a.rows() == fleet_b.rows()

    opened = [d for d in decisions_a if d.listing == "opened"]
    resolved = [d for d in decisions_a if d.listing in ("cleared", "expired")]
    assert opened, "expected some listings in a thin market"
    for decision in opened:
        assert decision.verdict is Verdict.WAIT_FOR_CLEAR
        assert decision.waited_hours == 0
    for decision in resolved:
        if decision.waited_hours > 0:
            assert decision.age > decision.working_hours >= 0
        if decision.listing == "cleared":
            assert decision.verdict is Verdict.SELL
        else:
            assert decision.verdict is Verdict.KEEP
    # Every opened listing either resolved or is still waiting.
    still_waiting = sum(
        1
        for tally in fleet_a.verdict_counts().values()
        for verdict, count in tally.items()
        if verdict == Verdict.WAIT_FOR_CLEAR.value
        for _ in range(count)
    )
    settled_after_wait = sum(1 for d in resolved if d.waited_hours > 0)
    assert len(opened) == settled_after_wait + still_waiting


def test_fleet_without_clearing_never_waits():
    model = small_model()
    ids = ["i-0", "i-1"]
    fleet = FleetState(model)
    decisions = []
    for busy in fleet_events(1, 2 * PERIOD, ids):
        decisions.extend(fleet.apply_events(ids, busy))
    assert all(d.listing is None for d in decisions)
    assert all(d.verdict is not Verdict.WAIT_FOR_CLEAR for d in decisions)


def test_fleet_rejects_bad_clearing():
    with pytest.raises(ServeStateError):
        FleetState(small_model(), clearing=0.5)  # type: ignore[arg-type]


# ----------------------------------------------------------------------
# Checkpointing open listings (format 3)
# ----------------------------------------------------------------------


def test_kill_and_restore_with_open_listings(tmp_path):
    """A checkpoint taken while listings are open restores to a fleet
    that settles them exactly as the uninterrupted run would."""
    model = small_model()
    clearing = ClearingModel.for_regime("thin", seed=9)
    ids = [f"i-{k}" for k in range(8)]
    events = fleet_events(4, 3 * PERIOD, ids)
    cut = PERIOD // 2 + 5  # past the 0.25 decision age: listings open

    straight = FleetState(model, clearing=clearing)
    full = []
    for busy in events:
        full.extend(straight.apply_events(ids, busy))

    first = FleetState(model, clearing=clearing)
    before = []
    for busy in events[:cut]:
        before.extend(first.apply_events(ids, busy))
    open_listings = sum(
        tally.get(Verdict.WAIT_FOR_CLEAR.value, 0)
        for tally in first.verdict_counts().values()
    )
    assert open_listings > 0, "the cut must land while listings are open"

    path = tmp_path / "fleet.ckpt"
    save_checkpoint(path, first, events_ingested=cut * len(ids))
    payload = json.loads(path.read_text())
    assert payload["format"] == CHECKPOINT_FORMAT
    assert payload["clearing"] == clearing.to_payload()

    restored = restore_checkpoint(path).fleet
    assert restored.clearing == clearing
    assert restored.rows() == first.rows()
    after = []
    for busy in events[cut:]:
        after.extend(restored.apply_events(ids, busy))
    assert before + after == full
    assert restored.rows() == straight.rows()
    assert restored.cost_counts() == straight.cost_counts()


def test_kill_and_restore_through_advisory_app(tmp_path):
    """The same guarantee through build_app: the restored server keeps
    settling the mid-flight listings it checkpointed."""
    model = small_model()
    clearing = ClearingModel.for_regime("normal", seed=2)
    ids = [f"i-{k}" for k in range(6)]
    events = fleet_events(6, 2 * PERIOD, ids)
    cut = PERIOD // 2 + 3
    path = tmp_path / "serve.ckpt"

    def batch(busy):
        return {
            "events": [
                {"instance": instance, "busy": bool(flag)}
                for instance, flag in zip(ids, busy)
            ]
        }

    reference = build_app(model, clearing=clearing)
    reference_decisions = []
    for busy in events:
        reference_decisions.extend(reference.ingest(batch(busy))["decisions"])

    first = build_app(
        model, checkpoint_path=path, checkpoint_interval=1, clearing=clearing
    )
    seen = []
    for busy in events[:cut]:
        seen.extend(first.ingest(batch(busy))["decisions"])

    second = build_app(
        model, checkpoint_path=path, checkpoint_interval=1, clearing=clearing
    )
    assert second.fleet.clearing == clearing
    for busy in events[cut:]:
        seen.extend(second.ingest(batch(busy))["decisions"])
    assert seen == reference_decisions
    waits = [d for d in seen if d["verdict"] == Verdict.WAIT_FOR_CLEAR.value]
    assert waits and all(d["listing"] == "opened" for d in waits)
    resolved = [d for d in seen if d.get("listing") in ("cleared", "expired")]
    assert any(d["waited_hours"] > 0 for d in resolved)


def test_unknown_format_still_refused():
    payload = fleet_to_payload(FleetState(small_model()))
    payload["format"] = CHECKPOINT_FORMAT + 1
    with pytest.raises(CheckpointError):
        checkpoint_from_payload(payload)


_DROP = object()


@pytest.mark.parametrize(
    "section, key, value",
    [
        (None, "seed", 7.9),
        (None, "seed", True),
        (None, "seed", _DROP),
        (None, "max_open_hours", 4.5),
        (None, "max_open_hours", _DROP),
        (None, "liquidity", _DROP),
        (None, "base_hazard", "0.02"),
        (None, "sensitivity", True),
        ("schedule", "step_hours", 24.5),
        ("schedule", "step_hours", _DROP),
        ("schedule", "kind", _DROP),
        ("schedule", "ladder", _DROP),
    ],
)
def test_edited_clearing_section_is_refused(tmp_path, section, key, value):
    """A restore must not round, coerce or default the clearing model:
    each of these edits would silently move every later clearing draw."""
    clearing = ClearingModel.for_regime("normal", seed=7, max_open_hours=12)
    path = tmp_path / "fleet.ckpt"
    save_checkpoint(path, FleetState(small_model(), clearing=clearing))
    assert restore_checkpoint(path).fleet.clearing == clearing
    payload = json.loads(path.read_text())
    target = payload["clearing"]
    if section is not None:
        target = target[section]
    if value is _DROP:
        del target[key]
    else:
        target[key] = value
    path.write_text(json.dumps(payload))
    with pytest.raises(CheckpointError):
        restore_checkpoint(path)


def test_wait_row_without_clearing_model_is_refused():
    model = small_model()
    clearing = ClearingModel.for_regime("frozen", seed=1)
    fleet = FleetState(model, clearing=clearing)
    ids = ["i-0"]
    for busy in fleet_events(2, PERIOD - 2, ids):
        fleet.apply_events(ids, busy)
    payload = fleet_to_payload(fleet)
    assert any(
        spot["verdict"] == 3
        for row in payload["instances"]
        for spot in row["spots"].values()
    ), "expected an open listing in a frozen market"
    payload["clearing"] = None
    with pytest.raises(CheckpointError):
        checkpoint_from_payload(payload)


# ----------------------------------------------------------------------
# Metrics and response shape
# ----------------------------------------------------------------------


def test_listing_metrics_and_decision_json(tmp_path):
    model = small_model()
    clearing = ClearingModel.for_regime("deep", seed=4)
    app = build_app(model, clearing=clearing)
    ids = [f"i-{k}" for k in range(12)]
    for busy in fleet_events(8, 2 * PERIOD, ids):
        app.ingest(
            {
                "events": [
                    {"instance": instance, "busy": bool(flag)}
                    for instance, flag in zip(ids, busy)
                ]
            }
        )
    rendered = app.render_metrics()
    assert "repro_serve_listings_open_total" in rendered
    assert "repro_serve_listings_cleared_total" in rendered
    assert "repro_serve_listings_expired_total" in rendered
    assert "repro_serve_clearing_delay_hours" in rendered

    def total(name):
        return sum(
            float(line.rsplit(" ", 1)[1])
            for line in rendered.splitlines()
            if line.startswith(f"{name}{{") or line == f"{name} 0.0"
            or line.startswith(f"{name} ")
        )

    opened = total("repro_serve_listings_open_total")
    cleared = total("repro_serve_listings_cleared_total")
    expired = total("repro_serve_listings_expired_total")
    assert opened > 0
    still_open = sum(
        tally.get(Verdict.WAIT_FOR_CLEAR.value, 0)
        for tally in app.fleet.verdict_counts().values()
    )
    assert opened == cleared + expired + still_open


def test_decision_json_omits_listing_without_clearing():
    app = build_app(small_model())
    ids = ["i-0"]
    bodies = []
    for busy in fleet_events(9, PERIOD, ids):
        bodies.extend(app.ingest(
            {"events": [{"instance": "i-0", "busy": bool(busy[0])}]}
        )["decisions"])
    assert bodies
    for body in bodies:
        assert "listing" not in body
        assert "waited_hours" not in body
