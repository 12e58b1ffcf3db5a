"""Checkpoint format: atomic save, faithful restore, and loud refusal
on corrupt, version-skewed or incomplete files."""

import copy
import json

import numpy as np
import pytest

from repro.core.account import CostModel
from repro.core.clearing import ClearingModel
from repro.pricing.plan import PricingPlan
from repro.serve.checkpoint import (
    CHECKPOINT_FORMAT,
    checkpoint_from_payload,
    fleet_to_payload,
    restore_checkpoint,
    save_checkpoint,
)
from repro.serve.errors import CheckpointError
from repro.serve.state import STATE_VERSION, FleetState


def build_fleet(seed: int = 0, **options) -> FleetState:
    plan = PricingPlan(
        on_demand_hourly=0.5, upfront=9.0, alpha=0.3, period_hours=12
    )
    fleet = FleetState(CostModel(plan=plan, selling_discount=0.7), **options)
    rng = np.random.default_rng(seed)
    for _ in range(15):
        fleet.apply_events(["i-0", "i-1", "i-2"], list(rng.random(3) < 0.5))
    return fleet


def test_round_trip_preserves_fleet_and_counter(tmp_path):
    fleet = build_fleet()
    path = tmp_path / "fleet.ckpt"
    save_checkpoint(path, fleet, events_ingested=45)
    checkpoint = restore_checkpoint(path)
    restored, events = checkpoint.fleet, checkpoint.events_ingested
    assert events == 45
    assert restored.rows() == fleet.rows()
    assert restored.model == fleet.model
    assert restored.phis == fleet.phis
    # restored fleet advances identically
    fleet.apply_events(["i-1"], [True])
    restored.apply_events(["i-1"], [True])
    assert restored.rows() == fleet.rows()


def test_save_is_atomic_no_temp_left_behind(tmp_path):
    path = tmp_path / "fleet.ckpt"
    save_checkpoint(path, build_fleet())
    save_checkpoint(path, build_fleet(1))  # overwrite in place
    assert [p.name for p in tmp_path.iterdir()] == ["fleet.ckpt"]


def test_missing_file_is_a_checkpoint_error(tmp_path):
    with pytest.raises(CheckpointError, match="no checkpoint"):
        restore_checkpoint(tmp_path / "nope.ckpt")


def test_corrupt_json_is_a_checkpoint_error(tmp_path):
    path = tmp_path / "fleet.ckpt"
    for content in (
        b'{"format": 1, "state_ver',
        b"\xff\xfe{",  # not UTF-8
        b"[" * 50_000,  # nested past the recursion limit
    ):
        path.write_bytes(content)
        with pytest.raises(CheckpointError, match="corrupt"):
            restore_checkpoint(path)


@pytest.mark.parametrize("fmt", [2, 3, CHECKPOINT_FORMAT + 1])
def test_unknown_format_is_refused(tmp_path, fmt):
    payload = fleet_to_payload(build_fleet())
    payload["format"] = fmt
    path = tmp_path / "fleet.ckpt"
    path.write_text(json.dumps(payload), encoding="utf-8")
    with pytest.raises(CheckpointError, match="format"):
        restore_checkpoint(path)


def test_old_state_version_is_refused(tmp_path):
    payload = fleet_to_payload(build_fleet())
    payload["state_version"] = STATE_VERSION - 1
    path = tmp_path / "fleet.ckpt"
    path.write_text(json.dumps(payload), encoding="utf-8")
    with pytest.raises(CheckpointError, match="state machine"):
        restore_checkpoint(path)


def test_malformed_instances_are_refused(tmp_path):
    payload = fleet_to_payload(build_fleet())
    payload["instances"] = [{"bogus": True}]
    path = tmp_path / "fleet.ckpt"
    path.write_text(json.dumps(payload), encoding="utf-8")
    with pytest.raises(CheckpointError, match="malformed"):
        restore_checkpoint(path)


@pytest.mark.parametrize(
    "field",
    [
        "clearing", "policies", "events_ingested", "extra",  # payload
        "clear_at", "fate",  # every spot of every row
        "drawn", "rebuys",  # every row
    ],
)
def test_missing_format_4_field_is_refused(field):
    """Every field format 4 defines is required: none falls back to a
    default (a dropped ``clearing`` must not quietly turn clearing off)."""
    fleet = build_fleet(
        clearing=ClearingModel.for_regime("normal", seed=1),
        policies=("randomized:seed=7", "cancellation:phi=0.5,penalty=0.1"),
    )
    payload = fleet_to_payload(fleet, events_ingested=45, extra={"seq": 3})
    intact = checkpoint_from_payload(copy.deepcopy(payload))
    assert intact.fleet.rows() == fleet.rows()
    rows = payload["instances"]
    spots = [spot for row in rows for spot in row["spots"].values()]
    for holder in [payload, *rows, *spots]:
        holder.pop(field, None)
    with pytest.raises(CheckpointError, match="malformed"):
        checkpoint_from_payload(payload)
