"""Format-versioned, atomic checkpointing of fleet state.

A checkpoint is one JSON document holding everything needed to resume
the advisory service without replaying history: the pricing model, the
decision fractions, and every instance's (age, working hours, per-φ
verdict) row. Two version fields gate a restore:

* ``format`` — the payload's shape (this module's concern);
* ``state_version`` — the decision semantics of
  :mod:`repro.serve.state`; a checkpoint written by an older state
  machine is refused rather than silently reinterpreted.

Writes follow the same atomic pattern as
:class:`repro.parallel.cache.ResultCache`: serialise to a temp file in
the target directory, then ``os.replace`` — a crash mid-write leaves the
previous checkpoint intact, and concurrent readers never observe a torn
file. Unlike the result cache, a bad checkpoint is *not* a soft miss:
restoring from a corrupt or incompatible file raises a
:class:`~repro.serve.errors.CheckpointError` so the operator decides,
instead of the service silently starting empty.
"""

from __future__ import annotations

import contextlib
import json
import os
import tempfile
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Optional

from repro.core.account import CostModel, HourlyFeeMode
from repro.core.clearing import ClearingModel
from repro.errors import SimulationError
from repro.pricing.plan import PricingPlan
from repro.serve.envelope import decode_json
from repro.serve.errors import CheckpointError, ServeStateError
from repro.serve.state import STATE_VERSION, FleetState

#: Version of the checkpoint payload shape; bump on structural changes.
#: Format 2 added per-instance ``working_in_term`` (exact cost
#: accounting) and an opaque ``extra`` dict (shard ingest bookkeeping);
#: format 3 the fleet's clearing model and per-spot listing state
#: (``clear_at``/``fate``); format 4 the fleet's canonical policy specs
#: plus per-instance randomized draws (``drawn``) and cancellation
#: re-buy state (``rebuys``). Only this format restores; every field it
#: defines is required.
CHECKPOINT_FORMAT = 4


@dataclass
class Checkpoint:
    """Everything a restored checkpoint holds."""

    fleet: FleetState
    events_ingested: int = 0
    #: Opaque JSON-ready bookkeeping persisted alongside the fleet —
    #: the shard worker keeps its ingest dedupe state (last applied
    #: ``seq`` and the response it produced) here so a retried batch
    #: replays the identical answer after a crash.
    extra: "Dict[str, object]" = field(default_factory=dict)


def fleet_to_payload(
    fleet: FleetState,
    events_ingested: int = 0,
    extra: "Optional[Dict[str, object]]" = None,
) -> dict:
    """JSON-ready checkpoint payload of one fleet."""
    plan = fleet.model.plan
    return {
        "format": CHECKPOINT_FORMAT,
        "state_version": STATE_VERSION,
        "model": {
            "plan": {
                "on_demand_hourly": plan.on_demand_hourly,
                "upfront": plan.upfront,
                "alpha": plan.alpha,
                "period_hours": plan.period_hours,
                "name": plan.name,
            },
            "selling_discount": fleet.model.selling_discount,
            "marketplace_fee": fleet.model.marketplace_fee,
            "fee_mode": fleet.model.fee_mode.value,
        },
        "threshold_scale": fleet.threshold_scale,
        "phis": list(fleet.phis),
        # Canonical spec strings, never pickles: the checkpoint carries
        # the construction recipe (seed, spots, penalty, ...) so a
        # restored fleet re-draws and re-watches identically.
        "policies": [spec.canonical() for spec in fleet.policy_specs],
        "clearing": (
            fleet.clearing.to_payload() if fleet.clearing is not None else None
        ),
        "events_ingested": int(events_ingested),
        "extra": dict(extra) if extra else {},
        "instances": fleet.snapshot_instances(),
    }


def checkpoint_from_payload(payload: object) -> Checkpoint:
    """Rebuild a :class:`Checkpoint` from a checkpoint payload."""
    if not isinstance(payload, dict):
        raise CheckpointError("checkpoint payload is not a JSON object")
    fmt = payload.get("format")
    if fmt != CHECKPOINT_FORMAT:
        raise CheckpointError(
            f"checkpoint format {fmt!r} is not supported "
            f"(this build reads format {CHECKPOINT_FORMAT})"
        )
    state_version = payload.get("state_version")
    if state_version != STATE_VERSION:
        raise CheckpointError(
            f"checkpoint was written by state machine v{state_version!r}; "
            f"this build is v{STATE_VERSION} — decisions could differ, "
            "refusing to restore"
        )
    try:
        model_spec = payload["model"]
        plan = PricingPlan(**model_spec["plan"])
        model = CostModel(
            plan=plan,
            selling_discount=float(model_spec["selling_discount"]),
            marketplace_fee=float(model_spec["marketplace_fee"]),
            fee_mode=HourlyFeeMode(model_spec["fee_mode"]),
        )
        clearing_spec = payload["clearing"]
        clearing = (
            ClearingModel.from_payload(clearing_spec)
            if clearing_spec is not None
            else None
        )
        policies = payload["policies"]
        if not isinstance(policies, (list, tuple)):
            raise CheckpointError(
                f"checkpoint 'policies' must be an array of spec strings, "
                f"got {type(policies).__name__}"
            )
        fleet = FleetState(
            model,
            phis=tuple(float(phi) for phi in payload["phis"]),
            threshold_scale=float(payload["threshold_scale"]),
            clearing=clearing,
            policies=tuple(str(spec) for spec in policies),
        )
        fleet.restore_instances(payload["instances"])
        events_ingested = int(payload["events_ingested"])
        extra = payload["extra"]
        if not isinstance(extra, dict):
            raise CheckpointError(
                f"checkpoint 'extra' must be an object, got {type(extra).__name__}"
            )
    except CheckpointError:
        raise
    except (
        KeyError,
        TypeError,
        ValueError,
        ServeStateError,
        SimulationError,
    ) as error:
        raise CheckpointError(f"malformed checkpoint payload: {error}") from error
    return Checkpoint(fleet=fleet, events_ingested=events_ingested, extra=extra)


def save_checkpoint(
    path: "str | Path",
    fleet: FleetState,
    events_ingested: int = 0,
    extra: "Optional[Dict[str, object]]" = None,
    fsync: bool = False,
) -> Path:
    """Atomically write ``fleet`` to ``path``; returns the path.

    With ``fsync=True`` the temp file is synced before the rename (and
    the directory entry after it, best-effort) — required by the WAL's
    compaction ordering, where the snapshot must be durable *before*
    the log tail covering it is dropped.
    """
    target = Path(path)
    target.parent.mkdir(parents=True, exist_ok=True)
    encoded = json.dumps(fleet_to_payload(fleet, events_ingested, extra))
    fd, temp_name = tempfile.mkstemp(
        prefix=f".{target.name}-", suffix=".tmp", dir=target.parent
    )
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as handle:
            handle.write(encoded)
            if fsync:
                handle.flush()
                os.fsync(handle.fileno())
        os.replace(temp_name, target)
        if fsync:
            _fsync_directory(target.parent)
    except OSError:
        with contextlib.suppress(OSError):
            os.unlink(temp_name)
        raise
    return target


def _fsync_directory(directory: Path) -> None:
    """Best-effort directory fsync so a rename survives power loss."""
    try:
        dir_fd = os.open(directory, os.O_RDONLY)
    except OSError:
        return
    try:
        os.fsync(dir_fd)
    except OSError:  # repro-lint: disable=REP007 - platform without dir fsync
        pass
    finally:
        os.close(dir_fd)


def restore_checkpoint(path: "str | Path") -> Checkpoint:
    """Restore a full :class:`Checkpoint` from ``path``.

    Raises :class:`~repro.serve.errors.CheckpointError` when the file is
    missing, unparseable, or written by an incompatible version.
    """
    target = Path(path)
    try:
        data = target.read_bytes()
    except FileNotFoundError as error:
        raise CheckpointError(f"no checkpoint at {target}") from error
    except OSError as error:
        raise CheckpointError(f"checkpoint {target} is unreadable: {error}") from error
    payload = decode_json(data, CheckpointError, f"corrupt checkpoint {target}")
    return checkpoint_from_payload(payload)

