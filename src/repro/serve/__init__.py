"""Online sell/keep advisory service (the serving layer).

The batch engines under :mod:`repro.core` answer "should this instance
have been sold?" by replaying a whole trace. This package answers the
*online* form of the question — the one the paper's algorithms actually
pose — from a live feed of usage events:

* :mod:`repro.serve.state` — incremental decision state. A
  :class:`~repro.serve.state.StreamTracker` ingests one usage event per
  hour and reproduces the batch :func:`~repro.core.fastsim.run_fast`
  engine's sell decisions and costs exactly (the differential guarantee,
  property-tested in ``tests/serve/``); a
  :class:`~repro.serve.state.FleetState` applies batched events across
  many independently-tracked instances with vectorised numpy updates.
* :mod:`repro.serve.checkpoint` — format-versioned, atomic snapshot and
  restore of fleet state, so a restarted service never replays history.
* :mod:`repro.serve.metrics` — a tiny counter/gauge/histogram registry
  rendered in Prometheus text exposition format.
* :mod:`repro.serve.envelope` — the versioned JSON envelope
  (``{"schema": 2, ...}``) every serve endpoint speaks, with the single
  error shape ``{"schema": 2, "error": {"kind", "message"}}``.
* :mod:`repro.serve.server` — the stdlib HTTP JSON API
  (``POST /v1/events``, ``GET /v1/decisions``, ``GET /v1/costs``,
  ``GET /healthz``, ``GET /metrics``) with bounded-admission
  backpressure, started by ``python -m repro.serve``.
* :mod:`repro.serve.shard` — the sharded cluster: a router
  consistent-hashing instance ids onto N supervised ``repro.serve``
  worker subprocesses, with exactly-once fan-out, per-shard
  WAL + snapshot-backed restart, and merged reads that are
  bit-identical to a single process (``python -m repro.serve
  --shards N``).
* :mod:`repro.serve.transport` — the cluster's router→worker hop:
  JSON payloads in length-prefixed CRC-checked frames, one
  selector-loop hub multiplexing persistent pipelined worker
  connections, and the worker-side frame server.
* :mod:`repro.serve.wal` — the per-worker write-ahead log: fsync'd
  JSON record per applied batch, snapshot compaction, torn-tail
  healing, and version-gated replay.

HTTP bodies, shard frames, WAL records and checkpoints all use one
encoding, stdlib JSON (:func:`~repro.serve.envelope.decode_json` is the
one decode, mapping any failure to the caller's typed error).

See ``docs/serving.md`` for the API schema and the state model.
"""

from repro.serve.checkpoint import (
    CHECKPOINT_FORMAT,
    Checkpoint,
    restore_checkpoint,
    save_checkpoint,
)
from repro.serve.envelope import SCHEMA_VERSION, envelope, error_envelope
from repro.serve.errors import (
    ApiError,
    CheckpointError,
    CodecError,
    FrameError,
    FrameTooLargeError,
    PayloadTooLargeError,
    RequestValidationError,
    SchemaSkewError,
    ServeError,
    ServeStateError,
    ServerBusyError,
    ShardError,
    ShardProtocolError,
    ShardUnavailableError,
    TransportClosedError,
    TransportError,
    UnknownResourceError,
    WalCorruptionError,
    WalError,
    WalTruncatedError,
    WalVersionError,
)
from repro.serve.metrics import Counter, Gauge, Histogram, MetricsRegistry
from repro.serve.transport import (
    WIRE_VERSION,
    BinaryServer,
    FrameDecoder,
    TransportHub,
    WorkerChannel,
    encode_frame,
)
from repro.serve.wal import (
    WAL_FORMAT,
    Wal,
    WalEntry,
    WalRecovery,
    read_wal,
)
from repro.serve.state import (
    STATE_VERSION,
    FleetDecision,
    FleetState,
    StreamDecision,
    StreamTracker,
    Verdict,
    breakdown_from_counts,
    run_stream,
)

__all__ = [
    "ApiError",
    "BinaryServer",
    "CHECKPOINT_FORMAT",
    "Checkpoint",
    "CheckpointError",
    "CodecError",
    "Counter",
    "FleetDecision",
    "FleetState",
    "FrameDecoder",
    "FrameError",
    "FrameTooLargeError",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "PayloadTooLargeError",
    "RequestValidationError",
    "SCHEMA_VERSION",
    "STATE_VERSION",
    "SchemaSkewError",
    "ServeError",
    "ServeStateError",
    "ServerBusyError",
    "ShardError",
    "ShardProtocolError",
    "ShardUnavailableError",
    "StreamDecision",
    "StreamTracker",
    "TransportClosedError",
    "TransportError",
    "TransportHub",
    "UnknownResourceError",
    "Verdict",
    "WAL_FORMAT",
    "WIRE_VERSION",
    "Wal",
    "WalCorruptionError",
    "WalEntry",
    "WalError",
    "WalRecovery",
    "WalTruncatedError",
    "WalVersionError",
    "WorkerChannel",
    "breakdown_from_counts",
    "encode_frame",
    "envelope",
    "error_envelope",
    "read_wal",
    "restore_checkpoint",
    "run_stream",
    "save_checkpoint",
]
