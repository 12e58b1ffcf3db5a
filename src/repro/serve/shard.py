"""Sharded advisory cluster: one router, N supervised worker processes.

Topology
--------
::

                          POST /v1/events
                                │
                        ┌───────▼────────┐
                        │  ShardRouter   │  consistent-hash ring over
                        │ (this process) │  instance ids (blake2b,
                        └───┬───┬───┬────┘  virtual nodes)
                 seq-stamped│   │   │ per-shard sub-batches,
                   envelopes│   │   │ concurrent dispatch + retry
                        ┌───▼┐ ┌▼──┐ ┌▼──┐
                        │ S0 │ │S1 │ │S2 │   unmodified AdvisoryApp
                        └─┬──┘ └┬──┘ └┬──┘   subprocesses (`-m repro.serve`)
                          │     │     │
                        ckpt0 ckpt1 ckpt2    per-shard atomic checkpoints

Each worker is a ``python -m repro.serve`` process owning the
:class:`~repro.serve.server.AdvisoryApp` + FleetState for its id
subset. The router→worker hop is one persistent connection per worker
speaking the length-prefixed, CRC-checked frames of
:mod:`repro.serve.transport`, multiplexed by a single selector-loop
:class:`~repro.serve.transport.TransportHub`; requests pipeline over
the link instead of paying a TCP + HTTP setup per call. Durability is
a per-worker write-ahead log (:mod:`repro.serve.wal`): each applied
batch is fsync'd to the WAL before the reply, the JSON snapshot is
rewritten only every ``snapshot_interval`` batches, and a restarted
worker replays just the WAL tail past its snapshot — never full
history.

The router:

* partitions an ingest batch by :class:`HashRing` (event order within a
  shard is preserved), fans the sub-batches out concurrently, and
  merges the replies;
* stamps every forwarded batch with a per-shard monotonic ``seq`` —
  a worker that already applied that seq replays its stored response
  verbatim, so router-level retries are exactly-once even across a
  worker ``kill -9`` + restart;
* retries each shard independently with capped exponential backoff,
  restarting a dead worker from its checkpoint first
  (:class:`ShardSupervisor`);
* answers ``207`` with a per-shard status map when only some shards
  succeed (``200`` all ok, ``503`` none ok);
* reports ``"degraded"`` health while any shard is down and merges
  ``/metrics`` expositions under a ``shard="N"`` label;
* sums the shards' integer cost counts and prices them once
  (:func:`~repro.serve.state.costs_body`), so ``/v1/costs`` is
  bit-identical to a single-process server over the same events.

Everything on the wire is the versioned envelope of
:mod:`repro.serve.envelope`; a version-skewed reply aborts the call
with :class:`~repro.serve.errors.ShardProtocolError` instead of being
merged.

``python -m repro.serve --shards N --checkpoint DIR`` starts a cluster
(see :func:`run_cluster`).
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import os
import re
import signal
import subprocess
import sys
import tempfile
import threading
import time
from bisect import bisect_right
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Set, Tuple

from repro._version import __version__
from repro.core.account import CostModel
from repro.core.breakeven import PAPER_DECISION_FRACTIONS
from repro.core.policyspec import parse_policies
from repro.errors import PolicyError
from repro.pricing.catalog import paper_experiment_plan
from repro.serve.checkpoint import save_checkpoint
from repro.serve.envelope import (
    SCHEMA_VERSION,
    envelope,
    error_envelope,
    error_kind,
    require_schema,
)
from repro.serve.errors import (
    ApiError,
    CheckpointError,
    PayloadTooLargeError,
    SchemaSkewError,
    ServeError,
    ServerBusyError,
    ShardError,
    ShardProtocolError,
    ShardUnavailableError,
    TransportClosedError,
    UnknownResourceError,
)
from repro.serve.metrics import TRANSPORT_BUCKETS, MetricsRegistry
from repro.serve.server import (
    DEFAULT_MAX_BATCH,
    DEFAULT_MAX_INFLIGHT,
    AdvisoryApp,
    AdvisoryRequestHandler,
    AdvisoryServer,
    build_app,
)
from repro.serve.state import FleetState, ServeStateError, costs_body
from repro.serve.transport import BinaryServer, TransportHub, WorkerChannel
from repro.serve.wal import Wal, WalRecovery

#: Virtual nodes per shard on the hash ring; more points smooth the
#: id distribution at negligible memory cost.
DEFAULT_VNODES = 64

#: Attempts per shard call (first try + retries).
DEFAULT_ATTEMPTS = 4

#: Exponential backoff between attempts: base * 2^k, capped.
DEFAULT_BACKOFF_BASE = 0.05
DEFAULT_BACKOFF_CAP = 1.0

#: Per-request socket timeout toward a shard, seconds.
DEFAULT_REQUEST_TIMEOUT = 30.0

#: Binary workers snapshot + compact the WAL every this many applied
#: batches; a restart replays at most this many from the tail.
DEFAULT_SNAPSHOT_INTERVAL = 64

_LISTEN_RE = re.compile(r"listening on binary://([0-9.]+):(\d+)")


def _hash64(key: str) -> int:
    """Stable 64-bit hash (blake2b) — identical across processes/runs."""
    digest = hashlib.blake2b(key.encode("utf-8"), digest_size=8).digest()
    return int.from_bytes(digest, "big")


class HashRing:
    """Consistent-hash ring mapping instance ids onto shard indices.

    Each shard owns ``vnodes`` points on a 64-bit ring; an id belongs to
    the shard owning the first point at or after its hash (wrapping).
    The mapping depends only on ``(n_shards, vnodes)``, never on process
    state, so every router incarnation routes identically.
    """

    def __init__(self, n_shards: int, vnodes: int = DEFAULT_VNODES) -> None:
        if n_shards < 1:
            raise ServeStateError(f"n_shards must be >= 1, got {n_shards!r}")
        if vnodes < 1:
            raise ServeStateError(f"vnodes must be >= 1, got {vnodes!r}")
        self.n_shards = n_shards
        self.vnodes = vnodes
        points: "List[Tuple[int, int]]" = []
        for shard in range(n_shards):
            for vnode in range(vnodes):
                points.append((_hash64(f"shard:{shard}:vnode:{vnode}"), shard))
        points.sort()
        self._points = [point for point, _ in points]
        self._owners = [shard for _, shard in points]

    def shard_for(self, instance_id: str) -> int:
        """The shard index owning ``instance_id``."""
        position = bisect_right(self._points, _hash64(instance_id))
        if position == len(self._points):
            position = 0
        return self._owners[position]


class ShardSupervisor:
    """Owns one worker subprocess: spawn, port discovery, restart, stop.

    The worker is a ``python -m repro.serve`` process bound to an
    ephemeral port, running the binary frame server with a write-ahead
    log: every applied batch is durable in the WAL (events *and* the
    batch's response) before the router sees the reply, the JSON
    snapshot is compacted in every ``snapshot_interval`` batches, and a
    ``kill -9`` at any point is recoverable by replaying the WAL tail
    and retrying the in-flight seq.
    """

    def __init__(
        self,
        index: int,
        checkpoint_path: "str | Path",
        host: str = "127.0.0.1",
        max_batch: int = DEFAULT_MAX_BATCH,
        boot_timeout: float = 30.0,
        wal_path: "str | Path | None" = None,
        snapshot_interval: int = DEFAULT_SNAPSHOT_INTERVAL,
        wal_fsync: str = "always",
    ) -> None:
        self.index = index
        self.checkpoint_path = Path(checkpoint_path)
        self.host = host
        self.max_batch = max_batch
        self.boot_timeout = boot_timeout
        self.wal_path = (
            Path(wal_path)
            if wal_path is not None
            else self.checkpoint_path.with_suffix(".wal")
        )
        self.snapshot_interval = snapshot_interval
        self.wal_fsync = wal_fsync
        #: The worker's announced ``(host, port)``.
        self.worker_address: "Optional[Tuple[str, int]]" = None
        #: Test hook: when set, the router dials this address instead of
        #: the worker's own — the fault-injection proxy installs itself
        #: here and forwards to :attr:`worker_address`.
        self.address_override: "Optional[Tuple[str, int]]" = None
        self.process: "Optional[subprocess.Popen[str]]" = None
        self.restarts = 0
        # Lifecycle writes (process/restarts) are serialized:
        # restart() runs on router request threads, and two threads that
        # both see a dead worker must not both spawn a replacement.
        self._lifecycle_lock = threading.Lock()

    @property
    def dial_address(self) -> "Optional[Tuple[str, int]]":
        """Where the router should connect (override wins, for tests)."""
        if self.address_override is not None:
            return self.address_override
        return self.worker_address

    def start(self) -> None:
        """Spawn the worker and block until it announces its port."""
        with self._lifecycle_lock:
            self._start_locked()

    def _start_locked(self) -> None:
        """Spawn logic; caller holds ``_lifecycle_lock``."""
        if self.alive():
            return
        command = [
            sys.executable,
            "-m",
            "repro.serve",
            "--host",
            self.host,
            "--port",
            "0",
            "--checkpoint",
            str(self.checkpoint_path),
            "--max-batch",
            str(self.max_batch),
            "--wal",
            str(self.wal_path),
            "--snapshot-interval",
            str(self.snapshot_interval),
            "--wal-fsync",
            self.wal_fsync,
        ]
        env = dict(os.environ)
        package_root = str(Path(__file__).resolve().parents[2])
        existing = env.get("PYTHONPATH")
        env["PYTHONPATH"] = (
            package_root if not existing else package_root + os.pathsep + existing
        )
        self.process = subprocess.Popen(  # noqa: S603 - fixed argv, own interpreter
            command,
            stdout=subprocess.DEVNULL,
            stderr=subprocess.PIPE,
            text=True,
            env=env,
        )
        deadline = time.perf_counter() + self.boot_timeout
        stderr = self.process.stderr
        if stderr is None:  # pragma: no cover - Popen(stderr=PIPE) guarantee
            raise ShardUnavailableError(
                f"shard {self.index} spawned without a stderr pipe"
            )
        while True:
            line = stderr.readline()
            if line == "":
                raise ShardUnavailableError(
                    f"shard {self.index} exited during boot "
                    f"(code {self.process.poll()})"
                )
            match = _LISTEN_RE.search(line)
            if match:
                announced_host, announced_port = match.groups()
                self.worker_address = (announced_host, int(announced_port))
                break
            if time.perf_counter() > deadline:
                self._stop_locked()
                raise ShardUnavailableError(
                    f"shard {self.index} did not announce a port within "
                    f"{self.boot_timeout}s"
                )
        drain = threading.Thread(
            target=self._drain_stderr,
            args=(stderr,),
            daemon=True,
            name=f"repro-shard-{self.index}-stderr",
        )
        drain.start()

    @staticmethod
    def _drain_stderr(stream: object) -> None:
        """Keep the worker's stderr pipe from filling up."""
        # A closed pipe just means the worker (or stop()) went first.
        with contextlib.suppress(ValueError, OSError):
            for _ in stream:  # type: ignore[attr-defined]
                pass

    def alive(self) -> bool:
        return self.process is not None and self.process.poll() is None

    def restart(self) -> None:
        """Start a replacement worker after a crash (checkpoint restore)."""
        with self._lifecycle_lock:
            if self.alive():
                return
            self.restarts += 1
            self._start_locked()

    def stop(self, timeout: float = 5.0) -> None:
        with self._lifecycle_lock:
            self._stop_locked(timeout)

    def _stop_locked(self, timeout: float = 5.0) -> None:
        process = self.process
        if process is None:
            return
        if process.poll() is None:
            process.terminate()
            try:
                process.wait(timeout)
            except subprocess.TimeoutExpired:
                process.kill()
                process.wait()
        if process.stderr is not None:
            with contextlib.suppress(OSError):
                process.stderr.close()


class ShardRouter:
    """Transport-free router behind :class:`RouterRequestHandler`.

    Duck-types the :class:`~repro.serve.server.AdvisoryApp` surface the
    HTTP handler expects (``decisions``/``costs``/``health``/
    ``render_metrics``/``admit``/``release``/``responses_total``) and
    adds :meth:`ingest_with_status` for multi-status ingest replies.
    """

    def __init__(
        self,
        model: CostModel,
        supervisors: "Sequence[ShardSupervisor]",
        ring: "Optional[HashRing]" = None,
        registry: "Optional[MetricsRegistry]" = None,
        max_batch: int = DEFAULT_MAX_BATCH,
        max_inflight: int = DEFAULT_MAX_INFLIGHT,
        request_timeout: float = DEFAULT_REQUEST_TIMEOUT,
        attempts: int = DEFAULT_ATTEMPTS,
        backoff_base: float = DEFAULT_BACKOFF_BASE,
        backoff_cap: float = DEFAULT_BACKOFF_CAP,
    ) -> None:
        if not supervisors:
            raise ServeStateError("a shard cluster needs at least one shard")
        if attempts < 1:
            raise ServeStateError(f"attempts must be >= 1, got {attempts!r}")
        self.model = model
        self.supervisors = list(supervisors)
        self.ring = ring if ring is not None else HashRing(len(self.supervisors))
        if self.ring.n_shards != len(self.supervisors):
            raise ServeStateError(
                f"ring spans {self.ring.n_shards} shards but "
                f"{len(self.supervisors)} supervisors were given"
            )
        self.max_batch = max_batch
        self.max_inflight = max_inflight
        self.request_timeout = request_timeout
        self.attempts = attempts
        self.backoff_base = backoff_base
        self.backoff_cap = backoff_cap
        self.registry = registry if registry is not None else MetricsRegistry()
        self._started = time.perf_counter()
        self._inflight_lock = threading.Lock()
        self._inflight = 0
        self._shard_locks = [threading.Lock() for _ in self.supervisors]
        # Next seq per shard; None = unknown, resynced from the shard's
        # /healthz (its last applied seq survives in the checkpoint).
        self._seqs: "List[Optional[int]]" = [None] * len(self.supervisors)
        # One persistent channel per shard; dialled lazily, re-dialled
        # after any transport failure.
        self._channel_locks = [threading.Lock() for _ in self.supervisors]
        self._channels: "List[Optional[WorkerChannel]]" = [None] * len(
            self.supervisors
        )
        self._hub = TransportHub()
        self._hub.start()
        self._pool = ThreadPoolExecutor(
            max_workers=len(self.supervisors),
            thread_name_prefix="repro-shard-dispatch",
        )

        self.responses_total = self.registry.counter(
            "repro_router_http_responses_total",
            "Router HTTP responses sent, by status code.",
            labelnames=("code",),
        )
        self.events_total = self.registry.counter(
            "repro_router_events_total",
            "Usage events accepted by shards via this router.",
        )
        self.ingest_seconds = self.registry.histogram(
            "repro_router_ingest_seconds",
            "Wall time spent fanning one ingest batch out to shards.",
        )
        self.queue_depth = self.registry.gauge(
            "repro_router_queue_depth",
            "Ingest requests currently admitted (bounded by max_inflight).",
        )
        self.shard_retries_total = self.registry.counter(
            "repro_router_shard_retries_total",
            "Shard calls retried after a transport failure.",
            labelnames=("shard",),
        )
        self.shard_restarts_total = self.registry.counter(
            "repro_router_shard_restarts_total",
            "Dead shard workers restarted from checkpoint.",
            labelnames=("shard",),
        )
        self.shard_failures_total = self.registry.counter(
            "repro_router_shard_failures_total",
            "Shard sub-batches that exhausted the retry budget.",
            labelnames=("shard",),
        )
        self.hop_seconds = self.registry.histogram(
            "repro_router_hop_seconds",
            "Wall time of one router->worker call over the shard transport.",
            labelnames=("shard", "op"),
            buckets=TRANSPORT_BUCKETS,
        )

    # ------------------------------------------------------------------
    # Admission control (same contract as AdvisoryApp)
    # ------------------------------------------------------------------

    def admit(self) -> None:
        with self._inflight_lock:
            if self._inflight >= self.max_inflight:
                raise ServerBusyError(
                    f"ingest queue full ({self._inflight} in flight, "
                    f"limit {self.max_inflight}); retry later"
                )
            self._inflight += 1
            self.queue_depth.set(self._inflight)

    def release(self) -> None:
        with self._inflight_lock:
            self._inflight -= 1
            self.queue_depth.set(self._inflight)

    # ------------------------------------------------------------------
    # Shard RPC
    # ------------------------------------------------------------------

    def _channel(self, shard_index: int) -> WorkerChannel:
        """The shard's persistent channel, dialling if necessary."""
        with self._channel_locks[shard_index]:
            channel = self._channels[shard_index]
            if channel is not None and not channel.closed:
                return channel
            address = self.supervisors[shard_index].dial_address
            if address is None:
                raise ShardUnavailableError(
                    f"shard {shard_index} was never started"
                )
            channel = self._hub.connect(address, timeout=self.request_timeout)
            self._channels[shard_index] = channel
            return channel

    def _invalidate_channel(
        self, shard_index: int, channel: WorkerChannel
    ) -> None:
        """Forget a dead channel so the next attempt re-dials."""
        with self._channel_locks[shard_index]:
            if self._channels[shard_index] is channel:
                self._channels[shard_index] = None
        channel.close()

    def _request(
        self,
        shard_index: int,
        op: str,
        body: "Optional[Dict[str, object]]" = None,
        timeout: "Optional[float]" = None,
    ) -> "Tuple[int, Dict[str, object]]":
        """One round-trip to a shard over its channel; enforces the
        envelope."""
        channel = self._channel(shard_index)
        try:
            status, parsed = channel.call(
                op,
                body if body is not None else {},
                timeout if timeout is not None else self.request_timeout,
            )
        except TransportClosedError:
            # Whether the link died or the reply missed its deadline,
            # the channel's state is unknown — drop it and re-dial.
            self._invalidate_channel(shard_index, channel)
            raise
        try:
            return status, require_schema(parsed, source=f"shard {shard_index}")
        except SchemaSkewError as error:
            raise ShardProtocolError(str(error)) from error

    def _shard_metrics(self, shard_index: int) -> str:
        """One shard's ``/metrics`` exposition text."""
        _status, parsed = self._request(shard_index, "metrics")
        exposition = parsed.get("exposition")
        if not isinstance(exposition, str):
            raise ShardProtocolError(
                f"shard {shard_index} answered a metrics body without "
                "an 'exposition' string"
            )
        return exposition

    def _call_shard(
        self,
        shard_index: int,
        op: str,
        body: "Optional[Dict[str, object]]" = None,
    ) -> "Tuple[int, Dict[str, object]]":
        """RPC with supervised restart and capped exponential backoff."""
        delay = self.backoff_base
        last_error: "Optional[ShardError]" = None
        label = {"shard": str(shard_index)}
        hop_label = {"shard": str(shard_index), "op": op}
        for attempt in range(self.attempts):
            if attempt:
                self.shard_retries_total.inc(labels=label)
                time.sleep(delay)
                delay = min(delay * 2.0, self.backoff_cap)
            supervisor = self.supervisors[shard_index]
            if not supervisor.alive():
                try:
                    supervisor.restart()
                    self.shard_restarts_total.inc(labels=label)
                except ShardUnavailableError as error:
                    last_error = error
                    continue
            try:
                with self.hop_seconds.time(labels=hop_label):
                    return self._request(shard_index, op, body)
            except ShardUnavailableError as error:
                last_error = error
        self.shard_failures_total.inc(labels=label)
        raise last_error if last_error is not None else ShardUnavailableError(
            f"shard {shard_index} failed with no recorded error"
        )

    # ------------------------------------------------------------------
    # Ingest fan-out
    # ------------------------------------------------------------------

    def _ingest_shard(
        self, shard_index: int, events: "List[Dict[str, object]]"
    ) -> "Dict[str, object]":
        """Forward one shard's sub-batch under its dispatch lock.

        The lock serialises batches per shard, so seqs arrive in order;
        a transport retry re-sends the *same* seq and the worker's
        dedupe makes the apply exactly-once.
        """
        with self._shard_locks[shard_index]:
            seq = self._seqs[shard_index]
            if seq is None:
                _, health = self._call_shard(shard_index, "health")
                applied = health.get("ingest_seq")
                seq = int(applied) + 1 if isinstance(applied, int) else 1
            body: "Dict[str, object]" = {
                "schema": SCHEMA_VERSION,
                "seq": seq,
                "events": events,
            }
            try:
                status, parsed = self._call_shard(shard_index, "ingest", body)
            except ShardError:
                # Whether the shard applied this seq is unknown; resync
                # from its checkpointed /healthz before the next batch.
                self._seqs[shard_index] = None
                raise
            if status != 200:
                self._seqs[shard_index] = None
                kind = error_kind(parsed) or "UnknownError"
                error_body = parsed.get("error")
                message = (
                    error_body.get("message", "")
                    if isinstance(error_body, dict)
                    else ""
                )
                raise ShardProtocolError(
                    f"shard {shard_index} rejected ingest ({kind}): {message}"
                )
            self._seqs[shard_index] = seq + 1
            return parsed

    def ingest_with_status(
        self, payload: object
    ) -> "Tuple[int, Dict[str, object]]":
        """Partition, fan out, and merge one ingest batch.

        Returns ``(http_status, body)``: 200 when every shard applied
        its sub-batch, 207 when only some did (per-shard status map
        tells which), 503 when none did.
        """
        if isinstance(payload, dict) and "schema" in payload:
            if payload["schema"] != SCHEMA_VERSION:
                raise SchemaSkewError(
                    f"ingest body carries envelope schema "
                    f"{payload['schema']!r}; this router speaks {SCHEMA_VERSION}"
                )
        instances, _busy = AdvisoryApp._validate_events(payload)
        if len(instances) > self.max_batch:
            raise PayloadTooLargeError(
                f"{len(instances)} events exceed the per-request limit of "
                f"{self.max_batch}"
            )
        events = payload["events"]  # type: ignore[index]
        groups: "Dict[int, List[Dict[str, object]]]" = {}
        for event, instance in zip(events, instances):
            groups.setdefault(self.ring.shard_for(instance), []).append(event)

        with self.ingest_seconds.time():
            futures = {
                shard_index: self._pool.submit(
                    self._ingest_shard, shard_index, shard_events
                )
                for shard_index, shard_events in sorted(groups.items())
            }
            shards: "Dict[str, Dict[str, object]]" = {}
            decisions: "List[object]" = []
            accepted = 0
            events_ingested = 0
            failures = 0
            for shard_index, future in futures.items():
                try:
                    parsed = future.result()
                except ShardError as error:
                    failures += 1
                    shards[str(shard_index)] = {
                        "status": "error",
                        "kind": type(error).__name__,
                        "message": str(error),
                    }
                    continue
                shard_accepted = int(parsed.get("accepted", 0))  # type: ignore[call-overload]
                accepted += shard_accepted
                events_ingested += int(parsed.get("events_ingested", 0))  # type: ignore[call-overload]
                shard_decisions = parsed.get("decisions")
                if isinstance(shard_decisions, list):
                    decisions.extend(shard_decisions)
                shards[str(shard_index)] = {
                    "status": "ok",
                    "accepted": shard_accepted,
                }
        self.events_total.inc(accepted)
        if failures == 0:
            status = 200
        elif failures < len(futures):
            status = 207
        else:
            status = 503
        return status, {
            "accepted": accepted,
            "decisions": decisions,
            "events_ingested": events_ingested,
            "shards": shards,
        }

    def ingest(self, payload: object) -> "Dict[str, object]":
        """AdvisoryApp-compatible ingest; raises when any shard failed."""
        status, body = self.ingest_with_status(payload)
        if status != 200:
            raise ShardUnavailableError(
                f"{sum(1 for s in body['shards'].values() if s['status'] != 'ok')}"  # type: ignore[union-attr]
                f" shard(s) failed to apply the batch"
            )
        return body

    # ------------------------------------------------------------------
    # Read fan-out
    # ------------------------------------------------------------------

    def decisions(self, instance: "Optional[str]" = None) -> "Dict[str, object]":
        if instance is not None:
            shard_index = self.ring.shard_for(instance)
            status, parsed = self._call_shard(
                shard_index, "decisions", {"instance": instance}
            )
            if status == 404:
                error_body = parsed.get("error")
                message = (
                    error_body.get("message", f"unknown instance {instance!r}")
                    if isinstance(error_body, dict)
                    else f"unknown instance {instance!r}"
                )
                raise UnknownResourceError(str(message))
            if status != 200:
                raise ShardProtocolError(
                    f"shard {shard_index} answered {status} to a decisions read"
                )
            return {
                "instances": parsed.get("instances", []),
                "verdicts_by_phi": parsed.get("verdicts_by_phi", {}),
            }
        replies = self._fan_out_get("decisions")
        rows: "List[object]" = []
        verdicts: "Dict[str, Dict[str, int]]" = {}
        for _, parsed in replies:
            shard_rows = parsed.get("instances")
            if isinstance(shard_rows, list):
                rows.extend(shard_rows)
            shard_verdicts = parsed.get("verdicts_by_phi")
            if isinstance(shard_verdicts, dict):
                for phi_key, tally in shard_verdicts.items():
                    merged = verdicts.setdefault(str(phi_key), {})
                    for verdict, count in tally.items():
                        merged[str(verdict)] = merged.get(str(verdict), 0) + int(
                            count
                        )
        return {"instances": rows, "verdicts_by_phi": verdicts}

    def costs(self) -> "Dict[str, object]":
        """Cluster-wide Eq. (1) costs: sum integer counts, price once.

        Because every float multiplication happens exactly once on the
        summed counts — the same expressions a single-process server
        uses — the result is bit-identical to serving the whole fleet
        from one process.
        """
        replies = self._fan_out_get("costs")
        totals: "Dict[str, Dict[str, int]]" = {}
        # Cancellation re-buy counts merge under the same discipline:
        # sum the shards' integers, keep one penalty, price once.
        rebuy_totals: "Dict[str, Dict[str, int]]" = {}
        rebuy_penalties: "Dict[str, float]" = {}
        for shard_index, parsed in replies:
            phis = parsed.get("phis")
            if not isinstance(phis, dict):
                raise ShardProtocolError(
                    f"shard {shard_index} answered a costs body without 'phis'"
                )
            for phi_key, entry in phis.items():
                counts = entry.get("counts") if isinstance(entry, dict) else None
                if not isinstance(counts, dict):
                    raise ShardProtocolError(
                        f"shard {shard_index} answered malformed cost counts "
                        f"for phi {phi_key!r}"
                    )
                merged = totals.setdefault(
                    str(phi_key), {"instances": 0, "sold": 0, "billed_hours": 0, "od_hours": 0}
                )
                for field in merged:
                    merged[field] += int(counts.get(field, 0))  # type: ignore[call-overload]
            policies = parsed.get("policies")
            if isinstance(policies, dict):
                for spec_key, entry in policies.items():
                    counts = (
                        entry.get("counts") if isinstance(entry, dict) else None
                    )
                    if not isinstance(counts, dict):
                        raise ShardProtocolError(
                            f"shard {shard_index} answered malformed re-buy "
                            f"counts for policy {spec_key!r}"
                        )
                    merged = rebuy_totals.setdefault(
                        str(spec_key), {"rebuys": 0, "rebuy_age_sum": 0}
                    )
                    for field in merged:
                        merged[field] += int(counts.get(field, 0))  # type: ignore[call-overload]
                    rebuy_penalties.setdefault(
                        str(spec_key), float(entry["penalty"])  # type: ignore[index, arg-type]
                    )
        return costs_body(
            self.model,
            dict(sorted(totals.items(), key=lambda item: -float(item[0]))),
            dict(sorted(rebuy_totals.items())),
            rebuy_penalties,
        )

    def _fan_out_get(self, op: str) -> "List[Tuple[int, Dict[str, object]]]":
        """Run a read ``op`` on every shard concurrently; raises on any
        failure."""
        futures = [
            (shard_index, self._pool.submit(self._call_shard, shard_index, op))
            for shard_index in range(len(self.supervisors))
        ]
        replies: "List[Tuple[int, Dict[str, object]]]" = []
        first_error: "Optional[ShardError]" = None
        for shard_index, future in futures:
            try:
                status, parsed = future.result()
            except ShardError as error:
                if first_error is None:
                    first_error = error
                continue
            if status != 200:
                if first_error is None:
                    first_error = ShardProtocolError(
                        f"shard {shard_index} answered {status} to a {op} read"
                    )
                continue
            replies.append((shard_index, parsed))
        if first_error is not None:
            raise first_error
        return replies

    # ------------------------------------------------------------------
    # Health and metrics
    # ------------------------------------------------------------------

    def health(self) -> "Dict[str, object]":
        """Cluster health; ``"degraded"`` while any shard is down."""
        shards: "Dict[str, Dict[str, object]]" = {}
        status = "ok"
        instances = 0
        events_ingested = 0
        for shard_index, supervisor in enumerate(self.supervisors):
            key = str(shard_index)
            if not supervisor.alive():
                shards[key] = {"status": "down", "restarts": supervisor.restarts}
                status = "degraded"
                continue
            try:
                _, parsed = self._request(shard_index, "health")
            except ShardError as error:
                shards[key] = {
                    "status": "unreachable",
                    "restarts": supervisor.restarts,
                    "message": str(error),
                }
                status = "degraded"
                continue
            shard_instances = int(parsed.get("instances", 0))  # type: ignore[call-overload]
            shard_events = int(parsed.get("events_ingested", 0))  # type: ignore[call-overload]
            instances += shard_instances
            events_ingested += shard_events
            shards[key] = {
                "status": str(parsed.get("status", "ok")),
                "instances": shard_instances,
                "events_ingested": shard_events,
                "restarts": supervisor.restarts,
            }
        return {
            "status": status,
            "version": __version__,
            "shards": shards,
            "instances": instances,
            "events_ingested": events_ingested,
            "uptime_seconds": round(time.perf_counter() - self._started, 3),
        }

    def render_metrics(self) -> str:
        """The router's own metrics plus every reachable shard's,
        re-labelled with ``shard="N"``."""
        parts = [self.registry.render()]
        seen_headers: "Set[str]" = set()
        for line in parts[0].splitlines():
            if line.startswith("#"):
                seen_headers.add(line)
        for shard_index in range(len(self.supervisors)):
            if not self.supervisors[shard_index].alive():
                continue
            try:
                exposition = self._shard_metrics(shard_index)
            except ShardError:
                continue
            parts.append(
                _relabel_exposition(exposition, shard_index, seen_headers)
            )
        return "\n".join(part for part in parts if part)

    def close(self) -> None:
        """Stop dispatch, the transport hub, and every worker."""
        self._pool.shutdown(wait=True)
        self._hub.close()
        for supervisor in self.supervisors:
            supervisor.stop()


def _relabel_exposition(
    exposition: str, shard_index: int, seen_headers: "Set[str]"
) -> str:
    """Inject ``shard="N"`` into every sample of one shard's exposition.

    ``# HELP``/``# TYPE`` headers are emitted once across the merged
    output (duplicates are invalid exposition text).
    """
    label = f'shard="{shard_index}"'
    lines: "List[str]" = []
    for line in exposition.splitlines():
        if not line:
            continue
        if line.startswith("#"):
            if line not in seen_headers:
                seen_headers.add(line)
                lines.append(line)
            continue
        name_part, _, value_part = line.partition(" ")
        if "{" in name_part:
            name_part = name_part.replace("{", "{" + label + ",", 1)
        else:
            name_part = name_part + "{" + label + "}"
        lines.append(f"{name_part} {value_part}")
    return "\n".join(lines)


class RouterRequestHandler(AdvisoryRequestHandler):
    """The advisory handler with multi-status ingest replies."""

    server_version = f"repro-serve-router/{__version__}"

    def _handle_ingest(self) -> None:
        self.app.admit()
        try:
            payload = self._read_json_body()
            status, body = self.app.ingest_with_status(payload)  # type: ignore[attr-defined]
            self._send_json(status, envelope(body))
        finally:
            self.app.release()


class RouterServer(AdvisoryServer):
    """A :class:`ThreadingHTTPServer` bound to one :class:`ShardRouter`."""

    def __init__(self, address: "Tuple[str, int]", router: ShardRouter) -> None:
        # Bypass AdvisoryServer.__init__ to install the router handler.
        super(AdvisoryServer, self).__init__(address, RouterRequestHandler)
        self.app = router  # type: ignore[assignment]


class ShardWorker:
    """Glue between a :class:`~repro.serve.transport.BinaryServer` and
    one :class:`~repro.serve.server.AdvisoryApp`: op dispatch, WAL
    append-before-reply, periodic snapshot + compaction.

    Durability protocol (the recovery state machine is documented in
    ``docs/serving.md``):

    1. ``recover()`` — restore the snapshot (done by ``build_app``
       before construction), heal a torn WAL tail, replay every WAL
       record with ``seq`` past the snapshot's watermark through the
       *same* ``AdvisoryApp.ingest`` path, then snapshot + compact so
       the next restart replays nothing already durable.
    2. Every *applied* ingest batch (seq advanced the watermark) is
       appended — events and the response — and fsync'd to the WAL
       before the reply frame is sent. A retried seq dedupes inside
       the app and is never re-logged.
    3. Every ``snapshot_interval`` applied batches: write the fsync'd
       snapshot, then drop WAL records at or below its watermark. A
       crash between the two leaves stale records that replay skips.

    Batches without a ``seq`` (not the router's — it always stamps one)
    are applied but not WAL-logged; only the periodic snapshot covers
    them.

    A failed append leaves a batch applied but unlogged, so the worker
    stops: it answers that batch and every later op with
    :class:`ShardUnavailableError`, calls ``on_fail`` (the worker
    process closes its server and exits) and skips the final snapshot,
    which would make the unlogged batch durable. The supervisor restarts
    it from the last snapshot and the WAL, and the router's retry of the
    same seq applies the batch once.
    """

    def __init__(
        self,
        app: AdvisoryApp,
        wal_path: "str | Path",
        snapshot_interval: int = DEFAULT_SNAPSHOT_INTERVAL,
        wal_fsync: str = "always",
    ) -> None:
        if snapshot_interval < 1:
            raise ServeStateError(
                f"snapshot_interval must be >= 1, got {snapshot_interval!r}"
            )
        if app.checkpoint_path is None:
            raise ServeStateError(
                "a binary shard worker needs a checkpoint path — WAL "
                "compaction drops records only a snapshot makes durable"
            )
        self.app = app
        self.wal_path = Path(wal_path)
        self.snapshot_interval = snapshot_interval
        self.wal_fsync = wal_fsync
        # Serialises ingest apply + WAL append + snapshot/compact so the
        # WAL's record order is exactly the apply order.
        self._lock = threading.Lock()
        self._wal: "Optional[Wal]" = None
        self._batches_since_snapshot = 0
        #: Why the worker stopped serving, once a WAL append failed.
        self.failed: "Optional[str]" = None
        self.on_fail: "Optional[Callable[[], None]]" = None

        registry = app.registry
        self.wal_appends_total = registry.counter(
            "repro_serve_wal_appends_total",
            "Ingest batches durably appended to the WAL.",
        )
        self.wal_replayed_total = registry.counter(
            "repro_serve_wal_replayed_entries_total",
            "WAL records replayed into the fleet at boot.",
        )
        self.wal_truncated_total = registry.counter(
            "repro_serve_wal_truncated_entries_total",
            "Torn or CRC-failed WAL tail records discarded at boot.",
        )
        self.wal_compactions_total = registry.counter(
            "repro_serve_wal_compactions_total",
            "Snapshot + WAL-compaction cycles completed.",
        )
        self.wal_append_seconds = registry.histogram(
            "repro_serve_wal_append_seconds",
            "Wall time appending one batch to the WAL (incl. fsync).",
            buckets=TRANSPORT_BUCKETS,
        )

    # ------------------------------------------------------------------
    # Recovery
    # ------------------------------------------------------------------

    def recover(self) -> "Tuple[int, WalRecovery]":
        """Open the WAL and replay its tail; returns
        ``(batches_replayed, recovery)``.

        Records with ``seq`` at or below the snapshot's watermark are
        skipped — they survive only when a crash hit between snapshot
        and compaction, and replaying them would double-apply.
        """
        with self._lock:
            wal, recovery = Wal.open(
                self.wal_path, fsync=self.wal_fsync, strict=False
            )
            self._wal = wal
            if recovery.truncated_entries:
                self.wal_truncated_total.inc(recovery.truncated_entries)
                print(
                    f"repro.serve: WAL {self.wal_path} had a torn tail — "
                    f"{recovery.truncated_bytes} byte(s) discarded; the "
                    "router's seq retry re-sends the lost batch",
                    file=sys.stderr,
                )
            replayed = 0
            for entry in recovery.entries:
                watermark = self.app.last_seq
                if watermark is not None and entry.seq <= watermark:
                    continue
                self.app.ingest(
                    {
                        "schema": SCHEMA_VERSION,
                        "seq": entry.seq,
                        "events": entry.events,
                    }
                )
                replayed += 1
            if replayed:
                self.wal_replayed_total.inc(replayed)
            if replayed or recovery.truncated_entries or recovery.entries:
                self._snapshot_locked()
        return replayed, recovery

    # ------------------------------------------------------------------
    # Op dispatch (BinaryServer handler)
    # ------------------------------------------------------------------

    def handle(
        self, op: str, body: "Dict[str, object]"
    ) -> "Tuple[int, Dict[str, object]]":
        """One request frame's ``(status, envelope body)`` answer."""
        if self.failed is not None:
            return 503, error_envelope(ShardUnavailableError.__name__, self.failed)
        try:
            if op == "ingest":
                return 200, envelope(self._ingest(body))
            if op == "decisions":
                instance = body.get("instance")
                return 200, envelope(
                    self.app.decisions(
                        instance if isinstance(instance, str) else None
                    )
                )
            if op == "costs":
                return 200, envelope(self.app.costs())
            if op == "health":
                return 200, envelope(self.app.health())
            if op == "metrics":
                return 200, envelope(
                    {"exposition": self.app.render_metrics()}
                )
            raise UnknownResourceError(f"no op {op!r}")
        except ApiError as error:
            return error.status, error_envelope(type(error).__name__, str(error))
        except ServeError as error:
            return 400, error_envelope(type(error).__name__, str(error))
        except Exception as error:  # noqa: BLE001 - last-resort 500
            return 500, error_envelope("InternalError", str(error))

    def _ingest(self, body: "Dict[str, object]") -> "Dict[str, object]":
        """Apply one batch, WAL it before replying, snapshot on cadence."""
        self.app.admit()
        try:
            with self._lock:
                wal = self._wal
                if self.failed is not None:
                    # A batch that waited on the lock while another failed.
                    raise ShardUnavailableError(self.failed)
                if wal is None:
                    raise ServeStateError(
                        "worker WAL is not open (recover() was never run)"
                    )
                watermark = self.app.last_seq
                response = self.app.ingest(body)
                seq = body.get("seq")
                applied = (
                    isinstance(seq, int)
                    and not isinstance(seq, bool)
                    and seq != watermark
                )
                if applied:
                    events = body.get("events")
                    try:
                        with self.wal_append_seconds.time():
                            wal.append(
                                int(seq),  # type: ignore[arg-type]
                                list(events) if isinstance(events, list) else [],
                                response,
                            )
                    except Exception as error:
                        # Whatever the append raised, the batch is applied
                        # and not logged.
                        self._fail(f"WAL append of seq {seq} failed: {error}")
                        raise ShardUnavailableError(self.failed) from error
                    self.wal_appends_total.inc()
                    self._batches_since_snapshot += 1
                    if self._batches_since_snapshot >= self.snapshot_interval:
                        self._snapshot_locked()
                return response
        finally:
            self.app.release()

    # ------------------------------------------------------------------
    # Snapshot + compaction
    # ------------------------------------------------------------------

    def _snapshot_locked(self) -> None:
        """Snapshot-then-compact; caller holds ``_lock``.

        Order is load-bearing: the fsync'd snapshot must be durable
        before the WAL drops the records it covers.
        """
        self.app.checkpoint_now()
        wal = self._wal
        if wal is not None:
            wal.compact(self.app.last_seq)
            self.wal_compactions_total.inc()
        self._batches_since_snapshot = 0

    def _fail(self, reason: str) -> None:
        """Stop serving: the applied state is ahead of the WAL."""
        self.failed = f"{reason}; the worker stops and restarts from its WAL"
        print(f"repro.serve: {self.failed}", file=sys.stderr)
        if self.on_fail is not None:
            self.on_fail()

    def shutdown(self) -> None:
        """Final snapshot + compact, then close the WAL. A failed
        worker takes no snapshot: its state holds an unlogged batch."""
        with self._lock:
            if self.failed is None:
                self._snapshot_locked()
            if self._wal is not None:
                self._wal.close()
                self._wal = None


def start_cluster(
    model: CostModel,
    n_shards: int,
    checkpoint_dir: "str | Path",
    phis: "Sequence[float]" = PAPER_DECISION_FRACTIONS,
    threshold_scale: float = 1.0,
    host: str = "127.0.0.1",
    max_batch: int = DEFAULT_MAX_BATCH,
    max_inflight: int = DEFAULT_MAX_INFLIGHT,
    request_timeout: float = DEFAULT_REQUEST_TIMEOUT,
    attempts: int = DEFAULT_ATTEMPTS,
    backoff_base: float = DEFAULT_BACKOFF_BASE,
    backoff_cap: float = DEFAULT_BACKOFF_CAP,
    transport: str = "binary",
    snapshot_interval: int = DEFAULT_SNAPSHOT_INTERVAL,
    wal_fsync: str = "always",
    policies: "Optional[Sequence[object]]" = None,
) -> ShardRouter:
    """Boot N supervised shard workers and return the router over them.

    Each shard's checkpoint lives at ``checkpoint_dir/shard-<i>.json``
    with its write-ahead log ``shard-<i>.wal`` beside it; when absent, an
    empty fleet with ``model``/``phis``/``policies`` is checkpointed
    first so the worker bootstraps its configuration from the file (an
    existing checkpoint wins — restarts resume where the shard left
    off). ``policies`` travel as canonical spec strings inside the
    checkpoint, so workers need no extra flags and every shard draws
    from the same per-instance-id streams. ``transport`` names the
    router→worker hop; ``"binary"`` is the only one.
    """
    if n_shards < 1:
        raise ServeStateError(f"n_shards must be >= 1, got {n_shards!r}")
    if transport != "binary":
        raise ServeStateError(f"transport must be 'binary', got {transport!r}")
    directory = Path(checkpoint_dir)
    supervisors = [
        ShardSupervisor(
            shard_index,
            directory / f"shard-{shard_index}.json",
            host=host,
            max_batch=max_batch,
            wal_path=directory / f"shard-{shard_index}.wal",
            snapshot_interval=snapshot_interval,
            wal_fsync=wal_fsync,
        )
        for shard_index in range(n_shards)
    ]
    # The router checks its arguments before any worker exists, and
    # closing it stops every supervisor, so a failed boot leaks nothing.
    router = ShardRouter(
        model,
        supervisors,
        max_batch=max_batch,
        max_inflight=max_inflight,
        request_timeout=request_timeout,
        attempts=attempts,
        backoff_base=backoff_base,
        backoff_cap=backoff_cap,
    )
    try:
        directory.mkdir(parents=True, exist_ok=True)
        for supervisor in supervisors:
            if not supervisor.checkpoint_path.exists():
                fleet = FleetState(
                    model,
                    phis=phis,
                    threshold_scale=threshold_scale,
                    policies=policies,
                )
                save_checkpoint(supervisor.checkpoint_path, fleet)
            supervisor.start()
    except BaseException:
        router.close()
        raise
    return router


def run_cluster(args: argparse.Namespace) -> int:
    """CLI entry for ``python -m repro.serve --shards N`` (N > 1)."""
    plan = paper_experiment_plan()
    if args.period_hours != plan.period_hours:
        plan = plan.with_period(args.period_hours)
    model = CostModel(plan=plan, selling_discount=args.discount)
    if args.checkpoint is not None:
        checkpoint_dir = Path(args.checkpoint)
    else:
        checkpoint_dir = Path(tempfile.mkdtemp(prefix="repro-serve-shards-"))
        print(
            f"repro.serve: --checkpoint not given; per-shard checkpoints in "
            f"{checkpoint_dir}",
            file=sys.stderr,
        )
    try:
        policies = (
            parse_policies(args.policies)
            if getattr(args, "policies", None)
            else None
        )
        router = start_cluster(
            model,
            args.shards,
            checkpoint_dir,
            phis=tuple(args.phi),
            host=args.host,
            max_batch=args.max_batch,
            max_inflight=args.max_inflight,
            snapshot_interval=args.snapshot_interval,
            wal_fsync=args.wal_fsync,
            policies=policies,
        )
    except (ServeError, CheckpointError, PolicyError) as error:
        print(f"repro.serve: error: {error}", file=sys.stderr)
        return 2
    server = RouterServer((args.host, args.port), router)
    host, port = server.server_address[:2]
    print(
        f"repro.serve router listening on http://{host}:{port} "
        f"({args.shards} shards over the binary transport, "
        f"plan {plan.name or 'paper'} "
        f"T={plan.period_hours}h, a={args.discount}, "
        f"checkpoints in {checkpoint_dir})",
        file=sys.stderr,
    )
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        print("repro.serve: shutting down cluster", file=sys.stderr)
    finally:
        server.server_close()
        router.close()
    return 0


def run_binary_worker(args: argparse.Namespace) -> int:
    """CLI entry for ``python -m repro.serve --wal FILE``.

    The shard supervisor's worker mode: recover snapshot + WAL tail,
    then serve binary frames until SIGTERM/SIGINT, ending with a final
    snapshot + compaction.
    """
    if args.checkpoint is None:
        print(
            "repro.serve: error: --wal requires --checkpoint "
            "(WAL compaction drops records only a snapshot makes durable)",
            file=sys.stderr,
        )
        return 2
    plan = paper_experiment_plan()
    if args.period_hours != plan.period_hours:
        plan = plan.with_period(args.period_hours)
    model = CostModel(plan=plan, selling_discount=args.discount)
    try:
        policies = (
            parse_policies(args.policies)
            if getattr(args, "policies", None)
            else None
        )
        app = build_app(
            model,
            phis=tuple(args.phi),
            checkpoint_path=args.checkpoint,
            checkpoint_interval=0,
            max_batch=args.max_batch,
            max_inflight=args.max_inflight,
            checkpoint_fsync=True,
            policies=policies,
        )
        worker = ShardWorker(
            app,
            args.wal,
            snapshot_interval=args.snapshot_interval,
            wal_fsync=args.wal_fsync,
        )
        replayed, _recovery = worker.recover()
    except (ServeError, CheckpointError, PolicyError) as error:
        print(f"repro.serve: error: {error}", file=sys.stderr)
        return 2
    server = BinaryServer(args.host, args.port, worker.handle)
    worker.on_fail = server.close
    host, port = server.address
    print(
        f"repro.serve worker listening on binary://{host}:{port} "
        f"(wal {args.wal}, snapshot every {args.snapshot_interval} "
        f"batches, {replayed} batch(es) replayed from the WAL tail, "
        f"{app.fleet.size} instance(s) restored)",
        file=sys.stderr,
    )

    def _terminate(signum: int, frame: object) -> None:
        raise SystemExit(0)

    signal.signal(signal.SIGTERM, _terminate)
    try:
        server.serve_forever()
    except (KeyboardInterrupt, SystemExit):
        print("repro.serve: worker shutting down", file=sys.stderr)
    finally:
        server.close()
        worker.shutdown()
    return 1 if worker.failed is not None else 0
