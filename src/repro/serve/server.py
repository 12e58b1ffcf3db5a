"""The advisory HTTP service: stdlib JSON API over a fleet.

Endpoints
---------
* ``POST /v1/events`` — batch ingest. Body:
  ``{"events": [{"instance": "i-1", "busy": true}, ...]}``; an event may
  alternatively carry ``"demand": <int>=0>`` (busy iff demand ≥ 1). Each
  event advances its instance by one hour. Responds with the count
  accepted and any verdicts that settled.
* ``GET /v1/decisions[?instance=ID]`` — current advisory state.
* ``GET /v1/costs`` — per-φ Eq. (1) cost counts and priced breakdowns.
* ``GET /healthz`` — liveness plus basic gauges.
* ``GET /metrics`` — Prometheus text exposition.

Every JSON response is wrapped in the versioned envelope of
:mod:`repro.serve.envelope` (``{"schema": 2, ...}``; errors are
``{"schema": 2, "error": {"kind", "message"}}``). An ingest body may
carry ``"schema"`` (rejected on version skew) and a monotonic ``"seq"``
(the shard router's exactly-once handle: replaying the last applied
``seq`` returns the stored response verbatim instead of re-applying the
batch).

Request validation raises the typed errors of
:mod:`repro.serve.errors`; the handler maps them to status codes.
Backpressure is bounded admission: at most ``max_inflight`` ingest
requests execute concurrently, the rest are rejected with 429 instead of
queueing unboundedly (clients retry; memory stays flat). One lock
serialises fleet mutation, so decisions are ordered even under the
threading server.

``python -m repro.serve`` starts the server (see :func:`main`); with
``--checkpoint`` it restores state on boot and snapshots every
``--checkpoint-interval`` ingested events plus once on shutdown.
"""

from __future__ import annotations

import argparse
import json
import sys
import threading
import time
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple
from urllib.parse import parse_qs, urlparse

from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

from repro._version import __version__
from repro.core.account import CostModel
from repro.core.breakeven import PAPER_DECISION_FRACTIONS
from repro.core.clearing import LIQUIDITY_REGIMES, ClearingModel
from repro.core.policyspec import parse_policies
from repro.errors import PolicyError
from repro.pricing.catalog import paper_experiment_plan
from repro.serve.checkpoint import restore_checkpoint, save_checkpoint
from repro.serve.envelope import (
    SCHEMA_VERSION,
    SUPPORTED_SCHEMAS,
    decode_json,
    downgrade_payload,
    envelope,
    error_envelope,
    negotiate_schema,
)
from repro.serve.errors import (
    ApiError,
    CheckpointError,
    PayloadTooLargeError,
    RequestValidationError,
    SchemaSkewError,
    ServeError,
    ServerBusyError,
    UnknownResourceError,
)
from repro.serve.metrics import MetricsRegistry
from repro.serve.state import (
    FleetDecision,
    FleetState,
    ServeStateError,
    costs_body,
)

#: Default cap on events per ingest request (oversize batches get 413).
DEFAULT_MAX_BATCH = 10_000

#: Default cap on concurrently-executing ingest requests (excess: 429).
DEFAULT_MAX_INFLIGHT = 8

#: Histogram buckets (hours) for how long listings sit before clearing.
#: The metrics default buckets are sub-second request latencies; listing
#: delays run from same-hour clears to multi-week thin-market waits.
CLEARING_DELAY_BUCKETS = (
    1.0, 2.0, 4.0, 8.0, 24.0, 48.0, 96.0, 168.0, 336.0, 672.0,
)


def _decision_to_json(decision: FleetDecision) -> "Dict[str, object]":
    body: "Dict[str, object]" = {
        "instance": decision.instance,
        "phi": decision.phi,
        "verdict": decision.verdict.value,
        "working_hours": decision.working_hours,
        "age_hours": decision.age,
    }
    if decision.listing is not None:
        body["listing"] = decision.listing
        body["waited_hours"] = decision.waited_hours
    # Schema-2 provenance: which configured policy this verdict belongs
    # to, and (randomized) the spot the instance's draw landed on.
    if decision.policy_spec is not None:
        body["policy_spec"] = decision.policy_spec
    if decision.drawn_phi is not None:
        body["drawn_phi"] = decision.drawn_phi
    return body


class AdvisoryApp:
    """Transport-free application object behind the HTTP handler.

    Owns the fleet, the metrics registry, admission control, and
    checkpointing policy. Tests drive it directly; the handler only
    parses HTTP and calls these methods.
    """

    def __init__(
        self,
        fleet: FleetState,
        registry: "Optional[MetricsRegistry]" = None,
        checkpoint_path: "Optional[str | Path]" = None,
        checkpoint_interval: int = 0,
        max_batch: int = DEFAULT_MAX_BATCH,
        max_inflight: int = DEFAULT_MAX_INFLIGHT,
        events_ingested: int = 0,
        last_seq: "Optional[int]" = None,
        last_response: "Optional[Dict[str, object]]" = None,
        checkpoint_fsync: bool = False,
    ) -> None:
        if max_batch <= 0:
            raise ServeStateError(f"max_batch must be positive, got {max_batch!r}")
        if max_inflight < 0:
            raise ServeStateError(
                f"max_inflight must be >= 0, got {max_inflight!r}"
            )
        self.fleet = fleet
        self.max_batch = max_batch
        self.max_inflight = max_inflight
        self.checkpoint_path = Path(checkpoint_path) if checkpoint_path else None
        self.checkpoint_interval = checkpoint_interval
        self.checkpoint_fsync = checkpoint_fsync
        self.registry = registry if registry is not None else MetricsRegistry()
        self._fleet_lock = threading.Lock()
        self._inflight_lock = threading.Lock()
        self._inflight = 0
        self._started = time.perf_counter()
        self._events_ingested = int(events_ingested)
        self._events_since_checkpoint = 0
        # Exactly-once ingest: the last applied batch seq and the
        # response it produced, persisted in the checkpoint's `extra`
        # so a retried batch replays the identical answer post-crash.
        self._last_seq = int(last_seq) if last_seq is not None else None
        self._last_response = dict(last_response) if last_response else None

        self.events_total = self.registry.counter(
            "repro_serve_events_total", "Usage events ingested since start."
        )
        self.decisions_total = self.registry.counter(
            "repro_serve_decisions_total",
            "Advisory verdicts settled, by verdict and decision fraction.",
            labelnames=("verdict", "phi"),
        )
        self.ingest_seconds = self.registry.histogram(
            "repro_serve_ingest_seconds",
            "Wall time spent applying one ingest batch.",
        )
        self.queue_depth = self.registry.gauge(
            "repro_serve_queue_depth",
            "Ingest requests currently admitted (bounded by max_inflight).",
        )
        self.instances_gauge = self.registry.gauge(
            "repro_serve_instances", "Instances currently tracked."
        )
        self.responses_total = self.registry.counter(
            "repro_serve_http_responses_total",
            "HTTP responses sent, by status code.",
            labelnames=("code",),
        )
        self.checkpoints_total = self.registry.counter(
            "repro_serve_checkpoints_total", "Checkpoints written."
        )
        self.listings_open_total = self.registry.counter(
            "repro_serve_listings_open_total",
            "Marketplace listings opened by SELL decisions, by phi.",
            labelnames=("phi",),
        )
        self.listings_cleared_total = self.registry.counter(
            "repro_serve_listings_cleared_total",
            "Listings that found a buyer and cleared, by phi.",
            labelnames=("phi",),
        )
        self.listings_expired_total = self.registry.counter(
            "repro_serve_listings_expired_total",
            "Listings whose window closed unsold (reverted to KEEP), by phi.",
            labelnames=("phi",),
        )
        self.clearing_delay_hours = self.registry.histogram(
            "repro_serve_clearing_delay_hours",
            "Hours a cleared listing sat on the book before selling.",
            buckets=CLEARING_DELAY_BUCKETS,
        )
        self.rebuys_gauge = self.registry.gauge(
            "repro_serve_rebuys",
            "Cancellation re-buys booked, by canonical policy spec.",
            labelnames=("policy",),
        )

    # ------------------------------------------------------------------
    # Admission control (backpressure)
    # ------------------------------------------------------------------

    def admit(self) -> None:
        """Claim one ingest slot or raise :class:`ServerBusyError`."""
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
    # Endpoints
    # ------------------------------------------------------------------

    @staticmethod
    def _validate_events(payload: object) -> "Tuple[List[str], List[bool]]":
        if not isinstance(payload, dict):
            raise RequestValidationError("request body must be a JSON object")
        events = payload.get("events")
        if not isinstance(events, list) or not events:
            raise RequestValidationError(
                'body must carry a non-empty "events" array'
            )
        instances: "List[str]" = []
        busy: "List[bool]" = []
        for position, event in enumerate(events):
            if not isinstance(event, dict):
                raise RequestValidationError(
                    f"events[{position}] must be an object"
                )
            instance = event.get("instance")
            if not isinstance(instance, str) or not instance:
                raise RequestValidationError(
                    f'events[{position}].instance must be a non-empty string'
                )
            try:
                instance.encode("utf-8")
            except UnicodeEncodeError as error:
                # A lone surrogate: no shard ring can hash it, and no
                # UTF-8 body could have carried it unescaped.
                raise RequestValidationError(
                    f"events[{position}].instance is not valid Unicode "
                    f"text: {error}"
                ) from error
            if "busy" in event:
                flag = event["busy"]
                if not isinstance(flag, bool):
                    raise RequestValidationError(
                        f"events[{position}].busy must be a boolean"
                    )
                is_busy = flag
            elif "demand" in event:
                demand = event["demand"]
                if not isinstance(demand, int) or isinstance(demand, bool) or demand < 0:
                    raise RequestValidationError(
                        f"events[{position}].demand must be a non-negative integer"
                    )
                is_busy = demand >= 1
            else:
                raise RequestValidationError(
                    f'events[{position}] needs a "busy" or "demand" field'
                )
            instances.append(instance)
            busy.append(is_busy)
        return instances, busy

    @staticmethod
    def _validate_seq(payload: object) -> "Optional[int]":
        """Extract and validate the optional ``schema``/``seq`` fields."""
        if not isinstance(payload, dict):
            return None  # _validate_events rejects non-dict bodies
        if "schema" in payload and payload["schema"] not in SUPPORTED_SCHEMAS:
            raise SchemaSkewError(
                f"ingest body carries envelope schema {payload['schema']!r}; "
                f"this server answers schemas {SUPPORTED_SCHEMAS}"
            )
        if "seq" not in payload:
            return None
        seq = payload["seq"]
        if not isinstance(seq, int) or isinstance(seq, bool) or seq < 0:
            raise RequestValidationError(
                f'"seq" must be a non-negative integer, got {seq!r}'
            )
        return seq

    def ingest(self, payload: object) -> "Dict[str, object]":
        """Validate and apply one event batch; returns the response body.

        When the batch carries a ``seq`` equal to the last applied one,
        the stored response is returned verbatim and nothing is applied
        — the retry path of an at-least-once sender becomes
        exactly-once.
        """
        seq = self._validate_seq(payload)
        instances, busy = self._validate_events(payload)
        if len(instances) > self.max_batch:
            raise PayloadTooLargeError(
                f"{len(instances)} events exceed the per-request limit of "
                f"{self.max_batch}"
            )
        with self.ingest_seconds.time():
            with self._fleet_lock:
                if seq is not None and self._last_seq is not None:
                    if seq == self._last_seq and self._last_response is not None:
                        return dict(self._last_response)
                    if seq < self._last_seq:
                        raise RequestValidationError(
                            f"stale batch seq {seq} (already applied up to "
                            f"{self._last_seq}); only the last batch may be "
                            "retried"
                        )
                settled = self.fleet.apply_events(instances, busy)
                self._events_ingested += len(instances)
                self._events_since_checkpoint += len(instances)
                response: "Dict[str, object]" = {
                    "accepted": len(instances),
                    "decisions": [_decision_to_json(d) for d in settled],
                    "events_ingested": self._events_ingested,
                }
                if seq is not None:
                    self._last_seq = seq
                    self._last_response = dict(response)
                should_checkpoint = (
                    self.checkpoint_path is not None
                    and self.checkpoint_interval > 0
                    and self._events_since_checkpoint >= self.checkpoint_interval
                )
                if should_checkpoint:
                    self._checkpoint_locked()
        self.events_total.inc(len(instances))
        for decision in settled:
            phi_label = {"phi": repr(decision.phi)}
            self.decisions_total.inc(
                labels={"verdict": decision.verdict.value, **phi_label}
            )
            if decision.listing == "opened":
                self.listings_open_total.inc(labels=phi_label)
            elif decision.listing == "cleared":
                if decision.waited_hours == 0:
                    # Instant clear: the listing opened and cleared in
                    # the same decision, so count the open here too.
                    self.listings_open_total.inc(labels=phi_label)
                self.listings_cleared_total.inc(labels=phi_label)
                self.clearing_delay_hours.observe(float(decision.waited_hours))
            elif decision.listing == "expired":
                self.listings_expired_total.inc(labels=phi_label)
        return response

    def decisions(
        self, instance: "Optional[str]" = None
    ) -> "Dict[str, object]":
        with self._fleet_lock:
            if instance is not None:
                try:
                    rows = [self.fleet.instance_state(instance)]
                except ServeStateError as error:
                    raise UnknownResourceError(str(error)) from error
            else:
                rows = self.fleet.rows()
            counts = self.fleet.verdict_counts()
        return {"instances": rows, "verdicts_by_phi": counts}

    def costs(self) -> "Dict[str, object]":
        """Per-φ cost counts plus the priced breakdowns (Eq. (1))."""
        with self._fleet_lock:
            counts = self.fleet.cost_counts()
            rebuys = self.fleet.rebuy_counts()
            penalties = self.fleet.cancellation_penalties()
        # Both come in the fleet's menu order, which the body keeps.
        return costs_body(self.fleet.model, counts, rebuys, penalties)

    def health(self) -> "Dict[str, object]":
        with self._fleet_lock:
            tracked = self.fleet.size
            last_seq = self._last_seq
        return {
            "status": "ok",
            "version": __version__,
            "instances": tracked,
            "events_ingested": self._events_ingested,
            "ingest_seq": last_seq,
            "uptime_seconds": round(time.perf_counter() - self._started, 3),
        }

    def render_metrics(self) -> str:
        with self._fleet_lock:
            self.instances_gauge.set(self.fleet.size)
            rebuys = self.fleet.rebuy_counts()
        for spec, entry in rebuys.items():
            self.rebuys_gauge.set(
                float(entry["rebuys"]), labels={"policy": spec}
            )
        return self.registry.render()

    # ------------------------------------------------------------------
    # Checkpointing
    # ------------------------------------------------------------------

    def _checkpoint_locked(self) -> None:
        """Write a checkpoint; caller holds the fleet lock."""
        if self.checkpoint_path is None:
            return
        extra: "Dict[str, object]" = {}
        if self._last_seq is not None:
            extra["ingest_last_seq"] = self._last_seq
            extra["ingest_last_response"] = self._last_response
        save_checkpoint(
            self.checkpoint_path,
            self.fleet,
            self._events_ingested,
            extra=extra,
            fsync=self.checkpoint_fsync,
        )
        self._events_since_checkpoint = 0
        self.checkpoints_total.inc()

    def checkpoint_now(self) -> "Optional[Path]":
        """Snapshot unconditionally (shutdown hook); returns the path."""
        if self.checkpoint_path is None:
            return None
        with self._fleet_lock:
            self._checkpoint_locked()
        return self.checkpoint_path

    @property
    def events_ingested(self) -> int:
        return self._events_ingested

    @property
    def last_seq(self) -> "Optional[int]":
        """The last applied ingest batch seq (the dedupe watermark)."""
        with self._fleet_lock:
            return self._last_seq


class AdvisoryRequestHandler(BaseHTTPRequestHandler):
    """Maps HTTP requests onto :class:`AdvisoryApp` calls."""

    server_version = f"repro-serve/{__version__}"
    protocol_version = "HTTP/1.1"
    # Responses leave as separate header/body segments; on a keep-alive
    # connection Nagle + the peer's delayed ACK would stall every reply
    # ~40ms, so small request/response traffic needs TCP_NODELAY.
    disable_nagle_algorithm = True

    @property
    def app(self) -> AdvisoryApp:
        return self.server.app  # type: ignore[attr-defined]

    # Silence the default stderr-per-request log; metrics cover it.
    def log_message(self, format: str, *args: object) -> None:  # noqa: A002
        pass

    # ------------------------------------------------------------------

    def _send_payload(
        self, status: int, body: bytes, content_type: str
    ) -> None:
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)
        self.app.responses_total.inc(labels={"code": str(status)})

    def _send_json(self, status: int, payload: "Dict[str, object]") -> None:
        body = json.dumps(payload).encode("utf-8")
        self._send_payload(status, body, "application/json; charset=utf-8")

    #: Envelope schema negotiated for the current request (reset per
    #: dispatch from the ``X-Repro-Schema`` header).
    _schema = SCHEMA_VERSION

    def _send_ok(self, payload: "Dict[str, object]") -> None:
        shaped = downgrade_payload(payload, self._schema)
        self._send_json(
            200, envelope(shaped, self._schema)  # type: ignore[arg-type]
        )

    def _send_error_json(self, status: int, kind: str, message: str) -> None:
        self._send_json(status, error_envelope(kind, message, self._schema))

    def _read_json_body(self) -> object:
        length_header = self.headers.get("Content-Length")
        try:
            length = int(length_header) if length_header else 0
        except ValueError as error:
            raise RequestValidationError(
                f"invalid Content-Length {length_header!r}"
            ) from error
        if length <= 0:
            raise RequestValidationError("a JSON request body is required")
        return decode_json(
            self.rfile.read(length), RequestValidationError, "request body"
        )

    def _handle_ingest(self) -> None:
        """The ``POST /v1/events`` route (the router handler overrides
        this to send multi-status responses)."""
        self.app.admit()
        try:
            payload = self._read_json_body()
            self._send_ok(self.app.ingest(payload))
        finally:
            self.app.release()

    def _dispatch(self, method: str) -> None:
        parsed = urlparse(self.path)
        route = (method, parsed.path.rstrip("/") or "/")
        # Negotiate the response schema before routing so even error
        # envelopes leave in the version the client asked for. A bad
        # header is itself answered (in the current schema).
        self._schema = SCHEMA_VERSION
        try:
            self._schema = negotiate_schema(self.headers.get("X-Repro-Schema"))
        except SchemaSkewError as error:
            self._send_error_json(error.status, type(error).__name__, str(error))
            return
        try:
            if route == ("GET", "/healthz"):
                self._send_ok(self.app.health())
            elif route == ("GET", "/metrics"):
                body = self.app.render_metrics().encode("utf-8")
                self._send_payload(
                    200, body, "text/plain; version=0.0.4; charset=utf-8"
                )
            elif route == ("GET", "/v1/decisions"):
                query = parse_qs(parsed.query)
                instance = query.get("instance", [None])[0]
                self._send_ok(self.app.decisions(instance))
            elif route == ("GET", "/v1/costs"):
                self._send_ok(self.app.costs())
            elif route == ("POST", "/v1/events"):
                self._handle_ingest()
            else:
                raise UnknownResourceError(
                    f"no route {method} {parsed.path!r}"
                )
        except ApiError as error:
            self._send_error_json(
                error.status, type(error).__name__, str(error)
            )
        except ServeError as error:
            # State-level validation surfacing through the fleet.
            self._send_error_json(400, type(error).__name__, str(error))
        except Exception as error:  # noqa: BLE001 - last-resort 500
            self._send_error_json(500, "InternalError", str(error))

    def do_GET(self) -> None:  # noqa: N802 - BaseHTTPRequestHandler API
        self._dispatch("GET")

    def do_POST(self) -> None:  # noqa: N802
        self._dispatch("POST")


class AdvisoryServer(ThreadingHTTPServer):
    """A :class:`ThreadingHTTPServer` bound to one :class:`AdvisoryApp`."""

    daemon_threads = True

    def __init__(
        self, address: "Tuple[str, int]", app: AdvisoryApp
    ) -> None:
        super().__init__(address, AdvisoryRequestHandler)
        self.app = app


def build_app(
    model: CostModel,
    *,
    phis: "Sequence[float]" = PAPER_DECISION_FRACTIONS,
    checkpoint_path: "str | Path | None" = None,
    checkpoint_interval: int = 0,
    max_batch: int = DEFAULT_MAX_BATCH,
    max_inflight: int = DEFAULT_MAX_INFLIGHT,
    checkpoint_fsync: bool = False,
    clearing: "ClearingModel | None" = None,
    policies: "Sequence[object] | None" = None,
) -> AdvisoryApp:
    """Assemble an app, restoring fleet state from ``checkpoint_path``
    when a checkpoint exists there (a fresh fleet otherwise).

    ``clearing`` attaches a marketplace clearing model to a *fresh*
    fleet (SELL decisions open listings and settle later — see
    :class:`~repro.serve.state.FleetState`). A restored checkpoint
    carries its own clearing model, which wins: mid-flight listings must
    settle under the hazards they were drawn from.

    ``policies`` attaches extra policy specs (randomized / cancellation
    families, see :func:`repro.core.policyspec.parse_policies`) to a
    *fresh* fleet. A restored checkpoint carries its own specs, which
    win for the same reason the clearing model does: drawn spots and
    re-buy watches must continue under the configuration they were
    created with.
    """
    events_ingested = 0
    last_seq: "Optional[int]" = None
    last_response: "Optional[Dict[str, object]]" = None
    if checkpoint_path is not None and Path(checkpoint_path).exists():
        checkpoint = restore_checkpoint(checkpoint_path)
        fleet = checkpoint.fleet
        events_ingested = checkpoint.events_ingested
        stored_seq = checkpoint.extra.get("ingest_last_seq")
        if stored_seq is not None:
            last_seq = int(stored_seq)  # type: ignore[call-overload]
            stored_response = checkpoint.extra.get("ingest_last_response")
            if isinstance(stored_response, dict):
                last_response = stored_response
    else:
        fleet = FleetState(
            model,
            phis=phis,
            clearing=clearing,
            policies=policies,
        )
    return AdvisoryApp(
        fleet,
        checkpoint_path=checkpoint_path,
        checkpoint_interval=checkpoint_interval,
        max_batch=max_batch,
        max_inflight=max_inflight,
        events_ingested=events_ingested,
        last_seq=last_seq,
        last_response=last_response,
        checkpoint_fsync=checkpoint_fsync,
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.serve",
        description=(
            "Online sell/keep advisory service for reserved instances "
            "(the paper's A_phi algorithms, served from live usage events)"
        ),
    )
    parser.add_argument(
        "--host", default="127.0.0.1", help="bind address (default: %(default)s)"
    )
    parser.add_argument(
        "--port",
        type=int,
        default=8080,
        help="TCP port; 0 picks an ephemeral one (default: %(default)s)",
    )
    parser.add_argument(
        "--period-hours",
        type=int,
        default=8760,
        metavar="T",
        help=(
            "reservation period; the paper's d2.xlarge plan is scaled to "
            "it theta-preservingly (default: %(default)s)"
        ),
    )
    parser.add_argument(
        "--discount",
        type=float,
        default=0.8,
        metavar="A",
        help="selling discount a in [0, 1] (default: %(default)s)",
    )
    parser.add_argument(
        "--phi",
        type=float,
        nargs="+",
        default=list(PAPER_DECISION_FRACTIONS),
        metavar="PHI",
        help="decision fractions to advise at (default: 0.75 0.5 0.25)",
    )
    parser.add_argument(
        "--clearing",
        choices=("off", *sorted(LIQUIDITY_REGIMES)),
        default="off",
        help=(
            "marketplace liquidity regime: SELL decisions open listings "
            "that clear stochastically instead of instantly; 'off' keeps "
            "the paper's instant-sale semantics (default: %(default)s)"
        ),
    )
    parser.add_argument(
        "--policies",
        default=None,
        metavar="SPECS",
        help=(
            "extra policy specs beyond the per-phi thresholds, "
            "';'-separated (e.g. "
            "'randomized:seed=7,spots=0.25|0.5|0.75;"
            "cancellation:phi=0.5,penalty=0.1,trigger=24'); "
            "see repro.core.policyspec for the grammar"
        ),
    )
    parser.add_argument(
        "--clearing-seed",
        type=int,
        default=0,
        metavar="SEED",
        help="base seed of the clearing draw streams (default: %(default)s)",
    )
    parser.add_argument(
        "--checkpoint",
        type=Path,
        default=None,
        metavar="FILE",
        help="restore fleet state from FILE on boot; snapshot back to it",
    )
    parser.add_argument(
        "--checkpoint-interval",
        type=int,
        default=1000,
        metavar="N",
        help="snapshot every N ingested events (default: %(default)s)",
    )
    parser.add_argument(
        "--max-batch",
        type=int,
        default=DEFAULT_MAX_BATCH,
        metavar="N",
        help="events per request limit, 413 beyond (default: %(default)s)",
    )
    parser.add_argument(
        "--max-inflight",
        type=int,
        default=DEFAULT_MAX_INFLIGHT,
        metavar="N",
        help="concurrent ingests admitted, 429 beyond (default: %(default)s)",
    )
    parser.add_argument(
        "--shards",
        type=int,
        default=1,
        metavar="N",
        help=(
            "run an N-shard cluster: one router consistent-hashing "
            "instances onto N supervised worker processes; --checkpoint "
            "then names a directory of per-shard checkpoints "
            "(default: %(default)s = single process)"
        ),
    )
    parser.add_argument(
        "--wal",
        type=Path,
        default=None,
        metavar="FILE",
        help=(
            "binary worker mode (the shard supervisor's; requires "
            "--checkpoint): serve length-prefixed binary frames and "
            "append applied ingest batches to this write-ahead log; "
            "restart replays only the tail past the snapshot"
        ),
    )
    parser.add_argument(
        "--snapshot-interval",
        type=int,
        default=64,
        metavar="N",
        help=(
            "binary worker mode: snapshot + compact the WAL every N "
            "applied batches (default: %(default)s)"
        ),
    )
    parser.add_argument(
        "--wal-fsync",
        choices=("always", "never"),
        default="always",
        help=(
            "binary worker mode: fsync policy per WAL append "
            "(default: %(default)s)"
        ),
    )
    return parser


def main(argv: "Optional[Sequence[str]]" = None) -> int:
    args = build_parser().parse_args(argv)
    if args.shards < 1:
        print(
            f"repro.serve: error: --shards must be >= 1, got {args.shards}",
            file=sys.stderr,
        )
        return 2
    if args.shards > 1:
        from repro.serve.shard import run_cluster

        return run_cluster(args)
    if args.wal is not None:
        from repro.serve.shard import run_binary_worker

        return run_binary_worker(args)
    plan = paper_experiment_plan()
    if args.period_hours != plan.period_hours:
        plan = plan.with_period(args.period_hours)
    model = CostModel(plan=plan, selling_discount=args.discount)
    clearing = (
        ClearingModel.for_regime(args.clearing, seed=args.clearing_seed)
        if args.clearing != "off"
        else None
    )
    try:
        policies = (
            parse_policies(args.policies) if args.policies else None
        )
        app = build_app(
            model,
            phis=tuple(args.phi),
            checkpoint_path=args.checkpoint,
            checkpoint_interval=args.checkpoint_interval,
            max_batch=args.max_batch,
            max_inflight=args.max_inflight,
            clearing=clearing,
            policies=policies,
        )
    except (ServeError, CheckpointError, PolicyError) as error:
        print(f"repro.serve: error: {error}", file=sys.stderr)
        return 2
    server = AdvisoryServer((args.host, args.port), app)
    host, port = server.server_address[:2]
    restored = app.fleet.size
    print(
        f"repro.serve listening on http://{host}:{port} "
        f"(plan {plan.name or 'paper'} T={plan.period_hours}h, a={args.discount}, "
        f"phis={sorted(app.fleet.phis, reverse=True)}, "
        f"{restored} instance(s) restored)",
        file=sys.stderr,
    )
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        print("repro.serve: shutting down", file=sys.stderr)
    finally:
        server.server_close()
        saved = app.checkpoint_now()
        if saved is not None:
            print(f"repro.serve: final checkpoint at {saved}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
