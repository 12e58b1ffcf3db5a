"""The serve-mixed workload: a churning fleet driven through a cluster.

``start_cluster(N=2, transport="binary", wal_fsync="always")`` behind a
``RouterServer``, driven in a closed loop by one client over one
persistent HTTP/1.1 connection. Each simulated hour is one
``POST /v1/events`` batch, four point reads and one ``/v1/costs``.

The fleet churns: instance ``j`` is bought at hour ``j * PERIOD // LIVE``
and reports one hourly event until it retires ``PERIOD`` hours later,
so about ``LIVE`` reservations are live, verdicts settle every hour,
and the tracked fleet -- retired ids stay tracked -- grows, with every
snapshot. The first ``PERIOD`` hours are the warm-up ramp.

Set-up is the cluster boot until the warm-up batches are accepted.
Worker-side numbers come from diffing the router's merged ``/metrics``
just before and just after the measured phase.

The check replays every hour into an in-process ``AdvisoryApp`` and
compares each reply with it: an ingest's settled verdicts, each point
read's instance row, and each ``/v1/costs``'s ``phis``. A non-2xx
reply, a transport error or a mismatch counts as a failed request.
"""

from __future__ import annotations

import http.client
import json
import re
import shutil
import socket
import threading
import time
import urllib.parse
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, FrozenSet, List, Optional, Tuple

import numpy as np

from perfbench.record import (
    SETUP_REPS,
    Outcome,
    at_reference_speed,
    calibrate,
    config_hash,
    median,
    peak_rss_mb,
)
from perfbench.spans import Tracer, self_times

from repro.core.account import CostModel
from repro.core.breakeven import PAPER_DECISION_FRACTIONS
from repro.pricing.catalog import paper_experiment_plan
from repro.serve import server as server_module
from repro.serve import shard as shard_module
from repro.serve import transport
from repro.serve.server import build_app
from repro.serve.shard import RouterServer, ShardRouter, start_cluster

N_SHARDS = 2
READS_PER_HOUR = 4
MIN_HOURS = 20


@dataclass(frozen=True)
class FleetShape:
    live: int = 400
    period: int = 64

    def first(self, hour: int) -> int:
        """The first instance bought at or after ``hour``."""
        return max(0, -(-hour * self.live // self.period))


TINY = FleetShape(live=24, period=16)


class FleetChurn:
    """The seeded hour-by-hour event generator (call hours in order)."""

    def __init__(self, seed: int, shape: FleetShape) -> None:
        self.shape = shape
        self._rng = np.random.default_rng(seed)
        self._utilisation = np.empty(0)

    def hour(self, hour: int) -> "Tuple[List[str], List[bool], List[str]]":
        """Live ids, their busy flags, and the ids read back this hour."""
        low = self.shape.first(hour - self.shape.period + 1)
        high = self.shape.first(hour + 1)
        if high > len(self._utilisation):
            fresh = self._rng.random(high - len(self._utilisation))
            self._utilisation = np.concatenate([self._utilisation, fresh])
        busy = self._rng.random(high - low) < self._utilisation[low:high]
        ids = [f"i-{j:06d}" for j in range(low, high)]
        reads = [ids[k] for k in self._rng.integers(0, len(ids), READS_PER_HOUR)]
        return ids, busy.tolist(), reads


def _body(ids: "List[str]", busy: "List[bool]") -> bytes:
    events = [{"instance": i, "busy": b} for i, b in zip(ids, busy)]
    return json.dumps({"events": events}).encode("utf-8")


def model(shape: FleetShape) -> CostModel:
    plan = paper_experiment_plan().with_period(shape.period)
    return CostModel(plan=plan, selling_discount=0.8)


# ----------------------------------------------------------------------
# Client and cluster
# ----------------------------------------------------------------------


@dataclass
class Reply:
    status: "Optional[int]"  # None: transport error
    body: bytes
    seconds: float


class Client:
    """One persistent HTTP/1.1 connection with TCP_NODELAY."""

    def __init__(self, port: int) -> None:
        self.port = port
        self.connection = self._connect()

    def _connect(self) -> http.client.HTTPConnection:
        connection = http.client.HTTPConnection("127.0.0.1", self.port, timeout=30)
        connection.connect()
        connection.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        return connection

    def request(self, method: str, path: str, body: "Optional[bytes]" = None) -> Reply:
        headers = {"Content-Type": "application/json"} if body is not None else {}
        began = time.perf_counter()
        try:
            self.connection.request(method, path, body=body, headers=headers)
            response = self.connection.getresponse()
            data = response.read()
        except (OSError, http.client.HTTPException):
            elapsed = time.perf_counter() - began
            self.connection.close()
            self.connection = self._connect()
            return Reply(None, b"", elapsed)
        return Reply(response.status, data, time.perf_counter() - began)

    def close(self) -> None:
        self.connection.close()


class Cluster:
    """A booted cluster, its HTTP front and the client's connection."""

    def __init__(self, directory: Path, cost_model: CostModel) -> None:
        shutil.rmtree(directory, ignore_errors=True)
        self.router: ShardRouter = start_cluster(
            cost_model,
            N_SHARDS,
            directory,
            phis=PAPER_DECISION_FRACTIONS,
            transport="binary",
            wal_fsync="always",
        )
        try:
            self.server = RouterServer(("127.0.0.1", 0), self.router)
        except OSError:
            self.router.close()
            raise
        self.thread = threading.Thread(target=self.server.serve_forever, daemon=True)
        self.thread.start()
        try:
            self.client = Client(self.server.server_address[1])
        except OSError:
            self._stop_server()
            raise

    def peak_rss_mb(self) -> float:
        """The router process plus every live worker, high-water."""
        total = peak_rss_mb()
        for supervisor in self.router.supervisors:
            if supervisor.process is not None and supervisor.alive():
                total += peak_rss_mb(supervisor.process.pid)
        return total

    def _stop_server(self) -> None:
        self.server.shutdown()
        self.server.server_close()
        self.thread.join(timeout=10)
        self.router.close()

    def close(self) -> None:
        self.client.close()
        self._stop_server()


# ----------------------------------------------------------------------
# /metrics diffing
# ----------------------------------------------------------------------

_SAMPLE = re.compile(r"^([A-Za-z_:][A-Za-z0-9_:]*)(?:\{(.*)\})?\s+(\S+)$")
_LABEL = re.compile(r'(\w+)="((?:[^"\\]|\\.)*)"')

Samples = Dict[Tuple[str, FrozenSet[Tuple[str, str]]], float]


def parse_exposition(text: str) -> Samples:
    samples: Samples = {}
    for line in text.splitlines():
        match = _SAMPLE.match(line)
        if match is None or line.startswith("#"):
            continue
        name, labels, value = match.groups()
        key = (name, frozenset(_LABEL.findall(labels or "")))
        samples[key] = samples.get(key, 0.0) + float(value)
    return samples


def _total(samples: Samples, name: str, **match: "Tuple[str, ...]") -> float:
    total = 0.0
    for (sample_name, labels), value in samples.items():
        if sample_name != name:
            continue
        label_map = dict(labels)
        if all(label_map.get(key) in allowed for key, allowed in match.items()):
            total += value
    return total


def worker_layers(before: Samples, after: Samples, hours: int) -> "Dict[str, float]":
    """Worker-side per-layer numbers per measured hour, summed over shards."""

    def delta(name: str, **match: "Tuple[str, ...]") -> float:
        return (_total(after, name, **match) - _total(before, name, **match)) / hours

    layers = {
        "state.apply_s": delta("repro_serve_ingest_seconds_sum"),
        "state.apply_calls": delta("repro_serve_ingest_seconds_count"),
        "wal.append_s": delta("repro_serve_wal_append_seconds_sum"),
        "wal.appends": delta("repro_serve_wal_append_seconds_count"),
        "wal.snapshots": delta("repro_serve_wal_compactions_total"),
        "shard.hop_ingest_s": delta("repro_router_hop_seconds_sum", op=("ingest",)),
        "shard.hop_read_s": delta(
            "repro_router_hop_seconds_sum", op=("decisions", "costs")
        ),
        "shard.retries": delta("repro_router_shard_retries_total"),
        "shard.failures": delta("repro_router_shard_failures_total"),
        "state.decisions": delta("repro_serve_decisions_total"),
        "serve.events": delta("repro_serve_events_total"),
    }
    layers["shard.worker_other_s"] = (
        layers["shard.hop_ingest_s"]
        + layers["shard.hop_read_s"]
        - layers["state.apply_s"]
        - layers["wal.append_s"]
    )
    return layers


# ----------------------------------------------------------------------
# Router-side spans
# ----------------------------------------------------------------------


def install_spans(tracer: Tracer, router: ShardRouter) -> None:
    """Wrap the per-request calls on the router side.

    ``HashRing.shard_for`` runs once per event, so it is not wrapped:
    its calls are counted and its time is taken by re-partitioning
    each traced batch outside the request (see :func:`run`).
    """
    handler = shard_module.RouterRequestHandler
    tracer.patch(handler, "parse_request", "server.http", anchor=True)
    tracer.patch(handler, "_dispatch", "server.http", anchor=True)
    for method in ("ingest_with_status", "decisions", "costs"):
        tracer.patch(router, method, "shard.route", anchor=True)

    # A reply is decoded on the hub's selector thread while its caller
    # waits in WorkerChannel.call; parent the decode to that call.
    open_calls: "Dict[int, object]" = {}

    def call_name(channel: object, op: str, *rest: object) -> str:
        return "transport.call_ingest" if op == "ingest" else "transport.call_read"

    tracer.patch(
        transport.WorkerChannel,
        "call",
        call_name,
        on_open=lambda args, span: open_calls.__setitem__(id(args[0]), span),
        on_close=lambda args, span: open_calls.pop(id(args[0]), None),
    )
    tracer.patch(
        transport,
        "encode_request",
        "transport.encode",
        observe=lambda args, result: tracer.count("transport.bytes_out", len(result)),  # type: ignore[arg-type]
    )
    tracer.patch(
        transport,
        "decode_payload",
        "transport.decode",
        parent=lambda: open_calls.get(getattr(tracer.local, "channel", 0)),  # type: ignore[arg-type, return-value]
        observe=lambda args, result: tracer.count("transport.bytes_in", len(args[0])),  # type: ignore[arg-type]
    )
    service = transport.TransportHub._service

    def traced_service(hub: object, channel: object) -> None:
        tracer.local.channel = id(channel)
        service(hub, channel)  # type: ignore[arg-type]

    tracer.replace(transport.TransportHub, "_service", traced_service)
    tracer.patch(shard_module, "envelope", "envelope")
    tracer.patch(shard_module, "require_schema", "envelope")
    tracer.patch(server_module, "envelope", "envelope")
    tracer.patch(server_module, "downgrade_payload", "envelope")


ROUTER_LAYERS = {
    "server.http_s": "server.http",
    "transport.encode_s": "transport.encode",
    "transport.decode_s": "transport.decode",
    "transport.call_ingest_s": "transport.call_ingest",
    "transport.call_read_s": "transport.call_read",
    "envelope.s": "envelope",
}


# ----------------------------------------------------------------------
# The run
# ----------------------------------------------------------------------


@dataclass
class Hour:
    traced: bool
    ingest: Reply
    reads: "List[Reply]" = field(default_factory=list)
    costs: "Optional[Reply]" = None
    cycle: float = 0.0
    accepted: int = 0


def run(
    seed: int,
    seconds: float,
    trace: bool,
    work_dir: Path,
    tiny: bool = False,
    perturb: bool = False,
) -> Outcome:
    shape = TINY if tiny else FleetShape()
    cost_model = model(shape)
    params = {
        "workload": "serve-mixed",
        "seed": seed,
        "live": shape.live,
        "period_hours": shape.period,
        "warmup_hours": shape.period,
        "reads_per_hour": READS_PER_HOUR,
        "shards": N_SHARDS,
        "transport": "binary",
        "wal_fsync": "always",
        "phis": list(PAPER_DECISION_FRACTIONS),
        "client": "closed loop, one thread, one persistent connection",
        "work_unit": "events",
    }
    outcome = Outcome(config=params, config_hash=config_hash(params))

    generator = FleetChurn(seed, shape)
    warmup = [_body(*generator.hour(hour)[:2]) for hour in range(shape.period)]

    # -- set-up: boot until the warm-up batches are accepted -----------
    # The reference kernel is timed before and after each boot.
    setup_times: "List[float]" = []
    setup_kernels: "List[float]" = []
    cluster: "Optional[Cluster]" = None
    warmup_replies: "List[Reply]" = []
    tracer = Tracer()
    try:
        for rep in range(2 if tiny else SETUP_REPS):
            if cluster is not None:
                cluster.close()
                cluster = None
            kernel_before = calibrate()
            began = time.perf_counter()
            cluster = Cluster(work_dir / f"cluster-{rep}", cost_model)
            client = cluster.client
            warmup_replies = [client.request("POST", "/v1/events", body) for body in warmup]
            setup_times.append(time.perf_counter() - began)
            setup_kernels.append((kernel_before + calibrate()) / 2)
        if trace:
            install_spans(tracer, cluster.router)

        # -- the measured phase ------------------------------------------
        before = parse_exposition(client.request("GET", "/metrics").body.decode("utf-8"))
        hours: "List[Hour]" = []
        partition_seconds = 0.0
        partition_calls = 0
        ring = cluster.router.ring
        kernel: "List[float]" = []
        began = time.perf_counter()
        hour = shape.period
        while True:
            if len(hours) % 8 == 0:
                kernel.append(calibrate())
            ids, busy, reads = generator.hour(hour)
            body = _body(ids, busy)
            traced = trace and len(hours) % 2 == 1
            tracer.enabled = traced
            cycle_began = time.perf_counter()
            record = Hour(traced, client.request("POST", "/v1/events", body))
            for instance in reads:
                path = "/v1/decisions?instance=" + urllib.parse.quote(instance)
                record.reads.append(client.request("GET", path))
            record.costs = client.request("GET", "/v1/costs")
            record.cycle = time.perf_counter() - cycle_began
            tracer.enabled = False
            if traced:
                partition_began = time.perf_counter()
                for instance in ids + reads:
                    ring.shard_for(instance)
                partition_seconds += time.perf_counter() - partition_began
                partition_calls += len(ids) + len(reads)
            hours.append(record)
            hour += 1
            if len(hours) >= (4 if tiny else MIN_HOURS) and (
                time.perf_counter() - began >= seconds
            ):
                break
        after = parse_exposition(client.request("GET", "/metrics").body.decode("utf-8"))
        peak = cluster.peak_rss_mb()
        tracked = cluster.router.health().get("instances")
    finally:
        tracer.restore()
        if cluster is not None:
            cluster.close()
        for rep in range(SETUP_REPS):
            shutil.rmtree(work_dir / f"cluster-{rep}", ignore_errors=True)
    spans, counts = tracer.take()

    # -- output checks (replay into one in-process app) ----------------
    _check(outcome, seed, shape, cost_model, warmup_replies, hours, perturb)

    # -- end-to-end metrics ----------------------------------------------
    ingest = [h.ingest.seconds for h in hours if not h.traced]
    reads_s = [r.seconds for h in hours if not h.traced for r in h.reads]
    costs_s = [h.costs.seconds for h in hours if not h.traced and h.costs is not None]
    cycles = [h.cycle for h in hours if not h.traced]
    # Hour time in units of a fixed reference kernel timed every eight
    # hours, and set-up time rescaled to the reference speed: the host's
    # speed drifts by a fifth between runs, and the kernel drifts with
    # it. The raw times stay in the record.
    outcome.put(
        "setup_s", at_reference_speed(setup_times, setup_kernels), "s", "lower",
        len(setup_times),
    )
    outcome.put("setup_raw_s", median(setup_times), "s", "lower", len(setup_times))
    untraced = [h for h in hours if not h.traced]
    reference_kernel = median(kernel)
    outcome.put(
        "latency_norm", median(cycles) / reference_kernel, "x", "lower", len(cycles)
    )
    outcome.put(
        "throughput_norm",
        median([h.accepted / h.ingest.seconds for h in untraced]) * reference_kernel,
        "x",
        "higher",
        len(untraced),
    )
    outcome.put("kernel_ms", reference_kernel * 1e3, "ms", "lower", len(kernel))
    outcome.put_timing("hour", cycles)
    accepted = sum(h.accepted for h in untraced)
    outcome.put("events_per_s", accepted / sum(ingest), "events/s", "higher", len(ingest))
    outcome.put_timing("ingest", ingest)
    outcome.put_timing("read", reads_s)
    outcome.put_timing("costs", costs_s)
    outcome.put("peak_rss_mb", peak, "MB", "lower")
    outcome.put("error_rate", outcome.failed / outcome.attempted, "ratio", "lower")
    outcome.notes.append(
        f"{len(hours)} measured hours, {tracked} instances tracked at the end"
    )
    outcome.samples = {
        "timed_s": cycles,
        "kernel_s": kernel,
        "setup_s": setup_times,
        "setup_kernel_s": setup_kernels,
    }

    if trace:
        traced_hours = sum(1 for h in hours if h.traced)
        layers = outcome.layers
        self_s = self_times(spans)
        for metric, name in ROUTER_LAYERS.items():
            layers[metric] = self_s.get(name, 0.0) / traced_hours
        layers["shard.partition_s"] = partition_seconds / traced_hours
        layers["shard.partition_calls"] = partition_calls / traced_hours
        layers["shard.route_s"] = (
            self_s.get("shard.route", 0.0) - partition_seconds
        ) / traced_hours
        layers["transport.bytes_out"] = counts.get("transport.bytes_out", 0) / traced_hours
        layers["transport.bytes_in"] = counts.get("transport.bytes_in", 0) / traced_hours
        layers.update(worker_layers(before, after, len(hours)))
        # No trace.residue_share here: the router's spans run on three
        # threads and overlap the workers' time, so they do not add up
        # to the client's hour.
        layers["trace.overhead"] = median(
            [h.cycle for h in hours if h.traced]
        ) / median(cycles)
        layers["error_rate"] = outcome.failed / outcome.attempted
    return outcome


def _canonical(decisions: object) -> "List[Tuple[object, ...]]":
    if not isinstance(decisions, list):
        return []
    return sorted(
        (d["instance"], d["phi"], d["verdict"], d["working_hours"], d["age_hours"])
        for d in decisions
    )


def _parsed(reply: Reply) -> "Optional[dict]":
    if reply.status is None or not 200 <= reply.status < 300:
        return None
    return json.loads(reply.body)


def _check(
    outcome: Outcome,
    seed: int,
    shape: FleetShape,
    cost_model: CostModel,
    warmup_replies: "List[Reply]",
    hours: "List[Hour]",
    perturb: bool,
) -> None:
    """Replay every hour into one in-process app; count mismatches,
    and note on each measured hour the events the cluster accepted."""
    oracle = build_app(cost_model, phis=PAPER_DECISION_FRACTIONS)
    generator = FleetChurn(seed, shape)
    perturbed = not perturb

    def same(got: object, want: object) -> bool:
        return got == json.loads(json.dumps(want))

    replies = [(reply, None) for reply in warmup_replies] + [(h.ingest, h) for h in hours]
    for hour, (reply, record) in enumerate(replies):
        ids, busy, reads = generator.hour(hour)
        events = [{"instance": i, "busy": b} for i, b in zip(ids, busy)]
        want = oracle.ingest({"events": events})
        got = _parsed(reply)
        if got is not None and record is not None:
            record.accepted = int(got.get("accepted", 0))
            if not perturbed and got.get("decisions"):
                verdict = got["decisions"][0]["verdict"]
                got["decisions"][0]["verdict"] = "keep" if verdict == "sell" else "sell"
                perturbed = True
        outcome.attempted += 1
        if (
            got is None
            or got.get("accepted") != len(ids)
            or _canonical(got.get("decisions")) != _canonical(want["decisions"])
        ):
            outcome.failed += 1
        if record is None:
            continue
        for instance, read in zip(reads, record.reads):
            outcome.attempted += 1
            got = _parsed(read)
            if got is None or not same(
                got.get("instances"), oracle.decisions(instance)["instances"]
            ):
                outcome.failed += 1
        outcome.attempted += 1
        got = _parsed(record.costs) if record.costs is not None else None
        if got is None or not same(got.get("phis"), oracle.costs()["phis"]):
            outcome.failed += 1
