"""Length-prefixed frame transport between router and shards.

The router→worker hop is one persistent connection per worker:

* **Payloads** — stdlib JSON, UTF-8, compact separators
  (:func:`~repro.serve.envelope.encode_json`/
  :func:`~repro.serve.envelope.decode_json`): the same encoding as the
  HTTP bodies and the WAL records. Floats travel as their ``repr``,
  which reads back to the same double, so the bit-identical
  differential guarantee survives the wire.
* **Framing** — :func:`encode_frame` / :class:`FrameDecoder`. Every
  frame is ``magic "RB" | wire version | frame type | payload length |
  CRC-32(payload)`` (12 bytes, network order) followed by the payload.
  The decoder is incremental: it reassembles frames across arbitrarily
  split ``recv`` boundaries and raises typed errors
  (:class:`~repro.serve.errors.FrameError`,
  :class:`~repro.serve.errors.FrameTooLargeError`) on garbage, version
  skew, CRC mismatch, or oversized declarations — after which the
  stream is untrusted and the connection must be severed.
* **Router side** — :class:`TransportHub`, one selector-loop thread
  multiplexing every worker connection. Calls are pipelined: each
  request carries a monotonically increasing ``id``, senders block on a
  per-call event, and the hub completes calls as response frames
  arrive, so many requests can be in flight per connection without a
  thread per request. A dead link fails all of its pending calls with
  :class:`~repro.serve.errors.TransportClosedError` (retryable — the
  router reconnects and the worker's ``seq`` dedupe keeps ingest
  exactly-once).
* **Worker side** — :class:`BinaryServer`, an accept loop handing each
  connection to a reader thread that decodes request frames in order
  and answers ``(status, body)`` from a handler callable. In-order
  processing per connection is what makes the seq discipline airtight:
  a duplicated request frame is either the last applied seq (the stored
  response is replayed) or stale (rejected with 400) — never a second
  apply.

Wire messages (JSON payloads of REQUEST/RESPONSE frames):

* request:  ``{"schema": 2, "id": N, "op": "ingest"|..., "body": {...}}``
* response: ``{"schema": 2, "id": N, "status": 200, "body": {...}}``

where ``body`` is exactly the versioned envelope of
:mod:`repro.serve.envelope` — the same shapes the HTTP path speaks, so
the router's merge logic is transport-agnostic.
"""

from __future__ import annotations

import contextlib
import selectors
import socket
import struct
import threading
import zlib
from typing import Callable, Dict, List, Optional, Tuple

from repro.serve.envelope import SCHEMA_VERSION, decode_json, encode_json
from repro.serve.errors import (
    CodecError,
    FrameError,
    FrameTooLargeError,
    ServeStateError,
    TransportClosedError,
)

# ---------------------------------------------------------------------------
# Framing
# ---------------------------------------------------------------------------

#: Two magic bytes opening every frame ("Reserved-instance Binary").
FRAME_MAGIC = b"RB"

#: Version of the frame layout + payload encoding; peers refuse to mix.
#: Version 2 carries JSON payloads (version 1 carried a binary codec).
WIRE_VERSION = 2

FRAME_REQUEST = 1
FRAME_RESPONSE = 2

_FRAME_TYPES = frozenset({FRAME_REQUEST, FRAME_RESPONSE})

#: magic | wire version | frame type | payload length | CRC-32(payload)
_FRAME_HEADER = struct.Struct("!2sBBII")

FRAME_HEADER_SIZE = _FRAME_HEADER.size

#: Default cap on one frame's payload; a header declaring more is
#: rejected before any allocation (garbage headers read as huge lengths).
DEFAULT_MAX_PAYLOAD = 64 * 1024 * 1024


def encode_frame(
    frame_type: int, payload: bytes, max_payload: int = DEFAULT_MAX_PAYLOAD
) -> bytes:
    """One wire frame: header (magic, version, type, length, CRC) + payload."""
    if frame_type not in _FRAME_TYPES:
        raise FrameError(f"unknown frame type {frame_type!r}")
    if len(payload) > max_payload:
        raise FrameTooLargeError(
            f"payload of {len(payload)} bytes exceeds the {max_payload}-byte cap"
        )
    header = _FRAME_HEADER.pack(
        FRAME_MAGIC,
        WIRE_VERSION,
        frame_type,
        len(payload),
        zlib.crc32(payload) & 0xFFFFFFFF,
    )
    return header + payload


class FrameDecoder:
    """Incremental frame reassembly over a byte stream.

    Feed it whatever ``recv`` returned — frames may arrive split at any
    boundary or several per chunk — and it yields complete
    ``(frame_type, payload)`` pairs. Any integrity failure (bad magic,
    wire-version skew, unknown type, oversized declaration, CRC
    mismatch) raises a typed error; the stream is byte-oriented, so
    after one bad frame nothing later can be trusted and the caller
    must drop the connection.
    """

    def __init__(self, max_payload: int = DEFAULT_MAX_PAYLOAD) -> None:
        if max_payload < 1:
            raise ServeStateError(
                f"max_payload must be positive, got {max_payload!r}"
            )
        self.max_payload = max_payload
        self._buffer = bytearray()

    @property
    def buffered(self) -> int:
        """Bytes held waiting for the rest of a frame."""
        return len(self._buffer)

    def feed(self, data: bytes) -> "List[Tuple[int, bytes]]":
        """Absorb ``data``; return every frame completed by it."""
        # Decoders are connection-confined: exactly one thread (the hub
        # loop, or a worker's per-connection reader) ever feeds one.
        self._buffer += data  # repro-lint: disable=REP102 - single-reader by design
        frames: "List[Tuple[int, bytes]]" = []
        while True:
            if len(self._buffer) < FRAME_HEADER_SIZE:
                return frames
            magic, version, frame_type, length, crc = _FRAME_HEADER.unpack_from(
                self._buffer
            )
            if magic != FRAME_MAGIC:
                raise FrameError(
                    f"bad frame magic {bytes(magic)!r} (expected {FRAME_MAGIC!r}); "
                    "stream is corrupt or not a repro transport peer"
                )
            if version != WIRE_VERSION:
                raise FrameError(
                    f"peer speaks wire version {version}, this build speaks "
                    f"{WIRE_VERSION}; refusing to interoperate across versions"
                )
            if frame_type not in _FRAME_TYPES:
                raise FrameError(f"unknown frame type {frame_type}")
            if length > self.max_payload:
                raise FrameTooLargeError(
                    f"frame declares a {length}-byte payload, beyond the "
                    f"{self.max_payload}-byte cap"
                )
            end = FRAME_HEADER_SIZE + length
            if len(self._buffer) < end:
                return frames
            payload = bytes(self._buffer[FRAME_HEADER_SIZE:end])
            if zlib.crc32(payload) & 0xFFFFFFFF != crc:
                raise FrameError(
                    f"frame payload failed its CRC-32 check ({length} bytes); "
                    "stream is corrupt"
                )
            del self._buffer[:end]
            frames.append((frame_type, payload))


def encode_request(request_id: int, op: str, body: "Dict[str, object]") -> bytes:
    """A complete REQUEST frame for one pipelined call."""
    return encode_frame(
        FRAME_REQUEST,
        encode_json(
            {"schema": SCHEMA_VERSION, "id": request_id, "op": op, "body": body}
        ),
    )


def encode_response(
    request_id: int, status: int, body: "Dict[str, object]"
) -> bytes:
    """A complete RESPONSE frame answering ``request_id``."""
    return encode_frame(
        FRAME_RESPONSE,
        encode_json(
            {"schema": SCHEMA_VERSION, "id": request_id, "status": status, "body": body}
        ),
    )


def decode_payload(payload: bytes) -> "Dict[str, object]":
    """Decode a frame payload that must be a message object."""
    message = decode_json(payload, CodecError, "frame payload")
    if not isinstance(message, dict):
        raise CodecError(
            f"frame payload decodes to {type(message).__name__}, expected an object"
        )
    return message


# ---------------------------------------------------------------------------
# Router side: one selector loop, many persistent worker connections
# ---------------------------------------------------------------------------


class _PendingCall:
    """One in-flight request: the caller parks on ``event``."""

    __slots__ = ("event", "status", "body", "error")

    def __init__(self) -> None:
        self.event = threading.Event()
        self.status: "Optional[int]" = None
        self.body: "Optional[Dict[str, object]]" = None
        self.error: "Optional[TransportClosedError]" = None


class WorkerChannel:
    """One persistent, pipelined connection to a shard worker.

    ``call`` may be invoked from many threads at once: each call takes
    a fresh request id, sends its frame under the send lock, and parks
    until the hub's selector loop completes it with the matching
    response — so reads and ingests interleave on one connection
    without blocking each other.
    """

    def __init__(
        self, hub: "TransportHub", sock: socket.socket, peer: str
    ) -> None:
        self._hub = hub
        self._sock = sock
        self.peer = peer
        self._decoder = FrameDecoder()
        self._send_lock = threading.Lock()
        # Guards _pending/_next_id/_closed (caller threads + hub thread).
        self._lock = threading.Lock()
        self._pending: "Dict[int, _PendingCall]" = {}
        self._next_id = 1
        self._closed = False

    @property
    def closed(self) -> bool:
        with self._lock:
            return self._closed

    def call(
        self, op: str, body: "Dict[str, object]", timeout: float
    ) -> "Tuple[int, Dict[str, object]]":
        """One pipelined round-trip; returns ``(status, body)``.

        Raises :class:`~repro.serve.errors.TransportClosedError` when
        the link dies or the reply misses its deadline — both retryable
        through the router's seq discipline.
        """
        pending = _PendingCall()
        with self._lock:
            if self._closed:
                raise TransportClosedError(
                    f"connection to {self.peer} is closed"
                )
            request_id = self._next_id
            self._next_id += 1
            self._pending[request_id] = pending
        frame = encode_request(request_id, op, body)
        try:
            with self._send_lock:
                self._sock.sendall(frame)
        except OSError as error:
            failure = TransportClosedError(
                f"send to {self.peer} failed: {error}"
            )
            self._hub.drop(self, failure)
            raise failure from error
        if not pending.event.wait(timeout):
            with self._lock:
                self._pending.pop(request_id, None)
            raise TransportClosedError(
                f"no reply from {self.peer} for op {op!r} within {timeout}s"
            )
        if pending.error is not None:
            raise pending.error
        status = pending.status
        reply = pending.body
        if not isinstance(status, int) or not isinstance(reply, dict):
            raise TransportClosedError(
                f"{self.peer} answered a malformed response message"
            )
        return status, reply

    def close(self) -> None:
        """Tear the connection down and fail its pending calls."""
        self._hub.drop(
            self, TransportClosedError(f"connection to {self.peer} was closed")
        )

    # -- hub-thread side -------------------------------------------------

    def _complete(self, message: "Dict[str, object]") -> None:
        """Route one decoded response message to its waiting caller.

        A message for an unknown id (an abandoned timeout, or a
        duplicated frame injected by a flaky network) is ignored — the
        seq discipline at the worker already made the duplicate
        harmless.
        """
        request_id = message.get("id")
        if not isinstance(request_id, int):
            return
        with self._lock:
            pending = self._pending.pop(request_id, None)
        if pending is None:
            return
        status = message.get("status")
        body = message.get("body")
        pending.status = status if isinstance(status, int) else None
        pending.body = body if isinstance(body, dict) else None
        pending.event.set()

    def _abort_locked(self, error: TransportClosedError) -> "List[_PendingCall]":
        """Mark closed and detach all pending calls; caller holds no
        channel lock (the method takes it)."""
        with self._lock:
            self._closed = True
            pending = list(self._pending.values())
            self._pending.clear()
        return pending


class TransportHub:
    """One selector-loop thread multiplexing every worker connection.

    The router owns exactly one hub: connections register with it, the
    loop thread reads whatever is ready, feeds each connection's frame
    decoder, and completes pending calls. All socket *reads* happen on
    the loop thread; *writes* happen on caller threads under each
    channel's send lock (sockets are full-duplex). Teardown requests
    from any thread are queued and performed by the loop thread, so the
    selector is only ever touched from one place.
    """

    def __init__(self, select_interval: float = 0.5) -> None:
        self._selector = selectors.DefaultSelector()
        self._select_interval = select_interval
        # Guards _running/_thread/_joining/_additions/_removals.
        self._lock = threading.Lock()
        self._running = False
        self._thread: "Optional[threading.Thread]" = None
        self._additions: "List[WorkerChannel]" = []
        self._removals: "List[Tuple[WorkerChannel, TransportClosedError]]" = []
        self._wake_recv, self._wake_send = socket.socketpair()
        self._wake_recv.setblocking(False)

    def start(self) -> None:
        """Start the loop thread (idempotent)."""
        with self._lock:
            if self._running:
                return
            self._running = True
            self._selector.register(self._wake_recv, selectors.EVENT_READ, None)
            self._thread = threading.Thread(
                target=self._run,
                daemon=True,
                name="repro-transport-hub",
            )
            self._thread.start()

    def connect(
        self, address: "Tuple[str, int]", timeout: float = 10.0
    ) -> WorkerChannel:
        """Dial a worker and register the connection with the loop."""
        try:
            sock = socket.create_connection(address, timeout=timeout)
        except OSError as error:
            raise TransportClosedError(
                f"cannot connect to worker at {address[0]}:{address[1]}: {error}"
            ) from error
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        sock.settimeout(None)
        channel = WorkerChannel(self, sock, f"{address[0]}:{address[1]}")
        with self._lock:
            if not self._running:
                sock.close()
                raise ServeStateError(
                    "TransportHub.start() must be called before connect()"
                )
            self._additions.append(channel)
        self._wake()
        return channel

    def drop(self, channel: WorkerChannel, error: TransportClosedError) -> None:
        """Queue a connection teardown; safe from any thread."""
        for pending in channel._abort_locked(error):
            pending.error = error
            pending.event.set()
        with self._lock:
            self._removals.append((channel, error))
        self._wake()

    def close(self) -> None:
        """Stop the loop and close every connection."""
        with self._lock:
            if not self._running:
                return
            self._running = False
            thread = self._thread
        self._wake()
        if thread is not None:
            thread.join(timeout=5)

    def _wake(self) -> None:
        try:
            self._wake_send.send(b"\x00")
        except OSError:  # repro-lint: disable=REP007 - hub already shut down
            pass

    # -- loop thread -----------------------------------------------------

    def _run(self) -> None:
        try:
            while True:
                with self._lock:
                    running = self._running
                    additions = self._additions
                    removals = self._removals
                    self._additions = []
                    self._removals = []
                for channel, _error in removals:
                    self._unregister_locked(channel)
                if not running:
                    break
                for channel in additions:
                    if not channel.closed:
                        self._selector.register(
                            channel._sock, selectors.EVENT_READ, channel
                        )
                for key, _events in self._selector.select(self._select_interval):
                    if key.data is None:
                        self._drain_wakeups()
                    else:
                        self._service(key.data)
        finally:
            self._shutdown_locked()

    def _drain_wakeups(self) -> None:
        try:
            while self._wake_recv.recv(4096):
                pass
        except (BlockingIOError, OSError):  # repro-lint: disable=REP007 - drained dry
            pass

    def _service(self, channel: WorkerChannel) -> None:
        """Read whatever one connection has and complete its calls."""
        try:
            data = channel._sock.recv(1 << 18)
        except (BlockingIOError, InterruptedError):
            return
        except OSError as error:
            self.drop(
                channel,
                TransportClosedError(f"read from {channel.peer} failed: {error}"),
            )
            return
        if not data:
            self.drop(
                channel,
                TransportClosedError(f"{channel.peer} closed the connection"),
            )
            return
        try:
            frames = channel._decoder.feed(data)
        except FrameError as error:
            self.drop(
                channel,
                TransportClosedError(
                    f"corrupt stream from {channel.peer}: {error}"
                ),
            )
            return
        for frame_type, payload in frames:
            if frame_type != FRAME_RESPONSE:
                self.drop(
                    channel,
                    TransportClosedError(
                        f"{channel.peer} sent frame type {frame_type} where a "
                        "response was expected"
                    ),
                )
                return
            try:
                message = decode_payload(payload)
            except CodecError as error:
                self.drop(
                    channel,
                    TransportClosedError(
                        f"undecodable response from {channel.peer}: {error}"
                    ),
                )
                return
            channel._complete(message)

    def _unregister_locked(self, channel: WorkerChannel) -> None:
        """Selector/socket teardown; only the loop thread calls this."""
        try:
            self._selector.unregister(channel._sock)
        except (KeyError, ValueError):  # repro-lint: disable=REP007 - never registered
            pass
        try:
            channel._sock.close()
        except OSError:  # repro-lint: disable=REP007 - already closed
            pass

    def _shutdown_locked(self) -> None:
        """Final teardown on loop exit; only the loop thread calls this."""
        closing = TransportClosedError("transport hub is shutting down")
        for key in list(self._selector.get_map().values()):
            channel = key.data
            if channel is None:
                continue
            for pending in channel._abort_locked(closing):
                pending.error = closing
                pending.event.set()
            self._unregister_locked(channel)
        self._selector.unregister(self._wake_recv)
        self._selector.close()
        self._wake_recv.close()
        self._wake_send.close()


# ---------------------------------------------------------------------------
# Worker side: accept loop + per-connection reader threads
# ---------------------------------------------------------------------------

#: ``handler(op, body) -> (status, envelope_body)``
Handler = Callable[[str, "Dict[str, object]"], "Tuple[int, Dict[str, object]]"]


class BinaryServer:
    """The worker's frame server: in-order request handling per link.

    One daemon thread per accepted connection reads request frames,
    dispatches each to ``handler`` *in arrival order*, and writes the
    response frame back. Ordered handling is load-bearing: the router's
    exactly-once ingest relies on a worker never reordering two seqs it
    received on one connection. A framing or codec failure severs the
    connection (the stream is untrusted); the router reconnects and
    retries.
    """

    def __init__(
        self,
        host: str,
        port: int,
        handler: Handler,
        max_payload: int = DEFAULT_MAX_PAYLOAD,
    ) -> None:
        self._handler = handler
        self._max_payload = max_payload
        self._listener = socket.create_server((host, port))
        self._closed = False
        self._lock = threading.Lock()

    @property
    def address(self) -> "Tuple[str, int]":
        """The bound ``(host, port)``."""
        return self._listener.getsockname()[:2]

    def serve_forever(self) -> None:
        """Accept connections until :meth:`close`; runs on the caller."""
        while True:
            try:
                connection, _peer = self._listener.accept()
            except OSError:
                return  # listener closed
            connection.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            thread = threading.Thread(
                target=self._serve_connection,
                args=(connection,),
                daemon=True,
                name="repro-binary-conn",
            )
            thread.start()

    def close(self) -> None:
        """Stop accepting; safe from any thread (a shutdown wakes the
        accept loop, which a bare close does not on Linux)."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
        with contextlib.suppress(OSError):
            self._listener.shutdown(socket.SHUT_RDWR)
        self._listener.close()

    def _serve_connection(self, connection: socket.socket) -> None:
        decoder = FrameDecoder(self._max_payload)
        try:
            while True:
                try:
                    data = connection.recv(1 << 18)
                except OSError:
                    return
                if not data:
                    return
                try:
                    frames = decoder.feed(data)
                except FrameError:
                    return  # untrusted stream: sever, router retries
                for frame_type, payload in frames:
                    if frame_type != FRAME_REQUEST:
                        return
                    if not self._answer(connection, payload):
                        return
        finally:
            try:
                connection.close()
            except OSError:  # repro-lint: disable=REP007 - already closed
                pass

    def _answer(self, connection: socket.socket, payload: bytes) -> bool:
        """Handle one request payload; False severs the connection."""
        try:
            message = decode_payload(payload)
        except CodecError:
            return False
        request_id = message.get("id")
        if not isinstance(request_id, int):
            return False
        if message.get("schema") != SCHEMA_VERSION:
            response = encode_response(
                request_id,
                400,
                {
                    "schema": SCHEMA_VERSION,
                    "error": {
                        "kind": "SchemaSkewError",
                        "message": (
                            f"request carries schema {message.get('schema')!r}; "
                            f"this worker speaks {SCHEMA_VERSION}"
                        ),
                    },
                },
            )
            return self._send(connection, response)
        op = message.get("op")
        body = message.get("body")
        status, reply = self._handler(
            op if isinstance(op, str) else "",
            body if isinstance(body, dict) else {},
        )
        return self._send(connection, encode_response(request_id, status, reply))

    @staticmethod
    def _send(connection: socket.socket, frame: bytes) -> bool:
        try:
            connection.sendall(frame)
        except OSError:
            return False
        return True
