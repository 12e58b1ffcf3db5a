"""Exception hierarchy of the serving layer.

Everything derives from :class:`ServeError` (itself a
:class:`~repro.errors.ReproError`). The HTTP server maps
:class:`ApiError` subclasses to status codes mechanically — raising the
right type anywhere inside request handling produces the right response,
so validation code never touches the transport.
"""

from __future__ import annotations

from repro.errors import ReproError


class ServeError(ReproError):
    """Base class for all serving-layer errors."""


class ServeStateError(ServeError):
    """Invalid tracker input or configuration (negative demand, bad phi)."""


class CheckpointError(ServeError):
    """A checkpoint file is missing, unreadable, or version-incompatible."""


class ApiError(ServeError):
    """A request error with an HTTP status; subclasses pick the code."""

    status: int = 400


class RequestValidationError(ApiError):
    """The request body or query string failed validation."""

    status = 400


class UnknownResourceError(ApiError):
    """The requested path or instance does not exist."""

    status = 404


class PayloadTooLargeError(ApiError):
    """The event batch exceeds the configured per-request limit."""

    status = 413


class ServerBusyError(ApiError):
    """Admission control rejected the request; retry later (backpressure)."""

    status = 429


class SchemaSkewError(ApiError):
    """Request or response carries a different envelope schema version.

    Version skew between router and shards is a deployment error: the
    cluster refuses to mix wire formats rather than mis-merge decisions.
    """

    status = 400


class ShardError(ApiError):
    """Base class for shard-cluster (router/supervisor) failures.

    These are :class:`ApiError` subclasses so the router's HTTP handler
    maps them to gateway-style status codes mechanically.
    """

    status = 502


class ShardUnavailableError(ShardError):
    """A shard could not be reached within the retry budget."""

    status = 503


class ShardProtocolError(ShardError):
    """A shard answered outside the envelope contract (bad schema/shape)."""

    status = 502


class TransportError(ShardError):
    """Base class for shard-transport failures (framing, codec, link)."""

    status = 502


class FrameError(TransportError):
    """A frame failed validation: bad magic, version skew, CRC mismatch,
    or an unknown frame type — the byte stream can no longer be trusted
    and the connection is severed."""

    status = 502


class FrameTooLargeError(FrameError):
    """A frame header declares a payload beyond the configured cap."""

    status = 502


class CodecError(TransportError):
    """A frame or WAL payload could not be encoded as JSON, or a frame
    payload could not be decoded (unsupported type, invalid UTF-8 or
    JSON, nesting past the recursion limit)."""

    status = 502


class TransportClosedError(ShardUnavailableError, TransportError):
    """The persistent connection to a worker is gone (EOF, reset, or a
    reply deadline passed); retryable — the router reconnects."""

    status = 503


class WalError(ServeError):
    """Base class for write-ahead-log failures."""


class WalCorruptionError(WalError):
    """The WAL header or an interior record is unreadable garbage."""


class WalTruncatedError(WalCorruptionError):
    """The WAL tail is torn (partial record or CRC-failed last entries).

    Raised by strict recovery; non-strict recovery truncates the tail,
    reports it, and lets the router's seq retry re-apply the lost batch.
    """


class WalVersionError(WalError):
    """The WAL was written by a different format or state-machine
    version; replaying it could produce different decisions, so the
    worker refuses to load it."""
