"""The versioned JSON envelope every serve endpoint speaks.

One wire contract for the whole serving layer — the single-process
server, the shard workers, and the shard router all exchange exactly
these shapes, in one encoding: stdlib JSON as UTF-8
(:func:`encode_json`/:func:`decode_json`) for HTTP bodies, shard
frames and WAL records alike:

* success: ``{"schema": 2, ...payload...}``
* error:   ``{"schema": 2, "error": {"kind": "<TypeName>", "message": "..."}}``

``schema`` is the wire-format version. The router stamps it on every
request it forwards and refuses any response whose version differs
(:func:`require_schema`): a mixed-version cluster fails loudly at the
first RPC instead of silently mis-merging decisions.

Schema history
--------------
* **1** — the original envelope.
* **2** — decision rows and instance rows may carry policy provenance
  (``policy_spec``, ``drawn_phi``, ``rebuys``), and ``/v1/costs`` may
  carry a ``policies`` section (cancellation re-buy counts).

External clients negotiate *down*: a request carrying an
``X-Repro-Schema: 1`` header (or an ingest body with ``"schema": 1``)
gets schema-1 responses with the schema-2-only keys stripped
(:func:`downgrade_payload`) — old clients keep working against a new
server. Router↔shard traffic never negotiates: both ends of a cluster
must speak :data:`SCHEMA_VERSION` exactly.
"""

from __future__ import annotations

import json
from typing import Dict, List, Optional, Type

from repro.serve.errors import CodecError, SchemaSkewError, ServeError

#: Version of the serve wire format. Bump on any change to response or
#: request shapes; router and shards refuse to interoperate across
#: versions (external clients may negotiate down, see SUPPORTED_SCHEMAS).
SCHEMA_VERSION = 2

#: Schemas this build can *answer in*, newest first. Clients request one
#: via the ``X-Repro-Schema`` header; anything else is a skew error.
SUPPORTED_SCHEMAS = (1, SCHEMA_VERSION)

#: Response keys that exist only in schema 2; stripped (recursively)
#: when answering a schema-1 client.
_SCHEMA2_KEYS = frozenset({"policy_spec", "drawn_phi", "rebuys", "policies"})


def encode_json(value: object) -> bytes:
    """Compact JSON bytes for a shard frame or WAL record.

    ``ensure_ascii`` stays on, so text holding lone surrogates encodes
    as ``\\u`` escapes; floats travel as their ``repr``, which reads
    back to the same double. An unencodable value (an unsupported type,
    an integer past the digit limit, nesting past the recursion limit)
    raises :class:`~repro.serve.errors.CodecError`.
    """
    try:
        return json.dumps(value, separators=(",", ":")).encode("utf-8")
    except (TypeError, ValueError, RecursionError) as error:
        raise CodecError(f"cannot encode the payload as JSON: {error}") from error


def decode_json(data: bytes, error: "Type[ServeError]", what: str) -> object:
    """Decode one JSON document from UTF-8 ``data``.

    The bytes are decoded as UTF-8 first: ``json.loads`` on bytes would
    also guess UTF-16/32. Any failure (invalid UTF-8, bad JSON, an
    integer past the digit limit, nesting past the recursion limit)
    raises the caller's typed ``error``, its message naming ``what``.
    """
    try:
        return json.loads(data.decode("utf-8"))
    except (ValueError, RecursionError) as cause:
        raise error(f"{what} is not valid JSON: {cause}") from cause


def envelope(
    payload: "Dict[str, object]", schema: int = SCHEMA_VERSION
) -> "Dict[str, object]":
    """Wrap a success payload in the versioned envelope.

    ``schema`` is the version the *client* negotiated; payload content
    must already match it (see :func:`downgrade_payload`).
    """
    wrapped: "Dict[str, object]" = {"schema": schema}
    wrapped.update(payload)
    return wrapped


def error_envelope(
    kind: str, message: str, schema: int = SCHEMA_VERSION
) -> "Dict[str, object]":
    """The one error shape every serve endpoint returns."""
    return {
        "schema": schema,
        "error": {"kind": kind, "message": message},
    }


def negotiate_schema(header: "Optional[str]") -> int:
    """Resolve a client's ``X-Repro-Schema`` request header.

    No header means the current version. A header naming a supported
    version selects it; anything else raises
    :class:`~repro.serve.errors.SchemaSkewError` (the client asked for a
    contract this build cannot honour — failing is safer than answering
    in a shape it does not expect).
    """
    if header is None or not header.strip():
        return SCHEMA_VERSION
    try:
        requested = int(header.strip())
    except ValueError as error:
        raise SchemaSkewError(
            f"X-Repro-Schema must be an integer, got {header!r}"
        ) from error
    if requested not in SUPPORTED_SCHEMAS:
        raise SchemaSkewError(
            f"requested envelope schema {requested} is not supported "
            f"(this build answers schemas {SUPPORTED_SCHEMAS})"
        )
    return requested


def downgrade_payload(payload: object, schema: int) -> object:
    """Return ``payload`` shaped for ``schema``.

    Schema 2 returns the payload untouched. Schema 1 returns a deep
    copy with every schema-2-only key removed, so pre-provenance
    clients see exactly the shapes they were written against.
    """
    if schema >= SCHEMA_VERSION:
        return payload
    if isinstance(payload, dict):
        return {
            key: downgrade_payload(value, schema)
            for key, value in payload.items()
            if key not in _SCHEMA2_KEYS
        }
    if isinstance(payload, list):
        stripped: "List[object]" = [
            downgrade_payload(item, schema) for item in payload
        ]
        return stripped
    return payload


def require_schema(body: object, source: str = "peer") -> "Dict[str, object]":
    """Validate that ``body`` is an envelope of this build's version.

    Returns the body (typed as a dict) so callers can chain. Raises
    :class:`~repro.serve.errors.SchemaSkewError` on a missing or
    mismatched ``schema`` field — version skew between router and shard
    is a deployment error and must never be papered over.
    """
    if not isinstance(body, dict):
        raise SchemaSkewError(
            f"{source} sent a non-object body ({type(body).__name__}); "
            "expected a schema envelope"
        )
    version = body.get("schema")
    if version != SCHEMA_VERSION:
        raise SchemaSkewError(
            f"{source} speaks envelope schema {version!r}; this build "
            f"speaks {SCHEMA_VERSION} — refusing to interoperate across "
            "versions"
        )
    return body


def error_kind(body: "Dict[str, object]") -> "Optional[str]":
    """The ``error.kind`` of an error envelope, or ``None`` on success."""
    error = body.get("error")
    if isinstance(error, dict):
        kind = error.get("kind")
        return str(kind) if kind is not None else None
    return None
