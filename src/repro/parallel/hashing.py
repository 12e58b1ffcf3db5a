"""Stable content hashing for cache keys.

The on-disk sweep cache (:mod:`repro.parallel.cache`) must key results by
*content*, not identity: the same ``(ExperimentConfig, demand trace,
reservations, policy set, engine version)`` must hash to the same digest
in every process and every session. Python's built-in ``hash`` is
randomised per process and therefore useless here; this module walks a
value recursively and feeds a canonical, type-tagged byte encoding into
SHA-256 instead.

Supported value shapes (everything the experiment layer needs):

* ``None``, ``bool``, ``int``, ``str``, ``bytes``;
* ``float`` — encoded via ``repr`` (shortest round-trip form), so two
  floats hash alike iff they are the same double;
* ``enum.Enum`` — class name + member name;
* ``numpy.ndarray`` — dtype, shape, and the raw buffer;
* dataclass instances — class name + every field, recursively;
* ``dict`` (sorted by encoded key), ``list``, ``tuple``, frozen/sets
  (sorted by encoded element); any other sequence hashes as the tuple
  of its items (``run_fast``'s records, built on first read, are one);
* any object exposing ``content_digest() -> str``, which takes
  precedence and lets domain types define their own stable identity.
"""

from __future__ import annotations

import dataclasses
import enum
import hashlib
from collections.abc import Sequence
from typing import Iterable

import numpy as np

from repro.errors import ReproError


class UnhashableContentError(ReproError):
    """A value reached the content hasher that it cannot encode stably."""


def _encode(value: object, parts: "list[bytes]") -> None:
    """Append a canonical type-tagged encoding of ``value`` to ``parts``."""
    digest_method = getattr(value, "content_digest", None)
    if callable(digest_method) and not isinstance(value, type):
        parts.append(b"custom:" + str(digest_method()).encode("utf-8") + b";")
        return
    if value is None:
        parts.append(b"none;")
    elif isinstance(value, bool):  # before int: bool is an int subclass
        parts.append(b"bool:1;" if value else b"bool:0;")
    elif isinstance(value, int):
        parts.append(b"int:" + str(value).encode("ascii") + b";")
    elif isinstance(value, float):
        parts.append(b"float:" + repr(value).encode("ascii") + b";")
    elif isinstance(value, str):
        encoded = value.encode("utf-8")
        parts.append(b"str:" + str(len(encoded)).encode("ascii") + b":" + encoded + b";")
    elif isinstance(value, bytes):
        parts.append(b"bytes:" + str(len(value)).encode("ascii") + b":" + value + b";")
    elif isinstance(value, enum.Enum):
        tag = f"enum:{type(value).__name__}.{value.name};"
        parts.append(tag.encode("utf-8"))
    elif isinstance(value, np.ndarray):
        array = np.ascontiguousarray(value)
        header = f"ndarray:{array.dtype.str}:{array.shape};"
        parts.append(header.encode("ascii"))
        parts.append(array.tobytes())
        parts.append(b";")
    elif isinstance(value, np.generic):
        _encode(value.item(), parts)
    elif dataclasses.is_dataclass(value) and not isinstance(value, type):
        parts.append(b"dataclass:" + type(value).__name__.encode("utf-8") + b"{")
        for field in dataclasses.fields(value):
            _encode(field.name, parts)
            _encode(getattr(value, field.name), parts)
        parts.append(b"};")
    elif isinstance(value, dict):
        entries = [(_encoded(key), key, item) for key, item in value.items()]
        entries.sort(key=lambda entry: entry[0])
        parts.append(b"dict{")
        for encoded_key, _, item in entries:
            parts.append(encoded_key)
            _encode(item, parts)
        parts.append(b"};")
    elif isinstance(value, (list, tuple)):
        tag = b"list[" if isinstance(value, list) else b"tuple["
        parts.append(tag)
        for item in value:
            _encode(item, parts)
        parts.append(b"];")
    elif isinstance(value, Sequence):
        _encode(tuple(value), parts)
    elif isinstance(value, (set, frozenset)):
        parts.append(b"set{")
        parts.extend(sorted(_encoded(item) for item in value))
        parts.append(b"};")
    else:
        raise UnhashableContentError(
            f"cannot stably hash {type(value).__name__!r} values; "
            "add a content_digest() method or use a supported type"
        )


def _encoded(value: object) -> bytes:
    parts: "list[bytes]" = []
    _encode(value, parts)
    return b"".join(parts)


def stable_hash(*values: object) -> str:
    """SHA-256 hex digest of the canonical encoding of ``values``.

    Deterministic across processes, sessions, and platforms (no use of
    ``PYTHONHASHSEED``-dependent state); raises
    :class:`UnhashableContentError` on types it cannot encode, rather
    than silently falling back to identity.
    """
    digest = hashlib.sha256()
    for value in values:
        digest.update(_encoded(value))
    return digest.hexdigest()


def combine_digests(digests: "Iterable[str]") -> str:
    """Fold an iterable of hex digests into one (order-sensitive)."""
    digest = hashlib.sha256()
    for item in digests:
        digest.update(item.encode("ascii"))
        digest.update(b";")
    return digest.hexdigest()
