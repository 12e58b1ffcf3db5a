"""Frame transport satellites: JSON round-trip properties, hostile-input
rejection with typed errors, and partial-read reassembly.

Any value of the JSON data model must cross a frame unchanged (floats
bit for bit, NaN as NaN, text with lone surrogates included), and *no*
byte stream — truncated, oversized, garbage, or CRC-flipped — may
escape the decoder as anything but the typed
:class:`~repro.serve.errors.FrameError`/:class:`CodecError` family.
"""

from __future__ import annotations

import math
import random
import re
import struct
import sys
import threading
import time
import zlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.serve.envelope import encode_json
from repro.serve.errors import CodecError, FrameError, FrameTooLargeError
from repro.serve.transport import (
    FRAME_HEADER_SIZE,
    FRAME_REQUEST,
    FRAME_RESPONSE,
    WIRE_VERSION,
    BinaryServer,
    FrameDecoder,
    decode_payload,
    encode_frame,
    encode_request,
    encode_response,
)


# ---------------------------------------------------------------------------
# value generation and comparison

_SCALARS = (
    None,
    True,
    False,
    0,
    -1,
    1,
    2**63 - 1,
    -(2**63),
    0.0,
    -0.0,
    1.5,
    -273.15,
    5e-324,  # smallest subnormal
    2.2250738585072014e-308,  # smallest normal
    float("inf"),
    float("-inf"),
    "",
    "ascii",
    "unicode: φ→∞ 💸",
    "\ud800",  # lone high surrogate
    "x\udfffy",  # lone low surrogate inside text
)


def random_value(rng: random.Random, depth: int = 0):
    """One random JSON-model value, nesting-bounded."""
    if depth >= 4 or rng.random() < 0.6:
        return rng.choice(_SCALARS)
    if rng.random() < 0.5:
        return [random_value(rng, depth + 1) for _ in range(rng.randrange(4))]
    return {
        f"k{i}-{rng.randrange(100)}": random_value(rng, depth + 1)
        for i in range(rng.randrange(4))
    }


def same(left, right) -> bool:
    """Equal values of equal types: floats bit for bit, NaN as NaN."""
    if type(left) is not type(right):
        return False
    if isinstance(left, float):
        if math.isnan(left):
            return math.isnan(right)
        return struct.pack("!d", left) == struct.pack("!d", right)
    if isinstance(left, list):
        return len(left) == len(right) and all(map(same, left, right))
    if isinstance(left, dict):
        return list(left) == list(right) and all(
            same(left[key], right[key]) for key in left
        )
    return left == right


def request_payload(body) -> bytes:
    """The payload of one REQUEST frame carrying ``body``."""
    ((kind, payload),) = FrameDecoder().feed(encode_request(1, "ingest", body))
    assert kind == FRAME_REQUEST
    return payload


def assert_round_trip(value):
    decoded = decode_payload(request_payload({"value": value}))["body"]["value"]
    assert same(decoded, value)
    # Re-encoding the decoded value is byte-stable (canonical form).
    assert request_payload({"value": decoded}) == request_payload({"value": value})


# ---------------------------------------------------------------------------
# JSON round-trips through a frame

def test_scalar_round_trips():
    for value in _SCALARS:
        assert_round_trip(value)


def test_nan_round_trips_as_nan():
    assert_round_trip(float("nan"))


def test_nested_round_trip():
    value = {
        "schema": 2,
        "seq": 7,
        "events": [
            {"instance": "i-001", "busy": True},
            {"instance": "i-002", "demand": 3},
        ],
        "nested": {"list": [None, [1.25, "x"], {"deep": "\x01"}]},
    }
    assert_round_trip(value)


def test_seeded_random_round_trips():
    rng = random.Random(0xEC2)
    for _ in range(500):
        assert_round_trip(random_value(rng))


#: A high surrogate directly followed by a low one reads back as the
#: one astral character the pair spells, so such text is not in the
#: data model: no decoded body can hold it (``json.loads`` joins an
#: escaped pair, and UTF-8 cannot carry surrogates). Lone surrogates
#: are in it, and cross unchanged.
_SURROGATE_PAIR = re.compile("[\ud800-\udbff][\udc00-\udfff]")

_TEXT = st.text(
    st.characters() | st.characters(categories=["Cs"]), max_size=20
).filter(lambda text: _SURROGATE_PAIR.search(text) is None)

json_like = st.recursive(
    st.none()
    | st.booleans()
    | st.integers(min_value=-(2**63), max_value=2**63 - 1)
    | st.floats()
    | _TEXT,
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(_TEXT, children, max_size=4),
    max_leaves=25,
)


@settings(max_examples=200, deadline=None)
@given(json_like)
def test_hypothesis_round_trips(value):
    assert_round_trip(value)


@settings(max_examples=200, deadline=None)
@given(st.binary(max_size=64))
def test_hypothesis_garbage_never_crashes_decoder(data):
    """Arbitrary bytes decode to a message object or raise CodecError —
    nothing else escapes (no UnicodeDecodeError, no RecursionError)."""
    try:
        message = decode_payload(data)
    except CodecError:
        return
    assert isinstance(message, dict)


# ---------------------------------------------------------------------------
# codec rejection: typed errors, never silent truncation

def test_unsupported_type_rejected():
    for value in (object(), {1, 2}, b"raw bytes"):
        with pytest.raises(CodecError):
            encode_request(1, "ingest", {"x": value})
        with pytest.raises(CodecError):
            encode_response(1, 200, {"x": value})


def test_excessive_nesting_rejected_both_ways():
    """Nesting past the recursion limit is a CodecError on encode and on
    decode, never a RecursionError."""
    depth = sys.getrecursionlimit() + 100
    value: object = "leaf"
    for _ in range(depth):
        value = [value]
    with pytest.raises(CodecError):
        encode_request(1, "ingest", {"value": value})
    wire = b'{"k":' * depth + b"0" + b"}" * depth
    with pytest.raises(CodecError, match="recursion"):
        decode_payload(wire)


def test_truncated_payload_rejected():
    payload = request_payload({"k": "value", "n": [1, 2, 3]})
    for cut in range(len(payload)):
        with pytest.raises(CodecError):
            decode_payload(payload[:cut])


def test_trailing_bytes_rejected():
    with pytest.raises(CodecError, match="Extra data"):
        decode_payload(encode_json({"k": 1}) + b"\x00")


def test_non_json_payload_rejected():
    """Invalid UTF-8, and a payload of the retired binary codec (its
    encoding of ``{}``), are CodecErrors."""
    with pytest.raises(CodecError, match="utf-8"):
        decode_payload(b'{"k": "\xff"}')
    with pytest.raises(CodecError, match="not valid JSON"):
        decode_payload(b"\x08\x00\x00\x00\x00")


# ---------------------------------------------------------------------------
# framing

def frame_of(payload: bytes, frame_type: int = FRAME_REQUEST) -> bytes:
    return encode_frame(frame_type, payload)


def test_frame_round_trip():
    payload = encode_json({"schema": 1, "id": 3, "op": "ingest", "body": {}})
    decoder = FrameDecoder()
    frames = decoder.feed(frame_of(payload))
    assert frames == [(FRAME_REQUEST, payload)]
    assert decoder.buffered == 0


def test_pipelined_frames_in_one_feed():
    payloads = [encode_json({"id": i}) for i in range(5)]
    stream = b"".join(
        frame_of(p, FRAME_RESPONSE if i % 2 else FRAME_REQUEST)
        for i, p in enumerate(payloads)
    )
    frames = FrameDecoder().feed(stream)
    assert [p for _, p in frames] == payloads


def test_byte_by_byte_reassembly():
    payload = encode_json({"op": "decisions", "body": {"instance": "i-0"}})
    wire = frame_of(payload)
    decoder = FrameDecoder()
    collected = []
    for i in range(len(wire)):
        collected.extend(decoder.feed(wire[i : i + 1]))
        if i < len(wire) - 1:
            assert collected == []  # nothing surfaces until the last byte
    assert collected == [(FRAME_REQUEST, payload)]


def test_random_chunk_reassembly():
    """Frames split at arbitrary recv() boundaries reassemble exactly."""
    rng = random.Random(20180613)
    payloads = [
        encode_json({"seq": i, "blob": "x" * rng.randrange(200)}) for i in range(20)
    ]
    wire = b"".join(frame_of(p) for p in payloads)
    for _ in range(25):
        decoder = FrameDecoder()
        collected = []
        position = 0
        while position < len(wire):
            step = rng.randrange(1, 8)
            collected.extend(decoder.feed(wire[position : position + step]))
            position += step
        assert [p for _, p in collected] == payloads
        assert decoder.buffered == 0


def test_bad_magic_rejected():
    wire = bytearray(frame_of(b"x"))
    wire[0:2] = b"ZZ"
    with pytest.raises(FrameError, match="magic"):
        FrameDecoder().feed(bytes(wire))


def test_version_skew_rejected():
    wire = bytearray(frame_of(b"x"))
    wire[2] = WIRE_VERSION + 1
    with pytest.raises(FrameError, match="version"):
        FrameDecoder().feed(bytes(wire))


def test_unknown_frame_type_rejected():
    wire = bytearray(frame_of(b"x"))
    wire[3] = 0x7F
    with pytest.raises(FrameError, match="type"):
        FrameDecoder().feed(bytes(wire))


def test_crc_corruption_rejected():
    payload = encode_json({"schema": 1, "id": 1, "op": "health", "body": {}})
    wire = bytearray(frame_of(payload))
    wire[-1] ^= 0xFF  # flip a payload byte; header CRC no longer matches
    with pytest.raises(FrameError, match="CRC"):
        FrameDecoder().feed(bytes(wire))


def test_every_single_bit_flip_is_caught_or_reframed():
    """Flipping any one byte of a frame never yields the original
    payload silently: it raises, or decodes to different bytes."""
    payload = encode_json({"k": 7})
    wire = frame_of(payload)
    for i in range(len(wire)):
        mutated = bytearray(wire)
        mutated[i] ^= 0x01
        decoder = FrameDecoder()
        try:
            frames = decoder.feed(bytes(mutated))
        except FrameError:
            continue
        for _, decoded in frames:
            assert decoded != payload or bytes(mutated) == wire


def test_oversized_declaration_rejected_before_buffering():
    """A hostile header declaring a huge payload is refused from the
    header alone — the decoder must not wait for 2 GiB of bytes."""
    decoder = FrameDecoder(max_payload=1024)
    header = struct.pack("!2sBBII", b"RB", WIRE_VERSION, FRAME_REQUEST, 1 << 30, 0)
    with pytest.raises(FrameTooLargeError):
        decoder.feed(header)


def test_oversized_encode_rejected():
    with pytest.raises(FrameTooLargeError):
        encode_frame(FRAME_REQUEST, b"x" * 2048, max_payload=1024)


def test_truncated_stream_stays_buffered_not_erroneous():
    """A short read is not an error — the decoder just waits."""
    wire = frame_of(encode_json({"k": 1}))
    decoder = FrameDecoder()
    assert decoder.feed(wire[: FRAME_HEADER_SIZE - 2]) == []
    assert decoder.buffered == FRAME_HEADER_SIZE - 2
    assert decoder.feed(wire[FRAME_HEADER_SIZE - 2 :]) == [(FRAME_REQUEST, encode_json({"k": 1}))]


def test_crc_matches_zlib_reference():
    payload = encode_json(["reference"])
    wire = frame_of(payload)
    _, _, _, length, crc = struct.unpack("!2sBBII", wire[:FRAME_HEADER_SIZE])
    assert length == len(payload)
    assert crc == zlib.crc32(payload) & 0xFFFFFFFF


# ---------------------------------------------------------------------------
# wire messages

def test_request_response_message_round_trip():
    _, request = FrameDecoder().feed(encode_request(9, "ingest", {"seq": 1}))[0]
    message = decode_payload(request)
    assert message == {"schema": 2, "id": 9, "op": "ingest", "body": {"seq": 1}}

    kind, response = FrameDecoder().feed(encode_response(9, 200, {"ok": True}))[0]
    assert kind == FRAME_RESPONSE
    message = decode_payload(response)
    assert message == {"schema": 2, "id": 9, "status": 200, "body": {"ok": True}}


def test_decode_payload_requires_mapping():
    with pytest.raises(CodecError, match="expected an object"):
        decode_payload(encode_json([1, 2, 3]))


# ---------------------------------------------------------------------------
# server lifecycle

def test_close_from_another_thread_ends_the_accept_loop():
    # A shard worker closes its server from a request thread when it
    # stops; the accept loop must return so the process can exit.
    server = BinaryServer("127.0.0.1", 0, lambda op, body: (200, {}))
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    time.sleep(0.2)  # let it block in accept()
    server.close()
    thread.join(timeout=5)
    assert not thread.is_alive()
