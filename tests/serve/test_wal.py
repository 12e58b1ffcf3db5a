"""WAL satellites: crash-replay equivalence, compaction, torn tails,
interior corruption, and version gating.

The durability story the cluster leans on is all here, at the unit
level: a worker that dies after ``append`` returns must come back to
*exactly* the pre-crash state (same decisions, same costs, same dedupe
watermark), compaction must never change the decision trajectory, and
damage recovery must be loud — torn tails heal with a typed report and
a metric, anything worse refuses with a typed error.
"""

from __future__ import annotations

import random
import struct
import sys
import zlib

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.core.account import CostModel
from repro.pricing.plan import PricingPlan
from repro.serve.envelope import SCHEMA_VERSION, error_kind
from repro.serve.errors import (
    WalCorruptionError,
    WalError,
    WalTruncatedError,
    WalVersionError,
)
from repro.serve.server import build_app
from repro.serve.shard import ShardWorker
from repro.serve.state import STATE_VERSION
from repro.serve.wal import (
    WAL_FORMAT,
    WAL_MAGIC,
    Wal,
    read_wal,
)

PHIS = (0.75, 0.5)
_WAL_HEADER = struct.Struct("!4sII")


def model() -> CostModel:
    plan = PricingPlan(
        on_demand_hourly=1.0, upfront=20.0, alpha=0.3, period_hours=48
    )
    return CostModel(plan=plan, selling_discount=0.8)


def batches(count: int, n_instances: int = 6, seed: int = 20180702):
    """``count`` deterministic ingest bodies, seq 1..count."""
    rng = random.Random(seed)
    out = []
    for seq in range(1, count + 1):
        out.append(
            {
                "schema": SCHEMA_VERSION,
                "seq": seq,
                "events": [
                    {"instance": f"i-{k}", "busy": rng.random() < 0.4}
                    for k in range(n_instances)
                ],
            }
        )
    return out


def make_worker(tmp_path, name: str, snapshot_interval: int) -> ShardWorker:
    """An app + worker rooted at ``tmp_path`` (restores if files exist)."""
    app = build_app(
        model(),
        phis=PHIS,
        checkpoint_path=tmp_path / f"{name}.json",
        checkpoint_interval=0,
        checkpoint_fsync=True,
    )
    return ShardWorker(
        app,
        tmp_path / f"{name}.wal",
        snapshot_interval=snapshot_interval,
        wal_fsync="always",
    )


def reference_state(stream):
    """A never-crashed app fed the same stream (no WAL, no checkpoint)."""
    app = build_app(model(), phis=PHIS)
    for body in stream:
        app.ingest(dict(body))
    return app


def assert_same_state(app, reference):
    assert app.decisions() == reference.decisions()
    assert app.costs() == reference.costs()
    assert app.events_ingested == reference.events_ingested


# ---------------------------------------------------------------------------
# crash replay

def test_replay_after_crash_equals_pre_crash_state(tmp_path):
    """Kill after the append, before any snapshot: the restarted worker
    replays the WAL tail and lands on the bit-identical state."""
    stream = batches(10)
    worker = make_worker(tmp_path, "w", snapshot_interval=100)
    worker.recover()
    for body in stream:
        worker._ingest(dict(body))
    # Crash: no shutdown(), no final snapshot — the WAL is the only
    # record of every batch since recover()'s empty snapshot.
    reborn = make_worker(tmp_path, "w", snapshot_interval=100)
    replayed, recovery = reborn.recover()
    assert replayed == 10
    assert recovery.truncated_entries == 0
    assert reborn.app.last_seq == 10
    assert_same_state(reborn.app, reference_state(stream))


def test_retried_seq_replays_stored_response_after_crash(tmp_path):
    """The dedupe watermark survives the crash: re-sending the last seq
    yields the logged response again, not a second apply."""
    stream = batches(4)
    worker = make_worker(tmp_path, "w", snapshot_interval=100)
    worker.recover()
    responses = [worker._ingest(dict(body)) for body in stream]
    reborn = make_worker(tmp_path, "w", snapshot_interval=100)
    reborn.recover()
    retry = reborn._ingest(dict(stream[-1]))
    assert retry == responses[-1]
    assert reborn.app.last_seq == 4


def test_compaction_preserves_decision_trajectory(tmp_path):
    """Multiple snapshot+compact cycles mid-stream change nothing about
    the decisions, and bound the on-disk log to the tail."""
    stream = batches(10)
    worker = make_worker(tmp_path, "w", snapshot_interval=3)
    worker.recover()
    for body in stream:
        worker._ingest(dict(body))
    # 3 compactions happened (after seqs 3, 6, 9); only seq 10 remains.
    on_disk = read_wal(tmp_path / "w.wal")
    assert [entry.seq for entry in on_disk.entries] == [10]
    reborn = make_worker(tmp_path, "w", snapshot_interval=3)
    replayed, _ = reborn.recover()
    assert replayed == 1  # the tail, never full history
    assert_same_state(reborn.app, reference_state(stream))


def test_crash_between_snapshot_and_compaction_skips_stale(tmp_path):
    """Stale records (seq at or below the snapshot watermark) are
    skipped on replay — they must not double-apply."""
    stream = batches(5)
    worker = make_worker(tmp_path, "w", snapshot_interval=100)
    worker.recover()
    for body in stream:
        worker._ingest(dict(body))
    # Snapshot lands, then the crash hits before compact().
    worker.app.checkpoint_now()
    reborn = make_worker(tmp_path, "w", snapshot_interval=100)
    replayed, recovery = reborn.recover()
    assert [entry.seq for entry in recovery.entries] == [1, 2, 3, 4, 5]
    assert replayed == 0  # all stale: the snapshot already covers them
    assert reborn.app.last_seq == 5
    assert_same_state(reborn.app, reference_state(stream))


def test_recover_compacts_so_next_restart_replays_nothing(tmp_path):
    stream = batches(6)
    worker = make_worker(tmp_path, "w", snapshot_interval=100)
    worker.recover()
    for body in stream:
        worker._ingest(dict(body))
    reborn = make_worker(tmp_path, "w", snapshot_interval=100)
    assert reborn.recover()[0] == 6
    third = make_worker(tmp_path, "w", snapshot_interval=100)
    assert third.recover()[0] == 0
    assert_same_state(third.app, reference_state(stream))


def test_failed_append_stops_the_worker_and_the_retry_applies_once(
    tmp_path, monkeypatch
):
    """A batch applied but not logged must not outlive its worker: the
    worker answers 503 and refuses every later op, takes no final
    snapshot, and the router's retry, resynced from the restarted
    worker's health, ages the instance by exactly one hour."""
    def hour(seq):
        return {
            "schema": SCHEMA_VERSION,
            "seq": seq,
            "events": [{"instance": "i-1", "busy": True}],
        }

    def age(worker):
        _, body = worker.handle("decisions", {"instance": "i-1"})
        return body["instances"][0]["age_hours"]

    worker = make_worker(tmp_path, "w", snapshot_interval=100)
    worker.recover()
    stopped = []
    worker.on_fail = lambda: stopped.append(True)
    assert worker.handle("ingest", hour(1))[0] == 200
    append = Wal.append

    def full_disk_once(wal, *args):
        monkeypatch.setattr(Wal, "append", append)
        raise OSError(28, "No space left on device")

    monkeypatch.setattr(Wal, "append", full_disk_once)
    status, body = worker.handle("ingest", hour(2))
    assert (status, error_kind(body)) == (503, "ShardUnavailableError")
    assert stopped == [True]
    for op, op_body in [
        ("ingest", hour(2)),
        ("ingest", hour(3)),
        ("health", {}),
        ("decisions", {"instance": "i-1"}),
        ("costs", {}),
        ("metrics", {}),
    ]:
        status, body = worker.handle(op, op_body)
        assert (status, error_kind(body)) == (503, "ShardUnavailableError"), op
    # Only the WAL holds seq 1; a final snapshot would hold seq 2 too.
    assert not (tmp_path / "w.json").exists()
    worker.shutdown()
    assert not (tmp_path / "w.json").exists()

    reborn = make_worker(tmp_path, "w", snapshot_interval=100)
    assert reborn.recover()[0] == 1
    _, health = reborn.handle("health", {})
    status, _ = reborn.handle("ingest", hour(health["ingest_seq"] + 1))
    assert status == 200
    assert age(reborn) == 2


# ---------------------------------------------------------------------------
# torn tails (kill -9 during append)

def seed_wal(tmp_path, entries: int = 3):
    """A healthy WAL with ``entries`` records; returns its path."""
    path = tmp_path / "seed.wal"
    wal, _ = Wal.open(path)
    for seq in range(1, entries + 1):
        wal.append(seq, [{"instance": "i-0", "busy": bool(seq % 2)}], {"seq": seq})
    wal.close()
    return path


@pytest.mark.parametrize("torn_bytes", [1, 5, 7])
def test_torn_tail_strict_raises(tmp_path, torn_bytes):
    path = seed_wal(tmp_path)
    with path.open("ab") as handle:
        handle.write(b"\x00\x00\x00" * torn_bytes)  # partial next record
    with pytest.raises(WalTruncatedError, match="torn tail"):
        read_wal(path)


def test_torn_tail_nonstrict_heals_loudly(tmp_path):
    path = seed_wal(tmp_path, entries=3)
    intact_size = path.stat().st_size
    with path.open("ab") as handle:
        handle.write(b"\xde\xad\xbe\xef\x00")
    wal, recovery = Wal.open(path, strict=False)
    assert [entry.seq for entry in recovery.entries] == [1, 2, 3]
    assert recovery.truncated_entries == 1
    assert recovery.truncated_bytes == 5
    # The heal is physical: the file is back to its intact size and a
    # strict re-read succeeds; appending continues cleanly after it.
    assert path.stat().st_size == intact_size
    wal.append(4, [], {"seq": 4})
    wal.close()
    assert [entry.seq for entry in read_wal(path).entries] == [1, 2, 3, 4]


def test_torn_final_payload_truncated_to_last_good_record(tmp_path):
    path = seed_wal(tmp_path, entries=3)
    data = path.read_bytes()
    path.write_bytes(data[:-4])  # tear the last record's payload
    recovery = read_wal(path, strict=False)
    assert [entry.seq for entry in recovery.entries] == [1, 2]
    assert recovery.truncated_entries == 1


def test_torn_first_record_heals_to_the_header(tmp_path):
    """A torn append into a header-only log (the state every compaction
    leaves) heals back to the header, and the log stays readable."""
    path = seed_wal(tmp_path, entries=0)
    with path.open("ab") as handle:
        handle.write(b"\x00\x00\x00\x30\x12")
    wal, recovery = Wal.open(path, strict=False)
    assert recovery.truncated_entries == 1
    assert path.stat().st_size == recovery.valid_bytes == _WAL_HEADER.size
    wal.append(1, [], {"seq": 1})
    wal.close()
    assert [entry.seq for entry in read_wal(path).entries] == [1]


def test_worker_counts_torn_tail_in_metrics(tmp_path):
    """The loud part: a healed tail shows up in the exposition."""
    path = tmp_path / "w.wal"
    wal, _ = Wal.open(path)
    wal.append(1, [{"instance": "i-0", "busy": True}], {"seq": 1})
    wal.close()
    with path.open("ab") as handle:
        handle.write(b"\xff" * 6)
    worker = make_worker(tmp_path, "w", snapshot_interval=100)
    replayed, recovery = worker.recover()
    assert replayed == 1 and recovery.truncated_entries == 1
    exposition = worker.app.render_metrics()
    assert "repro_serve_wal_truncated_entries_total 1" in exposition
    assert "repro_serve_wal_replayed_entries_total 1" in exposition


# ---------------------------------------------------------------------------
# interior corruption and version skew: always refused

def test_interior_corruption_always_raises(tmp_path):
    """A CRC-failed record with well-framed data after it is not a torn
    append — both modes must refuse rather than guess."""
    path = seed_wal(tmp_path, entries=3)
    data = bytearray(path.read_bytes())
    # Flip one byte inside the *first* record's payload.
    first_payload_at = _WAL_HEADER.size + 8
    data[first_payload_at] ^= 0xFF
    path.write_bytes(bytes(data))
    with pytest.raises(WalCorruptionError, match="interior"):
        read_wal(path, strict=True)
    with pytest.raises(WalCorruptionError, match="interior"):
        read_wal(path, strict=False)


def test_wal_format_skew_refused(tmp_path):
    """Format 1 (binary records) and any newer format are refused."""
    path = tmp_path / "skew.wal"
    for wal_format in (1, WAL_FORMAT + 1):
        path.write_bytes(_WAL_HEADER.pack(WAL_MAGIC, wal_format, STATE_VERSION))
        with pytest.raises(WalVersionError, match="format"):
            read_wal(path, strict=False)


def _framed(payload: bytes) -> bytes:
    """One CRC-valid record around ``payload``."""
    return struct.pack("!II", len(payload), zlib.crc32(payload) & 0xFFFFFFFF) + payload


_HEADER = _WAL_HEADER.pack(WAL_MAGIC, WAL_FORMAT, STATE_VERSION)
_FUZZ = settings(
    max_examples=200,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)


@_FUZZ
@given(
    st.binary(max_size=96)
    | st.builds(
        lambda payloads, garbage: b"".join(map(_framed, payloads)) + garbage,
        st.lists(st.binary(max_size=40), max_size=3),
        st.binary(max_size=12),
    )
)
def test_any_tail_after_a_valid_header_is_read_or_refused_typed(tmp_path, tail):
    """Whatever follows a valid header, a non-strict read returns a
    recovery accounting for every byte, or raises a WalError."""
    path = tmp_path / "fuzz.wal"
    path.write_bytes(_HEADER + tail)
    try:
        recovery = read_wal(path, strict=False)
    except WalError:
        return
    assert recovery.valid_bytes + recovery.truncated_bytes == len(_HEADER + tail)


@_FUZZ
@given(st.binary(max_size=64))
@example(b"[]")
@example(b'{"seq": 1}')
@example(b'{"seq": "1", "events": [], "response": {}}')
@example(b'{"seq": 1, "events": [], "response": {}}' + b"\xff")
@example(b"[" * (sys.getrecursionlimit() + 100))
def test_crc_valid_record_with_any_payload_is_refused(tmp_path, payload):
    path = tmp_path / "fuzz.wal"
    path.write_bytes(_HEADER + _framed(payload))
    with pytest.raises(WalCorruptionError):
        read_wal(path)


def test_state_version_skew_refused(tmp_path):
    """A WAL written by a different decision state machine must not be
    replayed — its batches could decide differently on this build."""
    path = tmp_path / "skew.wal"
    path.write_bytes(_WAL_HEADER.pack(WAL_MAGIC, WAL_FORMAT, STATE_VERSION + 1))
    with pytest.raises(WalVersionError, match="state machine"):
        read_wal(path, strict=False)


def test_bad_magic_refused(tmp_path):
    path = tmp_path / "junk.wal"
    path.write_bytes(b"JUNKJUNKJUNKJUNK")
    with pytest.raises(WalCorruptionError, match="not a write-ahead log"):
        read_wal(path)


def test_short_file_refused(tmp_path):
    path = tmp_path / "short.wal"
    path.write_bytes(b"RW")
    with pytest.raises(WalCorruptionError, match="shorter than its header"):
        read_wal(path)


# ---------------------------------------------------------------------------
# plumbing

def test_missing_file_is_an_empty_log(tmp_path):
    recovery = read_wal(tmp_path / "absent.wal")
    assert recovery.entries == [] and recovery.last_seq is None


def test_compact_reports_dropped_and_keeps_tail(tmp_path):
    path = seed_wal(tmp_path, entries=5)
    wal, _ = Wal.open(path)
    assert wal.compact(3) == 3
    wal.close()
    assert [entry.seq for entry in read_wal(path).entries] == [4, 5]


def test_compact_none_keeps_everything(tmp_path):
    path = seed_wal(tmp_path, entries=2)
    wal, _ = Wal.open(path)
    assert wal.compact(None) == 0
    wal.close()
    assert [entry.seq for entry in read_wal(path).entries] == [1, 2]


def test_closed_wal_refuses_append(tmp_path):
    wal, _ = Wal.open(tmp_path / "c.wal")
    wal.close()
    with pytest.raises(WalError, match="closed"):
        wal.append(1, [], {})
