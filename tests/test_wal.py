"""Unit tests for the write-ahead log and the generational store."""

import asyncio
import dataclasses
import errno
import json
import os
import shutil
import zlib

import numpy as np
import pytest

import repro.obs as obs
from repro import invariants
from repro.errors import SchedulingError, ServiceError, SolverError, WalError
from repro.service import chaos
from repro.service.config import ServiceConfig
from repro.service.server import ServiceDaemon
from repro.service.slotloop import SlotFailed, TransferBroker
from repro.service.store import SnapshotStore
from repro.service.wal import (
    RECORD_HEADER,
    WriteAheadLog,
    encode_record,
    scan_wal,
    truncate_torn_tail,
)
from tests.obs_events import Events


# -- framing ---------------------------------------------------------------


def test_append_scan_round_trip(tmp_path):
    path = tmp_path / "wal.log"
    wal = WriteAheadLog(path)
    records = [
        {"type": "admit", "entry": {"id": "a"}, "submitted": 1},
        {"type": "commit", "slot": 0, "batch": ["a"], "lane": "fast"},
    ]
    for record in records:
        wal.append(record)
    wal.close()
    scan = scan_wal(path)
    assert scan.records == records
    assert not scan.torn
    assert scan.valid_bytes == path.stat().st_size


def test_append_counts_and_close(tmp_path):
    wal = WriteAheadLog(tmp_path / "wal.log")
    n = wal.append({"type": "admit"})
    assert wal.bytes_written == wal.bytes_durable == n
    assert (tmp_path / "wal.log").stat().st_size == n
    wal.close()
    assert wal.closed
    with pytest.raises(WalError, match="closed"):
        wal.append({"type": "admit"})


def test_append_many_is_one_write_and_one_fsync(tmp_path):
    """The journal's path: several frames, a single trip to the disk."""
    stages = []
    wal = WriteAheadLog(tmp_path / "wal.log", crashpoint=stages.append)
    frames = [{"a": {"decision": "admitted"}}, {"b": {"decision": "rejected"}}]
    n = wal.append(*frames)
    wal.close()
    assert stages == ["wal.pre_write", "wal.pre_fsync", "wal.post_fsync"]
    assert n == sum(len(encode_record(frame)) for frame in frames)
    assert scan_wal(tmp_path / "wal.log").records == frames


# -- the durable watermark ---------------------------------------------------


def test_sync_is_one_fsync_for_the_group_and_none_when_clean(tmp_path, fsyncs):
    sink = obs.get_registry().add_sink(Events())
    stages = []
    wal = WriteAheadLog(tmp_path / "wal.log", crashpoint=stages.append)
    try:
        assert wal.sync() is False and fsyncs == []  # nothing written yet
        for n in range(8):  # the admit form: written through, not synced
            wal.append({"type": "admit", "n": n}, sync=False)
        assert stages == ["wal.pre_write"] * 8 and fsyncs == []
        assert wal.bytes_written == (tmp_path / "wal.log").stat().st_size
        assert wal.bytes_durable == 0
        wal.append({"type": "commit", "slot": 0})
        assert len(fsyncs) == 1 and wal.bytes_durable == wal.bytes_written
        assert wal.sync() is False and len(fsyncs) == 1  # clean: no disk call
        wal.append({"type": "admit", "n": 8}, sync=False)
        assert wal.sync() is True and len(fsyncs) == 2
        wal.close()
        assert len(fsyncs) == 2  # close syncs only what is unsynced
    finally:
        obs.get_registry().remove_sink(sink)
    groups = [e["attrs"]["records"] for e in sink.events
              if e["name"] == "service.wal.sync"]
    assert groups == [9, 1]


def test_close_and_reopen_never_leave_or_trust_an_unsynced_byte(tmp_path, fsyncs):
    path = tmp_path / "wal.log"
    wal = WriteAheadLog(path)
    wal.append({"n": 1}, sync=False)
    wal.close()
    assert len(fsyncs) == 1 and wal.bytes_durable == wal.bytes_written
    # Bytes a dead process left may be page cache only: the next handle
    # knows their length but not their durability until it syncs.
    heir = WriteAheadLog(path)
    assert (heir.bytes_written, heir.bytes_durable) == (wal.bytes_written, 0)
    assert heir.sync() is True and heir.bytes_durable == heir.bytes_written
    heir.close()
    assert len(fsyncs) == 2


def test_fsync_off_moves_the_watermark_without_the_disk(tmp_path, fsyncs):
    broker = TransferBroker(wal_config(tmp_path, wal_fsync=False))
    drive_slots(broker, 2)
    broker.submit({"id": "q", "source": 0, "destination": 2,
                   "size_gb": 4.0, "deadline_slots": 3})
    assert broker.status("q") == {"state": "pending"}
    broker.store.close()
    assert fsyncs == [] and broker.store.stats()["wal_syncs"] == 0


def test_refused_submission_leaves_no_ghost_admission(tmp_path):
    """A write the kernel cuts part-way (``RLIMIT_FSIZE``; ``ENOSPC`` looks
    the same) is rolled back off the file: before, the next append
    completed the refused frame and recovery queued — and charged — it."""
    resource = pytest.importorskip("resource")
    import signal

    broker = TransferBroker(wal_config(tmp_path, checkpoint_every=100))
    fields = {"source": 0, "destination": 2, "size_gb": 4.0, "deadline_slots": 3}
    broker.submit(dict(fields, id="kept"))
    wal = broker.store.wal
    old_handler = signal.signal(signal.SIGXFSZ, signal.SIG_IGN)
    old_limit = resource.getrlimit(resource.RLIMIT_FSIZE)
    resource.setrlimit(resource.RLIMIT_FSIZE, (wal.bytes_written + 10, old_limit[1]))
    try:
        with pytest.raises(ServiceError, match="cannot journal"):
            broker.submit(dict(fields, id="ghost"))
    finally:
        resource.setrlimit(resource.RLIMIT_FSIZE, old_limit)
        signal.signal(signal.SIGXFSZ, old_handler)
    assert wal.bytes_written == wal.path.stat().st_size  # the half frame is gone
    assert broker.queue.depth == 1 and broker.counts["submitted"] == 1
    broker.submit(dict(fields, id="later"))
    broker.store.close()

    scan = scan_wal(wal.path)
    assert not scan.torn
    assert [r["entry"]["id"] for r in scan.records] == ["kept", "later"]
    resumed = TransferBroker(wal_config(tmp_path, checkpoint_every=100))
    assert resumed.status("ghost") == {"state": "unknown"}
    resumed.process_slot()
    assert set(resumed.decisions) == {"kept", "later"}


def test_log_is_poisoned_when_the_cut_fails_too(tmp_path):
    class HalfWriter:
        """Lands half of a write, then ENOSPC; and cannot truncate."""

        def __init__(self, fh):
            self.fh = fh

        def write(self, data):
            if len(data) > 1:
                return self.fh.write(data[: len(data) // 2])
            raise OSError(errno.ENOSPC, "No space left on device")

        def truncate(self, size):
            raise OSError(errno.EIO, "Input/output error")

        def close(self):
            self.fh.close()

    path = tmp_path / "wal.log"
    wal = WriteAheadLog(path)
    first = wal.append({"n": 1})
    wal._fh = HalfWriter(wal._fh)
    with pytest.raises(OSError, match="No space"):
        wal.append({"n": 2})
    assert wal.closed
    with pytest.raises(WalError, match="poisoned"):
        wal.append({"n": 3})  # never after the garbage
    scan = scan_wal(path)
    assert scan.records == [{"n": 1}] and scan.valid_bytes == first and scan.torn


def fail_fsync_once(monkeypatch):
    real = os.fsync
    calls = []

    def fsync(fd):
        calls.append(fd)
        if len(calls) == 1:
            raise OSError(errno.EIO, "Input/output error")
        return real(fd)

    monkeypatch.setattr("repro.service.wal.os.fsync", fsync)


def test_a_failed_fsync_poisons_the_log(tmp_path, monkeypatch):
    """fsyncgate: after an ``EIO`` the kernel may have dropped the dirty
    pages, and a second fsync would succeed over the loss."""
    wal = WriteAheadLog(tmp_path / "wal.log")
    wal.append({"n": 1}, sync=False)
    fail_fsync_once(monkeypatch)
    with pytest.raises(OSError, match="Input/output"):
        wal.sync()
    assert wal.closed and wal.bytes_durable == 0
    with pytest.raises(WalError, match="poisoned"):
        wal.append({"n": 2})


def test_a_slot_whose_fsync_fails_is_never_acknowledged(tmp_path, monkeypatch):
    broker = TransferBroker(wal_config(tmp_path, checkpoint_every=100))
    drive_slots(broker, 1)
    broker.submit({"id": "lost", "source": 0, "destination": 2,
                   "size_gb": 4.0, "deadline_slots": 3})
    fail_fsync_once(monkeypatch)
    with pytest.raises(OSError, match="Input/output"):
        broker.process_slot()
    assert broker.status("lost") == {"state": "unknown"}
    with pytest.raises(ServiceError, match="cannot journal"):
        broker.submit({"id": "next", "source": 0, "destination": 2,
                       "size_gb": 4.0, "deadline_slots": 3})
    with pytest.raises(WalError, match="poisoned"):
        broker.process_slot()


def test_scan_limit_reads_a_prefix_and_says_if_it_is_whole(tmp_path):
    path = tmp_path / "wal.log"
    wal = WriteAheadLog(path)
    first = wal.append({"n": 1})
    second = wal.append({"n": 2})
    wal.close()
    whole = scan_wal(path, limit=first)
    assert whole.records == [{"n": 1}] and whole.valid_bytes == first
    # A limit inside a frame is not a frame boundary: the prefix is short.
    inside = scan_wal(path, limit=first + second - 1)
    assert inside.records == [{"n": 1}] and inside.valid_bytes == first
    # A limit past the end of the file cannot be met either.
    assert scan_wal(path, limit=first + second + 5).valid_bytes == first + second
    assert scan_wal(path, limit=0).records == []


def test_oversized_record_refused():
    with pytest.raises(WalError, match="exceeds"):
        encode_record({"blob": "x" * (17 * 1024 * 1024)})


def test_scan_missing_file_is_empty(tmp_path):
    scan = scan_wal(tmp_path / "nope.log")
    assert scan.records == [] and not scan.torn


@pytest.mark.parametrize(
    "mangler,reason",
    [
        (lambda frame: frame[: RECORD_HEADER.size - 2], "short header"),
        (lambda frame: frame[:-3], "short payload"),
        (
            lambda frame: frame[: RECORD_HEADER.size]
            + b"X" + frame[RECORD_HEADER.size + 1 :],
            "checksum mismatch",
        ),
        (
            lambda frame: RECORD_HEADER.pack(2**30, 0) + frame[RECORD_HEADER.size :],
            "implausible record length",
        ),
    ],
)
def test_torn_tail_detected_and_truncated(tmp_path, mangler, reason):
    path = tmp_path / "wal.log"
    wal = WriteAheadLog(path)
    wal.append({"type": "admit", "entry": {"id": "a"}})
    wal.close()
    intact = path.stat().st_size
    frame = encode_record({"type": "commit", "slot": 1})
    with open(path, "ab") as fh:
        fh.write(mangler(frame))

    scan = scan_wal(path)
    assert scan.torn
    assert reason in scan.torn_reason
    assert len(scan.records) == 1  # the intact prefix survives
    assert scan.valid_bytes == intact

    cut = truncate_torn_tail(scan)
    assert cut > 0
    assert path.stat().st_size == intact
    assert not scan_wal(path).torn


def test_bad_json_payload_is_a_tear(tmp_path):
    path = tmp_path / "wal.log"
    payload = b"not json at all"
    path.write_bytes(RECORD_HEADER.pack(len(payload), zlib.crc32(payload)) + payload)
    scan = scan_wal(path)
    assert scan.torn and "JSON" in scan.torn_reason


# -- the generational store ------------------------------------------------


def wal_config(tmp_path, **overrides):
    defaults = dict(
        datacenters=4, capacity=50.0, seed=3, max_deadline=8,
        tick_seconds=0.0, checkpoint_dir=str(tmp_path / "ckpt"),
        checkpoint_every=1,
    )
    defaults.update(overrides)
    return ServiceConfig(**defaults)


def test_a_checkpoint_directory_is_always_a_wal(tmp_path):
    """``wal=True`` still loads (and changes nothing); ``wal=False`` with a
    directory names the removal instead of quietly logging anyway."""
    assert TransferBroker(wal_config(tmp_path, wal=True)).store.wal is not None
    with pytest.raises(ServiceError, match="wal=False was removed"):
        wal_config(tmp_path, wal=False)
    assert not ServiceConfig(wal=False).checkpoint_dir  # nothing to log


def flip_middle_byte(path):
    data = bytearray(path.read_bytes())
    data[len(data) // 2] ^= 0xFF
    path.write_bytes(bytes(data))
    return data


def drive_slots(broker, slots, start=0):
    for i in range(slots):
        broker.submit({
            "id": f"s{start + i}", "source": 0, "destination": 2,
            "size_gb": 4.0, "deadline_slots": 3,
        })
        broker.process_slot()


def test_compaction_rotates_generations_and_prunes(tmp_path):
    config = wal_config(tmp_path, snapshot_retain=2)
    broker = TransferBroker(config)
    drive_slots(broker, 5)
    store = broker.store
    gens = store.snapshot_generations()
    # checkpoint_every=1: one compaction per processed batch slot.
    assert store.generation == 5
    assert gens == [4, 5]  # retain=2 keeps exactly the newest two
    assert store.wal_generations() == [4, 5]
    # The current generation's log is empty (fresh after compaction).
    assert scan_wal(store.wal_path(5)).records == []


def test_only_a_processs_first_checkpoint_lists_the_directory(tmp_path, monkeypatch):
    """Leftovers of a larger ``retain`` go at the resumed process's first
    checkpoint; every checkpoint after it prunes by name, without a glob."""
    drive_slots(TransferBroker(wal_config(tmp_path, snapshot_retain=4)), 5)
    resumed = TransferBroker(wal_config(tmp_path, snapshot_retain=2))
    store = resumed.store
    assert store.snapshot_generations() == [2, 3, 4, 5]
    drive_slots(resumed, 1, start=5)
    assert store.snapshot_generations() == store.wal_generations() == [5, 6]

    def listed(*args):
        raise AssertionError("a checkpoint globbed the directory")

    monkeypatch.setattr(store, "_numbered", listed)
    drive_slots(resumed, 3, start=6)
    monkeypatch.undo()
    assert store.snapshot_generations() == store.wal_generations() == [8, 9]


def test_rotation_leaves_no_unsynced_byte_in_a_retained_log(tmp_path):
    """A checkpoint taken with admits in flight syncs the old log before
    it moves on, so a fallback to generation g-1 replays a whole chain."""
    config = wal_config(tmp_path, checkpoint_every=100)
    broker = TransferBroker(config)
    drive_slots(broker, 1)
    fields = {"source": 0, "destination": 2, "size_gb": 4.0, "deadline_slots": 3}
    broker.submit(dict(fields, id="q1"))
    broker.submit(dict(fields, id="q2"))
    old = broker.store.wal
    assert old.bytes_durable < old.bytes_written
    broker.checkpoint()
    assert old.closed and broker.store.generation == 1
    assert old.bytes_durable == old.bytes_written == old.path.stat().st_size
    broker.submit(dict(fields, id="q3"))
    broker.process_slot()
    decided, ledger = dict(broker.decisions), cells(broker)
    assert broker.store.stats()["wal_syncs"] == 3  # two commits + the rotation
    broker.store.close()
    assert broker.store.stats()["wal_syncs"] == 3  # nothing left to sync

    flip_middle_byte(broker.store.snapshot_path(1))
    resumed = TransferBroker(config)
    assert resumed.recovery_info["fallbacks"] == 1
    assert resumed.recovery_info["base_generation"] == 0
    assert resumed.decisions == decided and cells(resumed) == ledger


def test_recover_prefers_newest_valid_snapshot(tmp_path):
    config = wal_config(tmp_path, checkpoint_every=2)
    broker = TransferBroker(config)
    drive_slots(broker, 4)
    expected_slot = broker.next_slot
    del broker

    resumed = TransferBroker(wal_config(tmp_path, checkpoint_every=2))
    assert resumed.resumed
    assert resumed.next_slot == expected_slot
    assert resumed.recovery_info["fallbacks"] == 0
    assert resumed.verifier_report["ok"]


def test_recover_falls_back_past_corrupt_snapshot(tmp_path):
    config = wal_config(tmp_path)
    broker = TransferBroker(config)
    drive_slots(broker, 3)
    books = {cid: rec["decision"] for cid, rec in broker.decisions.items()}
    charged = broker.state.charged_snapshot()
    del broker

    store = SnapshotStore(str(tmp_path / "ckpt"))
    flip_middle_byte(store.snapshot_path(max(store.snapshot_generations())))

    resumed = TransferBroker(wal_config(tmp_path))
    assert resumed.recovery_info["fallbacks"] == 1
    assert resumed.recovery_info["base_generation"] == 2
    assert {c: r["decision"] for c, r in resumed.decisions.items()} == books
    assert resumed.state.charged_snapshot() == pytest.approx(charged)


def test_recover_truncates_torn_wal_tail(tmp_path):
    config = wal_config(tmp_path, checkpoint_every=100)  # never compacts
    broker = TransferBroker(config)
    drive_slots(broker, 2)
    decided = dict(broker.decisions)
    del broker

    store = SnapshotStore(str(tmp_path / "ckpt"))
    with open(store.wal_path(0), "ab") as fh:
        fh.write(b"\x40\x00\x00\x00\xde\xad\xbe\xefgarbage tail")

    resumed = TransferBroker(wal_config(tmp_path, checkpoint_every=100))
    assert resumed.recovery_info["torn_bytes"] > 0
    assert resumed.recovery_info["base_generation"] == 0
    assert set(resumed.decisions) == set(decided)
    # The tail stays gone: a second resume sees a clean log.
    again = TransferBroker(wal_config(tmp_path, checkpoint_every=100))
    assert again.recovery_info["torn_bytes"] == 0


def test_recover_sweeps_stray_tmp(tmp_path):
    config = wal_config(tmp_path)
    broker = TransferBroker(config)
    drive_slots(broker, 2)
    del broker
    store = SnapshotStore(str(tmp_path / "ckpt"))
    stray = store.directory / "snapshot-00000009.json.tmp"
    stray.write_text('{"version": 2, "kind": "pos')

    resumed = TransferBroker(wal_config(tmp_path))
    assert resumed.recovery_info["stray_tmp"] == 1
    assert not stray.exists()


def test_recover_refuses_broken_chain(tmp_path):
    config = wal_config(tmp_path, snapshot_retain=1)
    broker = TransferBroker(config)
    drive_slots(broker, 3)
    del broker
    store = SnapshotStore(str(tmp_path / "ckpt"))
    # Kill the only retained snapshot: the WAL chain starts mid-history.
    store.snapshot_path(max(store.snapshot_generations())).unlink()
    with pytest.raises(WalError, match="genesis"):
        TransferBroker(wal_config(tmp_path, snapshot_retain=1))
    with pytest.raises(WalError, match="retention"):
        SnapshotStore(str(tmp_path), retain=0)


def test_empty_slots_survive_resume(tmp_path):
    """The virtual clock is journaled even when no batch is processed."""
    config = wal_config(tmp_path, checkpoint_every=100)
    broker = TransferBroker(config)
    broker.process_slot()
    broker.process_slot()
    drive_slots(broker, 1)
    assert broker.next_slot == 3
    del broker
    resumed = TransferBroker(wal_config(tmp_path, checkpoint_every=100))
    assert resumed.next_slot == 3


def test_one_op_stream_writes_the_same_log_bytes(tmp_path):
    """The log holds what was decided, not what it cost to decide: two
    brokers driven alike (LP slots, a checkpoint, a rotation) write
    byte-identical segments."""
    segments = []
    for name in ("a", "b"):
        broker = TransferBroker(wal_config(tmp_path / name, checkpoint_every=3))
        drive_slots(broker, 4)
        broker.scheduler.escalate_utilization = 1e-9  # the LP from here on
        for i in range(4):
            broker.submit({"id": f"x{i}", "source": i, "destination": (i + 2) % 4,
                           "size_gb": 9.0 + i, "deadline_slots": 2})
        broker.process_slot()
        drive_slots(broker, 2, start=4)
        broker.store.close()
        assert broker.scheduler.escalations == 3
        assert broker.store.wal_generations() == [0, 1, 2]
        segments.append({
            gen: broker.store.wal_path(gen).read_bytes()
            for gen in broker.store.wal_generations()
        })
    assert segments[0] == segments[1]


@pytest.mark.parametrize("scheduler", ["q-aware", "direct", "flow-based"])
def test_every_plan_shape_replays_without_planning(tmp_path, scheduler, encoded):
    """A q-aware solve's burst grants and a fluid schedule ride the plan
    too: recovery commits them and plans nothing.  Their commits encode
    as the standard library would (:func:`assert_stdlib_parity`)."""
    from unittest import mock

    broker = TransferBroker(wal_config(tmp_path, scheduler=scheduler, checkpoint_every=100))
    for slot in range(4):
        for i in range(3):
            broker.submit({"id": f"q{slot}-{i}", "source": i, "destination": (i + 1 + slot % 3) % 4,
                           "size_gb": 6.0 + slot, "deadline_slots": 3})
        broker.process_slot()
    plans = [r["plan"] for r in scan_wal(broker.store.wal.path).records if "plan" in r]
    assert len(plans) == 4
    if scheduler == "q-aware":
        assert any("grants" in plan for plan in plans)  # written when a solve amnestied
    else:
        assert all(plan["semantics"] == "fluid" for plan in plans)
    assert_stdlib_parity(encoded)
    planning = mock.Mock(side_effect=AssertionError("recovery planned a slot"))
    with mock.patch.object(type(broker.scheduler), "plan_slot", planning):
        twin = recovered_twin(broker, tmp_path)
    assert books(twin) == books(broker)
    if scheduler == "q-aware":
        assert twin.scheduler.amnesty == broker.scheduler.amnesty


def replanner_twin(broker, tmp_path):
    """:func:`recovered_twin` of a replanner broker, resumed with its
    planning and its LP solver patched to raise: replay commits plans."""
    from unittest import mock

    from repro.core.replan import ReplanningPostcardScheduler

    planning = mock.Mock(side_effect=AssertionError("recovery planned a slot"))
    with mock.patch.object(ReplanningPostcardScheduler, "plan_slot", planning), \
            mock.patch("repro.core.replan.solve_lp", planning):
        return recovered_twin(broker, tmp_path)


def test_the_replanner_journals_plans_and_replays_without_planning(tmp_path):
    """Its slots move files of earlier batches, idle ones too: every commit
    carries the slot's plan, those files' sends and storage keyed by their
    place in the active set, and a resume commits them without an LP."""
    broker = TransferBroker(wal_config(tmp_path, scheduler="postcard-replan",
                                       checkpoint_every=100))
    broker.submit({"id": "big", "source": 0, "destination": 2,
                   "size_gb": 120.0, "deadline_slots": 6})
    broker.process_slot()
    broker.process_slot()  # idle: "big" moves on
    drive_slots(broker, 2)
    in_flight = [round(f.remaining, 6) for f in broker.scheduler.active]
    assert in_flight
    commits = [r for r in scan_wal(broker.store.wal.path).records if r["type"] == "commit"]
    assert len(commits) == 4 and all("plan" in c for c in commits)
    assert commits[1]["batch"] == [] and commits[1]["plan"]["carried"]["sends"]
    twin = replanner_twin(broker, tmp_path)
    assert books(twin) == books(broker)
    assert [round(f.remaining, 6) for f in twin.scheduler.active] == in_flight


def test_a_replanner_file_admitted_after_the_snapshot_is_carried_on_replay(tmp_path):
    """A file admitted past the last snapshot gets a fresh request id on
    replay, so the idle slot that carries it names it by its place in the
    active set, not by id; the snapshot's files keep theirs."""
    broker = TransferBroker(wal_config(tmp_path, scheduler="postcard-replan",
                                       checkpoint_every=2))
    broker.submit({"id": "big", "source": 0, "destination": 2,
                   "size_gb": 120.0, "deadline_slots": 6})
    broker.process_slot()
    drive_slots(broker, 1)  # slot 1 checkpoints with "big" in flight
    broker.submit({"id": "after", "source": 1, "destination": 3,
                   "size_gb": 90.0, "deadline_slots": 4})
    broker.process_slot()
    broker.process_slot()  # idle: "after" is carried
    idle = scan_wal(broker.store.wal.path).records[-1]
    assert idle["batch"] == [] and len(broker.scheduler.active) == 2
    assert any(send[0] == 1 for send in idle["plan"]["carried"]["sends"])
    twin = replanner_twin(broker, tmp_path)
    assert books(twin) == books(broker)
    assert [(f.request.source, f.supplies, f.delivered) for f in twin.scheduler.active] == \
        [(f.request.source, f.supplies, f.delivered) for f in broker.scheduler.active]


def test_a_replanner_resumed_from_a_snapshot_keeps_its_files_in_flight(tmp_path):
    """The snapshot carries the replanner's in-flight files: a broker
    resumed after slot 0 (no WAL record past the snapshot) delivers the
    file at the slot the live one does.  Before, it lost the file."""
    broker = TransferBroker(wal_config(tmp_path, scheduler="postcard-replan",
                                       checkpoint_every=1))
    broker.submit({"id": "big", "source": 0, "destination": 2,
                   "size_gb": 120.0, "deadline_slots": 6})
    broker.process_slot()
    twin = recovered_twin(broker, tmp_path)
    assert twin.scheduler.active == broker.scheduler.active
    for live in (broker, twin):
        for _ in range(5):
            live.process_slot()
    assert broker.state.completions
    assert twin.state.completions == broker.state.completions


# -- slots that fail, and slots the LP does not answer -----------------------


def books(broker):
    """Everything a recovered broker must agree with the live one on: the
    crash drills' books (cells, peaks, bill, clock) plus the queue, the
    decision records in full, and the tallies."""
    return {
        **invariants.books(broker), "queue": broker.queue.pending_ids(),
        "decisions": broker.decisions, "counts": broker.counts,
    }


def recovered_twin(broker, tmp_path):
    """A broker rebuilt from ``broker``'s directory as it is this instant."""
    copy = tmp_path / f"twin-{broker.next_slot}-{broker.counts['submitted']}"
    shutil.copytree(broker.config.checkpoint_dir, copy)
    twin = TransferBroker(
        dataclasses.replace(broker.config, checkpoint_dir=str(copy))
    )
    assert twin.verifier_report["ok"]
    twin.store.close()
    return twin


def test_failed_slot_is_journaled_and_leaves_no_ghost_admits(tmp_path):
    """A scheduler that raises fails its batch — and only its batch — with
    ``internal``, and the log says so: before, the admit records stayed
    replayable, and a restarted broker admitted and billed transfers whose
    clients had been told they failed."""
    config = wal_config(tmp_path, datacenters=6, checkpoint_every=100, max_batch=3)

    def submit(cid):
        return {"op": "submit", "id": cid, "source": 0, "destination": 2,
                "size_gb": 4.0, "deadline_slots": 3}

    async def scenario():
        daemon = ServiceDaemon(config)
        daemon.open()
        broker = daemon.broker
        healthy = broker.scheduler.on_slot

        def down(slot, requests):
            raise SolverError("injected")

        broker.scheduler.on_slot = down
        waiters = [await daemon.handle(submit(f"g{i}")) for i in range(4)]
        assert books(recovered_twin(broker, tmp_path)) == books(broker)
        tick = await daemon.call({"op": "tick"})
        assert (tick["slot"], tick["next_slot"]) == (0, 1)  # the clock moved on
        for cid, waiter in zip(("g0", "g1", "g2"), waiters):
            answer = await waiter
            assert (answer["ok"], answer["error"], answer["id"]) == (False, "internal", cid)
            assert "injected" in answer["message"]
            status = await daemon.call({"op": "status", "id": cid})
            assert status["state"] == "unknown"  # undecided, hence retryable
        # g3 queued behind max_batch: the next slot's, not the failure's.
        assert not waiters[3].done() and broker.queue.pending_ids() == ["g3"]
        commit = scan_wal(broker.store.wal.path).records[-1]
        assert (commit["lane"], commit["batch"]) == ("failed", ["g0", "g1", "g2"])
        assert "decisions" not in commit
        assert books(recovered_twin(broker, tmp_path)) == books(broker)

        broker.scheduler.on_slot = healthy
        retry = await daemon.handle(submit("g0"))  # a resubmit is a new submission
        await daemon.call({"op": "tick"})
        assert (await retry)["decision"] == (await waiters[3])["decision"] == "admitted"
        await daemon.stop()
        return broker

    broker = asyncio.run(scenario())
    assert sorted(broker.decisions) == ["g0", "g3"]  # g1, g2: never resubmitted
    twin = recovered_twin(broker, tmp_path)
    assert books(twin) == books(broker)
    assert twin.status("g1") == {"state": "unknown"}


def test_a_failed_batch_stays_failed_across_a_restart_by_default(tmp_path):
    """The default persistence (a directory, no other option) keeps the
    promise a failed slot made: the client heard ``internal``, so a
    restart must not admit and bill the id.  A snapshot taken while it
    was still queued used to bring it back for the next slot."""
    config = ServiceConfig(
        datacenters=4, capacity=50.0, seed=3, max_deadline=8,
        tick_seconds=0.0, checkpoint_dir=str(tmp_path / "ckpt"),
        checkpoint_every=100, max_batch=1,
    )
    broker = TransferBroker(config)
    for cid in ("kept", "failed"):
        broker.submit({"id": cid, "source": 0, "destination": 2,
                       "size_gb": 4.0, "deadline_slots": 3})
    broker.process_slot()
    broker.checkpoint()
    broker.scheduler.on_slot = lambda slot, requests: 1 / 0
    with pytest.raises(SlotFailed):
        broker.process_slot()
    del broker

    resumed = TransferBroker(config)
    resumed.process_slot()
    assert resumed.status("failed")["state"] != "admitted"
    assert resumed.counts["admitted"] == 1


def test_drain_over_a_failed_slot_answers_its_batch(tmp_path):
    async def scenario():
        daemon = ServiceDaemon(wal_config(tmp_path, checkpoint_every=100))
        daemon.open()
        # A bug, not a ReproError: the slot is journaled as failed all the same.
        daemon.broker.scheduler.on_slot = lambda slot, requests: 1 / 0
        waiter = await daemon.handle({
            "op": "submit", "id": "z", "source": 0, "destination": 2,
            "size_gb": 4.0, "deadline_slots": 3,
        })
        drained = await daemon.call({"op": "drain"})
        await daemon.stop()  # a refused drain leaves the daemon up
        return drained, await waiter, daemon.broker

    drained, answer, broker = asyncio.run(scenario())
    assert (drained["ok"], drained["error"]) == (False, "internal")
    assert (answer["error"], answer["id"]) == ("internal", "z")
    assert "slot 0 failed: division by zero" in answer["message"]
    assert broker.queue.depth == 0 and broker.next_slot == 1
    assert books(recovered_twin(broker, tmp_path)) == books(broker)


def test_solver_error_slot_is_journaled_degraded_and_replays_identically(tmp_path):
    """The hybrid's one failure path through a durable broker: the slot
    the LP could not answer commits the fast-lane plan, every submission
    is decided, and the log holds the lane and that plan, so replay
    commits it and never asks the LP."""
    broker = TransferBroker(wal_config(tmp_path, checkpoint_every=100))
    broker.scheduler.escalate_utilization = 1e-9  # every slot escalates

    def down():
        raise SolverError("numerical difficulties (injected)")

    drive_slots(broker, 1)
    broker.scheduler._escalate_hook = down
    for i in range(3):
        broker.submit({"id": f"d{i}", "source": i, "destination": 3,
                       "size_gb": 6.0, "deadline_slots": 2})
    decided = broker.process_slot()
    broker.scheduler._escalate_hook = lambda: None
    drive_slots(broker, 1, start=1)

    assert [(p.client_id, r["lane"]) for p, r in decided] == [
        ("d0", "degraded"), ("d1", "degraded"), ("d2", "degraded")
    ]
    commits = [r for r in scan_wal(broker.store.wal.path).records
               if r["type"] == "commit"]
    assert [c["lane"] for c in commits] == ["lp", "degraded", "lp"]
    assert commits[1]["batch"] == ["d0", "d1", "d2"]
    assert commits[1]["plan"]["per_file"]  # the fast lane's plan
    assert (broker.scheduler.degraded, broker.scheduler.escalations) == (1, 3)
    twin = recovered_twin(broker, tmp_path)
    assert books(twin) == books(broker)
    # Scheduler tallies count this process's decisions: replay made none.
    assert (twin.scheduler.degraded, twin.scheduler.escalations) == (0, 0)


# -- the decision journal ----------------------------------------------------


def journal_ids(store):
    """Every client id the journal holds, in frame order (duplicates kept)."""
    scan = scan_wal(store.journal_path)
    assert not scan.torn
    return [cid for frame in scan.records for cid in frame]


def cells(broker):
    return {
        (src, dst, slot): volume
        for src, dst in broker.state.ledger.used_links()
        for slot, volume in broker.state.ledger.usage(src, dst).volumes.items()
    }


def test_snapshot_carries_a_mark_not_the_decisions(tmp_path):
    broker = TransferBroker(wal_config(tmp_path, checkpoint_every=2))
    drive_slots(broker, 4)
    store = broker.store
    newest = json.loads(store.snapshot_path(store.generation).read_text())
    assert newest["version"] == 3
    assert "decisions" not in newest["meta"]
    assert newest["meta"]["decisions_mark"] == store.journal_path.stat().st_size
    # Two checkpoints, two frames, each decision serialised once.
    assert len(scan_wal(store.journal_path).records) == 2
    assert journal_ids(store) == list(broker.decisions)
    stats = store.stats()
    assert stats["journal_bytes"] == store.journal_path.stat().st_size
    assert stats["wal_bytes"] == sum(
        store.wal_path(gen).stat().st_size for gen in store.wal_generations()
    )  # the WAL alone: nothing pruned yet, and the journal is not in it


def test_long_inherited_log_is_journaled_in_bounded_frames(tmp_path, monkeypatch):
    monkeypatch.setattr("repro.service.store._FRAME_DECISIONS", 2)
    broker = TransferBroker(wal_config(tmp_path, checkpoint_every=5))
    drive_slots(broker, 5)
    frames = scan_wal(broker.store.journal_path).records
    assert [len(frame) for frame in frames] == [2, 2, 1]


def test_torn_journal_tail_is_cut(tmp_path):
    broker = TransferBroker(wal_config(tmp_path))
    drive_slots(broker, 2)
    decided = dict(broker.decisions)
    intact = broker.store.journal_path.stat().st_size
    del broker
    with open(tmp_path / "ckpt" / "decisions.log", "ab") as fh:
        fh.write(b"\x40\x00\x00\x00\xde\xad\xbe\xefgarbage tail")

    resumed = TransferBroker(wal_config(tmp_path))
    assert resumed.recovery_info["journal_cut_bytes"] == 20
    assert resumed.store.journal_path.stat().st_size == intact
    assert resumed.decisions == decided
    resumed.store.close()
    again = TransferBroker(wal_config(tmp_path))
    assert again.recovery_info["journal_cut_bytes"] == 0


def test_fallback_cuts_the_journal_and_rejournals_without_duplicates(tmp_path):
    """The ``corrupt_snapshot`` drill, seen from the journal."""
    broker = TransferBroker(wal_config(tmp_path))
    drive_slots(broker, 3)
    decided, ledger = dict(broker.decisions), cells(broker)
    store = broker.store
    del broker
    flip_middle_byte(store.snapshot_path(store.generation))

    resumed = TransferBroker(wal_config(tmp_path))
    info = resumed.recovery_info
    assert info["fallbacks"] == 1 and info["journal_cut_bytes"] > 0
    # Cut back to generation 2's mark; slot 2 came back from the WAL.
    assert journal_ids(resumed.store) == ["s0", "s1"]
    assert resumed.decisions == decided and cells(resumed) == ledger
    assert resumed.telemetry()["recovery"]["info"]["journal_cut_bytes"] > 0

    drive_slots(resumed, 1, start=3)  # the next checkpoint re-journals s2
    assert journal_ids(resumed.store) == ["s0", "s1", "s2", "s3"]
    resumed.store.close()
    again = TransferBroker(wal_config(tmp_path))
    assert again.recovery_info["journal_cut_bytes"] == 0
    assert again.decisions == resumed.decisions and cells(again) == cells(resumed)


def test_death_between_journal_fsync_and_rename_is_rejournaled_once(tmp_path):
    broker = TransferBroker(wal_config(tmp_path))
    chaos.MONKEY.arm("journal.post_fsync", action="raise", at=2)
    try:
        with pytest.raises(chaos.InjectedCrash):
            drive_slots(broker, 2)
    finally:
        chaos.reset()
    # The journal already holds s1; the only snapshot's mark covers s0.
    assert journal_ids(broker.store) == ["s0", "s1"]
    assert broker.store.snapshot_generations() == [0, 1]  # genesis + slot 0's
    del broker

    resumed = TransferBroker(wal_config(tmp_path))
    assert resumed.recovery_info["journal_cut_bytes"] > 0
    assert journal_ids(resumed.store) == ["s0"]
    assert set(resumed.decisions) == {"s0", "s1"}  # s1 re-derived from the WAL
    drive_slots(resumed, 1, start=2)
    assert journal_ids(resumed.store) == ["s0", "s1", "s2"]


def test_bad_frame_below_the_mark_refuses_to_start(tmp_path):
    config = wal_config(tmp_path)
    broker = TransferBroker(config)
    drive_slots(broker, 3)
    path = broker.store.journal_path
    del broker
    data = flip_middle_byte(path)
    with pytest.raises(WalError, match="below the snapshot's mark"):
        TransferBroker(config)
    # So does a journal that lost its end (shorter than the mark).
    path.write_bytes(bytes(data[:10]))
    with pytest.raises(WalError, match="hole in the idempotency log"):
        TransferBroker(config)


def test_checkpoint_bytes_follow_the_change_not_the_history(tmp_path):
    """A size pin, not a clock: 656 slots of the spine's ``durable_trickle``
    shape (8 requests/slot, 1-6 GB, deadlines 2-8, 64-slot periods)."""
    broker = TransferBroker(ServiceConfig(
        datacenters=10, capacity=100.0, max_deadline=8, tick_seconds=0.0,
        checkpoint_dir=str(tmp_path / "ckpt"), wal_fsync=False,
        period_slots=64, telemetry=False,
    ))
    store = broker.store
    rng = np.random.default_rng(1)
    per_decision = {}
    for slot in range(656):
        for n in range(8):
            src = int(rng.integers(0, 10))
            broker.submit({
                "id": f"r{slot * 8 + n:06d}", "source": src,
                "destination": (src + int(rng.integers(1, 10))) % 10,
                "size_gb": round(float(rng.uniform(1.0, 6.0)), 6),
                "deadline_slots": int(rng.integers(2, 9)),
            })
        broker.process_slot()
        if slot + 1 in (82, 164, 328, 656):
            journaled = (slot + 1) // 5 * 40  # checkpoint_every=5 x 8 requests
            per_decision[slot + 1] = store.stats()["journal_bytes"] / journaled
    store.close()
    # Decision records hold no measured timings (wait_s, decision_s).
    assert all(200 < size < 240 for size in per_decision.values()), per_decision
    assert max(per_decision.values()) <= 1.05 * min(per_decision.values())
    assert store.stats()["snapshot_bytes"] / len(broker.decisions) <= 4096
    for generation in store.snapshot_generations():
        assert b'"decisions"' not in store.snapshot_path(generation).read_bytes()


def test_closed_periods_leave_completions_and_rejections(tmp_path):
    """A rollover drops the closed period's completions and rejections
    with its ledger cells, live and on replay; the request-id watermark
    and the decision log do not need them."""
    broker = TransferBroker(wal_config(
        tmp_path, period_slots=4, max_deadline=3, checkpoint_every=3, wal_fsync=False,
    ))
    dropped = 0
    for slot in range(10):  # rollovers at slots 4 and 8
        for n, size in enumerate((4.0, 6.0, 5000.0)):  # the last is refused
            broker.submit({"id": f"p{slot}-{n}", "source": n, "destination": 3,
                           "size_gb": size, "deadline_slots": 2})
        held = len(broker.state.completions) + len(broker.state.rejected)
        broker.process_slot()
        state = broker.state
        dropped += held + 3 - len(state.completions) - len(state.rejected)
        assert all(done >= state.period_start for done in state.completions.values())
        assert all(r.last_slot >= state.period_start for r in state.rejected)
    assert broker.state.period_start == 8 and dropped > 0
    assert broker.counts["rejected"] == 10 and len(broker.decisions) == 30
    twin = recovered_twin(broker, tmp_path)  # replays slots 9-10 over slot 9's snapshot
    assert books(twin) == books(broker)
    # Replay mints new request ids; the completion slots are the same.
    assert sorted(twin.state.completions.values()) == sorted(broker.state.completions.values())
    assert invariants.decisions(twin) == []


def test_checkpoint_span_says_what_it_wrote(tmp_path):
    import repro.obs as obs

    broker = TransferBroker(wal_config(tmp_path, checkpoint_every=2))
    sink = obs.get_registry().add_sink(Events())
    try:
        drive_slots(broker, 4)
    finally:
        obs.get_registry().remove_sink(sink)
    spans = [e["attrs"] for e in sink.events
             if e["type"] == "span" and e["name"] == "service.checkpoint"]
    assert [a["decisions"] for a in spans] == [2, 2]
    assert [a["generation"] for a in spans] == [1, 2]
    assert sum(a["journal_bytes"] for a in spans) == broker.store.written["journal_bytes"]
    assert sum(a["bytes"] for a in spans) == broker.store.written["snapshot_bytes"]


# -- the format floor ---------------------------------------------------------


def _snapshot_only_directory(tmp_path):
    """A checkpoint directory holding the snapshot-only layout's
    ``snapshot.json``, which is below the format floor."""
    from repro.core.checkpoint import save_snapshot
    from repro.core.state import NetworkState

    config = wal_config(tmp_path)
    directory = tmp_path / "ckpt"
    directory.mkdir()
    save_snapshot(NetworkState(config.topology(), config.horizon),
                  directory / "snapshot.json", meta={"decisions_mark": 0})
    return config, directory


def test_a_snapshot_only_directory_is_refused(tmp_path):
    """A directory holding ``snapshot.json`` is refused rather than read or
    served from empty books, and the refusal touches nothing."""
    config, directory = _snapshot_only_directory(tmp_path)
    for _ in range(2):  # nothing was touched: it refuses again
        with pytest.raises(WalError, match="holds snapshot.json.*since commit 76faf1c"):
            TransferBroker(config)
    assert sorted(p.name for p in directory.iterdir()) == ["snapshot.json"]


def test_a_directory_holding_both_layouts_is_refused(tmp_path):
    """``snapshot.json`` beside a generation's log is refused too: the
    generational files do not make the old layout readable."""
    config, directory = _snapshot_only_directory(tmp_path)
    (directory / "wal-00000000.log").touch()
    with pytest.raises(WalError, match="holds snapshot.json.*since commit 76faf1c"):
        TransferBroker(config)
    assert sorted(p.name for p in directory.iterdir()) == [
        "snapshot.json", "wal-00000000.log"
    ]


def test_a_corrupt_genesis_snapshot_refuses_to_serve(tmp_path):
    """Generation 0 has no older generation to fall back on, and the
    genesis log does not start from empty books."""
    broker = TransferBroker(wal_config(tmp_path, checkpoint_every=100))
    drive_slots(broker, 2)
    broker.store.close()
    path = broker.store.snapshot_path(0)
    path.write_text(path.read_text().replace('"next_slot":0,', '"next_slot":9,'))
    for _ in range(2):  # nothing was touched: it refuses again
        with pytest.raises(SchedulingError, match="checksum mismatch"):
            TransferBroker(broker.config)


def test_a_plan_less_commit_with_a_batch_is_refused(tmp_path):
    """A commit that decided files but carries no plan is below the floor:
    recovery refuses it instead of planning the slot again."""
    broker = TransferBroker(wal_config(tmp_path, checkpoint_every=100))
    drive_slots(broker, 3)
    broker.store.close()
    log = broker.store.wal_path(0)
    log.write_bytes(b"".join(
        encode_record({k: v for k, v in r.items() if not (k == "plan" and r["slot"] == 1)})
        for r in scan_wal(log).records
    ))
    with pytest.raises(WalError, match="slot 1's commit carries no plan.*76faf1c"):
        TransferBroker(broker.config)


def test_an_idle_plan_less_commit_replays_without_planning(tmp_path):
    """An idle slot with nothing in flight journals no plan; replay commits
    the empty plan and calls no lane's ``plan_slot``."""
    from unittest import mock

    from repro.core import PostcardScheduler
    from repro.heuristic import HybridScheduler
    from repro.heuristic.fastlane import FastLaneScheduler

    broker = TransferBroker(wal_config(tmp_path, checkpoint_every=100))
    drive_slots(broker, 2)
    broker.process_slot()
    broker.process_slot()
    commits = [r for r in scan_wal(broker.store.wal.path).records if r["type"] == "commit"]
    assert [("plan" in r, r["batch"] == []) for r in commits] == [
        (True, False), (True, False), (False, True), (False, True)
    ]
    spies = [mock.patch.object(cls, "plan_slot", autospec=True, side_effect=cls.plan_slot)
             for cls in (HybridScheduler, FastLaneScheduler, PostcardScheduler)]
    with spies[0] as hybrid, spies[1] as fast, spies[2] as lp:
        twin = recovered_twin(broker, tmp_path)
    assert (hybrid.call_count, fast.call_count, lp.call_count) == (0, 0, 0)
    assert books(twin) == books(broker) and twin.next_slot == 4


# -- one JSON codec ------------------------------------------------------------


@pytest.fixture
def encoded(monkeypatch):
    """Every object the test hands ``orjson.dumps``, with the bytes it wrote."""
    import orjson

    real, seen = orjson.dumps, []

    def dumps(obj, *args, **kwargs):
        seen.append((obj, real(obj, *args, **kwargs)))
        return seen[-1][1]

    monkeypatch.setattr(orjson, "dumps", dumps)
    return seen


def assert_stdlib_parity(seen):
    """orjson's bytes parse to what the standard library's would, and no
    non-finite float reached the encoder: ``allow_nan=False`` raises
    where orjson would have written ``null``."""
    import orjson

    for obj, out in seen:
        assert orjson.loads(out) == json.loads(json.dumps(obj, allow_nan=False))


def test_every_message_the_daemon_writes_matches_the_stdlib(tmp_path, encoded):
    """Each reply shape, WAL record kind, journal frame and snapshot of a
    durable daemon; a non-ASCII client id rides submit, the WAL, the
    journal and recovery to ``status``."""
    from repro.service import protocol

    config = wal_config(tmp_path, max_queue=2, checkpoint_every=3)
    uid = "café-東京"

    def submit(cid, **fields):
        return {"op": "submit", "id": cid, "source": 0, "destination": 2,
                "size_gb": 4.0, "deadline_slots": 3, **fields}

    async def scenario():
        daemon = ServiceDaemon(config)
        daemon.open()
        broker = daemon.broker
        wire = protocol.decode_line(protocol.encode(submit(uid)))
        admitted = await daemon.handle(wire)
        rejected = await daemon.handle(submit("big", size_gb=10 * config.capacity,
                                              deadline_slots=1))
        replies = [
            await daemon.call(submit("full")),
            await daemon.call(submit(uid)),
            await daemon.call(submit("bad", destination=0)),
            await daemon.call({"op": "status", "id": uid}),
            await daemon.call({"op": "tick"}),
            await admitted, await rejected,
            await daemon.call(submit(uid)),
            await daemon.call({"op": "status", "id": uid}),
        ]
        healthy = broker.scheduler.on_slot
        broker.scheduler.on_slot = lambda slot, requests: 1 / 0
        doomed = await daemon.handle(submit("doomed"))
        replies += [await daemon.call({"op": "tick"}), await doomed]
        broker.scheduler.on_slot = healthy
        await daemon.handle(submit("late"))
        for op in ("tick", "stats", "metrics", "ping", "drain"):
            replies.append(await daemon.call({"op": op}))
        await daemon.stop()
        return broker, replies

    broker, replies = asyncio.run(scenario())
    assert [r.get("error") or (r["decision"] if r["op"] == "submit" else r["op"])
            for r in replies] == [
        "backpressure", "refused", "invalid", "status", "tick", "admitted", "rejected",
        "admitted", "status", "tick", "internal", "tick", "stats", "metrics", "ping",
        "drain",
    ]
    assert replies[0]["retry_after_s"] > 0 and replies[7]["cached"]
    for reply in replies:  # as the shell writes each to its connection
        protocol.encode(reply)
    written = [obj for obj, _ in encoded]
    commits = [r for r in written if r.get("type") == "commit"]
    assert any(r.get("type") == "admit" for r in written)
    assert {"failed", "fast", "lp"} <= {r["lane"] for r in commits}
    assert any("plan" in r for r in commits)
    assert any(uid in r for r in written)  # a journal frame
    assert any(r.get("kind") == "postcard-snapshot" for r in written)
    assert_stdlib_parity(encoded)

    assert uid.encode() in broker.store.wal_path(0).read_bytes()
    assert uid.encode() in broker.store.journal_path.read_bytes()
    twin = recovered_twin(broker, tmp_path)
    assert books(twin) == books(broker)
    assert {"ok": True, "op": "status", "id": uid, **twin.status(uid)} == replies[8]
    assert replies[8]["decision"]["decision"] == "admitted"


def _stdlib_frames(path):
    """Re-encode every frame of a log as the standard library did; returns
    each old frame boundary's new offset."""
    data, offsets, old, out = path.read_bytes(), {0: 0}, 0, b""
    while old < len(data):
        length, _ = RECORD_HEADER.unpack_from(data, old)
        start = old + RECORD_HEADER.size
        record = json.loads(data[start:start + length])
        payload = json.dumps(record, separators=(",", ":")).encode()
        out += RECORD_HEADER.pack(len(payload), zlib.crc32(payload)) + payload
        old = start + length
        offsets[old] = len(out)
    path.write_bytes(out)
    return offsets


def test_a_directory_the_stdlib_codec_wrote_still_recovers(tmp_path):
    """Frames and snapshots encoded as ``json`` wrote them (``1e-05``,
    ``\\u00e9``) recover to the books of a broker that never restarted."""
    broker = TransferBroker(wal_config(tmp_path, checkpoint_every=100))

    def submit(n):
        broker.submit({"id": f"é{n}", "source": n % 4, "destination": (n + 1) % 4,
                       "size_gb": 1e-05 if n % 2 else 2.5, "deadline_slots": 3})

    for n in range(4):
        submit(n)
        broker.process_slot()
    submit(4)
    broker.checkpoint()  # the snapshot holds a 1e-05 cell and a queued id
    submit(5)
    broker.process_slot()
    broker.store.close()
    store = broker.store
    for gen in store.wal_generations():
        _stdlib_frames(store.wal_path(gen))
    marks = _stdlib_frames(store.journal_path)
    for gen in store.snapshot_generations():
        path = store.snapshot_path(gen)
        payload = json.loads(path.read_bytes())
        del payload["checksum"]
        meta = payload["meta"]
        meta["decisions_mark"] = marks[meta["decisions_mark"]]
        body = json.dumps(payload, separators=(",", ":"))
        path.write_text(f'{body[:-1]},"checksum":{zlib.crc32(body.encode())}}}')
    for path in (store.snapshot_path(store.generation), store.wal_path(store.generation),
                 store.journal_path):
        data = path.read_bytes()
        assert b"\\u00e9" in data and b"e-05" in data and "é".encode() not in data

    twin = recovered_twin(broker, tmp_path)
    info = twin.recovery_info  # from the newest snapshot, no fallback
    assert (info["fallbacks"], info["base_generation"]) == (0, store.generation)
    assert books(twin) == books(broker)
    assert twin.decisions == broker.decisions and twin.next_slot == broker.next_slot == 5
