"""Crash-fault injection drills and the recovery verifier."""

import pytest

from repro.errors import RecoveryVerifyError, ReproError, ServiceError
from repro.service import chaos
from repro.service.chaos import (
    DEFAULT_CRASH_POINTS,
    ChaosMonkey,
    InjectedCrash,
)
from repro.service.config import ServiceConfig
from repro.service.slotloop import TransferBroker
from repro.service.verify import verify_recovery


@pytest.fixture(autouse=True)
def disarm_everything():
    chaos.reset()
    yield
    chaos.reset()


# -- the monkey ------------------------------------------------------------


def test_injected_crash_is_not_a_repro_error():
    # An `except ReproError` handler must never swallow a drill crash.
    assert not issubclass(InjectedCrash, Exception)
    assert not issubclass(InjectedCrash, ReproError)


def test_arm_fires_on_nth_hit():
    monkey = ChaosMonkey()
    monkey.arm("p", action="raise", at=3)
    monkey.crashpoint("p")
    monkey.crashpoint("p")
    with pytest.raises(InjectedCrash, match="p"):
        monkey.crashpoint("p")
    assert monkey.fired("p") == 1
    monkey.crashpoint("p")  # past the trigger: quiet again
    monkey.disarm("p")
    assert not monkey.armed


def test_mangle_torn_and_enospc():
    monkey = ChaosMonkey()
    monkey.arm("w", action="torn", param=4)
    assert monkey.mangle("w", b"abcdefgh") == b"abcd"
    monkey.arm("w", action="enospc")
    with pytest.raises(OSError, match="No space left"):
        monkey.mangle("w", b"abcdefgh")
    # Unarmed points pass data through untouched.
    assert monkey.mangle("other", b"xy") == b"xy"


def test_configure_from_env(monkeypatch):
    monkey = ChaosMonkey()
    monkeypatch.setenv(
        "REPRO_CHAOS", "raise:wal.pre_fsync:2, hang:lp.escalate:1:0.5"
    )
    assert monkey.configure_from_env() == 2
    monkey.crashpoint("wal.pre_fsync")
    with pytest.raises(InjectedCrash):
        monkey.crashpoint("wal.pre_fsync")
    monkeypatch.setenv("REPRO_CHAOS", "justonepart")
    with pytest.raises(ServiceError, match="clause"):
        ChaosMonkey().configure_from_env()


def test_unknown_action_refused():
    with pytest.raises(ServiceError, match="unknown chaos action"):
        ChaosMonkey().arm("p", action="explode")


# -- the drills ------------------------------------------------------------


def test_crash_matrix_recovers_exactly(tmp_path):
    report = chaos.run_crash_matrix(str(tmp_path))
    assert report["ok"], report
    assert set(report["points"]) == set(DEFAULT_CRASH_POINTS)
    for point, entry in report["points"].items():
        assert entry["crashed"], f"{point} never fired"
        assert entry["books_equal"], f"{point} diverged: {entry}"
        assert entry["verifier"]["ok"]
    # The journal's boundaries are in the matrix.  A death before its
    # write leaves nothing to cut; from the write up to the snapshot's
    # rename the journal runs ahead of the surviving snapshot's mark.
    cut = {p: e["recovery"]["journal_cut_bytes"] for p, e in report["points"].items()}
    assert cut["journal.pre_write"] == 0
    for point in ("journal.pre_fsync", "journal.post_fsync", "checkpoint.pre_write",
                  "checkpoint.pre_fsync", "checkpoint.pre_rename"):
        assert cut[point] > 0, point
    assert cut["checkpoint.post_rename"] == cut["commit.pre_ack"] == 0


def test_checkpoint_walks_the_crash_points_in_order(tmp_path, monkeypatch):
    """The journal's taps sit between the commit record and the snapshot,
    under their own names: the older points keep their hit order."""
    broker = _wal_broker(tmp_path)
    hits = []
    monkeypatch.setattr(chaos.MONKEY, "crashpoint", hits.append)
    broker.submit({"id": "o-1", "source": 0, "destination": 2,
                   "size_gb": 4.0, "deadline_slots": 3})
    broker.process_slot()
    wal = ["wal.pre_write", "wal.pre_fsync", "wal.post_fsync"]
    assert hits == wal + wal + [   # the admit record, then the commit record
        "journal.pre_write", "journal.pre_fsync", "journal.post_fsync",
        "checkpoint.pre_write", "checkpoint.pre_fsync",
        "checkpoint.pre_rename", "checkpoint.post_rename",
        "commit.pre_ack",
    ]
    assert set(hits) == set(DEFAULT_CRASH_POINTS)


def test_torn_and_corrupt_drill(tmp_path):
    report = chaos.run_torn_and_corrupt_drill(str(tmp_path))
    assert report["ok"], report
    cases = report["cases"]
    assert cases["torn_wal_tail"]["recovery"]["torn_bytes"] > 0
    assert cases["torn_journal_tail"]["recovery"]["journal_cut_bytes"] > 0
    assert cases["corrupt_snapshot"]["recovery"]["fallbacks"] >= 1
    assert cases["corrupt_snapshot"]["recovery"]["journal_cut_bytes"] > 0


def test_watchdog_drill_degrades_and_rearms(tmp_path):
    report = chaos.run_watchdog_drill(str(tmp_path))
    assert report["ok"], report
    assert report["degraded_slots"] >= 1
    assert report["first_slot_seconds"] < 0.5
    assert report["rearmed"]
    assert report["all_decided"]
    # The degrade is SLO-visible: budget 0 means the window breaches.
    assert report["slo"]["value"] >= 1.0
    assert report["slo"]["ok"] is False


# -- disk-full on the intake path ------------------------------------------


def _wal_broker(tmp_path):
    return TransferBroker(ServiceConfig(
        datacenters=4, capacity=50.0, seed=3, max_deadline=8,
        tick_seconds=0.0, checkpoint_dir=str(tmp_path / "ckpt"),
        checkpoint_every=1, wal=True,
    ))


def test_disk_full_refuses_submission_cleanly(tmp_path):
    broker = _wal_broker(tmp_path)
    chaos.MONKEY.arm("wal.append", action="enospc")
    fields = {"id": "full-1", "source": 0, "destination": 2,
              "size_gb": 4.0, "deadline_slots": 3}
    with pytest.raises(ServiceError, match="cannot journal"):
        broker.submit(dict(fields))
    # The rollback is total: nothing queued, nothing counted.
    assert broker.queue.depth == 0
    assert broker.counts["submitted"] == 0
    chaos.reset()
    outcome, _ = broker.submit(dict(fields))
    assert outcome == "pending"
    broker.process_slot()
    assert broker.decisions["full-1"]["decision"] in ("admitted", "rejected")


# -- the verifier ----------------------------------------------------------


def test_verifier_passes_healthy_broker(tmp_path):
    broker = _wal_broker(tmp_path)
    broker.submit({"id": "v-1", "source": 0, "destination": 2,
                   "size_gb": 4.0, "deadline_slots": 3})
    broker.process_slot()
    report = verify_recovery(broker)
    assert report["ok"]
    assert set(report["checks"]) == {
        "ledger_conservation", "no_double_charge", "watermark_monotonic",
        "next_slot_consistent", "queue_bounded",
    }


def test_verifier_catches_double_charge(tmp_path):
    broker = _wal_broker(tmp_path)
    broker.submit({"id": "v-1", "source": 0, "destination": 2,
                   "size_gb": 4.0, "deadline_slots": 3})
    broker.process_slot()
    broker.counts["admitted"] += 1  # cook the books
    report = verify_recovery(broker, strict=False)
    assert not report["ok"]
    assert not report["checks"]["no_double_charge"]["ok"]
    with pytest.raises(RecoveryVerifyError, match="no_double_charge"):
        verify_recovery(broker, strict=True)


def test_verifier_catches_rewound_clock(tmp_path):
    broker = _wal_broker(tmp_path)
    broker.submit({"id": "v-1", "source": 0, "destination": 2,
                   "size_gb": 4.0, "deadline_slots": 3})
    broker.process_slot()
    broker.next_slot = 0  # a rewound clock would re-bill slot 0
    report = verify_recovery(broker, strict=False)
    assert not report["checks"]["next_slot_consistent"]["ok"]


def test_verifier_catches_ledger_drift(tmp_path):
    broker = _wal_broker(tmp_path)
    broker.submit({"id": "v-1", "source": 0, "destination": 2,
                   "size_gb": 4.0, "deadline_slots": 3})
    broker.process_slot()
    link = next(iter(broker.state.ledger.used_links()))
    broker.state._charged[link] = broker.state._charged.get(link, 0.0) + 5.0
    report = verify_recovery(broker, strict=False)
    assert not report["checks"]["ledger_conservation"]["ok"]
