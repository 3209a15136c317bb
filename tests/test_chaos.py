"""Crash-fault injection drills and the recovery verifier."""

import pytest

from repro.errors import RecoveryVerifyError, ReproError, ServiceError
from repro.service import chaos
from repro.service.chaos import (
    CRASH_MODELS,
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
    monkey.crashpoint("p")  # past the trigger: quiet again
    monkey.disarm("p")
    monkey.crashpoint("p")


def test_enospc_is_a_crash_point_action():
    """Disk-full is an ``OSError`` the caller handles, not a crash; a torn
    write is the crash matrix's ``power-torn`` model, not an action."""
    monkey = ChaosMonkey()
    monkey.arm("w", action="enospc", at=2)
    monkey.crashpoint("w")
    with pytest.raises(OSError, match="No space left"):
        monkey.crashpoint("w")
    monkey.crashpoint("other")  # unarmed points stay quiet
    with pytest.raises(ServiceError, match="unknown chaos action"):
        monkey.arm("w", action="torn")


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


@pytest.fixture(scope="module")
def crash_matrix(tmp_path_factory):
    chaos.reset()
    return chaos.run_crash_matrix(str(tmp_path_factory.mktemp("matrix")))


def test_crash_matrix_recovers_exactly(crash_matrix):
    report = crash_matrix
    assert report["ok"], report
    assert set(report["points"]) == set(DEFAULT_CRASH_POINTS) | {"admits.unsynced"}
    for point, models in report["points"].items():
        assert set(models) == set(CRASH_MODELS)
        for model, entry in models.items():
            assert entry["crashed"], f"{point}/{model} never fired"
            assert entry["books_equal"], f"{point}/{model} diverged: {entry}"
            assert entry["answers_kept"], f"{point}/{model} contradicted a client"
            # Power loss before the first fsync leaves an empty directory:
            # a fresh start, with nothing for the verifier to check.
            assert entry["verifier"]["ok"] if entry["resumed"] else entry["lost_bytes"]
    # The journal's boundaries are in the matrix.  A death before its
    # write leaves nothing to cut; from the write up to the snapshot's
    # rename the journal runs ahead of the surviving snapshot's mark.
    cut = {p: e["process"]["recovery"]["journal_cut_bytes"]
           for p, e in report["points"].items()}
    assert cut["journal.pre_write"] == 0
    for point in ("journal.pre_fsync", "journal.post_fsync", "checkpoint.pre_write",
                  "checkpoint.pre_fsync", "checkpoint.pre_rename"):
        assert cut[point] > 0, point
    assert cut["checkpoint.post_rename"] == cut["commit.pre_ack"] == 0


def test_unsynced_admits_replay_after_a_kill_and_vanish_with_the_power(crash_matrix):
    """What each crash model does to a batch of written-but-unsynced admits."""
    points = crash_matrix["points"]
    models = points["admits.unsynced"]
    # kill -9: the page cache keeps the bytes, the resubmits attach.
    assert models["process"]["lost_bytes"] == 0
    assert models["process"]["recovery"]["replayed_records"] == 4
    assert models["process"]["resubmits"] == {"pending": 8, "attached": 4, "decided": 0}
    # Power loss, at a frame boundary and inside a frame: nobody was told
    # about them, so they are gone and the resubmits are fresh.
    for model in ("power", "power-torn"):
        entry = models[model]
        assert entry["lost_bytes"] > 0 and entry["recovery"]["replayed_records"] == 0
        assert entry["resubmits"] == {"pending": 12, "attached": 0, "decided": 0}
    assert models["power"]["recovery"]["torn_bytes"] == 0
    assert models["power-torn"]["recovery"]["torn_bytes"] == 5
    # The fsync taps now belong to the commit record: a cut there loses
    # the slot's admits *and* its commit under power loss before the
    # fsync, and nothing after it.
    assert points["wal.pre_fsync"]["power"]["lost_bytes"] > 0
    assert points["wal.post_fsync"]["power"]["lost_bytes"] == 0


def test_a_pending_answer_survives_power_loss(tmp_path):
    """``status -> pending`` is a reveal: it syncs first, so the cut keeps it."""
    broker = _wal_broker(tmp_path)
    fields = {"source": 0, "destination": 2, "size_gb": 4.0, "deadline_slots": 3}
    broker.submit(dict(fields, id="asked"))
    broker.submit(dict(fields, id="also-covered"))
    assert broker.status("asked") == {"state": "pending"}
    broker.submit(dict(fields, id="unasked"))
    assert chaos.power_loss(broker.store.wal) > 0
    del broker

    resumed = _wal_broker(tmp_path)
    assert resumed.status("asked") == resumed.status("also-covered") == {"state": "pending"}
    assert resumed.status("unasked") == {"state": "unknown"}
    # Its resubmit is a fresh, exactly-once decision.
    assert resumed.submit(dict(fields, id="unasked"))[0] == "pending"
    assert resumed.submit(dict(fields, id="asked"))[0] == "attached"
    resumed.process_slot()
    assert set(resumed.decisions) == {"asked", "also-covered", "unasked"}
    assert resumed.counts["submitted"] == 3


def test_checkpoint_walks_the_crash_points_in_order(tmp_path, monkeypatch):
    """An admit only writes; the commit record owns the fsync's two taps.
    The journal's taps sit between the commit record and the snapshot,
    under their own names: the older points keep their hit order."""
    broker = _wal_broker(tmp_path)
    hits = []
    monkeypatch.setattr(chaos.MONKEY, "crashpoint", hits.append)
    broker.submit({"id": "o-1", "source": 0, "destination": 2,
                   "size_gb": 4.0, "deadline_slots": 3})
    assert hits == ["wal.pre_write"]  # the admit record: written, not synced
    broker.process_slot()
    assert hits[1:] == [
        "wal.pre_write", "wal.pre_fsync", "wal.post_fsync",  # the commit record
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
    assert report["solver_error"] == {"lanes": ["degraded"], "rearmed": True}
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
    chaos.MONKEY.arm("wal.pre_write", action="enospc")
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
